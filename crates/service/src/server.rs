//! The TCP server: session registry, connection handling, dispatch,
//! graceful shutdown.
//!
//! `std::net` only — the build container is offline, so there is no
//! async runtime; concurrency is a bounded connection-handler
//! [`ThreadPool`] (blocking reads with a short timeout so handlers
//! notice shutdown) in front of the admission queue of [`crate::batch`],
//! which bounds *compute* concurrency separately from connection count.
//! `update`, `check` and `eval` share one admission path: the shed gate,
//! a deadline token armed before admission, a disconnect watch, the
//! lane submit, and the refusal, cancellation and error responses.
//! Every other verb is answered on the handler thread.
//!
//! Shutdown protocol: a `shutdown` request flips the shared flag and
//! pokes the listener with a dummy connection to unblock `accept`. The
//! accept loop exits, the handler pool is dropped — which drains
//! in-flight connections (handlers observe the flag at their next read
//! timeout, at most ~200 ms) and joins every worker — and `run`
//! returns.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cqchase_index::CancelToken;
use cqchase_obs::{SpanKind, Tracer};
use cqchase_par::ThreadPool;
use serde_json::{Map, Value};

use crate::batch::{rows_to_value, Batcher, Job, Outcome, Work};
use crate::catalog::CatalogRegistry;
use crate::durable::{Durability, RecoveryReport, StdIo};
use crate::lanes::{lane_of, LaneSet};
use crate::metrics::Metrics;
use crate::proto::{error_response, ok_response, Op, Request};
use crate::session::{PlannerCounters, Session, SessionRegistry};

/// Span-recorder ring capacity: spans from the last ~hundreds of traced
/// requests stay readable for the slow-query logger before being
/// overwritten.
const TRACE_CAPACITY: usize = 4096;

/// Cap on the `sessions_detail` block in `stats`/`metrics` responses:
/// with thousands of resident sessions, per-session gauges for every
/// one would dominate the payload (and the Prometheus exposition), so
/// only the top entries by lifetime request traffic are itemized and
/// `sessions_detail_omitted` counts the rest. Aggregates always cover
/// every session.
const SESSIONS_DETAIL_CAP: usize = 64;

/// Default lane count for [`ServeOptions::lanes`]: one admission lane
/// per core up to 8 — past that, leader self-promotion churn outweighs
/// the contention relief on any workload we measure.
pub fn default_lanes() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// How often the disconnect watcher polls its registered sockets, and
/// therefore the upper bound it adds to how long an abandoned request
/// keeps computing before its token fires.
const WATCH_POLL: Duration = Duration::from_millis(20);

/// How long a computed resident-bytes figure is trusted before the
/// pressure check walks the session registry again. Residency moves
/// only on updates/registrations, so re-summing it on every request
/// would buy nothing and cost a registry snapshot per dispatch.
const PRESSURE_RECHECK: Duration = Duration::from_millis(250);

/// Minimum spacing between pressure-triggered cache-eviction passes:
/// shedding a burst must not clear the caches once per refused
/// request — one pass per window, the rest of the burst just sheds.
const EVICT_WINDOW: Duration = Duration::from_secs(1);

/// The `retry_after_ms` hint attached to shed refusals. Chosen to
/// outlast a typical batch drain so a backing-off client's retry
/// lands after the queue has actually moved.
const SHED_RETRY_AFTER_MS: u64 = 100;

/// One socket being watched for peer disconnect while its request is
/// in flight.
struct WatchSlot {
    id: u64,
    stream: TcpStream,
    token: CancelToken,
}

/// Cancels in-flight work whose client hung up.
///
/// One thread for the whole server polls a registry of
/// `(socket, token)` pairs every [`WATCH_POLL`]: a zero-byte `peek`
/// (orderly shutdown) or a hard socket error fires the request's
/// [`CancelToken`], and the engines unwind at their next coalesced
/// cancellation check — work nobody is waiting for stops occupying
/// the compute pool. Sockets are registered only while a queued verb
/// is in flight and deregistered by guard the moment it completes, so
/// the poll list stays as small as the number of concurrently
/// executing requests.
struct DisconnectWatcher {
    slots: Mutex<Vec<WatchSlot>>,
    stop: AtomicBool,
    next_id: AtomicU64,
}

/// Deregisters a watched socket when the request finishes (including
/// by panic — the guard lives on the dispatch stack).
struct WatchGuard<'a> {
    watcher: &'a DisconnectWatcher,
    id: u64,
}

impl Drop for WatchGuard<'_> {
    fn drop(&mut self) {
        let mut slots = self.watcher.slots.lock().expect("watcher slots lock");
        slots.retain(|s| s.id != self.id);
    }
}

impl DisconnectWatcher {
    /// Builds the watcher and starts its poll thread.
    fn spawn() -> (Arc<DisconnectWatcher>, std::thread::JoinHandle<()>) {
        let watcher = Arc::new(DisconnectWatcher {
            slots: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
        });
        let w = Arc::clone(&watcher);
        let handle = std::thread::Builder::new()
            .name("disconnect-watcher".into())
            .spawn(move || w.run())
            .expect("spawn disconnect watcher");
        (watcher, handle)
    }

    /// Registers `stream` for disconnect polling; its `token` fires if
    /// the peer goes away. Returns `None` (watching disabled for this
    /// request, nothing else changes) when the socket cannot be
    /// cloned — cancellation is an optimization, never a correctness
    /// dependency.
    fn watch<'a>(&'a self, stream: &TcpStream, token: CancelToken) -> Option<WatchGuard<'a>> {
        let clone = stream.try_clone().ok()?;
        clone.set_nonblocking(true).ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.slots
            .lock()
            .expect("watcher slots lock")
            .push(WatchSlot {
                id,
                stream: clone,
                token,
            });
        Some(WatchGuard { watcher: self, id })
    }

    fn run(&self) {
        let mut probe = [0u8; 1];
        while !self.stop.load(Ordering::Acquire) {
            std::thread::sleep(WATCH_POLL);
            let mut slots = self.slots.lock().expect("watcher slots lock");
            slots.retain(|s| {
                // A nonblocking peek never consumes protocol bytes:
                // pending data (the client pipelining its next request)
                // and WouldBlock both mean the peer is still there.
                match s.stream.peek(&mut probe) {
                    Ok(0) => {
                        s.token.cancel();
                        false
                    }
                    Ok(_) => true,
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                        ) =>
                    {
                        true
                    }
                    Err(_) => {
                        s.token.cancel();
                        false
                    }
                }
            });
        }
    }
}

/// The throttled resident-bytes figure behind the memory watermark.
struct PressureState {
    /// When `resident_bytes` was last recomputed (`None` = never).
    checked_at: Option<Instant>,
    resident_bytes: u64,
    /// When the last pressure-triggered eviction pass ran.
    evicted_at: Option<Instant>,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Worker threads for containment/evaluation batches (split across
    /// lanes: each lane's batcher gets `max(1, batch_threads / lanes)`).
    pub batch_threads: usize,
    /// Session lanes: independent admission queues session names hash
    /// onto, each with its own batch leader, compute-pool slice, and
    /// metrics shard. `1` reproduces the single-queue server exactly.
    pub lanes: usize,
    /// Connection-handler threads (bounds concurrent connections).
    pub conn_workers: usize,
    /// Semantic-cache capacity per session (0 disables caching).
    pub sem_cache_capacity: usize,
    /// Evaluation plan-cache capacity per fact set: each catalog's
    /// shared base, and each promoted session's private copy.
    pub plan_cache_capacity: usize,
    /// Data directory for crash-safe session persistence. When set,
    /// registrations and updates are write-ahead logged (fsync before
    /// acknowledgement) and the whole registry survives a restart;
    /// when `None` the server is purely in-memory (the prior behavior).
    pub data_dir: Option<PathBuf>,
    /// WAL size past which a snapshot rotation triggers (`None` uses
    /// [`cqchase_durability::DEFAULT_ROTATE_BYTES`]).
    pub wal_rotate_bytes: Option<u64>,
    /// Slow-query threshold in microseconds: a request whose total
    /// latency reaches it is logged as one structured JSON line with its
    /// full span trace (to `--data-dir/slowlog` when a data directory is
    /// configured, stderr otherwise). Setting it turns tracing on.
    /// `None` disables the slow-query log.
    pub slow_query_us: Option<u64>,
    /// Force request tracing on even without a slow-query threshold
    /// (spans are recorded but nothing is emitted — useful for the
    /// tracing-overhead benchmark and tests reading the recorder).
    pub trace: bool,
    /// Default deadline applied to `update`/`check`/`eval` requests
    /// that do not carry their own `deadline_ms`. `None` leaves
    /// hintless requests unlimited (the prior behavior). The deadline
    /// is measured from admission, so queue wait counts against it.
    pub default_deadline_ms: Option<u64>,
    /// Load-shedding watermark on a lane's admission-queue depth:
    /// when the target lane already holds at least this many queued
    /// work items, new `update`/`check`/`eval` requests are refused
    /// with `retry_after_ms` instead of queued. `None` disables
    /// depth-based shedding.
    pub shed_queue_depth: Option<u64>,
    /// Load-shedding watermark on resident bytes (owned session
    /// indexes plus shared catalogs): above it, new expensive requests
    /// are refused with `retry_after_ms` and one cache-eviction pass
    /// drops rebuildable state (result caches, plan caches, semantic
    /// caches). Residency is recomputed at most every
    /// `PRESSURE_RECHECK` (250 ms). `None` disables memory-based
    /// shedding.
    pub shed_resident_bytes: Option<u64>,
    /// Write timeout on every accepted connection: a response write
    /// that stalls this long (a reader that stopped draining) counts
    /// one `write_timeouts` and drops the connection instead of
    /// wedging a handler thread. 0 disables the timeout.
    pub write_timeout_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7878".into(),
            batch_threads: cqchase_par::default_threads(),
            lanes: default_lanes(),
            conn_workers: 8,
            sem_cache_capacity: 1024,
            plan_cache_capacity: 256,
            data_dir: None,
            wal_rotate_bytes: None,
            slow_query_us: None,
            trace: false,
            default_deadline_ms: None,
            shed_queue_depth: None,
            shed_resident_bytes: None,
            write_timeout_ms: 10_000,
        }
    }
}

/// State shared by every connection handler.
struct Shared {
    sessions: Arc<SessionRegistry>,
    /// N admission lanes; requests route by `lane_of(session name)`.
    lanes: LaneSet,
    /// The shared-catalog registry: sessions registering an identical
    /// program attach to one frozen catalog instead of rebuilding it.
    /// Shared with the durability layer when one is configured, so
    /// recovery and live registration dedupe against the same pool.
    catalogs: Arc<CatalogRegistry>,
    durability: Option<Arc<Durability>>,
    metrics: Arc<Metrics>,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
    opts: ServeOptions,
    /// Connections accepted and not yet finished (serving or queued
    /// for a handler). Bounds admission — see [`Server::run`].
    active_conns: std::sync::atomic::AtomicUsize,
    /// The span recorder (shared with the batcher); enabled iff
    /// `opts.trace` or a slow-query threshold is set.
    tracer: Arc<Tracer>,
    /// The slow-query log sink: `--data-dir/slowlog` when a data
    /// directory is configured, `None` falls back to stderr.
    slowlog: Option<std::sync::Mutex<std::fs::File>>,
    /// The disconnect poller (see [`DisconnectWatcher`]).
    watcher: Arc<DisconnectWatcher>,
    /// Whether the last pressure check refused work — the `ping`
    /// verb's shedding gauge.
    shedding: AtomicBool,
    /// Throttled residency accounting for the memory watermark.
    pressure: Mutex<PressureState>,
    /// What recovery restored at bind (`Null` without a data dir) —
    /// reported by `ping` so probes can tell a fresh process from a
    /// restored one.
    recovery_json: Value,
}

/// Decrements the active-connection count when a handler finishes —
/// including by panic (the guard lives inside the pool job).
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.active_conns.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    recovery: Option<RecoveryReport>,
    watcher_handle: std::thread::JoinHandle<()>,
}

impl Server {
    /// Binds the listener and builds the shared state. When a data
    /// directory is configured, recovery runs here — a corrupt snapshot
    /// or WAL fails the bind with `InvalidData` naming the file and
    /// offset, never a silently emptier registry. The server does not
    /// accept connections until [`run`](Server::run).
    pub fn bind(opts: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let local_addr = listener.local_addr()?;
        let lane_count = opts.lanes.max(1);
        let metrics = Arc::new(Metrics::with_lanes(lane_count));
        let sessions = Arc::new(SessionRegistry::new());
        let (durability, recovery) = match &opts.data_dir {
            None => (None, None),
            Some(dir) => {
                let (d, report) = Durability::open(
                    Arc::new(StdIo),
                    dir,
                    opts.wal_rotate_bytes,
                    Arc::clone(&sessions),
                    opts.sem_cache_capacity,
                    opts.plan_cache_capacity,
                )
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                (Some(Arc::new(d)), Some(report))
            }
        };
        if let Some(report) = &recovery {
            // One structured line so process supervisors can scrape what
            // a restart actually restored.
            eprintln!("{}", report.to_json());
        }
        // One catalog pool for the whole process: the durable path
        // already owns one (recovery attaches restored sessions to it),
        // the in-memory server builds its own.
        let catalogs = match &durability {
            Some(d) => Arc::clone(d.catalogs()),
            None => Arc::new(CatalogRegistry::new(opts.plan_cache_capacity)),
        };
        let tracer = Arc::new(Tracer::new(TRACE_CAPACITY));
        tracer.set_enabled(opts.trace || opts.slow_query_us.is_some());
        // Each lane gets its own batcher over its own slice of the
        // compute budget; with one lane this is exactly the old single
        // batcher (same thread count, same counters).
        let threads_per_lane = (opts.batch_threads / lane_count).max(1);
        let lanes = LaneSet::new(lane_count, |i| {
            let mut b = Batcher::new(threads_per_lane, Arc::clone(&metrics))
                .with_lane(i)
                .with_tracing(Arc::clone(&tracer));
            if let Some(d) = &durability {
                b = b.with_durability(Arc::clone(d));
            }
            b
        });
        let slowlog = match (&opts.data_dir, opts.slow_query_us) {
            (Some(dir), Some(_)) => std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join("slowlog"))
                .ok()
                .map(std::sync::Mutex::new),
            _ => None,
        };
        let (watcher, watcher_handle) = DisconnectWatcher::spawn();
        let shared = Arc::new(Shared {
            sessions,
            lanes,
            catalogs,
            durability,
            metrics,
            shutdown: AtomicBool::new(false),
            local_addr,
            opts,
            active_conns: std::sync::atomic::AtomicUsize::new(0),
            tracer,
            slowlog,
            watcher,
            shedding: AtomicBool::new(false),
            pressure: Mutex::new(PressureState {
                checked_at: None,
                resident_bytes: 0,
                evicted_at: None,
            }),
            recovery_json: recovery
                .as_ref()
                .map(RecoveryReport::to_json)
                .unwrap_or(Value::Null),
        });
        Ok(Server {
            listener,
            shared,
            recovery,
            watcher_handle,
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// What recovery restored at bind time (`None` without a data dir).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Accepts and serves connections until a `shutdown` request
    /// arrives, then drains and returns.
    ///
    /// Admission is bounded: a connection is handed to the worker pool
    /// only while fewer than `2 × conn_workers` connections are live
    /// (serving or queued for a free worker); beyond that the server
    /// answers one `ok:false` overload line and closes, rather than
    /// queueing sockets without bound until file descriptors run out.
    pub fn run(self) -> io::Result<()> {
        let pool = ThreadPool::new(self.shared.opts.conn_workers);
        let max_conns = self.shared.opts.conn_workers.max(1) * 2;
        loop {
            let mut stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) => {
                    if self.shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    if e.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    return Err(e);
                }
            };
            if self.shared.shutdown.load(Ordering::Acquire) {
                // The shutdown waker (or a late client): drop it.
                break;
            }
            if self.shared.active_conns.load(Ordering::Relaxed) >= max_conns {
                // One process-wide counter regardless of lane count:
                // refusals happen at accept, before any lane routing.
                self.shared
                    .metrics
                    .overload_refusals
                    .fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
                let mut line = error_response(
                    None,
                    &format!("server overloaded: more than {max_conns} live connections"),
                )
                .to_string();
                line.push('\n');
                let _ = stream.write_all(line.as_bytes());
                continue; // drop the stream: connection refused politely
            }
            self.shared.active_conns.fetch_add(1, Ordering::Relaxed);
            self.shared
                .metrics
                .connections
                .fetch_add(1, Ordering::Relaxed);
            let shared = Arc::clone(&self.shared);
            pool.execute(move || {
                let guard = ConnGuard(Arc::clone(&shared));
                handle_connection(stream, shared);
                drop(guard);
            });
        }
        // Dropping the pool joins the handlers: every in-flight
        // connection notices the flag within one read timeout and
        // exits. That is the graceful drain.
        drop(pool);
        // No handlers left means no watched sockets left; stop the
        // disconnect poller and wait for its tick to finish.
        self.shared.watcher.stop.store(true, Ordering::Release);
        let _ = self.watcher_handle.join();
        Ok(())
    }

    /// Binds and runs on a background thread; returns the bound address
    /// and the join handle. Convenience for tests, benchmarks, and the
    /// load-generator experiment.
    pub fn spawn(
        opts: ServeOptions,
    ) -> io::Result<(SocketAddr, std::thread::JoinHandle<io::Result<()>>)> {
        let server = Server::bind(opts)?;
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        Ok((addr, handle))
    }
}

/// How long a blocking read waits before re-checking the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(200);

/// Maximum accepted line length (a peer streaming bytes with no
/// newline must not grow server memory without bound).
const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// Buffered newline framing over a read-timeout socket. `BufRead::
/// read_line` leaves its buffer unspecified after an error, so timeouts
/// (which are routine here — they are the shutdown poll) need explicit
/// buffering that survives them.
struct LineReader {
    buf: Vec<u8>,
    start: usize,
    /// Index up to which `buf` is known newline-free (≥ `start`).
    /// Without it, every arriving chunk would re-scan the whole
    /// buffered line — quadratic in the line length, which a peer
    /// streaming an almost-cap-sized line turns into seconds of CPU.
    scanned: usize,
}

impl LineReader {
    fn new() -> LineReader {
        LineReader {
            buf: Vec::with_capacity(4096),
            start: 0,
            scanned: 0,
        }
    }

    /// The next `\n`-terminated line as raw bytes (without the
    /// terminator), `None` on peer close or shutdown. UTF-8 validation
    /// is the caller's: a bad line is fully consumed through its
    /// newline, so the caller can answer an error and keep the stream.
    fn next_line(
        &mut self,
        stream: &mut TcpStream,
        shutdown: &AtomicBool,
    ) -> io::Result<Option<Vec<u8>>> {
        loop {
            if let Some(pos) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + pos;
                let line = self.buf[self.start..end].to_vec();
                self.start = end + 1;
                // Bytes past the newline are unscanned territory.
                self.scanned = self.start;
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                    self.scanned = 0;
                }
                return Ok(Some(line));
            }
            self.scanned = self.buf.len();
            if shutdown.load(Ordering::Acquire) {
                return Ok(None);
            }
            if self.buf.len() - self.start > MAX_LINE_BYTES {
                // No newline within the cap: the stream is mid-line and
                // unrecoverably desynchronized — the caller must answer
                // one refusal and close, never read on.
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "request line exceeds the maximum length",
                ));
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(None),
                Ok(n) => {
                    // Drop consumed bytes before growing.
                    if self.start > 0 {
                        self.buf.drain(..self.start);
                        self.scanned -= self.start;
                        self.start = 0;
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// How long a refused connection's lingering close discards input
/// before giving up on a clean shutdown.
const LINGER_MAX: Duration = Duration::from_secs(2);

/// Reads and discards input until the peer closes (or a short deadline
/// or server shutdown) — the lingering half of refuse-then-close, so a
/// refusal written just before is reliably delivered instead of being
/// wiped out by the reset a close-with-unread-bytes provokes.
fn drain_briefly(stream: &mut TcpStream, shutdown: &AtomicBool) {
    let deadline = Instant::now() + LINGER_MAX;
    let mut scratch = [0u8; 4096];
    while Instant::now() < deadline && !shutdown.load(Ordering::Acquire) {
        match stream.read(&mut scratch) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
}

/// Writes one response line; the error (if any) lets the caller tell a
/// stalled writer from a vanished peer.
fn write_line(stream: &mut TcpStream, response: &Value) -> io::Result<()> {
    let mut line = response.to_string();
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

/// [`write_line`] plus the write-timeout policy: a write that timed
/// out (the peer stopped draining its socket) counts one
/// `write_timeouts`; any write failure drops the connection (returns
/// `false`) — a handler thread must never stay wedged behind a dead
/// reader.
fn write_or_drop(stream: &mut TcpStream, shared: &Shared, response: &Value) -> bool {
    match write_line(stream, response) {
        Ok(()) => true,
        Err(e) => {
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) {
                shared
                    .metrics
                    .write_timeouts
                    .fetch_add(1, Ordering::Relaxed);
            }
            false
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    if shared.opts.write_timeout_ms > 0 {
        let _ = stream.set_write_timeout(Some(Duration::from_millis(shared.opts.write_timeout_ms)));
    }
    let _ = stream.set_nodelay(true);
    let mut reader = LineReader::new();
    loop {
        let raw = match reader.next_line(&mut stream, &shared.shutdown) {
            Ok(Some(raw)) => raw,
            Ok(None) => break,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized line: the reader is mid-stream with no way
                // to find the next frame boundary. Send one refusal and
                // close — never reuse a desynchronized stream. The
                // close lingers briefly (discarding input) so the
                // refusal is not clobbered by a TCP reset triggered by
                // closing with unread bytes queued.
                let sent = write_or_drop(
                    &mut stream,
                    &shared,
                    &error_response(
                        None,
                        &format!(
                            "request line exceeds the maximum length \
                             ({MAX_LINE_BYTES} bytes); closing connection"
                        ),
                    ),
                );
                if sent {
                    drain_briefly(&mut stream, &shared.shutdown);
                }
                break;
            }
            Err(_) => break,
        };
        let line = match String::from_utf8(raw) {
            Ok(line) => line,
            Err(_) => {
                // The frame was consumed through its newline, so the
                // stream stays synchronized: answer and read on.
                let resp = error_response(None, "bad utf-8: request line is not valid UTF-8");
                if !write_or_drop(&mut stream, &shared, &resp) {
                    break;
                }
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let started = Instant::now();
        let (trace_id, start_us) = if shared.tracer.is_enabled() {
            (shared.tracer.next_trace_id(), shared.tracer.now_us())
        } else {
            (0, 0)
        };
        let (op, (response, annotation)) = match Request::from_line(&line) {
            Ok(req) => (Some(req.op()), dispatch(&shared, req, trace_id, &stream)),
            Err(msg) => (None, (error_response(None, &msg), None)),
        };
        let ok = response["ok"] == true;
        if let Some(op) = op {
            shared.metrics.record(op, started.elapsed(), ok);
        }
        if trace_id != 0 {
            shared.tracer.record(
                trace_id,
                SpanKind::Request,
                start_us,
                shared.tracer.now_us(),
            );
            finish_trace(&shared, trace_id, op, started.elapsed(), ok, annotation);
        }
        if !write_or_drop(&mut stream, &shared, &response) {
            break;
        }
        if op == Some(Op::Shutdown) && ok {
            trigger_shutdown(&shared);
            break;
        }
    }
}

/// Closes out one traced request: when the latency reaches the
/// slow-query threshold, emits one structured JSON line — op, latency,
/// every recorded span, and (for evals) the join `annotation` the eval
/// outcome carried, with per-atom estimated-vs-actual cardinality — to
/// the slowlog file or stderr.
fn finish_trace(
    shared: &Shared,
    trace_id: u64,
    op: Option<Op>,
    latency: Duration,
    ok: bool,
    annotation: Option<Value>,
) {
    let threshold = match shared.opts.slow_query_us {
        Some(t) => t,
        None => return,
    };
    let latency_us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
    if latency_us < threshold {
        return;
    }
    let spans: Vec<Value> = shared
        .tracer
        .spans_for(trace_id)
        .into_iter()
        .map(|s| {
            let mut m = Map::new();
            m.insert("kind".into(), Value::from(s.kind.as_str()));
            m.insert("start_us".into(), Value::from(s.start_us));
            m.insert("dur_us".into(), Value::from(s.dur_us()));
            Value::Object(m)
        })
        .collect();
    let mut line = Map::new();
    line.insert("event".into(), Value::from("slow_query"));
    line.insert(
        "op".into(),
        match op {
            Some(op) => Value::from(op.as_str()),
            None => Value::Null,
        },
    );
    line.insert("trace_id".into(), Value::from(trace_id));
    line.insert("latency_us".into(), Value::from(latency_us));
    line.insert("threshold_us".into(), Value::from(threshold));
    line.insert("ok".into(), Value::from(ok));
    line.insert("spans".into(), Value::Array(spans));
    if let Some(ann) = annotation {
        line.insert("join".into(), ann);
    }
    let text = Value::Object(line).to_string();
    match &shared.slowlog {
        Some(file) => {
            let mut file = file.lock().expect("slowlog lock");
            let _ = writeln!(file, "{text}");
        }
        None => eprintln!("{text}"),
    }
}

/// Flips the flag and pokes the acceptor awake.
fn trigger_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::Release);
    let _ = TcpStream::connect(shared.local_addr);
}

fn get_session(shared: &Shared, name: &str) -> Result<Arc<Session>, String> {
    let s = shared.sessions.get(name)?;
    // Lifetime traffic drives the top-K `sessions_detail` selection.
    s.traffic.fetch_add(1, Ordering::Relaxed);
    Ok(s)
}

/// The pressure gate for queued verbs: `Some(refusal)` when the
/// session's lane is past the queue-depth watermark or the process is
/// past the resident-bytes watermark. Refusals carry `retry_after_ms`
/// (and count on `metrics.shed`); crossing the memory watermark also
/// triggers at most one cache-eviction pass per [`EVICT_WINDOW`],
/// dropping rebuildable state (result rows, plans, semantic-cache
/// answers) while facts and epochs stay untouched.
fn shed_refusal(shared: &Shared, op: Op, session: &str) -> Option<Value> {
    let mut reason: Option<String> = None;
    if let Some(mark) = shared.opts.shed_queue_depth {
        let lane = lane_of(session, shared.lanes.len());
        let depth = shared
            .metrics
            .lane(lane)
            .queue_depth
            .load(Ordering::Relaxed);
        if depth >= mark {
            reason = Some(format!(
                "lane {lane} admission queue holds {depth} items (watermark {mark})"
            ));
        }
    }
    if reason.is_none() {
        if let Some(mark) = shared.opts.shed_resident_bytes {
            let resident = resident_bytes_throttled(shared);
            if resident >= mark {
                reason = Some(format!("resident bytes {resident} past watermark {mark}"));
                evict_for_pressure(shared);
            }
        }
    }
    let Some(why) = reason else {
        shared.shedding.store(false, Ordering::Relaxed);
        return None;
    };
    shared.shedding.store(true, Ordering::Relaxed);
    shared.metrics.shed.fetch_add(1, Ordering::Relaxed);
    let mut v = error_response(Some(op), &format!("server overloaded: {why}; retry later"));
    if let Value::Object(m) = &mut v {
        m.insert("shed".into(), Value::from(true));
        m.insert("retry_after_ms".into(), Value::from(SHED_RETRY_AFTER_MS));
    }
    Some(v)
}

/// Resident bytes (owned session indexes plus shared catalogs),
/// recomputed at most once per [`PRESSURE_RECHECK`].
fn resident_bytes_throttled(shared: &Shared) -> u64 {
    let mut p = shared.pressure.lock().expect("pressure lock");
    if p.checked_at.is_some_and(|t| t.elapsed() < PRESSURE_RECHECK) {
        return p.resident_bytes;
    }
    let sessions: usize = shared
        .sessions
        .snapshot()
        .iter()
        .map(|s| s.resident_bytes())
        .sum();
    let catalogs = shared.catalogs.shared_resident_bytes();
    p.resident_bytes = (sessions + catalogs) as u64;
    p.checked_at = Some(Instant::now());
    p.resident_bytes
}

/// One cache-eviction pass over every session, at most once per
/// [`EVICT_WINDOW`]. Only rebuildable state is dropped.
fn evict_for_pressure(shared: &Shared) {
    {
        let mut p = shared.pressure.lock().expect("pressure lock");
        if p.evicted_at.is_some_and(|t| t.elapsed() < EVICT_WINDOW) {
            return;
        }
        p.evicted_at = Some(Instant::now());
        // The caches we are about to clear are part of what residency
        // counted; force the next check to re-measure.
        p.checked_at = None;
    }
    // Outside the pressure lock: shedding walks per-session locks.
    let mut dropped = 0u64;
    for s in shared.sessions.snapshot() {
        dropped += s.shed_caches() as u64;
    }
    shared
        .metrics
        .pressure_evictions
        .fetch_add(dropped, Ordering::Relaxed);
}

/// Runs one queued verb (`update`, `check` or `eval`) on its session's
/// lane. The pressure gate runs first. Then the cancel token is armed
/// *before* admission, so queue wait counts against the deadline: the
/// request's `deadline_ms`, else the server default. The socket is
/// watched while the work is in flight, so a peer hang-up cancels it.
/// A deadline-carrying request samples `deadline_overrun` (0 when in
/// time), which bounds the cancellation-check reaction lag.
///
/// `Ok` is a successful outcome. `Err` is the finished response for a
/// shed refusal, an error, or a cancellation: `error` is then the
/// stable headline (`deadline exceeded` / `cancelled: client
/// disconnected`), `detail` carries the partial-progress counters the
/// engine reported, and a [`SpanKind::Cancelled`] span records how long
/// the cooperative unwind took (deadline expiry → reply).
fn run_queued(
    shared: &Shared,
    op: Op,
    session: &str,
    work: Work,
    deadline_ms: Option<u64>,
    trace_id: u64,
    stream: &TcpStream,
) -> Result<Outcome, Value> {
    if let Some(refusal) = shed_refusal(shared, op, session) {
        return Err(refusal);
    }
    let deadline_ms = deadline_ms.or(shared.opts.default_deadline_ms);
    let cancel = match deadline_ms {
        Some(ms) => CancelToken::with_deadline_ms(ms),
        None => CancelToken::unlimited(),
    };
    let _watch = shared.watcher.watch(stream, cancel.clone());
    let result = shared.lanes.for_session(session).submit(Job {
        work,
        trace_id,
        cancel: cancel.clone(),
    });
    if deadline_ms.is_some() {
        shared
            .metrics
            .deadline_overrun
            .record(Duration::from_micros(cancel.overrun_us()), true);
    }
    let (disconnect, detail) = match result {
        Ok(Outcome::Cancelled { disconnect, detail }) => (disconnect, detail),
        Ok(Outcome::Update(Err(msg)))
        | Ok(Outcome::Check {
            summary: Err(msg), ..
        })
        | Err(msg) => return Err(error_response(Some(op), &msg)),
        Ok(outcome) => return Ok(outcome),
    };
    if trace_id != 0 {
        let now = shared.tracer.now_us();
        let lag = if disconnect { 0 } else { cancel.overrun_us() };
        shared
            .tracer
            .record(trace_id, SpanKind::Cancelled, now.saturating_sub(lag), now);
    }
    let headline = if disconnect {
        "cancelled: client disconnected"
    } else {
        "deadline exceeded"
    };
    let mut v = error_response(Some(op), headline);
    if let Value::Object(m) = &mut v {
        m.insert("cancelled".into(), Value::from(true));
        m.insert("detail".into(), Value::from(detail));
        if let Some(ms) = deadline_ms {
            m.insert("deadline_ms".into(), Value::from(ms));
        }
    }
    Err(v)
}

/// Answers one request, plus the join annotation an eval outcome
/// carried (for [`finish_trace`]). The queued verbs go through
/// [`run_queued`]; every other verb is answered on the handler thread
/// by [`answer_inline`].
fn dispatch(
    shared: &Shared,
    req: Request,
    trace_id: u64,
    stream: &TcpStream,
) -> (Value, Option<Value>) {
    let op = req.op();
    // Each queued verb resolves its session and query names up front
    // and seeds its answer with the names it echoes.
    let mut m = ok_response(op);
    let queued = match req {
        Request::Update {
            session,
            insert,
            delete,
            deadline_ms,
        } => get_session(shared, &session).map(|s| {
            m.insert("session".into(), Value::from(session.as_str()));
            let work = Work::Update {
                session: s,
                insert,
                delete,
            };
            (session, work, deadline_ms)
        }),
        Request::Check {
            session,
            q,
            q_prime,
            deadline_ms,
        } => get_session(shared, &session).and_then(|s| {
            let work = Work::Check {
                q: s.query_index(&q)?,
                q_prime: s.query_index(&q_prime)?,
                session: s,
            };
            m.insert("q".into(), Value::from(q.as_str()));
            m.insert("q_prime".into(), Value::from(q_prime.as_str()));
            Ok((session, work, deadline_ms))
        }),
        Request::Eval {
            session,
            query,
            deadline_ms,
        } => get_session(shared, &session).and_then(|s| {
            let work = Work::Eval {
                q: s.query_index(&query)?,
                session: s,
            };
            m.insert("query".into(), Value::from(query.as_str()));
            Ok((session, work, deadline_ms))
        }),
        inline => return (answer_inline(shared, inline, trace_id), None),
    };
    let outcome = queued
        .map_err(|msg| error_response(Some(op), &msg))
        .and_then(|(session, work, deadline_ms)| {
            run_queued(shared, op, &session, work, deadline_ms, trace_id, stream)
        });
    let mut annotation = None;
    match outcome {
        Err(response) => return (response, None),
        Ok(Outcome::Update(Ok(sum))) => {
            m.insert("inserted".into(), Value::from(sum.inserted));
            m.insert("deleted".into(), Value::from(sum.deleted));
            m.insert("facts".into(), Value::from(sum.facts));
            m.insert("epoch".into(), Value::from(sum.epoch));
        }
        Ok(Outcome::Check {
            summary: Ok(sum),
            cached,
            coalesced,
        }) => {
            sum.write_into(&mut m);
            m.insert("cached".into(), Value::from(cached));
            m.insert("coalesced".into(), Value::from(coalesced));
        }
        Ok(Outcome::Eval {
            rows,
            cached,
            coalesced,
            annotation: join,
        }) => {
            m.insert("count".into(), Value::from(rows.len()));
            m.insert("rows".into(), rows_to_value(&rows));
            m.insert("cached".into(), Value::from(cached));
            m.insert("coalesced".into(), Value::from(coalesced));
            annotation = join;
        }
        Ok(other) => unreachable!("run_queued answers failures itself, got {other:?}"),
    }
    (Value::Object(m), annotation)
}

/// Answers a verb that never queues, on the handler thread.
fn answer_inline(shared: &Shared, req: Request, trace_id: u64) -> Value {
    let op = req.op();
    let trace = (trace_id != 0).then(|| (shared.tracer.as_ref(), trace_id));
    match req {
        Request::Register { session, program } => {
            // Refuse taken names before the expensive build (a retried
            // register must not re-parse an 8 MiB program just to be
            // told no), then build, then claim the name atomically —
            // `insert_new` arbitrates racing duplicates, which lose
            // with the same explicit error instead of silently
            // replacing warm state. With a data dir, the durable path
            // additionally fsyncs a `Register` WAL record before the
            // acknowledgement (and rolls the insertion back if it
            // cannot): an `ok:true` register survives a restart.
            let built = match &shared.durability {
                Some(d) => d.register_traced(&session, &program, trace),
                None => shared
                    .sessions
                    .check_free(&session)
                    .and_then(|()| {
                        shared.catalogs.session_from_source(
                            &session,
                            &program,
                            shared.opts.sem_cache_capacity,
                            shared.opts.plan_cache_capacity,
                        )
                    })
                    .and_then(|s| shared.sessions.insert_new(s)),
            };
            match built {
                Ok(s) => {
                    s.traffic.fetch_add(1, Ordering::Relaxed);
                    let program = s.program();
                    let mut m = ok_response(op);
                    m.insert("session".into(), Value::from(session.as_str()));
                    m.insert(
                        "queries".into(),
                        Value::Array(
                            program
                                .queries
                                .iter()
                                .map(|q| Value::from(q.name.as_str()))
                                .collect(),
                        ),
                    );
                    m.insert("relations".into(), Value::from(program.catalog.len()));
                    m.insert("dependencies".into(), Value::from(program.deps.len()));
                    m.insert("facts".into(), Value::from(program.facts.len()));
                    m.insert("class".into(), Value::from(s.class_name()));
                    m.insert("shared".into(), Value::from(s.facts_shared()));
                    m.insert(
                        "lane".into(),
                        Value::from(lane_of(&session, shared.lanes.len())),
                    );
                    Value::Object(m)
                }
                Err(msg) => error_response(Some(op), &msg),
            }
        }
        Request::Classify { session } => match get_session(shared, &session) {
            Ok(s) => {
                let mut m = ok_response(op);
                m.insert("session".into(), Value::from(session.as_str()));
                m.insert("class".into(), Value::from(s.class_name()));
                m.insert("relations".into(), Value::from(s.program().catalog.len()));
                m.insert("fds".into(), Value::from(s.program().deps.num_fds()));
                m.insert("inds".into(), Value::from(s.program().deps.num_inds()));
                let (facts, epoch) = s.facts_snapshot();
                m.insert("facts".into(), Value::from(facts));
                m.insert("facts_epoch".into(), Value::from(epoch));
                Value::Object(m)
            }
            Err(msg) => error_response(Some(op), &msg),
        },
        Request::Stats => {
            let mut m = ok_response(op);
            for (k, v) in stats_value(shared).iter() {
                m.insert(k.clone(), v.clone());
            }
            Value::Object(m)
        }
        Request::Metrics => {
            let mut m = ok_response(op);
            let text = cqchase_obs::prom::render_prometheus(&Value::Object(stats_value(shared)));
            m.insert("text".into(), Value::String(text));
            Value::Object(m)
        }
        Request::Persist => match &shared.durability {
            Some(d) => match d.persist() {
                Ok((seq, sessions)) => {
                    let mut m = ok_response(op);
                    m.insert("seq".into(), Value::from(seq));
                    m.insert("sessions".into(), Value::from(sessions));
                    Value::Object(m)
                }
                Err(msg) => error_response(Some(op), &msg),
            },
            None => error_response(
                Some(op),
                "persist requires a data directory (start the server with --data-dir)",
            ),
        },
        Request::Shutdown => Value::Object(ok_response(op)),
        Request::Ping => {
            // Answered inline on the handler thread — never queued
            // behind the admission lanes, never shed — so health
            // probes keep working exactly when the server is drowning.
            let mut m = ok_response(op);
            m.insert(
                "uptime_s".into(),
                Value::from(shared.metrics.uptime().as_secs_f64()),
            );
            m.insert("lanes".into(), Value::from(shared.lanes.len()));
            m.insert("sessions".into(), Value::from(shared.sessions.len()));
            m.insert(
                "shedding".into(),
                Value::from(shared.shedding.load(Ordering::Relaxed)),
            );
            m.insert(
                "shed_total".into(),
                Value::from(shared.metrics.shed.load(Ordering::Relaxed)),
            );
            m.insert(
                "durability".into(),
                Value::from(shared.durability.is_some()),
            );
            m.insert("recovery".into(), shared.recovery_json.clone());
            Value::Object(m)
        }
        Request::Update { .. } | Request::Check { .. } | Request::Eval { .. } => {
            unreachable!("dispatch queues the update, check and eval verbs")
        }
    }
}

/// The full stats payload (everything but the `ok`/`op` envelope) —
/// shared by the `stats` (JSON) and `metrics` (Prometheus text) verbs so
/// the two expositions can never drift apart.
fn stats_value(shared: &Shared) -> Map<String, Value> {
    let mut m = Map::new();
    for (k, v) in shared.metrics.snapshot().iter() {
        m.insert(k.clone(), v.clone());
    }
    let names = shared.sessions.names();
    m.insert(
        "sessions".into(),
        Value::Array(names.iter().map(|n| Value::from(n.as_str())).collect()),
    );
    // The server identity/config echo block.
    let mut server = Map::new();
    server.insert(
        "uptime_s".into(),
        Value::from(shared.metrics.uptime().as_secs_f64()),
    );
    server.insert("version".into(), Value::from(env!("CARGO_PKG_VERSION")));
    server.insert(
        "batch_threads".into(),
        Value::from(shared.opts.batch_threads),
    );
    server.insert("lanes".into(), Value::from(shared.lanes.len()));
    server.insert("conn_workers".into(), Value::from(shared.opts.conn_workers));
    server.insert(
        "sem_cache_capacity".into(),
        Value::from(shared.opts.sem_cache_capacity),
    );
    server.insert(
        "plan_cache_capacity".into(),
        Value::from(shared.opts.plan_cache_capacity),
    );
    server.insert(
        "wal_rotate_bytes".into(),
        Value::from(
            shared
                .opts
                .wal_rotate_bytes
                .unwrap_or(cqchase_durability::DEFAULT_ROTATE_BYTES),
        ),
    );
    if let Some(t) = shared.opts.slow_query_us {
        server.insert("slow_query_us".into(), Value::from(t));
    }
    server.insert("trace".into(), Value::from(shared.tracer.is_enabled()));
    if let Some(d) = shared.opts.default_deadline_ms {
        server.insert("default_deadline_ms".into(), Value::from(d));
    }
    if let Some(d) = shared.opts.shed_queue_depth {
        server.insert("shed_queue_depth".into(), Value::from(d));
    }
    if let Some(b) = shared.opts.shed_resident_bytes {
        server.insert("shed_resident_bytes".into(), Value::from(b));
    }
    server.insert(
        "write_timeout_ms".into(),
        Value::from(shared.opts.write_timeout_ms),
    );
    server.insert(
        "shedding".into(),
        Value::from(shared.shedding.load(Ordering::Relaxed)),
    );
    m.insert("server".into(), Value::Object(server));
    // Aggregate cache counters across sessions, and collect per-session
    // gauges (rendered as `{session="…"}`-labelled Prometheus series).
    // Plan-cache and planner counters live only in the sessions, which
    // count every lookup they make — against shared or private facts.
    let (mut hits, mut misses, mut evictions, mut entries) = (0u64, 0u64, 0u64, 0usize);
    let mut planner_total = PlannerCounters::default();
    let mut eval_row_hits = 0u64;
    let (mut compactions, mut slots_reclaimed, mut bytes_reclaimed) = (0u64, 0u64, 0u64);
    let all = shared.sessions.snapshot();
    struct SessionGauges {
        name: String,
        traffic: u64,
        facts: usize,
        epoch: u64,
        result_hits: u64,
        plan_hits: u64,
        plan_misses: u64,
        sem_hits: u64,
        sem_misses: u64,
        shared_facts: bool,
    }
    let mut gauges: Vec<SessionGauges> = Vec::with_capacity(all.len());
    for s in &all {
        let c = s.sem_cache.lock().expect("semantic cache lock").stats();
        hits += c.hits;
        misses += c.misses;
        evictions += c.evictions;
        entries += c.entries;
        let (session_result_hits, session_planner) = {
            // Scoped: the eval_state guard must be released
            // before touching the facts lock — lock order is
            // `facts` before `eval_state` everywhere else
            // (apply_updates holds facts.write while taking
            // eval_state), so holding eval_state across
            // facts.read() would be an ABBA deadlock against a
            // concurrent update.
            let e = s.eval_state.lock().expect("eval state lock");
            planner_total += e.planner;
            eval_row_hits += e.result_hits;
            (e.result_hits, e.planner)
        };
        let (session_facts, session_epoch) = s.facts_snapshot();
        let facts = s.facts.read().expect("facts lock");
        let shared_facts = facts.is_shared();
        if !shared_facts {
            // Shared facts never mutate (updates promote to a
            // private copy first), so only owned indexes carry
            // compaction work — and counting a base once per attached
            // session would overstate it anyway.
            compactions += facts.index().compactions();
            slots_reclaimed += facts.index().slots_reclaimed();
            bytes_reclaimed += facts.index().bytes_reclaimed();
        }
        drop(facts);
        gauges.push(SessionGauges {
            name: s.name.clone(),
            traffic: s.traffic.load(Ordering::Relaxed),
            facts: session_facts,
            epoch: session_epoch,
            result_hits: session_result_hits,
            plan_hits: session_planner.hits,
            plan_misses: session_planner.misses,
            sem_hits: c.hits,
            sem_misses: c.misses,
            shared_facts,
        });
    }
    // Itemize only the top sessions by lifetime traffic (aggregates
    // above already cover everyone); ties break by name so the
    // selection is deterministic.
    let omitted = gauges.len().saturating_sub(SESSIONS_DETAIL_CAP);
    if omitted > 0 {
        gauges.sort_by(|a, b| b.traffic.cmp(&a.traffic).then_with(|| a.name.cmp(&b.name)));
        gauges.truncate(SESSIONS_DETAIL_CAP);
    }
    let mut detail = Map::new();
    for g in &gauges {
        let mut sd = Map::new();
        sd.insert("facts".into(), Value::from(g.facts));
        sd.insert("epoch".into(), Value::from(g.epoch));
        sd.insert(
            "lane".into(),
            Value::from(lane_of(&g.name, shared.lanes.len())),
        );
        sd.insert("traffic".into(), Value::from(g.traffic));
        sd.insert("shared_catalog".into(), Value::from(g.shared_facts));
        sd.insert("eval_result_hits".into(), Value::from(g.result_hits));
        sd.insert("sem_cache_hits".into(), Value::from(g.sem_hits));
        sd.insert("sem_cache_misses".into(), Value::from(g.sem_misses));
        let probes = g.sem_hits + g.sem_misses;
        sd.insert(
            "sem_cache_hit_rate".into(),
            Value::from(if probes == 0 {
                0.0
            } else {
                g.sem_hits as f64 / probes as f64
            }),
        );
        sd.insert("plan_cache_hits".into(), Value::from(g.plan_hits));
        sd.insert("plan_cache_misses".into(), Value::from(g.plan_misses));
        detail.insert(g.name.clone(), Value::Object(sd));
    }
    m.insert("sessions_detail".into(), Value::Object(detail));
    m.insert("sessions_detail_omitted".into(), Value::from(omitted));
    // The shared-catalog pool: distinct frozen catalogs, how many
    // registrations built vs attached, copy-on-write promotions, and
    // the resident bytes deduplicated across attached sessions.
    let mut catalog_promotions = 0u64;
    let mut catalog_attached = 0u64;
    for c in shared.catalogs.snapshot() {
        catalog_promotions += c.promotions.load(Ordering::Relaxed);
        catalog_attached += c.attached.load(Ordering::Relaxed);
    }
    let mut catalogs = Map::new();
    catalogs.insert("distinct".into(), Value::from(shared.catalogs.len()));
    catalogs.insert(
        "builds".into(),
        Value::from(shared.catalogs.builds.load(Ordering::Relaxed)),
    );
    catalogs.insert(
        "attaches".into(),
        Value::from(shared.catalogs.attaches.load(Ordering::Relaxed)),
    );
    catalogs.insert("attached_sessions".into(), Value::from(catalog_attached));
    catalogs.insert("promotions".into(), Value::from(catalog_promotions));
    catalogs.insert(
        "shared_resident_bytes".into(),
        Value::from(shared.catalogs.shared_resident_bytes()),
    );
    m.insert("catalogs".into(), Value::Object(catalogs));
    let mut sem = Map::new();
    sem.insert("hits".into(), Value::from(hits));
    sem.insert("misses".into(), Value::from(misses));
    sem.insert("evictions".into(), Value::from(evictions));
    sem.insert("entries".into(), Value::from(entries));
    sem.insert(
        "capacity_per_session".into(),
        Value::from(shared.opts.sem_cache_capacity),
    );
    m.insert("semantic_cache".into(), Value::Object(sem));
    let mut plans = Map::new();
    plans.insert("hits".into(), Value::from(planner_total.hits));
    plans.insert("misses".into(), Value::from(planner_total.misses));
    plans.insert("evictions".into(), Value::from(planner_total.evictions));
    m.insert("plan_cache".into(), Value::Object(plans));
    // The cost-based planner's counters: how many plans were
    // compiled, how many times a served plan carried the
    // Yannakakis acyclic fast path, and how many recompiles were
    // forced by cardinality drift in the planner statistics.
    let mut planner = Map::new();
    planner.insert("compiled".into(), Value::from(planner_total.misses));
    planner.insert(
        "acyclic_hits".into(),
        Value::from(planner_total.acyclic_served),
    );
    planner.insert("replans".into(), Value::from(planner_total.replans));
    m.insert("planner".into(), Value::Object(planner));
    m.insert("eval_row_hits".into(), Value::from(eval_row_hits));
    // The mutation fast path's counters: index compaction work
    // across sessions, plus the admission queue's update
    // coalescing and barrier accounting (also under `batching`).
    let mut mutation = Map::new();
    mutation.insert("compactions".into(), Value::from(compactions));
    mutation.insert("slots_reclaimed".into(), Value::from(slots_reclaimed));
    mutation.insert("bytes_reclaimed".into(), Value::from(bytes_reclaimed));
    mutation.insert(
        "updates_coalesced".into(),
        Value::from(shared.metrics.lane_total(|s| &s.updates_coalesced)),
    );
    mutation.insert(
        "barrier_flushes".into(),
        Value::from(shared.metrics.lane_total(|s| &s.barrier_flushes)),
    );
    m.insert("mutation".into(), Value::Object(mutation));
    m.insert(
        "durability".into(),
        match &shared.durability {
            Some(d) => d.stats_block(),
            None => Durability::disabled_stats_block(),
        },
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_picks_a_port_and_shuts_down() {
        let (addr, handle) = Server::spawn(ServeOptions {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        })
        .unwrap();
        assert_ne!(addr.port(), 0);
        let mut c = crate::client::Client::connect(addr).unwrap();
        let v = c.shutdown().unwrap();
        assert_eq!(v["ok"], true);
        handle.join().unwrap().unwrap();
    }
}
