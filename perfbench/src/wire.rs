//! The loopback side: server options, set-up, and the timed closed loop.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cqchase_service::{Client, ServeOptions, Server};
use serde_json::Value;

use crate::gen::{Plan, Req, Workload};

/// Scratch space for data directories, relative to the working
/// directory (the checkout root); removed again when a server stops.
pub const TMP_DIR: &str = ".perfbench_tmp";

/// WAL size that triggers a snapshot rotation on `update_eval`: small
/// enough that a run rotates several times.
pub const WAL_ROTATE_BYTES: u64 = 1 << 20;

/// The server configuration of a workload. `check_hot` spreads its
/// tenants over two lanes; the single-session workloads use one lane so
/// their session gets both compute threads.
pub fn serve_options(workload: Workload, data_dir: Option<PathBuf>) -> ServeOptions {
    let durable = workload == Workload::UpdateEval;
    ServeOptions {
        addr: "127.0.0.1:0".into(),
        batch_threads: 2,
        lanes: if workload == Workload::CheckHot { 2 } else { 1 },
        conn_workers: 4,
        sem_cache_capacity: 1024,
        plan_cache_capacity: 256,
        wal_rotate_bytes: durable.then_some(WAL_ROTATE_BYTES),
        data_dir: if durable { data_dir } else { None },
        ..ServeOptions::default()
    }
}

/// A running server with its admin connection.
pub struct Live {
    /// Bound loopback address.
    pub addr: SocketAddr,
    /// Connection for set-up, `stats`, `ping` and `shutdown`.
    pub admin: Client,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
    data_dir: Option<PathBuf>,
}

/// One set-up request and the raw response it got.
pub type Exchange = (Req, String);

fn send(client: &mut Client, line: &str) -> Result<String, String> {
    client.request_line(line).map_err(|e| e.to_string())
}

fn expect_ok(what: &str, line: &str) -> Result<(), String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("{what}: {e}"))?;
    if v["ok"] == true {
        Ok(())
    } else {
        Err(format!("{what} refused: {line}"))
    }
}

/// Starts a server for `plan` and brings it to the state the timed
/// phase expects: every session registered, the `update_eval` window
/// loaded, the `check_hot` caches warm. Returns the server and the
/// warm-up exchanges (checked with the timed ones).
pub fn setup(plan: &Plan, rep: usize) -> Result<(Live, Vec<Exchange>), String> {
    let data_dir = (plan.workload == Workload::UpdateEval).then(|| {
        PathBuf::from(TMP_DIR).join(format!(
            "{}-{}-{rep}",
            plan.workload.name(),
            std::process::id()
        ))
    });
    if let Some(dir) = &data_dir {
        // A leftover from an interrupted run would be recovered, not
        // started fresh.
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let (addr, handle) = Server::spawn(serve_options(plan.workload, data_dir.clone()))
        .map_err(|e| format!("spawn server: {e}"))?;
    let admin = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut live = Live {
        addr,
        admin,
        handle,
        data_dir,
    };
    for t in 0..plan.sessions.len() {
        let resp = send(&mut live.admin, &plan.register_line(t))?;
        expect_ok("register", &resp)?;
    }
    for line in plan.bulk_lines() {
        let resp = send(&mut live.admin, &line)?;
        expect_ok("bulk load", &resp)?;
    }
    let mut warm = Vec::new();
    for req in plan.warmup() {
        let resp = send(&mut live.admin, &plan.line(&req))?;
        warm.push((req, resp));
    }
    Ok((live, warm))
}

impl Live {
    /// The server's `stats` payload.
    pub fn stats(&mut self) -> Result<Value, String> {
        self.admin.stats().map_err(|e| e.to_string())
    }

    /// Stops the server, waits for it, and removes its data directory.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.admin
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server run: {e}"))?;
        if let Some(dir) = &self.data_dir {
            std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        }
        Ok(())
    }
}

/// Median `ping` round trip over `n` pings on a fresh connection, in
/// µs: the floor for framing, socket I/O and thread hand-off.
pub fn ping_rtt_us(addr: SocketAddr, n: usize) -> Result<f64, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let rtts = (0..n)
        .map(|_| {
            let t = Instant::now();
            client.ping().map_err(|e| e.to_string())?;
            Ok(t.elapsed().as_secs_f64() * 1e6)
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(crate::report::median(&rtts))
}

/// One timed request, in 8 bytes. The request itself is not stored: the `i`-th
/// sample answers the `i`-th request of the plan's stream, which the
/// plan regenerates on demand (see [`Log::exchanges`]).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the connection's interned responses, or
    /// [`NO_RESPONSE`] when the transport failed.
    pub resp: u32,
    /// Round trip, ns (saturating).
    pub lat_ns: u32,
}

/// [`Sample::resp`] of a request that got no answer.
pub const NO_RESPONSE: u32 = u32::MAX;

impl Sample {
    /// Round trip in µs.
    pub fn lat_us(&self) -> f64 {
        f64::from(self.lat_ns) / 1e3
    }
}

/// One set-up and timed phase on a fresh server.
#[derive(Debug)]
pub struct Round {
    /// The warm-up exchanges of the set-up.
    pub warm: Vec<Exchange>,
    /// The timed phase.
    pub log: Log,
}

/// What the load connection sent and got back.
#[derive(Debug)]
pub struct Log {
    /// Stream index of the first timed request.
    pub first: usize,
    /// Timed requests in send order.
    pub samples: Vec<Sample>,
    /// Distinct response lines (identical cache hits share one entry).
    pub responses: Vec<String>,
}

impl Log {
    /// The response line of `s`, if it arrived.
    pub fn response(&self, s: &Sample) -> Option<&str> {
        (s.resp != NO_RESPONSE).then(|| self.responses[s.resp as usize].as_str())
    }

    /// Each timed request paired with its sample.
    pub fn exchanges<'a>(&'a self, plan: &'a Plan) -> impl Iterator<Item = (Req, &'a Sample)> + 'a {
        plan.stream_from(self.first).zip(self.samples.iter())
    }
}

/// The timed phase: one closed-loop client sending the stream's next
/// request (from request `first` on) only after the previous answer
/// arrived, until `seconds` have passed. Returns the log and the
/// measured wall time.
///
/// One connection, not two: on a two-core machine, two client threads
/// plus their two server threads preempt each other, and the resulting
/// millisecond stalls made tail latency and throughput swing between
/// runs far more than any change worth measuring.
pub fn drive(
    plan: &Plan,
    addr: SocketAddr,
    seconds: f64,
    first: usize,
) -> Result<(Log, f64), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // Reserved up front so growth never copies the log (untouched
    // capacity is not resident).
    let mut log = Log {
        first,
        samples: Vec::with_capacity((seconds * 100_000.0) as usize),
        responses: Vec::new(),
    };
    let mut interned: HashMap<String, u32> = HashMap::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    for req in plan.stream_from(first) {
        if Instant::now() >= deadline {
            break;
        }
        let line = plan.line(&req);
        let t = Instant::now();
        let got = client.request_line(&line);
        let lat_ns = u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX);
        let resp = match got {
            Ok(r) => match interned.get(&r) {
                Some(&id) => id,
                None => {
                    let id = log.responses.len() as u32;
                    log.responses.push(r.clone());
                    interned.insert(r, id);
                    id
                }
            },
            Err(_) => NO_RESPONSE,
        };
        log.samples.push(Sample { resp, lat_ns });
        if resp == NO_RESPONSE {
            break;
        }
    }
    Ok((log, start.elapsed().as_secs_f64()))
}
