//! The hand-rolled parallel executor.
//!
//! The container this workspace builds in is offline, so there is no
//! `rayon`/`crossbeam`; everything here is `std::thread` plus channels
//! and one atomic:
//!
//! * [`map_with`] — the batch primitive. Worker threads are scoped
//!   (they may borrow the batch), each builds its own state once (scratch
//!   buffers, plan caches), and they *self-schedule*: a shared
//!   atomic cursor acts as the injector queue and each idle worker
//!   steals the next chunk of indices from it. That is the
//!   work-stealing discipline collapsed to its useful core — with one
//!   producer and uniform tasks, per-worker deques would only add
//!   shuffling; chunked self-scheduling gives the same load balance
//!   (no worker idles while chunks remain) without them.
//!
//! Chunking matters: per-item dispatch would contend on the cursor for
//! microsecond-sized items (one containment check can be < 1 µs), while
//! static striping would let one hard chunk serialize the tail. The
//! default splits the batch so each worker expects ~4 chunks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;

/// Number of worker threads to use by default: the hardware's available
/// parallelism, or 1 when it cannot be determined.
pub fn default_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Executor configuration for [`map_with`] batch runs.
#[derive(Debug, Clone, Copy)]
pub struct BatchOptions {
    /// Worker thread count. `1` runs inline on the caller's thread (no
    /// spawns, exactly the sequential engine).
    pub threads: usize,
    /// Items per stolen chunk; `None` sizes chunks as
    /// `ceil(len / (4 · threads))` so each worker expects ~4 steals.
    pub chunk: Option<usize>,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            threads: default_threads(),
            chunk: None,
        }
    }
}

impl BatchOptions {
    /// Options for `threads` workers, default chunking.
    pub fn with_threads(threads: usize) -> BatchOptions {
        BatchOptions {
            threads: threads.max(1),
            chunk: None,
        }
    }

    fn chunk_for(&self, len: usize) -> usize {
        match self.chunk {
            Some(c) => c.max(1),
            None => len.div_ceil(4 * self.threads.max(1)).max(1),
        }
    }
}

/// Applies `f` to every index of `0..len` across worker threads and
/// returns the results in index order.
///
/// `init` runs once on each worker thread (build scratch buffers, plan
/// caches, …) and `f` is called as `f(&mut state, index)`; both must be
/// `Sync`, since they run concurrently on several threads. With
/// `opts.threads == 1` no thread is spawned and results are computed
/// inline in order, with one state.
///
/// Results arrive over an `mpsc` channel tagged with their index and are
/// reassembled in order, so the output is identical to
/// `(0..len).map(..)` regardless of scheduling.
pub fn map_with<R, S, I, F>(len: usize, opts: BatchOptions, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    if opts.threads <= 1 || len <= 1 {
        let mut state = init();
        return (0..len).map(|i| f(&mut state, i)).collect();
    }
    let chunk = opts.chunk_for(len);
    let workers = opts.threads.min(len.div_ceil(chunk));
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = channel::<(usize, R)>();
    let mut out: Vec<Option<R>> = Vec::with_capacity(len);
    out.resize_with(len, || None);
    thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let (init, f) = (&init, &f);
            scope.spawn(move || {
                let mut state = init();
                loop {
                    // Steal the next chunk from the shared injector.
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= len {
                        break;
                    }
                    for i in start..(start + chunk).min(len) {
                        // The receiver outlives the scope; send cannot
                        // fail while it does.
                        let _ = tx.send((i, f(&mut state, i)));
                    }
                }
            });
        }
        drop(tx);
        // Collect on the caller's thread while workers run.
        for (i, r) in rx.iter() {
            out[i] = Some(r);
        }
    });
    out.into_iter()
        .map(|r| r.expect("every index produced a result"))
        .collect()
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent worker pool for `'static` jobs — the long-running
/// counterpart of [`map_with`]'s scoped batch workers.
///
/// [`map_with`] spawns scoped threads per batch, which is right for a
/// one-shot computation but wrong for a resident server: a process that
/// lives for days should own its worker threads once and feed them work
/// forever. `cqchase-service` runs one `ThreadPool` for connection
/// handling; anything needing fire-and-forget concurrency with a
/// bounded thread count can use it.
///
/// Jobs are boxed closures delivered over an mpsc channel whose
/// receiving end is shared (mutexed) by the workers — idle workers
/// self-schedule exactly like the batch executor's chunk stealing.
/// Dropping the pool disconnects the channel and joins every worker, so
/// shutdown is graceful: queued and in-flight jobs finish first.
pub struct ThreadPool {
    tx: Option<Sender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ThreadPool {
    /// A pool of `workers` threads (at least one).
    pub fn new(workers: usize) -> ThreadPool {
        let workers = workers.max(1);
        let (tx, rx) = channel::<Job>();
        let rx: Arc<Mutex<Receiver<Job>>> = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                thread::spawn(move || loop {
                    // Hold the lock only for the dequeue, not the job.
                    let job = match rx.lock() {
                        Ok(guard) => guard.recv(),
                        Err(_) => break, // a job panicked holding the lock
                    };
                    match job {
                        // A panicking job must not kill the worker: a
                        // long-running server's pool would otherwise
                        // shrink with every panic until nothing serves.
                        Ok(job) => {
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        }
                        Err(_) => break, // pool dropped: drain complete
                    }
                })
            })
            .collect();
        ThreadPool {
            tx: Some(tx),
            workers: handles,
        }
    }

    /// Enqueues a job. Some idle worker (or the next one to free up)
    /// runs it; there is no result channel — send results through your
    /// own channel if you need them back.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.tx
            .as_ref()
            .expect("sender lives until drop")
            .send(Box::new(job))
            .expect("workers live until drop");
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Disconnect, then join: workers drain the queue and exit.
        drop(self.tx.take());
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        for threads in [1usize, 2, 4, 7] {
            let opts = BatchOptions::with_threads(threads);
            let got = map_with(100, opts, || (), |(), i| i * i);
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn map_with_builds_state_per_worker() {
        let opts = BatchOptions {
            threads: 3,
            chunk: Some(1),
        };
        // Each worker counts its own items; the sum must cover the batch.
        let results = map_with(
            50,
            opts,
            || 0usize,
            |count, i| {
                *count += 1;
                (i, *count)
            },
        );
        assert_eq!(results.len(), 50);
        assert!(results.iter().enumerate().all(|(i, &(j, _))| i == j));
    }

    #[test]
    fn empty_and_tiny_batches() {
        let opts = BatchOptions::with_threads(4);
        assert!(map_with(0, opts, || (), |(), i| i).is_empty());
        assert_eq!(map_with(1, opts, || (), |(), i| i), [0]);
    }

    #[test]
    fn thread_pool_runs_every_job() {
        let pool = ThreadPool::new(3);
        assert_eq!(pool.workers(), 3);
        let (tx, rx) = channel();
        for i in 0..50usize {
            let tx = tx.clone();
            pool.execute(move || {
                let _ = tx.send(i * 2);
            });
        }
        drop(tx);
        let mut got: Vec<usize> = rx.iter().collect();
        got.sort_unstable();
        let want: Vec<usize> = (0..50).map(|i| i * 2).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn thread_pool_drop_drains_queue() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..20 {
                let c = Arc::clone(&counter);
                pool.execute(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Drop joins the workers after the queue drains.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn thread_pool_survives_panicking_jobs() {
        // One worker: if a panic killed it, the second job would never
        // run and recv would block forever (test would time out).
        let pool = ThreadPool::new(1);
        pool.execute(|| panic!("deliberate test panic"));
        let (tx, rx) = channel();
        pool.execute(move || {
            let _ = tx.send(41);
        });
        assert_eq!(rx.recv().unwrap(), 41);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.workers(), 1);
        let (tx, rx) = channel();
        pool.execute(move || {
            let _ = tx.send(7usize);
        });
        assert_eq!(rx.recv().unwrap(), 7);
    }
}
