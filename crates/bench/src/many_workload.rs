//! Many-tenant workload: a thousand sessions registering the **same**
//! program text (one `FrozenCatalog`, 999 attaches) with zipf-skewed
//! eval traffic driven through the sharded lane queues — the scenario
//! the lane/catalog layer exists for.
//!
//! Everything is deterministic (fixed-seed LCG, fixed session names,
//! fixed promotion set), so the baseline recorder and the bench gate
//! replay the identical request sequence and can assert the two lane
//! configurations produce bit-identical answer checksums.

use std::sync::Arc;

use cqchase_service::{Batcher, CatalogRegistry, LaneSet, Metrics, Outcome, Session, Work};

/// Resident tenants sharing one catalog.
pub const SESSIONS: usize = 1000;
/// Eval requests per throughput measurement.
pub const OPS: usize = 4000;
/// Concurrent submitter threads (stand-ins for connection workers).
pub const SUBMITTERS: usize = 4;
/// Total compute threads, partitioned across lanes exactly the way the
/// server does it (`threads / lanes`, min 1 per lane).
pub const TOTAL_THREADS: usize = 4;
/// Every Nth tenant applies one private update and promotes off the
/// shared base — the memory measurement covers the realistic mixed
/// state, not the all-shared best case.
pub const PROMOTE_EVERY: usize = 16;
/// Base facts in the shared program.
pub const FACTS: usize = 48;
/// LCG seed for facts, zipf sampling, and query choice.
pub const SEED: u64 = 0x51ab_0982;

const NUM_QUERIES: usize = 4;

/// Deterministic 64-bit LCG (MMIX constants) — the only randomness
/// source, so every run replays the same traffic.
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Lcg {
        Lcg(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in `[0, 1)` from the high bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The canonical many-tenant request script.
pub struct ManyWorkload {
    /// The single shared program text every tenant registers.
    pub program_src: String,
    /// `tenant-0000` … `tenant-0999`.
    pub names: Vec<String>,
    /// `(session index, query index)` per request; session indices are
    /// zipf-distributed (rank-harmonic), so a few tenants are hot and
    /// the long tail is cold — the usual multi-tenant shape.
    pub ops: Vec<(usize, usize)>,
}

/// Builds the canonical workload: shared program source with `FACTS`
/// seeded base facts, `SESSIONS` tenant names, `OPS` zipf-sampled
/// eval requests.
pub fn many_workload() -> ManyWorkload {
    let mut rng = Lcg::new(SEED);
    let mut src = String::from(
        "relation R(a, b).
    ind R[2] <= R[1].
    Q0(x) :- R(x, y).
    Q1(x) :- R(x, y), R(y, z).
    Q2(x) :- R(y, x).
    Q3(x, z) :- R(x, y), R(y, z).",
    );
    for _ in 0..FACTS {
        let a = (rng.next_u64() % 40) as i64;
        let b = (rng.next_u64() % 40) as i64;
        src.push_str(&format!("\nR({a}, {b})."));
    }
    let names: Vec<String> = (0..SESSIONS).map(|i| format!("tenant-{i:04}")).collect();

    // Harmonic zipf over session ranks: weight 1/(rank+1), sampled by
    // binary search over the cumulative mass.
    let mut cum = Vec::with_capacity(SESSIONS);
    let mut total = 0.0f64;
    for rank in 0..SESSIONS {
        total += 1.0 / (rank + 1) as f64;
        cum.push(total);
    }
    let ops = (0..OPS)
        .map(|_| {
            let r = rng.unit() * total;
            let s = cum.partition_point(|&c| c < r).min(SESSIONS - 1);
            let q = (rng.next_u64() % NUM_QUERIES as u64) as usize;
            (s, q)
        })
        .collect();
    ManyWorkload {
        program_src: src,
        names,
        ops,
    }
}

/// The fact a promoting tenant inserts: outside the base domain, unique
/// per tenant, so the update is always effective (always promotes).
fn promotion_fact(i: usize) -> (String, Vec<cqchase_ir::Constant>) {
    (
        "R".into(),
        vec![
            cqchase_ir::Constant::Int(500 + i as i64),
            cqchase_ir::Constant::Int(501 + i as i64),
        ],
    )
}

/// Registers every tenant through one shared-catalog registry, then
/// promotes every [`PROMOTE_EVERY`]th tenant with its private fact.
pub fn build_shared_sessions(w: &ManyWorkload) -> (Arc<CatalogRegistry>, Vec<Arc<Session>>) {
    let registry = Arc::new(CatalogRegistry::new(256));
    let sessions: Vec<Arc<Session>> = w
        .names
        .iter()
        .map(|name| {
            Arc::new(
                registry
                    .session_from_source(name, &w.program_src, 64, 64)
                    .expect("register shared tenant"),
            )
        })
        .collect();
    assert_eq!(registry.len(), 1, "one frozen catalog for all tenants");
    for (i, s) in sessions.iter().enumerate() {
        if i % PROMOTE_EVERY == 0 {
            s.apply_update(&[promotion_fact(i)], &[])
                .expect("promotion update");
            assert!(!s.facts_shared(), "effective update promoted {i}");
        } else {
            assert!(s.facts_shared(), "untouched tenant {i} stays shared");
        }
    }
    (registry, sessions)
}

/// The rebuild-per-tenant control: the same tenants, same promotion
/// set, but each built privately (its own parse, facts, index, plans).
pub fn build_duplicate_sessions(w: &ManyWorkload) -> Vec<Session> {
    w.names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let s = Session::new(name, &w.program_src, 64, 64).expect("register private tenant");
            if i % PROMOTE_EVERY == 0 {
                s.apply_update(&[promotion_fact(i)], &[])
                    .expect("promotion update");
            }
            s
        })
        .collect()
}

/// One throughput measurement's result.
pub struct LaneRunStats {
    /// Sustained eval requests per second across all submitters.
    pub ops_per_sec: f64,
    /// Sum of result-row counts over the whole script — deterministic,
    /// so any two lane configurations must agree exactly.
    pub checksum: u64,
}

/// Drives the full script through a `lanes`-sharded queue set with
/// [`SUBMITTERS`] concurrent submitter threads (strided over the ops)
/// and the server's thread partitioning, on freshly built sessions
/// (cold result caches — both lane configurations start equal).
pub fn measure_lane_throughput(w: &ManyWorkload, lanes: usize) -> LaneRunStats {
    let (_registry, sessions) = build_shared_sessions(w);
    let metrics = Arc::new(Metrics::with_lanes(lanes));
    let threads_per_lane = (TOTAL_THREADS / lanes).max(1);
    let lane_set = Arc::new(LaneSet::new(lanes, |i| {
        Batcher::new(threads_per_lane, Arc::clone(&metrics)).with_lane(i)
    }));
    let sessions = Arc::new(sessions);
    let names = Arc::new(w.names.clone());
    let ops = Arc::new(w.ops.clone());

    let t0 = std::time::Instant::now();
    let handles: Vec<_> = (0..SUBMITTERS)
        .map(|t| {
            let (lane_set, sessions, names, ops) = (
                Arc::clone(&lane_set),
                Arc::clone(&sessions),
                Arc::clone(&names),
                Arc::clone(&ops),
            );
            std::thread::spawn(move || {
                let mut sum = 0u64;
                for (i, &(s, q)) in ops.iter().enumerate() {
                    if i % SUBMITTERS != t {
                        continue;
                    }
                    let out = lane_set
                        .for_session(&names[s])
                        .submit(Work::Eval {
                            session: Arc::clone(&sessions[s]),
                            q,
                        })
                        .expect("submit eval");
                    match out {
                        Outcome::Eval { rows, .. } => sum += rows.len() as u64,
                        other => panic!("eval work answered {other:?}"),
                    }
                }
                sum
            })
        })
        .collect();
    let checksum = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let elapsed = t0.elapsed().as_secs_f64();
    LaneRunStats {
        ops_per_sec: w.ops.len() as f64 / elapsed.max(1e-9),
        checksum,
    }
}

/// Resident-bytes comparison: shared-catalog tenants vs the same
/// tenants each rebuilt privately.
pub struct MemoryDedup {
    /// Σ private session bytes + Σ distinct shared-base bytes.
    pub shared_total: usize,
    /// Σ per-tenant bytes when every tenant owns its facts.
    pub duplicate_total: usize,
}

impl MemoryDedup {
    pub fn shared_per_session(&self) -> f64 {
        self.shared_total as f64 / SESSIONS as f64
    }

    pub fn duplicate_per_session(&self) -> f64 {
        self.duplicate_total as f64 / SESSIONS as f64
    }

    /// How many times smaller the shared path is (higher is better).
    pub fn factor(&self) -> f64 {
        self.duplicate_total as f64 / self.shared_total.max(1) as f64
    }
}

/// Builds both populations (same tenants, same promoted subset) and
/// accounts their resident fact bytes. Shared bases are counted once
/// per distinct catalog — exactly how the server's `stats` reports
/// them — and promoted tenants' private copies count individually on
/// both sides.
pub fn measure_memory_dedup(w: &ManyWorkload) -> MemoryDedup {
    let (registry, sessions) = build_shared_sessions(w);
    let shared_total = sessions.iter().map(|s| s.resident_bytes()).sum::<usize>()
        + registry.shared_resident_bytes();
    let duplicate_total = build_duplicate_sessions(w)
        .iter()
        .map(|s| s.resident_bytes())
        .sum();
    MemoryDedup {
        shared_total,
        duplicate_total,
    }
}
