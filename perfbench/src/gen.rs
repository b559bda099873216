//! Seeded request generation for the three workloads.
//!
//! Everything the server receives is derived here from `(workload,
//! seed, scale)`: the registered program text, the session names, the
//! warm-up script and the timed request stream. The same
//! triple always yields byte-identical requests.

use std::borrow::Cow;

use cqchase_bench::exp::e15_service::render_service_program;
use cqchase_bench::many_workload::Lcg;
use cqchase_core::{is_isomorphic, iso_key};
use cqchase_ir::{parse_program, Catalog, ConjunctiveQuery, Constant, Program, QueryBuilder};
use cqchase_service::{FactSpec, Request};
use cqchase_storage::Tuple;
use cqchase_workload::{
    cycle_query, snowflake_query, star_query, successor_containment_batch, SlidingWindow,
};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many tenants on one shared catalog; every timed request is a
    /// cache hit.
    CheckHot,
    /// One session, deep queries, every `check` a semantic-cache miss.
    CheckDeep,
    /// One durable session: sliding-window updates against uncached
    /// evals over a 100k-tuple window.
    UpdateEval,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CheckHot,
        Workload::CheckDeep,
        Workload::UpdateEval,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CheckHot => "check_hot",
            Workload::CheckDeep => "check_deep",
            Workload::UpdateEval => "update_eval",
        }
    }

    /// The operation the workload is built around; `p50_us`/`p75_us`
    /// report its latency.
    pub fn primary_op(self) -> &'static str {
        match self {
            Workload::CheckHot | Workload::CheckDeep => "check",
            Workload::UpdateEval => "update",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. `Full` is what the benchmark measures; `Reduced` keeps
/// every code path but fits in a unit test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Small sizes for the self-tests.
    Reduced,
}

/// The sizes one scale implies.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `check_hot` tenants sharing one catalog.
    pub tenants: usize,
    /// `update_eval` live window on `R`.
    pub window: usize,
    /// `update_eval` window tuples registered inline with the program;
    /// the rest of the window is loaded by bulk updates.
    pub prefix: usize,
    /// Tuples per bulk-load update.
    pub bulk: usize,
    /// Keys in the `update_eval` watch relation.
    pub watch: usize,
    /// Rounds per run, each a set-up and a timed phase on a fresh server
    /// (the reported metrics are medians over the rounds).
    pub setup_reps: usize,
    /// Requests the traced run replays in-process (the stream's first).
    pub replay: usize,
}

impl Scale {
    /// The sizes for this scale.
    pub fn sizes(self) -> Sizes {
        match self {
            Scale::Full => Sizes {
                tenants: 64,
                window: 100_000,
                prefix: 4096,
                bulk: 4096,
                watch: 32,
                setup_reps: 5,
                replay: 1000,
            },
            Scale::Reduced => Sizes {
                tenants: 8,
                window: 4096,
                prefix: 512,
                bulk: 1024,
                watch: 8,
                setup_reps: 1,
                replay: 64,
            },
        }
    }
}

/// `check_hot`: query pool size (the 24-query chain/cycle/star pool).
pub const HOT_POOL: usize = 24;
/// `check_hot`: distinct (q, q′) pairs the tenants check.
pub const HOT_PAIRS: usize = 64;
/// Ground facts in the `check_hot` and `check_deep` programs.
pub const FACTS: usize = 64;
/// One `check_hot` request in `EVAL_EVERY` is an `eval`.
pub const EVAL_EVERY: usize = 8;
/// `update_eval`: tuples inserted and deleted per sliding-window step.
pub const CHUNK: usize = 64;

/// One request, as indices into the plan's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Req {
    /// `check` of pair `pair` in session `tenant`.
    Check {
        /// Index into [`Plan::sessions`].
        tenant: usize,
        /// Index into [`Plan::pairs`].
        pair: usize,
    },
    /// `eval` of query `query` in session `tenant`.
    Eval {
        /// Index into [`Plan::sessions`].
        tenant: usize,
        /// Query index in the registered program.
        query: usize,
    },
    /// Sliding-window step `step` of session 0.
    Update {
        /// Step number (0-based, applied in order).
        step: usize,
    },
}

impl Req {
    /// The protocol operation.
    pub fn op(&self) -> &'static str {
        match self {
            Req::Check { .. } => "check",
            Req::Eval { .. } => "eval",
            Req::Update { .. } => "update",
        }
    }
}

/// Everything one workload sends, fixed by `(workload, seed, scale)`.
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// The generation seed.
    pub seed: u64,
    /// The scale.
    pub scale: Scale,
    /// Program text every session registers (identical across tenants).
    pub program_src: String,
    /// The same program, parsed (for in-process replicas).
    pub program: Program,
    /// Session names.
    pub sessions: Vec<String>,
    /// The check pair pool, as query indices.
    pub pairs: Vec<(usize, usize)>,
    /// Isomorphism-class id per query (the smallest index of an
    /// isomorphic query).
    pub class_of: Vec<usize>,
    /// `update_eval`: the window generator.
    pub window: SlidingWindow,
    /// `update_eval`: the watched keys.
    pub watch: Vec<i64>,
    /// Pre-rendered `check` lines, indexed `tenant * pairs + pair`.
    check_lines: Vec<String>,
    /// Pre-rendered `eval` lines, indexed `tenant * queries + query`.
    eval_lines: Vec<String>,
}

/// Rank-harmonic zipf sampler over `n` items (weight `1/(rank+1)`),
/// the tenant-skew rule of `cqchase_bench::many_workload`.
struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        let cum = (0..n)
            .map(|rank| {
                total += 1.0 / (rank + 1) as f64;
                total
            })
            .collect();
        Zipf { cum }
    }

    fn sample(&self, rng: &mut Lcg) -> usize {
        let total = *self.cum.last().expect("zipf over at least one item");
        let r = rng.unit() * total;
        self.cum.partition_point(|&c| c < r).min(self.cum.len() - 1)
    }
}

/// The request stream of the load connection.
pub struct Stream<'a> {
    plan: &'a Plan,
    next: usize,
    rng: Lcg,
    zipf: Zipf,
}

impl Iterator for Stream<'_> {
    type Item = Req;

    /// The next request; `None` only when `check_deep` has used up the
    /// distinct pairs.
    fn next(&mut self) -> Option<Req> {
        let i = self.next;
        self.next += 1;
        let plan = self.plan;
        match plan.workload {
            Workload::CheckHot => {
                let tenant = self.zipf.sample(&mut self.rng);
                let pair = below(&mut self.rng, plan.pairs.len());
                if below(&mut self.rng, EVAL_EVERY) == 0 {
                    Some(Req::Eval {
                        tenant,
                        query: plan.pairs[pair].0,
                    })
                } else {
                    Some(Req::Check { tenant, pair })
                }
            }
            Workload::CheckDeep => {
                (i < plan.pairs.len()).then_some(Req::Check { tenant: 0, pair: i })
            }
            // Every update is followed by `Sel` and `Selfloop`, so each
            // eval finds the epoch moved and recomputes.
            Workload::UpdateEval => Some(match i % 3 {
                0 => Req::Update { step: i / 3 },
                q => Req::Eval {
                    tenant: 0,
                    query: q - 1,
                },
            }),
        }
    }
}

/// Uniform in `0..n` from the generator's high bits (an LCG's low bits
/// have short periods).
fn below(rng: &mut Lcg, n: usize) -> usize {
    (((rng.next_u64() >> 32) * n as u64) >> 32) as usize
}

fn seed_mix(seed: u64, salt: u64) -> u64 {
    // Distinct, well-spread LCG starting points per (seed, stream).
    let mut rng = Lcg::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64();
    rng.next_u64()
}

/// Class id per query: the smallest index of an isomorphic query.
fn classes(queries: &[ConjunctiveQuery]) -> Vec<usize> {
    let keys: Vec<u64> = queries.iter().map(iso_key).collect();
    (0..queries.len())
        .map(|i| {
            (0..=i)
                .find(|&j| keys[j] == keys[i] && is_isomorphic(&queries[j], &queries[i]))
                .expect("a query is isomorphic to itself")
        })
        .collect()
}

/// A chain of `n` atoms whose single head variable sits at position
/// `head` of the path `x0 → … → xn`.
fn chain_headed(catalog: &Catalog, n: usize, head: usize) -> ConjunctiveQuery {
    let mut b = QueryBuilder::new(format!("Ch{n}h{head}"), catalog).head_vars([format!("x{head}")]);
    for i in 0..n {
        b = b
            .atom("R", [format!("x{i}"), format!("x{}", i + 1)])
            .expect("R is binary");
    }
    b.build().expect("chains are well-formed")
}

/// A cycle of `c` atoms with a tail of `n - c` atoms leaving it; the
/// head variable is the tail's end.
fn lollipop(catalog: &Catalog, c: usize, n: usize) -> ConjunctiveQuery {
    let tail = n - c;
    let mut b = QueryBuilder::new(format!("Lp{c}t{tail}"), catalog).head_vars([format!("t{tail}")]);
    for i in 0..c {
        b = b
            .atom("R", [format!("c{i}"), format!("c{}", (i + 1) % c)])
            .expect("R is binary");
    }
    let mut prev = "c0".to_string();
    for j in 1..=tail {
        let next = format!("t{j}");
        b = b.atom("R", [prev, next.clone()]).expect("R is binary");
        prev = next;
    }
    b.build().expect("lollipops are well-formed")
}

/// A star of `n` rays whose head is one leaf instead of the centre.
fn star_leaf(catalog: &Catalog, n: usize) -> ConjunctiveQuery {
    let mut b = QueryBuilder::new(format!("Sl{n}"), catalog).head_vars(["y0"]);
    for i in 0..n {
        b = b
            .atom("R", ["c".to_string(), format!("y{i}")])
            .expect("R is binary");
    }
    b.build().expect("stars are well-formed")
}

/// Smallest and largest query size (atoms) in the `check_deep` pool.
const DEEP_MIN_ATOMS: usize = 12;
const DEEP_MAX_ATOMS: usize = 28;

/// The `check_deep` pool: chains (head at five positions), cycles,
/// stars (head at the centre or a leaf), lollipops and snowflakes of
/// 12–28 atoms over the successor schema. Pairwise non-isomorphic.
pub fn deep_pool(catalog: &Catalog) -> Vec<ConjunctiveQuery> {
    let mut pool = Vec::new();
    for n in DEEP_MIN_ATOMS..=DEEP_MAX_ATOMS {
        let mut heads = vec![0, n / 4, n / 2, 3 * n / 4, n];
        heads.dedup();
        for h in heads {
            pool.push(chain_headed(catalog, n, h));
        }
        pool.push(cycle_query(&format!("Cy{n}"), catalog, "R", n).expect("cycle"));
        pool.push(star_query(&format!("St{n}"), catalog, "R", n).expect("star"));
        pool.push(star_leaf(catalog, n));
        for c in [3, 4, 5] {
            pool.push(lollipop(catalog, c, n));
        }
    }
    for rays in 2..=7 {
        for depth in 2..=14 {
            if (DEEP_MIN_ATOMS..=DEEP_MAX_ATOMS).contains(&(rays * depth)) {
                pool.push(
                    snowflake_query(&format!("Sf{rays}x{depth}"), catalog, "R", rays, depth)
                        .expect("snowflake"),
                );
            }
        }
    }
    pool
}

fn successor_program() -> Program {
    // The schema `successor_containment_batch` uses; its pool is unused
    // when only the schema is needed.
    successor_containment_batch(0, 1, 0).program
}

/// Builds the plan for `(workload, seed, scale)`.
pub fn plan(workload: Workload, seed: u64, scale: Scale) -> Plan {
    let sizes = scale.sizes();
    let mut window = SlidingWindow {
        window: 0,
        chunk: CHUNK,
    };
    let mut watch = Vec::new();
    let (program_src, sessions, pairs) = match workload {
        Workload::CheckHot => {
            let batch = successor_containment_batch(seed, HOT_POOL, HOT_PAIRS);
            let src = render_service_program(&batch.program, &batch.queries, FACTS);
            let sessions = (0..sizes.tenants)
                .map(|i| format!("tenant-{i:02}"))
                .collect();
            (src, sessions, batch.pairs)
        }
        Workload::CheckDeep => {
            let schema = successor_program();
            let pool = deep_pool(&schema.catalog);
            let src = render_service_program(&schema, &pool, FACTS);
            // Every ordered pair once, in a seeded order: no
            // isomorphism-class pair repeats within a run.
            let mut pairs: Vec<(usize, usize)> = (0..pool.len())
                .flat_map(|q| (0..pool.len()).map(move |qp| (q, qp)))
                .collect();
            let mut rng = Lcg::new(seed_mix(seed, 0xDEE9));
            for i in (1..pairs.len()).rev() {
                let j = below(&mut rng, i + 1);
                pairs.swap(i, j);
            }
            (src, vec!["deep".to_string()], pairs)
        }
        Workload::UpdateEval => {
            window.window = sizes.window;
            // Watched keys: half start inside the window, half lie ahead
            // of it and enter as it slides, so `Sel` answers change over
            // a run.
            let mut rng = Lcg::new(seed_mix(seed, 0x3A7C));
            let mut keys: Vec<i64> = (0..sizes.watch)
                .map(|i| {
                    let span = if i % 2 == 0 {
                        sizes.window
                    } else {
                        8 * sizes.window
                    };
                    below(&mut rng, span) as i64
                })
                .collect();
            keys.sort_unstable();
            keys.dedup();
            watch = keys;
            let mut src = String::from(
                "relation R(a, b).\nrelation W(k).\n\
                 Sel(x, z) :- W(x), R(x, y), R(y, z).\n\
                 Selfloop(x) :- R(x, x).\n",
            );
            for k in &watch {
                src.push_str(&format!("W({k}).\n"));
            }
            for k in 0..sizes.prefix {
                src.push_str(&format!("R({k}, {}).\n", k + 1));
            }
            (src, vec!["window".to_string()], Vec::new())
        }
    };
    let program = parse_program(&program_src).expect("generated programs parse");
    let class_of = classes(&program.queries);
    let names: Vec<&str> = program.queries.iter().map(|q| q.name.as_str()).collect();
    let mut check_lines = Vec::with_capacity(sessions.len() * pairs.len());
    let mut eval_lines = Vec::with_capacity(sessions.len() * names.len());
    for s in &sessions {
        for &(q, qp) in &pairs {
            check_lines.push(render(&Request::Check {
                session: s.clone(),
                q: names[q].to_string(),
                q_prime: names[qp].to_string(),
                deadline_ms: None,
            }));
        }
        for n in &names {
            eval_lines.push(render(&Request::Eval {
                session: s.clone(),
                query: n.to_string(),
                deadline_ms: None,
            }));
        }
    }
    Plan {
        workload,
        seed,
        scale,
        program_src,
        program,
        sessions,
        pairs,
        class_of,
        window,
        watch,
        check_lines,
        eval_lines,
    }
}

/// A request as one protocol line (the encoding `Client` uses).
pub fn render(req: &Request) -> String {
    req.to_value().to_string()
}

/// Step `step` of a sliding window over `R` as `(insert, delete)` wire
/// facts.
pub fn window_step(
    window: &SlidingWindow,
    r: cqchase_ir::RelId,
    step: usize,
) -> (Vec<FactSpec>, Vec<FactSpec>) {
    let specs = |tuples: Vec<(cqchase_ir::RelId, Tuple)>| -> Vec<FactSpec> {
        tuples
            .into_iter()
            .map(|(_, t)| {
                let consts = t
                    .iter()
                    .map(|v| v.as_const().expect("window tuples are ground").clone());
                ("R".to_string(), consts.collect::<Vec<Constant>>())
            })
            .collect()
    };
    let (ins, del) = window.step(r, step);
    (specs(ins), specs(del))
}

impl Plan {
    /// The request stream.
    pub fn stream(&self) -> Stream<'_> {
        self.stream_from(0)
    }

    /// The request stream from request `start` on (see
    /// [`Plan::round_start`]).
    pub fn stream_from(&self, start: usize) -> Stream<'_> {
        Stream {
            plan: self,
            next: start,
            rng: Lcg::new(seed_mix(self.seed, 1)),
            zipf: Zipf::new(self.sessions.len()),
        }
    }

    /// Where round `rep` of `reps` starts in the stream. `check_deep`
    /// rounds take disjoint slices of the pair order, so a run samples
    /// five times as many distinct pairs; the other workloads start every
    /// fresh server at the beginning (`update_eval` must: its steps
    /// assume the window as set-up leaves it).
    pub fn round_start(&self, rep: usize, reps: usize) -> usize {
        match self.workload {
            Workload::CheckDeep => rep * self.pairs.len() / reps,
            _ => 0,
        }
    }

    /// Query names of the registered program.
    pub fn query_name(&self, q: usize) -> &str {
        &self.program.queries[q].name
    }

    /// The `R` relation id.
    pub fn r(&self) -> cqchase_ir::RelId {
        self.program
            .catalog
            .resolve("R")
            .expect("every program declares R")
    }

    /// `update_eval` step `step` as `(insert, delete)` wire facts.
    pub fn step_facts(&self, step: usize) -> (Vec<FactSpec>, Vec<FactSpec>) {
        window_step(&self.window, self.r(), step)
    }

    /// The protocol line for `req`.
    pub fn line(&self, req: &Req) -> Cow<'_, str> {
        match *req {
            Req::Check { tenant, pair } => {
                Cow::Borrowed(&self.check_lines[tenant * self.pairs.len() + pair])
            }
            Req::Eval { tenant, query } => {
                Cow::Borrowed(&self.eval_lines[tenant * self.program.queries.len() + query])
            }
            Req::Update { step } => {
                let (insert, delete) = self.step_facts(step);
                Cow::Owned(render(&Request::Update {
                    session: self.sessions[0].clone(),
                    insert,
                    delete,
                    deadline_ms: None,
                }))
            }
        }
    }

    /// The `register` line for session `tenant`.
    pub fn register_line(&self, tenant: usize) -> String {
        render(&Request::Register {
            session: self.sessions[tenant].clone(),
            program: self.program_src.clone(),
        })
    }

    /// `update_eval` set-up: bulk updates loading the window beyond the
    /// inline prefix.
    pub fn bulk_lines(&self) -> Vec<String> {
        if self.workload != Workload::UpdateEval {
            return Vec::new();
        }
        let sizes = self.scale.sizes();
        (sizes.prefix..sizes.window)
            .step_by(sizes.bulk)
            .map(|start| {
                let end = (start + sizes.bulk).min(sizes.window);
                let insert = (start..end)
                    .map(|k| {
                        let k = k as i64;
                        (
                            "R".to_string(),
                            vec![Constant::Int(k), Constant::Int(k + 1)],
                        )
                    })
                    .collect();
                render(&Request::Update {
                    session: self.sessions[0].clone(),
                    insert,
                    delete: Vec::new(),
                    deadline_ms: None,
                })
            })
            .collect()
    }

    /// The warm-up script (`check_hot` only): for every tenant, one
    /// `check` per distinct class pair and one `eval` per evaluated
    /// query, so every timed request is answered from a cache.
    pub fn warmup(&self) -> Vec<Req> {
        if self.workload != Workload::CheckHot {
            return Vec::new();
        }
        let mut seen_pairs: Vec<(usize, usize)> = Vec::new();
        let mut reps = Vec::new();
        for (i, &(q, qp)) in self.pairs.iter().enumerate() {
            let key = (self.class_of[q], self.class_of[qp]);
            if !seen_pairs.contains(&key) {
                seen_pairs.push(key);
                reps.push(i);
            }
        }
        let mut evals: Vec<usize> = self.pairs.iter().map(|p| p.0).collect();
        evals.sort_unstable();
        evals.dedup();
        let mut out = Vec::new();
        for tenant in 0..self.sessions.len() {
            out.extend(reps.iter().map(|&pair| Req::Check { tenant, pair }));
            out.extend(evals.iter().map(|&query| Req::Eval { tenant, query }));
        }
        out
    }

    /// The registered program with the complete state set-up leaves:
    /// for `update_eval`, the whole window instead of the inline prefix.
    pub fn replica_program(&self) -> Program {
        let mut p = self.program.clone();
        if self.workload == Workload::UpdateEval {
            let r = self.r();
            p.facts.retain(|(rel, _)| *rel != r);
            p.facts.extend(
                (0..self.window.window as i64)
                    .map(|k| (r, vec![Constant::Int(k), Constant::Int(k + 1)])),
            );
        }
        p
    }
}
