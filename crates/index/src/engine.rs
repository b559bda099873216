//! The shared join engine: cost-based static orders + acyclic fast path.
//!
//! A conjunctive query is compiled against a [`FactSource`] into atoms
//! of [`Slot`]s (interned constants and dense variable slots). A plan
//! is compiled for the one way it will run, and carries one order:
//!
//! * an **eval plan** ([`compile`]) searches with nothing bound. Its
//!   **cost-based atom order** comes from per-relation live-row counts
//!   and per-column distinct-value counts — each greedy step picks the
//!   atom with the lowest estimated candidate count given the variables
//!   the already-ordered atoms bind. It also carries an **acyclicity
//!   certificate**: a GYO ear reduction over the body's hypergraph.
//!   Acyclic bodies get an [`AcyclicPlan`], a join forest rooted at each
//!   component's first atom in the cost order, executed as top-down
//!   candidate generation (children probe the posting lists with their
//!   parent's keys when the parent's list is the shorter side),
//!   bottom-up semijoin reduction and backtrack-free enumeration (see
//!   [`crate::acyclic`]); cyclic bodies keep the backtracking search;
//! * a **probe plan** ([`compile_probe`]) runs with the head variables
//!   pre-bound — the shape of every summary-preserving homomorphism
//!   probe. Its order is the same cost model
//!   with the head variables counted as bound, and it carries no join
//!   forest, because pre-bound searches always backtrack. A query with
//!   no head variables runs unbound, so its probe plan is the eval plan;
//! * a **statistics snapshot** of the relation sizes the orders were
//!   derived from, so plan owners can detect cardinality drift
//!   ([`CompiledQuery::stats_drifted`]) and recompile.
//!
//! Plans run through two doors: [`join_with`] (any pre-binding, every
//! solution) and [`join_unbound_distinct`] (nothing bound, one witness
//! per distinct head binding). Both end in one search step that runs the
//! join forest when the plan has one and nothing is pre-bound, and the
//! backtracking search otherwise.
//!
//! One engine serves all three homomorphism consumers of the paper:
//! query-to-query homomorphisms (Chandra–Merlin), query-to-chase
//! homomorphisms (Theorems 1/2), and finite evaluation `Q(B)`.

use cqchase_ir::{ConjunctiveQuery, Constant, RelId, Term};

use crate::acyclic::{self, AcyclicPlan};
use crate::cancel::{CancelToken, CANCEL_CHECK_INTERVAL};
use crate::sym::Sym;

/// A finite store of rows of interned symbols, queryable by column.
///
/// Row ids are source-chosen `u32`s, unique per relation and stable for
/// the duration of a join call.
pub trait FactSource {
    /// Number of live rows of `rel` (ordering heuristic).
    fn rel_size(&self, rel: RelId) -> usize;

    /// The symbols of live row `row` of `rel`.
    fn row_syms(&self, rel: RelId, row: u32) -> &[Sym];

    /// Upper bound on the number of live rows of `rel` carrying `sym` in
    /// column `col` (ordering heuristic; exactness not required).
    fn posting_len(&self, rel: RelId, col: usize, sym: Sym) -> usize;

    /// Pushes (in ascending order) every live row of `rel` that carries
    /// `sym` in column `col` for all `(col, sym)` in `bound` into `out`.
    /// An empty `bound` enumerates all live rows.
    fn candidates(&self, rel: RelId, bound: &[(usize, Sym)], out: &mut Vec<u32>);

    /// Resolves a query constant into this source's symbol space, or
    /// `None` when the constant occurs nowhere in the source.
    fn sym_of_const(&self, c: &Constant) -> Option<Sym>;

    /// Number of distinct symbols in column `col` of `rel` (selectivity
    /// estimation: a bound variable in that column keeps roughly a
    /// `1/distinct` fraction of the rows). Exactness is not required;
    /// the default assumes all-distinct columns, which reduces the cost
    /// model to "any bound atom is cheap" — sources backed by a
    /// [`ColumnIndex`](crate::store::ColumnIndex) should override with
    /// the exact per-column count.
    fn distinct_count(&self, rel: RelId, _col: usize) -> usize {
        self.rel_size(rel).max(1)
    }
}

/// One compiled atom position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// A constant, pre-resolved to the source's symbol space.
    Const(Sym),
    /// A query variable (dense per-query index).
    Var(u32),
}

/// One compiled atom.
#[derive(Debug, Clone)]
pub struct CompiledAtom {
    /// The relation the atom ranges over.
    pub rel: RelId,
    /// One slot per column.
    pub slots: Vec<Slot>,
}

/// A query compiled against one source's symbol space, carrying its
/// cost-based order, acyclicity certificate (eval plans only), and stats
/// snapshot.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// Atoms in the original query's order (the search follows a
    /// compile-time cost-based order; result rows stay indexed by this
    /// original order).
    pub atoms: Vec<CompiledAtom>,
    /// Size of the variable table (bindings are indexed by `VarId`).
    pub num_vars: usize,
    /// The query's head variables (deduplicated, in head order) — the
    /// variables whose distinct bindings evaluation cares about.
    pub head_vars: Vec<u32>,
    /// The cost-based atom order the search runs: with nothing bound
    /// for an eval plan ([`compile`]), with the head variables bound for
    /// a probe plan ([`compile_probe`]).
    pub order: Vec<u32>,
    /// The Yannakakis join forest when the body is α-acyclic and the
    /// plan runs unbound; `None` keeps the backtracking engine (always
    /// for a probe plan with head variables).
    pub acyclic: Option<AcyclicPlan>,
    /// Per-relation live-row counts observed at compile time (one entry
    /// per distinct body relation) — the drift detector's reference.
    pub stats: Vec<(RelId, usize)>,
    /// Estimated candidate count per atom (original atom index), as
    /// computed when the plan's cost order picked it. The "estimated"
    /// side of est-vs-actual diagnostics ([`ExecStats::atom_actual`]).
    pub atom_est: Vec<f64>,
}

/// Execution counters the join engines maintain as they run — the
/// "actuals" side of est-vs-actual planner diagnostics.
///
/// The scalar counters are **monotone**: they accumulate across every
/// join run with the same [`JoinScratch`], so owners meter a single
/// request by snapshotting before and differencing after (cloning is
/// cheap). `atom_actual` instead describes the **latest** join only —
/// it is re-zeroed at every entry, because its length and meaning are
/// per-plan.
///
/// Maintenance costs a few plain integer adds per candidate list — no
/// atomics, no allocation beyond the per-plan `atom_actual` reserve —
/// so the counters are always on.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExecStats {
    /// Candidate rows produced by index probes, summed over all atoms
    /// (every one of these is at least inspected by the engine).
    pub candidates_scanned: u64,
    /// Candidate rows rejected or exhausted after binding — each one
    /// undid its bindings and moved to the next candidate.
    pub backtracks: u64,
    /// Semijoin `retain` passes executed by the acyclic fast path (one
    /// per non-root atom per run).
    pub semijoin_retain_passes: u64,
    /// Complete solutions handed to the emit callback.
    pub rows_emitted: u64,
    /// Candidate rows scanned per atom of the **latest** join, indexed
    /// by original atom index — compare against
    /// [`CompiledQuery::atom_est`] to see planner drift per atom.
    pub atom_actual: Vec<u64>,
}

/// Sizes below this floor never count as drift: orderings over a handful
/// of rows are all equally cheap, and tiny relations fluctuate wildly in
/// relative terms.
const DRIFT_FLOOR: usize = 8;

impl CompiledQuery {
    /// Whether the source's relation cardinalities have drifted ≥2x (in
    /// either direction) from the snapshot this plan was costed against.
    /// Plan owners recompile on drift so a stale ordering is never
    /// served forever; changes entirely below `DRIFT_FLOOR` rows are
    /// ignored.
    pub fn stats_drifted(&self, src: &impl FactSource) -> bool {
        self.stats.iter().any(|&(rel, then)| {
            let now = src.rel_size(rel);
            let lo = then.min(now).max(DRIFT_FLOOR);
            let hi = then.max(now).max(DRIFT_FLOOR);
            hi >= 2 * lo
        })
    }
}

/// Greedy cost-based atom ordering: repeatedly pick the atom with the
/// smallest estimated candidate count, where `est = rel_size × Π` over
/// bound slots of the slot's selectivity — exact posting fractions for
/// constants, `1/distinct_count` for bound variables. Ties break toward
/// more bound slots, then the smaller atom index (determinism). Each
/// pick binds the atom's variables for the remaining steps. Returns
/// each picked atom paired with the estimate it was picked at (the
/// per-atom estimated cardinality exposed as
/// [`CompiledQuery::atom_est`]).
fn cost_order<S: FactSource>(
    atoms: &[CompiledAtom],
    num_vars: usize,
    src: &S,
    prebound: &[u32],
) -> Vec<(u32, f64)> {
    let n = atoms.len();
    let mut bound = vec![false; num_vars];
    for &v in prebound {
        bound[v as usize] = true;
    }
    let mut done = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let mut best: Option<(f64, usize, usize)> = None; // (est, bound_ct, atom)
        for (i, a) in atoms.iter().enumerate() {
            if done[i] {
                continue;
            }
            let size = src.rel_size(a.rel);
            let mut est = size as f64;
            let mut bound_ct = 0usize;
            for (col, slot) in a.slots.iter().enumerate() {
                match slot {
                    Slot::Const(s) => {
                        bound_ct += 1;
                        let frac = src.posting_len(a.rel, col, *s) as f64 / size.max(1) as f64;
                        est *= frac.min(1.0);
                    }
                    Slot::Var(v) => {
                        if bound[*v as usize] {
                            bound_ct += 1;
                            est *= 1.0 / src.distinct_count(a.rel, col).max(1) as f64;
                        }
                    }
                }
            }
            let better = match &best {
                None => true,
                Some((e, b, _)) => est < *e || (est == *e && bound_ct > *b),
            };
            if better {
                best = Some((est, bound_ct, i));
            }
        }
        let (est, _, pick) = best.expect("an unordered atom remains");
        done[pick] = true;
        order.push((pick as u32, est));
        for slot in &atoms[pick].slots {
            if let Slot::Var(v) = slot {
                bound[*v as usize] = true;
            }
        }
    }
    order
}

/// Compiles `q`'s body against `src` as an **eval plan**, run with
/// nothing bound ([`join_with`] with an all-`None` binding table, or
/// [`join_unbound_distinct`]): slot resolution, the unbound cost order,
/// GYO acyclicity test, and a stats snapshot. Returns `None` when some body constant does not occur in
/// the source at all — no atom can then match, so the query is
/// unsatisfiable over this source.
pub fn compile(q: &ConjunctiveQuery, src: &impl FactSource) -> Option<CompiledQuery> {
    compile_for(q, src, false)
}

/// Compiles `q`'s body against `src` as a **probe plan**, run through
/// [`join_with`] with the head variables pre-bound: the cost order
/// counts them as bound, and no join forest is built, since a pre-bound
/// search never runs one. A query without head variables is probed
/// unbound and gets the full eval plan. `None` as for [`compile`].
pub fn compile_probe(q: &ConjunctiveQuery, src: &impl FactSource) -> Option<CompiledQuery> {
    compile_for(q, src, true)
}

fn compile_for(q: &ConjunctiveQuery, src: &impl FactSource, probe: bool) -> Option<CompiledQuery> {
    let mut atoms = Vec::with_capacity(q.atoms.len());
    for a in &q.atoms {
        let mut slots = Vec::with_capacity(a.terms.len());
        for t in &a.terms {
            slots.push(match t {
                Term::Var(v) => Slot::Var(v.0),
                Term::Const(c) => Slot::Const(src.sym_of_const(c)?),
            });
        }
        atoms.push(CompiledAtom {
            rel: a.relation,
            slots,
        });
    }
    let num_vars = q.vars.len();
    let mut head_vars: Vec<u32> = Vec::with_capacity(q.head.len());
    for t in &q.head {
        if let Term::Var(v) = t {
            if !head_vars.contains(&v.0) {
                head_vars.push(v.0);
            }
        }
    }
    let prebound: &[u32] = if probe { &head_vars } else { &[] };
    let ordered = cost_order(&atoms, num_vars, src, prebound);
    let mut atom_est = vec![0.0; atoms.len()];
    for &(pick, est) in &ordered {
        atom_est[pick as usize] = est;
    }
    let order: Vec<u32> = ordered.into_iter().map(|(a, _)| a).collect();
    let acyclic = if prebound.is_empty() {
        acyclic::build(&atoms, &head_vars, &order)
    } else {
        None
    };
    let mut stats: Vec<(RelId, usize)> = Vec::new();
    for a in &atoms {
        if !stats.iter().any(|&(r, _)| r == a.rel) {
            stats.push((a.rel, src.rel_size(a.rel)));
        }
    }
    Some(CompiledQuery {
        atoms,
        num_vars,
        head_vars,
        order,
        acyclic,
        stats,
        atom_est,
    })
}

/// What a join call found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinOutcome {
    /// The emit callback requested a stop (it saw the solution it
    /// wanted).
    Stopped,
    /// The search space was exhausted; every solution was emitted.
    Exhausted,
}

/// Solution callback: `(bindings, chosen row per original atom)`;
/// returning `true` stops the search.
pub(crate) type EmitFn<'e> = dyn FnMut(&[Option<Sym>], &[u32]) -> bool + 'e;

/// The scratch-resident half of cooperative cancellation: an optional
/// [`CancelToken`] plus the coalescing counter, so the engines consult
/// the token only every [`CANCEL_CHECK_INTERVAL`] work units.
#[derive(Debug, Default)]
pub(crate) struct CancelState {
    token: Option<CancelToken>,
    /// Work units charged since the token was last consulted.
    pending: u64,
    /// Latched once the token reported stop during the current run.
    fired: bool,
}

impl CancelState {
    /// Called at every join entry: resets the per-run latch and refuses
    /// immediately when the token has already fired.
    #[inline]
    fn begin_run(&mut self) {
        self.pending = 0;
        self.fired = match &self.token {
            Some(t) => t.should_stop(),
            None => false,
        };
    }

    /// Charges `n` work units; returns `true` when the search must stop.
    /// Consults the token at most once per [`CANCEL_CHECK_INTERVAL`]
    /// units — two predictable branches and an add otherwise.
    #[inline]
    pub(crate) fn charge(&mut self, n: u64) -> bool {
        if self.fired {
            return true;
        }
        let Some(token) = &self.token else {
            return false;
        };
        self.pending += n;
        if self.pending < CANCEL_CHECK_INTERVAL {
            return false;
        }
        self.pending = 0;
        if token.should_stop() {
            self.fired = true;
        }
        self.fired
    }
}

/// Reusable working memory for [`join_with`].
///
/// A join needs a binding table, per-depth candidate and
/// newly-bound-variable buffers, and a bound-constraint scratch vector.
/// Allocating them per call is invisible for one search but dominates
/// steady-state batch workloads (millions of small joins); callers that
/// run many joins keep one `JoinScratch` per thread and the engine
/// performs no heap allocation after the buffers reach their
/// high-water marks.
#[derive(Debug, Default)]
pub struct JoinScratch {
    pub(crate) bind: Vec<Option<Sym>>,
    pub(crate) rows: Vec<u32>,
    /// Candidate buffers — one per depth for backtracking, one per atom
    /// for the acyclic executor (the code paths are disjoint).
    pub(crate) bufs: Vec<Vec<u32>>,
    /// Newly-bound-variable buffers, one per depth.
    pub(crate) newly: Vec<Vec<u32>>,
    /// Bound-constraint buffer.
    pub(crate) bound: Vec<(usize, Sym)>,
    /// Parent rows with distinct keys (the acyclic executor's probes).
    pub(crate) keys: Vec<u32>,
    /// Execution counters (see [`ExecStats`] for reset semantics).
    pub(crate) exec: ExecStats,
    /// Cooperative cancellation state (token + coalescing counter).
    pub(crate) cancel: CancelState,
}

impl JoinScratch {
    /// Fresh (empty) scratch space.
    pub fn new() -> JoinScratch {
        JoinScratch::default()
    }

    /// The execution counters accumulated by joins run with this
    /// scratch. Snapshot (clone) before a run and difference after to
    /// meter a single request.
    pub fn exec(&self) -> &ExecStats {
        &self.exec
    }

    /// Installs a [`CancelToken`] checked (at coalesced intervals) by
    /// every subsequent join run with this scratch. Replaces any
    /// previous token.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = CancelState {
            token: Some(token),
            pending: 0,
            fired: false,
        };
    }

    /// Removes the installed token, if any.
    pub fn clear_cancel(&mut self) {
        self.cancel = CancelState::default();
    }

    /// Whether the **latest** join run with this scratch was stopped by
    /// its cancel token. A cancelled run reports
    /// [`JoinOutcome::Stopped`] without a final emission, so its results
    /// are partial — callers must consult this before trusting a
    /// negative (no-solution) or aggregate answer.
    pub fn cancelled(&self) -> bool {
        self.cancel.fired
    }

    /// Sizes the buffers for `cq` and seeds the binding table from
    /// `pre` (variables past its end start unbound), keeping existing
    /// heap capacity.
    fn reset(&mut self, cq: &CompiledQuery, pre: &[Option<Sym>]) {
        self.bind.clear();
        self.bind.extend_from_slice(pre);
        self.bind.resize(cq.num_vars, None);
        let n = cq.atoms.len();
        self.rows.clear();
        self.rows.resize(n, 0);
        if self.bufs.len() < n {
            self.bufs.resize_with(n, Vec::new);
        }
        if self.newly.len() < n {
            self.newly.resize_with(n, Vec::new);
        }
        self.bound.clear();
        self.exec.atom_actual.clear();
        self.exec.atom_actual.resize(n, 0);
        self.cancel.begin_run();
    }
}

struct Search<'a, S: FactSource> {
    src: &'a S,
    cq: &'a CompiledQuery,
    /// The compile-time cost-based atom order the search follows.
    order: &'a [u32],
    scratch: &'a mut JoinScratch,
}

impl<S: FactSource> Search<'_, S> {
    fn solve(&mut self, depth: usize, emit: &mut EmitFn<'_>) -> bool {
        // A fired token unwinds the search exactly like an emit stop
        // (charging one unit per call also covers emit-heavy leaves).
        if self.scratch.cancel.charge(1) {
            return true;
        }
        if depth == self.cq.atoms.len() {
            self.scratch.exec.rows_emitted += 1;
            return emit(&self.scratch.bind, &self.scratch.rows);
        }
        let atom_idx = self.order[depth] as usize;
        let (rel, nslots) = {
            let a = &self.cq.atoms[atom_idx];
            (a.rel, a.slots.len())
        };

        // Index-intersection candidate generation over the bound slots.
        self.scratch.bound.clear();
        for col in 0..nslots {
            let sym = match self.cq.atoms[atom_idx].slots[col] {
                Slot::Const(s) => Some(s),
                Slot::Var(v) => self.scratch.bind[v as usize],
            };
            if let Some(s) = sym {
                self.scratch.bound.push((col, s));
            }
        }
        let mut buf = std::mem::take(&mut self.scratch.bufs[depth]);
        buf.clear();
        self.src.candidates(rel, &self.scratch.bound, &mut buf);
        self.scratch.exec.candidates_scanned += buf.len() as u64;
        self.scratch.exec.atom_actual[atom_idx] += buf.len() as u64;
        if self.scratch.cancel.charge(buf.len() as u64) {
            self.scratch.bufs[depth] = buf;
            return true;
        }

        let mut stopped = false;
        let mut newly = std::mem::take(&mut self.scratch.newly[depth]);
        'rows: for &row in &buf {
            // Bind the unbound slots from the row, verifying repeated
            // variables within the atom.
            newly.clear();
            for (col, slot) in self.cq.atoms[atom_idx].slots.iter().enumerate() {
                if let Slot::Var(v) = slot {
                    let sym = self.src.row_syms(rel, row)[col];
                    match self.scratch.bind[*v as usize] {
                        Some(b) if b == sym => {}
                        Some(_) => {
                            for &u in &newly {
                                self.scratch.bind[u as usize] = None;
                            }
                            self.scratch.exec.backtracks += 1;
                            continue 'rows;
                        }
                        None => {
                            self.scratch.bind[*v as usize] = Some(sym);
                            newly.push(*v);
                        }
                    }
                }
            }
            self.scratch.rows[atom_idx] = row;
            if self.solve(depth + 1, emit) {
                stopped = true;
                break;
            }
            for &u in &newly {
                self.scratch.bind[u as usize] = None;
            }
            self.scratch.exec.backtracks += 1;
        }
        // On a stop, bindings stay intact for the caller (witness
        // extraction); otherwise the row loop above unbound everything.
        self.scratch.newly[depth] = newly;
        self.scratch.bufs[depth] = buf;
        stopped
    }
}

/// Runs the join of `cq` over `src` with caller-owned scratch space.
///
/// `pre` seeds variable bindings (e.g. from a summary-row constraint);
/// its length must be `cq.num_vars`. For every total assignment the
/// engine calls `emit(bindings, rows)` — `rows[i]` is the source row the
/// `i`-th atom mapped onto. Returning `true` from `emit` stops the
/// search with [`JoinOutcome::Stopped`] and leaves that solution's
/// bindings observable in the callback; returning `false` keeps
/// enumerating. All working memory comes from (and returns to)
/// `scratch`, so a caller running many joins allocates nothing per call
/// once the buffers are warm.
///
/// Pre-bound searches backtrack along the plan's order, so compile them
/// with [`compile_probe`]; an eval plan's join forest only ever runs
/// with nothing bound.
pub fn join_with<S: FactSource>(
    src: &S,
    cq: &CompiledQuery,
    pre: &[Option<Sym>],
    scratch: &mut JoinScratch,
    mut emit: impl FnMut(&[Option<Sym>], &[u32]) -> bool,
) -> JoinOutcome {
    assert_eq!(pre.len(), cq.num_vars, "pre-binding length mismatch");
    scratch.reset(cq, pre);
    let prebound = pre.iter().any(Option::is_some);
    debug_assert!(
        !prebound || cq.acyclic.is_none(),
        "an acyclic eval plan run with pre-bound variables; compile the probe with compile_probe"
    );
    let forest = cq.acyclic.as_ref().filter(|_| !prebound);
    run(src, cq, forest, false, scratch, &mut emit)
}

/// The evaluator's entry point: a join with nothing bound, in
/// *distinct-witness* mode, for callers that only care about the
/// distinct bindings of the query's **head** variables (and deduplicate
/// emissions themselves).
///
/// For acyclic plans, subtrees whose head variables are all bound are
/// collapsed to one representative row, so e.g. a Boolean query costs a
/// semijoin reduction instead of a full cross-product enumeration. Every
/// emission is still a genuine solution (bindings + witness rows), and
/// every distinct head binding is emitted at least once — but solutions
/// differing only outside the head may be skipped. Cyclic plans fall
/// back to full enumeration.
pub fn join_unbound_distinct<S: FactSource>(
    src: &S,
    cq: &CompiledQuery,
    scratch: &mut JoinScratch,
    mut emit: impl FnMut(&[Option<Sym>], &[u32]) -> bool,
) -> JoinOutcome {
    scratch.reset(cq, &[]);
    run(src, cq, cq.acyclic.as_ref(), true, scratch, &mut emit)
}

/// The shared tail of both doors, over a scratch already reset: the
/// join forest when one may run, else the backtracking search.
fn run<S: FactSource>(
    src: &S,
    cq: &CompiledQuery,
    forest: Option<&AcyclicPlan>,
    distinct: bool,
    scratch: &mut JoinScratch,
    emit: &mut EmitFn<'_>,
) -> JoinOutcome {
    if let Some(plan) = forest {
        return acyclic::run(src, cq, plan, scratch, distinct, emit);
    }
    let mut search = Search {
        src,
        cq,
        order: &cq.order,
        scratch,
    };
    if search.solve(0, emit) {
        JoinOutcome::Stopped
    } else {
        JoinOutcome::Exhausted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ColumnIndex;
    use crate::sym::SymPool;
    use cqchase_ir::{parse_program, Catalog};

    /// A toy source: rows stored flat, indexed by `ColumnIndex`.
    struct Toy {
        pool: SymPool<Constant>,
        cols: ColumnIndex,
        rows: Vec<Vec<Vec<Sym>>>,
    }

    impl Toy {
        fn new(catalog: &Catalog, facts: &[(&str, &[i64])]) -> Toy {
            let mut pool = SymPool::new();
            let mut cols = ColumnIndex::new(catalog.rel_ids().map(|r| catalog.arity(r)));
            let mut rows = vec![Vec::new(); catalog.len()];
            for (name, vals) in facts {
                let rel = catalog.resolve(name).unwrap();
                let syms: Vec<Sym> = vals
                    .iter()
                    .map(|v| pool.intern(&Constant::int(*v)))
                    .collect();
                let id = rows[rel.index()].len() as u32;
                cols.insert_row(rel, id, &syms);
                rows[rel.index()].push(syms);
            }
            Toy { pool, cols, rows }
        }
    }

    impl FactSource for Toy {
        fn rel_size(&self, rel: RelId) -> usize {
            self.rows[rel.index()].len()
        }

        fn row_syms(&self, rel: RelId, row: u32) -> &[Sym] {
            &self.rows[rel.index()][row as usize]
        }

        fn posting_len(&self, rel: RelId, col: usize, sym: Sym) -> usize {
            self.cols.posting_len(rel, col, sym)
        }

        fn candidates(&self, rel: RelId, bound: &[(usize, Sym)], out: &mut Vec<u32>) {
            if bound.is_empty() {
                out.extend(0..self.rows[rel.index()].len() as u32);
            } else {
                self.cols
                    .candidates(rel, bound, |row| &self.rows[rel.index()][row as usize], out);
            }
        }

        fn sym_of_const(&self, c: &Constant) -> Option<Sym> {
            self.pool.get(c)
        }
    }

    fn count_solutions(src: &Toy, q: &ConjunctiveQuery) -> usize {
        let Some(cq) = compile(q, src) else { return 0 };
        let mut n = 0;
        let mut scratch = JoinScratch::new();
        join_with(src, &cq, &vec![None; cq.num_vars], &mut scratch, |_, _| {
            n += 1;
            false
        });
        n
    }

    #[test]
    fn joins_across_relations() {
        let p = parse_program("relation R(a, b). relation S(b, c). Q(x, z) :- R(x, y), S(y, z).")
            .unwrap();
        let src = Toy::new(
            &p.catalog,
            &[
                ("R", &[1, 2]),
                ("R", &[5, 6]),
                ("S", &[2, 3]),
                ("S", &[2, 4]),
            ],
        );
        assert_eq!(count_solutions(&src, &p.queries[0]), 2);
    }

    #[test]
    fn repeated_vars_and_constants() {
        let p = parse_program(
            "relation R(a, b).
             Qxx(x) :- R(x, x).
             Qc(x) :- R(x, 7).",
        )
        .unwrap();
        let src = Toy::new(
            &p.catalog,
            &[("R", &[1, 1]), ("R", &[1, 2]), ("R", &[3, 7])],
        );
        assert_eq!(count_solutions(&src, p.query("Qxx").unwrap()), 1);
        assert_eq!(count_solutions(&src, p.query("Qc").unwrap()), 1);
    }

    #[test]
    fn missing_constant_is_unsatisfiable() {
        let p = parse_program("relation R(a, b). Q(x) :- R(x, 99).").unwrap();
        let src = Toy::new(&p.catalog, &[("R", &[1, 2])]);
        assert_eq!(count_solutions(&src, &p.queries[0]), 0);
    }

    #[test]
    fn early_stop_keeps_bindings() {
        let p = parse_program("relation R(a, b). Q(x) :- R(x, y).").unwrap();
        let src = Toy::new(&p.catalog, &[("R", &[1, 2]), ("R", &[3, 4])]);
        let cq = compile(&p.queries[0], &src).unwrap();
        let mut seen: Option<Vec<Option<Sym>>> = None;
        let (unbound, mut scratch) = (vec![None; cq.num_vars], JoinScratch::new());
        let outcome = join_with(&src, &cq, &unbound, &mut scratch, |bind, rows| {
            assert_eq!(rows.len(), 1);
            seen = Some(bind.to_vec());
            true
        });
        assert_eq!(outcome, JoinOutcome::Stopped);
        let bind = seen.unwrap();
        assert!(bind.iter().all(Option::is_some));
    }

    #[test]
    fn pre_binding_restricts() {
        let p = parse_program("relation R(a, b). Q(x) :- R(x, y).").unwrap();
        let src = Toy::new(&p.catalog, &[("R", &[1, 2]), ("R", &[3, 4])]);
        let cq = compile_probe(&p.queries[0], &src).unwrap();
        // Bind x (VarId 0 — head var interned first) to the sym of 3.
        let x_sym = src.sym_of_const(&Constant::int(3)).unwrap();
        let mut pre = vec![None; cq.num_vars];
        pre[0] = Some(x_sym);
        let mut n = 0;
        join_with(&src, &cq, &pre, &mut JoinScratch::new(), |bind, _| {
            assert_eq!(bind[0], Some(x_sym));
            n += 1;
            false
        });
        assert_eq!(n, 1);
    }

    #[test]
    fn exec_counters_meter_the_search() {
        // Cyclic body → backtracking engine (the acyclic path is
        // metered via its own module's callers).
        let p = parse_program("relation R(a, b). Q(x) :- R(x, y), R(y, z), R(z, x).").unwrap();
        let facts: Vec<(&str, Vec<i64>)> =
            vec![("R", vec![0, 1]), ("R", vec![1, 2]), ("R", vec![2, 0])];
        let borrowed: Vec<(&str, &[i64])> = facts.iter().map(|(n, v)| (*n, v.as_slice())).collect();
        let src = Toy::new(&p.catalog, &borrowed);
        let cq = compile(&p.queries[0], &src).unwrap();
        assert!(cq.acyclic.is_none(), "triangle is cyclic");
        assert_eq!(cq.atom_est.len(), 3);
        assert!(cq.atom_est.iter().all(|&e| e > 0.0));
        let mut scratch = JoinScratch::new();
        let unbound = vec![None; cq.num_vars];
        let outcome = join_with(&src, &cq, &unbound, &mut scratch, |_, _| false);
        assert_eq!(outcome, JoinOutcome::Exhausted);
        let exec = scratch.exec().clone();
        // 3 triangle rotations found; every candidate row was scanned.
        assert_eq!(exec.rows_emitted, 3);
        assert!(exec.candidates_scanned >= 3);
        assert_eq!(exec.atom_actual.len(), 3);
        assert_eq!(
            exec.atom_actual.iter().sum::<u64>(),
            exec.candidates_scanned,
            "per-atom actuals partition the scan total"
        );
        // Scalars accumulate across runs; per-atom actuals reset.
        join_with(&src, &cq, &unbound, &mut scratch, |_, _| false);
        assert_eq!(scratch.exec().rows_emitted, 6);
        assert_eq!(
            scratch.exec().candidates_scanned,
            2 * exec.candidates_scanned
        );
        assert_eq!(scratch.exec().atom_actual, exec.atom_actual);
    }

    #[test]
    fn exec_counters_meter_the_acyclic_path() {
        let p = parse_program("relation R(a, b). Q(x, z) :- R(x, y), R(y, z).").unwrap();
        let facts: Vec<(&str, Vec<i64>)> = (0..4).map(|i| ("R", vec![i, i + 1])).collect();
        let borrowed: Vec<(&str, &[i64])> = facts.iter().map(|(n, v)| (*n, v.as_slice())).collect();
        let src = Toy::new(&p.catalog, &borrowed);
        let cq = compile(&p.queries[0], &src).unwrap();
        assert!(cq.acyclic.is_some(), "chain2 is acyclic");
        let mut scratch = JoinScratch::new();
        join_unbound_distinct(&src, &cq, &mut scratch, |_, _| false);
        let exec = scratch.exec();
        assert_eq!(exec.rows_emitted, 3, "three 2-step paths");
        assert_eq!(exec.semijoin_retain_passes, 1, "one non-root atom");
        assert_eq!(exec.atom_actual, vec![4, 4], "full scans pre-reduction");
    }

    #[test]
    fn acyclic_path_starts_at_the_cheapest_atom() {
        // `Sel`-shaped: a 4-row filter over a 10k-row chain. Rooted at W,
        // each R atom's candidates come from probes keyed by its parent,
        // so no atom scans more rows than W holds.
        let p =
            parse_program("relation W(a). relation R(a, b). Sel(x, z) :- W(x), R(x, y), R(y, z).")
                .unwrap();
        let mut facts: Vec<(&str, Vec<i64>)> = (0..10_000).map(|i| ("R", vec![i, i + 1])).collect();
        let watch = [3, 500, 9_998, 9_999];
        facts.extend(watch.iter().map(|&w| ("W", vec![w])));
        let borrowed: Vec<(&str, &[i64])> = facts.iter().map(|(n, v)| (*n, v.as_slice())).collect();
        let src = Toy::new(&p.catalog, &borrowed);
        let cq = compile(&p.queries[0], &src).unwrap();
        assert!(cq.acyclic.is_some());
        let answers = |cq: &CompiledQuery, scratch: &mut JoinScratch| {
            let mut rows: Vec<Vec<Option<Sym>>> = Vec::new();
            join_with(&src, cq, &vec![None; cq.num_vars], scratch, |bind, _| {
                rows.push(bind.to_vec());
                false
            });
            rows.sort();
            rows
        };
        let mut scratch = JoinScratch::new();
        let fast = answers(&cq, &mut scratch);
        assert!(
            scratch
                .exec()
                .atom_actual
                .iter()
                .all(|&n| n <= watch.len() as u64),
            "per-atom rows {:?} exceed |W| = {}",
            scratch.exec().atom_actual,
            watch.len()
        );
        let mut forced = cq.clone();
        forced.acyclic = None;
        let slow = answers(&forced, &mut JoinScratch::new());
        assert_eq!(fast, slow);
        assert_eq!(fast.len(), 3, "9_999 has a successor but no second step");
    }

    #[test]
    fn probe_plans_carry_no_forest() {
        let p = parse_program(
            "relation R(a, b).
             Q(x) :- R(x, y), R(y, z).
             B() :- R(x, y), R(y, z).",
        )
        .unwrap();
        let facts: Vec<(&str, Vec<i64>)> = (0..4).map(|i| ("R", vec![i, i + 1])).collect();
        let borrowed: Vec<(&str, &[i64])> = facts.iter().map(|(n, v)| (*n, v.as_slice())).collect();
        let src = Toy::new(&p.catalog, &borrowed);
        let q = p.query("Q").unwrap();
        let eval = compile(q, &src).unwrap();
        let probe = compile_probe(q, &src).unwrap();
        assert!(eval.acyclic.is_some(), "the eval plan keeps the forest");
        assert!(probe.acyclic.is_none(), "a head-bound probe never runs it");
        // The probe's order is the head-bound cost order: it starts at
        // the atom holding the bound head variable.
        assert_eq!(probe.order[0], 0);
        assert_eq!(probe.atom_est.len(), 2);
        // Pre-bound to 1, x starts exactly one 2-step path.
        let x = src.sym_of_const(&Constant::int(1)).unwrap();
        let mut pre = vec![None; probe.num_vars];
        pre[0] = Some(x);
        let mut n = 0;
        join_with(&src, &probe, &pre, &mut JoinScratch::new(), |_, _| {
            n += 1;
            false
        });
        assert_eq!(n, 1);
        // A query with no head variables is probed unbound, so its probe
        // plan is the full eval plan.
        let b = p.query("B").unwrap();
        let (eval_b, probe_b) = (compile(b, &src).unwrap(), compile_probe(b, &src).unwrap());
        assert!(probe_b.acyclic.is_some());
        assert_eq!(probe_b.order, eval_b.order);
    }

    #[test]
    fn chain_on_path_has_expected_solutions() {
        // A 6-node path (5 edges); a 3-chain fits at 3 start edges.
        let p = parse_program("relation R(a, b). Q(x) :- R(x, y), R(y, z), R(z, w).").unwrap();
        let facts: Vec<(&str, Vec<i64>)> = (0..5).map(|i| ("R", vec![i, i + 1])).collect();
        let borrowed: Vec<(&str, &[i64])> = facts.iter().map(|(n, v)| (*n, v.as_slice())).collect();
        let src = Toy::new(&p.catalog, &borrowed);
        assert_eq!(count_solutions(&src, &p.queries[0]), 3);
    }
}
