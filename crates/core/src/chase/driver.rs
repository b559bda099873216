//! The chase driver: deterministic scheduling of FD and IND rule
//! applications, exactly as the paper prescribes.
//!
//! > *The following sequence of two instructions is repeated until there
//! > are no more applicable (required) dependencies:*
//! >
//! > *(1) While there is an applicable FD, choose one as above and apply
//! > it.*
//! >
//! > *(2) If a number of conjuncts have applicable (required) INDs,
//! > choose the lexicographically first from among those such conjuncts
//! > having minimum level, and apply the lexicographically first
//! > applicable (required) IND to it.*
//!
//! "Lexicographically first conjunct" is realized as smallest conjunct id
//! (creation order), and "lexicographically first IND" as Σ declaration
//! order — fixed canonical choices in the spirit of the paper's
//! convention (Maier, Mendelzon & Sagiv show the result is unique up to
//! variable renaming regardless).
//!
//! The choice is made in creation order. A conjunct's level is fixed
//! when it is created (0, or its parent's level + 1), and the parent is
//! always the smallest pending `(level, id)`, so conjuncts are created
//! in nondecreasing level order and the paper's choice is simply the
//! first conjunct, by id, that still has work. A cursor walks the ids
//! to find it. Only an FD merge changes a level after creation, by
//! giving the survivor the smaller of the two. When that happens to a
//! conjunct ahead of the cursor (or, with FDs, a child is created below
//! the cursor's levels), every pending conjunct ahead of the cursor
//! moves to a small min-heap of `(level, id)` entries with lazy
//! deletion, and the cursor restarts after the last conjunct. Each step
//! takes the smaller of the cursor's conjunct and the heap's top. An
//! FD-free chase never touches the heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cqchase_index::CancelToken;
use cqchase_ir::{Catalog, ConjunctiveQuery, DependencySet, Fd, Ind};

use super::fd::fd_phase;
use super::ind::{apply_ind, record_cross};
use super::state::{ChaseState, ConjId, Merge};

/// Which chase discipline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaseMode {
    /// The **O-chase**: every IND is applied (once) to every conjunct it
    /// is applicable to, including redundant applications. The paper uses
    /// this when Σ consists of INDs only.
    Oblivious,
    /// The **R-chase**: an IND is applied to a conjunct only when
    /// *required* (no witnessing conjunct exists); redundancies become
    /// cross arcs. The paper uses this for key-based Σ.
    Required,
}

/// Resource limits for chase expansion. IND chases can be infinite, so
/// every driver entry point takes a budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaseBudget {
    /// Maximum number of scheduling steps (IND applications + witness
    /// skips) across the chase's lifetime.
    pub max_steps: usize,
    /// Maximum number of conjuncts ever created.
    pub max_conjuncts: usize,
}

/// Default cap on IND scheduling steps ([`ChaseBudget::max_steps`]).
///
/// Sized so a cyclic width-1 IND chase (one conjunct per level) can run
/// about a million levels deep before cutting off — far beyond any
/// Theorem 2 bound the test and experiment workloads produce, while
/// still bounding runaway Mixed-class chases to seconds, not hours.
/// Override per call site, or from the experiments CLI via
/// `--max-steps`.
pub const DEFAULT_MAX_STEPS: usize = 1_000_000;

/// Default cap on conjuncts ever created
/// ([`ChaseBudget::max_conjuncts`]).
///
/// Conjuncts dominate chase memory: interned rows, posting entries,
/// symbol provenance and scheduler state. Measured with a counting
/// allocator (requested bytes, x86-64) over the 216 O-chases of the
/// perfbench `check_deep` pool (INDs only) at level 56, a conjunct
/// holds 253 B. It held 343 B while each conjunct also kept its terms
/// as a vector of its own, and 567 B while every created symbol stored
/// a formatted name and every chase kept the FD rule's dedup and
/// occurrence indexes. So a quarter million caps a single chase at
/// about 65 MB (a chase whose Σ has FDs keeps those indexes and costs
/// more). Override per call site, or from the experiments CLI via
/// `--max-conjuncts`.
pub const DEFAULT_MAX_CONJUNCTS: usize = 250_000;

impl Default for ChaseBudget {
    fn default() -> Self {
        ChaseBudget {
            max_steps: DEFAULT_MAX_STEPS,
            max_conjuncts: DEFAULT_MAX_CONJUNCTS,
        }
    }
}

/// Why a driver call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaseStatus {
    /// No applicable (required) dependencies remain — the chase is finite
    /// and fully constructed.
    Complete,
    /// The FD rule failed on a constant clash: the chase is the *empty
    /// query* (contained in everything).
    Failed,
    /// The requested level was fully built; pending work remains beyond
    /// it.
    LevelReached,
    /// The budget ran out before the target condition was met.
    BudgetExhausted,
    /// The installed [`CancelToken`] fired (deadline or explicit
    /// cancellation). Like [`ChaseStatus::BudgetExhausted`], the state
    /// holds a consistent partial chase and expansion can resume.
    Cancelled,
}

/// A chase in progress (or finished). Construct with [`Chase::new`], grow
/// with [`Chase::run_to_completion`] or [`Chase::expand_to_level`],
/// inspect through [`Chase::state`].
#[derive(Debug)]
pub struct Chase {
    state: ChaseState,
    mode: ChaseMode,
    fds: Vec<Fd>,
    inds: Vec<Ind>,
    /// Indices of the INDs whose left-hand side is each relation
    /// (`RelId`-indexed), in Σ order.
    inds_by_rel: Vec<Vec<usize>>,
    /// Creation-order cursor. Every pending conjunct with id ≥ `cursor`
    /// is scheduled by the cursor: their keys are nondecreasing in id,
    /// so the first of them is their smallest `(level, id)`. The cursor
    /// skips conjuncts without work, so it rests on a pending conjunct
    /// or past the last keyed one.
    cursor: usize,
    /// The largest key given to a conjunct at or past `cursor` since the
    /// last [`Chase::spill`]: a new conjunct below it would break the
    /// cursor's order.
    cursor_level: u32,
    /// Min-heap of `(level, id)` entries for the pending conjuncts below
    /// `cursor`: those a [`Chase::spill`] handed over when a level
    /// changed after creation (or a new conjunct sorted below the
    /// cursor's levels), and any of them re-keyed since. Deletion is
    /// lazy: an entry is live while it matches `pending_key`, a key
    /// change pushes a new entry rather than moving the old one, and
    /// stale entries are popped as soon as they reach the top. The top
    /// is therefore always live, or the heap is empty.
    pending: BinaryHeap<Reverse<(u32, ConjId)>>,
    /// The level each conjunct is pending under (`ConjId`-indexed;
    /// [`NOT_PENDING`] when it has no work left) — the source of truth
    /// the cursor reads and `pending`'s entries are checked against.
    pending_key: Vec<u32>,
    /// Number of conjuncts whose `pending_key` is a level.
    live_pending: usize,
    /// Bitset of the INDs already handled for each conjunct: `stride`
    /// words per `ConjId`, bit `i` for the IND at Σ index `i`.
    applied: Vec<u64>,
    stride: usize,
    steps: usize,
    fd_steps: usize,
    /// Cooperative stop signal, consulted every [`CANCEL_CHECK_STEPS`]
    /// scheduling steps.
    cancel: Option<CancelToken>,
}

/// How many scheduling steps pass between two looks at the cancel token.
/// A deadline-armed token reads the clock, which costs about a tenth of
/// an IND step; 64 steps stay within tens of microseconds of the
/// deadline, as the join engines' [`CANCEL_CHECK_INTERVAL`] rows do.
///
/// [`CANCEL_CHECK_INTERVAL`]: cqchase_index::CANCEL_CHECK_INTERVAL
const CANCEL_CHECK_STEPS: usize = 64;

/// [`Chase::pending_key`] entry of a conjunct not in the pending set.
const NOT_PENDING: u32 = u32::MAX;

impl Chase {
    /// Initializes the chase: level-0 conjuncts from `q`, then the
    /// initial FD phase (instruction (1) run to quiescence).
    pub fn new(
        q: &ConjunctiveQuery,
        deps: &DependencySet,
        catalog: &Catalog,
        mode: ChaseMode,
    ) -> Chase {
        let fds: Vec<Fd> = deps.fds().cloned().collect();
        let inds: Vec<Ind> = deps.inds().cloned().collect();
        let mut state = ChaseState::from_query(q, catalog, !fds.is_empty());
        let mut inds_by_rel = vec![Vec::new(); catalog.len()];
        for (i, ind) in inds.iter().enumerate() {
            inds_by_rel[ind.lhs_rel.index()].push(i);
        }
        let stride = inds.len().div_ceil(64);
        let mut fd_steps = 0;
        if let Ok((n, _)) = fd_phase(&mut state, &fds, None) {
            fd_steps = n;
        }
        let mut chase = Chase {
            state,
            mode,
            fds,
            inds,
            inds_by_rel,
            cursor: 0,
            cursor_level: 0,
            pending: BinaryHeap::new(),
            pending_key: Vec::new(),
            live_pending: 0,
            applied: Vec::new(),
            stride,
            steps: 0,
            fd_steps,
            cancel: None,
        };
        if !chase.state.failed {
            for id in 0..chase.state.all_conjuncts().len() {
                chase.refresh_pending(ConjId(id as u32));
            }
        }
        chase
    }

    /// The chase mode.
    pub fn mode(&self) -> ChaseMode {
        self.mode
    }

    /// Installs (or replaces) a [`CancelToken`] consulted every 64
    /// scheduling steps — a fired token makes the driver return
    /// [`ChaseStatus::Cancelled`] between steps, never mid-step, so the
    /// partial chase stays consistent and expansion can resume after
    /// re-arming.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Whether the installed token (if any) has fired, asked only when
    /// the step count is a multiple of [`CANCEL_CHECK_STEPS`].
    fn cancel_fired(&self) -> bool {
        self.steps.is_multiple_of(CANCEL_CHECK_STEPS)
            && self.cancel.as_ref().is_some_and(CancelToken::should_stop)
    }

    /// Read access to the current (partial) chase.
    pub fn state(&self) -> &ChaseState {
        &self.state
    }

    /// Total IND scheduling steps taken so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Total FD rule applications so far.
    pub fn fd_steps(&self) -> usize {
        self.fd_steps
    }

    /// Whether the chase has terminated on its own (no pending work).
    pub fn is_complete(&self) -> bool {
        self.state.failed || self.live_pending == 0
    }

    /// The minimum level with unprocessed conjuncts: the level of the
    /// smaller of the cursor's conjunct and the heap's top. All
    /// conjuncts with level ≤ `frontier_level()` already exist; `None`
    /// means the chase is complete (every level of the finite chase is
    /// built).
    pub fn frontier_level(&self) -> Option<u32> {
        self.next_conjunct().map(|(l, _)| l)
    }

    /// The paper's next choice, as `(level, id)`: the smaller of the
    /// cursor's conjunct and the heap's top.
    fn next_conjunct(&self) -> Option<(u32, ConjId)> {
        let at_cursor = self
            .pending_key
            .get(self.cursor)
            .filter(|&&l| l != NOT_PENDING)
            .map(|&l| (l, ConjId(self.cursor as u32)));
        let top = self.pending.peek().map(|&Reverse(entry)| entry);
        at_cursor.into_iter().chain(top).min()
    }

    /// The words of `id`'s applied-IND bitset (empty if none is set yet).
    fn applied_words(&self, id: ConjId) -> &[u64] {
        let start = id.index() * self.stride;
        self.applied.get(start..start + self.stride).unwrap_or(&[])
    }

    /// Mutable words of `id`'s applied-IND bitset, growing the table.
    fn applied_words_mut(&mut self, id: ConjId) -> &mut [u64] {
        let start = id.index() * self.stride;
        if self.applied.len() < start + self.stride {
            self.applied.resize(start + self.stride, 0);
        }
        &mut self.applied[start..start + self.stride]
    }

    /// The INDs that apply to conjunct `id` and have not been handled
    /// yet, in Σ order.
    fn unprocessed_inds(&self, id: ConjId) -> impl Iterator<Item = usize> + '_ {
        let words = self.applied_words(id);
        self.inds_by_rel[self.state.conjunct(id).rel.index()]
            .iter()
            .copied()
            .filter(move |&i| words.get(i / 64).is_none_or(|w| w >> (i % 64) & 1 == 0))
    }

    fn refresh_pending(&mut self, id: ConjId) {
        let alive = self.state.conjunct(id).alive;
        let has_work = alive && self.unprocessed_inds(id).next().is_some();
        let level = self.state.conjunct(id).level;
        let old = self
            .pending_key
            .get(id.index())
            .copied()
            .unwrap_or(NOT_PENDING);
        let new = if has_work { level } else { NOT_PENDING };
        if old == new {
            return;
        }
        let i = id.index();
        if self.pending_key.len() <= i {
            self.pending_key.resize(i + 1, NOT_PENDING);
        }
        if i >= self.cursor && new != NOT_PENDING && (old != NOT_PENDING || new < self.cursor_level)
        {
            // A level changed after creation, or a new conjunct sorts
            // below the cursor's levels: the cursor's order no longer
            // holds, so its conjuncts move to the heap.
            debug_assert!(old != NOT_PENDING || i + 1 == self.pending_key.len());
            self.spill();
        }
        self.pending_key[i] = new;
        if old != NOT_PENDING {
            self.live_pending -= 1;
        }
        if new != NOT_PENDING {
            self.live_pending += 1;
            if i >= self.cursor {
                self.cursor_level = new;
            } else {
                self.pending.push(Reverse((new, id)));
            }
        }
        while self
            .pending_key
            .get(self.cursor)
            .is_some_and(|&l| l == NOT_PENDING)
        {
            self.cursor += 1;
        }
        self.pop_stale();
    }

    /// Hands every pending conjunct at or past the cursor to the heap,
    /// under its current key, and moves the cursor past the last
    /// conjunct created so far.
    fn spill(&mut self) {
        for (i, &l) in self.pending_key.iter().enumerate().skip(self.cursor) {
            if l != NOT_PENDING {
                self.pending.push(Reverse((l, ConjId(i as u32))));
            }
        }
        self.cursor = self.state.all_conjuncts().len();
        self.cursor_level = 0;
    }

    /// Pops stale entries (those no longer matching their conjunct's
    /// key) off the top of `pending`.
    fn pop_stale(&mut self) {
        while let Some(&Reverse((l, id))) = self.pending.peek() {
            if self.pending_key[id.index()] == l {
                break;
            }
            self.pending.pop();
        }
        debug_assert_eq!(self.next_conjunct().is_none(), self.live_pending == 0);
    }

    fn absorb_merges(&mut self, merges: &[Merge]) {
        for m in merges {
            // The survivor has identical terms, so anything witnessed for
            // the dead conjunct is witnessed for the survivor; in O-mode,
            // the merged conjunct *is* one conjunct, so "applied once"
            // transfers too.
            // Grow the table to cover both rows, then OR dead into survivor.
            self.applied_words_mut(m.dead.max(m.survivor));
            let (dead, survivor) = (m.dead.index(), m.survivor.index());
            for k in 0..self.stride {
                self.applied[survivor * self.stride + k] |= self.applied[dead * self.stride + k];
            }
            // A merge is the only thing that changes a level (the
            // survivor takes the minimum), so re-keying each merge's pair
            // re-keys every conjunct whose level moved, which sends it to
            // the heap.
            self.refresh_pending(m.dead);
            self.refresh_pending(m.survivor);
        }
    }

    /// Performs one scheduling step: instruction (2) once, followed by
    /// instruction (1) to quiescence. Returns `false` when the chase is
    /// complete or failed.
    pub(super) fn step_once(&mut self) -> bool {
        if self.state.failed {
            return false;
        }
        let Some((_, id)) = self.next_conjunct() else {
            return false;
        };
        let Some(ind_idx) = self.unprocessed_inds(id).next() else {
            self.refresh_pending(id);
            return !self.is_complete();
        };
        self.steps += 1;
        self.applied_words_mut(id)[ind_idx / 64] |= 1 << (ind_idx % 64);
        let witness = match self.mode {
            ChaseMode::Oblivious => {
                // The O-chase applies regardless; the only exception is an
                // IND covering every column of S, whose "new" conjunct is
                // term-identical to an existing one — conjunct sets don't
                // duplicate, so record the arc against the existing copy.
                let ind = &self.inds[ind_idx];
                if ind.rhs_cols.len() == self.state.catalog().arity(ind.rhs_rel) {
                    self.state.find_witness(ind, id)
                } else {
                    None
                }
            }
            ChaseMode::Required => self.state.find_witness(&self.inds[ind_idx], id),
        };
        match witness {
            Some(w) => {
                record_cross(&mut self.state, id, w, ind_idx);
            }
            None => {
                let child = apply_ind(&mut self.state, id, &self.inds[ind_idx], ind_idx);
                // Instruction (1): exhaust FDs, which only the new
                // conjunct can have triggered.
                if !self.fds.is_empty() {
                    match fd_phase(&mut self.state, &self.fds, Some(child)) {
                        Ok((n, merges)) => {
                            self.fd_steps += n;
                            self.absorb_merges(&merges);
                        }
                        Err(_) => {
                            return false;
                        }
                    }
                }
                if self.state.conjunct(child).alive {
                    self.refresh_pending(child);
                }
            }
        }
        self.refresh_pending(id);
        true
    }

    /// Runs until the chase completes or the budget is exhausted: an
    /// expansion with no level target.
    pub fn run_to_completion(&mut self, budget: ChaseBudget) -> ChaseStatus {
        self.expand_to_level(u32::MAX, budget)
    }

    /// Expands until every conjunct of level ≤ `level` exists (i.e. the
    /// frontier moved past `level − 1`), the chase completes, or the
    /// budget runs out.
    pub fn expand_to_level(&mut self, level: u32, budget: ChaseBudget) -> ChaseStatus {
        loop {
            if self.state.failed {
                return ChaseStatus::Failed;
            }
            match self.frontier_level() {
                None => return ChaseStatus::Complete,
                Some(f) if f >= level => return ChaseStatus::LevelReached,
                Some(_) => {}
            }
            if self.steps >= budget.max_steps
                || self.state.all_conjuncts().len() >= budget.max_conjuncts
            {
                return ChaseStatus::BudgetExhausted;
            }
            if self.cancel_fired() {
                return ChaseStatus::Cancelled;
            }
            self.step_once();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_ir::parse_program;

    fn chase_of(src: &str, mode: ChaseMode) -> Chase {
        let p = parse_program(src).unwrap();
        Chase::new(&p.queries[0], &p.deps, &p.catalog, mode)
    }

    #[test]
    fn acyclic_ind_chase_terminates() {
        let mut ch = chase_of(
            "relation EMP(eno, sal, dept). relation DEP(dno, loc).
             ind EMP[dept] <= DEP[dno].
             Q(e) :- EMP(e, s, d).",
            ChaseMode::Required,
        );
        let status = ch.run_to_completion(ChaseBudget::default());
        assert_eq!(status, ChaseStatus::Complete);
        assert!(ch.is_complete());
        // One new DEP conjunct at level 1.
        assert_eq!(ch.state().num_alive(), 2);
        assert_eq!(ch.state().level_histogram(), vec![1, 1]);
        assert_eq!(ch.steps(), 1);
    }

    #[test]
    fn required_application_skipped_when_witnessed() {
        let mut ch = chase_of(
            "relation EMP(eno, sal, dept). relation DEP(dno, loc).
             ind EMP[dept] <= DEP[dno].
             Q(e) :- EMP(e, s, d), DEP(d, l).",
            ChaseMode::Required,
        );
        let status = ch.run_to_completion(ChaseBudget::default());
        assert_eq!(status, ChaseStatus::Complete);
        // No new conjunct — the DEP atom already witnesses the IND.
        assert_eq!(ch.state().num_alive(), 2);
        // But the cross arc is recorded.
        assert_eq!(ch.state().arcs().len(), 1);
        assert_eq!(
            ch.state().arcs()[0].kind,
            super::super::state::ArcKind::Cross
        );
    }

    #[test]
    fn oblivious_applies_redundantly() {
        let mut ch = chase_of(
            "relation EMP(eno, sal, dept). relation DEP(dno, loc).
             ind EMP[dept] <= DEP[dno].
             Q(e) :- EMP(e, s, d), DEP(d, l).",
            ChaseMode::Oblivious,
        );
        let status = ch.run_to_completion(ChaseBudget::default());
        assert_eq!(status, ChaseStatus::Complete);
        // The O-chase adds DEP(d, n) even though DEP(d, l) exists.
        assert_eq!(ch.state().num_alive(), 3);
    }

    #[test]
    fn cyclic_ind_is_infinite() {
        let mut ch = chase_of(
            "relation R(a, b).
             ind R[2] <= R[1].
             Q(x) :- R(x, y).",
            ChaseMode::Required,
        );
        let status = ch.run_to_completion(ChaseBudget {
            max_steps: 100,
            max_conjuncts: 100,
        });
        assert_eq!(status, ChaseStatus::BudgetExhausted);
        assert!(!ch.is_complete());
        // Each level adds exactly one conjunct: R(x,y) → R(y,n1) → R(n1,n2)…
        let hist = ch.state().level_histogram();
        assert!(hist.iter().all(|&n| n == 1));
        assert!(hist.len() > 10);
    }

    #[test]
    fn expand_to_level_builds_exactly_enough() {
        let mut ch = chase_of(
            "relation R(a, b).
             ind R[2] <= R[1].
             Q(x) :- R(x, y).",
            ChaseMode::Required,
        );
        let status = ch.expand_to_level(5, ChaseBudget::default());
        assert_eq!(status, ChaseStatus::LevelReached);
        assert_eq!(ch.state().max_level(), Some(5));
        assert_eq!(ch.frontier_level(), Some(5));
        // Monotone growth: expanding further keeps earlier levels intact.
        let before: Vec<String> = ch
            .state()
            .alive_conjuncts()
            .map(|(id, _)| ch.state().render_conjunct(id))
            .collect();
        ch.expand_to_level(8, ChaseBudget::default());
        let after: Vec<String> = ch
            .state()
            .alive_conjuncts()
            .map(|(id, _)| ch.state().render_conjunct(id))
            .collect();
        assert_eq!(&after[..before.len()], &before[..]);
        assert_eq!(ch.state().max_level(), Some(8));
    }

    #[test]
    fn fd_failure_during_init() {
        let mut ch = chase_of(
            "relation R(a, b). fd R: a -> b.
             Q(x) :- R(x, 1), R(x, 2).",
            ChaseMode::Required,
        );
        assert!(ch.state().is_failed());
        assert_eq!(
            ch.run_to_completion(ChaseBudget::default()),
            ChaseStatus::Failed
        );
    }

    #[test]
    fn section4_sigma_rchase() {
        // Σ = {R:{2}→1, R[2]⊆R[1]} over Q1(x) :- R(x, y).
        // IND adds R(y, n1); FD (2→1 means col b determines col a) — the
        // new conjunct and nothing else share b-values, so no merge; the
        // chase keeps growing: infinite.
        let mut ch = chase_of(
            "relation R(a, b). fd R: b -> a. ind R[2] <= R[1].
             Q(x) :- R(x, y).",
            ChaseMode::Required,
        );
        let status = ch.run_to_completion(ChaseBudget {
            max_steps: 50,
            max_conjuncts: 50,
        });
        assert_eq!(status, ChaseStatus::BudgetExhausted);
    }

    #[test]
    fn fd_triggered_by_ind_merges() {
        // Key-based-violating mix where an IND child collides with an
        // existing conjunct via the FD: R(x,y) with IND R[1] ⊆ S[1] and
        // FD S: a -> b, plus an existing S(x, z): the created S(x, n)
        // merges with S(x, z) (n is an NDV created later, so z survives).
        let mut ch = chase_of(
            "relation R(a, b). relation S(a, b).
             fd S: a -> b. ind R[1] <= S[1].
             Q(x) :- R(x, y), S(x, z).",
            ChaseMode::Oblivious,
        );
        let status = ch.run_to_completion(ChaseBudget::default());
        assert_eq!(status, ChaseStatus::Complete);
        // The redundant O-chase child merged back into S(x, z).
        assert_eq!(ch.state().num_alive(), 2);
        assert!(ch.fd_steps() >= 1);
    }

    #[test]
    fn full_width_ind_oblivious_dedups_exact() {
        // IND covering all columns of S: the O-chase "new" conjunct is
        // term-identical to the witness; sets of conjuncts don't
        // duplicate.
        let mut ch = chase_of(
            "relation R(a, b). relation S(x, y).
             ind R[1, 2] <= S[1, 2].
             Q(x) :- R(x, y), S(x, y).",
            ChaseMode::Oblivious,
        );
        let status = ch.run_to_completion(ChaseBudget::default());
        assert_eq!(status, ChaseStatus::Complete);
        assert_eq!(ch.state().num_alive(), 2);
    }

    #[test]
    fn cancelled_chase_is_resumable() {
        let mut ch = chase_of(
            "relation R(a, b).
             ind R[2] <= R[1].
             Q(x) :- R(x, y).",
            ChaseMode::Required,
        );
        let token = CancelToken::unlimited();
        token.cancel();
        ch.set_cancel(token);
        assert_eq!(
            ch.run_to_completion(ChaseBudget::default()),
            ChaseStatus::Cancelled
        );
        // Re-arming with a live token resumes exactly where it stopped.
        ch.set_cancel(CancelToken::unlimited());
        let status = ch.expand_to_level(3, ChaseBudget::default());
        assert_eq!(status, ChaseStatus::LevelReached);
        assert_eq!(ch.frontier_level(), Some(3));
    }

    /// The paper's next choice, recomputed from scratch: the smallest
    /// `(level, id)` among live conjuncts with an unprocessed IND.
    fn paper_choice(ch: &Chase) -> Option<(u32, ConjId)> {
        if ch.state().is_failed() {
            return None;
        }
        ch.state()
            .alive_conjuncts()
            .filter(|&(id, _)| ch.unprocessed_inds(id).next().is_some())
            .map(|(id, c)| (c.level, id))
            .min()
    }

    /// Sets `id`'s level as a merge would and tells the scheduler.
    fn plant_level(ch: &mut Chase, id: ConjId, level: u32) {
        ch.state.conjuncts[id.index()].level = level;
        ch.refresh_pending(id);
    }

    /// Takes one step and asserts it processed the paper's choice: the
    /// step's arc leaves the smallest `(level, id)` with pending work.
    fn step_checked(ch: &mut Chase) -> bool {
        let want = paper_choice(ch);
        assert_eq!(ch.frontier_level(), want.map(|(l, _)| l), "stale frontier");
        assert_eq!(ch.is_complete(), want.is_none());
        let arcs = ch.state().arcs().len();
        let more = ch.step_once();
        if let Some((_, id)) = want {
            assert_eq!(ch.state().arcs().len(), arcs + 1, "one arc per step");
            assert_eq!(
                ch.state().arcs()[arcs].from,
                id,
                "step out of (level, id) order"
            );
        }
        more
    }

    #[test]
    fn merge_that_lowers_a_level_reorders_the_schedule() {
        // Key-based Σ under the O-chase: R(x, y)'s IND child S(y, n)
        // merges into S(y, z) through S's key. Creation order follows
        // levels, so the chase never puts a survivor above its absorbed
        // twin by itself; plant one by lifting S(y, z) to level 5. The
        // merge then lowers it to the child's level 1, ahead of the
        // level-2 and level-3 work it would otherwise follow.
        let p = parse_program(
            "relation R(a, b). relation S(a, b).
             fd R: a -> b. fd S: a -> b.
             ind R[2] <= S[1]. ind S[2] <= R[1].
             Q(x) :- R(x, y), S(y, z), R(u, v).",
        )
        .unwrap();
        assert!(matches!(
            crate::classify::classify(&p.deps, &p.catalog),
            crate::classify::SigmaClass::KeyBased { .. }
        ));
        let mut ch = Chase::new(&p.queries[0], &p.deps, &p.catalog, ChaseMode::Oblivious);
        plant_level(&mut ch, ConjId(1), 5);
        assert_eq!(ch.frontier_level(), Some(0));
        // R(x, y) goes first; its child merges into S(y, z).
        assert!(step_checked(&mut ch));
        assert_eq!(ch.state().arcs()[0].from, ConjId(0));
        assert!(!ch.state().conjunct(ch.state().arcs()[0].to).alive);
        assert_eq!(ch.state().conjunct(ConjId(1)).level, 1);
        assert_eq!(ch.pending_key[1], 1, "merge re-keyed the survivor");
        let mut steps = 1;
        while steps < 60 && step_checked(&mut ch) {
            steps += 1;
        }
        // The lowered survivor ran at level 1, before any level-2 work.
        let first_s = ch.state().arcs().iter().position(|a| a.from == ConjId(1));
        let first_l2 = ch
            .state()
            .arcs()
            .iter()
            .position(|a| ch.state().conjunct(a.from).level >= 2);
        assert!(first_s < first_l2, "{first_s:?} vs {first_l2:?}");
    }

    #[test]
    fn key_changed_and_changed_back_is_processed_once() {
        let mut ch = chase_of(
            "relation R(a). relation S(a). relation T(a).
             ind R[1] <= T[1]. ind S[1] <= T[1].
             Q(x) :- R(x), S(y).",
            ChaseMode::Required,
        );
        // S(y)'s entry goes stale below R(x)'s live top, then its key
        // returns: the heap holds two matching entries for one conjunct.
        plant_level(&mut ch, ConjId(1), 3);
        plant_level(&mut ch, ConjId(1), 0);
        let entries = ch
            .pending
            .iter()
            .filter(|&&Reverse(e)| e == (0, ConjId(1)))
            .count();
        assert_eq!(entries, 2);
        assert_eq!(ch.live_pending, 2);
        while step_checked(&mut ch) {}
        assert_eq!(
            ch.run_to_completion(ChaseBudget::default()),
            ChaseStatus::Complete
        );
        assert_eq!(ch.steps(), 2);
        let from_s = ch
            .state()
            .arcs()
            .iter()
            .filter(|a| a.from == ConjId(1))
            .count();
        assert_eq!(from_s, 1, "S(y)'s IND applied once");
        assert!(ch.pending.is_empty());
        assert_eq!(ch.frontier_level(), None);
    }

    fn random_body() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        proptest::collection::vec((any::<bool>(), 0u32..4, 0u32..4), 1..6).prop_map(|atoms| {
            atoms
                .iter()
                .enumerate()
                // The first atom holds the head variable v0.
                .map(|(i, &(s, x, y))| {
                    let x = if i == 0 { 0 } else { x };
                    format!("{}(v{x}, v{y})", if s { "S" } else { "R" })
                })
                .collect::<Vec<_>>()
                .join(", ")
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Under planted level changes (some lowering, some raising,
        /// some back and forth) on key-based and INDs-only Σ in both
        /// modes, every step processes the smallest live `(level, id)`
        /// and `frontier_level` never reports a stale level.
        #[test]
        fn heap_schedule_matches_a_rescan(
            body in random_body(),
            plants in proptest::collection::vec((proptest::prelude::any::<bool>(), 0u32..8, 0u32..4), 40),
        ) {
            for sigma in [
                "fd R: a -> b. fd S: a -> b. ind R[2] <= S[1]. ind S[2] <= R[1].",
                "ind R[2] <= S[1]. ind S[2] <= R[1]. ind R[1] <= R[2].",
            ] {
                let p = parse_program(&format!(
                    "relation R(a, b). relation S(a, b). {sigma} Q(v0) :- {body}."
                ))
                .unwrap();
                for mode in [ChaseMode::Required, ChaseMode::Oblivious] {
                    let mut ch = Chase::new(&p.queries[0], &p.deps, &p.catalog, mode);
                    for &(plant, id, level) in &plants {
                        let n = ch.state().all_conjuncts().len() as u32;
                        if plant && n > 0 {
                            plant_level(&mut ch, ConjId(id % n), level);
                        }
                        if !step_checked(&mut ch) {
                            break;
                        }
                    }
                }
            }
        }

        /// Without FDs nothing changes a level after creation: after
        /// every step the levels are nondecreasing in `ConjId` order,
        /// `frontier_level` equals a rescan, and the heap has never held
        /// an entry (it has allocated nothing).
        #[test]
        fn fd_free_chase_runs_in_creation_order(body in random_body()) {
            for sigma in [
                "ind R[2] <= S[1]. ind S[2] <= R[1]. ind R[1] <= R[2].",
                "ind R[1, 2] <= S[2, 1]. ind S[1] <= R[2].",
            ] {
                let p = parse_program(&format!(
                    "relation R(a, b). relation S(a, b). {sigma} Q(v0) :- {body}."
                ))
                .unwrap();
                for mode in [ChaseMode::Required, ChaseMode::Oblivious] {
                    let mut ch = Chase::new(&p.queries[0], &p.deps, &p.catalog, mode);
                    for _ in 0..60 {
                        let more = step_checked(&mut ch);
                        let levels: Vec<u32> =
                            ch.state().all_conjuncts().iter().map(|c| c.level).collect();
                        proptest::prop_assert!(
                            levels.windows(2).all(|w| w[0] <= w[1]),
                            "levels out of creation order: {levels:?}"
                        );
                        proptest::prop_assert_eq!(
                            ch.frontier_level(),
                            paper_choice(&ch).map(|(l, _)| l)
                        );
                        proptest::prop_assert_eq!(ch.pending.capacity(), 0);
                        if !more {
                            break;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fired_token_is_noticed_within_one_check_interval() {
        let mut ch = chase_of(
            "relation R(a, b).
             ind R[2] <= R[1].
             Q(x) :- R(x, y).",
            ChaseMode::Required,
        );
        ch.expand_to_level(10, ChaseBudget::default());
        assert_eq!(ch.steps(), 10);
        let token = CancelToken::unlimited();
        token.cancel();
        ch.set_cancel(token);
        // Steps 10..64 run on; the look at step 64 stops the chase.
        assert_eq!(
            ch.run_to_completion(ChaseBudget::default()),
            ChaseStatus::Cancelled
        );
        assert_eq!(ch.steps(), CANCEL_CHECK_STEPS);
    }

    #[test]
    fn levels_follow_parents() {
        let mut ch = chase_of(
            "relation R(a). relation S(a). relation T(a).
             ind R[1] <= S[1]. ind S[1] <= T[1].
             Q(x) :- R(x).",
            ChaseMode::Required,
        );
        ch.run_to_completion(ChaseBudget::default());
        assert_eq!(ch.state().level_histogram(), vec![1, 1, 1]);
        // S child at level 1, T grandchild at level 2.
        let levels: Vec<u32> = ch.state().alive_conjuncts().map(|(_, c)| c.level).collect();
        assert_eq!(levels, vec![0, 1, 2]);
    }
}
