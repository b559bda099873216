//! Deciding `Σ ⊨ Q ⊆∞ Q′` — the paper's Theorems 1 and 2 made effective.
//!
//! **Theorem 1.** `Σ ⊨ Q ⊆∞ Q′` iff there is a query homomorphism from
//! `Q′` to `chase_Σ(Q)` (O- or R-chase). The chase may be infinite, so
//! this alone is only semi-decidable.
//!
//! **Theorem 2.** When Σ consists of INDs only, or is key-based, a
//! witness homomorphism (if any) lands within chase level
//! `|Q′| · |Σ| · (W+1)^W`. We therefore expand the chase level by level
//! (iterative deepening, searching the levels `searched_at` picks and
//! always the bound) and declare non-containment once the bound is
//! fully explored.
//!
//! For Σ = ∅ this degenerates to the Chandra–Merlin homomorphism test;
//! for FDs-only, to the classical finite chase of Aho–Sagiv–Ullman /
//! Maier–Mendelzon–Sagiv. For mixed non-key-based sets (open in the
//! paper; the inference problem is undecidable, Mitchell 1983) the engine
//! is a sound *semi-decision*: positive answers are exact, negative
//! answers within a finite budget are flagged `exact = false`.

use cqchase_index::{CancelToken, FxHashMap};
use cqchase_ir::{validate, Catalog, ConjunctiveQuery, DependencySet, IrError};

use crate::chase::{theorem2_bound, Chase, ChaseBudget, ChaseMode, ChaseStatus};
use crate::classify::{classify, SigmaClass};
use crate::hom::{ChaseHomFinder, Homomorphism};

/// Options for one containment test.
#[derive(Debug, Clone, Copy)]
pub struct ContainmentOptions {
    /// Chase discipline override (`None`: the paper's choice for the
    /// class, [`SigmaClass::preferred_mode`] — O-chase for INDs-only,
    /// R-chase otherwise).
    ///
    /// Forcing the R-chase on INDs-only Σ gives the same answers, and
    /// its negatives are certified under the same Theorem 2 bound. The
    /// chase expands conjuncts in `(level, id)` order, so when the R-chase
    /// skips an application to a level-`L` conjunct, the witness already
    /// exists at level at most `L + 1`. By induction every level-`k`
    /// O-chase conjunct maps to an R-chase conjunct of level at most
    /// `k`, and the R-chase is a sub-instance of the O-chase up to
    /// renaming. So `Q′` maps into levels `≤ k` of one chase iff it maps
    /// into levels `≤ k` of the other, and the R-chase gets there with
    /// far fewer conjuncts.
    pub mode: Option<ChaseMode>,
    /// Chase resource limits.
    ///
    /// The default is deliberately smaller than [`ChaseBudget::default`]:
    /// the containment loop performs a homomorphism search per chase
    /// level, so unbounded Mixed-class chases (which grow forever) must
    /// cut off after a few thousand steps rather than a million. Raise it
    /// explicitly for deep certified instances.
    pub budget: ChaseBudget,
}

/// Default step cap for containment-driven chases. Each level of an
/// unbounded Mixed-class chase triggers a homomorphism search, so this
/// is orders of magnitude below
/// [`DEFAULT_MAX_STEPS`](crate::chase::DEFAULT_MAX_STEPS).
pub const CONTAINMENT_MAX_STEPS: usize = 4_000;

/// Default conjunct cap for containment-driven chases (the hom-search
/// target's size; see [`CONTAINMENT_MAX_STEPS`]).
pub const CONTAINMENT_MAX_CONJUNCTS: usize = 20_000;

impl Default for ContainmentOptions {
    fn default() -> Self {
        ContainmentOptions {
            mode: None,
            budget: ChaseBudget {
                max_steps: CONTAINMENT_MAX_STEPS,
                max_conjuncts: CONTAINMENT_MAX_CONJUNCTS,
            },
        }
    }
}

/// The outcome of a containment test.
#[derive(Debug, Clone)]
pub struct ContainmentAnswer {
    /// Whether `Σ ⊨ Q ⊆∞ Q′` (see `exact` for the caveat).
    pub contained: bool,
    /// `true` when the answer is certified: positives always are;
    /// negatives are certified when the class admits the Theorem 2 bound
    /// and it was fully explored (or the chase completed). A `false` here
    /// only happens for [`SigmaClass::Mixed`] negatives cut off by the
    /// budget.
    pub exact: bool,
    /// The witness homomorphism `Q′ → chase_Σ(Q)` for positive answers.
    /// `None` for positives that hold vacuously (the chase failed on an
    /// FD constant clash, so `Q` is empty on every Σ-database).
    pub witness: Option<Homomorphism>,
    /// Whether the chase failed (vacuous containment).
    pub empty_chase: bool,
    /// The classification that selected the procedure.
    pub class: SigmaClass,
    /// The Theorem 2 level bound used (0 when not applicable).
    pub bound: u32,
    /// The level the loop last expanded the chase to: the argument of
    /// its final [`Chase::expand_to_level`] call. A chase that completed
    /// or ran out of budget may stop short of it, and an FD merge can
    /// lower the chase's own deepest level below it. Calling
    /// `expand_to_level(levels_explored, budget)` on a fresh chase of
    /// `Q` in the same mode, under the same budget, rebuilds the chase
    /// this answer was read from, so the witness's conjunct ids name
    /// conjuncts of that chase.
    pub levels_explored: u32,
    /// Live conjuncts in the final (partial) chase.
    pub chase_conjuncts: usize,
    /// IND scheduling steps taken by the chase.
    pub chase_steps: usize,
}

/// Ways a containment test can fail to produce an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainmentEngineError {
    /// Malformed input (e.g. output arity mismatch).
    Ir(IrError),
    /// A certified class ran out of budget before exploring the bound —
    /// raise [`ContainmentOptions::budget`] to decide this instance.
    BudgetExhausted {
        /// The Theorem 2 bound that had to be explored.
        bound: u32,
        /// The level the loop was expanding the chase to when the
        /// budget ran out (see [`ContainmentAnswer::levels_explored`]).
        levels_explored: u32,
        /// Chase size when the budget ran out.
        chase_conjuncts: usize,
    },
    /// The request's [`CancelToken`] fired (deadline exceeded or
    /// explicit cancellation) before an answer was reached. Carries
    /// partial-progress counters; no partial answer is produced and no
    /// shared state is corrupted.
    Cancelled {
        /// The level the loop was expanding or searching when it
        /// stopped (see [`ContainmentAnswer::levels_explored`]).
        levels_explored: u32,
        /// Chase size at the stop.
        chase_conjuncts: usize,
        /// IND scheduling steps taken before the stop.
        chase_steps: usize,
    },
}

impl std::fmt::Display for ContainmentEngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainmentEngineError::Ir(e) => write!(f, "invalid input: {e}"),
            ContainmentEngineError::BudgetExhausted {
                bound,
                levels_explored,
                chase_conjuncts,
            } => write!(
                f,
                "chase budget exhausted at level {levels_explored} of {bound} ({chase_conjuncts} conjuncts)"
            ),
            ContainmentEngineError::Cancelled {
                levels_explored,
                chase_conjuncts,
                chase_steps,
            } => write!(
                f,
                "cancelled at level {levels_explored} ({chase_conjuncts} conjuncts, {chase_steps} steps)"
            ),
        }
    }
}

impl std::error::Error for ContainmentEngineError {}

impl From<IrError> for ContainmentEngineError {
    fn from(e: IrError) -> Self {
        ContainmentEngineError::Ir(e)
    }
}

/// Whether the containment loop searches the chase cut at `level`
/// (the bound is always searched). Every level up to 32 is searched,
/// so a shallow positive returns at the first level that holds it; past
/// 32 only every 8th level is. Each search re-joins `Q′` against all
/// levels ≤ `level`, so searching every level costs more where chases
/// run deep: on the branching IND sets of `bench_containment.rs`,
/// answered checks under width-2 sets of 3 and 4 INDs read 6–8%
/// slower per call with every level searched (see ROADMAP).
fn searched_at(level: u32, bound: u32) -> bool {
    level <= 32 || level.is_multiple_of(8) || level >= bound
}

/// Tests `Σ ⊨ Q ⊆∞ Q′`.
///
/// See the module docs for the per-class algorithm and the meaning of
/// [`ContainmentAnswer::exact`]. To run a test under a [`CancelToken`],
/// pass it as a one-pair [`check_batch`].
///
/// ```
/// use cqchase_core::{contained, ContainmentOptions};
/// use cqchase_ir::parse_program;
///
/// let p = parse_program(
///     "relation EMP(eno, sal, dept).
///      relation DEP(dno, loc).
///      ind EMP[dept] <= DEP[dno].
///      Q1(e) :- EMP(e, s, d), DEP(d, l).
///      Q2(e) :- EMP(e, s, d).",
/// ).unwrap();
/// let ans = contained(
///     p.query("Q2").unwrap(), p.query("Q1").unwrap(),
///     &p.deps, &p.catalog, &ContainmentOptions::default(),
/// ).unwrap();
/// assert!(ans.contained && ans.exact);
/// ```
pub fn contained(
    q: &ConjunctiveQuery,
    q_prime: &ConjunctiveQuery,
    sigma: &DependencySet,
    catalog: &Catalog,
    opts: &ContainmentOptions,
) -> Result<ContainmentAnswer, ContainmentEngineError> {
    validate::validate_comparable(q, q_prime)?;
    let class = classify(sigma, catalog);
    let mode = opts.mode.unwrap_or_else(|| class.preferred_mode());
    let mut chase = Chase::new(q, sigma, catalog, mode);
    let unlimited = CancelToken::unlimited();
    contained_against(&mut chase, q_prime, sigma, class, opts, &unlimited)
}

/// The containment loop against an already-initialized (possibly
/// already-expanded) chase of `Q`. Factored out of [`contained`] so the
/// batch engine can run several `Q′` against one shared chase.
///
/// The chase may be an O-chase or an R-chase: a negative is certified
/// either way once the Theorem 2 bound is explored (see
/// [`ContainmentOptions::mode`]).
fn contained_against(
    chase: &mut Chase,
    q_prime: &ConjunctiveQuery,
    sigma: &DependencySet,
    class: SigmaClass,
    opts: &ContainmentOptions,
    cancel: &CancelToken,
) -> Result<ContainmentAnswer, ContainmentEngineError> {
    let certified = class.bound_is_certified();
    let bound = match class {
        SigmaClass::Empty | SigmaClass::FdsOnly => 0,
        _ if certified => theorem2_bound(q_prime, sigma),
        _ => u32::MAX,
    };

    let answer = |contained, exact, witness: Option<Homomorphism>, chase: &Chase, level| {
        ContainmentAnswer {
            contained,
            exact,
            // Only a failed chase proves containment without a witness.
            empty_chase: contained && witness.is_none(),
            witness,
            class: class.clone(),
            bound,
            levels_explored: level,
            chase_conjuncts: chase.state().num_alive(),
            chase_steps: chase.steps(),
        }
    };
    let cancelled = |chase: &Chase, level| ContainmentEngineError::Cancelled {
        levels_explored: level,
        chase_conjuncts: chase.state().num_alive(),
        chase_steps: chase.steps(),
    };

    // Thread the stop signal into both halves of the loop. On a shared
    // chase (batch mode) this replaces the previous pair's token, so a
    // cancelled pair never poisons its successors. One finder serves
    // the whole loop and reuses its join scratch across searches.
    chase.set_cancel(cancel.clone());
    let mut finder = ChaseHomFinder::new(q_prime);
    finder.set_cancel(cancel.clone());

    // Iterative deepening over levels 0, 1, …, bound. Each iteration
    // maps the chase status to at most one cut to search (a level that
    // `searched_at` picks, or the whole chase once it stops growing),
    // runs that one search, and only then decides a negative.
    let mut level: u32 = 0;
    loop {
        let status = chase.expand_to_level(level, opts.budget);
        let cut = match status {
            // Q is unsatisfiable w.r.t. Σ: contained in everything.
            ChaseStatus::Failed => return Ok(answer(true, true, None, chase, level)),
            ChaseStatus::Cancelled => return Err(cancelled(chase, level)),
            ChaseStatus::LevelReached => searched_at(level, bound).then_some(level),
            // A finite chase, or one last look at what the budget built.
            ChaseStatus::Complete | ChaseStatus::BudgetExhausted => Some(u32::MAX),
        };
        if let Some(cut) = cut {
            let h = finder.find(chase.state(), cut);
            if h.is_some() {
                return Ok(answer(true, true, h, chase, level));
            }
            // A cut-short probe must not count as "no hom in this cut".
            if finder.cancelled() {
                return Err(cancelled(chase, level));
            }
        }
        match status {
            // Finite chase: Theorem 1 decides outright.
            ChaseStatus::Complete => return Ok(answer(false, true, None, chase, level)),
            ChaseStatus::BudgetExhausted if certified => {
                return Err(ContainmentEngineError::BudgetExhausted {
                    bound,
                    levels_explored: level,
                    chase_conjuncts: chase.state().num_alive(),
                });
            }
            // Mixed semi-decision: inconclusive negative.
            ChaseStatus::BudgetExhausted => return Ok(answer(false, false, None, chase, level)),
            // Bound fully explored without a witness.
            _ if level >= bound => return Ok(answer(false, certified, None, chase, level)),
            _ => level += 1,
        }
    }
}

/// One containment test of a batch: indices into the batch's query
/// slice, `Σ ⊨ queries[q] ⊆∞ queries[q_prime]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContainmentPair {
    /// Index of the contained-side query `Q`.
    pub q: usize,
    /// Index of the containing-side query `Q′`.
    pub q_prime: usize,
}

/// An item of a [`check_batch`]: a [`ContainmentPair`] alone (run to
/// completion) or paired with the [`CancelToken`] its test runs under.
pub trait BatchPair {
    /// The query indices to test.
    fn pair(&self) -> ContainmentPair;

    /// The stop signal for this pair; `None` runs it to completion.
    fn cancel(&self) -> Option<&CancelToken> {
        None
    }
}

impl BatchPair for ContainmentPair {
    fn pair(&self) -> ContainmentPair {
        *self
    }
}

impl BatchPair for (ContainmentPair, CancelToken) {
    fn pair(&self) -> ContainmentPair {
        self.0
    }

    fn cancel(&self) -> Option<&CancelToken> {
        Some(&self.1)
    }
}

impl<P: BatchPair + ?Sized> BatchPair for &P {
    fn pair(&self) -> ContainmentPair {
        (**self).pair()
    }

    fn cancel(&self) -> Option<&CancelToken> {
        (**self).cancel()
    }
}

/// Tests a batch of containments over one dependency set, sequentially.
///
/// Semantically this is exactly `pairs.map(|p| contained(..))` — the
/// differential property tests hold the batch engine to that — but the
/// batch layout lets shared work be shared:
///
/// * pairs with the same left query reuse one chase when Σ has only one
///   kind of dependency (INDs-only / FDs-only / empty — the common
///   classes). Such chases grow monotonically (no FD merge can restage
///   IND-created conjuncts or vice versa), so a deeper-than-needed chase
///   presents level-for-level identical views to every `Q′`;
/// * each containment run keeps one [`ChaseHomFinder`] for its `Q′`,
///   which reuses its plan and join scratch across levels.
///
/// When Σ mixes FDs and INDs, each pair gets a fresh chase: later FD
/// merges can reshape low levels, so view equality across pairs would
/// not be exact. Answers agree with [`contained`] in every decision
/// field (`contained`, `exact`, `empty_chase`, `class`, `bound`, and
/// witness *existence*). The witness itself is a certificate, not a
/// canonical value: a shared chase that already completed is searched
/// whole where a fresh chase is searched level by level, so the two
/// runs can return different (equally valid) homomorphisms. The
/// chase-size diagnostics (`levels_explored`, `chase_conjuncts`,
/// `chase_steps`) likewise describe the possibly-shared chase.
///
/// A pair carrying a fired [`CancelToken`] answers
/// [`ContainmentEngineError::Cancelled`] without disturbing the rest of
/// the batch: on a shared chase the stop lands between scheduling
/// steps, leaving a consistent partial chase that the next pair's token
/// re-arms and resumes.
///
/// This is the sequential reference engine; `cqchase-par` runs the same
/// computation across worker threads.
pub fn check_batch<P: BatchPair>(
    queries: &[ConjunctiveQuery],
    pairs: &[P],
    sigma: &DependencySet,
    catalog: &Catalog,
    opts: &ContainmentOptions,
) -> Vec<Result<ContainmentAnswer, ContainmentEngineError>> {
    let class = classify(sigma, catalog);
    let mode = opts.mode.unwrap_or_else(|| class.preferred_mode());
    let share_chases = sigma.fds().next().is_none() || sigma.inds().next().is_none();
    let mut chases: FxHashMap<usize, Chase> = FxHashMap::default();
    let unlimited = CancelToken::unlimited();
    pairs
        .iter()
        .map(|item| {
            let ContainmentPair { q: qi, q_prime } = item.pair();
            let cancel = item.cancel().unwrap_or(&unlimited);
            let (q, qp) = (&queries[qi], &queries[q_prime]);
            validate::validate_comparable(q, qp)?;
            if share_chases {
                let chase = chases
                    .entry(qi)
                    .or_insert_with(|| Chase::new(q, sigma, catalog, mode));
                contained_against(chase, qp, sigma, class.clone(), opts, cancel)
            } else {
                let mut chase = Chase::new(q, sigma, catalog, mode);
                contained_against(&mut chase, qp, sigma, class.clone(), opts, cancel)
            }
        })
        .collect()
}

/// The outcome of an equivalence test: both containment answers.
#[derive(Debug, Clone)]
pub struct EquivalenceAnswer {
    /// `Σ ⊨ Q ⊆∞ Q′`.
    pub forward: ContainmentAnswer,
    /// `Σ ⊨ Q′ ⊆∞ Q` (only computed when `forward` holds; otherwise a
    /// copy of the failed direction is *not* present and this is `None`).
    pub backward: Option<ContainmentAnswer>,
}

impl EquivalenceAnswer {
    /// Whether the queries are equivalent under Σ.
    pub fn equivalent(&self) -> bool {
        self.forward.contained && self.backward.as_ref().map(|b| b.contained).unwrap_or(false)
    }

    /// Whether both directions are certified.
    pub fn exact(&self) -> bool {
        self.forward.exact && self.backward.as_ref().map(|b| b.exact).unwrap_or(true)
    }
}

/// Tests `Σ ⊨ Q ≡∞ Q′` (both containments; the second is skipped if the
/// first already fails).
pub fn equivalent(
    q: &ConjunctiveQuery,
    q_prime: &ConjunctiveQuery,
    sigma: &DependencySet,
    catalog: &Catalog,
    opts: &ContainmentOptions,
) -> Result<EquivalenceAnswer, ContainmentEngineError> {
    let forward = contained(q, q_prime, sigma, catalog, opts)?;
    if !forward.contained {
        return Ok(EquivalenceAnswer {
            forward,
            backward: None,
        });
    }
    let backward = contained(q_prime, q, sigma, catalog, opts)?;
    Ok(EquivalenceAnswer {
        forward,
        backward: Some(backward),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_ir::parse_program;

    fn test_contained(src: &str, q: &str, qp: &str) -> ContainmentAnswer {
        let p = parse_program(src).unwrap();
        contained(
            p.query(q).unwrap(),
            p.query(qp).unwrap(),
            &p.deps,
            &p.catalog,
            &ContainmentOptions::default(),
        )
        .unwrap()
    }

    const INTRO: &str = "
        relation EMP(eno, sal, dept). relation DEP(dno, loc).
        ind EMP[dept] <= DEP[dno].
        Q1(e) :- EMP(e, s, d), DEP(d, l).
        Q2(e) :- EMP(e, s, d).
    ";

    #[test]
    fn intro_example_equivalence_under_ind() {
        // With the IND, Q2 ⊆ Q1 (the chase supplies the DEP conjunct) and
        // Q1 ⊆ Q2 trivially — the paper's opening example.
        let fwd = test_contained(INTRO, "Q2", "Q1");
        assert!(fwd.contained && fwd.exact);
        assert!(fwd.witness.is_some());
        let bwd = test_contained(INTRO, "Q1", "Q2");
        assert!(bwd.contained && bwd.exact);
    }

    #[test]
    fn intro_example_fails_without_ind() {
        let src = "
            relation EMP(eno, sal, dept). relation DEP(dno, loc).
            Q1(e) :- EMP(e, s, d), DEP(d, l).
            Q2(e) :- EMP(e, s, d).
        ";
        let fwd = test_contained(src, "Q2", "Q1");
        assert!(!fwd.contained);
        assert!(fwd.exact);
        assert_eq!(fwd.class, SigmaClass::Empty);
        let bwd = test_contained(src, "Q1", "Q2");
        assert!(bwd.contained);
    }

    #[test]
    fn equivalence_wrapper() {
        let p = parse_program(INTRO).unwrap();
        let eq = equivalent(
            p.query("Q1").unwrap(),
            p.query("Q2").unwrap(),
            &p.deps,
            &p.catalog,
            &ContainmentOptions::default(),
        )
        .unwrap();
        assert!(eq.equivalent());
        assert!(eq.exact());
    }

    #[test]
    fn chandra_merlin_no_deps() {
        let a = test_contained(
            "relation R(a, b).
             Q(x) :- R(x, y), R(y, z).
             Qp(x) :- R(x, y).",
            "Q",
            "Qp",
        );
        assert!(a.contained && a.exact);
        assert_eq!(a.bound, 0);
        assert_eq!(a.levels_explored, 0);
    }

    #[test]
    fn fd_only_containment() {
        // With R: a -> b, Q(x) :- R(x,y), R(x,z) collapses to one conjunct,
        // so Q ≡ Qp.
        let a = test_contained(
            "relation R(a, b).
             fd R: a -> b.
             Q(x) :- R(x, y), R(x, z).
             Qp(x) :- R(x, w).",
            "Q",
            "Qp",
        );
        assert!(a.contained);
        // And Qp ⊆ Q also holds *with* the FD (both atoms map to R(x,w)).
        let b = test_contained(
            "relation R(a, b).
             fd R: a -> b.
             Q(x) :- R(x, y), R(x, z).
             Qp(x) :- R(x, w).",
            "Qp",
            "Q",
        );
        assert!(b.contained);
    }

    #[test]
    fn fd_clash_gives_vacuous_containment() {
        let a = test_contained(
            "relation R(a, b). relation S(a).
             fd R: a -> b.
             Q(x) :- R(x, 1), R(x, 2).
             Qp(x) :- S(x).",
            "Q",
            "Qp",
        );
        assert!(a.contained && a.exact && a.empty_chase);
        assert!(a.witness.is_none());
    }

    #[test]
    fn inds_only_positive_needs_chase_depth() {
        // Cyclic IND: Q(x) :- R(x, y) is contained in the 3-chain query
        // because the chase unfolds R(y, n1), R(n1, n2).
        let a = test_contained(
            "relation R(a, b).
             ind R[2] <= R[1].
             Q(x) :- R(x, y).
             Qp(x) :- R(x, y), R(y, z), R(z, w).",
            "Q",
            "Qp",
        );
        assert!(a.contained && a.exact);
        let w = a.witness.unwrap();
        assert_eq!(w.max_level, 2);
        assert!(matches!(a.class, SigmaClass::IndsOnly { width: 1 }));
    }

    #[test]
    fn inds_only_negative_certified_by_bound() {
        // Q(x) :- R(x, y) vs Q'(x) :- R(y, x): the chase of Q never
        // creates a conjunct with x in the second column.
        let a = test_contained(
            "relation R(a, b).
             ind R[2] <= R[1].
             Q(x) :- R(x, y).
             Qp(x) :- R(y, x).",
            "Q",
            "Qp",
        );
        assert!(!a.contained);
        assert!(a.exact, "negative must be certified for INDs-only");
        // Bound explored: |Q'| · |Σ| · (W+1)^W = 1 · 1 · 2 = 2.
        assert_eq!(a.bound, 2);
        assert!(a.levels_explored >= 2);
    }

    #[test]
    fn key_based_positive() {
        let a = test_contained(
            "relation EMP(eno, sal, dept). relation DEP(dno, loc).
             fd EMP: eno -> sal. fd EMP: eno -> dept. fd DEP: dno -> loc.
             ind EMP[dept] <= DEP[dno].
             Q2(e) :- EMP(e, s, d).
             Q1(e) :- EMP(e, s, d), DEP(d, l).",
            "Q2",
            "Q1",
        );
        assert!(a.contained && a.exact);
        assert!(matches!(a.class, SigmaClass::KeyBased { .. }));
    }

    #[test]
    fn key_based_fd_interaction() {
        // Key-based FDs merge the two EMP atoms (same key value), making
        // Q ⊆ Qp for a Qp requiring consistent attributes.
        let a = test_contained(
            "relation EMP(eno, sal, dept).
             fd EMP: eno -> sal. fd EMP: eno -> dept.
             Q(e) :- EMP(e, s, d), EMP(e, s2, d2).
             Qp(e) :- EMP(e, s3, d3).",
            "Q",
            "Qp",
        );
        assert!(a.contained);
    }

    #[test]
    fn mixed_positive_is_exact() {
        // Section 4's Σ is Mixed. Q2 ⊆ Q1 still verifiable positively:
        // hom Q1 → chase(Q2)... here test the trivial direction.
        let a = test_contained(
            "relation R(a, b).
             fd R: b -> a. ind R[2] <= R[1].
             Q2(x) :- R(x, y), R(yp, x).
             Q1(x) :- R(x, y).",
            "Q2",
            "Q1",
        );
        assert!(a.contained && a.exact);
        assert_eq!(a.class, SigmaClass::Mixed);
    }

    #[test]
    fn mixed_negative_is_inexact() {
        // The paper's finite counterexample: Σ ⊨ Q1 ⊆f Q2 holds finitely
        // but NOT infinitely — the chase-based engine must keep saying
        // "no hom" and, being Mixed, flags the negative as inexact.
        let p = parse_program(
            "relation R(a, b).
             fd R: b -> a. ind R[2] <= R[1].
             Q1(x) :- R(x, y).
             Q2(x) :- R(x, y), R(yp, x).",
        )
        .unwrap();
        let opts = ContainmentOptions {
            budget: ChaseBudget {
                max_steps: 500,
                max_conjuncts: 500,
            },
            ..Default::default()
        };
        let a = contained(
            p.query("Q1").unwrap(),
            p.query("Q2").unwrap(),
            &p.deps,
            &p.catalog,
            &opts,
        )
        .unwrap();
        assert!(!a.contained);
        assert!(!a.exact, "Mixed negatives are semi-decisions");
    }

    #[test]
    fn certified_budget_exhaustion_is_error() {
        // INDs-only with a wide cyclic IND family explodes; a tiny budget
        // must surface as an error, not a wrong negative.
        let p = parse_program(
            "relation R(a, b, c).
             ind R[2, 3] <= R[1, 2]. ind R[3, 1] <= R[1, 2].
             Q(x) :- R(x, y, z).
             Qp(x) :- R(x, u, v), R(u, v, w), R(v, w, t), R(w, t, s).",
        )
        .unwrap();
        let opts = ContainmentOptions {
            budget: ChaseBudget {
                max_steps: 5,
                max_conjuncts: 5,
            },
            ..Default::default()
        };
        let r = contained(
            p.query("Q").unwrap(),
            p.query("Qp").unwrap(),
            &p.deps,
            &p.catalog,
            &opts,
        );
        assert!(matches!(
            r,
            Err(ContainmentEngineError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn cancelled_pair_does_not_poison_shared_chase() {
        let p = parse_program(
            "relation R(a, b).
             ind R[2] <= R[1].
             Q(x) :- R(x, y).
             Qp(x) :- R(x, y), R(y, z).",
        )
        .unwrap();
        let pair = ContainmentPair { q: 0, q_prime: 1 };
        let fired = CancelToken::unlimited();
        fired.cancel();
        let pairs = vec![(pair, fired), (pair, CancelToken::unlimited())];
        let opts = ContainmentOptions::default();
        let out = check_batch(&p.queries, &pairs, &p.deps, &p.catalog, &opts);
        assert!(matches!(
            out[0],
            Err(ContainmentEngineError::Cancelled { .. })
        ));
        // The second pair resumes the shared chase and gets the same
        // decision as a standalone run.
        let standalone =
            contained(&p.queries[0], &p.queries[1], &p.deps, &p.catalog, &opts).unwrap();
        let b = out[1].as_ref().unwrap();
        assert_eq!(b.contained, standalone.contained);
        assert_eq!(b.exact, standalone.exact);
        assert!(b.contained);
    }

    #[test]
    fn output_arity_mismatch_rejected() {
        let p = parse_program(
            "relation R(a, b).
             Q(x) :- R(x, y).
             Qp(x, y2) :- R(x, y2).",
        )
        .unwrap();
        let r = contained(
            p.query("Q").unwrap(),
            p.query("Qp").unwrap(),
            &p.deps,
            &p.catalog,
            &ContainmentOptions::default(),
        );
        assert!(matches!(r, Err(ContainmentEngineError::Ir(_))));
    }

    #[test]
    fn containment_is_reflexive_and_transitive_sample() {
        let src = "
            relation R(a, b).
            ind R[2] <= R[1].
            A(x) :- R(x, y).
            B(x) :- R(x, y), R(y, z).
            C(x) :- R(x, y), R(y, z), R(z, w).
        ";
        for q in ["A", "B", "C"] {
            let a = test_contained(src, q, q);
            assert!(a.contained, "reflexivity for {q}");
        }
        // A ⊆ B ⊆ C and A ⊆ C (chase unfolds the chain).
        assert!(test_contained(src, "A", "B").contained);
        assert!(test_contained(src, "B", "C").contained);
        assert!(test_contained(src, "A", "C").contained);
        // Longer chains are contained in shorter ones trivially.
        assert!(test_contained(src, "C", "A").contained);
    }

    #[test]
    fn deep_witness_beyond_check_stride_is_found() {
        // `searched_at` skips levels past 32 that are not multiples of
        // 8; a witness that only appears at level 35 must still be found
        // (by the level-40 search, whose cut holds all shallower levels).
        let mut src =
            String::from("relation R(a, b). ind R[2] <= R[1].\nQ(x) :- R(x, y).\nQp(v0) :- ");
        let n = 36;
        for i in 0..n {
            if i > 0 {
                src.push_str(", ");
            }
            src.push_str(&format!("R(v{i}, v{})", i + 1));
        }
        src.push('.');
        let p = parse_program(&src).unwrap();
        let opts = ContainmentOptions {
            budget: ChaseBudget {
                max_steps: 10_000,
                max_conjuncts: 10_000,
            },
            ..Default::default()
        };
        let a = contained(
            p.query("Q").unwrap(),
            p.query("Qp").unwrap(),
            &p.deps,
            &p.catalog,
            &opts,
        )
        .unwrap();
        assert!(a.contained, "deep chain must be found despite the stride");
        assert_eq!(a.witness.unwrap().max_level, 35);
        // Levels 33–39 are skipped: the level-40 search finds it.
        assert_eq!(a.levels_explored, 40);
    }

    #[test]
    fn oblivious_and_required_agree() {
        let p = parse_program(
            "relation R(a, b). relation S(x, y).
             ind R[2] <= S[1]. ind S[2] <= R[1].
             Q(x) :- R(x, y).
             Qp(x) :- R(x, y), S(y, z), R(z, w).",
        )
        .unwrap();
        for mode in [ChaseMode::Oblivious, ChaseMode::Required] {
            let opts = ContainmentOptions {
                mode: Some(mode),
                ..Default::default()
            };
            let a = contained(
                p.query("Q").unwrap(),
                p.query("Qp").unwrap(),
                &p.deps,
                &p.catalog,
                &opts,
            )
            .unwrap();
            assert!(a.contained, "{mode:?}");
        }
    }
}
