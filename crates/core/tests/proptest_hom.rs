//! Differential property tests: the indexed join engine and the
//! retained naive scan-based search must agree on homomorphism
//! existence — against query targets (level-0 chases) and against
//! (partial) chases, level for level — and every witness either returns
//! must be a real homomorphism into the state it came from.

use cqchase_core::chase::{CTerm, Chase, ChaseBudget, ChaseMode, ChaseState};
use cqchase_core::hom::naive;
use cqchase_core::{
    check_batch, contained, find_query_hom, ChaseHomFinder, ContainmentOptions, ContainmentPair,
    Homomorphism,
};
use cqchase_ir::builder::TermSpec;
use cqchase_ir::{
    Atom, Catalog, ConjunctiveQuery, DependencySet, Fd, Ind, QueryBuilder, Term, VarKind, VarTable,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.declare("R", ["a", "b"]).unwrap();
    c.declare("S", ["x", "y"]).unwrap();
    c
}

/// Random small queries over R/S: 1–4 atoms, variables v0..v3, v0 is the
/// head, occasional constants.
fn small_query() -> impl Strategy<Value = ConjunctiveQuery> {
    let atom = (any::<bool>(), 0usize..4, 0usize..4, 0usize..6);
    proptest::collection::vec(atom, 1..4).prop_map(|atoms| {
        let cat = catalog();
        let mut b = QueryBuilder::new("Q", &cat).head_vars(["v0"]);
        for (i, (use_s, x, y, c)) in atoms.iter().enumerate() {
            let rel = if *use_s { "S" } else { "R" };
            let x = if i == 0 { 0 } else { *x };
            b = if *c < 2 {
                // Constant in the second position.
                b.atom(
                    rel,
                    [TermSpec::Var(format!("v{x}")), TermSpec::from(*c as i64)],
                )
                .unwrap()
            } else {
                b.atom(rel, [format!("v{x}"), format!("v{y}")]).unwrap()
            };
        }
        b.build().unwrap()
    })
}

/// Small dependency sets mixing FDs and (possibly cyclic) INDs.
fn sigmas() -> impl Strategy<Value = DependencySet> {
    proptest::collection::vec((0usize..5, any::<bool>()), 0..3).prop_map(|picks| {
        let cat = catalog();
        let r = cat.resolve("R").unwrap();
        let s = cat.resolve("S").unwrap();
        let mut out = DependencySet::new();
        for (k, flip) in picks {
            match k {
                0 => out.push(Fd::new(r, vec![0], 1)),
                1 => out.push(Fd::new(s, vec![0], 1)),
                2 => out.push(Ind::new(r, vec![usize::from(flip)], s, vec![0])),
                3 => out.push(Ind::new(s, vec![1], r, vec![usize::from(flip)])),
                _ => out.push(Ind::new(r, vec![1], r, vec![0])),
            }
        }
        out
    })
}

/// A query over the first live conjunct of each of `state`'s levels 0–3,
/// with the summary row as head. It maps into the state by the identity,
/// so unlike two random queries it has witnesses above level 0.
fn deep_query(state: &ChaseState) -> ConjunctiveQuery {
    let mut vars = VarTable::new();
    let mut ids = std::collections::HashMap::new();
    let mut term = |t: CTerm, kind: VarKind| match t {
        CTerm::Const(c) => Term::Const(c),
        CTerm::Var(v) => Term::Var(
            *ids.entry(v)
                .or_insert_with(|| vars.push(format!("v{}", v.0), kind)),
        ),
    };
    let head = state
        .summary()
        .iter()
        .map(|t| term(t.clone(), VarKind::Distinguished))
        .collect();
    let atoms = (0..=3)
        .filter_map(|level| state.alive_conjuncts().find(|(_, c)| c.level == level))
        .map(|(id, c)| {
            let terms = state.terms(id).map(|t| term(t, VarKind::Existential));
            Atom::new(c.rel, terms.collect())
        })
        .collect();
    ConjunctiveQuery {
        name: "Deep".to_owned(),
        head,
        atoms,
        vars,
    }
}

/// Checks that `h` is a summary-preserving homomorphism from `source`
/// into the live conjuncts of `state` with level ≤ `cut`: every atom
/// image is a live conjunct of the atom's relation within the cut whose
/// terms are the atom's terms under `var_images` (constants map to
/// themselves), the head maps onto the summary row, and `max_level` is
/// the largest image level.
fn check_witness(
    h: &Homomorphism,
    source: &ConjunctiveQuery,
    state: &ChaseState,
    cut: u32,
) -> Result<(), TestCaseError> {
    let image = |t: &Term| match t {
        Term::Const(c) => Some(CTerm::Const(c.clone())),
        Term::Var(v) => h.var_images[v.index()].clone(),
    };
    prop_assert_eq!(h.atom_images.len(), source.atoms.len());
    let mut max_level = 0;
    for (atom, &id) in source.atoms.iter().zip(&h.atom_images) {
        let c = state.conjunct(id);
        prop_assert!(c.alive, "image {:?} is dead", id);
        prop_assert_eq!(
            c.rel,
            atom.relation,
            "image {:?} has the wrong relation",
            id
        );
        prop_assert!(
            c.level <= cut,
            "image {:?} at level {} above the cut {}",
            id,
            c.level,
            cut
        );
        max_level = max_level.max(c.level);
        let want: Vec<Option<CTerm>> = atom.terms.iter().map(image).collect();
        let got: Vec<Option<CTerm>> = state.terms(id).map(Some).collect();
        prop_assert_eq!(got, want, "terms of image {:?}", id);
    }
    let head: Vec<Option<CTerm>> = source.head.iter().map(image).collect();
    let summary: Vec<Option<CTerm>> = state.summary().iter().cloned().map(Some).collect();
    prop_assert_eq!(head, summary, "head image");
    prop_assert_eq!(h.max_level, max_level);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Indexed and naive searches agree on hom existence into query
    /// targets (the Chandra–Merlin primitive), and both witnesses are
    /// homomorphisms into the target's level-0 state.
    #[test]
    fn query_targets_agree(q in small_query(), t in small_query()) {
        let cat = catalog();
        let ch = Chase::new(&t, &DependencySet::new(), &cat, ChaseMode::Required);
        let fast = find_query_hom(&q, &t, &cat);
        let slow = naive::find_hom(&q, &naive::Rows::from_state(ch.state(), 0));
        prop_assert_eq!(fast.is_some(), slow.is_some());
        for h in fast.iter().chain(&slow) {
            check_witness(h, &q, ch.state(), 0)?;
        }
    }

    /// Indexed search straight off the chase's incremental indexes
    /// agrees with the naive scan of a row snapshot, level for level,
    /// and both witnesses are homomorphisms into the state within the
    /// level cut. Sources are a random query and the chase's own
    /// [`deep_query`].
    #[test]
    fn chase_targets_agree(q in small_query(), qp in small_query(), sigma in sigmas()) {
        let cat = catalog();
        let mut ch = Chase::new(&q, &sigma, &cat, ChaseMode::Required);
        ch.expand_to_level(3, ChaseBudget { max_steps: 500, max_conjuncts: 1_000 });
        let state = ch.state();
        for source in [qp, deep_query(state)] {
            let mut finder = ChaseHomFinder::new(&source);
            for level in [0u32, 1, 2, 3, u32::MAX] {
                let live = finder.find(state, level);
                let slow = naive::find_hom(&source, &naive::Rows::from_state(state, level));
                prop_assert_eq!(live.is_some(), slow.is_some(), "{} at level {}", source.name, level);
                for h in live.iter().chain(&slow) {
                    check_witness(h, &source, state, level)?;
                }
            }
        }
    }

    /// The sequential batch engine (chase sharing + cached plans +
    /// reused scratch) decides exactly like per-pair `contained`:
    /// same decisions, same witness existence, same errors. (Witness
    /// *identity* is not promised: a shared chase that already
    /// completed is searched whole, a fresh one level by level, so
    /// equally valid but different certificates can come back.)
    #[test]
    fn batch_containment_agrees_with_per_pair(
        qs in proptest::collection::vec(small_query(), 2..5),
        sigma in sigmas(),
    ) {
        let cat = catalog();
        let opts = ContainmentOptions::default();
        let mut pairs = Vec::new();
        for q in 0..qs.len() {
            for q_prime in 0..qs.len() {
                pairs.push(ContainmentPair { q, q_prime });
            }
        }
        let batch = check_batch(&qs, &pairs, &sigma, &cat, &opts);
        for (p, got) in pairs.iter().zip(batch.iter()) {
            let want = contained(&qs[p.q], &qs[p.q_prime], &sigma, &cat, &opts);
            match (got, &want) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.contained, b.contained, "pair {:?}", p);
                    prop_assert_eq!(a.exact, b.exact, "pair {:?}", p);
                    prop_assert_eq!(a.empty_chase, b.empty_chase, "pair {:?}", p);
                    prop_assert_eq!(a.bound, b.bound, "pair {:?}", p);
                    prop_assert_eq!(&a.class, &b.class, "pair {:?}", p);
                    prop_assert_eq!(
                        a.witness.is_some(),
                        b.witness.is_some(),
                        "witness existence: pair {:?}",
                        p
                    );
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "pair {:?}", p),
                _ => prop_assert!(false, "Ok/Err disagreement on pair {:?}", p),
            }
        }
    }
}
