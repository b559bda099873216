//! Property-based tests (proptest) on the core invariants.

use cqchase::core::chase::{Chase, ChaseBudget, ChaseMode};
use cqchase::core::{contained, minimize, ContainmentOptions};
use cqchase::ir::{Catalog, ConjunctiveQuery, DependencySet, Ind, QueryBuilder};
use cqchase::workload::{IndSetGen, QueryGen};
use proptest::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.declare("R", ["a", "b"]).unwrap();
    c
}

/// A small budget: Mixed-class negatives cut off quickly (the default
/// 4000-step budget is meant for interactive use, not hundreds of
/// proptest cases in debug builds).
fn opts() -> ContainmentOptions {
    ContainmentOptions {
        budget: ChaseBudget {
            max_steps: 200,
            max_conjuncts: 2_000,
        },
        ..Default::default()
    }
}

/// Strategy: small queries over the binary relation R with variables
/// drawn from a pool of 4 names; the head variable is patched into the
/// first atom so queries are always safe.
fn small_query() -> impl Strategy<Value = ConjunctiveQuery> {
    let atom = (0usize..4, 0usize..4);
    proptest::collection::vec(atom, 1..4).prop_map(|atoms| {
        let cat = catalog();
        let mut b = QueryBuilder::new("Q", &cat).head_vars(["v0"]);
        for (i, (x, y)) in atoms.iter().enumerate() {
            let (x, y) = if i == 0 { (0, *y) } else { (*x, *y) };
            b = b
                .atom("R", [format!("v{x}"), format!("v{y}")])
                .expect("R exists");
        }
        b.build().expect("safe by construction")
    })
}

/// Strategy: a dependency set over R that is empty, the FD, the cyclic
/// IND, or both (Mixed).
fn small_sigma() -> impl Strategy<Value = DependencySet> {
    (any::<bool>(), any::<bool>()).prop_map(|(fd, ind)| {
        let cat = catalog();
        let r = cat.resolve("R").unwrap();
        let mut s = DependencySet::new();
        if fd {
            s.push(cqchase::ir::Fd::new(r, vec![0], 1));
        }
        if ind {
            s.push(Ind::new(r, vec![1], r, vec![0]));
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Containment is reflexive for every class of Σ.
    #[test]
    fn containment_reflexive(q in small_query(), sigma in small_sigma()) {
        let cat = catalog();
        let ans = contained(&q, &q, &sigma, &cat, &opts()).unwrap();
        prop_assert!(ans.contained);
    }

    /// Certified containment is transitive on sampled triples.
    #[test]
    fn containment_transitive(
        a in small_query(),
        b in small_query(),
        c in small_query(),
        sigma in small_sigma(),
    ) {
        let cat = catalog();
        let opts = opts();
        let ab = contained(&a, &b, &sigma, &cat, &opts).unwrap();
        let bc = contained(&b, &c, &sigma, &cat, &opts).unwrap();
        if ab.contained && ab.exact && bc.contained && bc.exact {
            let ac = contained(&a, &c, &sigma, &cat, &opts).unwrap();
            prop_assert!(ac.contained, "containment must be transitive");
        }
    }

    /// Minimization yields an equivalent query that is no larger.
    #[test]
    fn minimize_sound(q in small_query(), sigma in small_sigma()) {
        let cat = catalog();
        let opts = opts();
        let m = minimize(&q, &sigma, &cat, &opts).unwrap();
        prop_assert!(m.query.num_atoms() <= q.num_atoms());
        prop_assert!(m.query.num_atoms() >= 1);
        let fwd = contained(&q, &m.query, &sigma, &cat, &opts).unwrap();
        let bwd = contained(&m.query, &q, &sigma, &cat, &opts).unwrap();
        prop_assert!(fwd.contained && bwd.contained, "minimized query must stay equivalent");
    }

    /// The chase is deterministic: building it twice gives identical
    /// rendered conjuncts, level by level.
    #[test]
    fn chase_deterministic(q in small_query(), sigma in small_sigma()) {
        let cat = catalog();
        let render = |_| {
            let mut ch = Chase::new(&q, &sigma, &cat, ChaseMode::Required);
            ch.expand_to_level(4, ChaseBudget::default());
            ch.state()
                .alive_conjuncts()
                .map(|(id, c)| (c.level, ch.state().render_conjunct(id)))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(render(0), render(1));
    }

    /// Chase growth is monotone: a deeper expansion preserves the
    /// shallower one's conjuncts as a prefix.
    #[test]
    fn chase_expansion_monotone(q in small_query(), sigma in small_sigma()) {
        let cat = catalog();
        let mut ch = Chase::new(&q, &sigma, &cat, ChaseMode::Required);
        ch.expand_to_level(2, ChaseBudget::default());
        let before: Vec<String> = ch
            .state()
            .alive_conjuncts()
            .map(|(id, _)| ch.state().render_conjunct(id))
            .collect();
        ch.expand_to_level(5, ChaseBudget::default());
        let after: Vec<String> = ch
            .state()
            .alive_conjuncts()
            .map(|(id, _)| ch.state().render_conjunct(id))
            .collect();
        prop_assert!(after.len() >= before.len());
        prop_assert_eq!(&after[..before.len()], &before[..]);
    }

    /// Chandra–Merlin sanity: without dependencies, dropping an atom
    /// always gives a containing query (Q ⊆ Q\{c}).
    #[test]
    fn dropping_atoms_weakens(q in small_query()) {
        let cat = catalog();
        let sigma = DependencySet::new();
        let opts = opts();
        if q.num_atoms() > 1 {
            for i in 0..q.num_atoms() {
                let weaker = q.without_atom(i);
                let ans = contained(&q, &weaker, &sigma, &cat, &opts).unwrap();
                prop_assert!(ans.contained, "Q ⊆ Q minus atom {i}");
            }
        }
    }

    /// O-chase and R-chase certify the same positive containments
    /// (Theorem 1 holds for both chases).
    #[test]
    fn chase_modes_agree_on_positives(
        q in small_query(),
        qp in small_query(),
        sigma in small_sigma(),
    ) {
        let cat = catalog();
        // Only certified classes (skip Mixed where negatives are inexact).
        if sigma.num_fds() > 0 && sigma.num_inds() > 0 {
            return Ok(());
        }
        let mut o_opts = opts();
        o_opts.mode = Some(ChaseMode::Oblivious);
        let mut r_opts = opts();
        r_opts.mode = Some(ChaseMode::Required);
        let o = contained(&q, &qp, &sigma, &cat, &o_opts);
        let r = contained(&q, &qp, &sigma, &cat, &r_opts);
        if let (Ok(o), Ok(r)) = (o, r) {
            prop_assert_eq!(o.contained, r.contained);
        }
    }
}

/// SplitMix64: derives each case's parameters from its index.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The R-chase decides INDs-only Σ exactly like the paper's O-chase:
/// same `contained`, same `exact`, and every witness within the
/// Theorem 2 bound. Σ is random (three relations of arity 2–3, 1–4
/// INDs of width 1–3, cycles allowed) and the queries carry constants.
/// The R-chase builds a sub-instance of the O-chase, so it must answer
/// whenever the O-chase does; most cases must compare, or the test
/// proves nothing about negatives.
#[test]
fn r_chase_decides_inds_only_like_o_chase() {
    const CASES: u64 = 256;
    let budget = ChaseBudget {
        max_steps: 3_000,
        max_conjuncts: 3_000,
    };
    let (mut compared, mut negatives) = (0, 0);
    for case in 0..CASES {
        let seed = mix(case);
        let pick = |salt: u64, lo: u64, hi: u64| (lo + mix(seed ^ salt) % (hi - lo)) as usize;
        let mut cat = Catalog::new();
        for i in 0..3 {
            let attrs: Vec<String> = (0..pick(i, 2, 4)).map(|c| format!("c{c}")).collect();
            cat.declare(format!("R{i}"), attrs).unwrap();
        }
        let sigma = IndSetGen {
            seed,
            num_inds: pick(3, 1, 5),
            width: pick(4, 1, 4),
            acyclic: false,
        }
        .generate(&cat);
        if sigma.num_inds() == 0 {
            continue;
        }
        let query = |name: &str, salt: u64, num_atoms: usize| {
            QueryGen {
                seed: seed ^ salt,
                num_atoms,
                num_vars: 3,
                num_dvs: 1,
                const_prob: 0.1,
                const_pool: 2,
            }
            .generate(name, &cat)
        };
        let q = query("Q", 0x51, pick(5, 1, 4));
        let qp = query("Qp", 0xA7, pick(6, 1, 3));
        let run = |mode| {
            let opts = ContainmentOptions {
                mode: Some(mode),
                budget,
            };
            contained(&q, &qp, &sigma, &cat, &opts)
        };
        let (r, o) = (run(ChaseMode::Required), run(ChaseMode::Oblivious));
        assert!(
            r.is_ok() || o.is_err(),
            "case {case}: only the O-chase answered"
        );
        let (Ok(r), Ok(o)) = (r, o) else { continue };
        assert_eq!(r.contained, o.contained, "case {case}");
        assert_eq!(r.exact, o.exact, "case {case}");
        assert!(r.exact, "case {case}: INDs-only answers are certified");
        for ans in [&r, &o] {
            if let Some(w) = &ans.witness {
                assert!(
                    w.max_level <= ans.bound,
                    "case {case}: witness above the bound"
                );
            }
        }
        compared += 1;
        negatives += usize::from(!r.contained);
    }
    eprintln!("compared {compared} of {CASES} cases, {negatives} negatives");
    assert!(compared >= 200, "only {compared} of {CASES} cases compared");
    assert!(negatives >= 50, "only {negatives} compared negatives");
    assert!(
        compared - negatives >= 20,
        "only {} compared positives",
        compared - negatives
    );
}
