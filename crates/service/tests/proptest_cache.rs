//! Differential property test: the semantic cache never changes an
//! answer.
//!
//! For random query pools (with deliberately many isomorphic
//! duplicates, so the cache actually fires) and random check
//! sequences, the service layer must return the same decision fields
//! three ways: semantic cache **on**, semantic cache **off**, and the
//! plain sequential library call.

use std::sync::Arc;

use cqchase_core::{contained, ContainmentOptions};
use cqchase_ir::parse_program;
use cqchase_service::{Batcher, Metrics, Outcome, Session, Work};
use cqchase_workload::{chain_query, cycle_query, star_query};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Builds a random program over one of three schemas with a pool of
/// shaped queries (names unique, shapes repeat → isomorphism classes
/// repeat).
fn gen_program(rng: &mut TestRng) -> cqchase_ir::Program {
    let schema = match rng.below(3) {
        0 => "relation R(a, b). ind R[2] <= R[1].",
        1 => "relation R(a, b). fd R: a -> b.",
        _ => "relation R(a, b).",
    };
    let mut p = parse_program(schema).expect("schema parses");
    let pool = 3 + rng.below(4) as usize;
    for i in 0..pool {
        let size = 1 + rng.below(3) as usize;
        let q = match rng.below(3) {
            0 => chain_query(&format!("Q{i}"), &p.catalog, "R", size),
            1 => cycle_query(&format!("Q{i}"), &p.catalog, "R", size + 1),
            _ => star_query(&format!("Q{i}"), &p.catalog, "R", size),
        }
        .expect("generated query is well-formed");
        p.queries.push(q);
    }
    p
}

fn decision_fields(o: &Outcome) -> (bool, bool, bool, u32) {
    match o {
        Outcome::Check { summary: Ok(s), .. } => (s.contained, s.exact, s.empty_chase, s.bound),
        other => panic!("expected a successful check outcome, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cache_on_equals_cache_off_equals_library(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let program = gen_program(&mut rng);
        let n = program.queries.len();
        let checks: Vec<(usize, usize)> = (0..16)
            .map(|_| (rng.below(n as u64) as usize, rng.below(n as u64) as usize))
            .collect();

        let cached = Arc::new(
            Session::from_program("on", program.clone(), 64, 64).unwrap(),
        );
        let uncached = Arc::new(
            Session::from_program("off", program.clone(), 0, 64).unwrap(),
        );
        let batcher_on = Batcher::new(1, Arc::new(Metrics::new()));
        let batcher_off = Batcher::new(1, Arc::new(Metrics::new()));

        for &(q, qp) in &checks {
            let on = batcher_on
                .submit(Work::Check {
                    session: Arc::clone(&cached),
                    q,
                    q_prime: qp,
                })
                .expect("cache-on submit succeeds");
            let off = batcher_off
                .submit(Work::Check {
                    session: Arc::clone(&uncached),
                    q,
                    q_prime: qp,
                })
                .expect("cache-off submit succeeds");
            let direct = contained(
                &program.queries[q],
                &program.queries[qp],
                &program.deps,
                &program.catalog,
                &ContainmentOptions::default(),
            )
            .expect("workload pairs decide under default options");
            let on_fields = decision_fields(&on);
            prop_assert_eq!(
                on_fields,
                decision_fields(&off),
                "cache-on vs cache-off diverged on ({}, {}) seed {}",
                q, qp, seed
            );
            prop_assert_eq!(
                on_fields,
                (direct.contained, direct.exact, direct.empty_chase, direct.bound),
                "service vs library diverged on ({}, {}) seed {}",
                q, qp, seed
            );
        }

        // The uncached session must never report cache activity, and the
        // cached one must have fired on repeated isomorphism classes if
        // any check repeated.
        prop_assert_eq!(uncached.sem_cache.lock().unwrap().stats().hits, 0);
        let mut seen = std::collections::HashSet::new();
        let repeats = checks.iter().filter(|c| !seen.insert(**c)).count() as u64;
        let hits = cached.sem_cache.lock().unwrap().stats().hits;
        prop_assert!(
            hits >= repeats,
            "exact repeats ({}) must all hit the semantic cache (hits {})",
            repeats, hits
        );
    }
}
