//! Containment testing cost per dependency class (the E7 sweep, under
//! Criterion): chain self-containment with Σ ∈ {∅, FDs, INDs, key-based},
//! and random queries under branching IND sets (`containment_branching`),
//! the families where the containment loop's search stride and the hom
//! finder's re-plan rule were measured.

use cqchase_core::{contained, ContainmentOptions};
use cqchase_ir::{parse_program, ConjunctiveQuery, Program};
use cqchase_workload::{chain_query, IndSetGen, QueryGen};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_containment(c: &mut Criterion) {
    let variants: Vec<(&str, &str)> = vec![
        ("empty", "relation R(a, b)."),
        ("fds", "relation R(a, b). fd R: a -> b."),
        ("inds", "relation R(a, b). ind R[2] <= R[1]."),
        (
            "keybased",
            "relation R(a, b). relation K(k, v). fd K: k -> v. ind R[2] <= K[1].",
        ),
    ];
    let opts = ContainmentOptions::default();
    let mut group = c.benchmark_group("containment_chain");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    for (label, schema) in variants {
        let p = parse_program(schema).unwrap();
        for n in [2usize, 4, 8] {
            let q = chain_query("Q", &p.catalog, "R", n).unwrap();
            let qp = chain_query("Qp", &p.catalog, "R", n).unwrap();
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    let a = contained(&q, &qp, &p.deps, &p.catalog, &opts).unwrap();
                    assert!(a.contained);
                    std::hint::black_box(a.chase_conjuncts)
                });
            });
        }
    }
    group.finish();
}

/// The branching-Σ families: `(name, IND width, INDs, FDs, answer
/// tallies over 12 Σ seeds)`. Tallies count `[positives, exact
/// negatives, inexact negatives, errors]`; the errors are certified
/// chases that ran out of the default containment budget. The FDs are
/// not keys, so that family is Mixed; its queries carry constants.
const NON_KEY_FDS: &str = "fd R: a -> b. fd S: a -> b. fd T: a -> c.";
const FAMILIES: [(&str, usize, usize, &str, [usize; 4]); 7] = [
    ("w1_3ind", 1, 3, "", [127, 903, 0, 170]),
    ("w1_4ind", 1, 4, "", [129, 628, 0, 443]),
    ("w1_5ind", 1, 5, "", [129, 225, 0, 846]),
    ("w2_3ind", 2, 3, "", [129, 900, 0, 171]),
    ("w2_4ind", 2, 4, "", [135, 623, 0, 442]),
    ("w2_5ind", 2, 5, "", [141, 260, 0, 799]),
    ("w1_3ind_fds", 1, 3, NON_KEY_FDS, [135, 394, 671, 0]),
];

/// The Σ drawn from `seed` for a family (cyclic INDs, plus `fds`) and
/// its 10 random queries: 3–7 atoms over 5 variables, one head variable.
fn sweep_sigma(
    width: usize,
    num_inds: usize,
    fds: &str,
    seed: u64,
) -> (Program, Vec<ConjunctiveQuery>) {
    let schema = "relation R(a, b, c). relation S(a, b). relation T(a, b, c).";
    let mut p = parse_program(&format!("{schema} {fds}")).unwrap();
    let inds = IndSetGen {
        seed,
        width,
        num_inds,
        acyclic: false,
    };
    for ind in inds.generate(&p.catalog).inds() {
        p.deps.push(ind.clone());
    }
    let queries = (0..10)
        .map(|j| {
            let gen = QueryGen {
                seed: seed * 10 + j,
                num_atoms: 3 + j as usize % 5,
                num_vars: 5,
                num_dvs: 1,
                const_prob: if fds.is_empty() { 0.0 } else { 0.2 },
                const_pool: 3,
            };
            gen.generate(&format!("Q{j}"), &p.catalog)
        })
        .collect();
    (p, queries)
}

/// Answer tallies over every ordered pair of `queries`.
fn tally(p: &Program, queries: &[ConjunctiveQuery]) -> [usize; 4] {
    let mut t = [0; 4];
    for q in queries {
        for qp in queries {
            let k = match contained(q, qp, &p.deps, &p.catalog, &ContainmentOptions::default()) {
                Ok(a) if a.contained => 0,
                Ok(a) if a.exact => 1,
                Ok(_) => 2,
                Err(_) => 3,
            };
            t[k] += 1;
        }
    }
    t
}

/// Checks each family's tallies over Σ seeds 0..12 once, then times
/// every pair of seeds 0 and 1.
fn bench_branching(c: &mut Criterion) {
    let mut group = c.benchmark_group("containment_branching");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for (name, width, num_inds, fds, want) in FAMILIES {
        let sigmas: Vec<_> = (0..12)
            .map(|seed| sweep_sigma(width, num_inds, fds, seed))
            .collect();
        let sum = sigmas.iter().map(|(p, qs)| tally(p, qs));
        let sum = sum.fold([0; 4], |acc, t| std::array::from_fn(|i| acc[i] + t[i]));
        assert_eq!(sum, want, "{name} answers changed");
        group.bench_function(name, |b| {
            b.iter(|| {
                sigmas[..2]
                    .iter()
                    .map(|(p, qs)| tally(p, qs)[0])
                    .sum::<usize>()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_containment, bench_branching);
criterion_main!(benches);
