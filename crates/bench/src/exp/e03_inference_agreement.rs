//! **E3 — Corollary 2.3 cross-check**: IND inference through the
//! containment reduction agrees with the Casanova–Fagin–Papadimitriou
//! axiomatic prover on randomly generated IND sets and goals.

use cqchase_core::inference::{implies_ind_axiomatic, implies_ind_via_chase};
use cqchase_core::ContainmentOptions;
use cqchase_ir::{Catalog, Ind, RelId};
use cqchase_workload::IndSetGen;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde_json::json;

use super::ExperimentOutput;
use crate::table::Table;

fn random_goal(catalog: &Catalog, width: usize, rng: &mut StdRng) -> Ind {
    let rels: Vec<RelId> = catalog.rel_ids().collect();
    loop {
        let lhs = rels[rng.gen_range(0..rels.len())];
        let rhs = rels[rng.gen_range(0..rels.len())];
        let w = width.min(catalog.arity(lhs)).min(catalog.arity(rhs)).max(1);
        let mut lc: Vec<usize> = (0..catalog.arity(lhs)).collect();
        lc.shuffle(rng);
        lc.truncate(w);
        let mut rc: Vec<usize> = (0..catalog.arity(rhs)).collect();
        rc.shuffle(rng);
        rc.truncate(w);
        let g = Ind::new(lhs, lc, rhs, rc);
        if !g.is_trivial() {
            return g;
        }
    }
}

/// Runs E3.
pub fn run() -> ExperimentOutput {
    let mut catalog = Catalog::new();
    catalog.declare("A", ["a1", "a2"]).unwrap();
    catalog.declare("B", ["b1", "b2"]).unwrap();
    catalog.declare("C", ["c1", "c2"]).unwrap();

    // A generous budget so dense cyclic IND sets still decide their
    // (bound-gated) negative goals instead of skipping them.
    let opts = ContainmentOptions {
        budget: cqchase_core::ChaseBudget {
            max_steps: 50_000,
            max_conjuncts: 100_000,
        },
        ..Default::default()
    };
    let mut table = Table::new(&["seed", "|Σ|", "goals", "implied", "agree", "disagreements"]);
    let mut total_agree = true;

    for seed in 0..8u64 {
        let sigma = IndSetGen {
            seed,
            num_inds: 4,
            width: 1,
            acyclic: false,
        }
        .generate(&catalog);
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let mut implied = 0;
        let mut agree = 0;
        let mut disagreements = Vec::new();
        let goals = 20;
        for _ in 0..goals {
            let goal = random_goal(&catalog, 1, &mut rng);
            let ax =
                implies_ind_axiomatic(&sigma, &goal, 1_000_000).expect("tiny universe saturates");
            let ch = match implies_ind_via_chase(&sigma, &goal, &catalog, &opts) {
                Ok(a) => a.contained,
                Err(_) => continue,
            };
            if ax {
                implied += 1;
            }
            if ax == ch {
                agree += 1;
            } else {
                disagreements.push(format!("{goal:?}"));
            }
        }
        total_agree &= disagreements.is_empty();
        table.rowd(&[
            seed.to_string(),
            sigma.len().to_string(),
            goals.to_string(),
            implied.to_string(),
            agree.to_string(),
            disagreements.len().to_string(),
        ]);
    }

    println!("{}", table.render());
    println!("axiomatic ≡ chase-based on every goal: {total_agree}");

    ExperimentOutput {
        id: "e3",
        title: "Corollary 2.3 — IND inference via containment agrees with the CFP axioms",
        json: json!({ "rows": table.to_json(), "all_agree": total_agree }),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e3_engines_agree() {
        let out = super::run();
        assert_eq!(out.json["all_agree"], true);
        for row in out.json["rows"].as_array().unwrap() {
            assert_eq!(row["disagreements"], 0);
        }
    }
}
