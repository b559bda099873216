//! **E12 — Theorem 3 / Figures 2–3**: the finite `Q*` construction.
//! For width-1 IND workloads we build `Q*`, check that (a) it satisfies
//! Σ as a database, (b) a summary-preserving homomorphism `Q′ → Q*`
//! exists *iff* `Σ ⊨ Q ⊆∞ Q′` — the finite-controllability equivalence.

use cqchase_core::chase::ChaseBudget;
use cqchase_core::finite::qstar::{build_qstar, query_graph_diameter};
use cqchase_core::{contained, find_query_hom, ContainmentOptions};
use cqchase_ir::parse_program;
use cqchase_storage::satisfies;
use serde_json::json;

use super::ExperimentOutput;
use crate::table::Table;

/// Runs E12.
pub fn run(budget: ChaseBudget) -> ExperimentOutput {
    let mut table = Table::new(&[
        "case", "d", "kΣ", "cutoff", "|Q*|", "prefix", "Σ ok", "⊆∞", "Q* hom", "agree",
    ]);
    let mut all_agree = true;
    let opts = ContainmentOptions::default();

    // Width-1 IND families with positive and negative Q′ cases.
    let programs = [
        // Successor cycle.
        (
            "succ",
            "relation R(a, b).
             ind R[2] <= R[1].
             Q(x) :- R(x, y).
             P1(x) :- R(x, y), R(y, z).
             P2(x) :- R(x, y), R(y, z), R(z, w), R(w, u).
             N1(x) :- R(y, x).
             N2(x) :- R(x, y), R(z, y).",
        ),
        // Two-relation round trip.
        (
            "pingpong",
            "relation R(a, b). relation S(x, y).
             ind R[2] <= S[1]. ind S[2] <= R[1].
             Q(x) :- R(x, y).
             P1(x) :- R(x, y), S(y, z).
             P2(x) :- R(x, y), S(y, z), R(z, w).
             N1(x) :- S(x, y).",
        ),
        // Key-based case (k_Σ = 1).
        (
            "key-based",
            "relation E(k, a). relation D(k2, b).
             fd E: k -> a. fd D: k2 -> b.
             ind E[2] <= D[1].
             Q(x) :- E(x, y).
             P1(x) :- E(x, y), D(y, z).
             N1(x) :- D(x, y).",
        ),
    ];

    for (family, src) in &programs {
        let p = parse_program(src).unwrap();
        let q = p.query("Q").unwrap();
        for qp in p.queries.iter().filter(|qq| qq.name != "Q") {
            let d = query_graph_diameter(qp);
            let qs = match build_qstar(q, &p.deps, &p.catalog, d, budget) {
                Ok(qs) => qs,
                Err(e) => {
                    all_agree = false;
                    println!("{family}/{}: Q* failed: {e:?}", qp.name);
                    continue;
                }
            };
            let sat = satisfies(&qs.to_database(&p.catalog), &p.deps);
            let inf = contained(q, qp, &p.deps, &p.catalog, &opts)
                .unwrap()
                .contained;
            let hom = find_query_hom(qp, &qs.to_query(), &p.catalog).is_some();
            let agree = inf == hom && sat;
            all_agree &= agree;
            table.rowd(&[
                format!("{family}/{}", qp.name),
                d.to_string(),
                qs.k_sigma.to_string(),
                qs.cutoff.to_string(),
                qs.len().to_string(),
                qs.prefix_len.to_string(),
                sat.to_string(),
                inf.to_string(),
                hom.to_string(),
                agree.to_string(),
            ]);
        }
    }

    println!("{}", table.render());
    println!("Q* hom ⟺ infinite containment on all cases (Theorem 3): {all_agree}");

    ExperimentOutput {
        id: "e12",
        title: "Theorem 3 — the finite Q* decides unrestricted containment",
        json: json!({ "rows": table.to_json(), "all_agree": all_agree }),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e12_qstar_decides() {
        let out = super::run(cqchase_core::chase::ChaseBudget::default());
        assert_eq!(out.json["all_agree"], true);
        let rows = out.json["rows"].as_array().unwrap();
        assert!(rows.len() >= 8);
        // Positive and negative cases both present.
        assert!(rows.iter().any(|r| r["⊆∞"] == "true"));
        assert!(rows.iter().any(|r| r["⊆∞"] == "false"));
    }
}
