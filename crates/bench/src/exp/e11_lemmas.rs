//! **E11 — Lemma 2 and Lemma 6 validation** on random key-based
//! workloads.
//!
//! *Lemma 2*: in the R-chase of a key-based Σ, all FD applications
//! precede all IND applications — operationally, after the initial FD
//! phase the driver never fires another FD (`fd_steps` stays at its
//! initialization value).
//!
//! *Lemma 6*: no symbol occurs at levels `i` and `j` with `|i − j| > 1`.

use std::collections::HashMap;

use cqchase_core::chase::{CTerm, Chase, ChaseBudget, ChaseMode};
use cqchase_workload::{KeyBasedGen, QueryGen};
use serde_json::json;

use super::ExperimentOutput;
use crate::table::Table;

/// Max level span of any symbol in the chase.
fn max_symbol_span(state: &cqchase_core::chase::ChaseState) -> u32 {
    let mut range: HashMap<u32, (u32, u32)> = HashMap::new();
    for (id, c) in state.alive_conjuncts() {
        for t in state.terms(id) {
            if let CTerm::Var(v) = t {
                let e = range.entry(v.0).or_insert((c.level, c.level));
                e.0 = e.0.min(c.level);
                e.1 = e.1.max(c.level);
            }
        }
    }
    range.values().map(|(lo, hi)| hi - lo).max().unwrap_or(0)
}

/// Runs E11.
pub fn run(budget: ChaseBudget) -> ExperimentOutput {
    let mut table = Table::new(&[
        "seed",
        "|Σ|",
        "init FD steps",
        "post-init FD steps",
        "max symbol span",
        "lemma2 ok",
        "lemma6 ok",
    ]);
    let mut all_ok = true;

    for seed in 0..10u64 {
        let (catalog, sigma) = KeyBasedGen {
            seed,
            num_relations: 3,
            key_width: 1,
            nonkey_width: 2,
            num_inds: 4,
            ind_width: 1,
            acyclic: false,
        }
        .generate();
        let q = QueryGen {
            seed: seed + 500,
            num_atoms: 3,
            num_vars: 4,
            num_dvs: 1,
            const_prob: 0.0,
            const_pool: 1,
        }
        .generate("Q", &catalog);

        let mut ch = Chase::new(&q, &sigma, &catalog, ChaseMode::Required);
        let init_fd = ch.fd_steps();
        ch.expand_to_level(6, budget);
        let post_fd = ch.fd_steps() - init_fd;
        let span = max_symbol_span(ch.state());
        let lemma2 = post_fd == 0;
        let lemma6 = span <= 1;
        all_ok &= lemma2 && lemma6;
        table.rowd(&[
            seed.to_string(),
            sigma.len().to_string(),
            init_fd.to_string(),
            post_fd.to_string(),
            span.to_string(),
            lemma2.to_string(),
            lemma6.to_string(),
        ]);
    }

    println!("{}", table.render());
    println!("Lemma 2 (FDs before INDs) and Lemma 6 (span ≤ 1) hold on all seeds: {all_ok}");

    ExperimentOutput {
        id: "e11",
        title: "Lemma 2 & Lemma 6 — key-based R-chase structure",
        json: json!({ "rows": table.to_json(), "all_ok": all_ok }),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e11_lemmas_hold() {
        let out = super::run(cqchase_core::chase::ChaseBudget::default());
        assert_eq!(out.json["all_ok"], true);
    }
}
