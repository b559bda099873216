//! Random database-instance generation.

use cqchase_core::{chase_instance, ChaseBudget, DataChaseOutcome};
use cqchase_ir::{Catalog, DependencySet};
use cqchase_storage::{Database, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for random instance generation.
#[derive(Debug, Clone)]
pub struct DatabaseGen {
    /// RNG seed.
    pub seed: u64,
    /// Tuples per relation.
    pub tuples_per_relation: usize,
    /// Value domain `{0, …, domain-1}`.
    pub domain: i64,
}

impl Default for DatabaseGen {
    fn default() -> Self {
        DatabaseGen {
            seed: 0,
            tuples_per_relation: 8,
            domain: 10,
        }
    }
}

impl DatabaseGen {
    /// Generates a random instance (no dependency guarantees).
    pub fn generate(&self, catalog: &Catalog) -> Database {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut db = Database::new(catalog);
        for (rel, schema) in catalog.iter() {
            for _ in 0..self.tuples_per_relation {
                let t: Vec<Value> = (0..schema.arity())
                    .map(|_| Value::int(rng.gen_range(0..self.domain.max(1))))
                    .collect();
                let _ = db.insert(rel, t);
            }
        }
        db
    }

    /// Generates a random instance and repairs it into a Σ-satisfying one
    /// via the instance chase ([`chase_instance`]). Returns `None` when
    /// the instance is inconsistent with Σ or the chase does not
    /// terminate in budget (callers typically retry with the next seed).
    pub fn generate_satisfying(
        &self,
        catalog: &Catalog,
        sigma: &DependencySet,
        budget: ChaseBudget,
    ) -> Option<Database> {
        let db = self.generate(catalog);
        match chase_instance(&db, sigma, budget) {
            DataChaseOutcome::Satisfied(out) => Some(out),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_core::INSTANCE_CHASE_BUDGET;
    use cqchase_ir::DependencySetBuilder;
    use cqchase_storage::satisfies;

    fn cat() -> Catalog {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        c.declare("S", ["x"]).unwrap();
        c
    }

    #[test]
    fn generates_requested_sizes() {
        let c = cat();
        let db = DatabaseGen {
            seed: 1,
            tuples_per_relation: 5,
            domain: 100,
        }
        .generate(&c);
        // Duplicates may collapse; with domain 100 that is unlikely but
        // allowed.
        assert!(db.total_tuples() <= 10);
        assert!(db.total_tuples() >= 6);
    }

    #[test]
    fn deterministic() {
        let c = cat();
        let g = DatabaseGen::default();
        assert_eq!(g.generate(&c), g.generate(&c));
    }

    #[test]
    fn satisfying_instances_satisfy() {
        let c = cat();
        let sigma = DependencySetBuilder::new(&c)
            .fd("R", ["a"], "b")
            .unwrap()
            .ind("R", ["b"], "S", ["x"])
            .unwrap()
            .build();
        let mut found = 0;
        for seed in 0..10 {
            let gen = DatabaseGen {
                seed,
                tuples_per_relation: 4,
                domain: 6,
            };
            if let Some(db) = gen.generate_satisfying(&c, &sigma, INSTANCE_CHASE_BUDGET) {
                assert!(satisfies(&db, &sigma));
                found += 1;
            }
        }
        assert!(found > 0, "some seeds must repair cleanly");
    }
}
