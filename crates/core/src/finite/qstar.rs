//! The `Q*` closing-off construction of Theorem 3 (connected case).
//!
//! To show finite controllability, the paper builds a **finite** query
//! `Q*` that (a) contains `Q` (via the trivial homomorphism), (b) obeys
//! Σ when viewed as a database, and (c) agrees with the real chase on its
//! first `(d+1)·k_Σ` levels, where `d` bounds the diameter of the
//! query-graph of `Q′` and `k_Σ` bounds symbol travel between levels:
//!
//! > *Construct the first `(d+1)k_Σ` levels of `chase_Σ(Q)`. Then choose
//! > a new special symbol `z_A` for each attribute `A` and modify the
//! > chase rule for INDs so that whenever a conjunct is created at a
//! > level exceeding `(d+1)k_Σ`, the entry in each column that would
//! > normally receive a new NDV is the special symbol `z_A` … the chase
//! > procedure will terminate.*
//!
//! Any summary-preserving homomorphism `Q′ → Q*` must then land inside
//! the untruncated prefix, hence lifts to `chase_Σ(Q)` — so finite
//! containment implies unrestricted containment.
//!
//! We key the special symbols by *(relation, column)* — a refinement of
//! per-attribute symbols that is at least as discriminating, so the
//! termination and locality arguments carry over unchanged.

use std::collections::VecDeque;

use cqchase_index::{FxHashMap, FxHashSet};

use cqchase_ir::{
    Atom, Catalog, ConjunctiveQuery, Constant, DependencySet, Ind, RelId, Term, VarId, VarKind,
    VarTable,
};
use cqchase_storage::{Database, Value};

use crate::chase::{CTerm, Chase, ChaseBudget, ChaseMode, ChaseStatus};
use crate::finite::ksigma::k_sigma;

/// A term of `Q*`: an original chase symbol, a per-(relation, column)
/// special symbol, or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum QsTerm {
    /// A constant carried over from the query.
    Const(Constant),
    /// A chase symbol of the truncated prefix (by ordinal).
    Sym(u32),
    /// The special symbol `z_(rel, col)` used to close the structure off.
    Special(RelId, u32),
}

/// The finite closing-off of a chase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QStar {
    /// Every conjunct (prefix of the real chase + closing-off tuples).
    pub conjuncts: Vec<(RelId, Vec<QsTerm>)>,
    /// The summary row (always within the prefix).
    pub summary: Vec<QsTerm>,
    /// Number of conjuncts belonging to the untruncated chase prefix.
    pub prefix_len: usize,
    /// The cut level `(d+1)·k_Σ`.
    pub cutoff: u32,
    /// The travel constant used.
    pub k_sigma: u32,
    /// Whether the closing-off fixpoint completed within budget.
    pub complete: bool,
}

/// Why `Q*` could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QStarError {
    /// Σ is in neither Theorem 3 class (no `k_Σ`).
    NoKSigma,
    /// The chase prefix alone exceeded the budget.
    PrefixBudget,
    /// The chase failed (FD constant clash): `Q` is empty under Σ and
    /// every containment holds vacuously — no `Q*` is needed.
    EmptyChase,
}

/// The diameter (longest shortest path) of the query graph `G_{Q′}`:
/// vertices are conjuncts plus the summary row, edges join parts sharing
/// a symbol. Disconnected pairs are skipped (the paper handles components
/// separately); returns the max component diameter.
pub fn query_graph_diameter(q: &ConjunctiveQuery) -> u32 {
    // Node 0 = summary row; nodes 1.. = atoms.
    let n = q.atoms.len() + 1;
    let mut vars_of: Vec<FxHashSet<u32>> = Vec::with_capacity(n);
    vars_of.push(
        q.head
            .iter()
            .filter_map(|t| t.as_var())
            .map(|v| v.0)
            .collect(),
    );
    for a in &q.atoms {
        vars_of.push(a.vars().map(|v| v.0).collect());
    }
    let adj: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| j != i && !vars_of[i].is_disjoint(&vars_of[j]))
                .collect()
        })
        .collect();
    let mut diameter = 0u32;
    for s in 0..n {
        // BFS.
        let mut dist = vec![u32::MAX; n];
        dist[s] = 0;
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if dist[v] == u32::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        for &d in &dist {
            if d != u32::MAX {
                diameter = diameter.max(d);
            }
        }
    }
    diameter
}

fn cterm_to_qs(t: CTerm) -> QsTerm {
    match t {
        CTerm::Const(c) => QsTerm::Const(c),
        CTerm::Var(v) => QsTerm::Sym(v.0),
    }
}

/// Builds `Q*` for `q` under Σ, with `d` the diameter bound for the
/// query `Q′` the caller intends to test (use
/// [`query_graph_diameter`]`(q_prime)`).
pub fn build_qstar(
    q: &ConjunctiveQuery,
    sigma: &DependencySet,
    catalog: &Catalog,
    d: u32,
    budget: ChaseBudget,
) -> Result<QStar, QStarError> {
    let k = k_sigma(sigma, catalog).ok_or(QStarError::NoKSigma)?;
    let cutoff = (d + 1).saturating_mul(k.max(1));
    let mut chase = Chase::new(q, sigma, catalog, ChaseMode::Required);
    let status = chase.expand_to_level(cutoff, budget);
    match status {
        ChaseStatus::Failed => return Err(QStarError::EmptyChase),
        // No cancel token is installed here, but a cut-short prefix is
        // a budget problem either way.
        ChaseStatus::BudgetExhausted | ChaseStatus::Cancelled => {
            return Err(QStarError::PrefixBudget)
        }
        ChaseStatus::Complete | ChaseStatus::LevelReached => {}
    }
    let state = chase.state();
    let mut conjuncts: Vec<(RelId, Vec<QsTerm>)> = Vec::new();
    let mut seen: FxHashSet<(RelId, Vec<QsTerm>)> = FxHashSet::default();
    for (id, c) in state.alive_conjuncts() {
        let row = (c.rel, state.terms(id).map(cterm_to_qs).collect::<Vec<_>>());
        if seen.insert(row.clone()) {
            conjuncts.push(row);
        }
    }
    let prefix_len = conjuncts.len();
    let summary: Vec<QsTerm> = state.summary().iter().cloned().map(cterm_to_qs).collect();

    if status == ChaseStatus::Complete {
        // The real chase is finite: Q* is simply the whole chase.
        return Ok(QStar {
            conjuncts,
            summary,
            prefix_len,
            cutoff,
            k_sigma: k,
            complete: true,
        });
    }

    // Closing-off fixpoint: required-mode IND applications whose fresh
    // entries are the special symbols. The symbol universe is finite, so
    // this terminates; the budget is a safety net.
    let inds: Vec<Ind> = sigma.inds().cloned().collect();
    let mut witness: FxHashMap<(usize, Vec<QsTerm>), ()> = FxHashMap::default();
    let project = |terms: &[QsTerm], cols: &[usize]| -> Vec<QsTerm> {
        cols.iter().map(|&c| terms[c].clone()).collect()
    };
    let register = |row: &(RelId, Vec<QsTerm>),
                    witness: &mut FxHashMap<(usize, Vec<QsTerm>), ()>| {
        for (i, ind) in inds.iter().enumerate() {
            if ind.rhs_rel == row.0 {
                witness.insert((i, project(&row.1, &ind.rhs_cols)), ());
            }
        }
    };
    for row in &conjuncts {
        register(row, &mut witness);
    }
    let mut queue: VecDeque<usize> = (0..conjuncts.len()).collect();
    let mut steps = 0usize;
    let mut complete = true;
    'outer: while let Some(i) = queue.pop_front() {
        let (rel, terms) = conjuncts[i].clone();
        for (ind_idx, ind) in inds.iter().enumerate() {
            if ind.lhs_rel != rel {
                continue;
            }
            steps += 1;
            if steps > budget.max_steps || conjuncts.len() > budget.max_conjuncts {
                complete = false;
                break 'outer;
            }
            let key = (ind_idx, project(&terms, &ind.lhs_cols));
            if witness.contains_key(&key) {
                continue;
            }
            let arity = catalog.arity(ind.rhs_rel);
            let mut new_terms = Vec::with_capacity(arity);
            for col in 0..arity {
                match ind.rhs_cols.iter().position(|&c| c == col) {
                    Some(kk) => new_terms.push(terms[ind.lhs_cols[kk]].clone()),
                    None => new_terms.push(QsTerm::Special(ind.rhs_rel, col as u32)),
                }
            }
            let row = (ind.rhs_rel, new_terms);
            if seen.insert(row.clone()) {
                register(&row, &mut witness);
                conjuncts.push(row);
                queue.push_back(conjuncts.len() - 1);
            } else {
                witness.insert(key, ());
            }
        }
    }

    Ok(QStar {
        conjuncts,
        summary,
        prefix_len,
        cutoff,
        k_sigma: k,
        complete,
    })
}

impl QStar {
    /// Views `Q*` as a concrete finite database (each symbol interpreted
    /// as a distinct constant) — e.g. to verify it satisfies Σ.
    pub fn to_database(&self, catalog: &Catalog) -> Database {
        let mut db = Database::new(catalog);
        let val = |t: &QsTerm| -> Value {
            match t {
                QsTerm::Const(c) => Value::Const(c.clone()),
                QsTerm::Sym(v) => Value::str(format!("s{v}")),
                QsTerm::Special(r, c) => Value::str(format!("z_{}_{}", r.0, c)),
            }
        };
        for (rel, terms) in &self.conjuncts {
            db.insert(*rel, terms.iter().map(val).collect())
                .expect("arity correct by construction");
        }
        db
    }

    /// Views `Q*` as a finite query: chase symbols become variables
    /// `s{ordinal}`, special symbols `z_{rel}_{col}` (the names
    /// [`QStar::to_database`] gives them), and the summary row is the
    /// head. A summary-preserving homomorphism `Q′ → Q*` is then
    /// [`find_query_hom`](crate::hom::find_query_hom)`(Q′, &qs.to_query(), catalog)`.
    pub fn to_query(&self) -> ConjunctiveQuery {
        let mut vars = VarTable::new();
        let mut ids: FxHashMap<String, VarId> = FxHashMap::default();
        let mut term = |t: &QsTerm, kind: VarKind| -> Term {
            let name = match t {
                QsTerm::Const(c) => return Term::Const(c.clone()),
                QsTerm::Sym(v) => format!("s{v}"),
                QsTerm::Special(r, c) => format!("z_{}_{}", r.0, c),
            };
            Term::Var(
                *ids.entry(name)
                    .or_insert_with_key(|name| vars.push(name.clone(), kind)),
            )
        };
        let head = self
            .summary
            .iter()
            .map(|t| term(t, VarKind::Distinguished))
            .collect();
        let atoms = self
            .conjuncts
            .iter()
            .map(|(rel, terms)| {
                Atom::new(
                    *rel,
                    terms
                        .iter()
                        .map(|t| term(t, VarKind::Existential))
                        .collect(),
                )
            })
            .collect();
        ConjunctiveQuery {
            name: "Qstar".to_owned(),
            head,
            atoms,
            vars,
        }
    }

    /// Total number of conjuncts.
    pub fn len(&self) -> usize {
        self.conjuncts.len()
    }

    /// Whether `Q*` has no conjuncts.
    pub fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::{contained, ContainmentOptions};
    use crate::hom::find_query_hom;
    use cqchase_ir::parse_program;
    use cqchase_storage::satisfies;

    #[test]
    fn diameter_examples() {
        let p = parse_program(
            "relation R(a, b).
             A(x) :- R(x, y).
             B(x) :- R(x, y), R(y, z), R(z, w).
             C(x) :- R(x, y), R(u, v).",
        )
        .unwrap();
        assert_eq!(query_graph_diameter(p.query("A").unwrap()), 1);
        // Chain: summary–atom1–atom2–atom3.
        assert_eq!(query_graph_diameter(p.query("B").unwrap()), 3);
        // Disconnected component: max component diameter is 1.
        assert_eq!(query_graph_diameter(p.query("C").unwrap()), 1);
    }

    #[test]
    fn qstar_terminates_on_infinite_chase() {
        let p = parse_program(
            "relation R(a, b).
             ind R[2] <= R[1].
             Q(x) :- R(x, y).",
        )
        .unwrap();
        let qs = build_qstar(
            p.query("Q").unwrap(),
            &p.deps,
            &p.catalog,
            2,
            ChaseBudget::default(),
        )
        .unwrap();
        assert!(qs.complete);
        // The chase itself is infinite, so Q* strictly extends the prefix
        // with closing-off tuples.
        assert!(qs.len() > qs.prefix_len);
        // k_Σ = arity of R = 2; cutoff = (2+1)·2 = 6.
        assert_eq!(qs.k_sigma, 2);
        assert_eq!(qs.cutoff, 6);
    }

    #[test]
    fn qstar_satisfies_sigma() {
        let p = parse_program(
            "relation R(a, b). relation S(x, y).
             ind R[2] <= R[1]. ind R[1] <= S[2]. ind S[1] <= R[1].
             Q(x) :- R(x, y).",
        )
        .unwrap();
        let qs = build_qstar(
            p.query("Q").unwrap(),
            &p.deps,
            &p.catalog,
            3,
            ChaseBudget::default(),
        )
        .unwrap();
        assert!(qs.complete);
        let db = qs.to_database(&p.catalog);
        assert!(
            satisfies(&db, &p.deps),
            "Q* viewed as a database must obey Σ"
        );
    }

    #[test]
    fn finite_chase_gives_whole_chase() {
        let p = parse_program(
            "relation R(a). relation S(a).
             ind R[1] <= S[1].
             Q(x) :- R(x).",
        )
        .unwrap();
        let qs = build_qstar(
            p.query("Q").unwrap(),
            &p.deps,
            &p.catalog,
            1,
            ChaseBudget::default(),
        )
        .unwrap();
        assert_eq!(qs.len(), qs.prefix_len);
        assert_eq!(qs.len(), 2);
    }

    #[test]
    fn hom_into_qstar_matches_containment() {
        // Theorem 3 in action (width-1 INDs): Q′ maps into Q* iff
        // Σ ⊨ Q ⊆∞ Q′.
        let p = parse_program(
            "relation R(a, b).
             ind R[2] <= R[1].
             Q(x) :- R(x, y).
             Yes(x) :- R(x, y), R(y, z), R(z, w).
             No(x) :- R(y, x).",
        )
        .unwrap();
        let q = p.query("Q").unwrap();
        let opts = ContainmentOptions::default();
        for (name, expect) in [("Yes", true), ("No", false)] {
            let qp = p.query(name).unwrap();
            let d = query_graph_diameter(qp);
            let qs = build_qstar(q, &p.deps, &p.catalog, d, ChaseBudget::default()).unwrap();
            let hom = find_query_hom(qp, &qs.to_query(), &p.catalog).is_some();
            let inf = contained(q, qp, &p.deps, &p.catalog, &opts)
                .unwrap()
                .contained;
            assert_eq!(inf, expect, "containment for {name}");
            assert_eq!(hom, expect, "Q* hom for {name}");
        }
    }

    #[test]
    fn mixed_sigma_rejected() {
        let p = parse_program(
            "relation R(a, b).
             fd R: b -> a. ind R[2] <= R[1].
             Q(x) :- R(x, y).",
        )
        .unwrap();
        assert_eq!(
            build_qstar(
                p.query("Q").unwrap(),
                &p.deps,
                &p.catalog,
                1,
                ChaseBudget::default()
            ),
            Err(QStarError::NoKSigma)
        );
    }

    #[test]
    fn key_based_qstar() {
        let p = parse_program(
            "relation E(k, a). relation D(k2, b).
             fd E: k -> a. fd D: k2 -> b.
             ind E[2] <= D[1].
             Q(x) :- E(x, y).",
        )
        .unwrap();
        let qs = build_qstar(
            p.query("Q").unwrap(),
            &p.deps,
            &p.catalog,
            2,
            ChaseBudget::default(),
        )
        .unwrap();
        assert!(qs.complete);
        assert!(satisfies(&qs.to_database(&p.catalog), &p.deps));
    }
}
