//! Shared experiment utilities.

use cqchase_core::chase::{CTerm, ChaseState, ConjId};
use cqchase_ir::{Atom, ConjunctiveQuery, Term, VarKind, VarTable};
use std::collections::HashMap;
use std::time::Instant;

/// Builds a conjunctive query from a subset of chase conjuncts, keeping
/// the chase's summary row. Variables occurring in the summary become
/// DVs; everything else NDVs. This realizes the paper's *subquery of a
/// chase* notion and is how experiments manufacture `Q′`s with known
/// witness levels (the identity homomorphism maps the result back into
/// the chase).
pub fn query_from_conjuncts(state: &ChaseState, ids: &[ConjId], name: &str) -> ConjunctiveQuery {
    let mut vars = VarTable::new();
    let mut map: HashMap<u32, cqchase_ir::VarId> = HashMap::new();
    // Summary variables first, as DVs (also fixes the order: DVs first).
    let mut head = Vec::new();
    for t in state.summary() {
        head.push(match t {
            CTerm::Const(c) => Term::Const(c.clone()),
            CTerm::Var(v) => {
                let id = *map.entry(v.0).or_insert_with(|| {
                    vars.push(state.var_name(*v).into_owned(), VarKind::Distinguished)
                });
                Term::Var(id)
            }
        });
    }
    let mut atoms = Vec::with_capacity(ids.len());
    for &cid in ids {
        let terms = state
            .terms(cid)
            .map(|t| match t {
                CTerm::Const(k) => Term::Const(k),
                CTerm::Var(v) => {
                    let id = *map.entry(v.0).or_insert_with(|| {
                        vars.push(state.var_name(v).into_owned(), VarKind::Existential)
                    });
                    Term::Var(id)
                }
            })
            .collect();
        atoms.push(Atom::new(state.conjunct(cid).rel, terms));
    }
    ConjunctiveQuery {
        name: name.to_owned(),
        head,
        atoms,
        vars,
    }
}

/// The set of a conjunct's ordinary-arc ancestors (including itself),
/// plus every level-0 conjunct — an ancestor-closed, summary-connected
/// subset suitable for [`query_from_conjuncts`].
pub fn ancestors_plus_roots(state: &ChaseState, of: ConjId) -> Vec<ConjId> {
    use cqchase_core::chase::ArcKind;
    let mut out: Vec<ConjId> = state
        .alive_conjuncts()
        .filter(|(_, c)| c.level == 0)
        .map(|(id, _)| id)
        .collect();
    let mut cur = of;
    loop {
        let resolved = state.resolve_conjunct(cur);
        if !out.contains(&resolved) {
            out.push(resolved);
        }
        // Follow the (unique) incoming ordinary arc, if any.
        match state
            .arcs()
            .iter()
            .find(|a| a.kind == ArcKind::Ordinary && state.resolve_conjunct(a.to) == resolved)
        {
            Some(arc) => cur = arc.from,
            None => break,
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Median wall-clock time of `runs` executions of `f`, as a `Duration`.
/// The measurement primitive behind [`time_median_us`]; the bench gate
/// and baseline recorders share it so gate-vs-baseline comparisons use
/// one methodology.
pub fn time_median<F: FnMut()>(runs: usize, mut f: F) -> std::time::Duration {
    let mut samples: Vec<std::time::Duration> = (0..runs.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median wall-clock time of `runs` executions of `f`, in microseconds.
pub fn time_median_us<F: FnMut()>(runs: usize, f: F) -> f64 {
    time_median(runs, f).as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_core::chase::{Chase, ChaseBudget, ChaseMode};
    use cqchase_core::hom::{find_hom, HomTarget};
    use cqchase_ir::{parse_program, validate::validate_query};

    #[test]
    fn subquery_of_chase_maps_back() {
        let p = parse_program(
            "relation R(a, b).
             ind R[2] <= R[1].
             Q(x) :- R(x, y).",
        )
        .unwrap();
        let mut ch = Chase::new(&p.queries[0], &p.deps, &p.catalog, ChaseMode::Required);
        ch.expand_to_level(4, ChaseBudget::default());
        // The deepest conjunct's ancestors + roots.
        let deepest = ch
            .state()
            .alive_conjuncts()
            .max_by_key(|(_, c)| c.level)
            .map(|(id, _)| id)
            .unwrap();
        let ids = ancestors_plus_roots(ch.state(), deepest);
        let q = query_from_conjuncts(ch.state(), &ids, "Qp");
        validate_query(&q, &p.catalog).unwrap();
        assert_eq!(q.num_atoms(), ids.len());
        // Identity homomorphism exists: the subquery maps into the chase
        // with witness level = the deepest conjunct's level.
        let h = find_hom(&q, &HomTarget::from_chase(ch.state(), u32::MAX)).unwrap();
        assert_eq!(h.max_level, ch.state().conjunct(deepest).level);
    }

    #[test]
    fn timing_is_positive() {
        let us = time_median_us(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(us >= 0.0);
    }
}
