//! The IND chase rule.
//!
//! > *IND CHASE RULE. Let the IND `R[X] ⊆ S[Y]` and conjunct `c` be as
//! > above. Add a new conjunct `c′` to Q, where `R(c′) = S`,
//! > `c′[Y] = c[X]` and where `c′[A]` is a distinct new NDV symbol for
//! > each attribute `A` not in `Y`, this symbol following all previously
//! > introduced symbols in the lexicographic order.*
//!
//! The *required* check ("does a witnessing conjunct already exist?") is
//! [`ChaseState::find_witness`] — a posting-list intersection on the
//! chase's incremental indexes, replacing the seed's per-IND hash maps
//! that had to be rebuilt from the full conjunct set after every FD
//! merge.

use cqchase_ir::Ind;

use super::state::{ArcKind, ChaseArc, ChaseState, ConjId};

/// Applies the IND rule: creates the new conjunct at `level(c) + 1` with
/// fresh NDVs outside `Y`, records the ordinary arc, and returns the new
/// conjunct's id.
pub(crate) fn apply_ind(
    state: &mut ChaseState,
    parent: ConjId,
    ind: &Ind,
    ind_idx: usize,
) -> ConjId {
    let level = state.conjunct(parent).level + 1;
    let child = state.push_ind_child(parent, ind, ind_idx, level);
    state.arcs.push(ChaseArc {
        from: parent,
        to: child,
        ind_idx,
        kind: ArcKind::Ordinary,
    });
    child
}

/// Records a cross arc `parent → witness` labelled by `ind_idx` (R-chase
/// bookkeeping when the required conjunct already exists).
pub(crate) fn record_cross(
    state: &mut ChaseState,
    parent: ConjId,
    witness: ConjId,
    ind_idx: usize,
) {
    state.arcs.push(ChaseArc {
        from: parent,
        to: witness,
        ind_idx,
        kind: ArcKind::Cross,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_ir::parse_program;

    #[test]
    fn apply_creates_child_with_fresh_ndvs() {
        let p = parse_program(
            "relation R(a, b, c). relation S(x, y).
             ind R[1, 3] <= S[1, 2].
             Q(z) :- R(u, v, z).",
        )
        .unwrap();
        let mut st = ChaseState::from_query(&p.queries[0], &p.catalog, false);
        let ind = p.deps.inds().next().unwrap().clone();
        let child = apply_ind(&mut st, ConjId(0), &ind, 0);
        let c = st.conjunct(child);
        assert_eq!(c.level, 1);
        assert_eq!(st.catalog().name(c.rel), "S");
        // S(x, y) receives (R.a, R.c) = (u, z).
        assert_eq!(st.term(child, 0), st.term(ConjId(0), 0));
        assert_eq!(st.term(child, 1), st.term(ConjId(0), 2));
        assert_eq!(st.arcs().len(), 1);
        assert_eq!(st.arcs()[0].kind, ArcKind::Ordinary);
    }

    #[test]
    fn non_covered_columns_get_fresh_vars() {
        let p = parse_program(
            "relation R(a). relation S(x, y, z).
             ind R[1] <= S[2].
             Q(u) :- R(u).",
        )
        .unwrap();
        let mut st = ChaseState::from_query(&p.queries[0], &p.catalog, false);
        let ind = p.deps.inds().next().unwrap().clone();
        let before_vars = st.num_vars();
        let child = apply_ind(&mut st, ConjId(0), &ind, 0);
        // Column 1 (0-based) carries u; columns 0 and 2 are fresh.
        assert_eq!(st.term(child, 1), st.term(ConjId(0), 0));
        assert_eq!(st.num_vars(), before_vars + 2);
        let v0 = st.term(child, 0).as_var().unwrap();
        let v2 = st.term(child, 2).as_var().unwrap();
        assert_ne!(v0, v2);
        // Fresh symbols follow all earlier ones in the order.
        assert!(v0.index() >= before_vars && v2.index() >= before_vars);
    }

    #[test]
    fn witness_lookup_finds_existing_and_new() {
        let p = parse_program(
            "relation R(a, b).
             ind R[2] <= R[1].
             Q(x) :- R(x, y), R(y, z).",
        )
        .unwrap();
        let mut st = ChaseState::from_query(&p.queries[0], &p.catalog, false);
        let inds: Vec<Ind> = p.deps.inds().cloned().collect();
        // Conjunct 0 is R(x, y); its projection on [b] is (y), and R(y, z)
        // has (y) in column a — so the application is NOT required.
        assert_eq!(st.find_witness(&inds[0], ConjId(0)), Some(ConjId(1)));
        // Conjunct 1 is R(y, z): projection (z) has no witness.
        assert_eq!(st.find_witness(&inds[0], ConjId(1)), None);
        // After applying, the new conjunct witnesses it — no rebuild, the
        // incremental index picked it up on insertion.
        let child = apply_ind(&mut st, ConjId(1), &inds[0], 0);
        assert_eq!(st.find_witness(&inds[0], ConjId(1)), Some(child));
    }
}
