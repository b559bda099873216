//! The FD chase rule.
//!
//! > *FD CHASE RULE. Let `c₁`, `c₂`, and the FD be as above and identify
//! > the symbols `c₁[A]` and `c₂[A]` wherever they occur in the conjuncts
//! > and summary row of Q. If both were constants, delete all conjuncts
//! > from Q and halt. If one is a constant, let the combined symbol be
//! > that constant. If both are variables, choose the lexicographically
//! > first of the two.*
//!
//! We apply the rule deterministically: the lexicographically first pair
//! `(c₁, c₂)` (by conjunct id, which is creation order) with an
//! applicable FD, and the first applicable FD in Σ's declaration order —
//! realizing the paper's canonical-chase convention.
//!
//! Both halves run on the chase's incremental indexes: applicability is
//! found by hash-grouping / posting intersection
//! ([`ChaseState::find_applicable_fd`]) and the substitution rewrites
//! only the conjuncts actually containing the eliminated symbol
//! ([`ChaseState::substitute`]) — no quadratic pair scans, no whole-state
//! rewrite passes.

use cqchase_ir::Fd;

use super::state::{CTerm, ChaseState, ConjId, Merge};

/// The FD rule met two distinct constants: the chase is the empty query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdFailure;

/// Applies the FD rule to `(c1, c2, fd)`. On a constant clash the state
/// is marked failed and all conjuncts are deleted.
pub(crate) fn apply(
    state: &mut ChaseState,
    c1: ConjId,
    c2: ConjId,
    fd: &Fd,
) -> Result<Vec<Merge>, FdFailure> {
    let u = state.term(c1, fd.rhs);
    let v = state.term(c2, fd.rhs);
    debug_assert_ne!(u, v, "the FD must be applicable");
    let (from, to) = match (&u, &v) {
        (CTerm::Const(_), CTerm::Const(_)) => {
            state.fail();
            return Err(FdFailure);
        }
        (CTerm::Const(_), CTerm::Var(b)) => (*b, u),
        (CTerm::Var(a), CTerm::Const(_)) => (*a, v),
        (CTerm::Var(a), CTerm::Var(b)) => {
            // Lexicographically first symbol wins; ordinal order encodes
            // "DVs precede NDVs, earlier creations precede later ones".
            if a < b {
                (*b, u)
            } else {
                (*a, v)
            }
        }
    };
    Ok(state.substitute(from, &to))
}

/// Exhausts the FD rule: repeatedly finds and applies the canonical
/// applicable FD until none is applicable (or the chase fails). Returns
/// the number of applications and all merges.
///
/// `hint`: if the state was FD-quiescent except for one new conjunct,
/// pass it to restrict the *first* scan; subsequent scans (after a
/// substitution changed other conjuncts) are full.
pub(crate) fn fd_phase(
    state: &mut ChaseState,
    fds: &[Fd],
    hint: Option<ConjId>,
) -> Result<(usize, Vec<Merge>), FdFailure> {
    if fds.is_empty() {
        return Ok((0, Vec::new()));
    }
    let mut steps = 0usize;
    let mut merges = Vec::new();
    let mut involving = hint;
    loop {
        match state.find_applicable_fd(fds, involving) {
            Some((c1, c2, fd_idx)) => {
                merges.extend(apply(state, c1, c2, &fds[fd_idx])?);
                steps += 1;
                involving = None; // substitution may enable arbitrary pairs
            }
            None => return Ok((steps, merges)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_ir::{parse_program, Program};

    fn state_of(src: &str) -> (Program, ChaseState, Vec<Fd>) {
        let p = parse_program(src).unwrap();
        let st = ChaseState::from_query(&p.queries[0], &p.catalog, true);
        let fds: Vec<Fd> = p.deps.fds().cloned().collect();
        (p, st, fds)
    }

    #[test]
    fn merge_two_variables_keeps_lex_first() {
        // R(x, y), R(x, z) with R: a -> b forces y = z.
        let (_, mut st, fds) =
            state_of("relation R(a, b). fd R: a -> b. Q(x) :- R(x, y), R(x, z).");
        let (steps, merges) = fd_phase(&mut st, &fds, None).unwrap();
        assert_eq!(steps, 1);
        // The two conjuncts became identical and merged.
        assert_eq!(merges.len(), 1);
        assert_eq!(st.num_alive(), 1);
        // Surviving term is `y` (created before `z`, so lex-first).
        let (id, _) = st.alive_conjuncts().next().unwrap();
        let v = st.term(id, 1).as_var().unwrap();
        assert_eq!(st.var_name(v), "y");
    }

    #[test]
    fn dv_beats_ndv() {
        // Q(x, w) :- R(x, w), R(x, y): w is a DV, y an NDV; the combined
        // symbol must be the DV even though `y` was interned... DVs always
        // precede NDVs in the order.
        let (_, mut st, fds) =
            state_of("relation R(a, b). fd R: a -> b. Q(x, w) :- R(x, y), R(x, w).");
        fd_phase(&mut st, &fds, None).unwrap();
        let (id, _) = st.alive_conjuncts().next().unwrap();
        let v = st.term(id, 1).as_var().unwrap();
        assert_eq!(st.var_name(v), "w");
        // Summary row untouched (it already held w).
        assert_eq!(st.summary()[1], CTerm::Var(v));
    }

    #[test]
    fn constant_beats_variable() {
        let (_, mut st, fds) =
            state_of("relation R(a, b). fd R: a -> b. Q(x) :- R(x, y), R(x, 7).");
        fd_phase(&mut st, &fds, None).unwrap();
        assert_eq!(st.num_alive(), 1);
        let (id, _) = st.alive_conjuncts().next().unwrap();
        assert!(st.term(id, 1).is_const());
    }

    #[test]
    fn constant_clash_fails() {
        let (_, mut st, fds) =
            state_of("relation R(a, b). fd R: a -> b. Q(x) :- R(x, 1), R(x, 2).");
        let r = fd_phase(&mut st, &fds, None);
        assert_eq!(r, Err(FdFailure));
        assert!(st.is_failed());
        assert_eq!(st.num_alive(), 0);
    }

    #[test]
    fn cascading_applications() {
        // R: a -> b twice-removed: R(x,y), R(x,z), S(y,u), S(z,v) with
        // S: a -> b. After y=z the S conjuncts collide on u=v.
        let (_, mut st, fds) = state_of(
            "relation R(a, b). relation S(a, b).
             fd R: a -> b. fd S: a -> b.
             Q(x) :- R(x, y), R(x, z), S(y, u), S(z, v).",
        );
        let (steps, _) = fd_phase(&mut st, &fds, None).unwrap();
        assert_eq!(steps, 2);
        assert_eq!(st.num_alive(), 2);
    }

    #[test]
    fn no_fds_is_noop() {
        let (_, mut st, fds) = state_of("relation R(a, b). Q(x) :- R(x, y), R(x, z).");
        let (steps, merges) = fd_phase(&mut st, &fds, None).unwrap();
        assert_eq!(steps, 0);
        assert!(merges.is_empty());
        assert_eq!(st.num_alive(), 2);
    }

    #[test]
    fn summary_row_is_rewritten() {
        // The FD merges the head variable's *occurrence*: Q(x, w) with w
        // merged into y? No — lex order keeps the DV; ensure the summary
        // reflects whichever symbol survived.
        let (_, mut st, fds) =
            state_of("relation R(a, b). fd R: a -> b. Q(x, w) :- R(x, w), R(x, y).");
        fd_phase(&mut st, &fds, None).unwrap();
        // w (DV) survives; summary unchanged and both conjuncts merged.
        assert_eq!(st.num_alive(), 1);
        let (id, _) = st.alive_conjuncts().next().unwrap();
        assert_eq!(st.summary()[1], st.term(id, 1));
    }

    #[test]
    fn composite_lhs() {
        let (_, mut st, fds) =
            state_of("relation R(a, b, c). fd R: a, b -> c. Q(x) :- R(x, x, u), R(x, x, v).");
        fd_phase(&mut st, &fds, None).unwrap();
        assert_eq!(st.num_alive(), 1);
    }

    #[test]
    fn lhs_mismatch_not_applicable() {
        let (_, mut st, fds) =
            state_of("relation R(a, b). fd R: a -> b. Q(x) :- R(x, u), R(y, v).");
        let (steps, _) = fd_phase(&mut st, &fds, None).unwrap();
        assert_eq!(steps, 0);
        assert_eq!(st.num_alive(), 2);
    }

    #[test]
    fn hinted_scan_matches_full_scan() {
        // After pushing a fresh conjunct R(x, n) into a quiescent state,
        // the hinted scan must find exactly what the full scan finds.
        let (p, mut st, fds) = state_of("relation R(a, b). fd R: a -> b. Q(x) :- R(x, y).");
        let r = p.catalog.resolve("R").unwrap();
        let copy_a = cqchase_ir::Ind::new(r, vec![0], r, vec![0]);
        let new = super::super::ind::apply_ind(&mut st, ConjId(0), &copy_a, 0);
        assert_eq!(st.term(new, 0), st.summary()[0]);
        assert!(st.term(new, 1).as_var().is_some());
        let hinted = st.find_applicable_fd(&fds, Some(new));
        let full = st.find_applicable_fd(&fds, None);
        assert_eq!(hinted, full);
        assert_eq!(hinted, Some((ConjId(0), new, 0)));
    }
}
