//! Query isomorphism and the Chandra–Merlin core.
//!
//! Maier, Mendelzon & Sagiv's canonicity result (cited by the paper for
//! the FD chase) says the chase is unique *up to renaming of variables*;
//! this module supplies that notion of equality. Two queries are
//! isomorphic when a bijective variable renaming maps one onto the other
//! (atoms as sets, summary rows aligned). The [`cm_core`] of a query is
//! its minimal equivalent subquery under Σ = ∅ — unique up to
//! isomorphism, which makes it a canonical form for dependency-free
//! equivalence.

use std::hash::{Hash, Hasher};

use cqchase_index::{FxHashMap, FxHasher};
use cqchase_ir::{Catalog, ConjunctiveQuery, DependencySet, Term, VarId};

use crate::containment::{ContainmentEngineError, ContainmentOptions};
use crate::minimize::minimize;

/// Attempts to extend a variable bijection so `a_terms` maps onto
/// `b_terms` (same positions). Returns the newly bound pairs on success.
fn match_terms(
    a_terms: &[Term],
    b_terms: &[Term],
    fwd: &mut FxHashMap<VarId, VarId>,
    bwd: &mut FxHashMap<VarId, VarId>,
) -> Option<Vec<(VarId, VarId)>> {
    let mut newly = Vec::new();
    for (ta, tb) in a_terms.iter().zip(b_terms.iter()) {
        let ok = match (ta, tb) {
            (Term::Const(ca), Term::Const(cb)) => ca == cb,
            (Term::Var(va), Term::Var(vb)) => match (fwd.get(va), bwd.get(vb)) {
                (Some(mapped), _) => mapped == vb,
                (None, Some(_)) => false, // vb already taken by another var
                (None, None) => {
                    fwd.insert(*va, *vb);
                    bwd.insert(*vb, *va);
                    newly.push((*va, *vb));
                    true
                }
            },
            _ => false,
        };
        if !ok {
            for (va, vb) in &newly {
                fwd.remove(va);
                bwd.remove(vb);
            }
            return None;
        }
    }
    Some(newly)
}

fn search(
    a: &ConjunctiveQuery,
    b: &ConjunctiveQuery,
    idx: usize,
    used: &mut Vec<bool>,
    fwd: &mut FxHashMap<VarId, VarId>,
    bwd: &mut FxHashMap<VarId, VarId>,
) -> bool {
    if idx == a.atoms.len() {
        return true;
    }
    let atom_a = &a.atoms[idx];
    for (j, atom_b) in b.atoms.iter().enumerate() {
        if used[j] || atom_b.relation != atom_a.relation {
            continue;
        }
        if let Some(newly) = match_terms(&atom_a.terms, &atom_b.terms, fwd, bwd) {
            used[j] = true;
            if search(a, b, idx + 1, used, fwd, bwd) {
                return true;
            }
            used[j] = false;
            for (va, vb) in newly {
                fwd.remove(&va);
                bwd.remove(&vb);
            }
        }
    }
    false
}

/// Whether `a` and `b` are isomorphic: equal up to a bijective variable
/// renaming that aligns atoms (as multisets) and summary rows.
pub fn is_isomorphic(a: &ConjunctiveQuery, b: &ConjunctiveQuery) -> bool {
    if a.atoms.len() != b.atoms.len() || a.head.len() != b.head.len() {
        return false;
    }
    let mut fwd = FxHashMap::default();
    let mut bwd = FxHashMap::default();
    // Summary rows must align under the same bijection.
    if match_terms(&a.head, &b.head, &mut fwd, &mut bwd).is_none() {
        return false;
    }
    let mut used = vec![false; b.atoms.len()];
    search(a, b, 0, &mut used, &mut fwd, &mut bwd)
}

/// A 64-bit key *invariant under isomorphism*: renaming variables or
/// reordering atoms never changes a query's key, so isomorphic queries
/// always collide. The converse does not hold — distinct queries can
/// share a key (it is a hash) — so callers bucketing by `iso_key` must
/// confirm candidates with [`is_isomorphic`] before treating them as
/// equal. That is exactly how the `cqchase-service` semantic cache uses
/// it: a key collision costs one extra exact check, never a wrong
/// answer.
///
/// Construction: each variable gets a signature from its (sorted)
/// occurrence profile — the multiset of `(relation, column)` slots it
/// fills, head slots tagged specially — then atoms hash positionally
/// over constant values and variable signatures, the atom hashes are
/// sorted (order-invariance), and the summary row is hashed
/// positionally on top.
pub fn iso_key(q: &ConjunctiveQuery) -> u64 {
    /// Tag for head occurrences in a variable's profile (no relation id
    /// collides with it).
    const HEAD_REL: u64 = u64::MAX;
    // Every variable occurrence as `(var, relation, column)`, sorted so
    // each variable's profile is one sorted run: one buffer instead of
    // one vector per variable.
    let slots = q.head.len() + q.atoms.iter().map(|a| a.terms.len()).sum::<usize>();
    let mut occ: Vec<(u32, (u64, u64))> = Vec::with_capacity(slots);
    for atom in &q.atoms {
        for (col, t) in atom.terms.iter().enumerate() {
            if let Term::Var(v) = t {
                occ.push((v.0, (u64::from(atom.relation.0), col as u64)));
            }
        }
    }
    for (col, t) in q.head.iter().enumerate() {
        if let Term::Var(v) = t {
            occ.push((v.0, (HEAD_REL, col as u64)));
        }
    }
    occ.sort_unstable();
    // A profile hashes like the slice of its `(relation, column)` pairs.
    let profile_hash = |profile: &[(u32, (u64, u64))]| {
        let mut h = FxHasher::default();
        h.write_usize(profile.len());
        for (_, slot) in profile {
            slot.hash(&mut h);
        }
        h.finish()
    };
    let mut var_sig: Vec<u64> = vec![profile_hash(&[]); q.vars.len()];
    for run in occ.chunk_by(|a, b| a.0 == b.0) {
        var_sig[run[0].0 as usize] = profile_hash(run);
    }
    let hash_terms = |terms: &[Term], h: &mut FxHasher| {
        for t in terms {
            match t {
                Term::Var(v) => {
                    h.write_u8(0);
                    h.write_u64(var_sig[v.index()]);
                }
                Term::Const(c) => {
                    h.write_u8(1);
                    c.hash(h);
                }
            }
        }
    };
    let mut atom_hashes: Vec<u64> = q
        .atoms
        .iter()
        .map(|atom| {
            let mut h = FxHasher::default();
            atom.relation.0.hash(&mut h);
            hash_terms(&atom.terms, &mut h);
            h.finish()
        })
        .collect();
    atom_hashes.sort_unstable();
    let mut h = FxHasher::default();
    h.write_usize(q.atoms.len());
    h.write_usize(q.head.len());
    atom_hashes.hash(&mut h);
    hash_terms(&q.head, &mut h);
    h.finish()
}

/// The Chandra–Merlin core: the minimal Σ-free equivalent subquery
/// (unique up to isomorphism).
pub fn cm_core(
    q: &ConjunctiveQuery,
    catalog: &Catalog,
) -> Result<ConjunctiveQuery, ContainmentEngineError> {
    let sigma = DependencySet::new();
    Ok(minimize(q, &sigma, catalog, &ContainmentOptions::default())?.query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_ir::parse_program;

    #[test]
    fn renamed_queries_are_isomorphic() {
        let p = parse_program(
            "relation R(a, b).
             Q1(x) :- R(x, y), R(y, x).
             Q2(u) :- R(u, w), R(w, u).",
        )
        .unwrap();
        assert!(is_isomorphic(
            p.query("Q1").unwrap(),
            p.query("Q2").unwrap()
        ));
    }

    #[test]
    fn atom_order_irrelevant() {
        let p = parse_program(
            "relation R(a, b). relation S(a).
             Q1(x) :- R(x, y), S(y).
             Q2(x) :- S(z), R(x, z).",
        )
        .unwrap();
        assert!(is_isomorphic(
            p.query("Q1").unwrap(),
            p.query("Q2").unwrap()
        ));
    }

    #[test]
    fn summary_must_align() {
        let p = parse_program(
            "relation R(a, b).
             Q1(x) :- R(x, y).
             Q2(y2) :- R(x2, y2).",
        )
        .unwrap();
        assert!(!is_isomorphic(
            p.query("Q1").unwrap(),
            p.query("Q2").unwrap()
        ));
    }

    #[test]
    fn repeated_vars_distinguish() {
        let p = parse_program(
            "relation R(a, b).
             Q1(x) :- R(x, x).
             Q2(x) :- R(x, y).",
        )
        .unwrap();
        assert!(!is_isomorphic(
            p.query("Q1").unwrap(),
            p.query("Q2").unwrap()
        ));
    }

    #[test]
    fn bijection_required() {
        // Q1 folds two vars onto one in Q2's shape — hom exists both
        // directions? Here: R(x,y),R(x,z) vs R(u,v): different atom
        // counts, trivially non-isomorphic; with equal counts, a
        // non-injective map must be rejected.
        let p = parse_program(
            "relation R(a, b).
             Q1(x) :- R(x, y), R(x, z).
             Q2(x) :- R(x, w), R(w, x).",
        )
        .unwrap();
        assert!(!is_isomorphic(
            p.query("Q1").unwrap(),
            p.query("Q2").unwrap()
        ));
    }

    #[test]
    fn constants_must_match() {
        let p = parse_program(
            "relation R(a, b).
             Q1(x) :- R(x, 1).
             Q2(x) :- R(x, 2).
             Q3(x) :- R(x, 1).",
        )
        .unwrap();
        assert!(!is_isomorphic(
            p.query("Q1").unwrap(),
            p.query("Q2").unwrap()
        ));
        assert!(is_isomorphic(
            p.query("Q1").unwrap(),
            p.query("Q3").unwrap()
        ));
    }

    #[test]
    fn core_is_unique_up_to_isomorphism() {
        // Two syntactically different queries with the same core.
        let p = parse_program(
            "relation R(a, b).
             Q1(x) :- R(x, y), R(x, z), R(x, w).
             Q2(x) :- R(x, u), R(x, v).",
        )
        .unwrap();
        let c1 = cm_core(p.query("Q1").unwrap(), &p.catalog).unwrap();
        let c2 = cm_core(p.query("Q2").unwrap(), &p.catalog).unwrap();
        assert_eq!(c1.num_atoms(), 1);
        assert!(is_isomorphic(&c1, &c2));
    }

    #[test]
    fn iso_key_invariant_under_renaming_and_reordering() {
        let p = parse_program(
            "relation R(a, b). relation S(a).
             Q1(x) :- R(x, y), S(y), R(y, x).
             Q2(u) :- S(w), R(w, u), R(u, w).
             Q3(x) :- R(x, y), S(x), R(y, x).",
        )
        .unwrap();
        // Q2 is Q1 renamed + reordered; Q3 differs (S applied to the DV).
        assert_eq!(
            iso_key(p.query("Q1").unwrap()),
            iso_key(p.query("Q2").unwrap())
        );
        assert_ne!(
            iso_key(p.query("Q1").unwrap()),
            iso_key(p.query("Q3").unwrap())
        );
        assert!(is_isomorphic(
            p.query("Q1").unwrap(),
            p.query("Q2").unwrap()
        ));
    }

    #[test]
    fn iso_key_distinguishes_heads_and_constants() {
        let p = parse_program(
            "relation R(a, b).
             Q1(x) :- R(x, y).
             Q2(y2) :- R(x2, y2).
             Q3(x) :- R(x, 1).
             Q4(x) :- R(x, 2).",
        )
        .unwrap();
        let keys: Vec<u64> = p.queries.iter().map(iso_key).collect();
        assert_ne!(keys[0], keys[1], "head position matters");
        assert_ne!(keys[2], keys[3], "constant values matter");
        assert_ne!(keys[0], keys[2], "const vs var matters");
    }

    #[test]
    fn core_of_rigid_query_is_itself() {
        let p = parse_program(
            "relation R(a, b).
             Q(x) :- R(x, y), R(y, x).",
        )
        .unwrap();
        let c = cm_core(p.query("Q").unwrap(), &p.catalog).unwrap();
        assert_eq!(c.num_atoms(), 2);
        assert!(is_isomorphic(&c, p.query("Q").unwrap()));
    }
}
