//! The Yannakakis fast path for acyclic conjunctive queries.
//!
//! At compile time a GYO ear reduction tests the query body's hypergraph
//! (vertices = variables, hyperedges = atom variable sets) for
//! α-acyclicity. When the reduction succeeds, the witness edges form a
//! join forest with the running-intersection property. Each edge's key
//! is `vars(a) ∩ vars(b)` whichever way it points, so the forest can be
//! rooted anywhere: each component is rooted at its first atom in the
//! compiler's unbound cost order (the cheapest atom to start from), and
//! the result is recorded as an [`AcyclicPlan`].
//!
//! Execution is then provably linear in input + output instead of
//! backtracking:
//!
//! 1. **Top-down candidates** — in pre-order (parents first), each
//!    atom's rows matching its constant slots and intra-atom repeated
//!    variables. A root scans its posting lists. A child whose parent's
//!    candidate list is shorter than its own scan instead probes the
//!    posting lists once per distinct parent key (the variables shared
//!    with the parent), which yields exactly `child ⋉ parent` already in
//!    key order; otherwise it scans like a root. Distinct keys select
//!    disjoint child rows, so a probe pass never produces more rows than
//!    the scan it replaces.
//! 2. **Bottom-up semijoin reduction** — leaves first, each atom's
//!    candidate list is sorted by its projection onto the variables
//!    shared with its parent, and parent rows with no matching child row
//!    are dropped. After this pass every surviving row extends to a full
//!    solution of its subtree.
//! 3. **Enumeration** — a pre-order walk over the forest. Each atom's
//!    matching rows are a contiguous run of its sorted candidate list
//!    (found by binary search on the parent-bound key), so enumeration
//!    never backtracks: every row tried completes to a solution.
//!
//! The running-intersection property guarantees that at enumeration time
//! the *only* already-bound variables of an atom are exactly the ones
//! shared with its parent — the binary-searched key — which is what makes
//! step 3 backtrack-free.
//!
//! In *distinct* mode (the evaluator's entry point, where only distinct
//! head-variable bindings matter), a subtree whose head variables are all
//! bound is collapsed to a single representative row: its choices cannot
//! change the head image, and the reduction pass already proved a
//! completion exists. Boolean queries collapse everything — evaluation
//! becomes a pure existence check.

use std::cmp::Ordering;

use cqchase_ir::RelId;

use crate::engine::{
    CompiledAtom, CompiledQuery, EmitFn, FactSource, JoinOutcome, JoinScratch, Slot,
};
use crate::sym::Sym;

/// Sentinel parent index for forest roots.
pub const NO_PARENT: u32 = u32::MAX;

/// A join forest over the atoms of an acyclic query, produced by GYO ear
/// reduction at compile time and rooted at the cheapest atom of each
/// component. All vectors are indexed by the *original* atom index.
#[derive(Debug, Clone)]
pub struct AcyclicPlan {
    /// Pre-order walk of the forest (every parent precedes its subtree;
    /// roots in cost order, siblings in ascending atom order).
    pub order: Vec<u32>,
    /// Parent atom per atom, [`NO_PARENT`] for roots.
    pub parent: Vec<u32>,
    /// Per atom: the variables shared with its parent, ascending. Empty
    /// for roots. By the running-intersection property these are exactly
    /// the atom's variables that are bound when enumeration reaches it.
    pub key_vars: Vec<Vec<u32>>,
    /// Per atom: this atom's column carrying each key variable (aligned
    /// with `key_vars`; first occurrence).
    pub key_cols: Vec<Vec<u32>>,
    /// Per atom: the *parent's* column carrying each key variable
    /// (aligned with `key_vars`).
    pub parent_cols: Vec<Vec<u32>>,
    /// Per atom: the head variables occurring anywhere in its subtree
    /// (itself included), ascending. Drives distinct-mode collapsing.
    pub subtree_heads: Vec<Vec<u32>>,
    /// Per atom: column pairs `(i, j)` that carry the same variable and
    /// must therefore hold equal symbols (intra-atom repeated-variable
    /// filter applied during candidate generation).
    pub eq_pairs: Vec<Vec<(u32, u32)>>,
}

/// Runs the GYO ear reduction over `atoms`. Returns the join-forest plan
/// when the body is α-acyclic, `None` when it is cyclic (the caller then
/// keeps the backtracking engine). `root_order` is a permutation of the
/// atom indices; each component of the forest is rooted at its first
/// atom in it.
pub(crate) fn build(
    atoms: &[CompiledAtom],
    head_vars: &[u32],
    root_order: &[u32],
) -> Option<AcyclicPlan> {
    let n = atoms.len();
    if n == 0 {
        return None;
    }
    debug_assert_eq!(root_order.len(), n, "root_order is a permutation");
    // Variable sets per atom, sorted + deduplicated.
    let vars: Vec<Vec<u32>> = atoms
        .iter()
        .map(|a| {
            let mut vs: Vec<u32> = a
                .slots
                .iter()
                .filter_map(|s| match s {
                    Slot::Var(v) => Some(*v),
                    Slot::Const(_) => None,
                })
                .collect();
            vs.sort_unstable();
            vs.dedup();
            vs
        })
        .collect();

    // Ear reduction; each removed ear records an undirected tree edge to
    // the witness that covered it.
    let mut active = vec![true; n];
    let mut adjacent: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut remaining = n;
    while remaining > 1 {
        let mut removed = false;
        for e in 0..n {
            if !active[e] {
                continue;
            }
            // Non-exclusive variables of `e`: those occurring in some
            // other still-active edge.
            let nonexcl: Vec<u32> = vars[e]
                .iter()
                .copied()
                .filter(|v| (0..n).any(|f| f != e && active[f] && vars[f].binary_search(v).is_ok()))
                .collect();
            if nonexcl.is_empty() {
                // Isolated edge: a component of its own.
                active[e] = false;
                remaining -= 1;
                removed = true;
                continue;
            }
            // `e` is an ear if one other active edge covers all its
            // non-exclusive variables; the two are joined by a tree edge.
            let witness = (0..n).find(|&f| {
                f != e && active[f] && nonexcl.iter().all(|v| vars[f].binary_search(v).is_ok())
            });
            if let Some(f) = witness {
                adjacent[e].push(f as u32);
                adjacent[f].push(e as u32);
                active[e] = false;
                remaining -= 1;
                removed = true;
            }
        }
        if !removed {
            return None; // no ear left with >1 edge standing: cyclic
        }
    }

    // Orient the forest and walk it in pre-order: each component hangs
    // from its first atom in `root_order`, siblings in ascending order.
    for adj in &mut adjacent {
        adj.sort_unstable();
    }
    let mut parent = vec![NO_PARENT; n];
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for &r in root_order {
        if seen[r as usize] {
            continue;
        }
        seen[r as usize] = true;
        let mut stack = vec![r];
        while let Some(a) = stack.pop() {
            order.push(a);
            for &b in adjacent[a as usize].iter().rev() {
                if !seen[b as usize] {
                    seen[b as usize] = true;
                    parent[b as usize] = a;
                    stack.push(b);
                }
            }
        }
    }
    debug_assert_eq!(order.len(), n, "the forest spans every atom");

    // Keys: for each non-root, the variables it shares with its parent
    // and where they sit in both atoms (first occurrence each).
    let col_of = |atom: &CompiledAtom, v: u32| -> u32 {
        atom.slots
            .iter()
            .position(|s| *s == Slot::Var(v))
            .expect("a shared variable occurs in both atoms") as u32
    };
    let mut key_vars = vec![Vec::new(); n];
    let mut key_cols = vec![Vec::new(); n];
    let mut parent_cols = vec![Vec::new(); n];
    for e in 0..n {
        if parent[e] == NO_PARENT {
            continue;
        }
        let f = parent[e] as usize;
        let shared: Vec<u32> = vars[e]
            .iter()
            .copied()
            .filter(|v| vars[f].binary_search(v).is_ok())
            .collect();
        key_cols[e] = shared.iter().map(|&v| col_of(&atoms[e], v)).collect();
        parent_cols[e] = shared.iter().map(|&v| col_of(&atoms[f], v)).collect();
        key_vars[e] = shared;
    }

    // Head variables per subtree: accumulate children into parents by
    // walking the pre-order backwards (children sit after their parent).
    let mut subtree_heads: Vec<Vec<u32>> = (0..n)
        .map(|e| {
            vars[e]
                .iter()
                .copied()
                .filter(|v| head_vars.contains(v))
                .collect()
        })
        .collect();
    for &a in order.iter().rev() {
        let a = a as usize;
        if parent[a] != NO_PARENT {
            let f = parent[a] as usize;
            let merged: Vec<u32> = subtree_heads[a].clone();
            let dst = &mut subtree_heads[f];
            dst.extend(merged);
            dst.sort_unstable();
            dst.dedup();
        }
    }

    // Intra-atom repeated-variable column pairs.
    let eq_pairs: Vec<Vec<(u32, u32)>> = atoms
        .iter()
        .map(|a| {
            let mut pairs = Vec::new();
            for j in 1..a.slots.len() {
                if let Slot::Var(v) = a.slots[j] {
                    if let Some(i) = a.slots[..j].iter().position(|s| *s == Slot::Var(v)) {
                        pairs.push((i as u32, j as u32));
                    }
                }
            }
            pairs
        })
        .collect();

    Some(AcyclicPlan {
        order,
        parent,
        key_vars,
        key_cols,
        parent_cols,
        subtree_heads,
        eq_pairs,
    })
}

/// Compares two rows of `rel` by their projection onto `cols`, breaking
/// ties by row id (total order ⇒ deterministic sorted candidate lists).
fn cmp_proj<S: FactSource>(src: &S, rel: RelId, cols: &[u32], r1: u32, r2: u32) -> Ordering {
    for &c in cols {
        let o = src.row_syms(rel, r1)[c as usize].cmp(&src.row_syms(rel, r2)[c as usize]);
        if o != Ordering::Equal {
            return o;
        }
    }
    r1.cmp(&r2)
}

/// Compares a child row's key projection against a parent row's.
fn cmp_child_parent<S: FactSource>(
    src: &S,
    rel_c: RelId,
    key_cols: &[u32],
    cr: u32,
    rel_p: RelId,
    parent_cols: &[u32],
    pr: u32,
) -> Ordering {
    for (kc, pc) in key_cols.iter().zip(parent_cols) {
        let o = src.row_syms(rel_c, cr)[*kc as usize].cmp(&src.row_syms(rel_p, pr)[*pc as usize]);
        if o != Ordering::Equal {
            return o;
        }
    }
    Ordering::Equal
}

/// Whether two rows of `rel` agree on their projection onto `cols`.
fn same_proj<S: FactSource>(src: &S, rel: RelId, cols: &[u32], r1: u32, r2: u32) -> bool {
    let (s1, s2) = (src.row_syms(rel, r1), src.row_syms(rel, r2));
    cols.iter().all(|&c| s1[c as usize] == s2[c as usize])
}

/// Probes the candidates of child atom `a` off its parent's candidate
/// list `parent_rows`: once per distinct parent key, with the key
/// columns bound on top of the constant bindings already in
/// `scratch.bound`.
///
/// Probing keys in ascending order leaves `out` sorted the way the
/// bottom-up pass sorts it (key projection, then row id), and distinct
/// keys select disjoint rows, so `out` is exactly `child ⋉ parent`
/// without duplicates.
fn probe_child<S: FactSource>(
    src: &S,
    cq: &CompiledQuery,
    plan: &AcyclicPlan,
    a: usize,
    parent_rows: &[u32],
    scratch: &mut JoinScratch,
    out: &mut Vec<u32>,
) {
    let JoinScratch { bound, keys, .. } = scratch;
    let f = plan.parent[a] as usize;
    let (kc, pc) = (&plan.key_cols[a], &plan.parent_cols[a]);
    let (rel_c, rel_p) = (cq.atoms[a].rel, cq.atoms[f].rel);
    keys.clear();
    keys.extend_from_slice(parent_rows);
    keys.sort_unstable_by(|&r1, &r2| cmp_proj(src, rel_p, pc, r1, r2));
    keys.dedup_by(|r1, r2| same_proj(src, rel_p, pc, *r1, *r2));
    let consts = bound.len();
    for &pr in keys.iter() {
        bound.truncate(consts);
        let syms = src.row_syms(rel_p, pr);
        bound.extend(
            kc.iter()
                .zip(pc)
                .map(|(&k, &p)| (k as usize, syms[p as usize])),
        );
        src.candidates(rel_c, bound, out);
    }
}

/// Executes an acyclic plan: top-down candidate generation, bottom-up
/// semijoin reduction, backtrack-free pre-order enumeration. Entered
/// only with an all-unbound binding table (pre-bound searches keep the
/// backtracking engine, whose cost-based order exploits the bindings
/// directly).
pub(crate) fn run<S: FactSource>(
    src: &S,
    cq: &CompiledQuery,
    plan: &AcyclicPlan,
    scratch: &mut JoinScratch,
    distinct: bool,
    emit: &mut EmitFn<'_>,
) -> JoinOutcome {
    let mut bufs = std::mem::take(&mut scratch.bufs);

    // 1. Per-atom candidates, parents first: constant slots, then either
    // a scan or (when the parent's list is the shorter side) probes
    // keyed by the parent's rows, then the repeated-variable filter.
    for &a in &plan.order {
        let a = a as usize;
        let atom = &cq.atoms[a];
        scratch.bound.clear();
        for (col, slot) in atom.slots.iter().enumerate() {
            if let Slot::Const(s) = slot {
                scratch.bound.push((col, *s));
            }
        }
        let mut buf = std::mem::take(&mut bufs[a]);
        buf.clear();
        let f = plan.parent[a];
        let probe = f != NO_PARENT && {
            // A scan reads the shortest constant posting list, or the
            // whole relation when no slot is constant.
            let scan_len = scratch
                .bound
                .iter()
                .map(|&(col, sym)| src.posting_len(atom.rel, col, sym))
                .min()
                .unwrap_or_else(|| src.rel_size(atom.rel));
            bufs[f as usize].len() < scan_len
        };
        if probe {
            probe_child(src, cq, plan, a, &bufs[f as usize], scratch, &mut buf);
        } else {
            src.candidates(atom.rel, &scratch.bound, &mut buf);
        }
        let eqp = &plan.eq_pairs[a];
        if !eqp.is_empty() {
            buf.retain(|&r| {
                let syms = src.row_syms(atom.rel, r);
                eqp.iter()
                    .all(|&(x, y)| syms[x as usize] == syms[y as usize])
            });
        }
        scratch.exec.candidates_scanned += buf.len() as u64;
        scratch.exec.atom_actual[a] += buf.len() as u64;
        let (empty, charge) = (buf.is_empty(), buf.len() as u64);
        bufs[a] = buf;
        if empty {
            scratch.bufs = bufs;
            return JoinOutcome::Exhausted;
        }
        if scratch.cancel.charge(charge) {
            scratch.bufs = bufs;
            return JoinOutcome::Stopped;
        }
    }

    // 2. Bottom-up semijoin reduction, leaves first (reverse pre-order):
    // sort each non-root's candidates by its key projection, then drop
    // parent rows with no matching child row. Because children are
    // processed before their parent, every list is fully reduced below
    // before it filters upward.
    for &a in plan.order.iter().rev() {
        let a = a as usize;
        if plan.parent[a] == NO_PARENT {
            continue;
        }
        let f = plan.parent[a] as usize;
        let (kc, pc) = (&plan.key_cols[a], &plan.parent_cols[a]);
        let (rel_c, rel_p) = (cq.atoms[a].rel, cq.atoms[f].rel);
        bufs[a].sort_unstable_by(|&r1, &r2| cmp_proj(src, rel_c, kc, r1, r2));
        let child = std::mem::take(&mut bufs[a]);
        scratch.exec.semijoin_retain_passes += 1;
        bufs[f].retain(|&pr| {
            child
                .binary_search_by(|&cr| cmp_child_parent(src, rel_c, kc, cr, rel_p, pc, pr))
                .is_ok()
        });
        bufs[a] = child;
        if bufs[f].is_empty() {
            scratch.bufs = bufs;
            return JoinOutcome::Exhausted;
        }
        if scratch.cancel.charge(bufs[a].len() as u64) {
            scratch.bufs = bufs;
            return JoinOutcome::Stopped;
        }
    }

    // 3. Enumeration.
    let JoinScratch {
        bind,
        rows,
        newly,
        exec,
        cancel,
        ..
    } = scratch;
    let mut walk = Enumerate {
        src,
        cq,
        plan,
        bufs: &bufs,
        distinct,
        bind,
        rows,
        newly,
        exec,
        cancel,
    };
    let stopped = walk.solve(0, emit);
    scratch.bufs = bufs;
    if stopped {
        JoinOutcome::Stopped
    } else {
        JoinOutcome::Exhausted
    }
}

struct Enumerate<'a, S: FactSource> {
    src: &'a S,
    cq: &'a CompiledQuery,
    plan: &'a AcyclicPlan,
    bufs: &'a [Vec<u32>],
    distinct: bool,
    bind: &'a mut Vec<Option<Sym>>,
    rows: &'a mut Vec<u32>,
    newly: &'a mut Vec<Vec<u32>>,
    exec: &'a mut crate::engine::ExecStats,
    cancel: &'a mut crate::engine::CancelState,
}

impl<S: FactSource> Enumerate<'_, S> {
    /// The contiguous run of `bufs[a]` matching the (parent-bound) key
    /// variables of atom `a`.
    fn equal_range(&self, a: usize) -> (usize, usize) {
        let list = &self.bufs[a];
        let kv = &self.plan.key_vars[a];
        let kc = &self.plan.key_cols[a];
        let rel = self.cq.atoms[a].rel;
        let cmp = |r: u32| -> Ordering {
            for k in 0..kv.len() {
                let have = self.src.row_syms(rel, r)[kc[k] as usize];
                let want = self.bind[kv[k] as usize]
                    .expect("running intersection: key vars are parent-bound");
                match have.cmp(&want) {
                    Ordering::Equal => {}
                    o => return o,
                }
            }
            Ordering::Equal
        };
        let lo = list.partition_point(|&r| cmp(r) == Ordering::Less);
        let hi = lo + list[lo..].partition_point(|&r| cmp(r) == Ordering::Equal);
        (lo, hi)
    }

    fn solve(&mut self, d: usize, emit: &mut EmitFn<'_>) -> bool {
        // A fired token unwinds like an emit stop (see `Search::solve`).
        if self.cancel.charge(1) {
            return true;
        }
        if d == self.plan.order.len() {
            self.exec.rows_emitted += 1;
            return emit(self.bind, self.rows);
        }
        let a = self.plan.order[d] as usize;
        let rel = self.cq.atoms[a].rel;
        // Distinct mode: when every head variable of this subtree is
        // already bound, its row choices cannot change the head image —
        // one representative suffices (reduction proved it completes).
        let take_one = self.distinct
            && self.plan.subtree_heads[a]
                .iter()
                .all(|&v| self.bind[v as usize].is_some());
        let (lo, hi) = if self.plan.parent[a] == NO_PARENT {
            (0, self.bufs[a].len())
        } else {
            self.equal_range(a)
        };
        let mut newly = std::mem::take(&mut self.newly[d]);
        let mut stopped = false;
        'rows: for idx in lo..hi {
            let row = self.bufs[a][idx];
            newly.clear();
            for (col, slot) in self.cq.atoms[a].slots.iter().enumerate() {
                if let Slot::Var(v) = slot {
                    let sym = self.src.row_syms(rel, row)[col];
                    match self.bind[*v as usize] {
                        Some(b) if b == sym => {}
                        Some(_) => {
                            for &u in &newly {
                                self.bind[u as usize] = None;
                            }
                            self.exec.backtracks += 1;
                            continue 'rows;
                        }
                        None => {
                            self.bind[*v as usize] = Some(sym);
                            newly.push(*v);
                        }
                    }
                }
            }
            self.rows[a] = row;
            if self.solve(d + 1, emit) {
                stopped = true;
                break;
            }
            for &u in &newly {
                self.bind[u as usize] = None;
            }
            if take_one {
                break;
            }
        }
        self.newly[d] = newly;
        stopped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_ir::{parse_program, ConjunctiveQuery};

    fn plan_of(text: &str) -> (ConjunctiveQuery, Option<AcyclicPlan>) {
        plan_rooted(text, None)
    }

    /// Builds the plan of `text`'s first query, rooted by `root_order`
    /// (identity when `None`).
    fn plan_rooted(
        text: &str,
        root_order: Option<&[u32]>,
    ) -> (ConjunctiveQuery, Option<AcyclicPlan>) {
        let p = parse_program(text).unwrap();
        let q = p.queries[0].clone();
        let atoms: Vec<CompiledAtom> = q
            .atoms
            .iter()
            .map(|a| CompiledAtom {
                rel: a.relation,
                slots: a
                    .terms
                    .iter()
                    .map(|t| match t {
                        cqchase_ir::Term::Var(v) => Slot::Var(v.0),
                        cqchase_ir::Term::Const(_) => Slot::Const(Sym(0)),
                    })
                    .collect(),
            })
            .collect();
        let head: Vec<u32> = q
            .head
            .iter()
            .filter_map(|t| match t {
                cqchase_ir::Term::Var(v) => Some(v.0),
                _ => None,
            })
            .collect();
        let identity: Vec<u32> = (0..atoms.len() as u32).collect();
        let plan = build(&atoms, &head, root_order.unwrap_or(&identity));
        (q, plan)
    }

    #[test]
    fn chains_and_stars_are_acyclic() {
        for text in [
            "relation R(a, b). Q(x) :- R(x, y), R(y, z), R(z, w).",
            "relation R(a, b). Q(c) :- R(c, x), R(c, y), R(c, z).",
            "relation R(a, b). relation S(b, c). Q(x) :- R(x, y), S(y, z).",
            "relation R(a, b). Q(x) :- R(x, x).",
        ] {
            let (_, plan) = plan_of(text);
            let plan = plan.expect("acyclic");
            assert_eq!(
                plan.parent.iter().filter(|&&p| p == NO_PARENT).count(),
                1,
                "connected bodies form a single tree"
            );
        }
    }

    #[test]
    fn cycles_are_rejected() {
        for text in [
            "relation R(a, b). Q(x) :- R(x, y), R(y, z), R(z, x).",
            "relation R(a, b). Q(x) :- R(x, y), R(y, z), R(z, w), R(w, x).",
        ] {
            let (_, plan) = plan_of(text);
            assert!(plan.is_none(), "cycle must fall back to backtracking");
        }
    }

    #[test]
    fn triangle_with_covering_atom_is_acyclic() {
        // α-acyclicity: a ternary atom covering the triangle makes the
        // body acyclic (every binary atom is an ear into T).
        let (_, plan) = plan_of(
            "relation R(a, b). relation T(a, b, c).
             Q(x) :- R(x, y), R(y, z), R(z, x), T(x, y, z).",
        );
        assert!(plan.is_some());
    }

    #[test]
    fn disconnected_bodies_form_a_forest() {
        let (_, plan) = plan_of("relation R(a, b). relation S(c, d). Q(x, u) :- R(x, y), S(u, v).");
        let plan = plan.unwrap();
        assert_eq!(plan.parent, vec![NO_PARENT, NO_PARENT]);
        assert_eq!(plan.order, vec![0, 1]);
    }

    #[test]
    fn key_columns_align_with_shared_vars() {
        // R(x,y), S(y,z): S… whichever becomes the child, the shared var
        // is y, sitting at col 1 of R and col 0 of S.
        let (_, plan) = plan_of("relation R(a, b). relation S(b, c). Q(x) :- R(x, y), S(y, z).");
        let plan = plan.unwrap();
        let child = (0..2).find(|&e| plan.parent[e] != NO_PARENT).unwrap();
        assert_eq!(plan.key_vars[child].len(), 1);
        let (kc, pc) = (plan.key_cols[child][0], plan.parent_cols[child][0]);
        if child == 0 {
            assert_eq!((kc, pc), (1, 0)); // y in R at 1, in S at 0
        } else {
            assert_eq!((kc, pc), (0, 1));
        }
    }

    #[test]
    fn components_are_rooted_at_their_first_pick() {
        let text = "relation R(a, b). Q(w) :- R(x, y), R(y, z), R(z, w).";
        let (_, plan) = plan_of(text);
        assert_eq!(
            plan.unwrap().parent[0],
            NO_PARENT,
            "identity order roots atom 0"
        );
        // Atom 2 picked first: the chain hangs from it, and every key is
        // still the variable its edge shares.
        let (_, plan) = plan_rooted(text, Some(&[2, 0, 1]));
        let plan = plan.unwrap();
        assert_eq!(plan.parent, vec![1, 2, NO_PARENT]);
        assert_eq!(plan.order, vec![2, 1, 0]);
        // R(x, y) under R(y, z): y sits at column 1 of the child and
        // column 0 of the parent.
        assert_eq!(
            (&plan.key_cols[0], &plan.parent_cols[0]),
            (&vec![1], &vec![0])
        );
        assert_eq!(
            (&plan.key_cols[1], &plan.parent_cols[1]),
            (&vec![1], &vec![0])
        );
        // Disconnected bodies: each component gets its own first pick.
        let (_, plan) = plan_rooted(
            "relation R(a, b). relation S(c, d). Q(x, u) :- R(x, y), S(u, v), R(y, z).",
            Some(&[2, 1, 0]),
        );
        let plan = plan.unwrap();
        assert_eq!(plan.parent, vec![2, NO_PARENT, NO_PARENT]);
        assert_eq!(plan.order, vec![2, 0, 1]);
    }

    #[test]
    fn subtree_heads_cover_descendants() {
        let (_, plan) = plan_of("relation R(a, b). Q(w) :- R(x, y), R(y, z), R(z, w).");
        let plan = plan.unwrap();
        // The root's subtree is the whole body, so it must list the head
        // variable; leaves not containing it must not.
        let root = (0..3).find(|&e| plan.parent[e] == NO_PARENT).unwrap();
        assert!(
            !plan.subtree_heads[root].is_empty(),
            "the root's subtree contains the whole body, hence the head var"
        );
    }
}
