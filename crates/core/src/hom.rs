//! Query homomorphisms — the decision primitive of Theorem 1.
//!
//! A *query homomorphism* from `Q′` to a target (another query, or a
//! chase viewed as a query) is a symbol mapping that fixes constants,
//! sends every conjunct of `Q′` onto a conjunct of the target, and maps
//! the summary row of `Q′` onto the target's summary row.
//!
//! Every target is a [`ChaseState`]. A query is its own chase under
//! Σ = ∅ (Chandra–Merlin), so [`find_query_hom`] probes the query's
//! level-0 state, and Theorem 3's finite `Q*` is itself a query
//! ([`QStar::to_query`](crate::finite::qstar::QStar::to_query)). One
//! search, [`ChaseHomFinder`], runs the shared indexed join engine of
//! [`cqchase_index`] over the chase's incrementally maintained posting
//! lists, so it never scans a relation's full row vector per atom. The
//! seed's scan-based search is retained in [`naive`] as a
//! differential-testing reference.

use cqchase_index::{
    compile_probe, join_with, CancelToken, CompiledQuery, JoinOutcome, JoinScratch, Sym,
};
use cqchase_ir::{Catalog, ConjunctiveQuery, Term, VarId};

use crate::chase::{CTerm, ChaseState, ConjId};

/// A witness homomorphism from a source query into a chase state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Homomorphism {
    /// Image of each source variable (indexed by `VarId`); `None` for
    /// variables not occurring in the source's body or head.
    pub var_images: Vec<Option<CTerm>>,
    /// For each source atom, the conjunct it maps onto.
    pub atom_images: Vec<ConjId>,
    /// Maximum level of an image conjunct (the *witness level* of
    /// Theorem 2).
    pub max_level: u32,
}

/// Pre-binds source head variables against the state's summary row.
/// Returns `None` on a direct conflict (constant mismatch or two summary
/// positions forcing one variable to two symbols).
fn bind_summary(head: &[Term], state: &ChaseState, num_vars: usize) -> Option<Vec<Option<Sym>>> {
    let summary = state.summary();
    if head.len() != summary.len() {
        return None;
    }
    let mut bind: Vec<Option<Sym>> = vec![None; num_vars];
    for (t, s) in head.iter().zip(summary) {
        match t {
            Term::Const(c) => {
                if !matches!(s, CTerm::Const(sc) if sc == c) {
                    return None;
                }
            }
            Term::Var(v) => {
                let sym = state.sym_of(s)?;
                match bind[v.index()] {
                    Some(b) if b != sym => return None,
                    _ => bind[v.index()] = Some(sym),
                }
            }
        }
    }
    Some(bind)
}

/// Chandra–Merlin containment primitive: a homomorphism `from → into`
/// (note the direction: `Q ⊆ Q′` iff `Q′` maps into `Q`), searched in
/// `into`'s level-0 chase state — exactly what containment builds for
/// Σ = ∅. Atom images are conjunct ids of that state, in which
/// duplicate atoms of `into` collapse to one conjunct.
pub fn find_query_hom(
    from: &ConjunctiveQuery,
    into: &ConjunctiveQuery,
    catalog: &Catalog,
) -> Option<Homomorphism> {
    ChaseHomFinder::new(from).find(&ChaseState::from_query(into, catalog, false), 0)
}

/// The indexed homomorphism search `source → chase`: it compiles the
/// source once as a head-bound probe plan and reuses its join scratch,
/// so the containment engine's per-level rechecks pay only the search.
///
/// The compiled plan embeds symbols resolved against the chase's
/// constant pool. That pool is fully populated when the chase is
/// initialized from its query (IND applications only mint fresh
/// variables, FD substitutions only reuse existing terms), so the plan
/// stays valid as the chase grows — but it is **per chase**: probing a
/// different `ChaseState` with the same finder is a logic error.
#[derive(Debug)]
pub struct ChaseHomFinder<'q> {
    source: &'q ConjunctiveQuery,
    /// `None` until the first probe; then the compile result (which may
    /// itself be `None`: some source constant is absent from the chase,
    /// so no level can ever admit a homomorphism).
    plan: Option<Option<CompiledQuery>>,
    scratch: JoinScratch,
}

impl<'q> ChaseHomFinder<'q> {
    /// A finder for homomorphisms from `source`.
    pub fn new(source: &'q ConjunctiveQuery) -> ChaseHomFinder<'q> {
        ChaseHomFinder {
            source,
            plan: None,
            scratch: JoinScratch::new(),
        }
    }

    /// Installs a [`CancelToken`] on the finder's join scratch: probes
    /// stop at coalesced intervals once it fires. A cancelled probe
    /// returns `None` **without** certifying absence — check
    /// [`ChaseHomFinder::cancelled`] before trusting a negative.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.scratch.set_cancel(token);
    }

    /// Whether the latest probe was cut short by the cancel token.
    pub fn cancelled(&self) -> bool {
        self.scratch.cancelled()
    }

    /// Searches for a homomorphism into `state` truncated at
    /// `max_level`, compiling the source query on the first call and
    /// recompiling when the chase has grown ≥2x past the plan's stats
    /// snapshot, so a stale ordering does not persist across the whole
    /// containment loop. (A branching Σ doubles the chase per level; a
    /// successor-style Σ grows it by about |Q| conjuncts per level, so
    /// there the plan is recompiled only a few times.)
    pub fn find(&mut self, state: &ChaseState, max_level: u32) -> Option<Homomorphism> {
        let view = state.hom_source(max_level);
        let pre = bind_summary(&self.source.head, state, self.source.vars.len())?;
        if let Some(Some(cq)) = &self.plan {
            if cq.stats_drifted(&view) {
                // Constants only ever get interned (IND steps mint fresh
                // variables, FD steps reuse terms), so a recompile of a
                // previously satisfiable plan stays satisfiable.
                self.plan = None;
            }
        }
        let plan = self
            .plan
            .get_or_insert_with(|| compile_probe(self.source, &view));
        let cq = plan.as_ref()?;
        let mut found: Option<Homomorphism> = None;
        let outcome = join_with(&view, cq, &pre, &mut self.scratch, |bind, rows| {
            let atom_images: Vec<ConjId> = rows.iter().map(|&row| ConjId(row)).collect();
            found = Some(Homomorphism {
                var_images: bind.iter().map(|b| b.map(|s| state.term_of(s))).collect(),
                max_level: atom_images
                    .iter()
                    .map(|&id| state.conjunct(id).level)
                    .max()
                    .unwrap_or(0),
                atom_images,
            });
            true
        });
        // A cancelled search also reports `Stopped`, but without a final
        // emission — callers consult `cancelled` to tell the cases apart.
        debug_assert!((outcome == JoinOutcome::Stopped) == found.is_some() || self.cancelled());
        found
    }
}

/// Renders a witness homomorphism `source → chase` as a human-readable
/// certificate: one line per variable mapping and one per conjunct
/// image. This is the "short proof" of Theorem 2's NP membership made
/// printable.
pub fn render_chase_witness(
    h: &Homomorphism,
    source: &ConjunctiveQuery,
    state: &ChaseState,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "witness homomorphism (max level {}):", h.max_level);
    for (i, img) in h.var_images.iter().enumerate() {
        let Some(img) = img else { continue };
        let name = source.vars.name(VarId(i as u32));
        match img {
            CTerm::Const(c) => {
                let _ = writeln!(out, "  {name} -> {c}");
            }
            CTerm::Var(v) => {
                let _ = writeln!(out, "  {name} -> {}", state.var_name(*v));
            }
        }
    }
    for (i, &id) in h.atom_images.iter().enumerate() {
        let _ = writeln!(
            out,
            "  atom {} -> [{}] {} (level {})",
            i,
            id.0,
            state.render_conjunct(id),
            state.conjunct(id).level
        );
    }
    out
}

/// The seed's scan-based homomorphism search, retained as the
/// differential-testing and benchmarking reference for the indexed
/// engine. It reads a plain row snapshot of a chase state
/// ([`naive::Rows`]), and per atom it loops over **all** rows of the
/// atom's relation — correct, and the behavior the property tests
/// compare the indexed engine against.
pub mod naive {
    use std::collections::BTreeSet;

    use cqchase_ir::{ConjunctiveQuery, Term, VarId};

    use super::Homomorphism;
    use crate::chase::{CTerm, ChaseState, ConjId};

    /// One row of a [`Rows`] snapshot.
    #[derive(Debug, Clone)]
    struct Row {
        terms: Vec<CTerm>,
        id: ConjId,
        level: u32,
    }

    /// The live conjuncts of a chase state up to a level cut, copied out
    /// per relation with no index, plus the summary row. Build it once
    /// outside any timed loop: the search scans it.
    #[derive(Debug, Clone)]
    pub struct Rows {
        rows: Vec<Vec<Row>>,
        summary: Vec<CTerm>,
    }

    impl Rows {
        /// Snapshots the live conjuncts of `state` with level ≤
        /// `max_level` (pass `u32::MAX` for all).
        pub fn from_state(state: &ChaseState, max_level: u32) -> Rows {
            let mut rows = vec![Vec::new(); state.catalog().len()];
            for (id, c) in state.alive_conjuncts() {
                if c.level <= max_level {
                    rows[c.rel.index()].push(Row {
                        terms: state.terms(id).collect(),
                        id,
                        level: c.level,
                    });
                }
            }
            Rows {
                rows,
                summary: state.summary().to_vec(),
            }
        }
    }

    struct Search<'a> {
        source: &'a ConjunctiveQuery,
        target: &'a Rows,
        bind: Vec<Option<CTerm>>,
        atom_rows: Vec<ConjId>,
        atom_levels: Vec<u32>,
    }

    impl Search<'_> {
        fn try_row(&mut self, atom_idx: usize, row: &Row) -> Option<Vec<VarId>> {
            let atom = &self.source.atoms[atom_idx];
            let mut newly = Vec::new();
            for (t, s) in atom.terms.iter().zip(row.terms.iter()) {
                let ok = match t {
                    Term::Const(c) => matches!(s, CTerm::Const(sc) if sc == c),
                    Term::Var(v) => match &self.bind[v.index()] {
                        Some(b) => b == s,
                        None => {
                            self.bind[v.index()] = Some(s.clone());
                            newly.push(*v);
                            true
                        }
                    },
                };
                if !ok {
                    for u in &newly {
                        self.bind[u.index()] = None;
                    }
                    return None;
                }
            }
            Some(newly)
        }

        fn solve(&mut self, order: &[usize], depth: usize) -> bool {
            if depth == order.len() {
                return true;
            }
            let atom_idx = order[depth];
            let rel = self.source.atoms[atom_idx].relation;
            let n_rows = self.target.rows[rel.index()].len();
            for r in 0..n_rows {
                let row = self.target.rows[rel.index()][r].clone();
                if let Some(newly) = self.try_row(atom_idx, &row) {
                    self.atom_rows[atom_idx] = row.id;
                    self.atom_levels[atom_idx] = row.level;
                    if self.solve(order, depth + 1) {
                        return true;
                    }
                    for u in newly {
                        self.bind[u.index()] = None;
                    }
                }
            }
            false
        }
    }

    /// Greedy atom order: most bound symbols first, fewer candidate rows
    /// as tie-break.
    fn atom_order(q: &ConjunctiveQuery, target: &Rows, pre_bound: &[Option<CTerm>]) -> Vec<usize> {
        let n = q.atoms.len();
        let mut order = Vec::with_capacity(n);
        let mut used = vec![false; n];
        let mut bound: BTreeSet<VarId> = pre_bound
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_some())
            .map(|(i, _)| VarId(i as u32))
            .collect();
        for _ in 0..n {
            let mut best: Option<(usize, usize, usize)> = None;
            for (i, atom) in q.atoms.iter().enumerate() {
                if used[i] {
                    continue;
                }
                let score = atom
                    .terms
                    .iter()
                    .filter(|t| match t {
                        Term::Const(_) => true,
                        Term::Var(v) => bound.contains(v),
                    })
                    .count();
                let size = target.rows[atom.relation.index()].len();
                let better = match best {
                    None => true,
                    Some((_, s, sz)) => score > s || (score == s && size < sz),
                };
                if better {
                    best = Some((i, score, size));
                }
            }
            let (i, _, _) = best.expect("unused atom exists");
            used[i] = true;
            bound.extend(q.atoms[i].vars());
            order.push(i);
        }
        order
    }

    /// The scan-based equivalent of [`super::ChaseHomFinder::find`] on
    /// the state and level cut `target` was snapshotted from.
    pub fn find_hom(source: &ConjunctiveQuery, target: &Rows) -> Option<Homomorphism> {
        if source.head.len() != target.summary.len() {
            return None;
        }
        let mut bind: Vec<Option<CTerm>> = vec![None; source.vars.len()];
        for (t, s) in source.head.iter().zip(target.summary.iter()) {
            match t {
                Term::Const(c) => {
                    if !matches!(s, CTerm::Const(sc) if sc == c) {
                        return None;
                    }
                }
                Term::Var(v) => match &bind[v.index()] {
                    Some(b) => {
                        if b != s {
                            return None;
                        }
                    }
                    None => bind[v.index()] = Some(s.clone()),
                },
            }
        }
        let order = atom_order(source, target, &bind);
        let mut search = Search {
            source,
            target,
            bind,
            atom_rows: vec![ConjId(0); source.atoms.len()],
            atom_levels: vec![0; source.atoms.len()],
        };
        if search.solve(&order, 0) {
            Some(Homomorphism {
                max_level: search.atom_levels.iter().copied().max().unwrap_or(0),
                var_images: search.bind,
                atom_images: search.atom_rows,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_ir::parse_program;

    #[test]
    fn identity_hom_exists() {
        let p = parse_program("relation R(a, b). Q(x) :- R(x, y), R(y, x).").unwrap();
        let q = &p.queries[0];
        let h = find_query_hom(q, q, &p.catalog).unwrap();
        assert_eq!(h.atom_images.len(), 2);
        assert_eq!(h.max_level, 0);
    }

    #[test]
    fn chandra_merlin_direction() {
        // Q ⊆ Q′ without dependencies iff hom Q′ → Q.
        // Q(x) :- R(x, y), R(y, z)  is contained in  Q′(x) :- R(x, y).
        let p = parse_program(
            "relation R(a, b).
             Q(x) :- R(x, y), R(y, z).
             Qp(x) :- R(x, w).",
        )
        .unwrap();
        let q = p.query("Q").unwrap();
        let qp = p.query("Qp").unwrap();
        assert!(find_query_hom(qp, q, &p.catalog).is_some());
        assert!(find_query_hom(q, qp, &p.catalog).is_none());
    }

    #[test]
    fn summary_must_be_preserved() {
        // Both queries have a body hom, but the summary rows must align:
        // Q(x) :- R(x, y) and Qy(y) :- R(x, y) are incomparable.
        let p = parse_program(
            "relation R(a, b).
             Q(x) :- R(x, y).
             Qy(y2) :- R(x2, y2).",
        )
        .unwrap();
        let q = p.query("Q").unwrap();
        let qy = p.query("Qy").unwrap();
        assert!(find_query_hom(q, qy, &p.catalog).is_none());
        assert!(find_query_hom(qy, q, &p.catalog).is_none());
    }

    #[test]
    fn constants_fixed() {
        let p = parse_program(
            "relation R(a, b).
             Q1(x) :- R(x, 1).
             Q2(x) :- R(x, y).",
        )
        .unwrap();
        let q1 = p.query("Q1").unwrap();
        let q2 = p.query("Q2").unwrap();
        // Q1 ⊆ Q2: map y ↦ 1.
        assert!(find_query_hom(q2, q1, &p.catalog).is_some());
        // Q2 ⊄ Q1: constant 1 has no preimage.
        assert!(find_query_hom(q1, q2, &p.catalog).is_none());
    }

    #[test]
    fn repeated_vars_constrain() {
        let p = parse_program(
            "relation R(a, b).
             Qxx(x) :- R(x, x).
             Qxy(x) :- R(x, y).",
        )
        .unwrap();
        let qxx = p.query("Qxx").unwrap();
        let qxy = p.query("Qxy").unwrap();
        // R(x,x) ⊆ R(x,y): hom sends y ↦ x.
        assert!(find_query_hom(qxy, qxx, &p.catalog).is_some());
        assert!(find_query_hom(qxx, qxy, &p.catalog).is_none());
    }

    #[test]
    fn hom_into_chase_levels() {
        use crate::chase::{Chase, ChaseBudget, ChaseMode};
        let p = parse_program(
            "relation R(a, b).
             ind R[2] <= R[1].
             Q(x) :- R(x, y).
             Qp(x) :- R(x, y), R(y, z).",
        )
        .unwrap();
        let mut ch = Chase::new(
            p.query("Q").unwrap(),
            &p.deps,
            &p.catalog,
            ChaseMode::Required,
        );
        ch.expand_to_level(3, ChaseBudget::default());
        let qp = p.query("Qp").unwrap();
        let mut finder = ChaseHomFinder::new(qp);
        // At level 0 only R(x, y) exists: no hom for the 2-chain.
        assert!(finder.find(ch.state(), 0).is_none());
        // With level 1 the chase has R(y, n): the chain maps.
        let h = finder.find(ch.state(), 1).unwrap();
        assert_eq!(h.max_level, 1);
    }

    #[test]
    fn witness_renders() {
        use crate::chase::{Chase, ChaseBudget, ChaseMode};
        let p = parse_program(
            "relation R(a, b).
             ind R[2] <= R[1].
             Q(x) :- R(x, y).
             Qp(x) :- R(x, y), R(y, z).",
        )
        .unwrap();
        let mut ch = Chase::new(
            p.query("Q").unwrap(),
            &p.deps,
            &p.catalog,
            ChaseMode::Required,
        );
        ch.expand_to_level(2, ChaseBudget::default());
        let qp = p.query("Qp").unwrap();
        let h = ChaseHomFinder::new(qp).find(ch.state(), 2).unwrap();
        let text = render_chase_witness(&h, qp, ch.state());
        assert!(text.contains("max level 1"), "{text}");
        assert!(text.contains("atom 0"), "{text}");
        assert!(text.contains("atom 1"), "{text}");
        assert!(text.contains("x ->"), "{text}");
    }

    #[test]
    fn boolean_source() {
        let p = parse_program(
            "relation R(a, b).
             B() :- R(x, x).
             Q() :- R(u, v).",
        )
        .unwrap();
        let b = p.query("B").unwrap();
        let q = p.query("Q").unwrap();
        // Q ⊆ B is false (hom B → Q needs R(x,x) image); B ⊆ Q is true.
        assert!(find_query_hom(b, q, &p.catalog).is_none());
        assert!(find_query_hom(q, b, &p.catalog).is_some());
    }

    #[test]
    fn arity_mismatch_is_none() {
        let p = parse_program(
            "relation R(a, b).
             Q1(x) :- R(x, y).
             Q2(x, y2) :- R(x, y2).",
        )
        .unwrap();
        assert!(
            find_query_hom(p.query("Q1").unwrap(), p.query("Q2").unwrap(), &p.catalog).is_none()
        );
    }

    #[test]
    fn empty_target_no_hom() {
        let p = parse_program(
            "relation R(a, b). relation S(a).
             Q(x) :- R(x, y).
             Qs(x) :- R(x, y), S(x).",
        )
        .unwrap();
        // Qs needs an S row; Q's target has none.
        assert!(
            find_query_hom(p.query("Qs").unwrap(), p.query("Q").unwrap(), &p.catalog).is_none()
        );
    }

    #[test]
    fn indexed_agrees_with_naive_on_query_targets() {
        let p = parse_program(
            "relation R(a, b). relation S(a, b).
             A(x) :- R(x, y), S(y, z), R(z, x).
             B(x) :- R(x, y), S(y, y).
             C(x) :- R(x, x).
             D(x) :- R(x, y), R(y, z), S(z, 1).",
        )
        .unwrap();
        let names = ["A", "B", "C", "D"];
        for from in names {
            for into in names {
                let into = p.query(into).unwrap();
                let rows =
                    naive::Rows::from_state(&ChaseState::from_query(into, &p.catalog, false), 0);
                let fast = find_query_hom(p.query(from).unwrap(), into, &p.catalog);
                let slow = naive::find_hom(p.query(from).unwrap(), &rows);
                assert_eq!(
                    fast.is_some(),
                    slow.is_some(),
                    "hom {from} -> {} disagreement",
                    into.name
                );
            }
        }
    }

    #[test]
    fn duplicate_target_atoms_collapse() {
        // The level-0 state of D keeps one R(x, y), so S(y) is conjunct 1
        // (it was atom 2 of D), and the witness names conjunct ids.
        let p = parse_program(
            "relation R(a, b). relation S(a).
             D(x) :- R(x, y), R(x, y), S(y).
             P(x) :- S(y), R(x, y).",
        )
        .unwrap();
        let d = p.query("D").unwrap();
        let st = ChaseState::from_query(d, &p.catalog, false);
        assert_eq!(st.num_alive(), 2);
        let h = find_query_hom(p.query("P").unwrap(), d, &p.catalog).unwrap();
        assert_eq!(h.atom_images, vec![ConjId(1), ConjId(0)]);
        assert_eq!(st.render_conjunct(ConjId(1)), "S(y)");
        assert_eq!(h.max_level, 0);
    }

    #[test]
    fn head_constant_outside_the_body() {
        // 5 and 6 occur only in the heads; the target's level-0 state
        // still interns its head constant for pre-binding.
        let p = parse_program(
            "relation R(a, b).
             Q(x, 5) :- R(x, y).
             P(x, 5) :- R(x, z).
             P6(x, 6) :- R(x, z).",
        )
        .unwrap();
        let (q, p5, p6) = (
            p.query("Q").unwrap(),
            p.query("P").unwrap(),
            p.query("P6").unwrap(),
        );
        let st = ChaseState::from_query(p5, &p.catalog, false);
        assert!(st
            .sym_of(&CTerm::Const(cqchase_ir::Constant::int(5)))
            .is_some());
        let h = find_query_hom(q, p5, &p.catalog).unwrap();
        assert_eq!(h.atom_images, vec![ConjId(0)]);
        assert!(find_query_hom(p5, q, &p.catalog).is_some());
        assert!(find_query_hom(q, p6, &p.catalog).is_none());
        assert!(find_query_hom(p6, q, &p.catalog).is_none());
    }
}
