//! Query homomorphisms — the decision primitive of Theorem 1.
//!
//! A *query homomorphism* from `Q′` to a target (another query, or a
//! chase viewed as a query) is a symbol mapping that fixes constants,
//! sends every conjunct of `Q′` onto a conjunct of the target, and maps
//! the summary row of `Q′` onto the target's summary row.
//!
//! Both kinds of target are flattened into a [`HomTarget`] so one search
//! serves Chandra–Merlin containment (Σ = ∅), the classical FD-chase
//! test, and the bounded IND-chase test. The search itself is the shared
//! indexed join engine of [`cqchase_index`]: targets carry per-column
//! posting lists built at construction, and [`find_hom`] never scans a
//! relation's full row vector per atom. The seed's scan-based search is
//! retained in [`naive`] as a differential-testing reference.

use cqchase_index::{
    compile_probe, join_with, CancelToken, ColumnIndex, CompiledQuery, FactSource, FrozenSymPool,
    JoinOutcome, JoinScratch, Sym, SymPool,
};
use cqchase_ir::{Catalog, ConjunctiveQuery, Constant, RelId, Term, VarId};

use crate::chase::{CTerm, ChaseState, ConjId};

/// A symbol of a homomorphism target: a constant or an abstract node
/// (variable of the target query / chase symbol).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TSym {
    /// A constant — homomorphisms must map constants to themselves.
    Const(Constant),
    /// An abstract target symbol, identified by an ordinal.
    Node(u64),
}

/// One row (conjunct/tuple) of a homomorphism target.
#[derive(Debug, Clone)]
pub struct TargetRow {
    /// The row's symbols, one per column.
    pub syms: Vec<TSym>,
    /// Caller-meaningful identifier (conjunct id for chases, atom index
    /// for queries).
    pub tag: u32,
    /// Chase level of the row (0 for query targets).
    pub level: u32,
}

/// A flattened homomorphism target: rows per relation plus the summary
/// row the homomorphism must preserve, with prebuilt column indexes.
///
/// Targets are built once and only read afterwards (the symbol pool is
/// frozen at construction), so a `HomTarget` is `Send + Sync` and can be
/// probed concurrently from many worker threads.
#[derive(Debug, Clone)]
pub struct HomTarget {
    rows: Vec<Vec<TargetRow>>,
    summary: Vec<TSym>,
    /// Interned symbol space (rows and summary symbols), frozen.
    pool: FrozenSymPool<TSym>,
    /// Posting lists over the interned rows.
    cols: ColumnIndex,
    /// Interned rows, flattened per relation (arity-strided).
    sym_rows: Vec<Vec<Sym>>,
    /// Arity per relation (0 for relations without rows).
    arities: Vec<usize>,
}

impl HomTarget {
    /// Builds the index side of a target from its rows and summary.
    fn build(rows: Vec<Vec<TargetRow>>, summary: Vec<TSym>) -> HomTarget {
        let mut pool = SymPool::new();
        let arities: Vec<usize> = rows
            .iter()
            .map(|rs| rs.first().map_or(0, |r| r.syms.len()))
            .collect();
        let mut cols = ColumnIndex::new(arities.iter().copied());
        let mut sym_rows: Vec<Vec<Sym>> = Vec::with_capacity(rows.len());
        for (r, rs) in rows.iter().enumerate() {
            let rel = RelId(r as u32);
            let mut flat = Vec::with_capacity(rs.len() * arities[r]);
            for (i, row) in rs.iter().enumerate() {
                let start = flat.len();
                for s in &row.syms {
                    flat.push(pool.intern(s));
                }
                cols.insert_row(rel, i as u32, &flat[start..]);
            }
            sym_rows.push(flat);
        }
        // Summary symbols may not occur in any row (e.g. head constants);
        // intern them so pre-binding always has a symbol to bind to.
        for s in &summary {
            pool.intern(s);
        }
        HomTarget {
            rows,
            summary,
            pool: pool.freeze(),
            cols,
            sym_rows,
            arities,
        }
    }

    /// Builds a target from a query: nodes are its variables, rows its
    /// atoms, the summary its head.
    pub fn from_query(q: &ConjunctiveQuery, catalog: &Catalog) -> HomTarget {
        let conv = |t: &Term| match t {
            Term::Const(c) => TSym::Const(c.clone()),
            Term::Var(v) => TSym::Node(u64::from(v.0)),
        };
        let mut rows = vec![Vec::new(); catalog.len()];
        for (i, a) in q.atoms.iter().enumerate() {
            rows[a.relation.index()].push(TargetRow {
                syms: a.terms.iter().map(conv).collect(),
                tag: i as u32,
                level: 0,
            });
        }
        HomTarget::build(rows, q.head.iter().map(conv).collect())
    }

    /// Builds a target from a (partial) chase, keeping only live
    /// conjuncts with level ≤ `max_level` (pass `u32::MAX` for all).
    /// Nodes are chase symbols; the summary is the chase's (possibly
    /// FD-rewritten) summary row.
    ///
    /// For repeated searches against a *growing* chase prefer
    /// [`find_chase_hom`], which reuses the chase's own incremental
    /// indexes instead of flattening the state per call.
    pub fn from_chase(state: &ChaseState, max_level: u32) -> HomTarget {
        let conv = |t: CTerm| match t {
            CTerm::Const(c) => TSym::Const(c),
            CTerm::Var(v) => TSym::Node(u64::from(v.0)),
        };
        let mut rows = vec![Vec::new(); state.catalog().len()];
        for (id, c) in state.alive_conjuncts() {
            if c.level <= max_level {
                rows[c.rel.index()].push(TargetRow {
                    syms: state.terms(id).map(conv).collect(),
                    tag: id.0,
                    level: c.level,
                });
            }
        }
        HomTarget::build(rows, state.summary().iter().cloned().map(conv).collect())
    }

    /// Assembles a target from pre-built rows (indexed by relation id)
    /// and a summary row. Used by constructions that are neither queries
    /// nor chases (e.g. the Theorem 3 `Q*`).
    pub fn from_parts(rows: Vec<Vec<TargetRow>>, summary: Vec<TSym>) -> HomTarget {
        HomTarget::build(rows, summary)
    }

    /// The target's summary row.
    pub fn summary(&self) -> &[TSym] {
        &self.summary
    }

    /// Rows of `rel`.
    pub fn rows(&self, rel: RelId) -> &[TargetRow] {
        &self.rows[rel.index()]
    }

    /// Total row count.
    pub fn len(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Whether the target has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl FactSource for HomTarget {
    fn rel_size(&self, rel: RelId) -> usize {
        self.rows[rel.index()].len()
    }

    fn row_syms(&self, rel: RelId, row: u32) -> &[Sym] {
        let a = self.arities[rel.index()];
        let start = row as usize * a;
        &self.sym_rows[rel.index()][start..start + a]
    }

    fn posting_len(&self, rel: RelId, col: usize, sym: Sym) -> usize {
        self.cols.posting_len(rel, col, sym)
    }

    fn candidates(&self, rel: RelId, bound: &[(usize, Sym)], out: &mut Vec<u32>) {
        if bound.is_empty() {
            out.extend(0..self.rows[rel.index()].len() as u32);
        } else {
            self.cols
                .candidates(rel, bound, |row| self.row_syms(rel, row), out);
        }
    }

    fn sym_of_const(&self, c: &Constant) -> Option<Sym> {
        self.pool.get(&TSym::Const(c.clone()))
    }

    fn distinct_count(&self, rel: RelId, col: usize) -> usize {
        self.cols.distinct_count(rel, col)
    }
}

/// A witness homomorphism from a source query into a target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Homomorphism {
    /// Image of each source variable (indexed by `VarId`); `None` for
    /// variables not occurring in the source's body or head.
    pub var_images: Vec<Option<TSym>>,
    /// For each source atom, the `tag` of the target row it maps onto.
    pub atom_images: Vec<u32>,
    /// Maximum target-row level used (the *witness level* of Theorem 2).
    pub max_level: u32,
}

/// Pre-binds source head variables against a target summary row.
/// Returns `None` on a direct conflict (constant mismatch or two summary
/// positions forcing one variable to two symbols).
fn bind_summary(
    head: &[Term],
    summary: &[TSym],
    num_vars: usize,
    mut sym_of: impl FnMut(&TSym) -> Option<Sym>,
) -> Option<Vec<Option<Sym>>> {
    if head.len() != summary.len() {
        return None;
    }
    let mut bind: Vec<Option<Sym>> = vec![None; num_vars];
    for (t, s) in head.iter().zip(summary.iter()) {
        match t {
            Term::Const(c) => {
                if !matches!(s, TSym::Const(sc) if sc == c) {
                    return None;
                }
            }
            Term::Var(v) => {
                let sym = sym_of(s)?;
                match bind[v.index()] {
                    Some(b) if b != sym => return None,
                    _ => bind[v.index()] = Some(sym),
                }
            }
        }
    }
    Some(bind)
}

/// Searches for a query homomorphism from `source` into `target` that
/// maps the source's summary row onto the target's summary row.
///
/// Returns `None` when the output arities differ or no homomorphism
/// exists.
pub fn find_hom(source: &ConjunctiveQuery, target: &HomTarget) -> Option<Homomorphism> {
    let cq = compile_probe(source, target)?;
    probe(source, target, &cq, &mut JoinScratch::new())
}

/// One summary-preserving probe with an already-compiled plan: the
/// shared tail of [`find_hom`] and [`HomFinder::find`].
fn probe(
    source: &ConjunctiveQuery,
    target: &HomTarget,
    cq: &CompiledQuery,
    scratch: &mut JoinScratch,
) -> Option<Homomorphism> {
    let pre = bind_summary(&source.head, target.summary(), source.vars.len(), |s| {
        target.pool.get(s)
    })?;
    let mut found: Option<Homomorphism> = None;
    let outcome = join_with(target, cq, &pre, scratch, |bind, rows| {
        let mut max_level = 0;
        let atom_images: Vec<u32> = rows
            .iter()
            .enumerate()
            .map(|(i, &row)| {
                let r = &target.rows[source.atoms[i].relation.index()][row as usize];
                max_level = max_level.max(r.level);
                r.tag
            })
            .collect();
        found = Some(Homomorphism {
            var_images: bind
                .iter()
                .map(|b| b.map(|s| target.pool.resolve(s).clone()))
                .collect(),
            atom_images,
            max_level,
        });
        true
    });
    // A cancelled search also reports `Stopped`, but without a final
    // emission — callers consult their token to tell the cases apart.
    debug_assert!((outcome == JoinOutcome::Stopped) == found.is_some() || scratch.cancelled());
    found
}

/// A reusable homomorphism probe `source → target` over a **fixed**
/// [`HomTarget`]: the source query is compiled once as a head-bound
/// probe plan ([`compile_probe`]) and the join scratch is reused, so
/// repeated probes pay only the search itself; per-call [`find_hom`]
/// spends a measurable fraction of short probes recompiling the plan.
/// Production containment probes a growing chase through
/// [`ChaseHomFinder`] instead; this finder serves the benchmarks that
/// time search over a fixed target.
///
/// The target is frozen at construction, so the plan can never go stale
/// (no drift check needed — contrast [`ChaseHomFinder`]).
#[derive(Debug)]
pub struct HomFinder<'q, 't> {
    source: &'q ConjunctiveQuery,
    target: &'t HomTarget,
    /// Compile result, computed eagerly; `None` means some source
    /// constant is absent from the target — no homomorphism can exist.
    plan: Option<CompiledQuery>,
    scratch: JoinScratch,
}

impl<'q, 't> HomFinder<'q, 't> {
    /// Compiles `source` against `target` once.
    pub fn new(source: &'q ConjunctiveQuery, target: &'t HomTarget) -> HomFinder<'q, 't> {
        HomFinder {
            source,
            target,
            plan: compile_probe(source, target),
            scratch: JoinScratch::new(),
        }
    }

    /// Searches for a summary-preserving homomorphism, reusing the
    /// compiled plan and scratch. Same answer as
    /// [`find_hom`]`(source, target)`.
    pub fn find(&mut self) -> Option<Homomorphism> {
        let cq = self.plan.as_ref()?;
        probe(self.source, self.target, cq, &mut self.scratch)
    }
}

/// Chandra–Merlin containment primitive: a homomorphism `q_to → q_from`
/// (note the direction: `Q ⊆ Q′` iff `Q′` maps into `Q`).
pub fn find_query_hom(
    from: &ConjunctiveQuery,
    into: &ConjunctiveQuery,
    catalog: &Catalog,
) -> Option<Homomorphism> {
    find_hom(from, &HomTarget::from_query(into, catalog))
}

/// Searches for a homomorphism into a (partial) chase truncated at
/// `max_level`, using the chase's incrementally maintained indexes (no
/// per-call target flattening).
///
/// For repeated probes against the *same growing chase* (the
/// containment loop checks once per level) use a [`ChaseHomFinder`],
/// which compiles the source query once and reuses its join scratch.
pub fn find_chase_hom(
    source: &ConjunctiveQuery,
    state: &ChaseState,
    max_level: u32,
) -> Option<Homomorphism> {
    ChaseHomFinder::new(source).find(state, max_level)
}

/// A reusable homomorphism probe `source → chase`, for the containment
/// engine's per-level rechecks.
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
        let pre = bind_summary(
            &self.source.head,
            &view.summary_tsyms(),
            self.source.vars.len(),
            |s| view.sym_of_tsym(s),
        )?;
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
        join_with(&view, cq, &pre, &mut self.scratch, |bind, rows| {
            let mut max_used = 0;
            let atom_images: Vec<u32> = rows
                .iter()
                .map(|&row| {
                    max_used = max_used.max(state.conjunct(ConjId(row)).level);
                    row
                })
                .collect();
            found = Some(Homomorphism {
                var_images: bind.iter().map(|b| b.map(|s| view.tsym_of(s))).collect(),
                atom_images,
                max_level: max_used,
            });
            true
        });
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
            TSym::Const(c) => {
                let _ = writeln!(out, "  {name} -> {c}");
            }
            TSym::Node(n) => {
                let v = crate::chase::CVar(*n as u32);
                let _ = writeln!(out, "  {name} -> {}", state.var_name(v));
            }
        }
    }
    for (i, &tag) in h.atom_images.iter().enumerate() {
        let id = ConjId(tag);
        let _ = writeln!(
            out,
            "  atom {} -> [{}] {} (level {})",
            i,
            tag,
            state.render_conjunct(id),
            state.conjunct(id).level
        );
    }
    out
}

/// The seed's scan-based homomorphism search, retained verbatim as the
/// differential-testing and benchmarking reference for the indexed
/// engine. Per atom it loops over **all** target rows of the atom's
/// relation — correct, and the behavior the property tests compare the
/// indexed engine against.
pub mod naive {
    use std::collections::BTreeSet;

    use cqchase_ir::{ConjunctiveQuery, Term, VarId};

    use super::{HomTarget, Homomorphism, TSym, TargetRow};

    struct Search<'a> {
        source: &'a ConjunctiveQuery,
        target: &'a HomTarget,
        bind: Vec<Option<TSym>>,
        atom_rows: Vec<u32>,
        atom_levels: Vec<u32>,
    }

    impl Search<'_> {
        fn try_row(&mut self, atom_idx: usize, row: &TargetRow) -> Option<Vec<VarId>> {
            let atom = &self.source.atoms[atom_idx];
            let mut newly = Vec::new();
            for (t, s) in atom.terms.iter().zip(row.syms.iter()) {
                let ok = match t {
                    Term::Const(c) => matches!(s, TSym::Const(sc) if sc == c),
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
            let n_rows = self.target.rows(rel).len();
            for r in 0..n_rows {
                let row = self.target.rows(rel)[r].clone();
                if let Some(newly) = self.try_row(atom_idx, &row) {
                    self.atom_rows[atom_idx] = row.tag;
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
    fn atom_order(
        q: &ConjunctiveQuery,
        target: &HomTarget,
        pre_bound: &[Option<TSym>],
    ) -> Vec<usize> {
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
                let size = target.rows(atom.relation).len();
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

    /// The scan-based equivalent of [`super::find_hom`].
    pub fn find_hom(source: &ConjunctiveQuery, target: &HomTarget) -> Option<Homomorphism> {
        if source.head.len() != target.summary().len() {
            return None;
        }
        let mut bind: Vec<Option<TSym>> = vec![None; source.vars.len()];
        for (t, s) in source.head.iter().zip(target.summary().iter()) {
            match t {
                Term::Const(c) => {
                    if !matches!(s, TSym::Const(sc) if sc == c) {
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
            atom_rows: vec![0; source.atoms.len()],
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
        // At level 0 only R(x, y) exists: no hom for the 2-chain.
        assert!(find_chase_hom(qp, ch.state(), 0).is_none());
        // With level 1 the chase has R(y, n): the chain maps.
        let h = find_chase_hom(qp, ch.state(), 1).unwrap();
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
        let h = find_chase_hom(qp, ch.state(), 2).unwrap();
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
                let target = HomTarget::from_query(p.query(into).unwrap(), &p.catalog);
                let fast = find_hom(p.query(from).unwrap(), &target);
                let slow = naive::find_hom(p.query(from).unwrap(), &target);
                assert_eq!(
                    fast.is_some(),
                    slow.is_some(),
                    "hom {from} -> {into} disagreement"
                );
            }
        }
    }
}
