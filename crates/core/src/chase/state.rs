//! Chase state: symbols with a total lexicographic order, conjuncts with
//! levels, the summary row, the arc structure of the chase graph — and
//! the incrementally maintained indexes every chase-rule application and
//! homomorphism search runs against.
//!
//! A conjunct's terms are stored once, as its interned row: conjuncts
//! live back to back in one flat symbol buffer with a start offset per
//! conjunct, and [`ChaseState::terms`] decodes a row on demand. Adding a
//! conjunct appends to that buffer rather than allocating a row, and the
//! FD rule rewrites rows in place.
//!
//! The rest of the index side (constant pool, per-column posting lists,
//! whole-row dedup, per-variable occurrence lists) is derived from the
//! rows: every mutation goes through `ChaseState::seal_row` /
//! [`ChaseState::substitute`] so the two never diverge. This is what
//! lets the FD rule, the R-chase's witness checks, and
//! [`find_chase_hom`](crate::hom::find_chase_hom) run without rescanning
//! the conjunct vector. Whole-row dedup and occurrence lists serve only
//! the FD rule, so they are kept only when Σ has FDs.
//!
//! Symbols store their provenance, not their names: an IND step creates
//! a symbol with one append, and [`ChaseState::var_name`] renders the
//! paper's encoded name when something is printed.

use std::borrow::Cow;

use cqchase_index::{ColumnIndex, DedupIndex, FactSource, FxHashMap, FxHashSet, Sym, SymPool};
use cqchase_ir::{Catalog, ConjunctiveQuery, Constant, Ind, RelId, Term, VarId, VarKind};

use crate::hom::TSym;

/// A chase symbol (variable) identified by its **ordinal**: the position
/// in the chase's symbol table.
///
/// The ordinal *is* the paper's lexicographic order: distinguished
/// variables of the original query come first, then its nondistinguished
/// variables, then every chase-created NDV in creation order ("this
/// symbol following all previously introduced symbols in the
/// lexicographic order used by the FD chase rule").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CVar(pub u32);

impl CVar {
    /// The ordinal as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A term inside the chase: a constant or a chase symbol.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CTerm {
    /// A constant (fixed by every homomorphism).
    Const(Constant),
    /// A chase variable.
    Var(CVar),
}

impl CTerm {
    /// The variable inside, if any.
    pub fn as_var(&self) -> Option<CVar> {
        match self {
            CTerm::Var(v) => Some(*v),
            CTerm::Const(_) => None,
        }
    }

    /// Whether this is a constant.
    pub fn is_const(&self) -> bool {
        matches!(self, CTerm::Const(_))
    }
}

/// Where a chase symbol came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CVarOrigin {
    /// A variable of the original query.
    Query {
        /// Its id in the query's variable table.
        var: VarId,
        /// DV or NDV.
        kind: VarKind,
    },
    /// An NDV created by an IND chase-rule application. The fields encode
    /// the paper's naming scheme: "a name that encodes A, c, the IND, and
    /// the level of c′".
    Created {
        /// Column (attribute position) the symbol was created in.
        attr: usize,
        /// The conjunct the IND was applied to.
        parent: ConjId,
        /// Index of the IND in Σ's declaration order.
        ind_idx: usize,
        /// Level of the *created* conjunct.
        level: u32,
    },
}

/// Identifier of a conjunct within the chase, assigned in creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConjId(pub u32);

impl ConjId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One conjunct (tuple) of the chase: its relation and bookkeeping.
/// Its terms live in the chase's interned rows; read them with
/// [`ChaseState::terms`] or [`ChaseState::term`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conjunct {
    /// The relation this conjunct belongs to.
    pub rel: RelId,
    /// The paper's *level*: 0 for original conjuncts, parent's level + 1
    /// for IND-created ones, minimum on FD merges.
    pub level: u32,
    /// `false` once this conjunct has been merged into another by the FD
    /// rule (the survivor keeps `true`).
    pub alive: bool,
    /// When dead: who absorbed it.
    pub merged_into: Option<ConjId>,
}

/// Arc kinds of the chase graph (Figure 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArcKind {
    /// The IND application created the target conjunct.
    Ordinary,
    /// (R-chase) the required conjunct already existed; points at it.
    Cross,
}

/// One labelled arc of the chase graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaseArc {
    /// Source conjunct (the one the IND was applied to).
    pub from: ConjId,
    /// Target conjunct (created, or pre-existing for cross arcs).
    pub to: ConjId,
    /// Index of the IND in Σ's declaration order (the arc label).
    pub ind_idx: usize,
    /// Ordinary or cross.
    pub kind: ArcKind,
}

/// A merge of two conjuncts that became identical after a substitution:
/// `dead` was absorbed into `survivor` (which keeps the minimum level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Merge {
    /// The absorbed conjunct.
    pub dead: ConjId,
    /// The conjunct that remains alive.
    pub survivor: ConjId,
}

/// The derived index side of a chase state.
///
/// Symbols are encoded as `Sym(const_id << 1)` for interned constants and
/// `Sym(ordinal << 1 | 1)` for chase variables, so fresh variables never
/// touch the pool.
#[derive(Debug, Clone, Default)]
struct ChaseIndex {
    consts: SymPool<Constant>,
    /// Posting lists; row ids are `ConjId.0`.
    cols: ColumnIndex,
    /// Whole-row dedup over live conjuncts.
    dedup: DedupIndex,
    /// Interned terms of every conjunct, back to back in creation order
    /// (dead rows retained); read through [`ChaseIndex::row`].
    sym_flat: Vec<Sym>,
    /// Where each conjunct's row starts in `sym_flat` (`ConjId`-indexed),
    /// plus one trailing entry: the buffer's length.
    row_start: Vec<usize>,
    /// Live conjunct ids per relation, ascending.
    rel_rows: Vec<Vec<u32>>,
    /// Live conjunct ids containing each chase variable, ascending.
    var_occ: Vec<Vec<u32>>,
    /// Whether `dedup` and `var_occ` are maintained. Only the FD rule
    /// reads them, so a chase whose Σ has no FDs skips them.
    fd_indexes: bool,
}

impl ChaseIndex {
    fn const_sym(&mut self, c: &Constant) -> Sym {
        Sym(self.consts.intern(c).0 << 1)
    }

    fn var_sym(v: CVar) -> Sym {
        Sym((v.0 << 1) | 1)
    }

    fn term_sym(&mut self, t: &CTerm) -> Sym {
        match t {
            CTerm::Const(c) => self.const_sym(c),
            CTerm::Var(v) => ChaseIndex::var_sym(*v),
        }
    }

    fn sym_var(sym: Sym) -> Option<CVar> {
        (sym.0 & 1 == 1).then_some(CVar(sym.0 >> 1))
    }

    /// The term behind an interned symbol.
    fn sym_term(&self, sym: Sym) -> CTerm {
        match ChaseIndex::sym_var(sym) {
            Some(v) => CTerm::Var(v),
            None => CTerm::Const(self.consts.resolve(Sym(sym.0 >> 1)).clone()),
        }
    }

    /// The span of `id`'s row in `sym_flat`.
    #[inline]
    fn span(&self, id: ConjId) -> std::ops::Range<usize> {
        self.row_start[id.index()]..self.row_start[id.index() + 1]
    }

    /// The interned terms of conjunct `id`.
    #[inline]
    fn row(&self, id: ConjId) -> &[Sym] {
        &self.sym_flat[self.span(id)]
    }

    /// Mutable interned terms of conjunct `id`.
    #[inline]
    fn row_mut(&mut self, id: ConjId) -> &mut [Sym] {
        let span = self.span(id);
        &mut self.sym_flat[span]
    }

    fn occ_insert(&mut self, sym: Sym, row: u32) {
        if let Some(v) = ChaseIndex::sym_var(sym) {
            if self.var_occ.len() <= v.index() {
                self.var_occ.resize(v.index() + 1, Vec::new());
            }
            let list = &mut self.var_occ[v.index()];
            if let Err(pos) = list.binary_search(&row) {
                list.insert(pos, row);
            }
        }
    }

    fn occ_remove(&mut self, sym: Sym, row: u32) {
        if let Some(v) = ChaseIndex::sym_var(sym) {
            if let Some(list) = self.var_occ.get_mut(v.index()) {
                if let Ok(pos) = list.binary_search(&row) {
                    list.remove(pos);
                }
            }
        }
    }
}

/// The complete (partial) chase: symbols, conjuncts, summary row, arcs.
#[derive(Debug, Clone)]
pub struct ChaseState {
    pub(crate) catalog: Catalog,
    /// Provenance per symbol ordinal.
    pub(crate) vars: Vec<CVarOrigin>,
    /// Names of the query's variables, by ordinal (they come first).
    query_names: Vec<String>,
    pub(crate) conjuncts: Vec<Conjunct>,
    pub(crate) summary: Vec<CTerm>,
    pub(crate) arcs: Vec<ChaseArc>,
    /// Set when the FD rule met two distinct constants: the chase is the
    /// empty query ("this query cannot be chased to an equivalent query
    /// obeying the given FD").
    pub(crate) failed: bool,
    index: ChaseIndex,
}

impl ChaseState {
    /// Initializes the state from a query: its conjuncts at level 0, its
    /// variables with DVs preceding NDVs in the symbol order. Syntactic
    /// duplicates collapse (the paper's `C_Q` is a *set* of conjuncts).
    /// `has_fds` says whether Σ has FDs, i.e. whether the FD rule's
    /// indexes (whole-row dedup, occurrence lists) must be maintained.
    pub(crate) fn from_query(q: &ConjunctiveQuery, catalog: &Catalog, has_fds: bool) -> ChaseState {
        // Map query VarIds to chase ordinals: DVs first (in VarId order),
        // then NDVs (in VarId order).
        let mut order: Vec<VarId> = q.vars.iter().map(|(v, _)| v).collect();
        order.sort_by_key(|&v| (q.vars.kind(v) != VarKind::Distinguished, v));
        let mut to_cvar: FxHashMap<VarId, CVar> = FxHashMap::default();
        let mut vars = Vec::with_capacity(order.len());
        let mut query_names = Vec::with_capacity(order.len());
        for v in order {
            let cv = CVar(vars.len() as u32);
            to_cvar.insert(v, cv);
            vars.push(CVarOrigin::Query {
                var: v,
                kind: q.vars.kind(v),
            });
            query_names.push(q.vars.name(v).to_owned());
        }
        let mut state = ChaseState {
            catalog: catalog.clone(),
            vars,
            query_names,
            conjuncts: Vec::new(),
            summary: q
                .head
                .iter()
                .map(|t| match t {
                    Term::Const(c) => CTerm::Const(c.clone()),
                    Term::Var(v) => CTerm::Var(to_cvar[v]),
                })
                .collect(),
            arcs: Vec::new(),
            failed: false,
            index: ChaseIndex {
                cols: ColumnIndex::new(catalog.rel_ids().map(|r| catalog.arity(r))),
                row_start: vec![0],
                rel_rows: vec![Vec::new(); catalog.len()],
                fd_indexes: has_fds,
                ..ChaseIndex::default()
            },
        };
        let mut seen = FxHashSet::default();
        for a in &q.atoms {
            if seen.insert(a) {
                for t in &a.terms {
                    let sym = match t {
                        Term::Const(c) => state.index.const_sym(c),
                        Term::Var(v) => ChaseIndex::var_sym(to_cvar[v]),
                    };
                    state.index.sym_flat.push(sym);
                }
                state.seal_row(a.relation, 0);
            }
        }
        // Intern summary constants (head constants need not occur in any
        // conjunct, but homomorphism pre-binding must resolve them).
        let summary = state.summary.clone();
        for t in &summary {
            state.index.term_sym(t);
        }
        state
    }

    /// The catalog the chase runs against.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Whether the FD rule failed on a constant clash (empty chase).
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// The summary row (rewritten by FD merges as the chase proceeds).
    pub fn summary(&self) -> &[CTerm] {
        &self.summary
    }

    /// All conjunct slots, dead ones included (use
    /// [`ChaseState::alive_conjuncts`] for the live view).
    pub fn all_conjuncts(&self) -> &[Conjunct] {
        &self.conjuncts
    }

    /// The conjunct at `id`.
    pub fn conjunct(&self, id: ConjId) -> &Conjunct {
        &self.conjuncts[id.index()]
    }

    /// Conjunct `id`'s term in column `col`, read from its interned row.
    pub fn term(&self, id: ConjId, col: usize) -> CTerm {
        self.index.sym_term(self.index.row(id)[col])
    }

    /// Conjunct `id`'s terms, one per column, read from its interned row.
    /// Dead conjuncts keep the row they had when they were merged.
    pub fn terms(&self, id: ConjId) -> impl ExactSizeIterator<Item = CTerm> + '_ {
        self.index
            .row(id)
            .iter()
            .map(|&sym| self.index.sym_term(sym))
    }

    /// Live conjuncts with their ids, in creation order.
    pub fn alive_conjuncts(&self) -> impl Iterator<Item = (ConjId, &Conjunct)> {
        self.conjuncts
            .iter()
            .enumerate()
            .filter(|(_, c)| c.alive)
            .map(|(i, c)| (ConjId(i as u32), c))
    }

    /// Number of live conjuncts.
    pub fn num_alive(&self) -> usize {
        self.index.rel_rows.iter().map(Vec::len).sum()
    }

    /// All arcs recorded so far.
    pub fn arcs(&self) -> &[ChaseArc] {
        &self.arcs
    }

    /// Provenance of the symbol with ordinal `v`.
    pub fn var_origin(&self, v: CVar) -> &CVarOrigin {
        &self.vars[v.index()]
    }

    /// Display name of a symbol: query variables keep their names;
    /// created NDVs get the paper's encoding of their provenance,
    /// `n{ordinal}_c{parent}i{ind}a{attr}L{level}`, rendered here on
    /// demand rather than stored.
    pub fn var_name(&self, v: CVar) -> Cow<'_, str> {
        match self.vars[v.index()] {
            CVarOrigin::Query { .. } => Cow::Borrowed(&self.query_names[v.index()]),
            CVarOrigin::Created {
                attr,
                parent,
                ind_idx,
                level,
            } => Cow::Owned(format!(
                "n{}_c{}i{}a{}L{}",
                v.0, parent.0, ind_idx, attr, level
            )),
        }
    }

    /// Number of symbols ever created.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Follows merge links to the live representative of `id`.
    pub fn resolve_conjunct(&self, mut id: ConjId) -> ConjId {
        while let Some(next) = self.conjuncts[id.index()].merged_into {
            id = next;
        }
        id
    }

    /// The maximum level among live conjuncts (`None` when the chase is
    /// empty, e.g. after failure).
    pub fn max_level(&self) -> Option<u32> {
        self.conjuncts
            .iter()
            .filter(|c| c.alive)
            .map(|c| c.level)
            .max()
    }

    /// Live conjunct count per level (index = level).
    pub fn level_histogram(&self) -> Vec<usize> {
        let mut h = Vec::new();
        for c in self.conjuncts.iter().filter(|c| c.alive) {
            let l = c.level as usize;
            if h.len() <= l {
                h.resize(l + 1, 0);
            }
            h[l] += 1;
        }
        h
    }

    /// Creates a fresh NDV with the paper's provenance encoding; its name
    /// lexicographically follows all earlier symbols by construction
    /// (ordinal order *is* the order).
    pub(crate) fn fresh_var(
        &mut self,
        attr: usize,
        parent: ConjId,
        ind_idx: usize,
        level: u32,
    ) -> CVar {
        let cv = CVar(self.vars.len() as u32);
        self.vars.push(CVarOrigin::Created {
            attr,
            parent,
            ind_idx,
            level,
        });
        cv
    }

    /// Applies the IND rule's construction: appends `parent`'s child over
    /// `ind`'s right-hand relation at `level`, copying `parent[X]` into
    /// the columns `Y` and minting a fresh NDV for every other column.
    /// The row is written straight into the flat buffer, so the step
    /// allocates nothing of its own.
    pub(crate) fn push_ind_child(
        &mut self,
        parent: ConjId,
        ind: &Ind,
        ind_idx: usize,
        level: u32,
    ) -> ConjId {
        let from = self.index.row_start[parent.index()];
        for col in 0..self.catalog.arity(ind.rhs_rel) {
            let sym = match ind.rhs_cols.iter().position(|&y| y == col) {
                Some(k) => self.index.sym_flat[from + ind.lhs_cols[k]],
                None => ChaseIndex::var_sym(self.fresh_var(col, parent, ind_idx, level)),
            };
            self.index.sym_flat.push(sym);
        }
        self.seal_row(ind.rhs_rel, level)
    }

    /// Turns the symbols appended to the flat buffer since the last row
    /// into a new conjunct of `rel` at `level`, registering it in every
    /// index. The caller guarantees it is not a duplicate of a live
    /// conjunct (IND children carry fresh NDVs or were witness-checked
    /// first).
    fn seal_row(&mut self, rel: RelId, level: u32) -> ConjId {
        let id = ConjId(self.conjuncts.len() as u32);
        let index = &mut self.index;
        index.row_start.push(index.sym_flat.len());
        let span = index.span(id);
        index
            .cols
            .insert_row(rel, id.0, &index.sym_flat[span.clone()]);
        if index.fd_indexes {
            let prev = index.dedup.insert(rel, &index.sym_flat[span.clone()], id.0);
            debug_assert!(prev.is_none(), "seal_row must not duplicate a row");
            for k in span {
                let sym = index.sym_flat[k];
                index.occ_insert(sym, id.0);
            }
        }
        let list = &mut index.rel_rows[rel.index()];
        debug_assert!(list.last().is_none_or(|&l| l < id.0));
        list.push(id.0);
        self.conjuncts.push(Conjunct {
            rel,
            level,
            alive: true,
            merged_into: None,
        });
        id
    }

    /// Kills `dead`, recording `survivor` as its representative; fixes
    /// every index. The caller has already rewritten terms so that both
    /// rows are identical.
    fn kill_conjunct(&mut self, dead: ConjId, survivor: ConjId) {
        let rel = self.conjuncts[dead.index()].rel;
        let syms = self.index.row(dead).to_vec();
        self.index.cols.remove_row(rel, dead.0, &syms);
        for &s in &syms {
            self.index.occ_remove(s, dead.0);
        }
        let list = &mut self.index.rel_rows[rel.index()];
        if let Ok(pos) = list.binary_search(&dead.0) {
            list.remove(pos);
        }
        let c = &mut self.conjuncts[dead.index()];
        c.alive = false;
        c.merged_into = Some(survivor);
        let lvl = c.level;
        let s = &mut self.conjuncts[survivor.index()];
        s.level = s.level.min(lvl);
    }

    /// Marks the chase failed (FD constant clash): deletes every conjunct
    /// and clears the live indexes.
    pub(crate) fn fail(&mut self) {
        self.failed = true;
        for c in &mut self.conjuncts {
            c.alive = false;
        }
        self.index.cols = ColumnIndex::new(self.catalog.rel_ids().map(|r| self.catalog.arity(r)));
        self.index.dedup = DedupIndex::new();
        for list in &mut self.index.rel_rows {
            list.clear();
        }
        for list in &mut self.index.var_occ {
            list.clear();
        }
    }

    /// Substitutes the variable `from ↦ to` through every live conjunct
    /// and the summary row, merging conjuncts that become identical
    /// (earliest id survives, donating the minimum level). This is the
    /// FD chase rule's mutation primitive; the occurrence index makes it
    /// proportional to the rows actually containing `from`, not the
    /// whole chase.
    pub(crate) fn substitute(&mut self, from: CVar, to: &CTerm) -> Vec<Merge> {
        debug_assert!(self.index.fd_indexes, "the FD rule needs its indexes");
        let from_sym = ChaseIndex::var_sym(from);
        let to_sym = self.index.term_sym(to);
        debug_assert_ne!(from_sym, to_sym);
        let rows = self
            .index
            .var_occ
            .get_mut(from.index())
            .map(std::mem::take)
            .unwrap_or_default();
        let mut merges = Vec::new();
        for row in rows {
            let id = ConjId(row);
            debug_assert!(self.conjuncts[id.index()].alive);
            let rel = self.conjuncts[id.index()].rel;
            // Un-register the old row shape.
            let mut syms = self.index.row(id).to_vec();
            self.index.dedup.remove(rel, &syms, row);
            // Rewrite syms + postings in the affected columns.
            for (col, sym) in syms.iter_mut().enumerate() {
                if *sym == from_sym {
                    self.index
                        .cols
                        .replace_in_col(rel, col, row, from_sym, to_sym);
                    *sym = to_sym;
                }
            }
            self.index.row_mut(id).copy_from_slice(&syms);
            self.index.occ_insert(to_sym, row);
            // Re-register, merging on collision (min id survives).
            if let Some(other) = self.index.dedup.try_insert(rel, &syms, row) {
                let (survivor, dead) = if other < row {
                    (ConjId(other), id)
                } else {
                    (id, ConjId(other))
                };
                if survivor.0 == row {
                    // `try_insert` left the old holder in place; the
                    // rewritten row outranks it.
                    self.index.dedup.insert(rel, &syms, row);
                }
                self.kill_conjunct(dead, survivor);
                merges.push(Merge { dead, survivor });
            }
        }
        // `from` no longer occurs anywhere; its occurrence list stays
        // empty. Rewrite the summary row.
        for t in self.summary.iter_mut() {
            if matches!(t, CTerm::Var(v) if *v == from) {
                *t = to.clone();
            }
        }
        merges
    }

    /// Finds a live conjunct witnessing `ind` for `parent`: a `c″` over
    /// the IND's right-hand relation with `c″[Y] = parent[X]`. Pure
    /// index intersection; the smallest conjunct id wins (the canonical
    /// witness, matching creation order).
    pub(crate) fn find_witness(&self, ind: &Ind, parent: ConjId) -> Option<ConjId> {
        let parent_syms = self.index.row(parent);
        if ind.rhs_cols.is_empty() {
            // Width-0 IND (degenerate but constructible): any live row
            // of the right-hand relation witnesses it.
            return self.index.rel_rows[ind.rhs_rel.index()]
                .first()
                .map(|&id| ConjId(id));
        }
        self.index
            .cols
            .first_candidate(
                ind.rhs_rel,
                ind.rhs_cols
                    .iter()
                    .zip(&ind.lhs_cols)
                    .map(|(&y, &x)| (y, parent_syms[x])),
                |row| self.index.row(ConjId(row)),
                |_| true,
            )
            .map(ConjId)
    }

    /// Finds the canonical applicable FD: the lexicographically first
    /// pair of live conjuncts (by id) agreeing on some FD's left-hand
    /// side and differing on its right-hand side, and the first such FD
    /// in Σ order for that pair. When `involving` is set, only pairs
    /// containing that conjunct are examined (valid when the state was
    /// FD-quiescent before that conjunct appeared).
    ///
    /// Uses hash grouping / posting intersection — linear in the rows of
    /// the FDs' relations instead of quadratic in the chase.
    pub(crate) fn find_applicable_fd(
        &self,
        fds: &[cqchase_ir::Fd],
        involving: Option<ConjId>,
    ) -> Option<(ConjId, ConjId, usize)> {
        match involving {
            Some(c) => {
                if !self.conjuncts[c.index()].alive {
                    return None;
                }
                let rel = self.conjuncts[c.index()].rel;
                let c_syms = self.index.row(c);
                // Original schedule: iterate other conjuncts in id order,
                // and per other take the first applicable FD — i.e.
                // minimize (other, fd_idx).
                let mut best: Option<(u32, usize)> = None;
                for (fd_idx, fd) in fds.iter().enumerate() {
                    if fd.relation != rel {
                        continue;
                    }
                    // Candidates are visited in ascending id order, so
                    // the first accepted row is this fd's minimal
                    // applicable partner for `c`.
                    let accept = |other: u32| {
                        other != c.0 && self.index.row(ConjId(other))[fd.rhs] != c_syms[fd.rhs]
                    };
                    let first = if fd.lhs.is_empty() {
                        self.index.rel_rows[rel.index()]
                            .iter()
                            .copied()
                            .find(|&r| accept(r))
                    } else {
                        self.index.cols.first_candidate(
                            rel,
                            fd.lhs.iter().map(|&z| (z, c_syms[z])),
                            |row| self.index.row(ConjId(row)),
                            accept,
                        )
                    };
                    if let Some(other) = first {
                        let better = match best {
                            None => true,
                            Some((o, f)) => other < o || (other == o && fd_idx < f),
                        };
                        if better {
                            best = Some((other, fd_idx));
                        }
                    }
                }
                best.map(|(other, fd_idx)| {
                    let other = ConjId(other);
                    let (c1, c2) = if other < c { (other, c) } else { (c, other) };
                    (c1, c2, fd_idx)
                })
            }
            None => {
                // Minimize the pair (c1, c2) over all FDs; for the
                // winning pair take the smallest applicable fd index —
                // exactly the pair-major schedule of the naive scan.
                let mut best: Option<(u32, u32, usize)> = None;
                for (fd_idx, fd) in fds.iter().enumerate() {
                    let mut groups: FxHashMap<Vec<Sym>, (u32, Sym)> = FxHashMap::default();
                    for &row in &self.index.rel_rows[fd.relation.index()] {
                        let syms = self.index.row(ConjId(row));
                        let key: Vec<Sym> = fd.lhs.iter().map(|&z| syms[z]).collect();
                        let rhs = syms[fd.rhs];
                        match groups.get(&key) {
                            None => {
                                groups.insert(key, (row, rhs));
                            }
                            Some(&(first, first_rhs)) => {
                                if rhs != first_rhs {
                                    // Rows are visited in ascending id
                                    // order, so (first, row) is this
                                    // group's minimal applicable pair.
                                    let better = match best {
                                        None => true,
                                        Some((b1, b2, bf)) => (first, row, fd_idx) < (b1, b2, bf),
                                    };
                                    if better {
                                        best = Some((first, row, fd_idx));
                                    }
                                    // Later rows in this group can only
                                    // form larger pairs; but keep the
                                    // first entry so other rows still
                                    // compare against the group minimum.
                                }
                            }
                        }
                    }
                }
                best.map(|(c1, c2, fd_idx)| (ConjId(c1), ConjId(c2), fd_idx))
            }
        }
    }

    /// A [`FactSource`] view of the live conjuncts with level ≤
    /// `max_level`, for homomorphism search straight off the chase's
    /// incremental indexes.
    pub fn hom_source(&self, max_level: u32) -> ChaseHomSource<'_> {
        ChaseHomSource {
            state: self,
            max_level,
        }
    }

    /// Renders a conjunct as `R(a, b, n3_c0i1a2L1)`.
    pub fn render_conjunct(&self, id: ConjId) -> String {
        let mut s = format!("{}(", self.catalog.name(self.conjuncts[id.index()].rel));
        for (i, t) in self.terms(id).enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            match t {
                CTerm::Const(k) => s.push_str(&k.to_string()),
                CTerm::Var(v) => s.push_str(&self.var_name(v)),
            }
        }
        s.push(')');
        s
    }
}

/// A level-truncated [`FactSource`] view of a [`ChaseState`]. Row ids
/// are conjunct ids.
#[derive(Debug, Clone, Copy)]
pub struct ChaseHomSource<'a> {
    state: &'a ChaseState,
    max_level: u32,
}

impl ChaseHomSource<'_> {
    #[inline]
    fn level_ok(&self, row: u32) -> bool {
        self.state.conjuncts[row as usize].level <= self.max_level
    }

    /// The summary row as target symbols.
    pub fn summary_tsyms(&self) -> Vec<TSym> {
        self.state
            .summary
            .iter()
            .map(|t| match t {
                CTerm::Const(c) => TSym::Const(c.clone()),
                CTerm::Var(v) => TSym::Node(u64::from(v.0)),
            })
            .collect()
    }

    /// Resolves a target symbol into the chase's interned space.
    pub fn sym_of_tsym(&self, s: &TSym) -> Option<Sym> {
        match s {
            TSym::Const(c) => self.state.index.consts.get(c).map(|s| Sym(s.0 << 1)),
            TSym::Node(n) => Some(ChaseIndex::var_sym(CVar(*n as u32))),
        }
    }

    /// The target symbol behind an interned chase symbol.
    pub fn tsym_of(&self, sym: Sym) -> TSym {
        match ChaseIndex::sym_var(sym) {
            Some(v) => TSym::Node(u64::from(v.0)),
            None => TSym::Const(self.state.index.consts.resolve(Sym(sym.0 >> 1)).clone()),
        }
    }
}

impl FactSource for ChaseHomSource<'_> {
    fn rel_size(&self, rel: RelId) -> usize {
        // Upper bound (level filtering not applied) — ordering heuristic.
        self.state.index.rel_rows[rel.index()].len()
    }

    fn row_syms(&self, _rel: RelId, row: u32) -> &[Sym] {
        self.state.index.row(ConjId(row))
    }

    fn posting_len(&self, rel: RelId, col: usize, sym: Sym) -> usize {
        self.state.index.cols.posting_len(rel, col, sym)
    }

    fn candidates(&self, rel: RelId, bound: &[(usize, Sym)], out: &mut Vec<u32>) {
        if bound.is_empty() {
            out.extend(
                self.state.index.rel_rows[rel.index()]
                    .iter()
                    .copied()
                    .filter(|&r| self.level_ok(r)),
            );
        } else {
            let start = out.len();
            self.state.index.cols.candidates(
                rel,
                bound,
                |row| self.state.index.row(ConjId(row)),
                out,
            );
            let mut keep = start;
            for i in start..out.len() {
                if self.level_ok(out[i]) {
                    out.swap(keep, i);
                    keep += 1;
                }
            }
            out.truncate(keep);
        }
    }

    fn sym_of_const(&self, c: &Constant) -> Option<Sym> {
        self.state.index.consts.get(c).map(|s| Sym(s.0 << 1))
    }

    fn distinct_count(&self, rel: RelId, col: usize) -> usize {
        // Upper bound (level filtering not applied) — cost heuristic.
        self.state.index.cols.distinct_count(rel, col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_ir::{parse_program, Program};

    fn prog() -> Program {
        parse_program("relation R(a, b, c). Q(z) :- R(x, y, z), R(z, y, x).").unwrap()
    }

    #[test]
    fn dvs_precede_ndvs_in_symbol_order() {
        let p = prog();
        let st = ChaseState::from_query(&p.queries[0], &p.catalog, true);
        // Query variable order is x, y (NDVs interned first in the body)
        // …actually z is the head DV and interned first. Regardless of
        // interning order, the chase order must put the DV `z` first.
        assert_eq!(st.var_name(CVar(0)), "z");
        assert!(matches!(
            st.vars[0],
            CVarOrigin::Query {
                kind: VarKind::Distinguished,
                ..
            }
        ));
        for origin in &st.vars[1..] {
            assert!(matches!(
                origin,
                CVarOrigin::Query {
                    kind: VarKind::Existential,
                    ..
                }
            ));
        }
    }

    #[test]
    fn conjuncts_start_at_level_zero() {
        let p = prog();
        let st = ChaseState::from_query(&p.queries[0], &p.catalog, true);
        assert_eq!(st.num_alive(), 2);
        assert!(st.alive_conjuncts().all(|(_, c)| c.level == 0));
        assert_eq!(st.max_level(), Some(0));
        assert_eq!(st.level_histogram(), vec![2]);
    }

    #[test]
    fn shared_variables_share_symbols() {
        let p = prog();
        let st = ChaseState::from_query(&p.queries[0], &p.catalog, true);
        let (c0, c1) = (ConjId(0), ConjId(1));
        // Q(z) :- R(x, y, z), R(z, y, x): position 2 of c0 == position 0 of c1.
        assert_eq!(st.term(c0, 2), st.term(c1, 0));
        assert_eq!(st.term(c0, 1), st.term(c1, 1));
        assert_eq!(st.summary(), &[st.term(c0, 2)]);
    }

    #[test]
    fn fresh_vars_extend_the_order() {
        let p = prog();
        let mut st = ChaseState::from_query(&p.queries[0], &p.catalog, true);
        let before = st.num_vars();
        let v = st.fresh_var(1, ConjId(0), 0, 1);
        assert_eq!(v.index(), before);
        assert!(matches!(
            st.var_origin(v),
            CVarOrigin::Created {
                attr: 1,
                level: 1,
                ..
            }
        ));
        // Encoded name mentions provenance.
        assert_eq!(st.var_name(v), format!("n{before}_c0i0a1L1"));
    }

    #[test]
    fn render() {
        let p = prog();
        let st = ChaseState::from_query(&p.queries[0], &p.catalog, true);
        let s = st.render_conjunct(ConjId(0));
        assert!(s.starts_with("R("), "{s}");
        assert!(s.contains('z'), "{s}");
    }

    #[test]
    fn substitute_merges_duplicates_and_rewrites_summary() {
        // Q(z) :- R(x, y, z), R(z, y, x): substituting x ↦ z makes the
        // two conjuncts identical; the earlier one survives.
        let p = prog();
        let mut st = ChaseState::from_query(&p.queries[0], &p.catalog, true);
        let x = st.term(ConjId(0), 0).as_var().unwrap();
        let z = st.summary()[0].clone();
        let merges = st.substitute(x, &z);
        assert_eq!(merges.len(), 1);
        assert_eq!(merges[0].survivor, ConjId(0));
        assert_eq!(merges[0].dead, ConjId(1));
        assert_eq!(st.num_alive(), 1);
        assert_eq!(st.resolve_conjunct(ConjId(1)), ConjId(0));
        // The live conjunct's first and third columns now both hold z.
        let (id, _) = st.alive_conjuncts().next().unwrap();
        assert_eq!(st.term(id, 0), z);
        assert_eq!(st.term(id, 2), z);
        assert_indexes_match_rebuild(&st, true);
    }

    #[test]
    fn flat_rows_match_terms_after_fd_merges() {
        use crate::chase::driver::{Chase, ChaseMode};
        // Every IND child S(x, n) of an R-row merges into the S-row with
        // its key, so the chase's FD path rewrites and kills rows while
        // later rows keep being appended to the flat buffer.
        let p = parse_program(
            "relation R(a, b). relation S(a, b).
             fd S: a -> b. ind R[1] <= S[1]. ind S[2] <= R[1].
             Q(x) :- R(x, y), S(x, z), R(y, x), S(y, x).",
        )
        .unwrap();
        let mut ch = Chase::new(&p.queries[0], &p.deps, &p.catalog, ChaseMode::Oblivious);
        let mut dead = 0;
        for _ in 0..30 {
            if !ch.step_once() {
                break;
            }
            let st = ch.state();
            assert_indexes_match_rebuild(st, true);
            dead = st.all_conjuncts().iter().filter(|c| !c.alive).count();
        }
        assert!(dead >= 2, "the FD rule merged rows ({dead} dead)");
        assert!(ch.fd_steps() >= 2);
    }

    #[test]
    fn width_zero_ind_witnessed_by_any_row() {
        let p = parse_program("relation R(a, b). Q(x) :- R(x, y).").unwrap();
        let st = ChaseState::from_query(&p.queries[0], &p.catalog, true);
        let r = p.catalog.resolve("R").unwrap();
        let ind = cqchase_ir::Ind::new(r, vec![], r, vec![]);
        // Degenerate width-0 IND: every nonempty relation witnesses it.
        assert_eq!(st.find_witness(&ind, ConjId(0)), Some(ConjId(0)));
    }

    #[test]
    fn find_witness_uses_postings() {
        let p = parse_program(
            "relation R(a, b).
             ind R[2] <= R[1].
             Q(x) :- R(x, y), R(y, z).",
        )
        .unwrap();
        let st = ChaseState::from_query(&p.queries[0], &p.catalog, true);
        let ind = p.deps.inds().next().unwrap();
        // R(x, y) projected on [2] is (y); R(y, z) has y in column 1.
        assert_eq!(st.find_witness(ind, ConjId(0)), Some(ConjId(1)));
        // R(y, z) projected on [2] is (z); nothing has z in column 1.
        assert_eq!(st.find_witness(ind, ConjId(1)), None);
    }

    /// Asserts that every index equals a rebuild from the interned rows
    /// of [`ChaseState::alive_conjuncts`]: posting lists and `rel_rows`
    /// always; whole-row dedup and occurrence lists when Σ has FDs (and
    /// that they stay empty when it has none). Every row's symbols decode
    /// to terms and re-intern to the same symbols.
    fn assert_indexes_match_rebuild(st: &ChaseState, has_fds: bool) {
        let cat = &st.catalog;
        let mut cols = ColumnIndex::new(cat.rel_ids().map(|r| cat.arity(r)));
        let mut rel_rows = vec![Vec::new(); cat.len()];
        let mut var_occ: Vec<Vec<u32>> = Vec::new();
        let mut alive = 0;
        for (id, c) in st.alive_conjuncts() {
            alive += 1;
            let syms: Vec<Sym> = st
                .terms(id)
                .map(|t| match t {
                    CTerm::Var(v) => ChaseIndex::var_sym(v),
                    CTerm::Const(k) => Sym(st.index.consts.get(&k).expect("interned").0 << 1),
                })
                .collect();
            assert_eq!(st.index.row(id), &syms[..], "row {id:?}");
            cols.insert_row(c.rel, id.0, &syms);
            rel_rows[c.rel.index()].push(id.0);
            for v in syms.iter().filter_map(|&s| ChaseIndex::sym_var(s)) {
                if var_occ.len() <= v.index() {
                    var_occ.resize(v.index() + 1, Vec::new());
                }
                if var_occ[v.index()].last() != Some(&id.0) {
                    var_occ[v.index()].push(id.0);
                }
            }
            if has_fds {
                assert_eq!(st.index.dedup.get(c.rel, &syms), Some(id.0), "dedup {id:?}");
            }
        }
        assert_eq!(st.index.rel_rows, rel_rows, "rel_rows");
        for rel in cat.rel_ids() {
            for col in 0..cat.arity(rel) {
                assert_eq!(
                    st.index.cols.distinct_count(rel, col),
                    cols.distinct_count(rel, col),
                    "distinct symbols in {rel:?}.{col}"
                );
            }
        }
        for (id, c) in st.alive_conjuncts() {
            for (col, &sym) in st.index.row(id).iter().enumerate() {
                assert_eq!(
                    st.index.cols.posting(c.rel, col, sym),
                    cols.posting(c.rel, col, sym),
                    "posting {:?}.{col} of {id:?}",
                    c.rel
                );
            }
        }
        if has_fds {
            assert_eq!(st.index.dedup.len(), alive, "dedup size");
            let n = st.index.var_occ.len().max(var_occ.len());
            for v in 0..n {
                let got = st.index.var_occ.get(v).map_or(&[][..], Vec::as_slice);
                let want = var_occ.get(v).map_or(&[][..], Vec::as_slice);
                assert_eq!(got, want, "occurrences of symbol {v}");
            }
        } else {
            assert!(st.index.dedup.is_empty(), "dedup kept without FDs");
            assert!(
                st.index.var_occ.iter().all(Vec::is_empty),
                "occurrences kept without FDs"
            );
        }
    }

    /// Σ from each of the five classes over `R(a, b), S(a, b)`.
    const SIGMAS: [(&str, &str); 5] = [
        ("empty", ""),
        ("fds-only", "fd R: a -> b. fd S: b -> a."),
        (
            "inds-only",
            "ind R[2] <= S[1]. ind S[2] <= R[1]. ind R[1] <= R[2].",
        ),
        (
            "key-based",
            "fd R: a -> b. fd S: a -> b. ind R[2] <= S[1]. ind S[2] <= R[1].",
        ),
        (
            "mixed",
            "fd R: a -> b. fd S: b -> a. ind R[2] <= R[1]. ind R[1] <= S[2].",
        ),
    ];

    fn random_body() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        // Variables v0..v3, and one time in five a constant 1 or 2.
        let term = (0usize..10).prop_map(|k| match k {
            8 | 9 => (k - 7).to_string(),
            _ => format!("v{}", k % 4),
        });
        proptest::collection::vec((any::<bool>(), term.clone(), term), 1..6).prop_map(|atoms| {
            atoms
                .iter()
                .enumerate()
                .map(|(i, (s, x, y))| {
                    let x = if i == 0 { "v0" } else { x.as_str() };
                    format!("{}({x}, {y})", if *s { "S" } else { "R" })
                })
                .collect::<Vec<_>>()
                .join(", ")
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// After every scheduling step, under Σ of every class and both
        /// modes, the incrementally maintained indexes equal a rebuild.
        #[test]
        fn indexes_match_rebuild_after_every_step(body in random_body()) {
            use crate::chase::driver::{Chase, ChaseMode};
            use crate::classify::{classify, SigmaClass};
            for (class, sigma) in SIGMAS {
                let p = parse_program(&format!(
                    "relation R(a, b). relation S(a, b). {sigma} Q(v0) :- {body}."
                ))
                .unwrap();
                let got = classify(&p.deps, &p.catalog);
                let expected = match class {
                    "empty" => matches!(got, SigmaClass::Empty),
                    "fds-only" => matches!(got, SigmaClass::FdsOnly),
                    "inds-only" => matches!(got, SigmaClass::IndsOnly { .. }),
                    "key-based" => matches!(got, SigmaClass::KeyBased { .. }),
                    _ => matches!(got, SigmaClass::Mixed),
                };
                assert!(expected, "{class}: classified {got:?}");
                let has_fds = p.deps.fds().next().is_some();
                for mode in [ChaseMode::Required, ChaseMode::Oblivious] {
                    let mut ch = Chase::new(&p.queries[0], &p.deps, &p.catalog, mode);
                    assert_indexes_match_rebuild(ch.state(), has_fds);
                    for _ in 0..40 {
                        if !ch.step_once() {
                            break;
                        }
                        assert_indexes_match_rebuild(ch.state(), has_fds);
                    }
                }
            }
        }
    }
}
