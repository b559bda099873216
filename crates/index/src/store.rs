//! Incremental per-relation indexes over rows of interned symbols.
//!
//! Rows live with their owner (chase state, hom target, database); the
//! structures here are *derived* data the owner keeps in sync. Row ids
//! are caller-chosen `u32`s (conjunct ids for the chase, per-relation
//! row numbers for databases and hom targets) — the index treats them as
//! opaque keys and keeps posting lists sorted by them.
//!
//! A posting list holding a single row keeps it inline in its map entry,
//! so the common one-row key (a fresh chase variable, a sliding-window
//! key) costs no heap allocation; the list moves to the heap only when a
//! second row arrives, and back inline when it shrinks to one row.

use cqchase_ir::RelId;

use crate::fx::FxHashMap;
use crate::sym::Sym;

/// The rows holding one `(relation, column, symbol)` key, ascending.
///
/// Most keys hold a single row (every fresh chase variable, nearly every
/// key of a sliding window), so that row is kept inline and only a
/// second row allocates. `Many` always holds at least two rows: a
/// removal that leaves one row demotes it back to `One`.
#[derive(Debug, Clone)]
enum Posting {
    One(u32),
    Many(Vec<u32>),
}

impl Posting {
    fn as_slice(&self) -> &[u32] {
        match self {
            Posting::One(row) => std::slice::from_ref(row),
            Posting::Many(rows) => rows,
        }
    }

    fn insert(&mut self, row: u32) {
        match self {
            Posting::One(r) if *r == row => {}
            Posting::One(r) => *self = Posting::Many(vec![row.min(*r), row.max(*r)]),
            Posting::Many(rows) => {
                if let Err(pos) = rows.binary_search(&row) {
                    rows.insert(pos, row);
                }
            }
        }
    }

    /// Removes `row` if present; returns whether the posting is now
    /// empty (the caller then drops its key).
    fn remove(&mut self, row: u32) -> bool {
        match self {
            Posting::One(r) => *r == row,
            Posting::Many(rows) => {
                if let Ok(pos) = rows.binary_search(&row) {
                    rows.remove(pos);
                    if let [last] = rows[..] {
                        *self = Posting::One(last);
                    }
                }
                false
            }
        }
    }
}

/// One column's postings: symbol → rows.
type ColumnMap = FxHashMap<Sym, Posting>;

/// Adds `row` to `sym`'s posting in `map`.
fn posting_insert(map: &mut ColumnMap, sym: Sym, row: u32) {
    use std::collections::hash_map::Entry;
    match map.entry(sym) {
        Entry::Vacant(e) => {
            e.insert(Posting::One(row));
        }
        Entry::Occupied(mut e) => e.get_mut().insert(row),
    }
}

/// Removes `row` from `sym`'s posting in `map`, dropping the key when
/// its last row leaves.
fn posting_remove(map: &mut ColumnMap, sym: Sym, row: u32) {
    if map.get_mut(&sym).is_some_and(|p| p.remove(row)) {
        map.remove(&sym);
    }
}

/// Posting lists `(relation, column, symbol) → sorted row ids`.
///
/// Supports incremental insertion, deletion, and symbol substitution, so
/// mutating owners (the chase under FD merges) never rebuild. A key
/// holding one row keeps it inline; only a second row allocates. Maps
/// hash with [`FxHasher`](crate::fx::FxHasher): keys are interned
/// symbols we produce ourselves, so SipHash's DoS resistance buys
/// nothing and its cost sits on the join engine's innermost probe.
#[derive(Debug, Clone, Default)]
pub struct ColumnIndex {
    /// One map per relation per column.
    rels: Vec<Vec<ColumnMap>>,
}

impl ColumnIndex {
    /// An index over relations with the given arities.
    pub fn new(arities: impl IntoIterator<Item = usize>) -> Self {
        ColumnIndex {
            rels: arities
                .into_iter()
                .map(|a| vec![FxHashMap::default(); a])
                .collect(),
        }
    }

    /// Registers `row` (with symbols `syms`) under every column of `rel`.
    pub fn insert_row(&mut self, rel: RelId, row: u32, syms: &[Sym]) {
        let maps = &mut self.rels[rel.index()];
        for (col, &sym) in syms.iter().enumerate() {
            posting_insert(&mut maps[col], sym, row);
        }
    }

    /// Removes `row` (with symbols `syms`) from every column of `rel`.
    pub fn remove_row(&mut self, rel: RelId, row: u32, syms: &[Sym]) {
        let maps = &mut self.rels[rel.index()];
        for (col, &sym) in syms.iter().enumerate() {
            posting_remove(&mut maps[col], sym, row);
        }
    }

    /// Renumbers every row id of `rel` through `map` (`map[old] = new`)
    /// in place — the owner is compacting its rows after deletions. The
    /// map must be monotone over the ids still indexed, which keeps every
    /// posting list sorted without a re-sort.
    pub fn renumber_rel(&mut self, rel: RelId, map: &[u32]) {
        for m in &mut self.rels[rel.index()] {
            for posting in m.values_mut() {
                match posting {
                    Posting::One(row) => *row = map[*row as usize],
                    Posting::Many(rows) => {
                        for row in rows.iter_mut() {
                            *row = map[*row as usize];
                        }
                        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "monotone map");
                    }
                }
            }
        }
    }

    /// Releases excess capacity held by `rel`'s column maps and posting
    /// lists: any map or list whose occupancy fell below a quarter of
    /// its capacity is shrunk to fit (inline rows hold none). Owners
    /// call this after compacting a relation that shrank a lot — a
    /// long-lived session must not hold peak-size allocations forever.
    /// Returns the approximate number of capacity entries released (map
    /// slots + posting-list row ids), for the owner's bytes-reclaimed
    /// accounting.
    pub fn shrink_rel(&mut self, rel: RelId) -> usize {
        let mut freed = 0usize;
        for m in &mut self.rels[rel.index()] {
            for posting in m.values_mut() {
                if let Posting::Many(rows) = posting {
                    if rows.len() < rows.capacity() / 4 {
                        freed += rows.capacity() - rows.len();
                        rows.shrink_to_fit();
                    }
                }
            }
            if m.len() < m.capacity() / 4 {
                freed += m.capacity() - m.len();
                m.shrink_to_fit();
            }
        }
        freed
    }

    /// Moves `row` from `from`'s posting list to `to`'s in column `col`
    /// of `rel` (the FD substitution primitive).
    pub fn replace_in_col(&mut self, rel: RelId, col: usize, row: u32, from: Sym, to: Sym) {
        let map = &mut self.rels[rel.index()][col];
        posting_remove(map, from, row);
        posting_insert(map, to, row);
    }

    /// The sorted row ids with `sym` in column `col` of `rel`. Columns
    /// the index never saw a row for (e.g. a relation with no rows at
    /// all, whose arity the owner could not derive) read as empty.
    pub fn posting(&self, rel: RelId, col: usize, sym: Sym) -> &[u32] {
        self.rels[rel.index()]
            .get(col)
            .and_then(|m| m.get(&sym))
            .map_or(&[], Posting::as_slice)
    }

    /// Length of [`ColumnIndex::posting`] without materializing it.
    pub fn posting_len(&self, rel: RelId, col: usize, sym: Sym) -> usize {
        self.posting(rel, col, sym).len()
    }

    /// Number of distinct symbols currently indexed in column `col` of
    /// `rel` — the posting map's key count, which [`insert_row`] and
    /// [`remove_row`] keep exact incrementally (a symbol's entry is
    /// dropped the moment its last row leaves). This is the selectivity
    /// statistic the cost-based planner feeds on.
    ///
    /// [`insert_row`]: ColumnIndex::insert_row
    /// [`remove_row`]: ColumnIndex::remove_row
    pub fn distinct_count(&self, rel: RelId, col: usize) -> usize {
        self.rels[rel.index()].get(col).map_or(0, FxHashMap::len)
    }

    /// Approximate resident bytes of the posting maps: map capacity
    /// costed per entry plus the heap capacity of multi-row postings in
    /// row ids (an inline row costs nothing beyond its entry). An
    /// estimate for capacity planning (the many-session bench's
    /// shared-vs-duplicate catalog gate), not an allocator measurement.
    pub fn approx_bytes(&self) -> usize {
        let entry = std::mem::size_of::<Sym>() + std::mem::size_of::<Posting>() + 8;
        let mut bytes = 0usize;
        for cols in &self.rels {
            for m in cols {
                bytes += m.capacity() * entry;
                bytes += m
                    .values()
                    .map(|p| match p {
                        Posting::One(_) => 0,
                        Posting::Many(rows) => rows.capacity() * std::mem::size_of::<u32>(),
                    })
                    .sum::<usize>();
            }
        }
        bytes
    }

    /// Intersects the posting lists for the given `(col, sym)`
    /// constraints: probes the shortest list and verifies the remaining
    /// constraints via `syms_of`, pushing surviving row ids (ascending)
    /// into `out`.
    ///
    /// `bound` must be nonempty; full enumeration is the owner's job
    /// (only it knows its live-row universe).
    pub fn candidates<'a>(
        &self,
        rel: RelId,
        bound: &[(usize, Sym)],
        syms_of: impl Fn(u32) -> &'a [Sym],
        out: &mut Vec<u32>,
    ) {
        debug_assert!(!bound.is_empty());
        let probe = (0..bound.len())
            .min_by_key(|&i| self.posting_len(rel, bound[i].0, bound[i].1))
            .expect("bound is nonempty");
        let (c0, s0) = bound[probe];
        'rows: for &row in self.posting(rel, c0, s0) {
            let syms = syms_of(row);
            for &(c, s) in bound {
                if syms[c] != s {
                    continue 'rows;
                }
            }
            out.push(row);
        }
    }

    /// Like [`ColumnIndex::candidates`], but stops at the first
    /// intersection row `accept` returns `true` for and returns it —
    /// the early-exit probe for existence checks (witness lookups, FD
    /// applicability). Rows are visited in ascending id order, so the
    /// returned row is the minimal accepted match. `bound` is walked
    /// again for every row rather than collected, so a probe allocates
    /// nothing; an empty `bound` matches nothing.
    pub fn first_candidate<'a>(
        &self,
        rel: RelId,
        bound: impl Iterator<Item = (usize, Sym)> + Clone,
        syms_of: impl Fn(u32) -> &'a [Sym],
        mut accept: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        let (c0, s0) = bound
            .clone()
            .min_by_key(|&(c, s)| self.posting_len(rel, c, s))?;
        self.posting(rel, c0, s0).iter().copied().find(|&row| {
            let syms = syms_of(row);
            bound.clone().all(|(c, s)| syms[c] == s) && accept(row)
        })
    }
}

/// Hash-based whole-row duplicate detection: `(relation, symbols) → row`.
///
/// Sharded per relation (like [`ColumnIndex`]) so that per-relation
/// wholesale operations — [`DedupIndex::renumber_rel`], the amortized
/// compaction primitive — cost O(that relation's keys), not O(every
/// key in the database). Shards grow on demand, so no arity/relation
/// count is needed at construction.
#[derive(Debug, Clone, Default)]
pub struct DedupIndex {
    /// One map per relation, indexed by `RelId`.
    rels: Vec<FxHashMap<Vec<Sym>, u32>>,
    len: usize,
}

impl DedupIndex {
    /// An empty dedup index.
    pub fn new() -> Self {
        DedupIndex::default()
    }

    fn shard_mut(&mut self, rel: RelId) -> &mut FxHashMap<Vec<Sym>, u32> {
        if self.rels.len() <= rel.index() {
            self.rels.resize_with(rel.index() + 1, FxHashMap::default);
        }
        &mut self.rels[rel.index()]
    }

    /// The row already holding `(rel, syms)`, if any.
    pub fn get(&self, rel: RelId, syms: &[Sym]) -> Option<u32> {
        self.rels.get(rel.index())?.get(syms).copied()
    }

    /// Registers `(rel, syms) → row`; returns the previous holder if the
    /// key was taken (the caller decides who survives).
    pub fn insert(&mut self, rel: RelId, syms: &[Sym], row: u32) -> Option<u32> {
        let prev = self.shard_mut(rel).insert(syms.to_vec(), row);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Registers `(rel, syms) → row` only when the key is free; returns
    /// the existing holder otherwise (without overwriting it). One key
    /// allocation for the combined probe-and-insert — the substitution
    /// hot path's primitive.
    pub fn try_insert(&mut self, rel: RelId, syms: &[Sym], row: u32) -> Option<u32> {
        use std::collections::hash_map::Entry;
        match self.shard_mut(rel).entry(syms.to_vec()) {
            Entry::Occupied(e) => Some(*e.get()),
            Entry::Vacant(e) => {
                e.insert(row);
                self.len += 1;
                None
            }
        }
    }

    /// Renumbers the rows of `rel`'s keys through `map` (`map[old] =
    /// new`) in place — the compaction counterpart of
    /// [`ColumnIndex::renumber_rel`]. Costs only that relation's keys.
    pub fn renumber_rel(&mut self, rel: RelId, map: &[u32]) {
        if let Some(shard) = self.rels.get_mut(rel.index()) {
            for row in shard.values_mut() {
                *row = map[*row as usize];
            }
        }
    }

    /// Releases excess capacity held by `rel`'s shard when its
    /// occupancy fell below a quarter of capacity (the compaction
    /// counterpart of [`ColumnIndex::shrink_rel`]). Returns the
    /// approximate number of capacity entries released.
    pub fn shrink_rel(&mut self, rel: RelId) -> usize {
        let Some(shard) = self.rels.get_mut(rel.index()) else {
            return 0;
        };
        if shard.len() < shard.capacity() / 4 {
            let freed = shard.capacity() - shard.len();
            shard.shrink_to_fit();
            freed
        } else {
            0
        }
    }

    /// Removes the entry for `(rel, syms)` when it points at `row`.
    pub fn remove(&mut self, rel: RelId, syms: &[Sym], row: u32) {
        let Some(shard) = self.rels.get_mut(rel.index()) else {
            return;
        };
        if shard.get(syms) == Some(&row) {
            shard.remove(syms);
            self.len -= 1;
        }
    }

    /// Approximate resident bytes of the dedup shards: shard capacity
    /// costed per entry plus each key row's symbol storage. An estimate
    /// (companion of [`ColumnIndex::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        let entry = std::mem::size_of::<Vec<Sym>>() + std::mem::size_of::<u32>() + 8;
        self.rels
            .iter()
            .map(|shard| {
                shard.capacity() * entry
                    + shard
                        .keys()
                        .map(|k| k.capacity() * std::mem::size_of::<Sym>())
                        .sum::<usize>()
            })
            .sum()
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no keys are registered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(i: u32) -> RelId {
        RelId(i)
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut idx = ColumnIndex::new([2usize]);
        let (a, b, c) = (Sym(0), Sym(1), Sym(2));
        idx.insert_row(rel(0), 0, &[a, b]);
        idx.insert_row(rel(0), 1, &[a, c]);
        assert_eq!(idx.posting(rel(0), 0, a), &[0, 1]);
        idx.remove_row(rel(0), 0, &[a, b]);
        assert_eq!(idx.posting(rel(0), 0, a), &[1]);
        assert!(idx.posting(rel(0), 1, b).is_empty());
    }

    /// Whether `sym`'s posting in column `col` of relation 0 is inline.
    fn is_inline(idx: &ColumnIndex, col: usize, sym: Sym) -> bool {
        matches!(idx.rels[0][col].get(&sym), Some(Posting::One(_)))
    }

    #[test]
    fn posting_walks_inline_to_heap_and_back() {
        let mut idx = ColumnIndex::new([2usize]);
        let r = rel(0);
        let (a, b, c) = (Sym(0), Sym(1), Sym(2));
        // One row: inline.
        idx.insert_row(r, 5, &[a, b]);
        assert_eq!(idx.posting(r, 0, a), &[5]);
        assert_eq!(idx.posting_len(r, 0, a), 1);
        assert_eq!(idx.distinct_count(r, 0), 1);
        assert!(is_inline(&idx, 0, a));
        // A second row promotes the key to a sorted heap list.
        idx.insert_row(r, 2, &[a, c]);
        assert_eq!(idx.posting(r, 0, a), &[2, 5]);
        assert_eq!(idx.posting_len(r, 0, a), 2);
        assert_eq!((idx.distinct_count(r, 0), idx.distinct_count(r, 1)), (1, 2));
        assert!(!is_inline(&idx, 0, a));
        // Back to one row: inline again, and `b`'s key is gone.
        idx.remove_row(r, 5, &[a, b]);
        assert_eq!(idx.posting(r, 0, a), &[2]);
        assert_eq!(idx.posting_len(r, 0, a), 1);
        assert_eq!((idx.distinct_count(r, 0), idx.distinct_count(r, 1)), (1, 1));
        assert!(is_inline(&idx, 0, a));
        assert!(idx.posting(r, 1, b).is_empty());
        // Last row leaves: the key is dropped.
        idx.remove_row(r, 2, &[a, c]);
        assert!(idx.posting(r, 0, a).is_empty());
        assert_eq!(idx.posting_len(r, 0, a), 0);
        assert_eq!((idx.distinct_count(r, 0), idx.distinct_count(r, 1)), (0, 0));

        // Substitution across both forms: `a` holds two rows, `b` one.
        let (x, y) = (Sym(7), Sym(8));
        idx.insert_row(r, 1, &[a, x]);
        idx.insert_row(r, 3, &[a, y]);
        idx.insert_row(r, 4, &[b, y]);
        idx.replace_in_col(r, 0, 3, a, b);
        assert_eq!(idx.posting(r, 0, a), &[1]);
        assert_eq!(idx.posting(r, 0, b), &[3, 4]);
        assert!(is_inline(&idx, 0, a) && !is_inline(&idx, 0, b));
        idx.replace_in_col(r, 0, 1, a, b);
        assert!(idx.posting(r, 0, a).is_empty());
        assert_eq!(idx.posting(r, 0, b), &[1, 3, 4]);
        assert_eq!(idx.distinct_count(r, 0), 1);

        // Renumbering rewrites inline and heap rows alike.
        idx.renumber_rel(r, &[u32::MAX, 0, u32::MAX, 1, 2]);
        assert_eq!(idx.posting(r, 0, b), &[0, 1, 2]);
        assert_eq!(idx.posting(r, 1, x), &[0]);
        assert_eq!(idx.posting(r, 1, y), &[1, 2]);
        assert!(is_inline(&idx, 1, x));

        // Shrinking releases a drained heap list and leaves inline rows.
        for row in 10..4096u32 {
            idx.insert_row(r, row, &[b, c]);
        }
        for row in 10..4096u32 {
            idx.remove_row(r, row, &[b, c]);
        }
        assert!(idx.shrink_rel(r) > 0);
        assert_eq!(idx.posting(r, 0, b), &[0, 1, 2]);
        assert_eq!(idx.posting(r, 1, x), &[0]);
        assert!(idx.posting(r, 1, c).is_empty());
        assert_eq!((idx.distinct_count(r, 0), idx.distinct_count(r, 1)), (1, 2));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random insert/remove/replace sequences over a two-column
        /// relation agree with a `(col, sym) → rows` model after every
        /// operation: postings, their lengths, and distinct counts.
        #[test]
        fn postings_match_a_model(
            ops in proptest::collection::vec(
                (0u8..3, 0u32..12, 0u32..4, 0u32..4, 0usize..2),
                1..80,
            )
        ) {
            use std::collections::{BTreeMap, BTreeSet};
            let r = rel(0);
            let mut idx = ColumnIndex::new([2usize]);
            let mut rows: BTreeMap<u32, [Sym; 2]> = BTreeMap::new();
            let mut model: BTreeMap<(usize, Sym), BTreeSet<u32>> = BTreeMap::new();
            for (kind, row, s0, s1, col) in ops {
                match kind {
                    0 if !rows.contains_key(&row) => {
                        let syms = [Sym(s0), Sym(s1)];
                        idx.insert_row(r, row, &syms);
                        rows.insert(row, syms);
                        for (c, &s) in syms.iter().enumerate() {
                            model.entry((c, s)).or_default().insert(row);
                        }
                    }
                    1 => {
                        if let Some(syms) = rows.remove(&row) {
                            idx.remove_row(r, row, &syms);
                            for (c, &s) in syms.iter().enumerate() {
                                model.get_mut(&(c, s)).unwrap().remove(&row);
                            }
                        }
                    }
                    2 => {
                        let to = Sym(s0);
                        if let Some(syms) = rows.get_mut(&row) {
                            let from = syms[col];
                            if from != to {
                                idx.replace_in_col(r, col, row, from, to);
                                syms[col] = to;
                                model.get_mut(&(col, from)).unwrap().remove(&row);
                                model.entry((col, to)).or_default().insert(row);
                            }
                        }
                    }
                    _ => {}
                }
                model.retain(|_, set| !set.is_empty());
                for col in 0..2 {
                    for s in 0..4 {
                        let want: Vec<u32> = model
                            .get(&(col, Sym(s)))
                            .map_or_else(Vec::new, |set| set.iter().copied().collect());
                        proptest::prop_assert_eq!(idx.posting(r, col, Sym(s)), &want[..]);
                        proptest::prop_assert_eq!(idx.posting_len(r, col, Sym(s)), want.len());
                    }
                    let keys = model.keys().filter(|&&(c, _)| c == col).count();
                    proptest::prop_assert_eq!(idx.distinct_count(r, col), keys);
                }
            }
        }
    }

    #[test]
    fn renumber_rel_touches_only_that_relation() {
        let mut idx = ColumnIndex::new([2usize, 1]);
        let (a, b) = (Sym(0), Sym(1));
        idx.insert_row(rel(0), 1, &[a, b]);
        idx.insert_row(rel(0), 3, &[a, a]);
        idx.insert_row(rel(1), 3, &[a]);
        // Slots 0 and 2 were tombstoned: 1 → 0, 3 → 1.
        idx.renumber_rel(rel(0), &[u32::MAX, 0, u32::MAX, 1]);
        assert_eq!(idx.posting(rel(0), 0, a), &[0, 1]);
        assert_eq!(idx.posting(rel(0), 1, b), &[0]);
        assert_eq!(idx.posting(rel(0), 1, a), &[1]);
        assert_eq!(idx.posting(rel(1), 0, a), &[3]);
        // Renumbered lists keep accepting rows in order.
        idx.insert_row(rel(0), 2, &[b, a]);
        assert_eq!(idx.posting(rel(0), 1, a), &[1, 2]);
    }

    #[test]
    fn shrink_rel_releases_capacity_after_mass_removal() {
        let mut idx = ColumnIndex::new([1usize]);
        // One symbol with a long posting list, then nearly empty it.
        for row in 0..4096u32 {
            idx.insert_row(rel(0), row, &[Sym(0)]);
        }
        for row in 8..4096u32 {
            idx.remove_row(rel(0), row, &[Sym(0)]);
        }
        assert_eq!(idx.posting_len(rel(0), 0, Sym(0)), 8);
        let freed = idx.shrink_rel(rel(0));
        assert!(freed > 0, "a 4096-capacity list holding 8 rows must shrink");
        assert_eq!(idx.posting(rel(0), 0, Sym(0)), &[0, 1, 2, 3, 4, 5, 6, 7]);

        let mut d = DedupIndex::new();
        for row in 0..4096u32 {
            d.insert(rel(0), &[Sym(row)], row);
        }
        for row in 8..4096u32 {
            d.remove(rel(0), &[Sym(row)], row);
        }
        assert!(d.shrink_rel(rel(0)) > 0);
        assert_eq!(d.len(), 8);
        assert_eq!(d.get(rel(0), &[Sym(3)]), Some(3));
        // A relation the dedup index never saw shrinks to nothing.
        assert_eq!(d.shrink_rel(rel(9)), 0);
    }

    #[test]
    fn dedup_renumber_rel_touches_only_that_relation() {
        let mut d = DedupIndex::new();
        let syms = [Sym(0), Sym(1)];
        d.insert(rel(0), &syms, 2);
        d.insert(rel(1), &syms, 2);
        d.renumber_rel(rel(0), &[u32::MAX, u32::MAX, 0]);
        d.renumber_rel(rel(7), &[]);
        assert_eq!(d.get(rel(0), &syms), Some(0));
        assert_eq!(d.get(rel(1), &syms), Some(2));
        assert_eq!(d.len(), 2);
        // Removal only drops the entry holding the named row.
        d.remove(rel(0), &syms, 2);
        assert_eq!(d.len(), 2);
        d.remove(rel(0), &syms, 0);
        assert_eq!((d.get(rel(0), &syms), d.len()), (None, 1));
    }
}
