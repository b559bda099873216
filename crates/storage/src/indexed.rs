//! Interned, indexed fact storage, shared by query evaluation and the
//! service's live sessions.
//!
//! A [`DbIndex`] interns every [`Value`] of an instance into the
//! [`Sym`] space of [`cqchase_index`] and maintains per-relation,
//! per-column posting lists. It implements [`FactSource`], so the shared
//! join engine evaluates conjunctive queries over it with the same
//! cost-based ordering and index-intersection candidate generation as
//! homomorphism search in `cqchase-core` — one engine, three consumers.
//!
//! The index is a store in its own right: it keeps every row's symbols
//! in insertion order and a whole-row dedup map, so [`DbIndex::insert`]
//! (duplicate-checked), [`DbIndex::note_remove`], [`DbIndex::contains`]
//! and [`DbIndex::tuples`] answer set semantics without a [`Database`]
//! beside it (the service's sessions keep no other copy of their facts).
//! It can also mirror a database: [`DbIndex::build`] indexes one, and
//! [`DbIndex::note_insert`] registers a tuple the database just
//! accepted. Deletion **tombstones** the row: its slot
//! keeps its symbols but drops out of every posting list, the dedup map,
//! and live-row enumeration, so in-flight plans never see it. Tombstones
//! are reclaimed by amortized per-relation compaction (a size-tiered
//! adaptive trigger: the dead fraction required decays as the relation
//! grows), which renumbers the live rows in place, order preserved —
//! but **never** touches the symbol pool: interned symbols are stable
//! for the index's whole lifetime, so compiled plans (which embed
//! resolved constant symbols) survive every mutation. The one plan
//! invalidation mutation can cause is an insert interning a *new*
//! constant, which falsifies cached "unsatisfiable" plans — watch [`DbIndex::num_syms`] and call
//! [`PlanCache::drop_unsatisfiable`](cqchase_index::PlanCache::drop_unsatisfiable)
//! when it grows.

use cqchase_index::{ColumnIndex, DedupIndex, FactSource, Sym, SymPool};
use cqchase_ir::{Catalog, Constant, RelId};

use crate::database::{Database, Tuple};
use crate::value::Value;

/// Minimum tombstone count before a relation considers compacting
/// (tiny relations are not worth the pass).
const COMPACT_MIN_DEAD: usize = 32;

/// The adaptive compaction trigger: compact once the dead slots exceed
/// a **size-tiered fraction of the live rows** — all of them below 4,096
/// live rows, half below 262,144, a quarter above. A pass copies
/// O(live + dead) slots, so the tiers bound the amortized cost per
/// reclaimed slot at ~2, ~3 and ~5 copies while capping tombstone memory
/// at 25% where that waste is measured in megabytes.
fn compaction_due(live: usize, dead: usize) -> bool {
    if dead < COMPACT_MIN_DEAD {
        return false;
    }
    let required = if live < 4_096 {
        live
    } else if live < 262_144 {
        live / 2
    } else {
        live / 4
    };
    dead > required
}

/// Interned rows, posting lists and a dedup map for one instance,
/// maintained incrementally under insertion and deletion.
#[derive(Debug, Clone)]
pub struct DbIndex {
    pool: SymPool<Value>,
    cols: ColumnIndex,
    /// Whole-row lookup `(rel, syms) → live slot` (the deletion path's
    /// row finder; doubles as the duplicate probe).
    dedup: DedupIndex,
    /// Interned tuples, flattened per relation (arity-strided), in
    /// insertion order. Slots of removed rows keep their symbols until
    /// compaction.
    sym_rows: Vec<Vec<Sym>>,
    /// Liveness per slot (`false` = tombstone). The slot count itself
    /// (`live[rel].len()`) is not derivable from `sym_rows` for
    /// zero-arity relations.
    live: Vec<Vec<bool>>,
    /// Live rows per relation.
    live_counts: Vec<usize>,
    /// Tombstoned slots per relation (compaction trigger).
    dead: Vec<usize>,
    arities: Vec<usize>,
    /// Reusable symbol buffer for the deletion path's dedup probe.
    probe: Vec<Sym>,
    compactions: u64,
    /// Tombstoned slots reclaimed by compaction so far.
    slots_reclaimed: u64,
    /// Approximate bytes released by compaction and capacity shrinking
    /// (reclaimed row symbols + shrunk posting/dedup capacity).
    bytes_reclaimed: u64,
}

impl DbIndex {
    /// An empty index over `catalog`'s relations.
    pub fn new(catalog: &Catalog) -> DbIndex {
        let arities: Vec<usize> = catalog.rel_ids().map(|r| catalog.arity(r)).collect();
        DbIndex {
            pool: SymPool::new(),
            cols: ColumnIndex::new(arities.iter().copied()),
            dedup: DedupIndex::new(),
            sym_rows: vec![Vec::new(); catalog.len()],
            live: vec![Vec::new(); catalog.len()],
            live_counts: vec![0; catalog.len()],
            dead: vec![0; catalog.len()],
            arities,
            probe: Vec::new(),
            compactions: 0,
            slots_reclaimed: 0,
            bytes_reclaimed: 0,
        }
    }

    /// Builds the index for the current contents of `db`.
    pub fn build(db: &Database) -> DbIndex {
        let mut idx = DbIndex::new(db.catalog());
        for (rel, inst) in db.iter() {
            for t in inst.tuples() {
                idx.note_insert(rel, t);
            }
        }
        idx
    }

    /// Inserts `tuple` into `rel` unless it is already live there;
    /// returns whether it was new. The tuple must have `rel`'s arity.
    pub fn insert(&mut self, rel: RelId, tuple: &Tuple) -> bool {
        debug_assert_eq!(tuple.len(), self.arities[rel.index()], "arity");
        let slot = self.live[rel.index()].len() as u32;
        let rows = &mut self.sym_rows[rel.index()];
        let start = rows.len();
        rows.extend(tuple.iter().map(|v| self.pool.intern(v)));
        if self.dedup.try_insert(rel, &rows[start..], slot).is_some() {
            rows.truncate(start);
            return false;
        }
        self.cols.insert_row(rel, slot, &rows[start..]);
        self.live[rel.index()].push(true);
        self.live_counts[rel.index()] += 1;
        true
    }

    /// Registers a tuple just appended to `rel` by an owning
    /// [`Database`], which already rejected duplicates.
    pub fn note_insert(&mut self, rel: RelId, tuple: &Tuple) {
        let fresh = self.insert(rel, tuple);
        debug_assert!(fresh, "the owner's database deduplicates");
    }

    /// Removes `tuple` from `rel`: tombstones its slot, drops it from
    /// every posting list and the dedup map, and compacts the relation
    /// when tombstones are due for reclamation. Returns whether the
    /// tuple was live (mirrors [`Database::remove`]'s answer).
    pub fn note_remove(&mut self, rel: RelId, tuple: &Tuple) -> bool {
        self.probe.clear();
        for v in tuple {
            // A value the pool never saw cannot be in any row.
            let Some(sym) = self.pool.get(v) else {
                return false;
            };
            self.probe.push(sym);
        }
        let Some(slot) = self.dedup.get(rel, &self.probe) else {
            return false;
        };
        debug_assert!(
            self.live[rel.index()][slot as usize],
            "dedup maps live slots"
        );
        self.live[rel.index()][slot as usize] = false;
        self.live_counts[rel.index()] -= 1;
        self.dead[rel.index()] += 1;
        self.cols.remove_row(rel, slot, &self.probe);
        self.dedup.remove(rel, &self.probe, slot);
        if compaction_due(self.live_counts[rel.index()], self.dead[rel.index()]) {
            self.compact(rel);
        }
        true
    }

    /// Whether `tuple` is live in `rel`.
    pub fn contains(&self, rel: RelId, tuple: &Tuple) -> bool {
        let syms: Option<Vec<Sym>> = tuple.iter().map(|v| self.pool.get(v)).collect();
        syms.is_some_and(|syms| self.dedup.get(rel, &syms).is_some())
    }

    /// Reclaims `rel`'s tombstones in place: live rows move down to
    /// dense slots (order preserved), and posting lists and dedup
    /// entries are renumbered through the monotone old→new slot map,
    /// which keeps every list sorted. Then shrinks posting-list and
    /// dedup-shard capacity when occupancy fell below a quarter (very
    /// wide relations must not pin peak-size allocations for a
    /// long-lived session). The symbol pool is untouched (symbols are
    /// stable for the index's lifetime).
    fn compact(&mut self, rel: RelId) {
        let r = rel.index();
        let a = self.arities[r];
        let rows = &mut self.sym_rows[r];
        let mut map = vec![u32::MAX; self.live[r].len()];
        let mut keep = 0usize;
        for (slot, &alive) in self.live[r].iter().enumerate() {
            if alive {
                map[slot] = keep as u32;
                rows.copy_within(slot * a..slot * a + a, keep * a);
                keep += 1;
            }
        }
        rows.truncate(keep * a);
        self.cols.renumber_rel(rel, &map);
        self.dedup.renumber_rel(rel, &map);
        self.live[r].clear();
        self.live[r].resize(keep, true);
        let reclaimed = std::mem::take(&mut self.dead[r]);
        self.compactions += 1;
        self.slots_reclaimed += reclaimed as u64;
        if rows.len() < rows.capacity() / 4 {
            rows.shrink_to_fit();
            self.live[r].shrink_to_fit();
        }
        let shrunk = self.cols.shrink_rel(rel) + self.dedup.shrink_rel(rel);
        self.bytes_reclaimed += ((reclaimed * a + shrunk) * std::mem::size_of::<Sym>()) as u64;
    }

    /// Number of live (indexed, not tombstoned) rows of `rel`.
    pub fn num_rows(&self, rel: RelId) -> usize {
        self.live_counts[rel.index()]
    }

    /// Number of live rows across all relations.
    pub fn total_tuples(&self) -> usize {
        self.live_counts.iter().sum()
    }

    /// The live tuples of `rel`, in insertion order (a re-inserted tuple
    /// counts from its latest insertion) — the order a [`Database`]
    /// receiving the same inserts and removals enumerates.
    pub fn tuples(&self, rel: RelId) -> impl Iterator<Item = Tuple> + '_ {
        self.live_rows(rel).map(move |row| {
            self.row(rel, row)
                .iter()
                .map(|&s| self.pool.resolve(s).clone())
                .collect()
        })
    }

    /// The live row ids of `rel`, ascending (slot ids; tombstones are
    /// skipped). Consumers scanning whole relations must use this, not
    /// `0..num_rows`, once deletions are in play.
    pub fn live_rows(&self, rel: RelId) -> impl Iterator<Item = u32> + '_ {
        self.live[rel.index()]
            .iter()
            .enumerate()
            .filter_map(|(slot, &alive)| alive.then_some(slot as u32))
    }

    /// Number of distinct symbols interned so far. Grows monotonically;
    /// a growth after inserts means a brand-new constant appeared, which
    /// falsifies any cached "unsatisfiable" plan.
    pub fn num_syms(&self) -> usize {
        self.pool.len()
    }

    /// Number of compaction passes run so far (observability).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Tombstoned slots reclaimed by compaction so far (observability).
    pub fn slots_reclaimed(&self) -> u64 {
        self.slots_reclaimed
    }

    /// Approximate **bytes** released by compaction and capacity
    /// shrinking so far: reclaimed row symbols plus shrunk
    /// posting-list/dedup-shard capacity entries, each costed at
    /// `size_of::<Sym>()` (observability; an estimate, not an
    /// allocator measurement — map entries are larger than one `Sym`,
    /// so shrink reclamation is undercounted).
    pub fn bytes_reclaimed(&self) -> u64 {
        self.bytes_reclaimed
    }

    /// Approximate resident bytes of the whole index: symbol pool,
    /// posting lists, dedup map, and the interned row storage. An
    /// estimate for capacity planning (the shared-catalog memory gate),
    /// not an allocator measurement.
    pub fn approx_bytes(&self) -> usize {
        let sym = std::mem::size_of::<Sym>();
        let rows: usize = self.sym_rows.iter().map(|r| r.capacity() * sym).sum();
        let live: usize = self.live.iter().map(Vec::capacity).sum();
        self.pool.approx_bytes()
            + self.cols.approx_bytes()
            + self.dedup.approx_bytes()
            + rows
            + live
    }

    /// The interned symbol of a value, if it occurs in the instance.
    pub fn sym_of_value(&self, v: &Value) -> Option<Sym> {
        self.pool.get(v)
    }

    /// The value behind an interned symbol.
    pub fn value_of(&self, sym: Sym) -> &Value {
        self.pool.resolve(sym)
    }

    /// Number of distinct symbols in column `col` of `rel` among live
    /// rows — the planner's selectivity statistic, maintained
    /// incrementally by the posting maps through insert, delete, and
    /// compaction (deletes remove a symbol's entry the moment its
    /// posting list empties, so tombstones never inflate the count).
    pub fn distinct_count(&self, rel: RelId, col: usize) -> usize {
        self.cols.distinct_count(rel, col)
    }

    #[inline]
    fn row(&self, rel: RelId, row: u32) -> &[Sym] {
        let a = self.arities[rel.index()];
        let start = row as usize * a;
        &self.sym_rows[rel.index()][start..start + a]
    }
}

impl FactSource for DbIndex {
    fn rel_size(&self, rel: RelId) -> usize {
        self.num_rows(rel)
    }

    fn row_syms(&self, rel: RelId, row: u32) -> &[Sym] {
        self.row(rel, row)
    }

    fn posting_len(&self, rel: RelId, col: usize, sym: Sym) -> usize {
        self.cols.posting_len(rel, col, sym)
    }

    fn candidates(&self, rel: RelId, bound: &[(usize, Sym)], out: &mut Vec<u32>) {
        if bound.is_empty() {
            out.extend(self.live_rows(rel));
        } else {
            self.cols
                .candidates(rel, bound, |row| self.row(rel, row), out);
        }
    }

    fn sym_of_const(&self, c: &Constant) -> Option<Sym> {
        self.pool.get(&Value::Const(c.clone()))
    }

    fn distinct_count(&self, rel: RelId, col: usize) -> usize {
        self.cols.distinct_count(rel, col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_ir::Catalog;

    /// Whether some live row of `rel` carries every `(col, sym)` of
    /// `bound`, through the join engine's candidate probe.
    fn has_row(idx: &DbIndex, rel: RelId, bound: &[(usize, Sym)]) -> bool {
        let mut out = Vec::new();
        idx.candidates(rel, bound, &mut out);
        !out.is_empty()
    }

    fn db() -> (Catalog, Database) {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        c.declare("S", ["x"]).unwrap();
        let mut db = Database::new(&c);
        db.insert_named("R", [1i64, 2]).unwrap();
        db.insert_named("R", [2i64, 2]).unwrap();
        db.insert_named("S", [2i64]).unwrap();
        (c, db)
    }

    #[test]
    fn build_and_probe() {
        let (c, db) = db();
        let idx = DbIndex::build(&db);
        let r = c.resolve("R").unwrap();
        let s = c.resolve("S").unwrap();
        assert_eq!(idx.num_rows(r), 2);
        assert_eq!(idx.num_rows(s), 1);
        let two = idx.sym_of_value(&Value::int(2)).unwrap();
        assert_eq!(idx.posting_len(r, 1, two), 2);
        assert_eq!(idx.posting_len(r, 0, two), 1);
        assert!(has_row(&idx, s, &[(0, two)]));
        let one = idx.sym_of_value(&Value::int(1)).unwrap();
        assert!(!has_row(&idx, s, &[(0, one)]));
    }

    #[test]
    fn note_insert_keeps_pace() {
        let (c, mut db) = db();
        let mut idx = DbIndex::build(&db);
        let s = c.resolve("S").unwrap();
        let t: Tuple = vec![Value::int(9)];
        assert!(db.insert(s, t.clone()).unwrap());
        idx.note_insert(s, &t);
        assert_eq!(idx.num_rows(s), 2);
        let nine = idx.sym_of_value(&Value::int(9)).unwrap();
        assert!(has_row(&idx, s, &[(0, nine)]));
    }

    #[test]
    fn note_remove_tombstones_the_row() {
        let (c, mut db) = db();
        let mut idx = DbIndex::build(&db);
        let r = c.resolve("R").unwrap();
        let t: Tuple = vec![Value::int(1), Value::int(2)];
        assert!(db.remove(r, &t).unwrap());
        assert!(idx.note_remove(r, &t));
        assert_eq!(idx.num_rows(r), 1);
        let one = idx.sym_of_value(&Value::int(1)).unwrap();
        let two = idx.sym_of_value(&Value::int(2)).unwrap();
        assert_eq!(idx.posting_len(r, 0, one), 0);
        assert_eq!(idx.posting_len(r, 1, two), 1);
        assert!(!has_row(&idx, r, &[(0, one)]));
        assert_eq!(idx.live_rows(r).collect::<Vec<_>>(), vec![1]);
        // Removing it again (or a never-seen tuple) is a no-op.
        assert!(!idx.note_remove(r, &t));
        assert!(!idx.note_remove(r, &vec![Value::int(7), Value::int(7)]));
    }

    #[test]
    fn delete_then_reinsert_identical_tuple() {
        let (c, mut db) = db();
        let mut idx = DbIndex::build(&db);
        let r = c.resolve("R").unwrap();
        let t: Tuple = vec![Value::int(1), Value::int(2)];
        assert!(db.remove(r, &t).unwrap());
        assert!(idx.note_remove(r, &t));
        assert!(db.insert(r, t.clone()).unwrap());
        idx.note_insert(r, &t);
        assert_eq!(idx.num_rows(r), 2);
        let one = idx.sym_of_value(&Value::int(1)).unwrap();
        assert_eq!(idx.posting_len(r, 0, one), 1);
        assert!(has_row(
            &idx,
            r,
            &[(0, one), (1, idx.sym_of_value(&Value::int(2)).unwrap())]
        ));
        // The reinserted tuple is removable again through the fresh
        // dedup entry (tombstone of the old slot does not shadow it).
        assert!(idx.note_remove(r, &t));
        assert_eq!(idx.num_rows(r), 1);
    }

    #[test]
    fn compaction_reclaims_tombstones_and_preserves_answers() {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let r = c.resolve("R").unwrap();
        let mut db = Database::new(&c);
        let n = 3 * COMPACT_MIN_DEAD as i64;
        for i in 0..n {
            db.insert(r, vec![Value::int(i), Value::int(i + 1)])
                .unwrap();
        }
        let mut idx = DbIndex::build(&db);
        // Delete two of every three tuples: dead outnumbers live well
        // past the minimum threshold, so compaction must trigger.
        for i in 0..n {
            if i % 3 == 0 {
                continue;
            }
            let t = vec![Value::int(i), Value::int(i + 1)];
            assert!(db.remove(r, &t).unwrap());
            assert!(idx.note_remove(r, &t));
        }
        assert!(idx.compactions() > 0, "compaction must have triggered");
        assert_eq!(idx.num_rows(r), n as usize / 3);
        // Renumbered rows still answer probes and enumerate densely.
        let fresh = DbIndex::build(&db);
        for i in 0..n {
            let sym_live = idx
                .sym_of_value(&Value::int(i))
                .map(|s| idx.posting_len(r, 0, s))
                .unwrap_or(0);
            let sym_fresh = fresh
                .sym_of_value(&Value::int(i))
                .map(|s| fresh.posting_len(r, 0, s))
                .unwrap_or(0);
            assert_eq!(sym_live, sym_fresh, "posting lengths for key {i}");
        }
        let live: Vec<u32> = idx.live_rows(r).collect();
        assert_eq!(live.len(), idx.num_rows(r));
        // Amortized reclamation bound: tombstones never outnumber live
        // rows by more than the compaction minimum.
        let max_slot = *live.last().unwrap() as usize + 1;
        assert!(
            max_slot - live.len() <= live.len() + COMPACT_MIN_DEAD,
            "tombstones unreclaimed: {} slots for {} live rows",
            max_slot,
            live.len()
        );
        // Symbols survived compaction (plans stay valid).
        assert!(idx.sym_of_value(&Value::int(0)).is_some());
    }

    #[test]
    fn adaptive_compaction_fires_earlier_on_large_relations() {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let r = c.resolve("R").unwrap();
        let mut db = Database::new(&c);
        let n = 10_000i64;
        for i in 0..n {
            db.insert(r, vec![Value::int(i), Value::int(i + 1)])
                .unwrap();
        }
        let mut idx = DbIndex::build(&db);
        // Delete 4000 of 10000: dead crosses live/2 (the mid size
        // tier's trigger) on the way, while never reaching the small
        // tier's dead > live — the adaptive policy must compact where
        // the fixed policy would not have.
        for i in 0..4_000 {
            let t = vec![Value::int(i), Value::int(i + 1)];
            assert!(db.remove(r, &t).unwrap());
            assert!(idx.note_remove(r, &t));
        }
        assert!(idx.compactions() > 0, "mid-tier trigger must have fired");
        assert!(idx.slots_reclaimed() > 0);
        assert!(idx.bytes_reclaimed() > 0);
        assert_eq!(idx.num_rows(r), 6_000);
        // The live view and a fresh rebuild agree.
        let fresh = DbIndex::build(&db);
        assert_eq!(idx.live_rows(r).count(), fresh.live_rows(r).count(),);
    }

    #[test]
    fn churn_agrees_with_database_across_compactions() {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        c.declare("S", ["x"]).unwrap();
        let rels = [c.resolve("R").unwrap(), c.resolve("S").unwrap()];
        let mut db = Database::new(&c);
        let mut idx = DbIndex::new(&c);
        // A small domain forces duplicate inserts, misses on delete and
        // re-insertions of deleted tuples; deletes outweigh inserts in
        // the middle phase so both relations compact repeatedly.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % m
        };
        for step in 0..30_000u64 {
            let rel = rels[next(2) as usize];
            let t: Tuple = (0..c.arity(rel))
                .map(|_| Value::int(next(60) as i64))
                .collect();
            let delete_odds = if (10_000..20_000).contains(&step) {
                3
            } else {
                1
            };
            if next(4) < delete_odds {
                assert_eq!(idx.note_remove(rel, &t), db.remove(rel, &t).unwrap());
            } else {
                assert_eq!(idx.insert(rel, &t), db.insert(rel, t.clone()).unwrap());
            }
            let probe: Tuple = (0..c.arity(rel))
                .map(|_| Value::int(next(60) as i64))
                .collect();
            assert_eq!(idx.contains(rel, &probe), db.relation(rel).contains(&probe));
            if step % 997 == 0 {
                for rel in rels {
                    let ours: Vec<Tuple> = idx.tuples(rel).collect();
                    let theirs: Vec<Tuple> = db.relation(rel).tuples().cloned().collect();
                    assert_eq!(ours, theirs, "step {step}: contents or order differ");
                }
                assert_eq!(idx.total_tuples(), db.total_tuples());
            }
        }
        assert!(idx.compactions() > 2, "churn must compact");
        for rel in rels {
            let ours: Vec<Tuple> = idx.tuples(rel).collect();
            let theirs: Vec<Tuple> = db.relation(rel).tuples().cloned().collect();
            assert_eq!(ours, theirs);
        }
        // The compacted index answers joins like a fresh build.
        let fresh = DbIndex::build(&db);
        for rel in rels {
            for col in 0..c.arity(rel) {
                assert_eq!(idx.distinct_count(rel, col), fresh.distinct_count(rel, col));
            }
        }
    }

    #[test]
    fn num_syms_grows_only_on_new_constants() {
        let (c, mut db) = db();
        let mut idx = DbIndex::build(&db);
        let s = c.resolve("S").unwrap();
        let before = idx.num_syms();
        let t: Tuple = vec![Value::int(2)]; // already interned
        db.remove(s, &t).unwrap();
        idx.note_remove(s, &t);
        db.insert(s, t.clone()).unwrap();
        idx.note_insert(s, &t);
        assert_eq!(idx.num_syms(), before);
        let t9: Tuple = vec![Value::int(9)];
        db.insert(s, t9.clone()).unwrap();
        idx.note_insert(s, &t9);
        assert_eq!(idx.num_syms(), before + 1);
    }
}
