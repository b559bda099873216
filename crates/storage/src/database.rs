//! Databases: finite sets of relation instances over a catalog.

use std::fmt;

use cqchase_index::FxHashMap;
use cqchase_ir::{Catalog, IrError, IrResult, RelId};

use crate::value::{NullId, Value};

/// A row of a relation instance.
pub type Tuple = Vec<Value>;

/// Minimum tombstone count before a relation instance considers
/// compacting its slot vector (tiny relations are not worth the pass).
/// Shared with [`DbIndex`](crate::indexed::DbIndex) so database and
/// index reclaim in lockstep.
pub(crate) const COMPACT_MIN_DEAD: usize = 32;

/// The adaptive compaction trigger shared by [`RelationInstance`] and
/// [`DbIndex`](crate::indexed::DbIndex): compact when the dead-slot
/// count crosses a **size-tiered fraction of the live count** — small
/// relations wait until tombstones outnumber live rows (a pass there is
/// cheap but pointless earlier), large ones compact at dead > live/2,
/// and very large ones at dead > live/4. A compaction pass costs
/// O(live + dead) slot copies, so the tiered trigger bounds the
/// amortized cost per reclaimed slot at ~2, ~3, and ~5 copies
/// respectively while capping the memory a churn-heavy session wastes
/// on tombstones at 25% for relations where that waste is measured in
/// megabytes.
pub(crate) fn compaction_due(live: usize, dead: usize) -> bool {
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

/// One relation's extent: a duplicate-free multiset of tuples in insertion
/// order (order is preserved so experiments print deterministically).
///
/// Removal is **O(1)**: a tuple→slot map finds the victim and the slot
/// is tombstoned rather than shifted out (mirroring
/// [`DbIndex`](crate::indexed::DbIndex)); tombstones are reclaimed by
/// the shared adaptive compaction policy (`compaction_due`), which
/// preserves the live tuples' relative order. Enumeration goes through
/// the live-slot view [`RelationInstance::tuples`], so every consumer
/// (the naive engines included) sees exactly the live tuples in
/// insertion order, never a tombstone.
#[derive(Debug, Clone, Default)]
pub struct RelationInstance {
    /// Slots in insertion order; tombstoned slots keep their tuple
    /// until compaction (the memory is reclaimed wholesale there).
    slots: Vec<Tuple>,
    /// Liveness per slot (`false` = tombstone).
    live: Vec<bool>,
    /// `tuple → slot` for the live tuples (the O(1) removal path;
    /// doubles as the duplicate probe).
    pos: FxHashMap<Tuple, u32>,
    /// Tombstoned slot count (compaction trigger).
    dead: usize,
}

impl RelationInstance {
    /// Inserts a tuple; returns `true` if it was new.
    pub fn insert(&mut self, t: Tuple) -> bool {
        if self.pos.contains_key(&t) {
            return false;
        }
        let slot = self.slots.len() as u32;
        self.pos.insert(t.clone(), slot);
        self.slots.push(t);
        self.live.push(true);
        true
    }

    /// Removes a tuple; returns `true` if it was present. O(1): the
    /// slot is found through the position map and tombstoned; insertion
    /// order of the survivors is preserved across the amortized
    /// compaction that eventually reclaims it.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        let Some(slot) = self.pos.remove(t) else {
            return false;
        };
        debug_assert!(self.live[slot as usize], "the position map maps live slots");
        self.live[slot as usize] = false;
        self.dead += 1;
        if compaction_due(self.pos.len(), self.dead) {
            self.compact();
        }
        true
    }

    /// Reclaims tombstones: drops dead slots, renumbers the survivors
    /// densely (relative order preserved), and shrinks slot and map
    /// capacity when occupancy fell below a quarter — a long-lived
    /// session must not hold peak-size allocations forever.
    fn compact(&mut self) {
        let mut keep = 0usize;
        for slot in 0..self.slots.len() {
            if !self.live[slot] {
                continue;
            }
            if keep != slot {
                self.slots.swap(keep, slot);
            }
            keep += 1;
        }
        self.slots.truncate(keep);
        self.live.clear();
        self.live.resize(keep, true);
        self.dead = 0;
        for (slot, t) in self.slots.iter().enumerate() {
            *self.pos.get_mut(t).expect("live tuples stay mapped") = slot as u32;
        }
        if self.slots.len() < self.slots.capacity() / 4 {
            self.slots.shrink_to_fit();
            self.live.shrink_to_fit();
            self.pos.shrink_to_fit();
        }
    }

    /// Whether the tuple is present.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.pos.contains_key(t)
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// The live tuples, in insertion order (the live-slot view —
    /// tombstones awaiting compaction are skipped).
    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.slots
            .iter()
            .zip(&self.live)
            .filter_map(|(t, &alive)| alive.then_some(t))
    }

    /// Approximate resident bytes: slot tuples (including tombstones
    /// awaiting compaction), the liveness bitmap, and the position map
    /// whose keys clone every live tuple. An estimate for capacity
    /// planning, not an allocator measurement — string heap data inside
    /// values is not chased.
    pub fn approx_bytes(&self) -> usize {
        let val = std::mem::size_of::<Value>();
        let tup = std::mem::size_of::<Tuple>();
        let slot_payload: usize = self.slots.iter().map(|t| t.capacity() * val).sum();
        let key_payload: usize = self.pos.keys().map(|t| t.capacity() * val).sum();
        self.slots.capacity() * tup
            + slot_payload
            + self.live.capacity()
            + self.pos.capacity() * (tup + std::mem::size_of::<u32>() + 8)
            + key_payload
    }

    /// Rebuilds the instance applying `f` to every value (used by the data
    /// chase when unifying nulls). Collapses tuples that become equal and
    /// drops any accumulated tombstones.
    pub fn map_values(&mut self, f: impl Fn(&Value) -> Value) {
        let old = std::mem::take(&mut self.slots);
        let old_live = std::mem::take(&mut self.live);
        self.pos.clear();
        self.dead = 0;
        for (t, alive) in old.into_iter().zip(old_live) {
            if !alive {
                continue;
            }
            let t: Tuple = t.iter().map(&f).collect();
            self.insert(t);
        }
    }
}

/// Equality is extensional over the **live** tuples in insertion order:
/// two instances with different tombstone histories (slot layouts) but
/// identical live contents are equal.
impl PartialEq for RelationInstance {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.tuples().eq(other.tuples())
    }
}

impl Eq for RelationInstance {}

/// A database instance: one [`RelationInstance`] per catalog relation,
/// plus a counter for minting fresh labelled nulls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Database {
    catalog: Catalog,
    relations: Vec<RelationInstance>,
    next_null: u32,
}

impl Database {
    /// An empty database over `catalog`.
    pub fn new(catalog: &Catalog) -> Self {
        Database {
            catalog: catalog.clone(),
            relations: vec![RelationInstance::default(); catalog.len()],
            next_null: 0,
        }
    }

    /// The catalog this database is formatted against.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The instance of relation `rel`.
    pub fn relation(&self, rel: RelId) -> &RelationInstance {
        &self.relations[rel.index()]
    }

    /// Mutable access to the instance of relation `rel`.
    pub fn relation_mut(&mut self, rel: RelId) -> &mut RelationInstance {
        &mut self.relations[rel.index()]
    }

    /// Inserts a tuple into `rel`, checking arity. Returns whether the
    /// tuple was new.
    pub fn insert(&mut self, rel: RelId, tuple: Tuple) -> IrResult<bool> {
        let arity = self.catalog.arity(rel);
        if tuple.len() != arity {
            return Err(IrError::ArityMismatch {
                relation: self.catalog.name(rel).to_owned(),
                expected: arity,
                found: tuple.len(),
            });
        }
        for v in &tuple {
            if let Value::Null(n) = v {
                self.next_null = self.next_null.max(n.0 + 1);
            }
        }
        Ok(self.relations[rel.index()].insert(tuple))
    }

    /// Removes a tuple from `rel`, checking arity. Returns whether the
    /// tuple was present.
    pub fn remove(&mut self, rel: RelId, tuple: &Tuple) -> IrResult<bool> {
        let arity = self.catalog.arity(rel);
        if tuple.len() != arity {
            return Err(IrError::ArityMismatch {
                relation: self.catalog.name(rel).to_owned(),
                expected: arity,
                found: tuple.len(),
            });
        }
        Ok(self.relations[rel.index()].remove(tuple))
    }

    /// Inserts by relation name; values convert via `Into<Value>`.
    pub fn insert_named(
        &mut self,
        rel: &str,
        tuple: impl IntoIterator<Item = impl Into<Value>>,
    ) -> IrResult<bool> {
        let rel = self.catalog.require(rel)?;
        self.insert(rel, tuple.into_iter().map(Into::into).collect())
    }

    /// Builds a database from parsed ground facts (e.g.
    /// [`Program::facts`](cqchase_ir::parse::Program)).
    pub fn from_facts(
        catalog: &Catalog,
        facts: &[(RelId, Vec<cqchase_ir::Constant>)],
    ) -> IrResult<Database> {
        let mut db = Database::new(catalog);
        for (rel, consts) in facts {
            db.insert(*rel, consts.iter().cloned().map(Value::Const).collect())?;
        }
        Ok(db)
    }

    /// Mints a fresh labelled null, unique within this database.
    pub fn fresh_null(&mut self) -> Value {
        let id = NullId(self.next_null);
        self.next_null += 1;
        Value::Null(id)
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(RelationInstance::len).sum()
    }

    /// Approximate resident bytes across all relation instances
    /// ([`RelationInstance::approx_bytes`]); the catalog itself is not
    /// counted (it is shared, small, and identical across sessions).
    pub fn approx_bytes(&self) -> usize {
        self.relations
            .iter()
            .map(RelationInstance::approx_bytes)
            .sum()
    }

    /// Whether any value anywhere is a labelled null.
    pub fn has_nulls(&self) -> bool {
        self.relations
            .iter()
            .flat_map(|r| r.tuples())
            .flatten()
            .any(Value::is_null)
    }

    /// Applies `f` to every value in every relation (collapsing duplicate
    /// tuples that result).
    pub fn map_values(&mut self, f: impl Fn(&Value) -> Value + Copy) {
        for r in &mut self.relations {
            r.map_values(f);
        }
    }

    /// Iterator over `(rel, instance)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RelId, &RelationInstance)> {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, r)| (RelId(i as u32), r))
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (rel, inst) in self.iter() {
            if inst.is_empty() {
                continue;
            }
            for t in inst.tuples() {
                if !first {
                    writeln!(f)?;
                }
                first = false;
                write!(f, "{}(", self.catalog.name(rel))?;
                for (i, v) in t.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cat() -> Catalog {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        c.declare("S", ["x"]).unwrap();
        c
    }

    #[test]
    fn insert_and_dedup() {
        let c = cat();
        let mut db = Database::new(&c);
        assert!(db.insert_named("R", [1i64, 2]).unwrap());
        assert!(!db.insert_named("R", [1i64, 2]).unwrap());
        assert!(db.insert_named("R", [2i64, 1]).unwrap());
        assert_eq!(db.total_tuples(), 2);
        let r = c.resolve("R").unwrap();
        assert!(db.relation(r).contains(&vec![Value::int(1), Value::int(2)]));
    }

    #[test]
    fn remove_preserves_order_and_dedup() {
        let c = cat();
        let mut db = Database::new(&c);
        db.insert_named("R", [1i64, 2]).unwrap();
        db.insert_named("R", [3i64, 4]).unwrap();
        db.insert_named("R", [5i64, 6]).unwrap();
        let r = c.resolve("R").unwrap();
        let t = vec![Value::int(3), Value::int(4)];
        assert!(db.remove(r, &t).unwrap());
        assert!(!db.remove(r, &t).unwrap(), "second removal is a no-op");
        assert_eq!(db.total_tuples(), 2);
        assert!(!db.relation(r).contains(&t));
        // Survivors keep insertion order (through the live-slot view).
        assert_eq!(
            db.relation(r).tuples().cloned().collect::<Vec<_>>(),
            vec![
                vec![Value::int(1), Value::int(2)],
                vec![Value::int(5), Value::int(6)],
            ]
        );
        // Removed tuples can be reinserted (they are new again).
        assert!(db.insert(r, t.clone()).unwrap());
        assert_eq!(db.relation(r).tuples().last(), Some(&t));
        // Arity is checked.
        assert!(db.remove(r, &vec![Value::int(1)]).is_err());
    }

    #[test]
    fn equality_ignores_tombstone_history() {
        let c = cat();
        let mut a = Database::new(&c);
        a.insert_named("R", [1i64, 2]).unwrap();
        a.insert_named("R", [3i64, 4]).unwrap();
        let mut b = a.clone();
        let r = c.resolve("R").unwrap();
        // b takes a detour: insert + delete leaves a tombstone behind.
        b.insert(r, vec![Value::int(9), Value::int(9)]).unwrap();
        b.remove(r, &vec![Value::int(9), Value::int(9)]).unwrap();
        assert_eq!(a, b, "live contents equal ⇒ databases equal");
        b.remove(r, &vec![Value::int(1), Value::int(2)]).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn churn_compacts_and_preserves_live_view() {
        let c = cat();
        let r = c.resolve("R").unwrap();
        let mut db = Database::new(&c);
        // Sliding window: keep ~64 live while deleting thousands — the
        // tombstone count repeatedly crosses the compaction trigger.
        let window = 64i64;
        for i in 0..4096i64 {
            db.insert(r, vec![Value::int(i), Value::int(i + 1)])
                .unwrap();
            if i >= window {
                let old = vec![Value::int(i - window), Value::int(i - window + 1)];
                assert!(db.remove(r, &old).unwrap());
            }
        }
        assert_eq!(db.relation(r).len(), window as usize);
        let live: Vec<Tuple> = db.relation(r).tuples().cloned().collect();
        assert_eq!(live.len(), window as usize);
        // Insertion order survives compaction.
        for (k, t) in live.iter().enumerate() {
            assert_eq!(t[0], Value::int(4096 - window + k as i64));
        }
        // The slot store was actually reclaimed, not grown without
        // bound: at most live + the compaction threshold slack remains.
        assert!(
            db.relation(r).slots.len() <= window as usize * 2 + COMPACT_MIN_DEAD,
            "tombstones unreclaimed: {} slots for {} live",
            db.relation(r).slots.len(),
            window
        );
    }

    #[test]
    fn arity_checked() {
        let c = cat();
        let mut db = Database::new(&c);
        assert!(db.insert_named("R", [1i64]).is_err());
        assert!(db.insert_named("NOPE", [1i64]).is_err());
    }

    #[test]
    fn fresh_nulls_distinct() {
        let c = cat();
        let mut db = Database::new(&c);
        let n1 = db.fresh_null();
        let n2 = db.fresh_null();
        assert_ne!(n1, n2);
        assert!(!db.has_nulls()); // not inserted anywhere yet
        let r = c.resolve("R").unwrap();
        db.insert(r, vec![n1, Value::int(1)]).unwrap();
        assert!(db.has_nulls());
    }

    #[test]
    fn null_counter_tracks_inserted_nulls() {
        let c = cat();
        let mut db = Database::new(&c);
        let r = c.resolve("R").unwrap();
        db.insert(r, vec![Value::Null(NullId(5)), Value::int(0)])
            .unwrap();
        // The next fresh null must not collide with null 5.
        assert_eq!(db.fresh_null(), Value::Null(NullId(6)));
    }

    #[test]
    fn map_values_collapses() {
        let c = cat();
        let mut db = Database::new(&c);
        db.insert_named("R", [1i64, 7]).unwrap();
        db.insert_named("R", [2i64, 7]).unwrap();
        // Map both keys to 9 — the tuples become identical and collapse.
        db.map_values(|v| {
            if v.as_const().and_then(|c| match c {
                cqchase_ir::Constant::Int(i) => Some(*i),
                _ => None,
            }) == Some(7)
            {
                v.clone()
            } else {
                Value::int(9)
            }
        });
        assert_eq!(db.total_tuples(), 1);
    }

    #[test]
    fn from_facts_roundtrip() {
        let p = cqchase_ir::parse_program("relation R(a, b). R(1, 2). R(2, 3).").unwrap();
        let db = Database::from_facts(&p.catalog, &p.facts).unwrap();
        assert_eq!(db.total_tuples(), 2);
        let r = p.catalog.resolve("R").unwrap();
        assert!(db.relation(r).contains(&vec![Value::int(2), Value::int(3)]));
    }

    #[test]
    fn display_lists_tuples() {
        let c = cat();
        let mut db = Database::new(&c);
        db.insert_named("R", [1i64, 2]).unwrap();
        db.insert_named("S", [3i64]).unwrap();
        let s = db.to_string();
        assert!(s.contains("R(1, 2)"));
        assert!(s.contains("S(3)"));
    }
}
