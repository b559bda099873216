//! Databases: finite sets of relation instances over a catalog.
//!
//! A [`Database`] is the plain value-level store that the naive
//! engines, the instance chase and the instance enumerator read. Service
//! sessions keep their facts in a [`DbIndex`](crate::indexed::DbIndex)
//! instead, so a [`RelationInstance`] only packs its own slots.

use std::fmt;

use cqchase_index::FxHashMap;
use cqchase_ir::{Catalog, IrError, IrResult, RelId};

use crate::value::{NullId, Value};

/// A row of a relation instance.
pub type Tuple = Vec<Value>;

/// One relation's extent: a duplicate-free multiset of tuples in insertion
/// order (order is preserved so experiments print deterministically).
///
/// Removal is **O(1)** amortized: a tuple→slot map finds the victim and
/// its slot is emptied rather than shifted out. Once the holes outnumber
/// the live tuples, one `retain` pass packs the slots (order preserved)
/// and renumbers the map, so the slot vector stays within twice the live
/// count. Enumeration goes through
/// [`RelationInstance::tuples`], so every consumer (the naive engines
/// included) sees exactly the live tuples in insertion order.
#[derive(Debug, Clone, Default)]
pub struct RelationInstance {
    /// Tuples in insertion order; a removed tuple leaves `None` until
    /// the next pack.
    slots: Vec<Option<Tuple>>,
    /// `tuple → slot` for the live tuples (the O(1) removal path;
    /// doubles as the duplicate probe).
    pos: FxHashMap<Tuple, u32>,
    /// Emptied slots since the last pack.
    holes: usize,
}

impl RelationInstance {
    /// Inserts a tuple; returns `true` if it was new.
    pub fn insert(&mut self, t: Tuple) -> bool {
        if self.pos.contains_key(&t) {
            return false;
        }
        self.pos.insert(t.clone(), self.slots.len() as u32);
        self.slots.push(Some(t));
        true
    }

    /// Removes a tuple; returns `true` if it was present. The slot is
    /// found through the position map and emptied; the survivors keep
    /// their insertion order across the pack that eventually drops it.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        let Some(slot) = self.pos.remove(t) else {
            return false;
        };
        self.slots[slot as usize] = None;
        self.holes += 1;
        if self.holes > self.pos.len() {
            self.slots.retain(Option::is_some);
            self.holes = 0;
            for (slot, t) in self.slots.iter().flatten().enumerate() {
                *self.pos.get_mut(t).expect("live tuples stay mapped") = slot as u32;
            }
        }
        true
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

    /// The live tuples, in insertion order.
    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.slots.iter().flatten()
    }
}

/// Equality is extensional over the **live** tuples in insertion order:
/// two instances with different removal histories (slot layouts) but
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

    /// Inserts a tuple into `rel`, checking arity. Returns whether the
    /// tuple was new.
    pub fn insert(&mut self, rel: RelId, tuple: Tuple) -> IrResult<bool> {
        self.check_arity(rel, &tuple)?;
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
        self.check_arity(rel, tuple)?;
        Ok(self.relations[rel.index()].remove(tuple))
    }

    fn check_arity(&self, rel: RelId, tuple: &Tuple) -> IrResult<()> {
        let arity = self.catalog.arity(rel);
        if tuple.len() != arity {
            return Err(IrError::ArityMismatch {
                relation: self.catalog.name(rel).to_owned(),
                expected: arity,
                found: tuple.len(),
            });
        }
        Ok(())
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

    /// An empty database over the same catalog that keeps this one's
    /// null counter, so nulls minted into it never collide with this
    /// database's nulls.
    pub fn cleared(&self) -> Database {
        Database {
            next_null: self.next_null,
            ..Database::new(&self.catalog)
        }
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

    /// Whether any value anywhere is a labelled null.
    pub fn has_nulls(&self) -> bool {
        self.relations
            .iter()
            .flat_map(|r| r.tuples())
            .flatten()
            .any(Value::is_null)
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
        // b takes a detour: insert + delete leaves a hole behind.
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
        // hole count repeatedly crosses the live count and packs.
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
        // Insertion order survives packing.
        for (k, t) in live.iter().enumerate() {
            assert_eq!(t[0], Value::int(4096 - window + k as i64));
        }
        // The slot store was actually packed, not grown without bound:
        // holes never outnumber the live tuples.
        assert!(
            db.relation(r).slots.len() <= 2 * window as usize + 1,
            "holes unreclaimed: {} slots for {} live",
            db.relation(r).slots.len(),
            window
        );
    }

    #[test]
    fn removing_the_last_tuple_then_reinserting_it() {
        let c = cat();
        let r = c.resolve("R").unwrap();
        let mut db = Database::new(&c);
        let t = vec![Value::int(1), Value::int(2)];
        db.insert(r, t.clone()).unwrap();
        assert!(db.remove(r, &t).unwrap());
        assert!(db.relation(r).is_empty() && db.relation(r).slots.is_empty());
        assert!(db.insert(r, t.clone()).unwrap(), "the tuple is new again");
        assert!(!db.insert(r, t.clone()).unwrap());
        assert_eq!(db.relation(r).tuples().collect::<Vec<_>>(), vec![&t]);
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
    fn cleared_keeps_the_null_counter() {
        let c = cat();
        let mut db = Database::new(&c);
        let r = c.resolve("R").unwrap();
        db.insert(r, vec![Value::Null(NullId(3)), Value::int(0)])
            .unwrap();
        let mut empty = db.cleared();
        assert_eq!(empty.total_tuples(), 0);
        assert_eq!(empty.catalog(), db.catalog());
        assert_eq!(empty.fresh_null(), Value::Null(NullId(4)));
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
