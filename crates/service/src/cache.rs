//! The semantic result cache: containment answers keyed by the
//! *isomorphism class* of the pair `(Q, Q′)` under a fixed Σ.
//!
//! Containment `Σ ⊨ Q ⊆∞ Q′` is invariant under renaming each query's
//! variables and reordering each query's atoms (the queries' variable
//! scopes are disjoint, so the renamings are independent). A cache
//! keyed by *syntactic* identity would miss every client that spells
//! the same question differently; this one buckets by
//! [`iso_key`] of both sides (plus a Σ
//! fingerprint, so one cache can safely serve several sessions) and
//! confirms candidates with the exact [`is_isomorphic`] test before
//! returning them. A hash collision therefore costs one extra
//! containment run, never a wrong answer — the same
//! bucket-then-verify discipline as
//! [`PlanCache`](cqchase_index::PlanCache).
//!
//! Each isomorphism class of *query* is stored once. The cache keeps
//! one stored query per class it has seen, numbered by a dense class
//! id, and an entry holds the class ids of both sides. A query resolves
//! to its class by structural `==` first (a session names the same
//! registered queries again and again) and by [`is_isomorphic`] only
//! when that fails; a lookup whose bucket is empty misses without
//! resolving either side (the stored queries are cold in memory after
//! a containment run, so comparing against them is the probe's largest
//! cost). Memory is therefore
//! proportional to the number of distinct queries, not to the number
//! of cached pairs: a session's cache only ever sees that session's
//! registered queries, so the class table is bounded by its program.
//!
//! The cache is bounded: beyond `capacity` entries the
//! least-recently-used one is evicted first (a long-running server
//! must not grow without limit). Recency is a tick-ordered map, so an
//! eviction pops its oldest entry instead of scanning them all.
//! Hit/miss/eviction counts are kept for the `stats` endpoint, and a
//! capacity of 0 disables caching entirely — the differential property
//! tests run cache-on vs cache-off and require bit-identical answers.

use std::collections::BTreeMap;

use cqchase_core::{is_isomorphic, iso_key};
use cqchase_index::FxHashMap;
use cqchase_ir::{ConjunctiveQuery, DependencySet};

use crate::proto::CheckSummary;

/// Bucket key: Σ fingerprint plus the iso keys of both sides.
type Key = (u64, u64, u64);

#[derive(Debug)]
struct Entry {
    /// Class ids of both sides.
    classes: (u32, u32),
    answer: CheckSummary,
    /// The entry's key in the recency map.
    last_used: u64,
}

/// Counters exposed through the `stats` endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a containment run.
    pub misses: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
    /// Entries currently held.
    pub entries: usize,
    /// The configured capacity (0 = caching disabled).
    pub capacity: usize,
}

/// A bounded LRU cache of containment answers keyed by isomorphism
/// class. See the module docs for the invariants.
#[derive(Debug)]
pub struct SemanticCache {
    /// One stored query per class; a class id indexes this table.
    classes: Vec<ConjunctiveQuery>,
    /// Class ids bucketed by the iso key of their query.
    by_iso_key: FxHashMap<u64, Vec<u32>>,
    entries: FxHashMap<Key, Vec<Entry>>,
    /// Entry ticks in recency order, each with its bucket.
    lru: BTreeMap<u64, Key>,
    capacity: usize,
    len: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A stable 64-bit fingerprint of a dependency set: dependencies are
/// hashed in declaration order through their display rendering, which
/// round-trips the surface syntax and is independent of process-local
/// ids beyond the catalog the session owns.
pub fn sigma_fingerprint(sigma: &DependencySet, catalog: &cqchase_ir::Catalog) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = cqchase_index::FxHasher::default();
    for fd in sigma.fds() {
        cqchase_ir::display::fd(fd, catalog)
            .to_string()
            .hash(&mut h);
    }
    h.write_u8(0xFD);
    for ind in sigma.inds() {
        cqchase_ir::display::ind(ind, catalog)
            .to_string()
            .hash(&mut h);
    }
    h.finish()
}

impl SemanticCache {
    /// A cache holding at most `capacity` answers; 0 disables caching
    /// ([`lookup`](SemanticCache::lookup) always misses, `insert` is a
    /// no-op).
    pub fn new(capacity: usize) -> SemanticCache {
        SemanticCache {
            classes: Vec::new(),
            by_iso_key: FxHashMap::default(),
            entries: FxHashMap::default(),
            lru: BTreeMap::new(),
            capacity,
            len: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// `q`'s class id, if the cache has seen its class (`iso` is
    /// `iso_key(q)`).
    fn class_of(&self, iso: u64, q: &ConjunctiveQuery) -> Option<u32> {
        let bucket = self.by_iso_key.get(&iso)?;
        let stored = |c: &u32| &self.classes[*c as usize];
        let same = bucket.iter().find(|c| stored(c) == q);
        same.or_else(|| bucket.iter().find(|c| is_isomorphic(q, stored(c))))
            .copied()
    }

    /// `q`'s class id, storing `q` as a new class if it has none.
    fn class_or_insert(&mut self, iso: u64, q: &ConjunctiveQuery) -> u32 {
        if let Some(c) = self.class_of(iso, q) {
            return c;
        }
        let c = self.classes.len() as u32;
        self.classes.push(q.clone());
        self.by_iso_key.entry(iso).or_default().push(c);
        c
    }

    /// Looks up the answer for `(q, q_prime)` under the Σ identified by
    /// `sigma_fp`. A hit requires *both* sides isomorphic to a stored
    /// pair.
    pub fn lookup(
        &mut self,
        sigma_fp: u64,
        q: &ConjunctiveQuery,
        q_prime: &ConjunctiveQuery,
    ) -> Option<CheckSummary> {
        if self.capacity == 0 {
            self.misses += 1;
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        let key = (sigma_fp, iso_key(q), iso_key(q_prime));
        // An empty bucket misses without resolving either side's class.
        let classes = if self.entries.contains_key(&key) {
            self.class_of(key.1, q).zip(self.class_of(key.2, q_prime))
        } else {
            None
        };
        let found = classes.and_then(|classes| {
            let bucket = self.entries.get_mut(&key)?;
            let e = bucket.iter_mut().find(|e| e.classes == classes)?;
            self.lru.remove(&e.last_used);
            self.lru.insert(tick, key);
            e.last_used = tick;
            Some(e.answer.clone())
        });
        match &found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Stores an answer. Skips the insert when an isomorphic pair is
    /// already present (concurrent requests can race to compute the
    /// same class — both got the same answer, one entry suffices).
    pub fn insert(
        &mut self,
        sigma_fp: u64,
        q: &ConjunctiveQuery,
        q_prime: &ConjunctiveQuery,
        answer: CheckSummary,
    ) {
        if self.capacity == 0 {
            return;
        }
        let key = (sigma_fp, iso_key(q), iso_key(q_prime));
        let classes = (
            self.class_or_insert(key.1, q),
            self.class_or_insert(key.2, q_prime),
        );
        let bucket = self.entries.entry(key).or_default();
        if bucket.iter().any(|e| e.classes == classes) {
            return;
        }
        self.tick += 1;
        bucket.push(Entry {
            classes,
            answer,
            last_used: self.tick,
        });
        self.lru.insert(self.tick, key);
        self.len += 1;
        if self.len > self.capacity {
            self.evict_lru();
        }
    }

    /// Evicts the least-recently-used entry. The entry touched at the
    /// current tick is never the oldest, so the just-inserted answer
    /// always survives.
    fn evict_lru(&mut self) {
        let Some((tick, key)) = self.lru.pop_first() else {
            return;
        };
        let bucket = self.entries.get_mut(&key).expect("victim bucket exists");
        let pos = bucket
            .iter()
            .position(|e| e.last_used == tick)
            .expect("victim entry exists");
        bucket.swap_remove(pos);
        if bucket.is_empty() {
            self.entries.remove(&key);
        }
        self.len -= 1;
        self.evictions += 1;
    }

    /// Drops every cached answer and stored class (pressure shedding /
    /// tests). Counters survive, with the dropped entries counted as
    /// evictions, so the stats stay monotone across a shed.
    pub fn clear(&mut self) -> usize {
        let dropped = self.len;
        self.classes.clear();
        self.by_iso_key.clear();
        self.entries.clear();
        self.lru.clear();
        self.evictions += dropped as u64;
        self.len = 0;
        dropped
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.len,
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_ir::parse_program;

    fn summary(contained: bool) -> CheckSummary {
        CheckSummary {
            contained,
            exact: true,
            empty_chase: false,
            class: "Empty".into(),
            bound: 0,
        }
    }

    #[test]
    fn isomorphic_pairs_hit() {
        let p = parse_program(
            "relation R(a, b).
             A(x) :- R(x, y), R(y, x).
             Ar(u) :- R(w, u), R(u, w).
             B(x) :- R(x, y).
             Br(s) :- R(s, t).",
        )
        .unwrap();
        let fp = sigma_fingerprint(&p.deps, &p.catalog);
        let mut cache = SemanticCache::new(16);
        let (a, ar) = (p.query("A").unwrap(), p.query("Ar").unwrap());
        let (b, br) = (p.query("B").unwrap(), p.query("Br").unwrap());
        assert_eq!(cache.lookup(fp, a, b), None);
        cache.insert(fp, a, b, summary(true));
        // The renamed pair is the same isomorphism class.
        assert_eq!(cache.lookup(fp, ar, br), Some(summary(true)));
        // Swapping sides is a different question.
        assert_eq!(cache.lookup(fp, b, a), None);
        // A different Σ fingerprint misses.
        assert_eq!(cache.lookup(fp ^ 1, a, b), None);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 3, 1));
    }

    #[test]
    fn lru_eviction_is_bounded_and_counted() {
        let p = parse_program(
            "relation R(a, b).
             Q0(x) :- R(x, y).
             Q1(x) :- R(y, x).
             Q2(x) :- R(x, x).
             Q3(x, y) :- R(x, y).",
        )
        .unwrap();
        let fp = 7;
        let mut cache = SemanticCache::new(2);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    cache.insert(fp, &p.queries[i], &p.queries[j], summary(i < j));
                }
            }
        }
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 12 - 2);
        // The most recently inserted pair must still be present.
        assert_eq!(
            cache.lookup(fp, &p.queries[3], &p.queries[2]),
            Some(summary(false))
        );
    }

    #[test]
    fn hits_refresh_and_the_oldest_entry_goes_first() {
        let p = parse_program(
            "relation R(a, b).
             Q0(x) :- R(x, y).
             Q1(x) :- R(y, x).
             Q2(x) :- R(x, x).
             Q3(x) :- R(x, y), R(y, x).",
        )
        .unwrap();
        let q = &p.queries;
        let mut cache = SemanticCache::new(3);
        cache.insert(7, &q[0], &q[1], summary(true));
        cache.insert(7, &q[1], &q[2], summary(true));
        cache.insert(7, &q[2], &q[3], summary(true));
        // Touch the oldest entry: it becomes the newest.
        assert!(cache.lookup(7, &q[0], &q[1]).is_some());
        // The next insert evicts (q1, q2), now the oldest; the
        // just-inserted entry survives.
        cache.insert(7, &q[3], &q[0], summary(false));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(7, &q[1], &q[2]).is_none());
        assert!(cache.lookup(7, &q[0], &q[1]).is_some());
        assert!(cache.lookup(7, &q[2], &q[3]).is_some());
        assert_eq!(cache.lookup(7, &q[3], &q[0]), Some(summary(false)));
        // Recency is now (q0,q1) < (q2,q3) < (q3,q0): a further insert
        // evicts (q0, q1).
        cache.insert(7, &q[1], &q[3], summary(true));
        assert!(cache.lookup(7, &q[0], &q[1]).is_none());
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn renamed_queries_share_one_class() {
        let p = parse_program(
            "relation R(a, b).
             A(x) :- R(x, y), R(y, x).
             Ar(u) :- R(w, u), R(u, w).
             B(x) :- R(x, y).
             C(x) :- R(y, x).",
        )
        .unwrap();
        let (a, ar) = (p.query("A").unwrap(), p.query("Ar").unwrap());
        let (b, c) = (p.query("B").unwrap(), p.query("C").unwrap());
        let mut cache = SemanticCache::new(16);
        cache.insert(1, a, b, summary(true));
        assert_eq!(cache.classes.len(), 2);
        // `Ar` is `A` renamed: it resolves to `A`'s class, so only `C`
        // adds one.
        cache.insert(1, ar, c, summary(true));
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.classes.len(), 3);
        // A pair whose sides are one class stores it once.
        cache.insert(1, b, b, summary(true));
        assert_eq!(cache.classes.len(), 3);
        assert_eq!(cache.lookup(1, a, c), Some(summary(true)));
        // A lookup never stores a class.
        let p2 = parse_program("relation R(a, b). D(x) :- R(x, x).").unwrap();
        assert_eq!(cache.lookup(1, p2.query("D").unwrap(), b), None);
        assert_eq!(cache.classes.len(), 3);
    }

    #[test]
    fn memory_follows_distinct_queries_not_pairs() {
        let p = parse_program(
            "relation R(a, b).
             Q0(x) :- R(x, y).
             Q1(x) :- R(y, x).
             Q2(x) :- R(x, x).
             Q3(x) :- R(x, y), R(y, z).
             Q4(x) :- R(x, y), R(y, x).",
        )
        .unwrap();
        let n = p.queries.len();
        let mut cache = SemanticCache::new(64);
        for i in 0..n {
            for j in 0..n {
                cache.insert(5, &p.queries[i], &p.queries[j], summary(i <= j));
            }
        }
        assert_eq!(cache.stats().entries, n * n);
        assert_eq!(cache.classes.len(), n, "one stored query per class");
        // Bounded eviction keeps the class table at the distinct queries.
        let mut small = SemanticCache::new(3);
        for round in 0..3 {
            for i in 0..n {
                for j in 0..n {
                    small.insert(round, &p.queries[i], &p.queries[j], summary(i <= j));
                    assert!(small.stats().entries <= 3);
                    assert!(small.classes.len() <= n);
                }
            }
        }
        assert_eq!(small.stats().evictions, (3 * n * n - 3) as u64);
    }

    #[test]
    fn clear_drops_classes_and_keeps_counters_monotone() {
        let p = parse_program("relation R(a). Q(x) :- R(x). P(x) :- R(x), R(y).").unwrap();
        let (q, pq) = (&p.queries[0], &p.queries[1]);
        let mut cache = SemanticCache::new(8);
        cache.insert(1, q, pq, summary(true));
        cache.insert(1, pq, q, summary(true));
        assert!(cache.lookup(1, q, pq).is_some());
        let before = cache.stats();
        assert_eq!(cache.clear(), 2);
        assert!(cache.classes.is_empty() && cache.by_iso_key.is_empty());
        assert!(cache.lru.is_empty());
        let after = cache.stats();
        assert_eq!(after.entries, 0);
        assert_eq!(after.hits, before.hits);
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.evictions, before.evictions + 2);
        // The cache works as before once cleared.
        assert!(cache.lookup(1, q, pq).is_none());
        cache.insert(1, q, pq, summary(true));
        assert!(cache.lookup(1, q, pq).is_some());
        assert_eq!(cache.classes.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let p = parse_program("relation R(a). Q(x) :- R(x). P(x) :- R(x).").unwrap();
        let mut cache = SemanticCache::new(0);
        cache.insert(1, &p.queries[0], &p.queries[1], summary(true));
        assert_eq!(cache.lookup(1, &p.queries[0], &p.queries[1]), None);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn sigma_fingerprint_is_order_sensitive_and_stable() {
        let p1 = parse_program("relation R(a, b). fd R: a -> b. ind R[2] <= R[1].").unwrap();
        let p2 = parse_program("relation R(a, b). fd R: a -> b. ind R[2] <= R[1].").unwrap();
        let p3 = parse_program("relation R(a, b). fd R: b -> a. ind R[2] <= R[1].").unwrap();
        assert_eq!(
            sigma_fingerprint(&p1.deps, &p1.catalog),
            sigma_fingerprint(&p2.deps, &p2.catalog)
        );
        assert_ne!(
            sigma_fingerprint(&p1.deps, &p1.catalog),
            sigma_fingerprint(&p3.deps, &p3.catalog)
        );
    }
}
