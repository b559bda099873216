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
//! The cache is bounded: beyond `capacity` entries the
//! least-recently-used one is evicted first (a long-running server
//! must not grow without limit). Hit/miss/eviction counts are kept for
//! the `stats` endpoint, and a capacity of 0 disables caching
//! entirely — the differential property tests run cache-on vs
//! cache-off and require bit-identical answers.

use cqchase_core::{is_isomorphic, iso_key};
use cqchase_index::FxHashMap;
use cqchase_ir::{ConjunctiveQuery, DependencySet};

use crate::proto::CheckSummary;

/// Bucket key: Σ fingerprint plus the iso keys of both sides.
type Key = (u64, u64, u64);

#[derive(Debug)]
struct Entry {
    /// Representatives of the isomorphism class (for exact
    /// verification — the key alone is only a hash).
    q: ConjunctiveQuery,
    q_prime: ConjunctiveQuery,
    answer: CheckSummary,
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
    entries: FxHashMap<Key, Vec<Entry>>,
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
            entries: FxHashMap::default(),
            capacity,
            len: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn key(sigma_fp: u64, q: &ConjunctiveQuery, q_prime: &ConjunctiveQuery) -> Key {
        (sigma_fp, iso_key(q), iso_key(q_prime))
    }

    /// Looks up the answer for `(q, q_prime)` under the Σ identified by
    /// `sigma_fp`. A hit requires *both* sides isomorphic to a stored
    /// representative pair.
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
        let found = self
            .entries
            .get_mut(&Self::key(sigma_fp, q, q_prime))
            .and_then(|bucket| {
                bucket
                    .iter_mut()
                    .find(|e| is_isomorphic(q, &e.q) && is_isomorphic(q_prime, &e.q_prime))
            })
            .map(|e| {
                e.last_used = tick;
                e.answer.clone()
            });
        match &found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Stores an answer. Skips the insert when an isomorphic pair is
    /// already present (concurrent requests can race to compute the
    /// same class — both got the same answer, one representative
    /// suffices).
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
        self.tick += 1;
        let tick = self.tick;
        let key = Self::key(sigma_fp, q, q_prime);
        let bucket = self.entries.entry(key).or_default();
        if bucket
            .iter()
            .any(|e| is_isomorphic(q, &e.q) && is_isomorphic(q_prime, &e.q_prime))
        {
            return;
        }
        bucket.push(Entry {
            q: q.clone(),
            q_prime: q_prime.clone(),
            answer,
            last_used: tick,
        });
        self.len += 1;
        if self.len > self.capacity {
            self.evict_lru(key);
        }
    }

    /// Evicts the least-recently-used entry. The entry touched at the
    /// current tick is never the minimum, so the just-inserted answer
    /// always survives.
    fn evict_lru(&mut self, keep: Key) {
        let victim = self
            .entries
            .iter()
            .flat_map(|(k, bucket)| bucket.iter().map(|e| (e.last_used, *k)))
            .min_by_key(|&(tick, _)| tick);
        let Some((victim_tick, key)) = victim else {
            return;
        };
        let bucket = self.entries.get_mut(&key).expect("victim bucket exists");
        let pos = bucket
            .iter()
            .position(|e| e.last_used == victim_tick)
            .expect("victim entry exists");
        bucket.remove(pos);
        if bucket.is_empty() && key != keep {
            self.entries.remove(&key);
        }
        self.len -= 1;
        self.evictions += 1;
    }

    /// Drops every cached answer (pressure shedding / tests). Counters
    /// survive, with the dropped entries counted as evictions, so the
    /// stats stay monotone across a shed.
    pub fn clear(&mut self) -> usize {
        let dropped = self.len;
        self.entries.clear();
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
