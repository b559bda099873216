//! Caching of compiled query plans.
//!
//! [`compile`] is cheap but not free — it walks
//! every atom, clones slot vectors, and resolves constants against the
//! source's symbol pool. Workloads that run the *same* query against the
//! same source many times (the containment engine probes `Q′` against a
//! growing chase once per level; batch evaluation probes one query per
//! tuple) pay that cost per call. A [`PlanCache`] memoizes compiled
//! plans keyed by the query's *structural identity*, so repeated checks
//! skip `compile` entirely.
//!
//! A cache is only valid against **one** fact source (plans embed
//! source-resolved constant symbols), and only while that source's
//! constant-symbol resolution is stable: interning new constants is fine
//! (existing symbols never change), rebuilding the source's pool is not.
//! Keep one cache per source, and drop it with the source. A clone of the
//! source may take a clone of its cache along: the copied pool resolves
//! every embedded symbol exactly as the original did.
//!
//! The cache keeps no activity counters of its own. Each
//! [`PlanCache::get_or_compile`] reports what it did as a [`PlanLookup`],
//! and the caller counts whatever it wants to attribute.

use std::hash::{Hash, Hasher};

use cqchase_ir::{Atom, ConjunctiveQuery, Term};

use crate::engine::{compile, CompiledQuery, FactSource};
use crate::fx::{FxHashMap, FxHasher};

/// Structural identity of a conjunctive query: a 64-bit content hash
/// plus the cheap exact dimensions (atom, variable, head counts) as
/// collision guards. Two queries with equal keys compile to the same
/// plan against any given source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryKey {
    hash: u64,
    num_atoms: u32,
    num_vars: u32,
    head_len: u32,
}

/// Computes a query's [`QueryKey`] from its body and head structure
/// (names are ignored — only relations, variable ids, and constants
/// matter to the compiled plan).
pub fn query_key(q: &ConjunctiveQuery) -> QueryKey {
    let mut h = FxHasher::default();
    for atom in &q.atoms {
        atom.relation.0.hash(&mut h);
        for t in &atom.terms {
            match t {
                Term::Var(v) => {
                    h.write_u8(0);
                    v.0.hash(&mut h);
                }
                Term::Const(c) => {
                    h.write_u8(1);
                    c.hash(&mut h);
                }
            }
        }
    }
    for t in &q.head {
        t.hash(&mut h);
    }
    QueryKey {
        hash: h.finish(),
        num_atoms: q.atoms.len() as u32,
        num_vars: q.vars.len() as u32,
        head_len: q.head.len() as u32,
    }
}

/// One memoized plan plus the exact structure it was compiled from
/// (the collision guard — a [`QueryKey`] hash match alone is not
/// proof of structural equality) and its last-use tick for LRU
/// eviction.
#[derive(Debug, Clone)]
struct CachedPlan {
    atoms: Vec<Atom>,
    head: Vec<Term>,
    plan: Option<CompiledQuery>,
    last_used: u64,
}

/// What one [`PlanCache::get_or_compile`] call did to produce its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanLookup {
    /// Served the cached plan unchanged.
    Hit,
    /// Found the query cached but recompiled it: the plan was costed
    /// against cardinalities that have since drifted ≥2x.
    Replanned,
    /// Compiled on first sight (or after an eviction). `evicted` is set
    /// when inserting the plan pushed the least-recently-used entry out.
    Compiled {
        /// Whether the capacity bound evicted an entry.
        evicted: bool,
    },
}

/// A memo table `query structure → compiled plan` for one fact source.
///
/// Lookup hashes the [`QueryKey`] and then verifies *exact* structural
/// equality (atoms and head) against the bucket's entries, so a 64-bit
/// hash collision costs one extra compile, never a wrong plan.
///
/// `None` values are cached too: a query whose constants are absent from
/// the source compiles to "unsatisfiable" and stays unsatisfiable for as
/// long as the cache is valid.
///
/// A cache built with [`PlanCache::with_capacity`] is **bounded**: once
/// it holds `capacity` plans, inserting another evicts the
/// least-recently-used entry first. Eviction only ever discards memoized
/// work — an evicted query simply recompiles on next sight — so bounded
/// and unbounded caches return identical plans. Long-running processes
/// (the `cqchase-service` server keeps one cache per live fact set)
/// should always bound their caches.
#[derive(Debug, Default, Clone)]
pub struct PlanCache {
    plans: FxHashMap<QueryKey, Vec<CachedPlan>>,
    capacity: Option<usize>,
    tick: u64,
    len: usize,
}

impl PlanCache {
    /// An empty, unbounded cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// An empty cache holding at most `capacity` plans (LRU eviction
    /// beyond that). A zero capacity caches nothing — every lookup
    /// compiles.
    pub fn with_capacity(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: Some(capacity),
            ..PlanCache::default()
        }
    }

    /// The plan for `q` against `src`, compiling on first sight, and
    /// what the lookup did to get it. The plan is `None` when the query
    /// cannot match (some constant is absent from the source).
    pub fn get_or_compile(
        &mut self,
        q: &ConjunctiveQuery,
        src: &impl FactSource,
    ) -> (Option<&CompiledQuery>, PlanLookup) {
        if self.capacity == Some(0) {
            // Degenerate bound: no memoization at all. Compile into a
            // one-slot scratch bucket so the borrow can be returned.
            self.plans.clear();
            let plan = compile(q, src);
            let bucket = self.plans.entry(query_key(q)).or_default();
            bucket.push(CachedPlan {
                atoms: Vec::new(),
                head: Vec::new(),
                plan,
                last_used: 0,
            });
            let plan = bucket.last().expect("just pushed").plan.as_ref();
            return (plan, PlanLookup::Compiled { evicted: false });
        }
        self.tick += 1;
        let tick = self.tick;
        let key = query_key(q);
        let bucket = self.plans.entry(key).or_default();
        let lookup = match bucket
            .iter()
            .position(|c| c.atoms == q.atoms && c.head == q.head)
        {
            Some(i) => {
                bucket[i].last_used = tick;
                // Drift check: a plan costed against cardinalities that
                // have since shifted ≥2x gets recompiled rather than
                // served stale forever.
                if bucket[i]
                    .plan
                    .as_ref()
                    .is_some_and(|p| p.stats_drifted(src))
                {
                    bucket[i].plan = compile(q, src);
                    PlanLookup::Replanned
                } else {
                    PlanLookup::Hit
                }
            }
            None => {
                bucket.push(CachedPlan {
                    atoms: q.atoms.clone(),
                    head: q.head.clone(),
                    plan: compile(q, src),
                    last_used: tick,
                });
                self.len += 1;
                let evicted = self.capacity.is_some_and(|cap| self.len > cap);
                if evicted {
                    self.evict_lru(key);
                }
                PlanLookup::Compiled { evicted }
            }
        };
        let plan = self
            .plans
            .get(&key)
            .expect("the bucket queried or inserted into still exists")
            .iter()
            .find(|c| c.atoms == q.atoms && c.head == q.head)
            .expect("the just-touched entry is never the LRU victim")
            .plan
            .as_ref();
        (plan, lookup)
    }

    /// Evicts the least-recently-used plan. `keep` names the bucket of
    /// the entry inserted this tick, which by construction has the
    /// newest `last_used` and is therefore never chosen.
    fn evict_lru(&mut self, keep: QueryKey) {
        let victim_key = self
            .plans
            .iter()
            .flat_map(|(k, bucket)| bucket.iter().map(|c| (c.last_used, *k)))
            .min_by_key(|&(tick, _)| tick);
        let Some((victim_tick, key)) = victim_key else {
            return;
        };
        let bucket = self.plans.get_mut(&key).expect("victim bucket exists");
        let pos = bucket
            .iter()
            .position(|c| c.last_used == victim_tick)
            .expect("victim entry exists");
        bucket.remove(pos);
        if bucket.is_empty() && key != keep {
            self.plans.remove(&key);
        }
        self.len -= 1;
    }

    /// The capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of distinct plans held.
    pub fn len(&self) -> usize {
        if self.capacity == Some(0) {
            return 0;
        }
        self.plans.values().map(Vec::len).sum()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached plan (for when the source is rebuilt).
    pub fn clear(&mut self) {
        self.plans.clear();
        self.len = 0;
    }

    /// Drops only the cached **unsatisfiable** plans (`None` entries).
    ///
    /// A `None` plan records "some body constant is absent from the
    /// source" — a fact that stays true under deletions (symbols are
    /// never un-interned) but can be *falsified* by an insertion that
    /// interns the missing constant. Mutating owners call this whenever
    /// an insert grew the symbol pool; satisfiable plans embed stable
    /// symbols and survive untouched.
    pub fn drop_unsatisfiable(&mut self) {
        if self.capacity == Some(0) {
            // Degenerate bound: only the uncounted scratch bucket can
            // exist (`len` stays 0 on this path), and every lookup
            // recompiles anyway — clear it rather than underflow `len`.
            self.plans.clear();
            return;
        }
        let mut dropped = 0usize;
        for bucket in self.plans.values_mut() {
            let before = bucket.len();
            bucket.retain(|c| c.plan.is_some());
            dropped += before - bucket.len();
        }
        self.plans.retain(|_, bucket| !bucket.is_empty());
        self.len -= dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ColumnIndex;
    use crate::sym::{Sym, SymPool};
    use cqchase_ir::{parse_program, Constant, RelId};

    struct Toy {
        pool: SymPool<Constant>,
        cols: ColumnIndex,
        rows: Vec<Vec<Vec<Sym>>>,
    }

    impl FactSource for Toy {
        fn rel_size(&self, rel: RelId) -> usize {
            self.rows[rel.index()].len()
        }
        fn row_syms(&self, rel: RelId, row: u32) -> &[Sym] {
            &self.rows[rel.index()][row as usize]
        }
        fn posting_len(&self, rel: RelId, col: usize, sym: Sym) -> usize {
            self.cols.posting_len(rel, col, sym)
        }
        fn candidates(&self, rel: RelId, bound: &[(usize, Sym)], out: &mut Vec<u32>) {
            if bound.is_empty() {
                out.extend(0..self.rows[rel.index()].len() as u32);
            } else {
                self.cols
                    .candidates(rel, bound, |row| &self.rows[rel.index()][row as usize], out);
            }
        }
        fn sym_of_const(&self, c: &Constant) -> Option<Sym> {
            self.pool.get(c)
        }
    }

    fn toy() -> Toy {
        let p = parse_program("relation R(a, b). Q(x) :- R(x, y).").unwrap();
        let mut pool = SymPool::new();
        let mut cols = ColumnIndex::new(p.catalog.rel_ids().map(|r| p.catalog.arity(r)));
        let rel = p.catalog.resolve("R").unwrap();
        let syms = vec![
            pool.intern(&Constant::int(1)),
            pool.intern(&Constant::int(2)),
        ];
        cols.insert_row(rel, 0, &syms);
        Toy {
            pool,
            cols,
            rows: vec![vec![syms]],
        }
    }

    #[test]
    fn keys_distinguish_structure() {
        let p = parse_program(
            "relation R(a, b).
             Q1(x) :- R(x, y).
             Q2(x) :- R(y, x).
             Q3(x) :- R(x, 1).",
        )
        .unwrap();
        let keys: Vec<QueryKey> = p.queries.iter().map(query_key).collect();
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_eq!(keys[0], query_key(&p.queries[0]));
    }

    /// The lookup outcome alone, for tests that only count.
    fn lookup(cache: &mut PlanCache, q: &cqchase_ir::ConjunctiveQuery, src: &Toy) -> PlanLookup {
        cache.get_or_compile(q, src).1
    }

    const MISS: PlanLookup = PlanLookup::Compiled { evicted: false };

    #[test]
    fn second_lookup_is_a_hit() {
        let p = parse_program(
            "relation R(a, b).
             Q(x) :- R(x, y).
             Qc(x) :- R(x, 99).",
        )
        .unwrap();
        let src = toy();
        let mut cache = PlanCache::new();
        assert_eq!(cache.get_or_compile(&p.queries[0], &src).1, MISS);
        let (plan, lookup) = cache.get_or_compile(&p.queries[0], &src);
        assert!(plan.is_some());
        assert_eq!(lookup, PlanLookup::Hit);
        // Unsatisfiable (constant 99 absent) is cached as None.
        let (plan, lookup) = cache.get_or_compile(&p.queries[1], &src);
        assert_eq!((plan.is_none(), lookup), (true, MISS));
        let (plan, lookup) = cache.get_or_compile(&p.queries[1], &src);
        assert_eq!((plan.is_none(), lookup), (true, PlanLookup::Hit));
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    /// Runs a plan against the toy source and collects the bound rows —
    /// the observable behavior eviction must not change.
    fn rows_via(cache: &mut PlanCache, q: &cqchase_ir::ConjunctiveQuery, src: &Toy) -> Vec<u32> {
        let mut rows = Vec::new();
        if let (Some(plan), _) = cache.get_or_compile(q, src) {
            let unbound = vec![None; plan.num_vars];
            let mut scratch = crate::engine::JoinScratch::new();
            crate::engine::join_with(src, plan, &unbound, &mut scratch, |_, picked| {
                rows.extend_from_slice(picked);
                false
            });
        }
        rows
    }

    #[test]
    fn eviction_preserves_correctness() {
        let p = parse_program(
            "relation R(a, b).
             Q1(x) :- R(x, y).
             Q2(x) :- R(y, x).
             Q3(x, y) :- R(x, y).
             Qc(x) :- R(x, 99).",
        )
        .unwrap();
        let src = toy();

        // Reference answers from an unbounded cache.
        let mut unbounded = PlanCache::new();
        let want: Vec<Vec<u32>> = p
            .queries
            .iter()
            .map(|q| rows_via(&mut unbounded, q, &src))
            .collect();

        // A 2-plan cache cycling through 4 queries evicts constantly;
        // every answer must still match the unbounded cache's.
        let mut bounded = PlanCache::with_capacity(2);
        let mut evictions = 0;
        for round in 0..3 {
            for (q, w) in p.queries.iter().zip(&want) {
                if lookup(&mut bounded, q, &src) == (PlanLookup::Compiled { evicted: true }) {
                    evictions += 1;
                }
                assert_eq!(rows_via(&mut bounded, q, &src), *w, "round {round}");
                assert!(bounded.len() <= 2, "capacity respected");
            }
        }
        assert!(evictions > 0, "the bound actually evicted");
        assert_eq!(bounded.capacity(), Some(2));
        // Unsatisfiable plans (`None`) survive eviction/recompile too.
        assert!(bounded
            .get_or_compile(p.query("Qc").unwrap(), &src)
            .0
            .is_none());
    }

    #[test]
    fn lru_discipline_keeps_hot_entries() {
        let p = parse_program(
            "relation R(a, b).
             Q1(x) :- R(x, y).
             Q2(x) :- R(y, x).
             Q3(x, y) :- R(x, y).",
        )
        .unwrap();
        let src = toy();
        let mut cache = PlanCache::with_capacity(2);
        let (q1, q2, q3) = (&p.queries[0], &p.queries[1], &p.queries[2]);
        let evicting = PlanLookup::Compiled { evicted: true };
        assert_eq!(lookup(&mut cache, q1, &src), MISS);
        assert_eq!(lookup(&mut cache, q2, &src), MISS);
        // q1 becomes the most recent; q3 then evicts q2 (the LRU).
        assert_eq!(lookup(&mut cache, q1, &src), PlanLookup::Hit);
        assert_eq!(lookup(&mut cache, q3, &src), evicting);
        assert_eq!(
            lookup(&mut cache, q1, &src),
            PlanLookup::Hit,
            "still cached"
        );
        assert_eq!(lookup(&mut cache, q2, &src), evicting, "was evicted");
    }

    #[test]
    fn drop_unsatisfiable_keeps_satisfiable_plans() {
        let p = parse_program(
            "relation R(a, b).
             Q(x) :- R(x, y).
             Qc(x) :- R(x, 99).",
        )
        .unwrap();
        let mut src = toy();
        let mut cache = PlanCache::new();
        assert!(cache.get_or_compile(&p.queries[0], &src).0.is_some());
        assert!(cache.get_or_compile(&p.queries[1], &src).0.is_none());
        assert_eq!(cache.len(), 2);
        // The source learns constant 99 — the cached `None` must go.
        let rel = RelId(0);
        let syms = vec![
            src.pool.intern(&Constant::int(99)),
            src.pool.intern(&Constant::int(99)),
        ];
        src.cols.insert_row(rel, 1, &syms);
        src.rows[0].push(syms);
        cache.drop_unsatisfiable();
        assert_eq!(cache.len(), 1);
        // Recompiled against the grown source: now satisfiable.
        let (plan, lookup) = cache.get_or_compile(&p.queries[1], &src);
        assert_eq!((plan.is_some(), lookup), (true, MISS));
        // The satisfiable plan survived as a hit.
        let (plan, lookup) = cache.get_or_compile(&p.queries[0], &src);
        assert_eq!((plan.is_some(), lookup), (true, PlanLookup::Hit));
    }

    #[test]
    fn cardinality_drift_triggers_replan() {
        let p = parse_program("relation R(a, b). Q(x) :- R(x, y).").unwrap();
        let mut src = toy(); // 1 row in R
        let mut cache = PlanCache::new();
        assert_eq!(lookup(&mut cache, &p.queries[0], &src), MISS);
        // Grow R from 1 to 20 rows — well past 2x beyond the drift floor.
        for i in 0..19 {
            let syms = vec![
                src.pool.intern(&Constant::int(100 + i)),
                src.pool.intern(&Constant::int(200 + i)),
            ];
            let row = src.rows[0].len() as u32;
            src.cols.insert_row(RelId(0), row, &syms);
            src.rows[0].push(syms);
        }
        let (plan, lookup_after) = cache.get_or_compile(&p.queries[0], &src);
        let plan = plan.unwrap();
        assert_eq!(plan.stats, vec![(RelId(0), 20)], "snapshot refreshed");
        // The single-atom query is acyclic: the replanned plan keeps
        // its fast-path certificate.
        assert!(plan.acyclic.is_some());
        assert_eq!(lookup_after, PlanLookup::Replanned);
        // The refreshed snapshot doesn't re-trigger.
        assert_eq!(lookup(&mut cache, &p.queries[0], &src), PlanLookup::Hit);
    }

    #[test]
    fn zero_capacity_never_caches() {
        let p = parse_program("relation R(a, b). Q(x) :- R(x, y).").unwrap();
        let src = toy();
        let mut cache = PlanCache::with_capacity(0);
        for _ in 0..3 {
            let (plan, lookup) = cache.get_or_compile(&p.queries[0], &src);
            assert_eq!((plan.is_some(), lookup), (true, MISS));
        }
        assert!(cache.is_empty());
    }

    #[test]
    fn clone_carries_warm_plans() {
        let p = parse_program("relation R(a, b). Q(x) :- R(x, y).").unwrap();
        let src = toy();
        let mut cache = PlanCache::with_capacity(4);
        assert_eq!(lookup(&mut cache, &p.queries[0], &src), MISS);
        let mut copy = cache.clone();
        assert_eq!(copy.capacity(), Some(4));
        assert_eq!(lookup(&mut copy, &p.queries[0], &src), PlanLookup::Hit);
    }

    #[test]
    fn zero_capacity_drop_unsatisfiable_does_not_underflow() {
        // Regression: the capacity-0 scratch entry is not counted in
        // `len`, so dropping it must not decrement `len` below zero.
        let p = parse_program("relation R(a, b). Qc(x) :- R(x, 99).").unwrap();
        let src = toy();
        let mut cache = PlanCache::with_capacity(0);
        assert!(cache.get_or_compile(&p.queries[0], &src).0.is_none());
        cache.drop_unsatisfiable();
        assert!(cache.is_empty());
        // Still usable afterwards.
        assert!(cache.get_or_compile(&p.queries[0], &src).0.is_none());
    }
}
