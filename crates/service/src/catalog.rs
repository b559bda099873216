//! The shared immutable catalog layer: many tenants, one catalog copy.
//!
//! A thousand sessions registered over the same schema used to cost a
//! thousand symbol pools, posting-list indexes, and plan caches. A
//! [`FrozenCatalog`] freezes everything a registration builds that does
//! not depend on the facts — the parsed [`Program`], Σ's classification and
//! fingerprint. Everything that does depend on them lives in one
//! [`Facts`] value: the [`DbIndex`] holding them and the [`PlanCache`]
//! compiled against it. The [`CatalogRegistry`] builds one
//! `Arc<Facts>` per distinct program next to its catalog, and sessions
//! registering the same catalog+Σ+facts **attach** (two `Arc` clones
//! plus an epoch) instead of rebuilding.
//!
//! Identity is the canonical program text ([`catalog_key`]): schema
//! rendered through the same display path durability snapshots use,
//! plus the facts in registration order — so a re-registration after a
//! restart, whose surface text differs from the original source,
//! still lands on the same catalog.
//!
//! **Copy-on-write promotion:** a session's facts are shared exactly
//! while its `Arc<Facts>` is not unique. Its first effective update
//! goes through `Arc::make_mut`, which clones the index and warm plan
//! cache into a private value (the clone's symbol pool resolves every
//! cached plan exactly as the base's did), and the catalog's other
//! tenants never observe a thing. Promotion is counted
//! per catalog ([`FrozenCatalog::promotions`]) and surfaced in
//! `stats.catalogs`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use cqchase_core::{classify, SigmaClass};
use cqchase_index::{FxHashMap, PlanCache};
use cqchase_ir::{display, parse_program, IrError, Program};
use cqchase_storage::{DbIndex, Value};

use crate::cache::sigma_fingerprint;
use crate::session::{class_name, Session};

/// The most atoms one query of a registered program may have.
///
/// The join engine, the acyclic solver and the isomorphism search
/// recurse once per atom, on threads with the default 2 MiB stack, and a
/// stack overflow aborts the whole process — every tenant with it. On a
/// 2 MiB thread, `contained(q, q)` for a chain query overflowed at 6,500
/// atoms (release build; 6,000 passed), so this cap leaves 6x headroom.
/// The benchmark workloads use at most 28 atoms.
pub const MAX_QUERY_ATOMS: usize = 1_000;

/// Refuses a program that has a query over [`MAX_QUERY_ATOMS`] atoms,
/// naming the query and the cap.
pub(crate) fn check_query_sizes(program: &Program) -> Result<(), String> {
    match program
        .queries
        .iter()
        .find(|q| q.atoms.len() > MAX_QUERY_ATOMS)
    {
        Some(q) => Err(format!(
            "query `{}` has {} atoms; the cap is {MAX_QUERY_ATOMS} atoms per query",
            q.name,
            q.atoms.len()
        )),
        None => Ok(()),
    }
}

/// One set of ground facts and everything compiled against it: the
/// index that stores them (the only copy — it answers membership and
/// enumerates in insertion order) and the plans cached for that index.
/// Shared behind an `Arc` by every session reading the same facts, and
/// cloned (`Arc::make_mut`) when one of them updates.
#[derive(Debug)]
pub struct Facts {
    /// The ground facts, interned and indexed, maintained incrementally.
    pub index: DbIndex,
    /// Compiled plans, valid against `index` (and any clone of it).
    pub plans: Mutex<PlanCache>,
}

impl Facts {
    /// Indexes `program`'s facts and starts an empty plan cache holding
    /// at most `plan_cache_capacity` plans.
    pub fn build(program: &Program, plan_cache_capacity: usize) -> Result<Facts, String> {
        let catalog = &program.catalog;
        let mut index = DbIndex::new(catalog);
        for (rel, consts) in &program.facts {
            let arity = catalog.arity(*rel);
            if consts.len() != arity {
                return Err(IrError::ArityMismatch {
                    relation: catalog.name(*rel).to_owned(),
                    expected: arity,
                    found: consts.len(),
                }
                .to_string());
            }
            index.insert(*rel, &consts.iter().cloned().map(Value::Const).collect());
        }
        Ok(Facts {
            index,
            plans: Mutex::new(PlanCache::with_capacity(plan_cache_capacity)),
        })
    }

    /// Approximate resident bytes of the index (the plan cache is
    /// rebuildable and not counted).
    pub fn resident_bytes(&self) -> usize {
        self.index.approx_bytes()
    }
}

impl Clone for Facts {
    fn clone(&self) -> Facts {
        Facts {
            index: self.index.clone(),
            plans: Mutex::new(self.plans.lock().expect("plan cache lock").clone()),
        }
    }
}

/// Everything a registration builds that is identical across sessions
/// with the same program and independent of the facts: parsed program,
/// classification, fingerprint. Immutable after construction except
/// for the observability counters.
#[derive(Debug)]
pub struct FrozenCatalog {
    /// The parsed program: catalog, Σ, queries, registered facts.
    pub program: Program,
    /// Σ's classification (selects the decision procedure).
    pub class: SigmaClass,
    /// Stable rendering of `class` for the wire.
    pub class_name: String,
    /// Fingerprint of Σ for semantic-cache keys.
    pub sigma_fp: u64,
    /// Sessions that ever attached to this catalog.
    pub attached: AtomicU64,
    /// Sessions promoted to private facts by an update.
    pub promotions: AtomicU64,
}

impl FrozenCatalog {
    /// Classifies and fingerprints `program`'s Σ.
    pub fn new(program: Program) -> FrozenCatalog {
        let class = classify(&program.deps, &program.catalog);
        FrozenCatalog {
            class_name: class_name(&class),
            sigma_fp: sigma_fingerprint(&program.deps, &program.catalog),
            class,
            attached: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            program,
        }
    }
}

/// Renders a program's immutable schema — catalog, Σ, queries, **no**
/// fact lines — as canonical surface text that round-trips through the
/// parser. Shared by durability snapshots and [`catalog_key`], so the
/// two notions of "same schema" can never drift apart.
pub fn program_schema_text(program: &Program) -> String {
    let cat = &program.catalog;
    let mut out = String::new();
    let catalog = display::catalog(cat).to_string();
    if !catalog.is_empty() {
        out.push_str(&catalog);
        out.push('\n');
    }
    let deps = display::deps(&program.deps, cat).to_string();
    if !deps.is_empty() {
        out.push_str(&deps);
        out.push('\n');
    }
    for q in &program.queries {
        let _ = writeln!(out, "{}", display::query(q, cat));
    }
    out
}

/// The catalog identity key: canonical schema text plus the registered
/// facts in registration order (`Debug`-rendered constants, so an
/// integer `1` and a string `"1"` can never collide). Two programs get
/// the same key iff a session over one is interchangeable with a
/// session over the other.
pub fn catalog_key(program: &Program) -> String {
    let mut key = program_schema_text(program);
    key.push_str("#facts\n");
    for (rel, row) in &program.facts {
        let _ = write!(key, "{}(", program.catalog.name(*rel));
        for (i, c) in row.iter().enumerate() {
            if i > 0 {
                key.push(',');
            }
            let _ = write!(key, "{c:?}");
        }
        key.push_str(")\n");
    }
    key
}

/// A resident catalog and the base facts its sessions attach to.
pub type Attachment = (Arc<FrozenCatalog>, Arc<Facts>);

/// The server's catalog table: one [`FrozenCatalog`] and one shared
/// base [`Facts`] per distinct [`catalog_key`], refcounted by the `Arc`s
/// handed to attached sessions. Registrations racing to build the same
/// new catalog both build, one wins the insert, and the loser attaches
/// to the winner — never two live copies of one catalog.
#[derive(Debug)]
pub struct CatalogRegistry {
    catalogs: RwLock<FxHashMap<String, Attachment>>,
    plan_cache_capacity: usize,
    /// Catalogs built from scratch (registry misses).
    pub builds: AtomicU64,
    /// Sessions that attached to an already-built catalog.
    pub attaches: AtomicU64,
}

impl CatalogRegistry {
    /// An empty registry whose shared plan caches hold `plan_cache_capacity`
    /// compiled plans each.
    pub fn new(plan_cache_capacity: usize) -> CatalogRegistry {
        CatalogRegistry {
            catalogs: RwLock::new(FxHashMap::default()),
            plan_cache_capacity,
            builds: AtomicU64::new(0),
            attaches: AtomicU64::new(0),
        }
    }

    /// The catalog and base facts for `program`: existing ones when the
    /// identity key matches (counted as an attach), freshly built
    /// otherwise. The expensive build runs outside the registry lock; a
    /// racing builder of the same key attaches to whoever inserted first.
    pub fn get_or_build(&self, program: Program) -> Result<Attachment, String> {
        let key = catalog_key(&program);
        if let Some((c, f)) = self
            .catalogs
            .read()
            .expect("catalog registry lock")
            .get(&key)
        {
            self.attaches.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(c), Arc::clone(f)));
        }
        let facts = Arc::new(Facts::build(&program, self.plan_cache_capacity)?);
        let catalog = Arc::new(FrozenCatalog::new(program));
        let mut map = self.catalogs.write().expect("catalog registry lock");
        use std::collections::hash_map::Entry;
        match map.entry(key) {
            Entry::Occupied(e) => {
                // Lost the build race: attach to the winner, drop ours.
                self.attaches.fetch_add(1, Ordering::Relaxed);
                let (c, f) = e.get();
                Ok((Arc::clone(c), Arc::clone(f)))
            }
            Entry::Vacant(e) => {
                self.builds.fetch_add(1, Ordering::Relaxed);
                e.insert((Arc::clone(&catalog), Arc::clone(&facts)));
                Ok((catalog, facts))
            }
        }
    }

    /// Builds a session attached to the (shared, possibly pre-existing)
    /// catalog for `program_src` — the server's register path, which
    /// refuses queries over [`MAX_QUERY_ATOMS`] atoms.
    ///
    /// `plan_cache_capacity` is unused: an attached session reads the
    /// base's plan cache, sized by [`CatalogRegistry::new`], and keeps a
    /// copy of it when an update promotes the session.
    pub fn session_from_source(
        &self,
        name: &str,
        program_src: &str,
        sem_cache_capacity: usize,
        plan_cache_capacity: usize,
    ) -> Result<Session, String> {
        let program = parse_program(program_src).map_err(|e| e.to_string())?;
        check_query_sizes(&program)?;
        self.session_from_program(name, program, sem_cache_capacity, plan_cache_capacity)
    }

    /// [`CatalogRegistry::session_from_source`] for an already-parsed
    /// program (the durability recovery path, whose facts arrive in
    /// binary). `plan_cache_capacity` is unused, as there.
    pub fn session_from_program(
        &self,
        name: &str,
        program: Program,
        sem_cache_capacity: usize,
        _plan_cache_capacity: usize,
    ) -> Result<Session, String> {
        let (catalog, facts) = self.get_or_build(program)?;
        Ok(Session::attach(name, catalog, facts, sem_cache_capacity))
    }

    /// Number of distinct catalogs resident.
    pub fn len(&self) -> usize {
        self.catalogs.read().expect("catalog registry lock").len()
    }

    /// Whether no catalog is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every resident catalog (stats aggregation).
    pub fn snapshot(&self) -> Vec<Arc<FrozenCatalog>> {
        self.catalogs
            .read()
            .expect("catalog registry lock")
            .values()
            .map(|(c, _)| Arc::clone(c))
            .collect()
    }

    /// Approximate resident bytes of the shared base facts, counted
    /// once per distinct catalog however many sessions attach.
    pub fn shared_resident_bytes(&self) -> usize {
        self.catalogs
            .read()
            .expect("catalog registry lock")
            .values()
            .map(|(_, f)| f.resident_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "relation R(a, b).
         ind R[2] <= R[1].
         Q(x) :- R(x, y).
         R(1, 2). R(2, 3).";

    #[test]
    fn same_program_text_shares_one_catalog() {
        let reg = CatalogRegistry::new(64);
        let s1 = reg.session_from_source("a", SRC, 8, 8).unwrap();
        let s2 = reg.session_from_source("b", SRC, 8, 8).unwrap();
        assert_eq!(reg.len(), 1);
        assert!(Arc::ptr_eq(&s1.catalog, &s2.catalog));
        assert_eq!(reg.builds.load(Ordering::Relaxed), 1);
        assert_eq!(reg.attaches.load(Ordering::Relaxed), 1);
        assert_eq!(s1.catalog.attached.load(Ordering::Relaxed), 2);
        // Both sessions answer over the shared base.
        assert_eq!(s1.eval(0), s2.eval(0));
    }

    #[test]
    fn surface_syntax_differences_do_not_split_catalogs() {
        let reg = CatalogRegistry::new(64);
        // Extra whitespace and comment-free reordering of nothing: the
        // canonical rendering normalizes the text.
        let noisy = "relation R(a,   b).
             ind R[2] <= R[1].
             Q(x) :- R(x, y).
             R(1, 2).   R(2, 3).";
        let s1 = reg.session_from_source("a", SRC, 8, 8).unwrap();
        let s2 = reg.session_from_source("b", noisy, 8, 8).unwrap();
        assert!(Arc::ptr_eq(&s1.catalog, &s2.catalog));
    }

    #[test]
    fn different_facts_or_sigma_split_catalogs() {
        let reg = CatalogRegistry::new(64);
        reg.session_from_source("a", SRC, 8, 8).unwrap();
        reg.session_from_source(
            "b",
            "relation R(a, b). ind R[2] <= R[1]. Q(x) :- R(x, y). R(1, 2).",
            8,
            8,
        )
        .unwrap();
        reg.session_from_source(
            "c",
            "relation R(a, b). Q(x) :- R(x, y). R(1, 2). R(2, 3).",
            8,
            8,
        )
        .unwrap();
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.builds.load(Ordering::Relaxed), 3);
        assert_eq!(reg.attaches.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn int_and_string_facts_never_collide() {
        let p1 = parse_program("relation R(a). Q(x) :- R(x). R(1).").unwrap();
        let p2 = parse_program("relation R(a). Q(x) :- R(x). R(\"1\").").unwrap();
        assert_ne!(catalog_key(&p1), catalog_key(&p2));
    }

    #[test]
    fn update_promotes_copy_on_write_without_touching_the_base() {
        use cqchase_ir::Constant;
        let reg = CatalogRegistry::new(64);
        let s1 = reg.session_from_source("a", SRC, 8, 8).unwrap();
        let s2 = reg.session_from_source("b", SRC, 8, 8).unwrap();
        let before = s2.eval(0);
        let sum = s1
            .apply_update(
                &[("R".into(), vec![Constant::Int(9), Constant::Int(9)])],
                &[],
            )
            .unwrap();
        assert_eq!((sum.inserted, sum.epoch), (1, 1));
        assert_eq!(s1.catalog.promotions.load(Ordering::Relaxed), 1);
        // s1 sees its private facts; s2 still reads the shared base.
        assert_eq!(s1.eval(0).len(), before.len() + 1);
        assert_eq!(s2.eval(0), before);
        assert_eq!(s2.facts_epoch(), 0);
        // A pure no-op update does not promote.
        let s3 = reg.session_from_source("c", SRC, 8, 8).unwrap();
        let sum = s3
            .apply_update(
                &[("R".into(), vec![Constant::Int(1), Constant::Int(2)])],
                &[],
            )
            .unwrap();
        assert_eq!((sum.inserted, sum.deleted, sum.epoch), (0, 0, 0));
        assert_eq!(s1.catalog.promotions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn shared_sessions_cost_a_fraction_of_private_ones() {
        let reg = CatalogRegistry::new(64);
        let mut src = String::from("relation R(a, b). Q(x) :- R(x, y).\n");
        for i in 0..512 {
            src.push_str(&format!("R({i}, {}).\n", i + 1));
        }
        let shared: Vec<Session> = (0..8)
            .map(|i| {
                reg.session_from_source(&format!("s{i}"), &src, 8, 8)
                    .unwrap()
            })
            .collect();
        let private: Vec<Session> = (0..8)
            .map(|i| Session::new(&format!("p{i}"), &src, 8, 8).unwrap())
            .collect();
        let shared_bytes: usize =
            shared.iter().map(Session::resident_bytes).sum::<usize>() + reg.shared_resident_bytes();
        let private_bytes: usize = private.iter().map(Session::resident_bytes).sum();
        assert!(
            shared_bytes * 2 < private_bytes,
            "8 attached sessions ({shared_bytes} B) must cost less than half of 8 \
             private ones ({private_bytes} B)"
        );
    }
}
