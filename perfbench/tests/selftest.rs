//! Self-tests of the benchmark: deterministic generation, the workload
//! invariants each workload's claims rest on, the recorded
//! configuration, and a reduced-size run of every workload that must
//! pass its answer checks.

use std::collections::HashSet;

use cqchase_service::Session;
use perfbench::gen::{plan, Req, Scale, Workload, CHUNK};
use perfbench::wire::serve_options;
use perfbench::{run, Config};
use serde_json::Value;

fn lines(p: &perfbench::gen::Plan, n: usize) -> Vec<String> {
    p.stream()
        .take(n)
        .map(|r| p.line(&r).into_owned())
        .collect()
}

#[test]
fn generation_is_byte_identical_per_seed() {
    for w in Workload::ALL {
        let a = plan(w, 7, Scale::Full);
        let b = plan(w, 7, Scale::Full);
        assert_eq!(a.program_src, b.program_src, "{w:?} program");
        assert_eq!(lines(&a, 300), lines(&b, 300), "{w:?} request lines");
        let warm = |p: &perfbench::gen::Plan| {
            p.warmup()
                .iter()
                .map(|r| p.line(r).into_owned())
                .collect::<Vec<_>>()
        };
        assert_eq!(warm(&a), warm(&b), "{w:?} warm-up");
        assert_eq!(a.bulk_lines(), b.bulk_lines(), "{w:?} bulk load");
        let other = plan(w, 8, Scale::Full);
        assert!(
            lines(&a, 300) != lines(&other, 300) || a.program_src != other.program_src,
            "{w:?}: another seed must change the inputs"
        );
    }
}

#[test]
fn check_deep_pairs_have_pairwise_distinct_classes() {
    let p = plan(Workload::CheckDeep, 1, Scale::Full);
    // No two pool queries are isomorphic, so distinct pairs are distinct
    // class pairs.
    assert!(p.class_of.iter().enumerate().all(|(i, &c)| c == i));
    let mut seen = HashSet::new();
    for req in p.stream() {
        let Req::Check { pair, .. } = req else {
            panic!("check_deep sends only checks")
        };
        let (q, qp) = p.pairs[pair];
        assert!(
            seen.insert((p.class_of[q], p.class_of[qp])),
            "class pair repeats"
        );
    }
    assert_eq!(seen.len(), p.pairs.len());
}

#[test]
fn update_eval_steps_are_pure_effective_churn() {
    let p = plan(Workload::UpdateEval, 1, Scale::Reduced);
    let s = Session::from_program("churn", p.replica_program(), 0, 16).unwrap();
    let facts = p.window.window + p.watch.len();
    assert_eq!(s.facts_len(), facts);
    for step in 0..200 {
        let (ins, del) = p.step_facts(step);
        let sum = s.apply_update(&ins, &del).unwrap();
        assert_eq!(
            (sum.inserted, sum.deleted, sum.facts),
            (CHUNK, CHUNK, facts),
            "step {step}"
        );
    }
}

#[test]
fn check_hot_warmup_covers_every_tenant_class() {
    let p = plan(Workload::CheckHot, 1, Scale::Full);
    let mut warm_checks = HashSet::new();
    let mut warm_evals = HashSet::new();
    for r in p.warmup() {
        match r {
            Req::Check { tenant, pair } => {
                let (q, qp) = p.pairs[pair];
                warm_checks.insert((tenant, p.class_of[q], p.class_of[qp]));
            }
            Req::Eval { tenant, query } => {
                warm_evals.insert((tenant, query));
            }
            Req::Update { .. } => panic!("check_hot sends no updates"),
        }
    }
    for tenant in 0..p.sessions.len() {
        for &(q, qp) in &p.pairs {
            assert!(warm_checks.contains(&(tenant, p.class_of[q], p.class_of[qp])));
            assert!(warm_evals.contains(&(tenant, q)));
        }
    }
}

#[test]
fn recorded_configuration_matches_the_code() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/workloads.json")).unwrap();
    let doc: Value = serde_json::from_str(&text).unwrap();
    for w in Workload::ALL {
        let rec = &doc["workloads"][w.name()];
        let o = serve_options(w, Some(".perfbench_tmp/x".into()));
        let so = &rec["serve_options"];
        assert_eq!(so["lanes"].as_u64(), Some(o.lanes as u64), "{w:?} lanes");
        assert_eq!(so["batch_threads"].as_u64(), Some(o.batch_threads as u64));
        assert_eq!(so["conn_workers"].as_u64(), Some(o.conn_workers as u64));
        assert_eq!(
            so["sem_cache_capacity"].as_u64(),
            Some(o.sem_cache_capacity as u64)
        );
        assert_eq!(
            so["plan_cache_capacity"].as_u64(),
            Some(o.plan_cache_capacity as u64)
        );
        assert_eq!(
            so["wal_rotate_bytes"].as_u64(),
            o.wal_rotate_bytes,
            "{w:?} rotation"
        );
        assert_eq!(
            so["fsync_per_update"] == true,
            o.data_dir.is_some(),
            "{w:?} fsync"
        );
        assert_eq!(rec["primary_op"].as_str(), Some(w.primary_op()));
    }
    let hot = plan(Workload::CheckHot, 1, Scale::Full);
    let data = &doc["workloads"]["check_hot"]["data"];
    assert_eq!(data["tenants"].as_u64(), Some(hot.sessions.len() as u64));
    assert_eq!(data["check_pairs"].as_u64(), Some(hot.pairs.len() as u64));
    let classes: HashSet<usize> = hot.class_of.iter().copied().collect();
    assert_eq!(data["query_classes"].as_u64(), Some(classes.len() as u64));
    let deep = plan(Workload::CheckDeep, 1, Scale::Full);
    let data = &doc["workloads"]["check_deep"]["data"];
    assert_eq!(
        data["queries"].as_u64(),
        Some(deep.program.queries.len() as u64)
    );
    assert_eq!(
        data["distinct_pairs"].as_u64(),
        Some(deep.pairs.len() as u64)
    );
    let win = plan(Workload::UpdateEval, 1, Scale::Full);
    let data = &doc["workloads"]["update_eval"]["data"];
    assert_eq!(
        data["window_tuples"].as_u64(),
        Some(win.window.window as u64)
    );
    assert_eq!(data["watch_keys"].as_u64(), Some(win.watch.len() as u64));
    assert_eq!(data["step_inserts"].as_u64(), Some(CHUNK as u64));
}

fn reduced_run(w: Workload, trace: bool) {
    let r = run(Config {
        workload: w,
        seed: 5,
        seconds: 0.3,
        trace,
        scale: Scale::Reduced,
    })
    .unwrap();
    assert!(r.correct && r.failed == 0, "{w:?}: {:?}", r.log);
    assert!(r.attempted > 0);
    for m in &r.metrics {
        assert!(m.value.is_finite(), "{w:?} {} = {}", m.name, m.value);
    }
    if w == Workload::CheckHot {
        let (cached, checks) = r.checks_cached;
        assert!(
            checks > 0 && cached == checks,
            "timed checks must all hit: {cached}/{checks}"
        );
    }
}

#[test]
fn reduced_check_hot_passes_its_answer_checks() {
    reduced_run(Workload::CheckHot, true);
}

#[test]
fn reduced_check_deep_passes_its_answer_checks() {
    reduced_run(Workload::CheckDeep, true);
}

#[test]
fn reduced_update_eval_passes_its_answer_checks() {
    reduced_run(Workload::UpdateEval, true);
}
