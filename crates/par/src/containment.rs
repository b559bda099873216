//! Parallel batch containment.
//!
//! The unit of parallelism is a *chase group*: every pair sharing a
//! left-hand query `Q` reuses one chase of `Q` (when Σ permits exact
//! sharing — see [`cqchase_core::check_batch`]), so the group is the
//! finest grain that keeps the sequential engine's sharing. Groups run
//! on the executor's worker threads; within a group the sequential
//! engine runs unchanged, so results are bit-for-bit those of
//! [`cqchase_core::check_batch`] regardless of thread count.

use cqchase_core::{BatchPair, ContainmentAnswer, ContainmentEngineError, ContainmentOptions};
use cqchase_index::FxHashMap;
use cqchase_ir::{Catalog, ConjunctiveQuery, DependencySet};

use crate::pool::{map_with, BatchOptions};

/// Tests a batch of containments across worker threads.
///
/// Returns exactly what [`cqchase_core::check_batch`] returns for the
/// same inputs (and it *is* that function when `batch.threads == 1`);
/// the differential property tests in this crate hold every thread
/// count to that. Pairs may carry a [`CancelToken`](cqchase_index::CancelToken)
/// (see [`BatchPair`]); a token follows its pair to whichever worker
/// runs the chase group, and a fired one cancels only that pair.
pub fn check_batch<P: BatchPair + Sync>(
    queries: &[ConjunctiveQuery],
    pairs: &[P],
    sigma: &DependencySet,
    catalog: &Catalog,
    opts: &ContainmentOptions,
    batch: BatchOptions,
) -> Vec<Result<ContainmentAnswer, ContainmentEngineError>> {
    if batch.threads <= 1 {
        return cqchase_core::check_batch(queries, pairs, sigma, catalog, opts);
    }

    // Group pair positions by left query, preserving in-group order so
    // chase reuse follows the same expansion sequence as the sequential
    // engine.
    let mut order: Vec<usize> = Vec::new(); // group id per first sight
    let mut groups: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
    for (pos, p) in pairs.iter().enumerate() {
        let q = p.pair().q;
        let slot = groups.entry(q).or_insert_with(|| {
            order.push(q);
            Vec::new()
        });
        slot.push(pos);
    }
    let grouped: Vec<&[usize]> = order.iter().map(|q| groups[q].as_slice()).collect();

    // One task per group; chunk = 1 so idle workers steal whole groups.
    let task_opts = BatchOptions {
        threads: batch.threads,
        chunk: Some(1),
    };
    let group_results = map_with(
        grouped.len(),
        task_opts,
        // Per-worker reusable buffer of borrowed group items.
        Vec::new,
        |group: &mut Vec<&P>, g| {
            group.clear();
            group.extend(grouped[g].iter().map(|&pos| &pairs[pos]));
            cqchase_core::check_batch(queries, group, sigma, catalog, opts)
        },
    );

    // Scatter group results back to original pair positions.
    let mut out: Vec<Option<Result<ContainmentAnswer, ContainmentEngineError>>> =
        Vec::with_capacity(pairs.len());
    out.resize_with(pairs.len(), || None);
    for (g, results) in group_results.into_iter().enumerate() {
        for (&pos, r) in grouped[g].iter().zip(results) {
            out[pos] = Some(r);
        }
    }
    out.into_iter()
        .map(|r| r.expect("every pair answered"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_core::ContainmentPair;
    use cqchase_index::CancelToken;
    use cqchase_ir::parse_program;

    #[test]
    fn agrees_with_sequential_across_thread_counts() {
        let p = parse_program(
            "relation R(a, b).
             ind R[2] <= R[1].
             A(x) :- R(x, y).
             B(x) :- R(x, y), R(y, z).
             C(x) :- R(x, y), R(y, z), R(z, w).
             D(x) :- R(y, x).",
        )
        .unwrap();
        let mut pairs = Vec::new();
        for q in 0..4 {
            for qp in 0..4 {
                pairs.push(ContainmentPair { q, q_prime: qp });
            }
        }
        let opts = ContainmentOptions::default();
        let seq = cqchase_core::check_batch(&p.queries, &pairs, &p.deps, &p.catalog, &opts);
        for threads in [1usize, 2, 4] {
            let par = check_batch(
                &p.queries,
                &pairs,
                &p.deps,
                &p.catalog,
                &opts,
                BatchOptions::with_threads(threads),
            );
            assert_eq!(par.len(), seq.len());
            for (i, (a, b)) in par.iter().zip(seq.iter()).enumerate() {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert_eq!(a.contained, b.contained, "pair {i} @ {threads} threads");
                assert_eq!(a.exact, b.exact, "pair {i}");
                assert_eq!(a.witness, b.witness, "pair {i}");
                assert_eq!(a.bound, b.bound, "pair {i}");
            }
        }
    }

    #[test]
    fn fired_token_cancels_only_its_pair() {
        let p = parse_program(
            "relation R(a, b).
             A(x) :- R(x, y).
             B(x) :- R(x, y), R(y, z).",
        )
        .unwrap();
        let pairs = vec![
            ContainmentPair { q: 0, q_prime: 1 },
            ContainmentPair { q: 1, q_prime: 0 },
            ContainmentPair { q: 0, q_prime: 0 },
        ];
        let fired = CancelToken::unlimited();
        fired.cancel();
        let tokened: Vec<_> = pairs
            .iter()
            .zip([CancelToken::unlimited(), fired, CancelToken::unlimited()])
            .map(|(&p, t)| (p, t))
            .collect();
        let opts = ContainmentOptions::default();
        for threads in [1usize, 4] {
            let out = check_batch(
                &p.queries,
                &tokened,
                &p.deps,
                &p.catalog,
                &opts,
                BatchOptions::with_threads(threads),
            );
            assert!(
                matches!(out[1], Err(ContainmentEngineError::Cancelled { .. })),
                "fired pair must cancel @ {threads} threads"
            );
            let seq = cqchase_core::check_batch(&p.queries, &pairs, &p.deps, &p.catalog, &opts);
            for i in [0usize, 2] {
                let (a, b) = (out[i].as_ref().unwrap(), seq[i].as_ref().unwrap());
                assert_eq!(a.contained, b.contained, "pair {i} @ {threads} threads");
                assert_eq!(a.exact, b.exact, "pair {i}");
            }
        }
    }
}
