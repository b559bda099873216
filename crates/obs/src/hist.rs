//! The power-of-two µs latency histogram behind the service's
//! per-endpoint stats and the durability store's fsync stats. Bucket 0
//! holds only `0` µs, bucket *i ≥ 1* covers `[2^(i-1), 2^i)` µs, and the
//! last bucket absorbs everything slower. Recording is one relaxed
//! atomic add; quantiles are upper bounds at bucket granularity.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: the last one starts at 2^18 µs ≈ 0.26 s.
pub const BUCKETS: usize = 20;

/// Lock-free power-of-two µs histogram.
#[derive(Debug, Default)]
pub struct Pow2Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Pow2Histogram {
    /// Counts one sample of `us` microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// The bucket counts.
    pub fn counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// The bucket holding a `us` sample: `⌊log2(us)⌋ + 1` (0 for 0 µs),
/// capped at the overflow bucket.
pub fn bucket_of(us: u64) -> usize {
    ((u64::BITS - us.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// The largest `us` value bucket `i` can hold (its inclusive upper
/// edge): `2^i − 1`, so 0 for bucket 0. The overflow bucket is
/// unbounded; its nominal edge saturates the reported quantile.
pub fn bucket_edge_us(i: usize) -> u64 {
    (1u64 << i) - 1
}

/// The inclusive upper edge (µs) of the bucket containing the
/// `q`-quantile sample of `counts` ([`bucket_edge_us`]), or 0 with no
/// samples — so the reported quantile is the tightest value with "the
/// q-fraction of samples took at most this long" at bucket granularity.
pub fn quantile_us(counts: &[u64; BUCKETS], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_edge_us(i);
        }
    }
    bucket_edge_us(BUCKETS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_boundaries_are_exact() {
        // Bucket 0 holds only 0 µs; bucket i ≥ 1 covers [2^(i-1), 2^i).
        for k in 1..18u32 {
            let p = 1u64 << k;
            assert_eq!(bucket_of(p - 1), k as usize, "2^{k} - 1 stays below");
            assert_eq!(bucket_of(p), k as usize + 1, "2^{k} opens bucket {}", k + 1);
        }
        // The overflow bucket starts at 2^(BUCKETS-2) and is unbounded.
        let overflow_lo = 1u64 << (BUCKETS - 2);
        assert_eq!(bucket_of(overflow_lo - 1), BUCKETS - 2);
        assert_eq!(bucket_of(overflow_lo), BUCKETS - 1);
        // Edges are the largest value each bucket holds.
        assert_eq!(bucket_edge_us(0), 0);
        assert_eq!(bucket_edge_us(1), 1);
        assert_eq!(bucket_edge_us(2), 3);
        for k in 1..BUCKETS - 1 {
            assert_eq!(bucket_edge_us(k), (1u64 << k) - 1);
            assert_eq!(bucket_of(bucket_edge_us(k)), k, "edge stays in bucket");
            assert_eq!(bucket_of(bucket_edge_us(k) + 1), k + 1, "edge + 1 leaves");
        }
    }

    #[test]
    fn quantiles_report_inclusive_bucket_edges() {
        for (us, edge) in [(0u64, 0u64), (1, 1), (2, 3), (1024, 2047), (4096, 8191)] {
            let mut counts = [0; BUCKETS];
            counts[bucket_of(us)] = 1;
            assert_eq!(quantile_us(&counts, 0.5), edge, "single sample at {us} µs");
            assert!(quantile_us(&counts, 0.5) >= us, "edge never under-reports");
        }
        // Overflow bucket saturates at its nominal edge.
        let mut counts = [0; BUCKETS];
        counts[bucket_of(1 << 30)] = 1;
        assert_eq!(quantile_us(&counts, 0.99), (1u64 << (BUCKETS - 1)) - 1);
    }

    #[test]
    fn recorded_samples_land_in_their_buckets() {
        let h = Pow2Histogram::default();
        for us in [0, 1, 1024, 1025, u64::MAX] {
            h.record_us(us);
        }
        let counts = h.counts();
        assert_eq!((counts[0], counts[1], counts[11]), (1, 1, 2));
        assert_eq!(counts[BUCKETS - 1], 1);
        assert_eq!(counts.iter().sum::<u64>(), 5);
    }
}
