//! Geometric-bucket histograms: lock-free recording, mergeable
//! snapshots, and one percentile rule shared by every consumer.
//!
//! This is the histogram that used to live (twice, with drifting
//! percentile interpolations) inside `csq_serve::metrics` and the
//! training-side metrics. Bucket `i` covers values up to `2^i` (in
//! whatever unit the caller records — the serve engine records
//! microseconds), plus one trailing overflow slot. Percentile estimates
//! are therefore *upper bounds* with at most 2× resolution error, and —
//! because buckets are plain counts — histograms from different workers,
//! replicas, or processes merge by addition without losing anything.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-shape geometric histogram with atomic buckets.
///
/// `record` is wait-free (one relaxed `fetch_add` on the bucket plus one
/// on the running sum), so it is safe on hot paths shared by many
/// threads. Use [`GeoHistogram::snapshot`] to obtain an immutable,
/// serializable, mergeable [`HistogramSnapshot`].
#[derive(Debug)]
pub struct GeoHistogram {
    /// `buckets[i]` counts values `<= 2^i`; the last slot is overflow.
    buckets: Box<[AtomicU64]>,
    /// Running sum of every recorded value (saturating), for mean /
    /// Prometheus `_sum` exposition.
    sum: AtomicU64,
}

impl GeoHistogram {
    /// A histogram with `n_buckets` finite buckets (bucket `i` bounded
    /// by `2^i`) plus one overflow slot. `n_buckets` is clamped to
    /// `1..=63`.
    pub fn new(n_buckets: usize) -> GeoHistogram {
        let n = n_buckets.clamp(1, 63);
        GeoHistogram {
            buckets: (0..=n).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Number of finite buckets.
    pub fn n_buckets(&self) -> usize {
        self.buckets.len() - 1
    }

    /// Upper bound of finite bucket `i`.
    pub fn bound(i: usize) -> u64 {
        1u64 << i
    }

    /// Index of the bucket `value` falls into (the overflow slot is
    /// `n_buckets`).
    pub fn bucket_index(&self, value: u64) -> usize {
        let n = self.n_buckets();
        (0..n).find(|&i| value <= Self::bound(i)).unwrap_or(n)
    }

    /// Records one value (wait-free).
    pub fn record(&self, value: u64) {
        self.buckets[self.bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        // Saturating add: two racing saturations both store u64::MAX.
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(value);
            match self
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// An immutable copy of the current bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`GeoHistogram`]: serializable, mergeable,
/// and the single home of the percentile interpolation rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HistogramSnapshot {
    /// Count per bucket; the last slot is the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all recorded values (saturating).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot with `n_buckets` finite buckets.
    pub fn empty(n_buckets: usize) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: vec![0; n_buckets.clamp(1, 63) + 1],
            sum: 0,
        }
    }

    /// Number of finite buckets.
    pub fn n_buckets(&self) -> usize {
        self.counts.len().saturating_sub(1)
    }

    /// Upper bounds of the finite buckets.
    pub fn bounds(&self) -> Vec<u64> {
        (0..self.n_buckets()).map(GeoHistogram::bound).collect()
    }

    /// Total recorded values.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds `other`'s counts into `self` (fleet merge). Shorter
    /// histograms are widened; the overflow slots are summed.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.counts.len() > self.counts.len() {
            // Widen: our old overflow slot stays overflow (it counted
            // values beyond our finite range, which may or may not fit
            // other's range — keep them in overflow, an upper bound).
            let overflow = self.counts.pop().unwrap_or(0);
            self.counts.resize(other.counts.len() - 1, 0);
            self.counts.push(overflow);
        }
        let last = self.counts.len() - 1;
        for (i, &c) in other.counts.iter().enumerate() {
            let slot = if i >= other.counts.len() - 1 {
                last
            } else {
                i.min(last)
            };
            self.counts[slot] += c;
        }
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Upper-bound percentile estimate: the bound of the first bucket
    /// whose cumulative count reaches `ceil(total · q)` (0 when nothing
    /// was recorded; the largest finite bound for overflow values).
    ///
    /// Guarantee: for the exact value `v` at that rank,
    /// `v <= percentile(q) <= max(2·v, 1)` as long as `v` is within the
    /// finite bucket range.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let n = self.n_buckets();
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return GeoHistogram::bound(i.min(n.saturating_sub(1)));
            }
        }
        GeoHistogram::bound(n.saturating_sub(1))
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.sum as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_geometric() {
        let h = GeoHistogram::new(24);
        assert_eq!(h.bucket_index(0), 0);
        assert_eq!(h.bucket_index(1), 0);
        assert_eq!(h.bucket_index(2), 1);
        assert_eq!(h.bucket_index(3), 2);
        assert_eq!(h.bucket_index(1024), 10);
        assert_eq!(h.bucket_index(u64::MAX), 24);
    }

    #[test]
    fn percentiles_walk_the_histogram() {
        let h = GeoHistogram::new(24);
        for _ in 0..90 {
            h.record(2);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        let s = h.snapshot();
        assert_eq!(s.total(), 100);
        assert_eq!(s.percentile(0.50), 2);
        assert_eq!(s.percentile(0.95), 1024);
        assert_eq!(s.percentile(0.99), 1024);
        assert_eq!(s.sum, 90 * 2 + 10 * 1000);
    }

    #[test]
    fn empty_percentile_is_zero() {
        assert_eq!(GeoHistogram::new(8).snapshot().percentile(0.5), 0);
        assert_eq!(HistogramSnapshot::empty(8).mean(), 0.0);
    }

    #[test]
    fn merge_adds_counts_and_matches_single_recording() {
        let a = GeoHistogram::new(16);
        let b = GeoHistogram::new(16);
        let all = GeoHistogram::new(16);
        for v in [1u64, 5, 9, 120, 4000] {
            a.record(v);
            all.record(v);
        }
        for v in [2u64, 7, 300, 70_000, 70_000] {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(merged.percentile(q), all.snapshot().percentile(q));
        }
    }

    #[test]
    fn merge_widens_shorter_histograms() {
        let narrow = GeoHistogram::new(4);
        narrow.record(3);
        narrow.record(1_000_000); // overflow for 4 buckets
        let wide = GeoHistogram::new(10);
        wide.record(900);
        let mut merged = narrow.snapshot();
        merged.merge(&wide.snapshot());
        assert_eq!(merged.counts.len(), 11);
        assert_eq!(merged.total(), 3);
    }

    #[test]
    fn overflow_values_clamp_to_largest_finite_bound() {
        let h = GeoHistogram::new(4);
        h.record(u64::MAX);
        assert_eq!(h.snapshot().percentile(0.5), GeoHistogram::bound(3));
    }
}
