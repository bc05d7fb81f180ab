//! Lock-free log2-bucketed histogram over `u64` values.
//!
//! Bucket 0 holds the value `0` exactly; bucket `b >= 1` covers the
//! half-open power-of-two range `[2^(b-1), 2^b)`. With 64-bit values the
//! top bucket index is 64 (values in `[2^63, u64::MAX]`), giving
//! [`BUCKETS`] = 65 buckets total. This resolution (~2x relative error)
//! is plenty for the quantities we track — per-read search latency in
//! nanoseconds, BWT interval widths, and mismatching-tree termination
//! depths — while keeping `observe` to one atomic increment.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per bit position.
pub const BUCKETS: usize = 65;

/// Map a value to its bucket index (0 for 0, else `64 - leading_zeros`).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Smallest value that lands in bucket `index`.
///
/// Buckets 0 and 1 both start at their only-or-lowest member (0 and 1);
/// bucket `b >= 1` starts at `2^(b-1)`.
#[inline]
pub fn bucket_lower_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        b => 1u64 << (b - 1),
    }
}

/// Largest value that lands in bucket `index` (inclusive).
#[inline]
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// Concurrent histogram; all mutation is relaxed-atomic.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating sum: losing precision past u64::MAX total beats
        // wrapping to a nonsense mean.
        self.sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(value))
            })
            .ok();
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Fold a detached snapshot into this histogram (used to merge
    /// per-worker shards after a parallel batch). Equivalent to having
    /// observed the shard's values here: bucket counts and sums add,
    /// min/max widen. Empty snapshots are a no-op.
    pub fn absorb(&self, shard: &HistogramSnapshot) {
        if shard.count == 0 {
            return;
        }
        for (i, &n) in shard.buckets.iter().enumerate() {
            if n > 0 {
                self.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(shard.count, Ordering::Relaxed);
        self.sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(shard.sum))
            })
            .ok();
        self.min.fetch_min(shard.min, Ordering::Relaxed);
        self.max.fetch_max(shard.max, Ordering::Relaxed);
    }

    /// Consistent point-in-time copy (consistent only when no writer races).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Occurrence count per log2 bucket.
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Saturating sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

/// Normalise a quantile argument: clamp to [0,1], treating NaN as 0.
/// `f64::clamp` propagates NaN, which downstream turns every bucket-rank
/// comparison false and silently extrapolates to `max` — the opposite of
/// clamping.
#[inline]
fn clamp_q(q: f64) -> f64 {
    if q.is_nan() {
        0.0
    } else {
        q.clamp(0.0, 1.0)
    }
}

impl HistogramSnapshot {
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }

    /// Arithmetic mean of observed values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in \[0, 1\]) as the lower bound of the
    /// bucket containing the q-th observation.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((clamp_q(q) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_lower_bound(i);
            }
        }
        bucket_lower_bound(BUCKETS - 1)
    }

    /// Interpolated percentile (`q` in \[0, 1\]).
    ///
    /// Finds the bucket containing the `q·count`-th observation and
    /// interpolates linearly between the bucket's bounds by the rank's
    /// position within it, then clamps to the observed `[min, max]` so a
    /// histogram whose values all share one bucket reports those values
    /// exactly (e.g. all-4s → `percentile(0.5) == 4.0`). Returns 0.0
    /// when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = clamp_q(q) * self.count as f64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let before = seen as f64;
            seen += n;
            if seen as f64 >= rank {
                let lo = bucket_lower_bound(i) as f64;
                let hi = bucket_upper_bound(i) as f64;
                let frac = ((rank - before) / n as f64).clamp(0.0, 1.0);
                let v = lo + frac * (hi - lo);
                return v.clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_zero_one_and_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        // Each power of two opens a new bucket; its predecessor closes
        // the previous one.
        for b in 1..64usize {
            let p = 1u64 << b;
            assert_eq!(bucket_index(p), b + 1, "2^{b} should open bucket {}", b + 1);
            assert_eq!(bucket_index(p - 1), b, "2^{b}-1 should stay in bucket {b}");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(u64::MAX - 1), 64);
    }

    #[test]
    fn bucket_lower_bounds_invert_bucket_index() {
        for i in 0..BUCKETS {
            let lo = bucket_lower_bound(i);
            assert_eq!(bucket_index(lo), i);
            if lo > 0 {
                assert_eq!(bucket_index(lo - 1), i - 1);
            }
        }
    }

    #[test]
    fn observe_extremes() {
        let h = Histogram::new();
        h.observe(0);
        h.observe(1);
        h.observe(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[64], 1);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        // Sum saturates rather than wrapping.
        assert_eq!(s.sum, u64::MAX);
    }

    #[test]
    fn absorb_equals_direct_observation() {
        let whole = Histogram::new();
        let shard_a = Histogram::new();
        let shard_b = Histogram::new();
        for v in [0u64, 3, 3, 17, 1_000_000] {
            whole.observe(v);
            shard_a.observe(v);
        }
        for v in [1u64, 255, u64::MAX] {
            whole.observe(v);
            shard_b.observe(v);
        }
        let merged = Histogram::new();
        merged.absorb(&shard_a.snapshot());
        merged.absorb(&shard_b.snapshot());
        merged.absorb(&HistogramSnapshot::empty()); // no-op
        assert_eq!(merged.snapshot(), whole.snapshot());
    }

    #[test]
    fn empty_snapshot_is_well_defined() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.5), 0);
    }

    #[test]
    fn mean_and_quantiles() {
        let h = Histogram::new();
        for v in [4u64, 4, 4, 4, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.mean(), 1016.0 / 5.0);
        // 4 of 5 observations sit in bucket 3 ([4,8)): p50 reports its
        // lower bound, p99 reaches the bucket holding 1000 ([512,1024)).
        assert_eq!(s.quantile(0.5), 4);
        assert_eq!(s.quantile(0.99), 512);
    }

    #[test]
    fn percentile_clamps_to_observed_range_in_single_bucket() {
        // All observations identical: every percentile is that value,
        // not a point interpolated across the bucket's [4, 8) span.
        let h = Histogram::new();
        for _ in 0..5 {
            h.observe(4);
        }
        let s = h.snapshot();
        assert_eq!(s.percentile(0.0), 4.0);
        assert_eq!(s.percentile(0.5), 4.0);
        assert_eq!(s.percentile(1.0), 4.0);
    }

    #[test]
    fn percentile_at_bucket_boundaries() {
        // 1 lives in bucket 1 ([1,1]), 2 in bucket 2 ([2,3]).
        let h = Histogram::new();
        h.observe(1);
        h.observe(2);
        let s = h.snapshot();
        // rank(0.5) = 1.0 lands exactly on the last observation of
        // bucket 1; full interpolation across [1,1] stays at 1.
        assert_eq!(s.percentile(0.5), 1.0);
        // rank(1.0) = 2.0 fully crosses bucket 2 ([2,3]) but clamps to
        // the observed max.
        assert_eq!(s.percentile(1.0), 2.0);
    }

    #[test]
    fn percentile_interpolates_within_a_bucket() {
        // Four values in bucket 5 ([16, 31]): p50 sits halfway through
        // the bucket's occupants → lo + 0.5 * (hi - lo) = 23.5.
        let h = Histogram::new();
        for v in [16u64, 20, 25, 31] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.percentile(0.5), 23.5);
        assert_eq!(s.percentile(0.0), 16.0);
        assert_eq!(s.percentile(1.0), 31.0);
    }

    #[test]
    fn percentile_empty_and_extreme_buckets() {
        assert_eq!(HistogramSnapshot::empty().percentile(0.5), 0.0);
        let h = Histogram::new();
        h.observe(0);
        h.observe(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.percentile(0.0), 0.0);
        assert_eq!(s.percentile(1.0), u64::MAX as f64);
    }

    #[test]
    fn percentile_clamps_out_of_range_and_nan_q() {
        // 1 in bucket 1, 1000 in bucket 10: the extremes differ, so a
        // wrong lane (extrapolating to max) is visible.
        let h = Histogram::new();
        h.observe(1);
        h.observe(1000);
        let s = h.snapshot();
        assert_eq!(s.percentile(-0.1), s.percentile(0.0));
        assert_eq!(s.percentile(-0.1), 1.0);
        assert_eq!(s.percentile(1.5), s.percentile(1.0));
        assert_eq!(s.percentile(1.5), 1000.0);
        // NaN must clamp (to the low end), not fall through to max.
        assert_eq!(s.percentile(f64::NAN), s.percentile(0.0));
        assert_eq!(s.quantile(f64::NAN), s.quantile(0.0));
        assert_eq!(HistogramSnapshot::empty().percentile(f64::NAN), 0.0);
    }

    #[test]
    fn upper_bounds_invert_bucket_index() {
        for i in 0..BUCKETS {
            let hi = bucket_upper_bound(i);
            assert_eq!(bucket_index(hi), i);
            assert!(hi >= bucket_lower_bound(i));
        }
    }
}
