//! Fixed-bucket duration histograms.
//!
//! Response-time and latency distributions are the working currency of
//! RTOS evaluation; this small histogram keeps them without heap churn
//! in the hot path (log-spaced buckets, counts only). Its buckets are
//! allocated at its first sample, so a histogram that never records —
//! an event-driven task's, a fault-free node's recovery times — holds
//! no heap.

use crate::time::Duration;

/// A log₂-bucketed histogram of durations.
///
/// Bucket `k` holds samples in `[2^k, 2^(k+1))` microseconds, with a
/// final overflow bucket; sub-microsecond samples land in bucket 0.
/// The buckets are allocated at the first [`record`](Self::record),
/// or when a non-empty histogram is merged in: `buckets` is empty
/// exactly when `count` is zero, so derived equality compares samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurationHistogram {
    buckets: Vec<u64>,
    count: u64,
    total: Duration,
    max: Duration,
}

/// Number of log buckets (covers 1 µs .. ~17 minutes).
const BUCKETS: usize = 30;

impl DurationHistogram {
    /// Creates an empty histogram (no heap until its first sample).
    pub fn new() -> Self {
        DurationHistogram {
            buckets: Vec::new(),
            count: 0,
            total: Duration::ZERO,
            max: Duration::ZERO,
        }
    }

    /// The buckets, allocated on first use. The allocation sits out
    /// of line, so `record` stays small enough to inline into the
    /// kernel's dispatch and job-completion paths.
    #[inline]
    fn buckets_mut(&mut self) -> &mut [u64] {
        if self.buckets.is_empty() {
            self.allocate_buckets();
        }
        &mut self.buckets
    }

    #[cold]
    #[inline(never)]
    fn allocate_buckets(&mut self) {
        self.buckets = vec![0; BUCKETS + 1];
    }

    fn bucket_of(d: Duration) -> usize {
        let us = d.as_us();
        if us == 0 {
            0
        } else {
            (63 - us.leading_zeros() as usize).min(BUCKETS)
        }
    }

    /// Records one sample. The running total saturates at
    /// [`Duration::MAX`] instead of panicking, so a histogram fed
    /// pathological samples still reports `count`/`max` exactly and
    /// `mean` as a lower bound.
    #[inline]
    pub fn record(&mut self, d: Duration) {
        self.buckets_mut()[Self::bucket_of(d)] += 1;
        self.count += 1;
        self.total = self.total.saturating_add(d);
        self.max = self.max.max(d);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample.
    pub fn max(&self) -> Duration {
        self.max
    }

    /// Mean sample (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / self.count
        }
    }

    /// An upper bound on the `q`-quantile (the top edge of the bucket
    /// containing it); `q` in `[0, 1]`.
    pub fn quantile_bound(&self, q: f64) -> Duration {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return Duration::ZERO;
        }
        let want = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= want {
                if k >= BUCKETS {
                    return self.max;
                }
                return Duration::from_us(1 << (k + 1)).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram in.
    pub fn merge(&mut self, other: &DurationHistogram) {
        if other.count == 0 {
            return;
        }
        for (a, b) in self.buckets_mut().iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total = self.total.saturating_add(other.total);
        self.max = self.max.max(other.max);
    }
}

impl Default for DurationHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Duration {
        Duration::from_us(v)
    }

    #[test]
    fn records_and_summarizes() {
        let mut h = DurationHistogram::new();
        for v in [1u64, 2, 4, 8, 100] {
            h.record(us(v));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), us(100));
        assert_eq!(h.mean(), us(23));
    }

    #[test]
    fn quantile_bounds_are_monotone_and_cover_max() {
        let mut h = DurationHistogram::new();
        for v in 1..=1000u64 {
            h.record(us(v));
        }
        let q50 = h.quantile_bound(0.5);
        let q90 = h.quantile_bound(0.9);
        let q100 = h.quantile_bound(1.0);
        assert!(q50 <= q90 && q90 <= q100);
        assert!(q50 >= us(500) && q50 <= us(1024), "q50 = {q50}");
        assert_eq!(q100, us(1000));
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = DurationHistogram::new();
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.quantile_bound(0.99), Duration::ZERO);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = DurationHistogram::new();
        a.record(us(5));
        let mut b = DurationHistogram::new();
        b.record(us(500));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), us(500));
    }

    #[test]
    fn a_histogram_that_never_records_holds_no_buckets() {
        let h = DurationHistogram::new();
        assert!(h.buckets.is_empty());
        assert_eq!(h, DurationHistogram::new());
        assert_eq!(h, DurationHistogram::default());
    }

    #[test]
    fn merging_empty_into_empty_stays_empty() {
        let mut a = DurationHistogram::new();
        a.merge(&DurationHistogram::new());
        assert!(a.buckets.is_empty());
        assert_eq!(a, DurationHistogram::new());
    }

    #[test]
    fn merging_into_an_empty_histogram_copies_the_source() {
        let mut src = DurationHistogram::new();
        for v in [0u64, 3, 70, 5_000] {
            src.record(us(v));
        }
        let mut a = DurationHistogram::new();
        a.merge(&src);
        assert_eq!(a, src);
        // An empty source leaves a non-empty histogram as it was.
        a.merge(&DurationHistogram::new());
        assert_eq!(a, src);
    }

    #[test]
    fn near_max_accumulation_saturates_instead_of_panicking() {
        // Two samples near u64::MAX nanoseconds would overflow a
        // checked total; the accumulator must saturate and every
        // summary must stay well-defined.
        let huge = Duration::from_ns(u64::MAX - 7);
        let mut h = DurationHistogram::new();
        h.record(huge);
        h.record(huge);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), huge);
        // Saturated total: the mean is a lower bound, never zero or
        // garbage above max.
        assert!(h.mean() >= Duration::from_ns(u64::MAX / 2));
        assert!(h.mean() <= h.max());
        assert_eq!(h.quantile_bound(0.99), huge);
        // Merging two saturated histograms must not panic either.
        let mut other = DurationHistogram::new();
        other.record(huge);
        h.merge(&other);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), huge);
    }

    #[test]
    fn empty_quantile_edges_are_zero() {
        let h = DurationHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.quantile_bound(0.0), Duration::ZERO);
        assert_eq!(h.quantile_bound(1.0), Duration::ZERO);
    }

    #[test]
    fn sub_microsecond_lands_in_first_bucket() {
        let mut h = DurationHistogram::new();
        h.record(Duration::from_ns(300));
        assert_eq!(h.count(), 1);
        assert!(h.quantile_bound(1.0) <= Duration::from_us(1));
    }
}
