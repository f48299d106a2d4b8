//! Atomic metric primitives: counters, gauges, and log-bucketed histograms.
//!
//! All primitives are lock-free and use `Relaxed` atomic ordering: each
//! metric is an independent statistical accumulator, never a
//! synchronization point, so no ordering edge with surrounding code is
//! needed or implied (see `docs/CONCURRENCY.md`, "Observability atomics").
//! Snapshots are therefore *per-metric* consistent, not cross-metric
//! consistent.
//!
//! With the `noop` cargo feature every mutation compiles to nothing; the
//! types keep their size and API so instrumented code builds unchanged.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::percentile;

/// Number of power-of-two histogram buckets. Bucket 0 counts the value 0;
/// bucket `i >= 1` counts values in `[2^(i-1), 2^i)`. The last bucket also
/// absorbs everything at or above `2^(BUCKETS-2)` (≈ 2.4 hours when the
/// unit is nanoseconds).
pub const BUCKETS: usize = 44;

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    #[must_use]
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(not(feature = "noop"))]
        self.0.fetch_add(n, Ordering::Relaxed);
        #[cfg(feature = "noop")]
        let _ = n;
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge: a value that goes up and down (sizes, depths, levels).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge starting at zero.
    #[must_use]
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Replace the value.
    #[inline]
    pub fn set(&self, v: i64) {
        #[cfg(not(feature = "noop"))]
        self.0.store(v, Ordering::Relaxed);
        #[cfg(feature = "noop")]
        let _ = v;
    }

    /// Add `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        #[cfg(not(feature = "noop"))]
        self.0.fetch_add(n, Ordering::Relaxed);
        #[cfg(feature = "noop")]
        let _ = n;
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram over `u64` values with power-of-two buckets.
///
/// Recording is three relaxed `fetch_add`s plus one relaxed `fetch_max` —
/// cheap enough for hot paths (B+Tree probes, page reads). Quantiles are
/// estimated from the bucket boundaries (each reported quantile is the
/// *upper bound* of the bucket containing it, so estimates are
/// conservative within a factor of two); the maximum is exact.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
    /// Last trace id observed per bucket (0 = none). Behind a mutex:
    /// exemplars are recorded per *request*, not per probe, so the lock
    /// never sits on an engine hot path.
    exemplars: Mutex<[u128; BUCKETS]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`, capped.
#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket (`2^i - 1`; bucket 0 holds only 0).
#[must_use]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            exemplars: Mutex::new([0; BUCKETS]),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        #[cfg(not(feature = "noop"))]
        {
            self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
            self.max.fetch_max(v, Ordering::Relaxed);
        }
        #[cfg(feature = "noop")]
        let _ = v;
    }

    /// Add a batch of observations tallied elsewhere (see
    /// [`crate::batch`]): per-bucket counts, their value sum and maximum.
    pub fn merge(&self, buckets: &[u64; BUCKETS], sum: u64, max: u64) {
        #[cfg(not(feature = "noop"))]
        {
            for (b, &n) in self.buckets.iter().zip(buckets) {
                if n > 0 {
                    b.fetch_add(n, Ordering::Relaxed);
                }
            }
            self.sum.fetch_add(sum, Ordering::Relaxed);
            self.max.fetch_max(max, Ordering::Relaxed);
        }
        #[cfg(feature = "noop")]
        let _ = (buckets, sum, max);
    }

    /// Record one observation and remember `trace_id` as the bucket's
    /// exemplar, so a quantile estimate can be resolved to the record
    /// (see [`crate::wide`]) of the request that landed in its bucket last.
    /// Zero trace ids record the value but leave the exemplar alone.
    #[inline]
    pub fn record_with_exemplar(&self, v: u64, trace_id: u128) {
        self.record(v);
        #[cfg(not(feature = "noop"))]
        if trace_id != 0 {
            self.exemplars.lock().unwrap_or_else(|e| e.into_inner())[bucket_of(v)] = trace_id;
        }
        #[cfg(feature = "noop")]
        let _ = trace_id;
    }

    /// A point-in-time copy of the bucket counts and aggregates.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let exemplars = *self.exemplars.lock().unwrap_or_else(|e| e.into_inner());
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            exemplars,
        }
    }
}

/// Immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`BUCKETS`] for the layout).
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
    /// Last trace id observed per bucket (0 = none recorded).
    pub exemplars: [u128; BUCKETS],
}

impl HistogramSnapshot {
    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Index of the bucket containing the `q`-quantile's nearest rank
    /// (see [`crate::percentile::rank`]); `None` when empty.
    #[must_use]
    pub fn quantile_bucket(&self, q: f64) -> Option<usize> {
        let rank = percentile::rank(q, self.count());
        if rank == 0 {
            return None;
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(i);
            }
        }
        None
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`): the upper
    /// bound of the first bucket whose cumulative count reaches the
    /// shared nearest rank, clamped to the exact maximum. Zero when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        match self.quantile_bucket(q) {
            Some(i) => bucket_upper_bound(i).min(self.max),
            None => 0,
        }
    }

    /// The exemplar trace id of the bucket containing the `q`-quantile
    /// (0 when empty or no exemplar was recorded in that bucket). A p99
    /// spike resolves through this id to a kept record in
    /// [`crate::wide`].
    #[must_use]
    pub fn exemplar(&self, q: f64) -> u128 {
        self.quantile_bucket(q).map_or(0, |i| self.exemplars[i])
    }

    /// Median estimate (see [`HistogramSnapshot::quantile`]).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 95th-percentile estimate.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile estimate.
    #[must_use]
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Mean of recorded values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum as f64 / c as f64
        }
    }
}

#[cfg(all(test, not(feature = "noop")))]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn bucket_layout() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(3), 7);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 500_500);
        // The true p50 is 500; the estimate is the containing bucket's
        // upper bound, so within [500, 1023].
        let p50 = s.p50();
        assert!((500..=1023).contains(&p50), "p50 = {p50}");
        assert!(s.p99() >= 990);
        assert!(s.quantile(1.0) == 1000, "max quantile is exact");
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn p95_p999_use_the_shared_rank() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // Nearest rank 950 lands in bucket [512, 1024); estimate is its
        // upper bound clamped to the exact max.
        assert_eq!(s.p95(), 1000);
        assert_eq!(s.p999(), 1000);
        assert!(s.p50() <= s.p90() && s.p90() <= s.p95());
        assert!(s.p95() <= s.p99() && s.p99() <= s.p999());
    }

    #[test]
    fn exemplars_track_the_last_trace_per_bucket() {
        let h = Histogram::new();
        h.record_with_exemplar(3, 0xAA); // bucket [2,4)
        h.record_with_exemplar(3, 0xBB); // same bucket: last wins
        h.record_with_exemplar(900, 0xCC); // bucket [512,1024)
        h.record_with_exemplar(901, 0); // zero id leaves exemplar alone
        let s = h.snapshot();
        assert_eq!(s.exemplars[bucket_of(3)], 0xBB);
        assert_eq!(s.exemplars[bucket_of(900)], 0xCC);
        // The p99 of this sample sits in the 900s bucket: its exemplar
        // is the handle back to the retained trace.
        assert_eq!(s.exemplar(0.99), 0xCC);
        assert_eq!(Histogram::new().snapshot().exemplar(0.99), 0);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn zero_values_land_in_bucket_zero() {
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.p50(), 0);
    }
}
