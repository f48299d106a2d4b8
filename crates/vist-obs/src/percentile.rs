//! Shared nearest-rank percentile arithmetic.
//!
//! The workspace has two percentile consumers — the log₂-bucketed
//! [`HistogramSnapshot`](crate::HistogramSnapshot) estimates and
//! `vist profile`'s exact sorted-sample quantiles — and both reduce to
//! the same nearest-rank rule: the `q`-quantile of `n` observations is
//! the observation at 1-based rank `clamp(ceil(q * n), 1, n)`. This
//! module is the single definition of that rule so the two can never
//! drift apart again.

/// 1-based nearest rank of the `q`-quantile over `count` observations
/// (`0.0 ..= 1.0`). Zero when `count` is zero.
#[must_use]
pub fn rank(q: f64, count: u64) -> u64 {
    if count == 0 {
        return 0;
    }
    ((q * count as f64).ceil() as u64).clamp(1, count)
}

/// Exact nearest-rank quantile of an ascending-sorted sample; zero when
/// the sample is empty.
#[must_use]
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    match rank(q, sorted.len() as u64) {
        0 => 0,
        r => sorted[(r - 1) as usize],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_is_clamped_and_one_based() {
        assert_eq!(rank(0.5, 0), 0);
        assert_eq!(rank(0.0, 10), 1);
        assert_eq!(rank(1.0, 10), 10);
        assert_eq!(rank(0.5, 100), 50);
        assert_eq!(rank(0.99, 100), 99);
        assert_eq!(rank(0.999, 100), 100);
        assert_eq!(rank(0.999, 1), 1);
    }

    #[test]
    fn nearest_rank_picks_the_ranked_sample() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.50), 50);
        assert_eq!(nearest_rank(&v, 0.95), 95);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&v, 0.999), 100);
        assert_eq!(nearest_rank(&[], 0.5), 0);
        assert_eq!(nearest_rank(&[7], 0.999), 7);
    }
}
