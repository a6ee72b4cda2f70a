//! Latency percentiles and medians.
//!
//! A tail percentile is only worth reporting with enough samples beyond
//! it, so the benchmark reports the highest percentile, up to p99, that
//! has at least [`MIN_BEYOND`] samples above its nearest-rank position,
//! together with the sample count.

use mr_sim::{LatencyRecorder, SimDuration};

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The tail percentile the benchmark aims for.
pub const TAIL_PCT: u64 = 99;

/// p50 and tail of one latency distribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyTail {
    /// Samples in the distribution.
    pub n: usize,
    pub p50: SimDuration,
    /// Nearest rank (1-based) of the reported tail sample; `n - rank`
    /// samples lie beyond it.
    pub rank: usize,
    pub tail: SimDuration,
}

impl LatencyTail {
    /// The percentile the tail sample sits at.
    pub fn tail_pct(&self) -> f64 {
        100.0 * self.rank as f64 / self.n as f64
    }

    pub fn beyond(&self) -> usize {
        self.n - self.rank
    }
}

/// Nearest rank (1-based) of percentile `pct` among `n` samples.
fn nearest_rank(n: usize, pct: u64) -> usize {
    (pct as usize * n).div_ceil(100).max(1)
}

/// The nearest rank of the highest percentile up to `pct` with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when `n` is too small for
/// any.
pub fn tail_rank(n: usize, pct: u64) -> Option<usize> {
    let rank = nearest_rank(n, pct).min(n.checked_sub(MIN_BEYOND)?);
    (rank >= 1).then_some(rank)
}

/// The sample at 1-based `rank`. `LatencyRecorder::quantile` takes a
/// fraction; aiming it half a rank low makes its ceiling land on `rank`
/// exactly despite rounding.
fn at_rank(rec: &mut LatencyRecorder, rank: usize) -> SimDuration {
    rec.quantile((rank as f64 - 0.5) / rec.len() as f64)
}

/// p50 and the tail of `rec` (see [`tail_rank`]).
pub fn tail(rec: &mut LatencyRecorder, pct: u64) -> Option<LatencyTail> {
    let n = rec.len();
    let rank = tail_rank(n, pct)?;
    Some(LatencyTail {
        n,
        p50: at_rank(rec, nearest_rank(n, 50)),
        rank,
        tail: at_rank(rec, rank),
    })
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(values_ms: impl IntoIterator<Item = u64>) -> LatencyRecorder {
        let mut rec = LatencyRecorder::new();
        for v in values_ms {
            rec.record(SimDuration::from_millis(v));
        }
        rec
    }

    #[test]
    fn p99_when_enough_samples_lie_beyond_it() {
        // 1000 samples: p99 is rank 990, with exactly ten beyond.
        assert_eq!(tail_rank(1000, 99), Some(990));
        assert_eq!(tail_rank(5000, 99), Some(4950));
        let t = tail(&mut recorder(1..=1000), 99).unwrap();
        assert_eq!(t.tail, SimDuration::from_millis(990));
        assert_eq!(t.p50, SimDuration::from_millis(500));
        assert_eq!(t.beyond(), 10);
        assert!((t.tail_pct() - 99.0).abs() < 1e-9);
    }

    #[test]
    fn falls_back_to_the_highest_percentile_with_ten_beyond() {
        // 999 samples: p99 (rank 990) would leave nine beyond.
        assert_eq!(tail_rank(999, 99), Some(989));
        // 100 samples: the best is p90.
        let t = tail(&mut recorder(1..=100), 99).unwrap();
        assert_eq!(t.rank, 90);
        assert_eq!(t.tail, SimDuration::from_millis(90));
        assert_eq!(t.beyond(), MIN_BEYOND);
        for n in 11..3000 {
            let rank = tail_rank(n, 99).unwrap();
            assert!(n - rank >= MIN_BEYOND, "n={n}");
            assert!(
                rank == nearest_rank(n, 99) || n - rank == MIN_BEYOND,
                "n={n}"
            );
        }
    }

    #[test]
    fn too_few_samples_give_no_tail() {
        assert_eq!(tail_rank(10, 99), None);
        assert_eq!(tail_rank(0, 99), None);
        assert!(tail(&mut recorder(1..=10), 99).is_none());
        assert_eq!(tail_rank(11, 99), Some(1));
    }

    #[test]
    fn rank_lookup_is_exact_for_every_rank() {
        for n in [11usize, 97, 1000, 4099] {
            let mut rec = recorder(1..=n as u64);
            for rank in 1..=n {
                assert_eq!(
                    at_rank(&mut rec, rank),
                    SimDuration::from_millis(rank as u64)
                );
            }
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
