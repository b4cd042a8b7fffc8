//! Order statistics for the benchmark's reports.
//!
//! Every percentile the benchmark prints goes through [`percentile`],
//! which refuses a level that leaves fewer than [`MIN_BEYOND`] samples
//! above it: a p99 over 200 samples rests on two values and says nothing
//! that repeats.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentile levels tried by [`tail`], lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Nearest-rank index (0-based) of percentile `p` in `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps exact products (99.9% of 10 000) from rounding up.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, p)
}

/// Nearest-rank percentile `p` of `sorted`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || beyond(sorted.len(), p) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank(sorted.len(), p)])
}

/// The highest ladder percentile of `sorted`, at most `max_level`, with
/// at least [`MIN_BEYOND`] samples beyond it, as `(level, value)`.
///
/// A workload caps the level at what its usual sample count supports, so
/// the reported level does not flip between runs whose counts straddle a
/// ladder step (p95 of 990 samples and p99 of 1010 are different metrics).
pub fn tail(sorted: &[f64], max_level: f64) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .rev()
        .filter(|&&p| p <= max_level)
        .find_map(|&p| percentile(sorted, p).map(|v| (p, v)))
}

/// Sorts a sample in place (total order; NaN sorts last).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Plain median (mean of the middle pair for even counts), used for
/// repeated set-up timings where every sample is reported anyway.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// `num / den`, or `0` for an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        assert_eq!(beyond(100, 90.0), 10);
    }

    #[test]
    fn a_percentile_with_fewer_than_ten_beyond_is_refused() {
        let s = ramp(100);
        // p91 leaves exactly 9 samples above it.
        assert_eq!(percentile(&s, 91.0), None);
        assert_eq!(percentile(&s, 99.0), None);
        // A median needs 20 samples: 10 beyond rank 10.
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_climbs_the_ladder_as_samples_grow() {
        assert_eq!(tail(&ramp(19), 99.9), None);
        assert_eq!(tail(&ramp(25), 99.9).map(|t| t.0), Some(50.0));
        assert_eq!(tail(&ramp(100), 99.9).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&ramp(1000), 99.9), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(10_000), 99.9).map(|t| t.0), Some(99.9));
        for n in [20, 57, 199, 200, 1234, 20_000] {
            let (p, _) = tail(&ramp(n), 99.9).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn a_capped_tail_keeps_its_level_across_sample_counts() {
        for n in [990, 1010, 5000] {
            assert_eq!(tail(&ramp(n), 95.0).map(|t| t.0), Some(95.0), "n={n}");
        }
        // Below the cap's support it still refuses thin percentiles.
        assert_eq!(tail(&ramp(150), 95.0).map(|t| t.0), Some(90.0));
    }

    #[test]
    fn median_and_ratio_edge_cases() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
