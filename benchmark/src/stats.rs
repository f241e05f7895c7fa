//! Order statistics over timing samples.

/// The `p`-quantile (0 ≤ p ≤ 1) of `sorted` by linear interpolation between
/// the two nearest ranks. `sorted` must be ascending and non-empty.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (non-empty).
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// First quartile, median and third quartile of `values` (non-empty).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    (
        quantile_sorted(&s, 0.25),
        quantile_sorted(&s, 0.5),
        quantile_sorted(&s, 0.75),
    )
}

/// The host-noise-resistant reading of a repeated, deterministic timing:
/// the mean of the fastest tenth of `samples` (at least one).
///
/// The sandbox host slows by up to 1.7x for tens of seconds at a time
/// (measured; see README, "Steadiness"). Such noise only ever adds time, so
/// the fast side of the distribution is the program and the slow side is
/// the neighbours: a median flips between the two modes from run to run,
/// the fastest decile does not, and averaging it is steadier than the bare
/// minimum. A change to the program moves every sample, this one included.
pub fn quiet(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let keep = (s.len() / 10).max(1);
    s[..keep].iter().sum::<f64>() / keep as f64
}

/// Percentiles (in permille) a tail may be reported at, highest first.
const TAIL_LADDER_PERMILLE: [usize; 5] = [999, 990, 950, 900, 750];

/// Samples a percentile needs beyond it before it is worth reporting.
pub const MIN_BEYOND: usize = 10;

/// Number of samples strictly beyond the `permille`-quantile of an
/// `n`-sample set (integer arithmetic, so 1000 samples leave exactly 10
/// beyond p99).
pub fn samples_beyond(n: usize, permille: usize) -> usize {
    n - (n * permille).div_ceil(1000)
}

/// The highest percentile of the ladder 99.9 / 99 / 95 / 90 / 75 that still
/// has at least [`MIN_BEYOND`] of the `n` samples beyond it, or `None` when
/// even the 75th does not.
pub fn highest_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER_PERMILLE
        .into_iter()
        .find(|&pm| samples_beyond(n, pm) >= MIN_BEYOND)
        .map(|pm| pm as f64 / 1000.0)
}

/// `(b - a) / a`, the relative difference of a second reading against the
/// first (0 when both are 0).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a) / a.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quiet_is_the_mean_of_the_fastest_tenth() {
        let mut samples: Vec<f64> = (1..=30).map(f64::from).collect();
        samples.reverse();
        assert_eq!(quiet(&samples), 2.0, "mean of 1, 2, 3");
        assert_eq!(quiet(&[9.0, 4.0, 6.0]), 4.0, "fewer than ten: the minimum");
        // A noisy half does not move it.
        let noisy: Vec<f64> = samples
            .iter()
            .map(|&v| if v > 15.0 { v * 1.7 } else { v })
            .collect();
        assert_eq!(quiet(&noisy), 2.0);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let (q1, q2, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, q2, q3), (2.0, 3.0, 4.0));
        let (q1, q2, q3) = quartiles(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((q1, q2, q3), (17.5, 25.0, 32.5));
    }

    #[test]
    fn quantile_endpoints_are_min_and_max() {
        let s = sorted(&[5.0, 9.0, 1.0]);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 9.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        // 1000 samples leave exactly 10 beyond p99 and only 1 beyond p99.9.
        assert_eq!(samples_beyond(1000, 990), 10);
        assert_eq!(highest_percentile(1000), Some(0.99));
        assert_eq!(highest_percentile(999), Some(0.95));
        assert_eq!(highest_percentile(10_000), Some(0.999));
        assert_eq!(highest_percentile(200), Some(0.95));
        assert_eq!(highest_percentile(199), Some(0.90));
        assert_eq!(highest_percentile(40), Some(0.75));
        assert_eq!(highest_percentile(39), None);
    }

    #[test]
    fn rel_diff_is_signed_against_the_first_reading() {
        assert_eq!(rel_diff(100.0, 110.0), 0.1);
        assert_eq!(rel_diff(100.0, 90.0), -0.1);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
    }
}
