//! The benchmark's own arithmetic: medians and quartiles across
//! repetitions, the tail percentile rule, and the count × per-call
//! estimates used where a layer cannot be split from outside.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method),
/// so that the spreads printed here match the ones a Python script
/// computes from the same values. A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median: the spread
/// the acceptance rule compares against a metric's bound. Zero when the
/// median is zero.
pub fn iqr_frac(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Candidate percentiles for the tail, highest first.
const TAIL_LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail percentile: which one was chosen, its value, and the sample
/// count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent.
    pub pct: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond it (nearest-rank
/// definition: the value at percentile `p` is the `ceil(p/100 · n)`-th
/// smallest sample, and the samples beyond it are the remaining
/// `n − rank`). With too few samples for even the median to qualify, the
/// median is returned with `pct = 50`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no values");
    let v = sorted(values);
    let n = v.len();
    // `pct · n` before dividing keeps whole ranks exact (99 · 1000 / 100
    // is 990, where 0.99 · 1000 may round above it); the small slack
    // absorbs the residue of non-integral percentiles such as 99.9.
    let rank = |pct: f64| ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n);
    let pct = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n - rank(p) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    Tail {
        pct,
        value: v[rank(pct) - 1],
        samples: n,
    }
}

/// Time a layer is estimated to have taken inside a call that cannot be
/// split from outside: its measured cost per call times the exact number
/// of calls the run made.
pub fn estimate_s(per_call_s: f64, calls: u64) -> f64 {
    per_call_s * calls as f64
}

/// The part of `total_s` that the estimated children do not account for
/// (negative when the estimates overshoot, which is reported as it is).
pub fn remainder_s(total_s: f64, estimates_s: &[f64]) -> f64 {
    total_s - estimates_s.iter().sum::<f64>()
}

/// `part / whole`, or zero for an empty whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn iqr_frac_is_relative_to_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_frac(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(iqr_frac(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 has rank 990 and 10 beyond; p99.9 only 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);
        // 10_000 samples: p99.9 has 10 beyond.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v).pct, 99.9);
        // 200 samples: p95 (rank 190, 10 beyond); p99 leaves only 2.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.value), (95.0, 190.0));
        // 199 samples: p95 has rank 190 and only 9 beyond, so p90.
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail(&v).pct, 90.0);
    }

    #[test]
    fn tail_falls_back_to_median_on_few_samples() {
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.value, t.samples), (50.0, 8.0, 15));
        // Twenty samples: the median (rank 10) has exactly 10 beyond.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v).pct, 50.0);
        assert_eq!(tail(&v).value, 10.0);
    }

    #[test]
    fn tail_is_order_independent() {
        let v: Vec<f64> = (1..=300).rev().map(f64::from).collect();
        assert_eq!(tail(&v).value, 285.0); // p95: rank ceil(285.0) = 285
    }

    #[test]
    fn estimates_multiply_per_call_cost_by_exact_counts() {
        assert!((estimate_s(188e-6, 4_496) - 0.845_248).abs() < 1e-12);
        assert_eq!(estimate_s(1.0, 0), 0.0);
        let plan = estimate_s(2e-4, 1_000);
        let exec = estimate_s(1e-6, 500);
        assert!((remainder_s(0.25, &[plan, exec]) - 0.0495).abs() < 1e-12);
        // Overshooting estimates leave a negative remainder, unclamped.
        assert!(remainder_s(0.1, &[0.2]) < 0.0);
    }

    #[test]
    fn ratio_of_empty_whole_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
