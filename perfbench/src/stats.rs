//! Order statistics for the benchmark's timings.

/// Percentiles considered for a tail figure, lowest first, in basis points
/// (integers, so ranks are exact).
const TAIL_LADDER_BP: [usize; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A percentile read off a sample, with how many samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `90.0`.
    pub pct: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// The highest percentile of the ladder that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it (nearest-rank definition); `None`
/// when not even the median qualifies.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_LADDER_BP.iter().rev().find_map(|&bp| {
        let rank = (bp * n).div_ceil(10_000);
        let beyond = n.checked_sub(rank)?;
        (rank >= 1 && beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            pct: bp as f64 / 100.0,
            value: v[rank - 1],
            beyond,
            n,
        })
    })
}

/// `min / median / max (n=…)` of `values` scaled by `scale`, for the human
/// lines that show how much a run's repetitions varied.
pub fn describe_spread(values: &[f64], scale: f64) -> String {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mid = median(values).unwrap_or(f64::NAN);
    format!(
        "min {:.3} / median {:.3} / max {:.3} (n={})",
        lo * scale,
        mid * scale,
        hi * scale,
        values.len()
    )
}

/// Human rendering of [`tail`]: `p90 12.3 (n=100, 10 beyond)`, or why no
/// percentile qualifies.
pub fn describe_tail(values: &[f64]) -> String {
    match tail(values) {
        Some(t) => format!("p{} {:.3} (n={}, {} beyond)", t.pct, t.value, t.n, t.beyond),
        None => format!(
            "none (n={}: no percentile has {TAIL_MIN_BEYOND} samples beyond it)",
            values.len()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order, so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 19 samples: the median has only 9 beyond it.
        assert_eq!(tail(&ramp(19)), None);
        // 20 samples: p50 is rank 10 with exactly 10 beyond; p90 has 2.
        let t = tail(&ramp(20)).expect("p50 qualifies");
        assert_eq!((t.pct, t.value, t.beyond, t.n), (50.0, 10.0, 10, 20));
    }

    #[test]
    fn tail_climbs_the_ladder_with_sample_count() {
        let t = tail(&ramp(100)).expect("p90 qualifies");
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        // 109 samples: p99 is rank 108 with 1 beyond, so p90 stays.
        assert_eq!(tail(&ramp(109)).map(|t| t.pct), Some(90.0));
        let t = tail(&ramp(1000)).expect("p99 qualifies");
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        let t = tail(&ramp(10_000)).expect("p99.9 qualifies");
        assert_eq!((t.pct, t.beyond), (99.9, 10));
    }

    #[test]
    fn tail_description_states_the_count() {
        assert!(describe_tail(&ramp(5)).contains("n=5"));
        assert_eq!(describe_tail(&ramp(100)), "p90 90.000 (n=100, 10 beyond)");
    }
}
