//! Distribution helpers for per-site metrics: CDFs, percentiles, and plain
//! text rendering for the `run_all` report sections.

use std::fmt;

pub use vroom_browser::metrics::{percentile_sorted, quartiles, Quartiles};

/// Why a distribution could not be built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StatsError {
    /// A sample was NaN or infinite (e.g. a 0/0 fraction from a degenerate
    /// load) — such values have no place on a CDF axis.
    NonFinite {
        /// Index of the offending sample in the input order.
        index: usize,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::NonFinite { index, value } => {
                write!(f, "non-finite sample {value} at index {index}")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// An empirical distribution over per-site values.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from raw values. Non-finite samples are rejected with a typed
    /// error; an empty sample set is representable (render helpers skip
    /// such series) and yields NaN percentiles.
    pub fn try_new(mut values: Vec<f64>) -> Result<Self, StatsError> {
        if let Some((index, &value)) = values.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(StatsError::NonFinite { index, value });
        }
        values.sort_by(f64::total_cmp);
        Ok(Cdf { sorted: values })
    }

    /// [`Cdf::try_new`] for infallible call sites: non-finite input is a
    /// caller bug and panics with the typed error's message.
    pub fn new(values: Vec<f64>) -> Self {
        match Self::try_new(values) {
            Ok(cdf) => cdf,
            Err(e) => panic!("Cdf::new: {e}"),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the distribution holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Interpolated percentile, `q` in `[0, 1]` (NaN when empty).
    pub fn percentile(&self, q: f64) -> f64 {
        percentile_sorted(&self.sorted, q)
    }

    /// The median (NaN when empty).
    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    /// `(value, cumulative_fraction)` points for plotting, `n` of them.
    /// Empty distributions (or `n < 2`, which cannot span `[0, 1]`) yield
    /// no points rather than aborting mid-run.
    pub fn points(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n < 2 {
            return Vec::new();
        }
        (0..n)
            .map(|i| {
                let q = i as f64 / (n - 1) as f64;
                (self.percentile(q), q)
            })
            .collect()
    }
}

/// Render several named CDF series as an aligned text table
/// (one row per decile), the output format of the `fig*` binaries.
/// Empty series (possible under aggressive `--sites` caps plus
/// per-scenario filtering) are skipped rather than rendered as NaN
/// columns; a table with no data says so instead of aborting the run.
pub fn render_cdf_table(title: &str, series: &[(&str, &Cdf)], unit: &str) -> String {
    let series: Vec<&(&str, &Cdf)> = series.iter().filter(|(_, cdf)| !cdf.is_empty()).collect();
    let mut out = String::new();
    out.push_str(&format!("# {title}\n"));
    if series.is_empty() {
        out.push_str("(no samples)\n");
        return out;
    }
    out.push_str(&format!("{:>6}", "pct"));
    for (name, _) in &series {
        out.push_str(&format!(" {name:>28}"));
    }
    out.push_str(&format!("  ({unit})\n"));
    for decile in 0..=10 {
        let q = decile as f64 / 10.0;
        out.push_str(&format!("{:>5}%", decile * 10));
        for (_, cdf) in &series {
            out.push_str(&format!(" {:>28.3}", cdf.percentile(q)));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:>6}", "median"));
    for (_, cdf) in &series {
        out.push_str(&format!(" {:>28.3}", cdf.median()));
    }
    out.push('\n');
    out
}

/// Render quartile boxes (Fig 17/18/19/20 style). Rows whose sample was
/// empty (`!is_defined()`) are skipped rather than printed as NaNs.
pub fn render_quartile_table(title: &str, rows: &[(&str, Quartiles)], unit: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title} ({unit})\n"));
    let rows: Vec<&(&str, Quartiles)> = rows.iter().filter(|(_, q)| q.is_defined()).collect();
    if rows.is_empty() {
        out.push_str("(no samples)\n");
        return out;
    }
    out.push_str(&format!(
        "{:<36} {:>10} {:>10} {:>10}\n",
        "system", "p25", "median", "p75"
    ));
    for (name, q) in rows {
        out.push_str(&format!(
            "{name:<36} {:>10.3} {:>10.3} {:>10.3}\n",
            q.p25, q.p50, q.p75
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_percentiles() {
        let cdf = Cdf::new(vec![3.0, 1.0, 2.0, 4.0, 5.0]);
        assert_eq!(cdf.median(), 3.0);
        assert_eq!(cdf.percentile(0.0), 1.0);
        assert_eq!(cdf.percentile(1.0), 5.0);
        assert_eq!(cdf.len(), 5);
    }

    #[test]
    fn points_are_monotone() {
        let cdf = Cdf::new((0..100).map(|i| (i * 7 % 31) as f64).collect());
        let pts = cdf.points(11);
        assert_eq!(pts.len(), 11);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
    }

    #[test]
    fn tables_render() {
        let cdf = Cdf::new(vec![1.0, 2.0, 3.0]);
        let table = render_cdf_table("Fig X", &[("a", &cdf), ("b", &cdf)], "s");
        assert!(table.contains("Fig X"));
        assert!(table.lines().count() >= 13);
        let qt = render_quartile_table("Fig Y", &[("sys", quartiles(&[1.0, 2.0, 3.0]))], "s");
        assert!(qt.contains("median"));
        assert!(qt.contains("sys"));
    }

    #[test]
    fn empty_cdf_is_representable_and_skipped_in_tables() {
        let empty = Cdf::new(vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert!(empty.median().is_nan());
        assert!(empty.points(11).is_empty());

        let full = Cdf::new(vec![1.0, 2.0, 3.0]);
        let mixed = render_cdf_table("Fig X", &[("gone", &empty), ("there", &full)], "s");
        assert!(!mixed.contains("gone"), "{mixed}");
        assert!(mixed.contains("there"), "{mixed}");
        assert!(!mixed.contains("NaN"), "{mixed}");
        let none = render_cdf_table("Fig X", &[("gone", &empty)], "s");
        assert!(none.contains("(no samples)"), "{none}");

        let qt = render_quartile_table(
            "Fig Y",
            &[("gone", quartiles(&[])), ("there", quartiles(&[1.0, 2.0]))],
            "s",
        );
        assert!(!qt.contains("gone"), "{qt}");
        assert!(qt.contains("there"), "{qt}");
    }

    #[test]
    fn non_finite_samples_are_rejected_with_a_typed_error() {
        let err = Cdf::try_new(vec![1.0, f64::NAN, 3.0]).unwrap_err();
        assert!(
            matches!(err, StatsError::NonFinite { index: 1, value } if value.is_nan()),
            "{err:?}"
        );
        assert!(err.to_string().contains("index 1"), "{err}");
        assert!(Cdf::try_new(vec![1.0, f64::INFINITY]).is_err());
        assert!(Cdf::try_new(vec![]).is_ok());
        assert!(Cdf::try_new(vec![0.5]).is_ok());
    }

    #[test]
    #[should_panic(expected = "non-finite sample")]
    fn cdf_new_panics_on_nan_with_typed_message() {
        let _ = Cdf::new(vec![0.0 / 0.0]);
    }
}
