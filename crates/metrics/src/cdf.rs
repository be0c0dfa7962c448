//! Empirical cumulative distribution functions.

use crate::percentile::percentile_of_sorted;

/// An empirical CDF built from a set of samples.
///
/// Samples are stored sorted, so quantile and fraction queries are
/// logarithmic and the distribution can be rendered or compared cheaply.
/// This is the type behind every CDF figure in the paper reproduction
/// (Figs. 2, 3, 5, 6, 9, 10, 13, 14, 19).
///
/// # Examples
///
/// ```
/// use faas_metrics::Cdf;
///
/// let cdf = Cdf::from_samples([464.0, 100.0, 900.0, 20.0]);
/// assert_eq!(cdf.len(), 4);
/// assert_eq!(cdf.fraction_at_or_below(464.0), 0.75);
/// assert_eq!(cdf.quantile(1.0), 900.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Creates an empty CDF; equivalent to [`Cdf::default`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a CDF from any collection of samples.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        assert!(
            sorted.iter().all(|v| !v.is_nan()),
            "NaN sample in CDF input"
        );
        sorted.sort_by(f64::total_cmp);
        Self { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted samples backing this CDF.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Fraction of samples `<= x`, in `[0, 1]`. Returns 0 for an empty CDF.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The value at cumulative probability `q` in `[0, 1]` with linear
    /// interpolation (so `quantile(0.5)` is the median).
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0, 1]");
        percentile_of_sorted(&self.sorted, q * 100.0)
    }

    /// Minimum sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// The x-value where this CDF first reaches or exceeds the other CDF
    /// (reading both left to right), i.e. an approximate crossover point
    /// such as the 464 ms queueing-vs-cold-start crossing in Fig. 5.
    ///
    /// Scans `steps` evenly spaced points across the combined support.
    /// Returns `None` if either CDF is empty or no crossing is found.
    pub fn crossover_with(&self, other: &Cdf, steps: usize) -> Option<f64> {
        if self.is_empty() || other.is_empty() || steps < 2 {
            return None;
        }
        let lo = self.min()?.min(other.min()?);
        let hi = self.max()?.max(other.max()?);
        if hi <= lo {
            return None;
        }
        let mut prev_diff: Option<f64> = None;
        for i in 0..=steps {
            let x = lo + (hi - lo) * i as f64 / steps as f64;
            let diff = self.fraction_at_or_below(x) - other.fraction_at_or_below(x);
            if let Some(pd) = prev_diff {
                if pd != 0.0 && diff != 0.0 && pd.signum() != diff.signum() {
                    return Some(x);
                }
            }
            if diff != 0.0 {
                prev_diff = Some(diff);
            }
        }
        None
    }

    /// Evenly spaced `(x, F(x))` points suitable for plotting or CSV dumps.
    ///
    /// Returns an empty vector for an empty CDF.
    pub fn plot_points(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = *self.sorted.last().expect("non-empty");
        if hi == lo {
            return vec![(lo, 1.0)];
        }
        (0..=n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / n as f64;
                (x, self.fraction_at_or_below(x))
            })
            .collect()
    }
}

impl FromIterator<f64> for Cdf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self::from_samples(iter)
    }
}

impl Extend<f64> for Cdf {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.sorted.extend(iter);
        assert!(
            self.sorted.iter().all(|v| !v.is_nan()),
            "NaN sample in CDF input"
        );
        self.sorted.sort_by(f64::total_cmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_is_monotone_and_bounded() {
        let cdf = Cdf::from_samples([1.0, 2.0, 2.0, 5.0]);
        assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
        assert_eq!(cdf.fraction_at_or_below(2.0), 0.75);
        assert_eq!(cdf.fraction_at_or_below(5.0), 1.0);
        assert_eq!(cdf.fraction_at_or_below(f64::MAX), 1.0);
    }

    #[test]
    fn quantile_median() {
        let cdf = Cdf::from_samples([1.0, 3.0]);
        assert_eq!(cdf.quantile(0.5), 2.0);
    }

    #[test]
    fn empty_cdf_queries() {
        let cdf = Cdf::new();
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.0);
        assert_eq!(cdf.min(), None);
        assert_eq!(cdf.mean(), None);
        assert!(cdf.plot_points(10).is_empty());
    }

    #[test]
    fn crossover_detects_crossing() {
        // A concentrated at 10, B spread 0..20: A's CDF jumps from 0 to 1 at
        // 10 while B rises linearly, so they must cross near 10.
        let a = Cdf::from_samples(std::iter::repeat_n(10.0, 100));
        let b = Cdf::from_samples((0..100).map(|i| i as f64 * 0.2));
        let x = a.crossover_with(&b, 1000).expect("must cross");
        assert!((x - 10.0).abs() < 1.0, "crossover {x} not near 10");
    }

    #[test]
    fn crossover_none_when_dominated() {
        let a = Cdf::from_samples([1.0, 2.0, 3.0]);
        let b = Cdf::from_samples([11.0, 12.0, 13.0]);
        // a is entirely below b: a's CDF is always >= b's, no sign change.
        assert_eq!(a.crossover_with(&b, 100), None);
    }

    #[test]
    fn extend_keeps_sorted() {
        let mut cdf = Cdf::from_samples([5.0]);
        cdf.extend([1.0, 9.0]);
        assert_eq!(cdf.samples(), &[1.0, 5.0, 9.0]);
    }

    #[test]
    fn plot_points_constant_support() {
        let cdf = Cdf::from_samples([7.0, 7.0]);
        assert_eq!(cdf.plot_points(5), vec![(7.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = Cdf::from_samples([f64::NAN]);
    }
}
