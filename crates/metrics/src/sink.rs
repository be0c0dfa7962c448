//! Multi-quantile streaming sink for latency-style measurements.

use crate::quantile::P2Quantile;

/// A constant-memory sink tracking several quantiles of one stream,
/// plus exact count / min / max / mean.
///
/// This is the measurement endpoint for open-loop load generation: a
/// run produces one latency sample per request (easily millions), and
/// the report needs p50 / p99 / p999 tail percentiles. Each configured
/// quantile is tracked by its own [`P2Quantile`] estimator, so memory
/// is a handful of floats regardless of stream length; count, min, max
/// and mean are exact.
///
/// # Examples
///
/// ```
/// use faas_metrics::PercentileSink;
///
/// let mut sink = PercentileSink::latency();
/// for i in 1..=10_000 {
///     sink.record(i as f64);
/// }
/// assert_eq!(sink.count(), 10_000);
/// assert_eq!(sink.min(), Some(1.0));
/// assert_eq!(sink.max(), Some(10_000.0));
/// let p99 = sink.quantile(0.99).expect("tracked");
/// assert!((p99 - 9_900.0).abs() < 200.0, "p99 {p99}");
/// ```
#[derive(Debug, Clone)]
pub struct PercentileSink {
    estimators: Vec<P2Quantile>,
    count: u64,
    min: f64,
    max: f64,
    sum: f64,
}

impl PercentileSink {
    /// Creates a sink tracking the given quantiles, each in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `quantiles` is empty or any entry is outside `(0, 1)`
    /// (the [`P2Quantile`] constructor enforces the range).
    pub fn new(quantiles: &[f64]) -> Self {
        assert!(!quantiles.is_empty(), "sink needs at least one quantile");
        Self {
            estimators: quantiles.iter().map(|&q| P2Quantile::new(q)).collect(),
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// The standard latency sink: p50, p99 and p999.
    pub fn latency() -> Self {
        Self::new(&[0.50, 0.99, 0.999])
    }

    /// Records one observation into every estimator.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "NaN sample");
        for est in &mut self.estimators {
            est.record(value);
        }
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample, if any were recorded.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any were recorded.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact arithmetic mean, if any samples were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The estimate for quantile `q`, or `None` if `q` is not one of
    /// the tracked quantiles or no samples were recorded. Matching is
    /// exact on the configured value (`0.99` matches `0.99`, not
    /// `0.990001`).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.estimators
            .iter()
            .find(|e| e.quantile() == q)
            .and_then(P2Quantile::estimate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_exact_aggregates_and_tail_quantiles() {
        let mut sink = PercentileSink::new(&[0.5, 0.999]);
        for i in 0..100_000u64 {
            // A deterministic shuffle so samples do not arrive sorted.
            let v = (i.wrapping_mul(48_271) % 100_000) as f64;
            sink.record(v);
        }
        assert_eq!(sink.count(), 100_000);
        assert_eq!(sink.min(), Some(0.0));
        assert_eq!(sink.max(), Some(99_999.0));
        let mean = sink.mean().expect("samples");
        assert!((mean - 49_999.5).abs() < 1.0, "mean {mean}");
        let p50 = sink.quantile(0.5).expect("tracked");
        assert!((p50 - 50_000.0).abs() < 1_500.0, "p50 {p50}");
        let p999 = sink.quantile(0.999).expect("tracked");
        assert!((p999 - 99_900.0).abs() < 500.0, "p999 {p999}");
    }

    #[test]
    fn untracked_quantile_and_empty_sink_return_none() {
        let mut sink = PercentileSink::latency();
        assert_eq!(sink.quantile(0.99), None, "no samples yet");
        assert_eq!(sink.mean(), None);
        sink.record(1.0);
        assert!(sink.quantile(0.99).is_some());
        assert_eq!(sink.quantile(0.95), None, "never configured");
    }

    #[test]
    #[should_panic(expected = "at least one quantile")]
    fn rejects_empty_quantile_list() {
        let _ = PercentileSink::new(&[]);
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn rejects_nan() {
        PercentileSink::latency().record(f64::NAN);
    }
}
