//! Step-function time series for resource-usage accounting.

/// A right-continuous step function sampled at irregular times, used to
/// track quantities like cluster memory usage over a simulation run
/// (Fig. 16 reports its time-weighted average).
///
/// Points must be appended in non-decreasing time order. Between two
/// points the series holds the earlier value.
///
/// # Examples
///
/// ```
/// use faas_metrics::TimeSeries;
///
/// let mut ts = TimeSeries::new();
/// ts.push(0, 100.0);
/// ts.push(10, 300.0);
/// ts.push(30, 0.0);
/// // 100 for 10 units, 300 for 20 units => (1000 + 6000) / 30
/// assert!((ts.time_weighted_mean(30).unwrap() - 233.333).abs() < 0.01);
/// assert_eq!(ts.max(), Some(300.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    points: Vec<(u64, f64)>,
}

impl TimeSeries {
    /// Creates an empty time series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point at time `t` with value `v`.
    ///
    /// Consecutive points at the same timestamp overwrite (last write
    /// wins), which matches how several state changes can occur at the
    /// same simulated instant.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last appended timestamp.
    pub fn push(&mut self, t: u64, v: f64) {
        if let Some(&mut (last_t, ref mut last_v)) = self.points.last_mut() {
            assert!(t >= last_t, "time series timestamps must be non-decreasing");
            if t == last_t {
                *last_v = v;
                return;
            }
        }
        self.points.push((t, v));
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no points are stored.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Maximum value over all points, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(m) => m.max(v),
            })
        })
    }

    /// Time-weighted mean of the step function from the first point up to
    /// `end`. Returns `None` when empty or when `end` does not exceed the
    /// first timestamp.
    pub fn time_weighted_mean(&self, end: u64) -> Option<f64> {
        let first = self.points.first()?.0;
        if end <= first {
            return None;
        }
        let mut weighted = 0.0;
        for (i, &(t, v)) in self.points.iter().enumerate() {
            if t >= end {
                break;
            }
            let next_t = self
                .points
                .get(i + 1)
                .map(|&(nt, _)| nt.min(end))
                .unwrap_or(end);
            weighted += v * (next_t - t) as f64;
        }
        Some(weighted / (end - first) as f64)
    }

    /// Iterates over the raw `(time, value)` points.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.points.iter().copied()
    }
}

impl FromIterator<(u64, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (u64, f64)>>(iter: I) -> Self {
        let mut ts = Self::new();
        for (t, v) in iter {
            ts.push(t, v);
        }
        ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_timestamp_overwrites() {
        let mut ts = TimeSeries::new();
        ts.push(5, 1.0);
        ts.push(5, 9.0);
        assert_eq!(ts.iter().collect::<Vec<_>>(), vec![(5, 9.0)]);
    }

    #[test]
    fn weighted_mean_simple() {
        let mut ts = TimeSeries::new();
        ts.push(0, 10.0);
        ts.push(5, 20.0);
        // 10 over [0,5), 20 over [5,10): mean 15
        assert_eq!(ts.time_weighted_mean(10), Some(15.0));
    }

    #[test]
    fn weighted_mean_end_before_data() {
        let mut ts = TimeSeries::new();
        ts.push(10, 1.0);
        assert_eq!(ts.time_weighted_mean(10), None);
        assert!(TimeSeries::new().time_weighted_mean(100).is_none());
    }

    #[test]
    fn weighted_mean_ignores_points_after_end() {
        let mut ts = TimeSeries::new();
        ts.push(0, 1.0);
        ts.push(10, 100.0);
        assert_eq!(ts.time_weighted_mean(10), Some(1.0));
    }

    #[test]
    fn max_tracks_peak() {
        let ts: TimeSeries = [(0, 1.0), (1, 5.0), (2, 3.0)].into_iter().collect();
        assert_eq!(ts.max(), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_push_panics() {
        let mut ts = TimeSeries::new();
        ts.push(10, 1.0);
        ts.push(9, 1.0);
    }
}
