//! Streaming quantile estimation (the P² algorithm).

/// A constant-memory streaming estimator of a single quantile, using the
/// P² algorithm (Jain & Chlamtac, 1985).
///
/// Large simulator runs produce tens of millions of latency samples;
/// storing them all to compute one p99 is wasteful. `P2Quantile` keeps
/// five markers and adjusts them with parabolic interpolation as samples
/// stream in, giving an estimate typically within a fraction of a percent
/// of the exact quantile for smooth distributions.
///
/// For small sample counts (below five) the estimator falls back to the
/// exact order statistic.
///
/// # Examples
///
/// ```
/// use faas_metrics::P2Quantile;
///
/// let mut p90 = P2Quantile::new(0.9);
/// for i in 1..=1_000 {
///     p90.record(i as f64);
/// }
/// let est = p90.estimate().expect("has samples");
/// assert!((est - 900.0).abs() < 20.0, "estimate {est}");
/// ```
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (the five tracked order statistics).
    heights: [f64; 5],
    /// Actual marker positions (1-based ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments per observation.
    increments: [f64; 5],
    count: u64,
}

impl P2Quantile {
    /// Creates an estimator for quantile `q` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not strictly between 0 and 1.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile {q} must be in (0, 1)");
        Self {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    /// The configured quantile.
    pub fn quantile(&self) -> f64 {
        self.q
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "NaN sample");
        if self.count < 5 {
            #[expect(clippy::cast_possible_truncation, reason = "count < 5")]
            let slot = self.count as usize;
            self.heights[slot] = value;
            self.count += 1;
            if self.count == 5 {
                self.heights.sort_by(f64::total_cmp);
            }
            return;
        }
        self.count += 1;

        // Find the cell k such that heights[k] <= value < heights[k+1],
        // extending extremes when needed.
        let k = if value < self.heights[0] {
            self.heights[0] = value;
            0
        } else if value >= self.heights[4] {
            self.heights[4] = value;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if self.heights[i] <= value && value < self.heights[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }

        // Adjust the three middle markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let d_sign = d.signum();
                let candidate = self.parabolic(i, d_sign);
                let new_height =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d_sign)
                    };
                self.heights[i] = new_height;
                self.positions[i] += d_sign;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (n_prev, n, n_next) = (
            self.positions[i - 1],
            self.positions[i],
            self.positions[i + 1],
        );
        let (h_prev, h, h_next) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        h + d / (n_next - n_prev)
            * ((n - n_prev + d) * (h_next - h) / (n_next - n)
                + (n_next - n - d) * (h - h_prev) / (n - n_prev))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// The current quantile estimate, or `None` before any sample.
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            n if n < 5 => {
                // Exact order statistic on the partial buffer.
                #[expect(clippy::cast_possible_truncation, reason = "n < 5")]
                let mut buf: Vec<f64> = self.heights[..n as usize].to_vec();
                buf.sort_by(f64::total_cmp);
                Some(crate::percentile(&buf, self.q * 100.0))
            }
            _ => Some(self.heights[2]),
        }
    }
}

impl Extend<f64> for P2Quantile {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_estimate() {
        assert_eq!(P2Quantile::new(0.5).estimate(), None);
    }

    #[test]
    fn small_counts_are_exact() {
        let mut p50 = P2Quantile::new(0.5);
        p50.record(10.0);
        assert_eq!(p50.estimate(), Some(10.0));
        p50.record(20.0);
        assert_eq!(p50.estimate(), Some(15.0));
        p50.record(30.0);
        assert_eq!(p50.estimate(), Some(20.0));
    }

    #[test]
    fn median_of_uniform_stream() {
        let mut p50 = P2Quantile::new(0.5);
        for i in 0..10_000 {
            // Scramble order deterministically.
            let v = ((i * 7919) % 10_000) as f64;
            p50.record(v);
        }
        let est = p50.estimate().expect("has samples");
        assert!((est - 5_000.0).abs() < 250.0, "median estimate {est}");
    }

    #[test]
    fn p99_of_heavy_tail() {
        // Exponential-ish tail via deterministic inverse CDF sampling.
        let mut p99 = P2Quantile::new(0.99);
        let n: u64 = 50_000;
        for i in 0..n {
            let u = ((i * 104_729) % n) as f64 / n as f64;
            let v = -(1.0 - u).max(1e-12).ln(); // Exp(1)
            p99.record(v);
        }
        let est = p99.estimate().expect("has samples");
        let exact = -(0.01f64).ln(); // ≈ 4.605
        assert!(
            (est - exact).abs() / exact < 0.15,
            "p99 estimate {est} vs exact {exact}"
        );
    }

    #[test]
    fn tracks_min_and_max_markers() {
        let mut p50 = P2Quantile::new(0.5);
        for v in [5.0, 5.0, 5.0, 5.0, 5.0, 1.0, 9.0] {
            p50.record(v);
        }
        assert_eq!(p50.count(), 7);
        let est = p50.estimate().expect("has samples");
        assert!((1.0..=9.0).contains(&est));
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1)")]
    fn rejects_out_of_range_quantile() {
        let _ = P2Quantile::new(1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan() {
        P2Quantile::new(0.5).record(f64::NAN);
    }

    #[test]
    fn extend_records_all() {
        let mut p = P2Quantile::new(0.5);
        p.extend((0..100).map(f64::from));
        assert_eq!(p.count(), 100);
    }
}
