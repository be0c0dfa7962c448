//! CIDRE configuration knobs (the paper's §5.5 sensitivity axes).

use faas_trace::TimeDelta;

/// How CSS estimates a function's expected execution time `Te` from its
/// history (Fig. 17 compares these).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TeEstimator {
    /// Arithmetic mean of windowed execution times.
    Mean,
    /// The given percentile (0–100) of windowed execution times; the
    /// paper settles on the median (50).
    Percentile(f64),
}

impl TeEstimator {
    /// The paper's default: the median.
    pub const MEDIAN: TeEstimator = TeEstimator::Percentile(50.0);
}

/// Configuration of the CIDRE policy stack.
///
/// # Examples
///
/// ```
/// use cidre_core::{CidreConfig, TeEstimator};
/// use faas_trace::TimeDelta;
///
/// let cfg = CidreConfig::default()
///     .window(Some(TimeDelta::from_minutes(10)))
///     .te_estimator(TeEstimator::Percentile(75.0));
/// assert_eq!(cfg.window, Some(TimeDelta::from_minutes(10)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CidreConfig {
    /// Sliding window over which the `Te` and `Tp` statistics are
    /// collected and after which the `Ti` and `Td` hints expire; `None`
    /// keeps all history (Fig. 18). Default: 15 minutes, per §3.2.
    pub window: Option<TimeDelta>,
    /// The `Te` estimator (Fig. 17). Default: median.
    pub te: TeEstimator,
}

impl Default for CidreConfig {
    fn default() -> Self {
        Self {
            window: Some(TimeDelta::from_minutes(15)),
            te: TeEstimator::MEDIAN,
        }
    }
}

impl CidreConfig {
    /// Sets the statistics sliding window (`None` = unbounded).
    pub fn window(mut self, window: Option<TimeDelta>) -> Self {
        self.window = window;
        self
    }

    /// Sets the `Te` estimator.
    ///
    /// [`CssScaler::new`](crate::CssScaler::new) panics on a
    /// [`TeEstimator::Percentile`] outside `[0, 100]` or NaN, however the
    /// configuration was built.
    pub fn te_estimator(mut self, te: TeEstimator) -> Self {
        self.te = te;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let cfg = CidreConfig::default();
        assert_eq!(cfg.window, Some(TimeDelta::from_minutes(15)));
        assert_eq!(cfg.te, TeEstimator::Percentile(50.0));
    }

    #[test]
    fn builders_chain() {
        let cfg = CidreConfig::default()
            .window(None)
            .te_estimator(TeEstimator::Mean);
        assert_eq!(cfg.window, None);
        assert_eq!(cfg.te, TeEstimator::Mean);
    }
}
