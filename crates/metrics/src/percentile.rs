//! Free-standing percentile and moment helpers over slices.

/// Returns the `p`-th percentile (0–100) of `values` using linear
/// interpolation between closest ranks, the same scheme as NumPy's default.
///
/// The input does not need to be sorted; a sorted copy is made internally.
/// Use [`crate::Cdf`] when many quantiles of the same data are needed.
///
/// # Panics
///
/// Panics if `values` is empty or `p` is outside `[0, 100]`.
///
/// # Examples
///
/// ```
/// use faas_metrics::percentile;
/// assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.5);
/// assert_eq!(percentile(&[10.0], 99.0), 10.0);
/// ```
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of [0, 100]");
    assert!(
        values.iter().all(|v| !v.is_nan()),
        "NaN in percentile input"
    );
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_of_sorted(&sorted, p)
}

/// Percentile over data already sorted ascending (no copy, no sort).
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `[0, 100]`.
pub(crate) fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of [0, 100]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "p is in [0, 100], so 0 <= rank <= len - 1"
    )]
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] + (sorted[hi] - sorted[lo]) * frac
    }
}

/// Returns the median (50th percentile) of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
///
/// # Examples
///
/// ```
/// use faas_metrics::median;
/// assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
/// ```
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Returns the arithmetic mean of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
///
/// # Examples
///
/// ```
/// use faas_metrics::mean;
/// assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of empty slice");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Returns the population standard deviation of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
///
/// # Examples
///
/// ```
/// use faas_metrics::std_dev;
/// assert!((std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.0).abs() < 1e-12);
/// ```
pub fn std_dev(values: &[f64]) -> f64 {
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_endpoints() {
        let v = [5.0, 1.0, 3.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(percentile(&v, 25.0), 2.5);
        assert_eq!(percentile(&v, 75.0), 7.5);
    }

    #[test]
    fn median_even_count_averages_middle_pair() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn single_element_is_every_percentile() {
        for p in [0.0, 12.5, 50.0, 99.9, 100.0] {
            assert_eq!(percentile(&[42.0], p), 42.0);
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn percentile_out_of_range_panics() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn mean_and_std_dev() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(std_dev(&[1.0, 1.0, 1.0]), 0.0);
    }

    #[test]
    fn percentile_does_not_reorder_input() {
        let v = [9.0, 1.0];
        let _ = percentile(&v, 50.0);
        assert_eq!(v, [9.0, 1.0]);
    }
}
