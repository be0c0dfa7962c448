//! Seeded open-loop arrival schedules.
//!
//! An open-loop load generator injects requests at pre-decided instants
//! regardless of how the system under test responds — the only way to
//! observe queueing collapse honestly (a closed loop self-throttles).
//! This module produces those instants as an infinite, deterministic
//! iterator of microsecond timestamps: the same seed and rate always
//! yield the byte-identical schedule, so a live measurement can be
//! replayed exactly against the simulator.

use crate::rng::Rng;

/// An infinite, monotone, deterministic stream of arrival timestamps
/// in microseconds, starting at the first gap after time zero.
///
/// # Examples
///
/// ```
/// use faas_testkit::Arrivals;
///
/// // Two generators with the same seed agree byte-for-byte.
/// let a: Vec<u64> = Arrivals::poisson(7, 1000.0).take(100).collect();
/// let b: Vec<u64> = Arrivals::poisson(7, 1000.0).take(100).collect();
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct Arrivals {
    /// Running clock in fractional microseconds; kept as `f64` so tiny
    /// gaps at high rates accumulate instead of rounding to zero.
    now_us: f64,
    rng: Rng,
    /// Mean inter-arrival gap in microseconds.
    mean_us: f64,
}

impl Arrivals {
    /// A Poisson arrival process at `rate_per_sec`, seeded so the whole
    /// schedule is a pure function of `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is not strictly positive and finite.
    pub fn poisson(seed: u64, rate_per_sec: f64) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "arrival rate must be positive and finite, got {rate_per_sec}"
        );
        Self {
            now_us: 0.0,
            rng: Rng::seed_from_u64(seed),
            mean_us: 1e6 / rate_per_sec,
        }
    }
}

impl Iterator for Arrivals {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        self.now_us += self.rng.exponential(1.0 / self.mean_us);
        Some(self.now_us as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seed_deterministic_and_monotone() {
        let a: Vec<u64> = Arrivals::poisson(42, 5_000.0).take(10_000).collect();
        let b: Vec<u64> = Arrivals::poisson(42, 5_000.0).take(10_000).collect();
        assert_eq!(a, b, "same seed must give the identical schedule");
        let c: Vec<u64> = Arrivals::poisson(43, 5_000.0).take(10_000).collect();
        assert_ne!(a, c, "different seeds must diverge");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "monotone timestamps");
    }

    #[test]
    fn poisson_mean_gap_matches_the_rate() {
        // 5000 req/s => 200 us mean gap; over 100k arrivals the sample
        // mean of an exponential is within a few percent.
        let n = 100_000usize;
        let last = Arrivals::poisson(1, 5_000.0)
            .take(n)
            .last()
            .expect("non-empty");
        let mean_gap = last as f64 / n as f64;
        assert!(
            (mean_gap - 200.0).abs() < 10.0,
            "mean gap {mean_gap} us vs expected 200 us"
        );
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn rejects_zero_rate() {
        let _ = Arrivals::poisson(0, 0.0);
    }
}
