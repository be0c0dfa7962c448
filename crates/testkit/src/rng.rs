//! Deterministic, seedable PRNG: xoshiro256++ state, SplitMix64 seeding.
//!
//! Not cryptographic — a fast, well-distributed generator whose entire
//! behaviour is a pure function of the seed, which is exactly what
//! reproducible workload generation and property testing need. The
//! distribution helpers (normal, exponential, lognormal, log-uniform,
//! Pareto, Zipf, weighted choice) cover everything the synthetic
//! Azure/FC trace generators draw.

/// One SplitMix64 step: advances `state` and returns the next output.
/// Public so seeding schemes (per-case, per-scenario) can derive
/// independent sub-seeds without constructing a full generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ PRNG, deterministically seeded from a `u64`.
///
/// # Examples
///
/// ```
/// use faas_testkit::Rng;
/// let mut a = Rng::seed_from_u64(7);
/// let mut b = Rng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!((0.0..1.0).contains(&a.f64()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose stream is a pure function of `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` (53 bits of precision).
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `(0, 1)` — safe to feed into `ln`.
    pub fn open01(&mut self) -> f64 {
        self.f64().max(f64::EPSILON)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn u64_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "u64_below(0)");
        // Lemire's multiply-shift; the slight modulo bias of the plain
        // fallback would be fine for tests, but this is just as cheap.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the half-open range `[lo, hi)`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.u64_below(hi - lo)
    }

    /// Uniform integer in the closed range `[lo, hi]`.
    pub fn range_u64_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.u64_below(hi - lo + 1)
    }

    /// Bernoulli draw with success probability `p` (clamped to [0, 1]).
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal variate via Box–Muller (no caching, so draws per
    /// call are constant and streams stay reproducible).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.open01();
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Exponential variate with the given rate (events per time unit).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0);
        -self.open01().ln() / rate
    }

    /// Lognormal variate whose median is `median` and whose log-space
    /// standard deviation is `sigma`.
    pub fn lognormal_median(&mut self, median: f64, sigma: f64) -> f64 {
        median * (sigma * self.normal()).exp()
    }

    /// Log-uniform variate on `[lo, hi]`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo > 0.0 && hi >= lo);
        (lo.ln() + self.f64() * (hi.ln() - lo.ln())).exp()
    }

    /// Integer Pareto variate clipped to `[min, max]` via inverse CDF.
    pub fn pareto_int(&mut self, alpha: f64, min: usize, max: usize) -> usize {
        let u = self.open01();
        let x = min as f64 / u.powf(1.0 / alpha);
        if !x.is_finite() {
            return max;
        }
        (x as usize).clamp(min, max)
    }

    /// Zipf-distributed rank in `[0, n)` with exponent `s`: rank `r` is
    /// drawn with probability proportional to `1 / (r+1)^s`. An
    /// inverse-CDF walk over weights kept per thread for the last
    /// `(n, s)`: a run of draws computes them once, and each draw walks
    /// them only up to the rank it returns.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        assert!(n > 0, "zipf over empty support");
        ZIPF_WEIGHTS.with_borrow_mut(|table| {
            if (table.weights.len(), table.s_bits) != (n, s.to_bits()) {
                *table = ZipfWeights::new(n, s);
            }
            let mut x = self.f64() * table.total;
            for (rank, &w) in table.weights.iter().enumerate() {
                if x < w {
                    return rank;
                }
                x -= w;
            }
            n - 1
        })
    }

    /// Weighted categorical choice over `(value, weight)` pairs.
    /// Panics on an empty slice.
    pub fn weighted<T: Copy>(&mut self, choices: &[(T, f64)]) -> T {
        let total: f64 = choices.iter().map(|&(_, w)| w).sum();
        let mut x = self.f64() * total;
        for &(v, w) in choices {
            if x < w {
                return v;
            }
            x -= w;
        }
        choices.last().expect("non-empty choices").0
    }
}

/// [`Rng::zipf`]'s weights `1 / r^s` for `r` in `1..=n`, and their sum,
/// computed by the same `f64` operations in the same order as a draw
/// that recomputed them would, so the ranks drawn are the same. Kept
/// outside `Rng`, whose derived `PartialEq` compares generator state.
struct ZipfWeights {
    s_bits: u64,
    weights: Vec<f64>,
    total: f64,
}

impl ZipfWeights {
    fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
        let total = weights.iter().sum();
        Self {
            s_bits: s.to_bits(),
            weights,
            total,
        }
    }
}

thread_local! {
    /// The last table [`Rng::zipf`] used on this thread; empty (no draw
    /// has that support) until the first draw.
    static ZIPF_WEIGHTS: std::cell::RefCell<ZipfWeights> = const {
        std::cell::RefCell::new(ZipfWeights {
            s_bits: 0,
            weights: Vec::new(),
            total: 0.0,
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `zipf` as it was before its weights were kept: every draw
    /// recomputes them. The reference of the memo's property.
    fn zipf_recomputed(rng: &mut Rng, n: usize, s: f64) -> usize {
        assert!(n > 0, "zipf over empty support");
        let total: f64 = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).sum();
        let mut x = rng.f64() * total;
        for r in 1..=n {
            let w = 1.0 / (r as f64).powf(s);
            if x < w {
                return r - 1;
            }
            x -= w;
        }
        n - 1
    }

    #[test]
    fn kept_zipf_weights_draw_the_recomputed_ranks() {
        crate::Checker::new("kept_zipf_weights_draw_the_recomputed_ranks")
            .cases(48)
            .run(|g| {
                let seed = g.u64(0..u64::MAX);
                let (mut kept, mut recomputed) =
                    (Rng::seed_from_u64(seed), Rng::seed_from_u64(seed));
                // A few runs of draws, switching `(n, s)` between them;
                // half the switches keep `n` and change only `s`.
                let mut n = g.usize(1..2_000);
                for _ in 0..g.usize(1..5) {
                    if g.bool(0.5) {
                        n = g.usize(1..2_000);
                    }
                    let s = *g.choose(&[0.0, 0.5, 0.9, 1.2, 2.0]);
                    for _ in 0..g.usize(1..200) {
                        assert_eq!(kept.zipf(n, s), zipf_recomputed(&mut recomputed, n, s));
                    }
                }
                assert_eq!(kept, recomputed);
            });
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn known_xoshiro_vector() {
        // Reference: xoshiro256++ from the canonical seed [1, 2, 3, 4].
        let mut rng = Rng { s: [1, 2, 3, 4] };
        assert_eq!(rng.next_u64(), 41943041);
        assert_eq!(rng.next_u64(), 58720359);
        assert_eq!(rng.next_u64(), 3588806011781223);
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = Rng::seed_from_u64(1);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::seed_from_u64(2);
        for _ in 0..10_000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let w = rng.range_u64_inclusive(0, 3);
            assert!(w <= 3);
            let u = rng.open01();
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn u64_below_covers_support() {
        let mut rng = Rng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.u64_below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from_u64(4);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = Rng::seed_from_u64(5);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn lognormal_median_is_the_median() {
        let mut rng = Rng::seed_from_u64(6);
        let n = 20_001;
        let mut samples: Vec<f64> = (0..n).map(|_| rng.lognormal_median(100.0, 0.25)).collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[n / 2];
        assert!((median - 100.0).abs() / 100.0 < 0.05, "median {median}");
    }

    #[test]
    fn log_uniform_and_pareto_stay_in_range() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..5_000 {
            let lu = rng.log_uniform(1.0, 10.0);
            assert!((1.0..=10.0).contains(&lu));
            let p = rng.pareto_int(1.5, 2, 100);
            assert!((2..=100).contains(&p));
        }
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let mut rng = Rng::seed_from_u64(8);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[rng.zipf(10, 1.2)] += 1;
        }
        assert!(counts[0] > counts[9] * 3, "{counts:?}");
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn weighted_respects_support_and_skew() {
        let mut rng = Rng::seed_from_u64(9);
        let choices = [(1u32, 0.9), (2, 0.1)];
        let mut ones = 0;
        for _ in 0..1_000 {
            match rng.weighted(&choices) {
                1 => ones += 1,
                2 => {}
                other => panic!("impossible value {other}"),
            }
        }
        assert!(ones > 800, "ones {ones}");
    }
}
