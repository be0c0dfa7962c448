//! Seeded synthetic workload generators standing in for the production
//! Azure Functions and Alibaba Cloud FC traces (Table 1).
//!
//! The real traces are not redistributable, so the generators reproduce
//! the published marginals that keep-alive and scaling policies are
//! sensitive to:
//!
//! * **Popularity skew** — per-function request rates follow a Zipf law,
//!   giving the few-hot / many-cold split production FaaS exhibits.
//! * **Concurrency bursts** (Fig. 3) — a configurable fraction of each
//!   function's requests arrive in near-simultaneous bursts whose sizes
//!   are Pareto-distributed; the FC preset has a much heavier burst tail
//!   ({90th, 99th} per-minute concurrency of {120, 4482} in the paper).
//! * **Execution times** — per-function medians are log-uniform across a
//!   preset range; per-invocation times are lognormal around the median
//!   with a coefficient of variation of ≈25% (§2.6).
//! * **Cold starts** (§2.2) — proportional to the memory footprint at a
//!   configurable ms/MB factor (the paper uses 1–3 ms/MB for Azure),
//!   with per-function jitter.
//!
//! All generation is deterministic in the seed.

use faas_testkit::Rng;

use crate::{FunctionId, FunctionProfile, Invocation, TimeDelta, TimePoint, Trace};

/// Azure-like memory footprints in MB with selection weights: most
/// functions small, a modest 1 GB+ tail (Shahrad et al. report a median
/// allocated memory of ~170 MB).
const AZURE_MEM_MB: &[(u32, f64)] = &[
    (128, 0.32),
    (192, 0.18),
    (256, 0.18),
    (384, 0.11),
    (512, 0.10),
    (768, 0.05),
    (1024, 0.04),
    (1536, 0.02),
];

/// Alibaba-FC-like memory footprints: FC instances default much larger
/// (up to 3 GB), which is what drives the Table 1 GBps figures and the
/// 80–160 GB cache pressure of Fig. 12(c)/(d).
const FC_MEM_MB: &[(u32, f64)] = &[
    (256, 0.28),
    (384, 0.17),
    (512, 0.25),
    (768, 0.14),
    (1024, 0.10),
    (1536, 0.06),
];

/// Builder for a synthetic FaaS workload trace.
///
/// Use the [`azure`] / [`fc`] presets for the paper's two workloads, or
/// start from [`SyntheticWorkload::new`] and configure everything.
///
/// # Examples
///
/// ```
/// use faas_trace::gen;
///
/// let small = gen::fc(7).functions(10).minutes(1).build();
/// assert!(!small.is_empty());
/// // Same seed, same trace:
/// assert_eq!(small, gen::fc(7).functions(10).minutes(1).build());
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    seed: u64,
    name: &'static str,
    functions: usize,
    duration: TimeDelta,
    zipf_exponent: f64,
    rate_per_function_rps: f64,
    burst_fraction: f64,
    burst_pareto_alpha: f64,
    burst_max: usize,
    burst_window: TimeDelta,
    exec_median_range_ms: (f64, f64),
    exec_sigma: f64,
    cold_ms_per_mb: f64,
    cold_jitter: f64,
    diurnal_amplitude: f64,
    mem_choices: &'static [(u32, f64)],
    hot_functions_fast: bool,
}

impl SyntheticWorkload {
    /// Creates a neutral workload builder (moderate burstiness, 1 rps per
    /// function, 50–500 ms executions, 1.5 ms/MB cold starts).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            name: "synthetic",
            functions: 50,
            duration: TimeDelta::from_minutes(5),
            zipf_exponent: 1.0,
            rate_per_function_rps: 1.0,
            burst_fraction: 0.3,
            burst_pareto_alpha: 1.5,
            burst_max: 200,
            burst_window: TimeDelta::from_millis(500),
            exec_median_range_ms: (50.0, 500.0),
            exec_sigma: 0.25,
            cold_ms_per_mb: 1.5,
            cold_jitter: 0.2,
            diurnal_amplitude: 0.0,
            mem_choices: AZURE_MEM_MB,
            hot_functions_fast: false,
        }
    }

    /// Sets the number of deployed functions.
    pub fn functions(mut self, n: usize) -> Self {
        self.functions = n;
        self
    }

    /// Sets the trace duration in minutes.
    pub fn minutes(mut self, m: u64) -> Self {
        self.duration = TimeDelta::from_minutes(m);
        self
    }

    /// Sets the trace duration exactly.
    pub fn duration(mut self, d: TimeDelta) -> Self {
        self.duration = d;
        self
    }

    /// Sets the average request rate per function in requests/second.
    /// Total trace rate is roughly `functions * rate`.
    pub fn rate_per_function(mut self, rps: f64) -> Self {
        self.rate_per_function_rps = rps;
        self
    }

    /// Sets the Zipf popularity exponent (0 = uniform popularity).
    pub fn zipf_exponent(mut self, s: f64) -> Self {
        self.zipf_exponent = s;
        self
    }

    /// Sets the fraction of requests that arrive inside concurrency bursts.
    pub fn burst_fraction(mut self, f: f64) -> Self {
        self.burst_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Sets the Pareto tail exponent and cap for burst sizes. Smaller
    /// `alpha` means heavier concurrency tails.
    pub fn burst_tail(mut self, alpha: f64, max: usize) -> Self {
        self.burst_pareto_alpha = alpha;
        self.burst_max = max.max(2);
        self
    }

    /// Sets the window over which one burst's requests are spread.
    pub fn burst_window(mut self, w: TimeDelta) -> Self {
        self.burst_window = w;
        self
    }

    /// Sets the range of per-function median execution times (log-uniform)
    /// in milliseconds.
    pub fn exec_median_range_ms(mut self, lo: f64, hi: f64) -> Self {
        self.exec_median_range_ms = (lo, hi);
        self
    }

    /// Sets the lognormal sigma of per-invocation execution time around
    /// the function median (0.25 ≈ the paper's 25% variance).
    pub fn exec_sigma(mut self, sigma: f64) -> Self {
        self.exec_sigma = sigma;
        self
    }

    /// Sets the cold-start cost factor in milliseconds per MB of function
    /// memory (the paper's Azure methodology uses 1–3 ms/MB).
    pub fn cold_ms_per_mb(mut self, f: f64) -> Self {
        self.cold_ms_per_mb = f;
        self
    }

    /// Correlates popularity with speed: the most-invoked functions get
    /// the shortest execution-time medians. Production FC exhibits this —
    /// the hottest functions are lightweight event handlers — and it is
    /// why FC's request-weighted queueing delays (Fig. 6) are tiny even
    /// though its function-weighted cold/exec ratios (Fig. 2) are not.
    pub fn hot_functions_fast(mut self, yes: bool) -> Self {
        self.hot_functions_fast = yes;
        self
    }

    /// Sets the diurnal modulation amplitude in `[0, 1)`: the arrival
    /// rate follows `1 + a*sin(2*pi*t/24h)` over the trace, modelling the
    /// day/night cycle visible in multi-hour production traces. Zero
    /// (default) disables modulation; short traces are barely affected
    /// because they cover a sliver of the period.
    pub fn diurnal_amplitude(mut self, a: f64) -> Self {
        self.diurnal_amplitude = a.clamp(0.0, 0.99);
        self
    }

    /// The diurnal intensity multiplier at trace offset `t_us`.
    fn diurnal_factor(&self, t_us: f64) -> f64 {
        if self.diurnal_amplitude == 0.0 {
            return 1.0;
        }
        let day_us = 24.0 * 3_600.0 * 1e6;
        1.0 + self.diurnal_amplitude * (2.0 * std::f64::consts::PI * t_us / day_us).sin()
    }

    /// Thins an arrival at `t_us` so the accepted stream follows the
    /// diurnal intensity (generation runs at peak rate `1 + a`).
    fn diurnal_keep(&self, rng: &mut Rng, t_us: f64) -> bool {
        if self.diurnal_amplitude == 0.0 {
            return true;
        }
        let peak = 1.0 + self.diurnal_amplitude;
        rng.f64() < self.diurnal_factor(t_us) / peak
    }

    /// Generates the trace.
    ///
    /// # Panics
    ///
    /// Panics if the builder was configured with zero functions.
    pub fn build(&self) -> Trace {
        assert!(self.functions > 0, "workload needs at least one function");
        let mut rng = Rng::seed_from_u64(self.seed);

        let profiles = self.build_profiles(&mut rng);
        // Per-function execution-time medians, log-uniform across range.
        let (lo, hi) = self.exec_median_range_ms;
        let mut medians_ms: Vec<f64> = (0..self.functions)
            .map(|_| rng.log_uniform(lo, hi))
            .collect();
        if self.hot_functions_fast {
            // Function 0 is the most popular (Zipf rank 1): give it the
            // shortest execution median, and so on down the ranking.
            medians_ms.sort_by(f64::total_cmp);
        }

        // Zipf rates normalised so the mean per-function rate is as asked.
        let weights: Vec<f64> = (1..=self.functions)
            .map(|rank| 1.0 / (rank as f64).powf(self.zipf_exponent))
            .collect();
        let wsum: f64 = weights.iter().sum();
        let total_rate = self.rate_per_function_rps * self.functions as f64;

        let duration_s = self.duration.as_secs_f64();
        let mut invocations = Vec::new();
        for (i, profile) in profiles.iter().enumerate() {
            let rate = total_rate * weights[i] / wsum;
            let expected = rate * duration_s;
            let steady = expected * (1.0 - self.burst_fraction);
            let bursty = expected * self.burst_fraction;
            self.gen_steady(
                &mut rng,
                profile.id,
                steady,
                medians_ms[i],
                &mut invocations,
            );
            self.gen_bursts(
                &mut rng,
                profile.id,
                bursty,
                medians_ms[i],
                &mut invocations,
            );
        }

        Trace::new(profiles, invocations).expect("generator emits consistent traces")
    }

    fn build_profiles(&self, rng: &mut Rng) -> Vec<FunctionProfile> {
        (0..self.functions)
            .map(|i| {
                let mem_mb = rng.weighted(self.mem_choices);
                let jitter = 1.0 + (rng.f64() * 2.0 - 1.0) * self.cold_jitter;
                let cold_ms = (f64::from(mem_mb) * self.cold_ms_per_mb * jitter).max(1.0);
                FunctionProfile::new(
                    FunctionId(u32::try_from(i).expect("function ids are u32")),
                    format!("{}-{}", self.name, i),
                    mem_mb,
                    TimeDelta::from_millis_f64(cold_ms),
                )
            })
            .collect()
    }

    /// Poisson-process arrivals with exponential inter-arrival gaps.
    fn gen_steady(
        &self,
        rng: &mut Rng,
        func: FunctionId,
        expected: f64,
        median_ms: f64,
        out: &mut Vec<Invocation>,
    ) {
        if expected <= 0.0 {
            return;
        }
        let peak = 1.0 + self.diurnal_amplitude;
        let dur_us = self.duration.as_micros() as f64;
        let rate_per_us = expected * peak / dur_us;
        let mut t = 0.0f64;
        loop {
            t += rng.exponential(rate_per_us);
            if t >= dur_us {
                break;
            }
            if self.diurnal_keep(rng, t) {
                #[expect(
                    clippy::cast_possible_truncation,
                    clippy::cast_sign_loss,
                    reason = "quantizing an instant in [0, dur_us) to whole µs"
                )]
                let at = TimePoint::from_micros(t as u64);
                out.push(self.invocation(rng, func, at, median_ms));
            }
        }
    }

    /// Burst arrivals: Pareto-sized rate surges. Each burst places `size`
    /// requests uniformly over a span drawn log-uniformly between the
    /// burst window and 25x the window — production "concurrency" is
    /// mostly a sustained elevated rate over seconds (Fig. 3 measures
    /// requests *per minute*), with the shortest spans degenerating into
    /// near-simultaneous clumps. Larger bursts bias toward longer spans
    /// so the surge *rate* stays bounded rather than its duration.
    fn gen_bursts(
        &self,
        rng: &mut Rng,
        func: FunctionId,
        expected: f64,
        median_ms: f64,
        out: &mut Vec<Invocation>,
    ) {
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "a request count: small, and a negative or NaN expectation saturates to none"
        )]
        let mut remaining = expected.round() as usize;
        let dur_us = self.duration.as_micros();
        let w = self.burst_window.as_micros().max(1) as f64;
        while remaining > 0 {
            let size = rng
                .pareto_int(self.burst_pareto_alpha, 2, self.burst_max)
                .min(remaining.max(2));
            let floor = w * (1.0 + (size as f64).sqrt());
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "a span of whole µs drawn from [floor, 25 floor], floor >= 1"
            )]
            let span = rng.log_uniform(floor, floor * 25.0) as u64;
            let mut start = rng.range_u64(0, dur_us.max(1));
            // Bias burst placement toward diurnal peaks.
            for _ in 0..8 {
                if self.diurnal_keep(rng, start as f64) {
                    break;
                }
                start = rng.range_u64(0, dur_us.max(1));
            }
            for _ in 0..size {
                let offset = rng.range_u64_inclusive(0, span);
                let at = TimePoint::from_micros((start + offset).min(dur_us));
                out.push(self.invocation(rng, func, at, median_ms));
            }
            remaining = remaining.saturating_sub(size);
        }
    }

    fn invocation(
        &self,
        rng: &mut Rng,
        func: FunctionId,
        arrival: TimePoint,
        median_ms: f64,
    ) -> Invocation {
        let exec_ms = rng.lognormal_median(median_ms, self.exec_sigma).max(0.1);
        Invocation {
            func,
            arrival,
            exec: TimeDelta::from_millis_f64(exec_ms),
        }
    }
}

/// Preset modeling the sampled 30-minute Azure Functions workload
/// (Table 1: 330 functions, ≈598k requests): moderate burstiness, broad
/// execution times (tens of ms to seconds), 1.5 ms/MB cold starts.
///
/// Under this mix, cold starts and queueing delays overlap, producing the
/// Fig. 5 crossover where ≈70% of queueing delays beat a cold start.
pub fn azure(seed: u64) -> SyntheticWorkload {
    let mut w = SyntheticWorkload::new(seed);
    w.name = "azure";
    w.functions = 330;
    w.duration = TimeDelta::from_minutes(30);
    w.zipf_exponent = 0.5;
    w.rate_per_function_rps = 1.0;
    w.burst_fraction = 0.50;
    w.burst_pareto_alpha = 1.7;
    w.burst_max = 100;
    w.burst_window = TimeDelta::from_millis(800);
    w.exec_median_range_ms = (25.0, 700.0);
    w.exec_sigma = 0.25;
    w.cold_ms_per_mb = 1.5;
    w
}

/// Preset modeling the sampled 30-minute Alibaba Cloud FC workload
/// (Table 1: 220 functions, ≈410k requests): a much heavier concurrency
/// tail and short executions relative to cold starts, so queueing on a
/// busy container essentially always beats a cold start (Fig. 6).
pub fn fc(seed: u64) -> SyntheticWorkload {
    let mut w = SyntheticWorkload::new(seed);
    w.name = "fc";
    w.functions = 220;
    w.duration = TimeDelta::from_minutes(30);
    w.zipf_exponent = 1.1;
    w.rate_per_function_rps = 1.05;
    w.burst_fraction = 0.50;
    w.burst_pareto_alpha = 1.2;
    w.burst_max = 1_500;
    w.burst_window = TimeDelta::from_millis(400);
    w.exec_median_range_ms = (2.0, 800.0);
    w.exec_sigma = 0.25;
    w.cold_ms_per_mb = 1.2;
    w.mem_choices = FC_MEM_MB;
    w.hot_functions_fast = true;
    w
}

/// Preset modeling the 24-hour Azure Functions day-1 sample the paper's
/// motivation study uses (750 functions, ≈14.7M requests at full scale).
/// Generate with fewer minutes for tractable experiment runtimes.
pub fn azure_daily(seed: u64) -> SyntheticWorkload {
    let mut w = azure(seed);
    w.name = "azure24h";
    w.functions = 750;
    w.duration = TimeDelta::from_minutes(24 * 60);
    w.rate_per_function_rps = 0.23; // ≈170 rps aggregate, per Table 1.
    w.diurnal_amplitude = 0.45; // day/night swing of the daily trace
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_metrics::Summary;

    #[test]
    fn deterministic_for_same_seed() {
        let a = azure(1).functions(10).minutes(1).build();
        let b = azure(1).functions(10).minutes(1).build();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = azure(1).functions(10).minutes(1).build();
        let b = azure(2).functions(10).minutes(1).build();
        assert_ne!(a, b);
    }

    #[test]
    fn request_volume_close_to_target() {
        let w = SyntheticWorkload::new(3)
            .functions(50)
            .minutes(5)
            .rate_per_function(1.0);
        let trace = w.build();
        let expected = 50.0 * 300.0;
        let actual = trace.len() as f64;
        assert!(
            (actual - expected).abs() / expected < 0.25,
            "expected ≈{expected} invocations, got {actual}"
        );
    }

    #[test]
    fn arrivals_within_duration() {
        let trace = fc(5).functions(20).minutes(2).build();
        let dur = TimeDelta::from_minutes(2);
        for inv in trace.invocations() {
            assert!(inv.arrival.saturating_since(TimePoint::ZERO) <= dur);
        }
    }

    #[test]
    fn exec_variance_matches_sigma() {
        // One function so all invocations share a median; CV should be
        // near the lognormal CV for sigma=0.25 (≈0.253).
        let trace = SyntheticWorkload::new(11)
            .functions(1)
            .minutes(10)
            .rate_per_function(5.0)
            .exec_sigma(0.25)
            .build();
        let s: Summary = trace
            .invocations()
            .iter()
            .map(|i| i.exec.as_millis_f64())
            .collect();
        assert!(s.count() > 1_000);
        let cv = s.coefficient_of_variation();
        assert!((0.15..0.40).contains(&cv), "CV {cv} not near 0.25");
    }

    #[test]
    fn cold_start_scales_with_memory() {
        let trace = azure(9).functions(100).minutes(1).build();
        for f in trace.functions() {
            let per_mb = f.cold_start.as_millis_f64() / f64::from(f.mem_mb);
            // 1.5 ms/MB with ±20% jitter.
            assert!((1.1..=1.9).contains(&per_mb), "cold factor {per_mb}");
        }
    }

    #[test]
    fn fc_has_heavier_burst_tail_than_azure() {
        let az = azure(21).functions(60).minutes(4).build();
        let fc_t = fc(21).functions(60).minutes(4).build();
        let peak = |t: &Trace| {
            crate::stats::per_function_peak_rpm(t)
                .into_iter()
                .fold(0.0f64, f64::max)
        };
        assert!(
            peak(&fc_t) > peak(&az),
            "FC peak {} should exceed Azure peak {}",
            peak(&fc_t),
            peak(&az)
        );
    }

    #[test]
    fn zipf_concentrates_load() {
        let trace = SyntheticWorkload::new(4)
            .functions(20)
            .minutes(3)
            .zipf_exponent(1.2)
            .build();
        let counts = trace.invocation_counts();
        let hot = counts.get(&FunctionId(0)).copied().unwrap_or(0);
        let cold = counts.get(&FunctionId(19)).copied().unwrap_or(0);
        assert!(hot > cold * 3, "hot {hot} vs cold {cold}");
    }

    #[test]
    #[should_panic(expected = "at least one function")]
    fn zero_functions_panics() {
        let _ = SyntheticWorkload::new(0).functions(0).build();
    }

    #[test]
    fn distribution_helpers_in_range() {
        let mut rng = Rng::seed_from_u64(0);
        for _ in 0..1000 {
            let p = rng.pareto_int(1.5, 2, 100);
            assert!((2..=100).contains(&p));
            let lu = rng.log_uniform(1.0, 10.0);
            assert!((1.0..=10.0).contains(&lu));
            let e = rng.exponential(0.5);
            assert!(e > 0.0);
        }
    }

    #[test]
    fn weighted_choice_respects_support() {
        let mut rng = Rng::seed_from_u64(1);
        let choices = [(1u32, 0.5), (2, 0.5)];
        for _ in 0..100 {
            let c = rng.weighted(&choices);
            assert!(c == 1 || c == 2);
        }
    }
}

#[cfg(test)]
mod diurnal_tests {
    use super::*;
    use crate::TimeDelta;

    #[test]
    fn diurnal_rate_swings_across_the_day() {
        // 24-hour single-function trace with strong modulation: the
        // busiest 6-hour window must see substantially more arrivals
        // than the quietest.
        let trace = SyntheticWorkload::new(5)
            .functions(1)
            .duration(TimeDelta::from_minutes(24 * 60))
            .rate_per_function(0.05)
            .burst_fraction(0.0)
            .diurnal_amplitude(0.8)
            .build();
        let mut quarters = [0u64; 4];
        for inv in trace.invocations() {
            let q = (inv.arrival.as_secs_f64() / (6.0 * 3600.0)) as usize;
            quarters[q.min(3)] += 1;
        }
        // sin peaks in the first quarter (0-6h) and troughs in the third.
        assert!(
            quarters[0] as f64 > quarters[2] as f64 * 1.5,
            "expected diurnal swing, got {quarters:?}"
        );
    }

    #[test]
    fn zero_amplitude_is_uniform_ish() {
        let trace = SyntheticWorkload::new(5)
            .functions(1)
            .duration(TimeDelta::from_minutes(24 * 60))
            .rate_per_function(0.05)
            .burst_fraction(0.0)
            .build();
        let mut halves = [0u64; 2];
        for inv in trace.invocations() {
            let h = (inv.arrival.as_secs_f64() / (12.0 * 3600.0)) as usize;
            halves[h.min(1)] += 1;
        }
        let ratio = halves[0] as f64 / halves[1].max(1) as f64;
        assert!((0.8..1.25).contains(&ratio), "halves {halves:?}");
    }

    #[test]
    fn amplitude_is_clamped() {
        let w = SyntheticWorkload::new(0).diurnal_amplitude(5.0);
        // Building must not panic and thinning probabilities stay valid.
        let _ = w.functions(1).minutes(1).build();
    }
}
