//! Trace statistics reproducing Table 1 and Figures 2–3 of the paper.

use std::collections::BTreeMap;

use faas_metrics::{Cdf, Summary};

use crate::{FunctionId, Trace};

/// Aggregate workload statistics as reported in Table 1 of the paper:
/// request counts, requests-per-second, and aggregate request memory in
/// GB-per-second, each with average/min/max over one-second buckets.
///
/// # Examples
///
/// ```
/// use faas_trace::{gen, stats::TraceStats};
///
/// let trace = gen::azure(1).functions(20).minutes(2).build();
/// let s = TraceStats::compute(&trace);
/// assert_eq!(s.invocations as usize, trace.len());
/// assert!(s.rps_max >= s.rps_avg && s.rps_avg >= s.rps_min);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Total number of invocation requests.
    pub invocations: u64,
    /// Number of distinct functions with at least one profile.
    pub functions: usize,
    /// Trace duration in seconds (last arrival).
    pub duration_secs: f64,
    /// Mean requests per second over one-second buckets.
    pub rps_avg: f64,
    /// Minimum requests per second over one-second buckets.
    pub rps_min: f64,
    /// Maximum requests per second over one-second buckets.
    pub rps_max: f64,
    /// Mean aggregate request memory per second, in GB.
    pub gbps_avg: f64,
    /// Minimum aggregate request memory per second, in GB.
    pub gbps_min: f64,
    /// Maximum aggregate request memory per second, in GB.
    pub gbps_max: f64,
}

impl TraceStats {
    /// Computes the Table 1 statistics for a trace.
    ///
    /// Buckets are one second wide, matching the paper's Rps/GBps rows.
    /// An empty trace yields all-zero statistics.
    pub fn compute(trace: &Trace) -> Self {
        let invocations = trace.len() as u64;
        let functions = trace.functions().len();
        if trace.is_empty() {
            return Self {
                invocations,
                functions,
                duration_secs: 0.0,
                rps_avg: 0.0,
                rps_min: 0.0,
                rps_max: 0.0,
                gbps_avg: 0.0,
                gbps_min: 0.0,
                gbps_max: 0.0,
            };
        }
        let duration_secs = trace.duration().as_secs_f64().max(1.0);
        // Bucket boundaries are computed in integer microseconds: the
        // float path (`as_secs_f64() as usize`) truncates through an
        // f64, and a lossy cast here needs a reason it does not have.
        let buckets = usize::try_from(trace.duration().as_micros().div_ceil(1_000_000).max(1))
            .expect("trace duration in seconds fits usize");
        let mut reqs = vec![0u64; buckets];
        let mut gbs = vec![0f64; buckets];
        for inv in trace.invocations() {
            let b = usize::try_from(inv.arrival.as_micros() / 1_000_000)
                .expect("arrival second fits usize")
                .min(buckets - 1);
            reqs[b] += 1;
            let mem_mb = trace
                .function(inv.func)
                .expect("trace invariant: profile exists")
                .mem_mb;
            gbs[b] += f64::from(mem_mb) / 1024.0;
        }
        let rps: Summary = reqs.iter().map(|&r| r as f64).collect();
        let gbps: Summary = gbs.iter().copied().collect();
        Self {
            invocations,
            functions,
            duration_secs,
            rps_avg: rps.mean(),
            rps_min: rps.min().unwrap_or(0.0),
            rps_max: rps.max().unwrap_or(0.0),
            gbps_avg: gbps.mean(),
            gbps_min: gbps.min().unwrap_or(0.0),
            gbps_max: gbps.max().unwrap_or(0.0),
        }
    }
}

/// CDF of per-invocation cold-start-latency to execution-time ratios
/// (Fig. 2). `cold_scale` multiplies each function's profiled cold start,
/// which is how the paper applies its 1/2/3 ms-per-MB estimates to the
/// Azure trace.
///
/// Invocations with zero execution time are skipped.
pub fn cold_exec_ratio_cdf(trace: &Trace, cold_scale: f64) -> Cdf {
    trace
        .invocations()
        .iter()
        .filter_map(|inv| {
            let exec = inv.exec.as_millis_f64();
            if exec <= 0.0 {
                return None;
            }
            let cold = trace
                .function(inv.func)
                .expect("trace invariant: profile exists")
                .cold_start
                .as_millis_f64()
                * cold_scale;
            Some(cold / exec)
        })
        .collect()
}

/// Per-function *peak* requests-per-minute over the trace, the concurrency
/// measure plotted in Fig. 3 ("each point in the curve: reqs/min of a
/// function"). Peak (rather than mean) captures the burst level a
/// keep-alive policy must absorb; functions with no invocations are
/// omitted.
///
/// The returned vector is ordered by ascending [`FunctionId`]. The
/// previous implementation iterated `HashMap`s, so two identical traces
/// could yield differently ordered vectors — harmless once inside a
/// sorted [`Cdf`], but a nondeterminism hazard for any direct
/// consumer. `BTreeMap` pins the order end to end.
pub fn per_function_peak_rpm(trace: &Trace) -> Vec<f64> {
    let mut per_minute: BTreeMap<(FunctionId, u64), u64> = BTreeMap::new();
    for inv in trace.invocations() {
        let minute = inv.arrival.as_micros() / 60_000_000;
        *per_minute.entry((inv.func, minute)).or_insert(0) += 1;
    }
    let mut peaks: BTreeMap<FunctionId, u64> = BTreeMap::new();
    for ((f, _), count) in per_minute {
        let peak = peaks.entry(f).or_insert(0);
        *peak = (*peak).max(count);
    }
    peaks.into_values().map(|v| v as f64).collect()
}

/// CDF over [`per_function_peak_rpm`] (Fig. 3).
pub fn concurrency_cdf(trace: &Trace) -> Cdf {
    Cdf::from_samples(per_function_peak_rpm(trace))
}

/// Fraction of functions whose execution-time coefficient of variation is
/// at least `threshold` (the paper reports 68% of Azure and 59% of FC
/// functions at or above 25%, §2.6). Functions with fewer than two
/// invocations are skipped.
pub fn fraction_high_variance(trace: &Trace, threshold: f64) -> f64 {
    let mut per_fn: BTreeMap<FunctionId, Summary> = BTreeMap::new();
    for inv in trace.invocations() {
        per_fn
            .entry(inv.func)
            .or_default()
            .record(inv.exec.as_millis_f64());
    }
    let eligible: Vec<&Summary> = per_fn.values().filter(|s| s.count() >= 2).collect();
    if eligible.is_empty() {
        return 0.0;
    }
    let high = eligible
        .iter()
        .filter(|s| s.coefficient_of_variation() >= threshold)
        .count();
    high as f64 / eligible.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FunctionProfile, Invocation, TimeDelta, TimePoint};

    fn trace_with(invs: Vec<(u32, u64, u64)>) -> Trace {
        // (func, arrival_ms, exec_ms); two functions with distinct memory.
        let fs = vec![
            FunctionProfile::new(FunctionId(0), "a", 1024, TimeDelta::from_millis(200)),
            FunctionProfile::new(FunctionId(1), "b", 512, TimeDelta::from_millis(100)),
        ];
        let invs = invs
            .into_iter()
            .map(|(f, at, ex)| Invocation {
                func: FunctionId(f),
                arrival: TimePoint::from_millis(at),
                exec: TimeDelta::from_millis(ex),
            })
            .collect();
        Trace::new(fs, invs).expect("valid")
    }

    #[test]
    fn table1_stats_hand_computed() {
        // Two requests in second 0, one in second 2 (duration 2s -> 2 buckets...
        // duration = 2000ms => buckets = 2, but arrival at 2000ms lands in last bucket).
        let t = trace_with(vec![(0, 0, 10), (1, 500, 10), (0, 2000, 10)]);
        let s = TraceStats::compute(&t);
        assert_eq!(s.invocations, 3);
        assert_eq!(s.functions, 2);
        assert_eq!(s.duration_secs, 2.0);
        // Buckets: [2, 1] -> avg 1.5, min 1, max 2.
        assert_eq!(s.rps_avg, 1.5);
        assert_eq!(s.rps_min, 1.0);
        assert_eq!(s.rps_max, 2.0);
        // GB: bucket0 = 1.0 + 0.5, bucket1 = 1.0.
        assert!((s.gbps_max - 1.5).abs() < 1e-12);
        assert!((s.gbps_min - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_stats_are_zero() {
        let s = TraceStats::compute(&Trace::default());
        assert_eq!(s.invocations, 0);
        assert_eq!(s.rps_max, 0.0);
    }

    #[test]
    fn cold_exec_ratio_scales() {
        let t = trace_with(vec![(0, 0, 100)]); // cold 200ms, exec 100ms
        let cdf1 = cold_exec_ratio_cdf(&t, 1.0);
        assert_eq!(cdf1.samples(), &[2.0]);
        let cdf2 = cold_exec_ratio_cdf(&t, 0.5);
        assert_eq!(cdf2.samples(), &[1.0]);
    }

    #[test]
    fn peak_rpm_takes_max_minute() {
        // fn0: 3 reqs in minute 0, 1 req in minute 1 -> peak 3.
        let t = trace_with(vec![(0, 0, 1), (0, 1, 1), (0, 2, 1), (0, 61_000, 1)]);
        let peaks = per_function_peak_rpm(&t);
        assert_eq!(peaks, vec![3.0]);
    }

    #[test]
    fn concurrency_cdf_counts_functions() {
        let t = trace_with(vec![(0, 0, 1), (1, 0, 1), (1, 10, 1)]);
        let cdf = concurrency_cdf(&t);
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf.max(), Some(2.0));
    }

    #[test]
    fn variance_fraction() {
        // fn0 constant exec => CV 0; fn1 highly variable.
        let t = trace_with(vec![(0, 0, 10), (0, 1, 10), (1, 0, 1), (1, 1, 100)]);
        assert_eq!(fraction_high_variance(&t, 0.25), 0.5);
        assert_eq!(fraction_high_variance(&Trace::default(), 0.25), 0.0);
    }
}
