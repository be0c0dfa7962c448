//! Figs. 9 & 10: the theoretical opportunity space of delayed warm
//! starts (§2.5).
//!
//! For each request with arrival `t0` and cold-start latency `tc`, count
//! how many *other* same-function requests complete (at `arrival + exec`,
//! assuming zero overhead) inside the window `[t0, t0 + tc]` — each is a
//! busy container the request could have reused instead of cold starting.
//!
//! Paper shape: shrinking the cold-start overhead (Fig. 9) shrinks the
//! window and the counts, yet even at 0.25× ≈60% of requests keep >25
//! opportunities; scaling execution time (Fig. 10) shifts all completion
//! times uniformly and leaves the distribution essentially unchanged.

use std::collections::HashMap;

use faas_metrics::{Cdf, Table};
use faas_trace::{FunctionId, Trace};

use crate::ExpCtx;

/// Counts delayed-warm-start opportunities per request.
///
/// `cold_scale` scales the opportunity window; `exec_scale` scales all
/// completion times.
fn opportunity_counts(trace: &Trace, cold_scale: f64, exec_scale: f64) -> Vec<u64> {
    // Per function: sorted completion times (arrival + exec * scale).
    let mut completions: HashMap<FunctionId, Vec<u64>> = HashMap::new();
    for inv in trace.invocations() {
        completions
            .entry(inv.func)
            .or_default()
            .push(inv.arrival.as_micros() + inv.exec.scale(exec_scale).as_micros());
    }
    for list in completions.values_mut() {
        list.sort_unstable();
    }
    trace
        .invocations()
        .iter()
        .map(|inv| {
            let t0 = inv.arrival.as_micros();
            let tc = trace
                .function(inv.func)
                .expect("trace invariant")
                .cold_start
                .scale(cold_scale)
                .as_micros();
            let window_end = t0 + tc;
            let list = &completions[&inv.func];
            let lo = list.partition_point(|&t| t < t0);
            let hi = list.partition_point(|&t| t <= window_end);
            let mut count = (hi - lo) as u64;
            // Exclude the request's own completion if it falls in-window.
            let own = t0 + inv.exec.scale(exec_scale).as_micros();
            if own >= t0 && own <= window_end {
                count = count.saturating_sub(1);
            }
            count
        })
        .collect()
}

/// The §2.5 analysis runs on the *full* 30-minute Azure trace (Table 1:
/// ≈3.2M requests at 1795 rps), not the 330-function sample — the
/// opportunity counts of 25+ the paper reports need production-scale
/// per-function rates. Pure trace analytics, so the volume is cheap.
fn analysis_trace(ctx: &ExpCtx) -> faas_trace::Trace {
    let builder = faas_trace::gen::azure(ctx.seed)
        .zipf_exponent(1.2)
        .rate_per_function(3.0);
    if ctx.is_reduced() {
        builder.functions(120).minutes(5).build()
    } else {
        builder.functions(600).minutes(30).build()
    }
}

fn report(ctx: &ExpCtx, rows: Vec<(String, Vec<u64>)>, fig: &str) {
    let mut table = Table::new(["series", "p25", "p50", "p75", "frac >25 opportunities [%]"]);
    for (name, counts) in rows {
        let cdf: Cdf = counts.iter().map(|&c| c as f64).collect();
        table.row([
            name,
            format!("{:.0}", cdf.quantile(0.25)),
            format!("{:.0}", cdf.quantile(0.50)),
            format!("{:.0}", cdf.quantile(0.75)),
            format!("{:.1}", (1.0 - cdf.fraction_at_or_below(25.0)) * 100.0),
        ]);
    }
    crate::say!("{table}");
    ctx.save_csv(fig, &table);
}

/// Runs the Fig. 9 reproduction (varying cold-start overhead).
pub fn run_fig9(ctx: &ExpCtx) {
    crate::say!("== Fig. 9: opportunity space vs cold start overhead (Azure) ==");
    let trace = analysis_trace(ctx);
    let rows = [1.0, 0.75, 0.5, 0.25]
        .iter()
        .map(|&s| (format!("{s}x cold"), opportunity_counts(&trace, s, 1.0)))
        .collect();
    report(ctx, rows, "fig9");
}

/// Runs the Fig. 10 reproduction (varying execution time).
pub fn run_fig10(ctx: &ExpCtx) {
    crate::say!("== Fig. 10: opportunity space vs execution time (Azure) ==");
    let trace = analysis_trace(ctx);
    let rows = [1.0, 1.5, 2.0]
        .iter()
        .map(|&s| (format!("{s}x exec"), opportunity_counts(&trace, 1.0, s)))
        .collect();
    report(ctx, rows, "fig10");
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_trace::{FunctionProfile, Invocation, TimeDelta, TimePoint};

    fn mini_trace() -> Trace {
        let f = FunctionProfile::new(FunctionId(0), "f", 128, TimeDelta::from_millis(100));
        // r0 at 0 (exec 30 -> completes 30); r1 at 10 (exec 50 -> 60);
        // r2 at 20 (exec 200 -> 220, outside r0's window).
        let invs = vec![
            Invocation {
                func: FunctionId(0),
                arrival: TimePoint::ZERO,
                exec: TimeDelta::from_millis(30),
            },
            Invocation {
                func: FunctionId(0),
                arrival: TimePoint::from_millis(10),
                exec: TimeDelta::from_millis(50),
            },
            Invocation {
                func: FunctionId(0),
                arrival: TimePoint::from_millis(20),
                exec: TimeDelta::from_millis(200),
            },
        ];
        Trace::new(vec![f], invs).expect("valid")
    }

    #[test]
    fn counts_other_completions_in_window() {
        let counts = opportunity_counts(&mini_trace(), 1.0, 1.0);
        // r0 window [0,100]: completions 30 (own, excluded), 60 -> 1.
        assert_eq!(counts[0], 1);
        // r1 window [10,110]: completions 30, 60 (own, excluded) -> 1.
        assert_eq!(counts[1], 1);
        // r2 window [20,120]: completions 30, 60; own at 220 outside -> 2.
        assert_eq!(counts[2], 2);
    }

    #[test]
    fn smaller_cold_start_shrinks_opportunities() {
        let full: u64 = opportunity_counts(&mini_trace(), 1.0, 1.0).iter().sum();
        let quarter: u64 = opportunity_counts(&mini_trace(), 0.25, 1.0).iter().sum();
        assert!(quarter <= full);
    }

    #[test]
    fn generated_trace_exec_scaling_is_nearly_invariant() {
        let trace = faas_trace::gen::azure(5).functions(20).minutes(2).build();
        let base: u64 = opportunity_counts(&trace, 1.0, 1.0).iter().sum();
        let scaled: u64 = opportunity_counts(&trace, 1.0, 2.0).iter().sum();
        // The paper's Observation 3: execution scaling barely moves the
        // distribution (completions shift but the window census stays
        // similar). Allow 30% drift.
        let ratio = scaled as f64 / base.max(1) as f64;
        assert!((0.7..1.3).contains(&ratio), "ratio {ratio}");
    }
}
