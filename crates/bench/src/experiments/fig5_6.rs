//! Figs. 5 & 6: the reuse-busy vs cold-start tradeoff, quantified.
//!
//! Methodology (§2.4): a modified FaasCache routes every would-be cold
//! start to the busy warm container with the shortest queue instead. For
//! each such delayed warm start we record (a) the queueing latency it
//! actually paid and (b) the cold-start latency it would have paid.
//!
//! Paper shape: on Azure the two CDFs cross (at 464 ms; ≈69.4% of
//! requests see shorter queueing); on FC queueing essentially always
//! wins because executions are short relative to cold starts.

use faas_metrics::{AsciiChart, Cdf, Table};
use faas_sim::StartClass;
use faas_trace::Trace;

use crate::workloads::run_policy_stack;
use crate::{ExpCtx, Out, Workload};

fn tradeoff(ctx: &ExpCtx, out: &mut Out, w: Workload, fig: &str) {
    // The paper's Fig. 5 replays the 24-hour Azure trace (170 rps
    // average, Table 1) — roughly half the 30-minute sample's arrival
    // rate — so the Azure what-if runs at halved load; the FC what-if
    // uses its 30-minute trace directly.
    let trace = match w {
        Workload::Azure => faas_trace::transform::scale_iat(&ctx.trace(w), 2.0),
        Workload::Fc => ctx.trace(w),
    };
    let config = ctx.sim_config(100);
    let stack = faas_policies::faascache_queue_stack(None);
    let report = run_policy_stack(out, "faascache+queue", stack, &trace, &config);

    // Queueing latency actually experienced by delayed warm starts, and
    // the cold-start latency each would have paid instead.
    let queueing: Cdf = report
        .requests
        .iter()
        .filter(|r| r.class == StartClass::DelayedWarm)
        .map(|r| r.wait.as_millis_f64())
        .collect();
    let cold: Cdf = report
        .requests
        .iter()
        .filter(|r| r.class == StartClass::DelayedWarm)
        .map(|r| counterfactual_cold(&trace, r.func))
        .collect();

    let crossover = queueing.crossover_with(&cold, 10_000);
    let frac_better = match crossover {
        Some(x) => queueing.fraction_at_or_below(x),
        None => {
            // No crossing: one curve dominates; report the fraction of
            // queueing delays below the median cold start.
            queueing.fraction_at_or_below(cold.quantile(0.5))
        }
    };

    let mut table = Table::new(["series", "p50 [ms]", "p90 [ms]", "p99 [ms]"]);
    for (name, cdf) in [
        ("queuing latency", &queueing),
        ("cold start latency", &cold),
    ] {
        if cdf.is_empty() {
            table.row([name.to_string(), "-".into(), "-".into(), "-".into()]);
            continue;
        }
        table.row([
            name.to_string(),
            format!("{:.1}", cdf.quantile(0.50)),
            format!("{:.1}", cdf.quantile(0.90)),
            format!("{:.1}", cdf.quantile(0.99)),
        ]);
    }
    writeln!(out, "{table}");
    match crossover {
        Some(x) => writeln!(
            out,
            "  CDFs cross at {x:.0} ms; {:.1}% of queueing delays fall below the crossover",
            frac_better * 100.0
        ),
        None => writeln!(
            out,
            "  no crossover: queueing dominates ({:.1}% of queueing delays below the median cold start)",
            frac_better * 100.0
        ),
    }
    let mut chart = AsciiChart::new(60, 12);
    chart.cdf("queuing", &queueing, 60);
    chart.cdf("cold", &cold, 60);
    writeln!(out, "{chart}");
    ctx.save_csv(out, fig, &table);
}

fn counterfactual_cold(trace: &Trace, func: faas_trace::FunctionId) -> f64 {
    trace
        .function(func)
        .expect("trace invariant")
        .cold_start
        .as_millis_f64()
}

/// Runs the Fig. 5 reproduction (Azure).
pub fn run_fig5(ctx: &ExpCtx, out: &mut Out) {
    out.line("== Fig. 5: queueing vs cold start tradeoff (Azure) ==");
    tradeoff(ctx, out, Workload::Azure, "fig5");
}

/// Runs the Fig. 6 reproduction (FC).
pub fn run_fig6(ctx: &ExpCtx, out: &mut Out) {
    out.line("== Fig. 6: queueing vs cold start tradeoff (FC) ==");
    tradeoff(ctx, out, Workload::Fc, "fig6");
}
