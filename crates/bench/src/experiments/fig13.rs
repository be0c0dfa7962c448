//! Fig. 13: invocation-overhead and end-to-end service-time CDFs at a
//! 100 GB cache.
//!
//! Paper shape: CIDRE's overhead CDF sits left of every online baseline
//! and approaches Offline; its median E2E service time (249.76 ms on
//! Azure) beats FaasCache's (342.23 ms) and CodeCrunch's (330.50 ms).

use faas_metrics::Table;

use crate::workloads::{run_policy_batch, MAIN_POLICIES};
use crate::{ExpCtx, Out, Workload};

fn cdfs(ctx: &ExpCtx, out: &mut Out, w: Workload) {
    let trace = ctx.trace(w);
    let config = ctx.sim_config(100);
    let scenarios: Vec<(String, _)> = MAIN_POLICIES
        .iter()
        .map(|&p| (p.to_string(), config.clone()))
        .collect();
    let reports = run_policy_batch(ctx, out, &trace, &scenarios);
    let mut table = Table::new([
        "policy",
        "overhead p50 [ms]",
        "overhead p90 [ms]",
        "overhead p99 [ms]",
        "e2e p50 [ms]",
        "e2e p90 [ms]",
    ]);
    for (&policy, report) in MAIN_POLICIES.iter().zip(&reports) {
        let wait = report.wait_cdf();
        let e2e = report.e2e_cdf();
        table.row([
            policy.to_string(),
            format!("{:.2}", wait.quantile(0.50)),
            format!("{:.2}", wait.quantile(0.90)),
            format!("{:.2}", wait.quantile(0.99)),
            format!("{:.2}", e2e.quantile(0.50)),
            format!("{:.2}", e2e.quantile(0.90)),
        ]);
    }
    writeln!(out, "\nFig. 13 ({}):", w.name());
    writeln!(out, "{table}");
    ctx.save_csv(out, &format!("fig13_{}", w.name()), &table);
}

/// Runs the Fig. 13 reproduction (both workloads).
pub fn run(ctx: &ExpCtx, out: &mut Out) {
    out.line("== Fig. 13: overhead and E2E service time CDFs @ 100 GB ==");
    cdfs(ctx, out, Workload::Azure);
    cdfs(ctx, out, Workload::Fc);
}
