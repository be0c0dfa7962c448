//! Fig. 19: sensitivity to inter-arrival-time (load) scaling.
//!
//! Paper shape: as load rises (IAT 2× → 0.5×), overheads grow and warm
//! ratios fall for everyone (CIDRE: 60.4% → 39.5% → 15.0% warm), but
//! CIDRE stays ahead of FaasCache and CIDRE_BSS at every level.

use faas_metrics::Table;
use faas_sim::StartClass;
use faas_trace::transform;

use crate::workloads::run_policy;
use crate::{ExpCtx, Out, Workload};

/// Runs the Fig. 19 reproduction.
pub fn run(ctx: &ExpCtx, out: &mut Out) {
    out.line("== Fig. 19: IAT scaling (Azure, 100 GB) ==");
    let base = ctx.trace(Workload::Azure);
    let config = ctx.sim_config(100);
    let mut table = Table::new([
        "IAT",
        "policy",
        "warm [%]",
        "overhead p50 [ms]",
        "overhead p90 [ms]",
        "avg overhead ratio [%]",
    ]);
    for &factor in &[2.0, 1.0, 0.5] {
        let trace = transform::scale_iat(&base, factor);
        writeln!(out, "-- IAT x{factor} --");
        for policy in ["faascache", "cidre-bss", "cidre"] {
            let report = run_policy(out, policy, &trace, &config);
            let wait = report.wait_cdf();
            table.row([
                format!("{factor}x"),
                policy.to_string(),
                format!("{:.1}", report.ratio(StartClass::Warm) * 100.0),
                format!("{:.2}", wait.quantile(0.50)),
                format!("{:.2}", wait.quantile(0.90)),
                format!("{:.1}", report.avg_overhead_ratio() * 100.0),
            ]);
        }
    }
    writeln!(out, "{table}");
    ctx.save_csv(out, "fig19", &table);
}
