//! Fig. 8: concurrency-aware eviction (FaasCache vs FaasCache-C).
//!
//! Paper shape: adding the `1/K` warm-container term to GDSF (Eq. 2)
//! reduces the average overhead ratio (52.7% → 46.5%, an 11.8% relative
//! cut) and raises the warm-start ratio by ≈9%, because evictions spread
//! across functions instead of wiping one function's whole pool.

use faas_metrics::Table;
use faas_sim::StartClass;

use crate::workloads::run_policy;
use crate::{ExpCtx, Out, Workload};

/// Runs the Fig. 8 reproduction.
pub fn run(ctx: &ExpCtx, out: &mut Out) {
    out.line("== Fig. 8: FaasCache vs FaasCache-C (Azure) ==");
    let trace = ctx.trace(Workload::Azure);
    let config = ctx.sim_config(100);
    let mut table = Table::new(["policy", "avg overhead ratio [%]", "warm start [%]"]);
    for name in ["faascache", "faascache-c"] {
        let report = run_policy(out, name, &trace, &config);
        table.row([
            name.to_string(),
            format!("{:.1}", report.avg_overhead_ratio() * 100.0),
            format!("{:.1}", report.ratio(StartClass::Warm) * 100.0),
        ]);
    }
    writeln!(out, "{table}");
    ctx.save_csv(out, "fig8", &table);
}
