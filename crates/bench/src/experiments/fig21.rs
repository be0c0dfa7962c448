//! Fig. 21: sensitivity to the number of intra-container threads.
//!
//! Paper shape: more threads per container lower the overhead ratio for
//! both systems (FaasCache 44.6 → 12.4%, CIDRE 27.5 → 6.2% from 1 to 8
//! threads), and CIDRE stays below FaasCache at every thread count
//! because residual blocked requests still become delayed warm starts.

use faas_metrics::Table;
use faas_sim::StartClass;

use crate::workloads::run_policy;
use crate::{ExpCtx, Out, Workload};

/// Runs the Fig. 21 reproduction.
pub fn run(ctx: &ExpCtx, out: &mut Out) {
    out.line("== Fig. 21: intra-container threads (Azure, 100 GB) ==");
    let trace = ctx.trace(Workload::Azure);
    let mut table = Table::new([
        "threads",
        "policy",
        "avg overhead ratio [%]",
        "cold [%]",
        "warm [%]",
    ]);
    for threads in [1u32, 2, 4, 8] {
        let config = ctx.sim_config(100).container_threads(threads);
        writeln!(out, "-- {threads} thread(s) --");
        for policy in ["faascache", "cidre"] {
            let report = run_policy(out, policy, &trace, &config);
            table.row([
                format!("{threads}"),
                policy.to_string(),
                format!("{:.1}", report.avg_overhead_ratio() * 100.0),
                format!("{:.1}", report.ratio(StartClass::Cold) * 100.0),
                format!("{:.1}", report.ratio(StartClass::Warm) * 100.0),
            ]);
        }
    }
    writeln!(out, "{table}");
    ctx.save_csv(out, "fig21", &table);
}
