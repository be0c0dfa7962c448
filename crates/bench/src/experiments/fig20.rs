//! Fig. 20 & Table 2: sensitivity to execution-time scaling.
//!
//! Paper shape (Fig. 20): absolute average overhead grows with execution
//! time for everyone; CIDRE (73/90/107 ms) stays well under FaasCache
//! (162/178/194 ms) and LRU (155/171/193 ms). Table 2: cold ratios grow
//! with execution time; ≈70% of CIDRE's non-warm starts execute as
//! delayed warm starts at every scale.

use faas_metrics::Table;
use faas_sim::StartClass;
use faas_trace::transform;

use crate::workloads::run_policy;
use crate::{ExpCtx, Out, Workload};

/// Runs the Fig. 20 + Table 2 reproduction.
pub fn run(ctx: &ExpCtx, out: &mut Out) {
    out.line("== Fig. 20 / Table 2: execution time scaling (Azure, 100 GB) ==");
    let base = ctx.trace(Workload::Azure);
    let config = ctx.sim_config(100);
    let mut fig = Table::new(["exec scale", "policy", "avg overhead [ms]"]);
    let mut tab2 = Table::new([
        "policy",
        "exec scale",
        "CR (cold) [%]",
        "WR (warm) [%]",
        "DR (delayed) [%]",
        "delayed share of non-warm [%]",
    ]);
    for &scale in &[1.0, 1.5, 2.0] {
        let trace = transform::scale_exec(&base, scale);
        writeln!(out, "-- exec x{scale} --");
        for policy in ["cidre", "faascache", "lru"] {
            let report = run_policy(out, policy, &trace, &config);
            fig.row([
                format!("{scale}x"),
                policy.to_string(),
                format!("{:.1}", report.wait_summary().mean()),
            ]);
            let cold = report.ratio(StartClass::Cold) * 100.0;
            let warm = report.ratio(StartClass::Warm) * 100.0;
            let delayed = report.ratio(StartClass::DelayedWarm) * 100.0;
            let non_warm = cold + delayed;
            tab2.row([
                policy.to_string(),
                format!("{scale}x"),
                format!("{cold:.1}"),
                format!("{warm:.1}"),
                if delayed > 0.0 {
                    format!("{delayed:.1}")
                } else {
                    "N/A".to_string()
                },
                if non_warm > 0.0 {
                    format!("{:.1}", delayed / non_warm * 100.0)
                } else {
                    "-".to_string()
                },
            ]);
        }
    }
    out.line("\nFig. 20 — average invocation overhead:");
    writeln!(out, "{fig}");
    out.line("\nTable 2 — invocation breakdown:");
    writeln!(out, "{tab2}");
    ctx.save_csv(out, "fig20", &fig);
    ctx.save_csv(out, "table2", &tab2);
}
