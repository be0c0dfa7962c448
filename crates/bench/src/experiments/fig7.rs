//! Fig. 7: impact of busy-container queue length L ∈ {0, 1, 2}.
//!
//! Paper shape: L=1 reduces the average overhead ratio vs vanilla
//! FaasCache (52.7% → 47.8%); L=2 over-queues and is worse than both
//! (70.5%). Warm starts drop with L while delayed warm starts grow.

use faas_metrics::Table;
use faas_policies::faascache_queue_stack;
use faas_sim::StartClass;

use crate::workloads::run_policy_stack;
use crate::{ExpCtx, Out, Workload};

/// Runs the Fig. 7 reproduction.
pub fn run(ctx: &ExpCtx, out: &mut Out) {
    out.line("== Fig. 7: busy-container queue length sweep (Azure) ==");
    // Like Fig. 5, the paper's queue-length what-if replays the 24-hour
    // Azure trace (≈170 rps, Table 1) — modelled as the 30-minute sample
    // at halved load.
    let trace = faas_trace::transform::scale_iat(&ctx.trace(Workload::Azure), 2.0);
    let config = ctx.sim_config(100);
    let mut table = Table::new([
        "L",
        "avg overhead ratio [%]",
        "warm start [%]",
        "delayed warm start [%]",
        "cold start [%]",
    ]);
    for l in [0usize, 1, 2] {
        let label = format!("queue L={l}");
        let report = run_policy_stack(out, &label, faascache_queue_stack(Some(l)), &trace, &config);
        table.row([
            format!("{l}{}", if l == 0 { " (FaasCache)" } else { "" }),
            format!("{:.1}", report.avg_overhead_ratio() * 100.0),
            format!("{:.1}", report.ratio(StartClass::Warm) * 100.0),
            format!("{:.1}", report.ratio(StartClass::DelayedWarm) * 100.0),
            format!("{:.1}", report.ratio(StartClass::Cold) * 100.0),
        ]);
    }
    writeln!(out, "{table}");
    ctx.save_csv(out, "fig7", &table);
}
