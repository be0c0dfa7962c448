//! Table 1: production workload statistics.
//!
//! Paper rows: 24h Azure Functions (14.7M requests, 170 rps avg),
//! 30m Azure Functions (3.2M full / 598k sampled), 30m FC (2.7M full /
//! 410k sampled). We report the synthetic stand-ins at experiment scale:
//! the row shapes to check are (a) FC burstier than Azure (max/avg Rps
//! ratio), and (b) GBps tracking Rps with the ≈0.45 GB/request memory
//! mix.

use faas_metrics::Table;
use faas_trace::stats::TraceStats;
use faas_trace::{gen, Trace};

use crate::{ExpCtx, Out, Workload};

fn row(table: &mut Table, name: &str, trace: &Trace) {
    let s = TraceStats::compute(trace);
    table.row([
        name.to_string(),
        format!("{}", s.invocations),
        format!("{}", s.functions),
        format!("{:.0} / {:.0} / {:.0}", s.rps_avg, s.rps_min, s.rps_max),
        format!("{:.1} / {:.1} / {:.1}", s.gbps_avg, s.gbps_min, s.gbps_max),
    ]);
}

/// Runs the Table 1 reproduction.
pub fn run(ctx: &ExpCtx, out: &mut Out) {
    out.line("== Table 1: workload statistics ==");
    let mut table = Table::new([
        "trace",
        "# invoke reqs",
        "# funcs",
        "Rps (avg/min/max)",
        "GBps (avg/min/max)",
    ]);

    // The 24-hour Azure sample the motivation study uses. Quick mode
    // trims it to one hour — same generator, same per-minute shape.
    let daily = if ctx.is_reduced() {
        gen::azure_daily(ctx.seed)
            .functions(120)
            .minutes(60)
            .build()
    } else {
        // 24 h at full scale is ~14.7M invocations; generate 4 h which
        // preserves every reported rate statistic at tractable memory.
        gen::azure_daily(ctx.seed).minutes(4 * 60).build()
    };
    row(&mut table, "24h-shape AF", &daily);
    row(&mut table, "30m AF", &ctx.trace(Workload::Azure));
    row(&mut table, "30m FC", &ctx.trace(Workload::Fc));

    writeln!(out, "{table}");
    ctx.save_csv(out, "table1", &table);
}
