//! Fig. 18: sensitivity to the historical-data sliding window.
//!
//! Paper shape: all-history is best (27.5%); 5-minute windows lose a
//! little (28.6%); 10/15-minute windows sit in between (27.9% / 27.6%) —
//! the differences are small, which is the point (the 15-minute default
//! is a cheap, near-optimal choice).

use cidre_core::{cidre_stack, CidreConfig};
use faas_metrics::Table;
use faas_trace::TimeDelta;

use crate::workloads::run_policy_stack;
use crate::{ExpCtx, Out, Workload};

/// Runs the Fig. 18 reproduction.
pub fn run(ctx: &ExpCtx, out: &mut Out) {
    out.line("== Fig. 18: sliding window sensitivity (Azure, 100 GB) ==");
    let trace = ctx.trace(Workload::Azure);
    let config = ctx.sim_config(100);
    let mut table = Table::new(["window", "avg overhead ratio [%]"]);
    let windows: Vec<(&str, Option<TimeDelta>)> = vec![
        ("all history", None),
        ("5 min", Some(TimeDelta::from_minutes(5))),
        ("10 min", Some(TimeDelta::from_minutes(10))),
        ("15 min (default)", Some(TimeDelta::from_minutes(15))),
    ];
    for (label, window) in windows {
        let stack = cidre_stack(CidreConfig::default().window(window));
        let report = run_policy_stack(out, &format!("cidre w={label}"), stack, &trace, &config);
        table.row([
            label.to_string(),
            format!("{:.1}", report.avg_overhead_ratio() * 100.0),
        ]);
    }
    writeln!(out, "{table}");
    ctx.save_csv(out, "fig18", &table);
}
