//! Fig. 3: function concurrency CDFs (requests per minute per function).
//!
//! Paper shape: heavy-tailed; FC's {90th, 99th} percentile per-minute
//! concurrency is {120, 4482} and exceeds Azure's across the tail.

use faas_metrics::{AsciiChart, Table};
use faas_trace::stats::concurrency_cdf;

use crate::{ExpCtx, Out, Workload};

/// Runs the Fig. 3 reproduction.
pub fn run(ctx: &ExpCtx, out: &mut Out) {
    out.line("== Fig. 3: function concurrency CDFs [peak reqs/min per function] ==");
    let mut table = Table::new(["trace", "p50", "p90", "p99", "max"]);
    let mut chart = AsciiChart::new(60, 12);
    for w in [Workload::Azure, Workload::Fc] {
        let cdf = concurrency_cdf(&ctx.trace(w));
        table.row([
            w.name().to_string(),
            format!("{:.0}", cdf.quantile(0.50)),
            format!("{:.0}", cdf.quantile(0.90)),
            format!("{:.0}", cdf.quantile(0.99)),
            format!("{:.0}", cdf.max().unwrap_or(0.0)),
        ]);
        let pts: Vec<(f64, f64)> = cdf
            .plot_points(80)
            .into_iter()
            .filter(|&(x, _)| x >= 1.0)
            .map(|(x, y)| (x.log10(), y))
            .collect();
        chart.series(w.name(), pts);
    }
    writeln!(out, "{table}");
    writeln!(out, "{chart}");
    ctx.save_csv(out, "fig3", &table);
}
