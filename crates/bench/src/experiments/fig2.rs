//! Fig. 2: CDF of cold-start latency to execution time ratios.
//!
//! Paper shape: with the 1–3 ms/MB estimates on Azure and the measured FC
//! cold starts, a large fraction of requests (40.4% on FC) have a ratio
//! above 1 — cold starts rival or dwarf execution.

use faas_metrics::{AsciiChart, Cdf, Table};
use faas_trace::stats::cold_exec_ratio_cdf;

use crate::{ExpCtx, Out, Workload};

/// Runs the Fig. 2 reproduction.
pub fn run(ctx: &ExpCtx, out: &mut Out) {
    out.line("== Fig. 2: cold start latency / execution time CDFs ==");
    let azure = ctx.trace(Workload::Azure);
    let fc = ctx.trace(Workload::Fc);

    // The Azure generator bakes in 1.5 ms/MB; rescale to the paper's
    // f = 1, 2, 3 ms/MB estimates.
    let series: Vec<(String, Cdf)> = [1.0, 2.0, 3.0]
        .iter()
        .map(|f| (format!("azure f={f}"), cold_exec_ratio_cdf(&azure, f / 1.5)))
        .chain(std::iter::once((
            "fc".to_string(),
            cold_exec_ratio_cdf(&fc, 1.0),
        )))
        .collect();

    let mut table = Table::new(["series", "p10", "p50", "p90", "frac ratio>1"]);
    let mut chart = AsciiChart::new(60, 12);
    for (name, cdf) in &series {
        table.row([
            name.clone(),
            format!("{:.3}", cdf.quantile(0.10)),
            format!("{:.3}", cdf.quantile(0.50)),
            format!("{:.3}", cdf.quantile(0.90)),
            format!("{:.1}%", (1.0 - cdf.fraction_at_or_below(1.0)) * 100.0),
        ]);
        // Plot in log10(ratio) space like the paper's log axis.
        let pts: Vec<(f64, f64)> = cdf
            .plot_points(60)
            .into_iter()
            .filter(|&(x, _)| x > 0.0)
            .map(|(x, y)| (x.log10(), y))
            .collect();
        chart.series(name.clone(), pts);
    }
    writeln!(out, "{table}");
    writeln!(out, "{chart}");
    ctx.save_csv(out, "fig2", &table);
}
