//! Extra: the §2.6 execution-time variance analysis.
//!
//! The paper motivates CIDRE's prediction-free speculative design by
//! measuring that most functions have marginally high execution-time
//! variance: 68% of Azure functions and 59% of FC functions have a
//! coefficient of variation of at least 25%, making historical
//! prediction of delayed-warm-start costs error-prone.

use faas_metrics::Table;
use faas_trace::stats::fraction_high_variance;

use crate::{ExpCtx, Out, Workload};

/// Runs the §2.6 variance analysis.
pub fn run(ctx: &ExpCtx, out: &mut Out) {
    out.line("== Extra (§2.6): execution-time variance across functions ==");
    let mut table = Table::new(["trace", "functions with CV >= 25% [%]", "paper [%]"]);
    for (w, paper) in [(Workload::Azure, 68.0), (Workload::Fc, 59.0)] {
        let trace = ctx.trace(w);
        let frac = fraction_high_variance(&trace, 0.25) * 100.0;
        table.row([
            w.name().to_string(),
            format!("{frac:.0}"),
            format!("{paper:.0}"),
        ]);
    }
    writeln!(out, "{table}");
    out.line("  (the generators draw per-invocation times lognormally with sigma = 0.25)");
    ctx.save_csv(out, "extra_variance", &table);
}
