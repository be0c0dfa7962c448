//! Custom sweep: any subset of policies across any cache sizes, driven
//! from the CLI. Not a paper artifact — a tool for exploring the space
//! the paper's Fig. 12 samples.
//!
//! ```text
//! experiments sweep                        # default policies and sizes
//! experiments sweep --policies cidre,faascache,lfu \
//!                   --caches-gb 60,90,120 --workload fc
//! ```
//!
//! The flags are carried on [`ExpCtx::sweep`]; one left out takes the
//! built-in default.

use faas_metrics::Table;
use faas_sim::StartClass;

use crate::workloads::{run_policy_batch, MAIN_POLICIES};
use crate::{ExpCtx, Out, Workload};

/// Splits a comma-separated list, trimming whitespace, dropping empty
/// entries, and de-duplicating while preserving first-occurrence order.
/// `"a, b,,a , c"` parses to `["a", "b", "c"]`.
pub fn parse_list(raw: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for entry in raw.split(',') {
        let entry = entry.trim();
        if !entry.is_empty() && !out.iter().any(|e| e == entry) {
            out.push(entry.to_string());
        }
    }
    out
}

/// Runs the custom sweep.
pub fn run(ctx: &ExpCtx, out: &mut Out) {
    let policies = ctx
        .sweep
        .policies
        .clone()
        .unwrap_or_else(|| vec!["faascache".into(), "cidre-bss".into(), "cidre".into()]);
    let caches = ctx
        .sweep
        .caches_gb
        .clone()
        .unwrap_or_else(|| vec![80, 100, 120]);
    let workload = ctx.sweep.workload.unwrap_or(Workload::Azure);
    writeln!(
        out,
        "== Custom sweep: {policies:?} x {caches:?} GB on {} ==",
        workload.name()
    );
    writeln!(
        out,
        "   (known policies: {MAIN_POLICIES:?} plus faascache-c, lfu, greedydual)"
    );

    let trace = ctx.trace(workload);
    let scenarios: Vec<(String, _)> = caches
        .iter()
        .flat_map(|&gb| {
            policies
                .iter()
                .map(move |p| (p.clone(), ctx.sim_config(gb)))
        })
        .collect();
    let reports = run_policy_batch(ctx, out, &trace, &scenarios);

    let mut table = Table::new([
        "cache [GB]",
        "policy",
        "avg overhead ratio [%]",
        "cold [%]",
        "delayed warm [%]",
        "warm [%]",
    ]);
    let grid = caches
        .iter()
        .flat_map(|&gb| policies.iter().map(move |p| (gb, p)));
    for ((gb, policy), report) in grid.zip(&reports) {
        table.row([
            format!("{gb}"),
            policy.clone(),
            format!("{:.1}", report.avg_overhead_ratio() * 100.0),
            format!("{:.1}", report.ratio(StartClass::Cold) * 100.0),
            format!("{:.1}", report.ratio(StartClass::DelayedWarm) * 100.0),
            format!("{:.1}", report.ratio(StartClass::Warm) * 100.0),
        ]);
    }
    writeln!(out, "{table}");
    ctx.save_csv(out, "sweep", &table);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_list_splits_and_trims() {
        assert_eq!(parse_list("a,b,c"), vec!["a", "b", "c"]);
        assert_eq!(parse_list("  a , b\t, c "), vec!["a", "b", "c"]);
    }

    #[test]
    fn parse_list_drops_empty_entries() {
        assert_eq!(parse_list(""), Vec::<String>::new());
        assert_eq!(parse_list("   "), Vec::<String>::new());
        assert_eq!(parse_list(",,,"), Vec::<String>::new());
        assert_eq!(parse_list("a,,b,"), vec!["a", "b"]);
        assert_eq!(parse_list(" , a ,  "), vec!["a"]);
    }

    #[test]
    fn parse_list_dedups_preserving_order() {
        assert_eq!(parse_list("b,a,b,c,a"), vec!["b", "a", "c"]);
        assert_eq!(parse_list("cidre, cidre ,cidre"), vec!["cidre"]);
    }
}
