//! Fig. 12: baseline comparison across cache sizes (80–160 GB).
//!
//! Paper shape: CIDRE and CIDRE_BSS beat all seven online baselines on
//! average overhead ratio at every cache size, with Offline best overall;
//! the invocation breakdown shows CIDRE/CIDRE_BSS converting the bulk of
//! FaasCache's and IceBreaker's cold starts into delayed warm starts
//! (e.g. 75.1% cold-ratio reduction vs FaasCache at 100 GB / Azure), with
//! CSS (CIDRE) wasting fewer cold starts than BSS.

use faas_metrics::Table;
use faas_sim::StartClass;

use crate::workloads::{run_policy_batch, MAIN_POLICIES};
use crate::{ExpCtx, Out, Workload};

/// Cache sizes swept by the paper, in GB.
pub const CACHE_SIZES_GB: &[u64] = &[80, 100, 120, 140, 160];

/// Breakdown subset shown in Figs. 12(b)/(d).
const BREAKDOWN_POLICIES: &[&str] = &["faascache", "icebreaker", "cidre-bss", "cidre"];

fn sweep(ctx: &ExpCtx, out: &mut Out, w: Workload) {
    let trace = ctx.trace(w);
    let mut overhead = Table::new(
        std::iter::once("policy".to_string())
            .chain(CACHE_SIZES_GB.iter().map(|gb| format!("{gb}GB [%]"))),
    );
    let mut breakdown = Table::new([
        "cache [GB]",
        "policy",
        "cold [%]",
        "delayed warm [%]",
        "warm [%]",
        "wasted cold starts",
    ]);

    let mut rows: Vec<Vec<String>> = MAIN_POLICIES.iter().map(|p| vec![p.to_string()]).collect();
    for &gb in CACHE_SIZES_GB {
        writeln!(out, "-- {} @ {gb} GB --", w.name());
        let config = ctx.sim_config(gb);
        let scenarios: Vec<(String, _)> = MAIN_POLICIES
            .iter()
            .map(|&p| (p.to_string(), config.clone()))
            .collect();
        let reports = run_policy_batch(ctx, out, &trace, &scenarios);
        for ((i, &policy), report) in MAIN_POLICIES.iter().enumerate().zip(&reports) {
            rows[i].push(format!("{:.1}", report.avg_overhead_ratio() * 100.0));
            if BREAKDOWN_POLICIES.contains(&policy) {
                breakdown.row([
                    format!("{gb}"),
                    policy.to_string(),
                    format!("{:.1}", report.ratio(StartClass::Cold) * 100.0),
                    format!("{:.1}", report.ratio(StartClass::DelayedWarm) * 100.0),
                    format!("{:.1}", report.ratio(StartClass::Warm) * 100.0),
                    format!("{}", report.wasted_cold_starts),
                ]);
            }
        }
    }
    for row in rows {
        overhead.row(row);
    }
    writeln!(out, "\nFig. 12 ({}) — average overhead ratio:", w.name());
    writeln!(out, "{overhead}");
    writeln!(out, "\nFig. 12 ({}) — invocation breakdown:", w.name());
    writeln!(out, "{breakdown}");
    ctx.save_csv(out, &format!("fig12_overhead_{}", w.name()), &overhead);
    ctx.save_csv(out, &format!("fig12_breakdown_{}", w.name()), &breakdown);
}

/// Runs the Fig. 12 reproduction (both workloads, all policies, all
/// cache sizes). This is the heaviest experiment in the suite.
pub fn run(ctx: &ExpCtx, out: &mut Out) {
    out.line("== Fig. 12: baseline comparison across cache sizes ==");
    sweep(ctx, out, Workload::Azure);
    sweep(ctx, out, Workload::Fc);
}
