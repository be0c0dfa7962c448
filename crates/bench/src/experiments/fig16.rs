//! Fig. 16: concurrency-driven scaling — memory usage vs load.
//!
//! The paper equates memory usage with "the number of containers
//! created", which is the comparable quantity in a demand-filled cache
//! (the cache itself sits at capacity for every policy under load).
//!
//! Paper shape: container creation grows with the concurrency level for
//! all systems; CIDRE needs the fewest containers at the highest level
//! (up to 22% less than FaasCache) because CSS suppresses thrashing cold
//! starts; RainbowCake is lean at low concurrency (layer sharing) but
//! loses that edge as concurrency exhausts shareable layers; CIDRE's
//! cold ratio stays below FaasCache's and CIDRE_BSS's.

use faas_metrics::Table;
use faas_sim::StartClass;
use faas_trace::transform;

use crate::workloads::run_policy;
use crate::{ExpCtx, Out, Workload};

/// Invocation-weighted mean container size in GB, for converting
/// container counts into provisioned gigabytes.
fn avg_container_gb(trace: &faas_trace::Trace) -> f64 {
    if trace.is_empty() {
        return 0.0;
    }
    let total_mb: f64 = trace
        .invocations()
        .iter()
        .map(|inv| trace.function(inv.func).expect("profile").mem_mb as f64)
        .sum();
    total_mb / trace.len() as f64 / 1024.0
}

/// IAT compression factors producing the rising concurrency levels.
const LOAD_FACTORS: &[f64] = &[1.0, 0.75, 0.5, 0.375, 0.25];

/// Runs the Fig. 16 reproduction.
pub fn run(ctx: &ExpCtx, out: &mut Out) {
    out.line("== Fig. 16: concurrency-driven scaling (FC, 100 GB) ==");
    let base = ctx.trace(Workload::Fc);
    let config = ctx.sim_config(100);
    let mut table = Table::new([
        "IAT factor",
        "avg RPS",
        "policy",
        "containers created",
        "container-GB provisioned",
        "cold [%]",
        "delayed warm [%]",
    ]);
    for &factor in LOAD_FACTORS {
        let trace = transform::scale_iat(&base, factor);
        let rps = trace.len() as f64 / trace.duration().as_secs_f64().max(1.0);
        writeln!(out, "-- IAT x{factor} (≈{rps:.0} rps) --");
        for policy in ["faascache", "rainbowcake", "cidre-bss", "cidre"] {
            let report = run_policy(out, policy, &trace, &config);
            let provisioned_gb = report.containers_created as f64 * avg_container_gb(&trace);
            table.row([
                format!("{factor}"),
                format!("{rps:.0}"),
                policy.to_string(),
                format!("{}", report.containers_created),
                format!("{provisioned_gb:.1}"),
                format!("{:.1}", report.ratio(StartClass::Cold) * 100.0),
                format!("{:.1}", report.ratio(StartClass::DelayedWarm) * 100.0),
            ]);
        }
    }
    writeln!(out, "{table}");
    ctx.save_csv(out, "fig16", &table);
}
