//! Latency-vs-overhead Pareto sweep (beyond the paper): what does each
//! policy's latency win *cost* in memory residency?
//!
//! Replays one workload under a grid of policies — including a TTL
//! keep-warm-aggressiveness axis (`ttl@5s` … `ttl@600s`) — crossed
//! with fault plans, and emits one row per cell with the latency
//! objective (average overhead ratio), the cost ledger broken out by
//! charge class (DESIGN.md §11), the GB-seconds-per-request bill, the
//! scheduling-work counters, and a `frontier` flag marking the
//! non-dominated points of each fault-plan group. Everything is a
//! deterministic function of the context seed, so the table and CSV
//! are byte-identical across runs and `--jobs` — asserted by
//! `tests/determinism.rs`.

use faas_metrics::{pareto_frontier, ParetoPoint, Table};
use faas_sim::StartClass;

use crate::experiments::faults::plan_for;
use crate::workloads::run_policy_batch;
use crate::{ExpCtx, Workload};

/// Fault plans crossed with the policy grid: a healthy substrate and a
/// faulty one (same schedule as the `faults` sweep at rate 0.1).
const FAULT_RATES: &[f64] = &[0.0, 0.1];

/// The policy grid: the TTL aggressiveness axis, the headline
/// baselines, and both CIDRE stacks.
const POLICIES: &[&str] = &[
    "ttl@5s",
    "ttl@30s",
    "ttl@600s",
    "lru",
    "faascache",
    "rainbowcake",
    "cidre-bss",
    "cidre",
];

/// Runs the Pareto sweep.
pub fn run(ctx: &ExpCtx) {
    crate::say!("== Pareto: latency vs memory-residency cost per policy (Azure) ==");
    let trace = ctx.trace(Workload::Azure);
    let scenarios: Vec<(String, _)> = FAULT_RATES
        .iter()
        .flat_map(|&rate| {
            POLICIES.iter().map(move |p| {
                (
                    p.to_string(),
                    // 240 GB paper-scale: enough headroom that expiry
                    // choices (not REPLACE pressure) decide the resident
                    // set, making the TTL axis a real trade-off.
                    ctx.sim_config(240).faults(plan_for(ctx.seed, rate)),
                )
            })
        })
        .collect();
    let reports = run_policy_batch(ctx, &trace, &scenarios);

    // Frontier membership is judged within each fault-plan group: a
    // policy should only be compared against peers facing the same
    // failure schedule.
    let mut frontier = Vec::with_capacity(reports.len());
    for group in reports.chunks(POLICIES.len()) {
        let points: Vec<ParetoPoint> = group
            .iter()
            .zip(POLICIES)
            .map(|(r, p)| ParetoPoint {
                label: (*p).to_string(),
                latency: r.avg_overhead_ratio(),
                cost: r.gb_s_per_request(),
            })
            .collect();
        frontier.extend(pareto_frontier(&points));
    }

    let mut table = Table::new([
        "failure rate",
        "policy",
        "avg overhead ratio [%]",
        "cold [%]",
        "warm [%]",
        "keep-warm [GB-s]",
        "idle [GB-s]",
        "cold-start [GB-s]",
        "speculative [GB-s]",
        "GB-s/request",
        "dispatches",
        "replace rounds",
        "frontier",
    ]);
    let grid = FAULT_RATES
        .iter()
        .flat_map(|&rate| POLICIES.iter().map(move |p| (rate, p)));
    for (((rate, policy), report), on_frontier) in grid.zip(&reports).zip(&frontier) {
        let ledger = &report.ledger;
        table.row([
            format!("{rate:.2}"),
            policy.to_string(),
            format!("{:.2}", report.avg_overhead_ratio() * 100.0),
            format!("{:.1}", report.ratio(StartClass::Cold) * 100.0),
            format!("{:.1}", report.ratio(StartClass::Warm) * 100.0),
            format!("{:.3}", ledger.keep_warm_gb_s()),
            format!("{:.3}", ledger.idle_gb_s()),
            format!("{:.3}", ledger.cold_start_gb_s()),
            format!("{:.3}", ledger.speculative_gb_s()),
            format!("{:.6}", report.gb_s_per_request()),
            format!("{}", ledger.dispatches),
            format!("{}", ledger.replace_rounds),
            if *on_frontier { "yes" } else { "no" }.to_string(),
        ]);
    }
    crate::say!("{table}");
    ctx.save_csv("pareto", &table);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_fault_major_policy_minor() {
        // The frontier chunking above relies on the scenario grid
        // iterating policies within each fault rate.
        let labels: Vec<(f64, &str)> = FAULT_RATES
            .iter()
            .flat_map(|&rate| POLICIES.iter().map(move |&p| (rate, p)))
            .collect();
        assert_eq!(labels.len(), FAULT_RATES.len() * POLICIES.len());
        assert_eq!(labels[0], (0.0, "ttl@5s"));
        assert_eq!(labels[POLICIES.len()], (0.1, "ttl@5s"));
    }

    #[test]
    fn ttl_axis_names_resolve() {
        let trace = faas_trace::gen::azure(1).functions(3).minutes(1).build();
        for name in POLICIES {
            let stack = crate::workloads::stack_by_name(name, &trace);
            assert!(!stack.label().is_empty());
        }
    }
}
