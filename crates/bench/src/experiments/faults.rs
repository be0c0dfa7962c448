//! Failure-path experiment (beyond the paper): how do the CIDRE stacks
//! degrade as the substrate becomes unreliable?
//!
//! Sweeps a provision-failure rate (with correlated cold-start
//! stragglers and two scheduled worker crashes) across the headline
//! policies and reports the overhead ratio, start-class mix, and fault
//! counters. The fault schedule is a deterministic function of the
//! context seed and the failure rate, so the table and CSV are
//! byte-identical across runs — asserted by `tests/determinism.rs`.

use faas_metrics::Table;
use faas_sim::{FaultPlan, StartClass, WorkerId};
use faas_trace::{TimeDelta, TimePoint};

use crate::workloads::run_policy_batch;
use crate::{ExpCtx, Out, Workload};

/// The failure-rate sweep: from a healthy substrate to one where a
/// fifth of provisions time out.
pub const RATES: &[f64] = &[0.0, 0.05, 0.1, 0.2];

/// Policies under test: the strongest baseline plus both CIDRE stacks.
pub const POLICIES: &[&str] = &["faascache", "cidre-bss", "cidre"];

/// The deterministic fault schedule for one (seed, rate) cell: failures
/// at `rate`, stragglers at half that rate, and two worker crashes
/// partway through the run. A zero rate is the literal none-plan, so
/// the first sweep row doubles as a fault-free control.
pub fn plan_for(seed: u64, rate: f64) -> FaultPlan {
    if rate == 0.0 {
        return FaultPlan::none();
    }
    FaultPlan::none()
        .seed(seed ^ 0xfa117)
        .provision_failures(rate)
        .stragglers(rate / 2.0, 1.5, 20.0)
        .retry_backoff(TimeDelta::from_millis(100), TimeDelta::from_secs(5))
        .crash_worker(TimePoint::from_secs(30), WorkerId(0))
        .crash_worker(TimePoint::from_secs(60), WorkerId(1))
}

/// Runs the fault sweep.
pub fn run(ctx: &ExpCtx, out: &mut Out) {
    out.line("== Faults: policy degradation under injected failures (Azure) ==");
    let trace = ctx.trace(Workload::Azure);
    let scenarios: Vec<(String, _)> = RATES
        .iter()
        .flat_map(|&rate| {
            POLICIES.iter().map(move |p| {
                (
                    p.to_string(),
                    ctx.sim_config(100).faults(plan_for(ctx.seed, rate)),
                )
            })
        })
        .collect();
    let reports = run_policy_batch(ctx, out, &trace, &scenarios);

    let mut table = Table::new([
        "failure rate",
        "policy",
        "avg overhead ratio [%]",
        "cold [%]",
        "delayed warm [%]",
        "warm [%]",
        "provision failures",
        "crash evictions",
        "wasted cold starts",
    ]);
    let grid = RATES
        .iter()
        .flat_map(|&rate| POLICIES.iter().map(move |p| (rate, p)));
    for ((rate, policy), report) in grid.zip(&reports) {
        table.row([
            format!("{rate:.2}"),
            policy.to_string(),
            format!("{:.1}", report.avg_overhead_ratio() * 100.0),
            format!("{:.1}", report.ratio(StartClass::Cold) * 100.0),
            format!("{:.1}", report.ratio(StartClass::DelayedWarm) * 100.0),
            format!("{:.1}", report.ratio(StartClass::Warm) * 100.0),
            format!("{}", report.provision_failures),
            format!("{}", report.crash_evictions),
            format!("{}", report.wasted_cold_starts),
        ]);
    }
    writeln!(out, "{table}");
    ctx.save_csv(out, "faults", &table);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_is_the_none_plan() {
        assert!(plan_for(42, 0.0).is_none());
        assert!(!plan_for(42, 0.1).is_none());
    }

    #[test]
    fn plans_are_seed_and_rate_deterministic() {
        assert_eq!(plan_for(42, 0.1), plan_for(42, 0.1));
        assert_ne!(plan_for(42, 0.1), plan_for(43, 0.1));
        assert_ne!(plan_for(42, 0.1), plan_for(42, 0.2));
    }
}
