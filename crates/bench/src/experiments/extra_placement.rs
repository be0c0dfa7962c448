//! Extra (beyond the paper): worker-placement ablation.
//!
//! The paper's OpenLambda deployment dispatches to workers with a fixed
//! scheduler; our simulator makes the placement strategy explicit
//! (`SimConfig::placement`). This ablation quantifies how much the
//! choice matters for a keep-alive policy: packing placements (FirstFit)
//! concentrate eviction pressure on one worker's cache, while balanced
//! placements (MaxFree) spread it; RoundRobin sits between.

use faas_metrics::Table;
use faas_policies::faascache_stack;
use faas_sim::{Placement, StartClass};

use cidre_core::{cidre_stack, CidreConfig};

use crate::workloads::run_policy_stack;
use crate::{ExpCtx, Out, Workload};

/// Runs the placement ablation.
pub fn run(ctx: &ExpCtx, out: &mut Out) {
    out.line("== Extra: worker-placement ablation (Azure, 100 GB) ==");
    let trace = ctx.trace(Workload::Azure);
    let mut table = Table::new([
        "placement",
        "policy",
        "avg overhead ratio [%]",
        "cold [%]",
        "evictions",
    ]);
    for placement in [
        Placement::MaxFree,
        Placement::RoundRobin,
        Placement::FirstFit,
    ] {
        let config = ctx.sim_config(100).placement(placement);
        for (name, stack) in [
            ("faascache", faascache_stack()),
            ("cidre", cidre_stack(CidreConfig::default())),
        ] {
            let label = format!("{name}/{placement:?}");
            let report = run_policy_stack(out, &label, stack, &trace, &config);
            table.row([
                format!("{placement:?}"),
                name.to_string(),
                format!("{:.1}", report.avg_overhead_ratio() * 100.0),
                format!("{:.1}", report.ratio(StartClass::Cold) * 100.0),
                format!("{}", report.containers_evicted),
            ]);
        }
    }
    writeln!(out, "{table}");
    ctx.save_csv(out, "extra_placement", &table);
}
