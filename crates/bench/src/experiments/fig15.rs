//! Fig. 15: ablation of CIDRE's techniques at a 100 GB cache (Azure).
//!
//! Configurations, as in §5.3: vanilla FaasCache (44.8% in the paper),
//! CIP alone (43.2%), BSS alone (33.6%), CSS alone (29.4%), and the full
//! CIDRE (27.6%). Shape to hold: FC > CIP > BSS > CSS > CIDRE — eviction
//! alone helps a little, speculation helps a lot, the conditional variant
//! helps more, and the combination is best.

use cidre_core::{cidre_stack, cip_only_stack, BssScaler, CidreConfig, CssScaler};
use faas_metrics::Table;
use faas_policies::{faascache_stack, GdsfKeepAlive};
use faas_sim::PolicyStack;

use crate::workloads::run_policy_stack;
use crate::{ExpCtx, Out, Workload};

fn variants() -> Vec<(&'static str, PolicyStack)> {
    vec![
        ("FC (FaasCache)", faascache_stack()),
        ("CIP alone", cip_only_stack()),
        (
            "BSS alone",
            PolicyStack::new(Box::new(GdsfKeepAlive::faascache()), Box::new(BssScaler)),
        ),
        (
            "CSS alone",
            PolicyStack::new(
                Box::new(GdsfKeepAlive::faascache()),
                Box::new(CssScaler::new(CidreConfig::default())),
            ),
        ),
        ("CIDRE (CIP+CSS)", cidre_stack(CidreConfig::default())),
    ]
}

/// Runs the Fig. 15 ablation.
pub fn run(ctx: &ExpCtx, out: &mut Out) {
    out.line("== Fig. 15: ablation study (Azure, 100 GB) ==");
    let trace = ctx.trace(Workload::Azure);
    let config = ctx.sim_config(100);
    let mut table = Table::new(["configuration", "avg overhead ratio [%]"]);
    for (label, stack) in variants() {
        let report = run_policy_stack(out, label, stack, &trace, &config);
        table.row([
            label.to_string(),
            format!("{:.1}", report.avg_overhead_ratio() * 100.0),
        ]);
    }
    writeln!(out, "{table}");
    ctx.save_csv(out, "fig15", &table);
}
