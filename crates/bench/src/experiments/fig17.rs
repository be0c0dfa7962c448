//! Fig. 17: sensitivity to the execution-time threshold estimator `Te`.
//!
//! Paper shape: CIDRE_BSS is worst (31.7%); all CSS estimators beat it;
//! the median (50th percentile) is best (27.6%), with the mean and p75
//! in between and p25 slightly aggressive.

use cidre_core::{cidre_bss_stack, cidre_stack, CidreConfig, TeEstimator};
use faas_metrics::Table;

use crate::workloads::run_policy_stack;
use crate::{ExpCtx, Out, Workload};

/// Runs the Fig. 17 reproduction.
pub fn run(ctx: &ExpCtx, out: &mut Out) {
    out.line("== Fig. 17: Te estimator sensitivity (Azure, 100 GB) ==");
    let trace = ctx.trace(Workload::Azure);
    let config = ctx.sim_config(100);
    let mut table = Table::new(["Te estimator", "avg overhead ratio [%]"]);

    let bss = run_policy_stack(out, "cidre-bss", cidre_bss_stack(), &trace, &config);
    table.row([
        "CIDRE_BSS".to_string(),
        format!("{:.1}", bss.avg_overhead_ratio() * 100.0),
    ]);

    let estimators: Vec<(&str, TeEstimator)> = vec![
        ("mean", TeEstimator::Mean),
        ("p25", TeEstimator::Percentile(25.0)),
        ("p50 (default)", TeEstimator::Percentile(50.0)),
        ("p75", TeEstimator::Percentile(75.0)),
    ];
    for (label, te) in estimators {
        let stack = cidre_stack(CidreConfig::default().te_estimator(te));
        let report = run_policy_stack(out, &format!("cidre te={label}"), stack, &trace, &config);
        table.row([
            label.to_string(),
            format!("{:.1}", report.avg_overhead_ratio() * 100.0),
        ]);
    }
    writeln!(out, "{table}");
    ctx.save_csv(out, "fig17", &table);
}
