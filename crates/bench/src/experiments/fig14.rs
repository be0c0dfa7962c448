//! Fig. 14 / §5.2: BSS in a production-scale FC cluster.
//!
//! The paper toggles BSS in a 37-machine Alibaba FC production cluster
//! (384 GB each) running ≈410k sampled requests: cold-start ratio drops
//! 1.10% → 0.72% (−34.5%) and p99 invocation overhead drops 283 ms →
//! 254.67 ms (−10.01%). We reproduce the setup as a simulated 37-worker
//! cluster with abundant memory (so the baseline cold ratio is small,
//! driven by concurrency rather than eviction) and a TTL keep-alive
//! approximating the production platform's, toggling the scaler between
//! always-cold and BSS.

use cidre_core::BssScaler;
use faas_metrics::Table;
use faas_policies::TtlKeepAlive;
use faas_sim::{AlwaysCold, PolicyStack, SimConfig, StartClass};
use faas_trace::TimeDelta;

use crate::workloads::run_policy_stack;
use crate::{ExpCtx, Out, Workload};

/// Runs the Fig. 14 / §5.2 reproduction.
pub fn run(ctx: &ExpCtx, out: &mut Out) {
    out.line("== Fig. 14: BSS on/off at production cluster scale (FC) ==");
    // The production pool is shared with other FC tenants (§5.2): merge
    // a second, differently-seeded FC trace in as background load.
    let foreground = ctx.trace(Workload::Fc);
    let background = {
        let mut bg = ctx.clone();
        bg.seed = ctx.seed.wrapping_add(1);
        bg.trace(Workload::Fc)
    };
    let trace = faas_trace::transform::merge(&foreground, &background);
    // 37 workers; memory generous relative to the (two-tenant) working
    // set so the baseline cold ratio lands near the production ~1%.
    let per_worker_mb = if ctx.is_reduced() { 4 * 1024 } else { 9 * 1024 };
    let config = SimConfig::default().uniform_workers(37, per_worker_mb);

    let mut table = Table::new([
        "BSS",
        "cold start ratio [%]",
        "p99 overhead [ms]",
        "p99.9 overhead [ms]",
    ]);
    for (label, stack) in [
        (
            "disabled",
            PolicyStack::new(
                Box::new(TtlKeepAlive::new(TimeDelta::from_minutes(10))),
                Box::new(AlwaysCold),
            ),
        ),
        (
            "enabled",
            PolicyStack::new(
                Box::new(TtlKeepAlive::new(TimeDelta::from_minutes(10))),
                Box::new(BssScaler),
            ),
        ),
    ] {
        let report = run_policy_stack(out, &format!("bss-{label}"), stack, &trace, &config);
        let wait = report.wait_cdf();
        table.row([
            label.to_string(),
            format!("{:.2}", report.ratio(StartClass::Cold) * 100.0),
            format!("{:.2}", wait.quantile(0.99)),
            format!("{:.2}", wait.quantile(0.999)),
        ]);
    }
    writeln!(out, "{table}");
    ctx.save_csv(out, "fig14", &table);
}
