//! The parallel experiment runner must be a pure speed-up: fanning the
//! same scenario grid over worker threads yields byte-identical reports
//! (and therefore identical tables and CSVs) to the sequential path.

use cidre_bench::workloads::run_policy_batch;
use cidre_bench::{ExpCtx, Out, Scale, Workload};
use faas_sim::SimConfig;

fn tiny_ctx(jobs: usize) -> ExpCtx {
    ExpCtx {
        scale: Scale::Tiny,
        jobs,
        ..ExpCtx::default()
    }
}

/// A policy x cache grid shaped like fig12/sweep's inner loop.
fn grid(ctx: &ExpCtx) -> Vec<(String, SimConfig)> {
    let policies = ["ttl", "lru", "faascache", "cidre-bss", "cidre"];
    [80u64, 100, 120]
        .iter()
        .flat_map(|&gb| {
            policies
                .iter()
                .map(move |p| (p.to_string(), ctx.sim_config(gb)))
        })
        .collect()
}

#[test]
fn parallel_batch_matches_sequential_batch() {
    let out = &mut Out::default();
    let seq_ctx = tiny_ctx(1);
    let trace = seq_ctx.trace(Workload::Azure);
    let scenarios = grid(&seq_ctx);
    let sequential = run_policy_batch(&seq_ctx, out, &trace, &scenarios);
    for jobs in [2, 4, 8] {
        let par_ctx = tiny_ctx(jobs);
        let parallel = run_policy_batch(&par_ctx, out, &trace, &scenarios);
        assert_eq!(sequential.len(), parallel.len());
        for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
            assert_eq!(
                format!("{s:?}"),
                format!("{p:?}"),
                "scenario {i} ({}) diverged at jobs={jobs}",
                scenarios[i].0
            );
        }
    }
}

#[test]
fn oversubscribed_jobs_are_clamped_not_wrong() {
    let out = &mut Out::default();
    let ctx = tiny_ctx(64); // far more workers than scenarios
    let trace = ctx.trace(Workload::Fc);
    let scenarios = vec![
        ("faascache".to_string(), ctx.sim_config(100)),
        ("cidre".to_string(), ctx.sim_config(100)),
    ];
    let reports = run_policy_batch(&ctx, out, &trace, &scenarios);
    assert_eq!(reports.len(), 2);
    let seq = run_policy_batch(&tiny_ctx(1), out, &trace, &scenarios);
    for (s, p) in seq.iter().zip(&reports) {
        assert_eq!(format!("{s:?}"), format!("{p:?}"));
    }
}
