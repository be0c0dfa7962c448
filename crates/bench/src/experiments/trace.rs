//! Latency waterfall sweep (observability): where does each policy's
//! end-to-end latency actually go?
//!
//! Replays the Azure workload under the headline policies on a faulty
//! substrate (same deterministic schedule as the `faults` sweep at
//! rate 0.1) with the trace recorder enabled, decomposes every
//! request's latency into queue / provision / retry / exec segments
//! (DESIGN.md §12), and aggregates per policy × start class. Emits the
//! per-class table and CSV, an ASCII waterfall sketch, and a
//! Perfetto-loadable Chrome trace-event JSON per policy under the
//! output directory. Everything is a deterministic function of the
//! context seed — byte-identical across runs and `--jobs` — asserted
//! by `tests/determinism.rs` and the `ci.sh` double-run diff lane.

use faas_metrics::{AsciiWaterfall, Table};
use faas_obs::waterfall::{summarize_by_class, SEGMENT_NAMES};
use faas_sim::run_traced;

use crate::experiments::faults::plan_for;
use crate::workloads::{say_run, stack_by_name};
use crate::{ExpCtx, Workload};

/// Policies under the waterfall lens: the strongest baseline plus both
/// CIDRE stacks (the same line-up as the `faults` sweep, so the two
/// tables cross-reference).
pub const POLICIES: &[&str] = &["faascache", "cidre-bss", "cidre"];

/// Provision-failure rate of the substrate: non-zero so the retry and
/// provisioning segments of the decomposition are actually exercised.
pub const FAULT_RATE: f64 = 0.1;

/// Chrome trace-event export filename for one policy.
pub fn export_name(policy: &str) -> String {
    format!("trace_{policy}.json")
}

/// Runs the waterfall sweep.
pub fn run(ctx: &ExpCtx) {
    crate::say!("== Trace: latency waterfalls per policy x start class (Azure, faulty) ==");
    let trace = ctx.trace(Workload::Azure);
    let config = ctx.sim_config(100).faults(plan_for(ctx.seed, FAULT_RATE));
    // One traced run per policy, fanned out like `run_policy_batch`:
    // results (and therefore narration, tables, CSVs, and exports) are
    // collected in input order, so `--jobs` never perturbs a byte.
    let runs = faas_testkit::par_map(POLICIES, ctx.jobs, |_, name| {
        run_traced(&trace, &config, stack_by_name(name, &trace))
    });

    let mut table = Table::new([
        "policy",
        "class",
        "requests",
        "queue [ms]",
        "provision [ms]",
        "retry [ms]",
        "exec [ms]",
        "total [ms]",
        "events",
    ]);
    let mut chart = AsciiWaterfall::new(48, SEGMENT_NAMES.map(String::from).to_vec());
    for (policy, (report, log)) in POLICIES.iter().zip(&runs) {
        say_run(policy, report);
        let summaries = summarize_by_class(&log.waterfalls());
        for summary in &summaries {
            let mean = summary.mean_ms();
            table.row([
                (*policy).to_string(),
                summary.class.label().to_string(),
                format!("{}", summary.count),
                format!("{:.3}", mean[0]),
                format!("{:.3}", mean[1]),
                format!("{:.3}", mean[2]),
                format!("{:.3}", mean[3]),
                format!("{:.3}", mean.iter().sum::<f64>()),
                format!("{}", log.len()),
            ]);
            if summary.count > 0 {
                chart.row(format!("{policy}/{}", summary.class.label()), mean.to_vec());
            }
        }
        ctx.save_text(&export_name(policy), &log.to_chrome_json());
    }
    crate::say!("{chart}");
    crate::say!("{table}");
    ctx.save_csv("trace", &table);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_resolve_and_name_exports() {
        let trace = faas_trace::gen::azure(1).functions(3).minutes(1).build();
        for name in POLICIES {
            let stack = stack_by_name(name, &trace);
            assert!(!stack.label().is_empty());
            assert!(export_name(name).ends_with(".json"));
        }
    }

    #[test]
    fn tiny_run_emits_all_artifacts() {
        crate::set_quiet(true);
        let out = std::env::temp_dir().join(format!("cidre-trace-exp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let mut ctx = ExpCtx::tiny();
        ctx.out_dir = out.clone();
        run(&ctx);
        assert!(out.join("trace.csv").exists());
        for policy in POLICIES {
            let json = std::fs::read_to_string(out.join(export_name(policy)))
                .expect("chrome export written");
            faas_testkit::json::Value::parse(&json).expect("export is valid JSON");
        }
        let _ = std::fs::remove_dir_all(&out);
        crate::set_quiet(false);
    }
}
