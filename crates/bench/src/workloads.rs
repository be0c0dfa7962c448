//! Shared experiment context: workload construction, scaling, output.

use std::fs;
use std::path::PathBuf;

use cidre_core::{cidre_bss_stack, cidre_stack, CidreConfig};
use faas_metrics::Table;
use faas_policies::{
    codecrunch_stack, ensure_stack, faascache_stack, flame_stack, icebreaker_stack, lru_stack,
    offline_stack, rainbowcake_stack, ttl_stack,
};
use faas_sim::{run, PolicyStack, SimConfig, SimReport};
use faas_trace::{gen, Trace};

use crate::Out;

/// Which of the paper's two production workloads an experiment replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The sampled 30-minute Azure Functions workload (Table 1).
    Azure,
    /// The sampled 30-minute Alibaba Cloud FC workload (Table 1).
    Fc,
}

impl Workload {
    /// Display name used in tables and filenames.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Azure => "azure",
            Workload::Fc => "fc",
        }
    }

    /// Parses a workload from its display name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "azure" => Some(Workload::Azure),
            "fc" => Some(Workload::Fc),
            _ => None,
        }
    }
}

/// Workload scale an experiment context runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's sampled workloads (Azure 330 fn / 30 min ≈ 598k
    /// requests; FC 220 fn / 30 min ≈ 410k).
    Paper,
    /// ≈1/5 of the functions over 5 minutes — the `--quick` CLI flag.
    Quick,
    /// A miniature for the golden tests and the CI smoke (`--tiny`).
    Tiny,
}

/// CLI overrides for the custom `sweep` experiment. Each field, when
/// set, replaces the built-in default.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepOverrides {
    /// Policies to sweep (`--policies a,b,c`).
    pub policies: Option<Vec<String>>,
    /// Paper-scale cache sizes in GB (`--caches-gb 80,100`).
    pub caches_gb: Option<Vec<u64>>,
    /// Workload to replay (`--workload azure|fc`).
    pub workload: Option<Workload>,
}

/// Experiment context: scale, seed, parallelism, and output directory.
#[derive(Debug, Clone)]
pub struct ExpCtx {
    /// Workload and cache scale.
    pub scale: Scale,
    /// Directory CSV outputs are written to.
    pub out_dir: PathBuf,
    /// Base RNG seed for workload generation.
    pub seed: u64,
    /// Worker threads used to fan simulation runs out over independent
    /// (policy, cache) scenarios, and `all` out over its experiments:
    /// an experiment that fans out inside `all` runs at most `jobs²`
    /// threads. `1` (the default) runs sequentially; any value produces
    /// identical narration, tables and CSVs because results are
    /// aggregated in input order.
    pub jobs: usize,
    /// CLI overrides for the custom `sweep` experiment.
    pub sweep: SweepOverrides,
}

impl Default for ExpCtx {
    fn default() -> Self {
        Self {
            scale: Scale::Paper,
            out_dir: PathBuf::from("results"),
            seed: 42,
            jobs: 1,
            sweep: SweepOverrides::default(),
        }
    }
}

impl ExpCtx {
    /// A quick-scale context writing to `results/`.
    pub fn quick() -> Self {
        Self {
            scale: Scale::Quick,
            ..Self::default()
        }
    }

    /// A miniature context for the golden and smoke tests.
    pub fn tiny() -> Self {
        Self {
            scale: Scale::Tiny,
            ..Self::default()
        }
    }

    /// Whether the context runs below paper scale.
    pub fn is_reduced(&self) -> bool {
        self.scale != Scale::Paper
    }

    /// Builds the experiment-scale trace for `workload` (see [`Scale`]).
    pub fn trace(&self, workload: Workload) -> Trace {
        let builder = match workload {
            Workload::Azure => gen::azure(self.seed),
            Workload::Fc => gen::fc(self.seed),
        };
        match (workload, self.scale) {
            (_, Scale::Paper) => builder.build(),
            (Workload::Azure, Scale::Quick) => builder.functions(60).minutes(5).build(),
            (Workload::Fc, Scale::Quick) => builder.functions(40).minutes(5).build(),
            (Workload::Azure, Scale::Tiny) => builder.functions(12).minutes(1).build(),
            (Workload::Fc, Scale::Tiny) => builder.functions(10).minutes(1).build(),
        }
    }

    /// Scales a paper cache size (GB) to the context's workload scale,
    /// so reduced runs still experience memory pressure. The floor keeps
    /// every worker larger than the biggest function footprint.
    pub fn cache_gb(&self, paper_gb: u64) -> u64 {
        match self.scale {
            Scale::Paper => paper_gb,
            Scale::Quick => (paper_gb / 5).max(6),
            Scale::Tiny => (paper_gb / 16).max(6),
        }
    }

    /// The paper's default simulator configuration at a given paper-scale
    /// cache size.
    pub fn sim_config(&self, paper_cache_gb: u64) -> SimConfig {
        SimConfig::with_cache_gb(self.cache_gb(paper_cache_gb))
    }

    /// Writes a table as CSV under the output directory (see
    /// [`Self::save_text`]).
    pub fn save_csv(&self, out: &mut Out, name: &str, table: &Table) {
        self.save_text(out, &format!("{name}.csv"), &table.to_csv());
    }

    /// Writes a text artifact (a CSV, a Chrome trace-event JSON export)
    /// under the output directory, noting it in `out`. A failure is
    /// printed and counted in [`Out::write_failures`], not fatal: the run
    /// goes on and the CLI exits non-zero at the end.
    pub fn save_text(&self, out: &mut Out, filename: &str, contents: &str) {
        let path = self.out_dir.join(filename);
        match fs::create_dir_all(&self.out_dir).and_then(|()| fs::write(&path, contents)) {
            Ok(()) => writeln!(out, "  [saved {}]", path.display()),
            #[expect(
                clippy::print_stderr,
                reason = "the failure must reach the operator at once, not with the run's narration"
            )]
            Err(e) => {
                out.write_failures += 1;
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
    }
}

/// The policy line-up of Fig. 12/13, in the paper's order.
pub const MAIN_POLICIES: &[&str] = &[
    "ttl",
    "lru",
    "faascache",
    "rainbowcake",
    "flame",
    "ensure",
    "icebreaker",
    "codecrunch",
    "cidre-bss",
    "cidre",
    "offline",
];

/// Builds a policy stack by its experiment name. `trace` is needed by
/// the offline oracle; other policies ignore it.
///
/// # Panics
///
/// Panics on an unknown policy name (experiment code is static).
pub fn stack_by_name(name: &str, trace: &Trace) -> PolicyStack {
    // `ttl@<secs>s` parameterizes the TTL expiry — the keep-warm
    // aggressiveness axis of the `pareto` sweep (e.g. `ttl@30s`).
    if let Some(secs) = name
        .strip_prefix("ttl@")
        .and_then(|s| s.strip_suffix('s'))
        .and_then(|s| s.parse::<u64>().ok())
    {
        return faas_policies::ttl_stack_with(faas_trace::TimeDelta::from_secs(secs));
    }
    match name {
        "ttl" => ttl_stack(),
        "lru" => lru_stack(),
        "lfu" => faas_policies::lfu_stack(),
        "greedydual" => faas_policies::greedydual_stack(),
        "faascache" => faascache_stack(),
        "faascache-c" => faas_policies::faascache_c_stack(),
        "rainbowcake" => rainbowcake_stack(),
        "flame" => flame_stack(),
        "ensure" => ensure_stack(),
        "icebreaker" => icebreaker_stack(),
        "codecrunch" => codecrunch_stack(),
        "cidre-bss" => cidre_bss_stack(),
        "cidre" => cidre_stack(CidreConfig::default()),
        "offline" => offline_stack(trace),
        other => panic!("unknown policy {other:?}"),
    }
}

/// Runs one named policy over a trace, narrating a one-line progress
/// marker.
pub fn run_policy(out: &mut Out, name: &str, trace: &Trace, config: &SimConfig) -> SimReport {
    run_policy_stack(out, name, stack_by_name(name, trace), trace, config)
}

/// Runs an explicit policy stack over a trace, narrating a one-line
/// progress marker under `label`.
pub fn run_policy_stack(
    out: &mut Out,
    label: &str,
    stack: PolicyStack,
    trace: &Trace,
    config: &SimConfig,
) -> SimReport {
    let report = run(trace, config, stack);
    say_run(out, label, &report);
    report
}

/// The shared one-line progress marker for a finished simulation run.
pub(crate) fn say_run(out: &mut Out, label: &str, report: &SimReport) {
    writeln!(
        out,
        "  ran {label:<16} cold={:>5.1}% delayed={:>5.1}% warm={:>5.1}% overhead={:>5.1}%",
        report.ratio(faas_sim::StartClass::Cold) * 100.0,
        report.ratio(faas_sim::StartClass::DelayedWarm) * 100.0,
        report.ratio(faas_sim::StartClass::Warm) * 100.0,
        report.avg_overhead_ratio() * 100.0
    );
}

/// Runs a batch of independent `(policy name, config)` scenarios over a
/// shared trace across `ctx.jobs` worker threads, returning reports in
/// input order.
///
/// Each scenario is fully determined by its inputs (the simulator is
/// deterministic and each worker builds its own policy stack), and the
/// progress markers are written *after* collection, in input order — so
/// narration, tables, and CSVs are byte-identical whatever `ctx.jobs`
/// is. With `jobs == 1` this takes `faas_testkit::par_map`'s sequential
/// reference path.
pub fn run_policy_batch(
    ctx: &ExpCtx,
    out: &mut Out,
    trace: &Trace,
    scenarios: &[(String, SimConfig)],
) -> Vec<SimReport> {
    let reports = faas_testkit::par_map(scenarios, ctx.jobs, |_, (name, config)| {
        run(trace, config, stack_by_name(name, trace))
    });
    for ((name, _), report) in scenarios.iter().zip(&reports) {
        say_run(out, name, report);
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_traces_are_small_but_nonempty() {
        let ctx = ExpCtx::quick();
        let az = ctx.trace(Workload::Azure);
        assert!(az.len() > 1_000, "quick azure has {} reqs", az.len());
        assert!(az.len() < 200_000);
        let fc = ctx.trace(Workload::Fc);
        assert!(!fc.is_empty());
    }

    #[test]
    fn cache_scaling() {
        let quick = ExpCtx::quick();
        assert_eq!(quick.cache_gb(100), 20);
        let full = ExpCtx::default();
        assert_eq!(full.cache_gb(100), 100);
    }

    #[test]
    fn every_main_policy_resolves() {
        let ctx = ExpCtx::quick();
        let trace = faas_trace::gen::azure(1).functions(3).minutes(1).build();
        for name in MAIN_POLICIES {
            let stack = stack_by_name(name, &trace);
            assert!(!stack.label().is_empty());
        }
        let _ = ctx;
    }

    #[test]
    #[should_panic(expected = "unknown policy")]
    fn unknown_policy_panics() {
        let trace = faas_trace::gen::azure(1).functions(3).minutes(1).build();
        let _ = stack_by_name("nope", &trace);
    }
}
