//! The simulator is a pure function of (trace, config, policy stack):
//! regenerating the trace from the same seed and re-running the same
//! stack must reproduce the *entire* report — asserted byte-for-byte on
//! the `Debug` rendering, which covers every request record, the memory
//! timeline, and all counters.

use cidre::core::{cidre_bss_stack, cidre_stack, CidreConfig};
use cidre::policies::{faascache_stack, lru_stack, ttl_stack};
use cidre::sim::{run, run_traced, FaultPlan, PolicyStack, SimConfig, SimReport, WorkerId};
use cidre::trace::{gen, TimeDelta, TimePoint};

type MakeStack = fn() -> PolicyStack;

fn stacks() -> Vec<(&'static str, MakeStack)> {
    vec![
        ("ttl", ttl_stack as MakeStack),
        ("lru", lru_stack),
        ("faascache", faascache_stack),
        ("cidre-bss", cidre_bss_stack),
        ("cidre", || cidre_stack(CidreConfig::default())),
    ]
}

fn report_for(seed: u64, make_stack: MakeStack) -> SimReport {
    let trace = gen::azure(seed).functions(15).minutes(2).build();
    let config = SimConfig::default().workers_mb(vec![3_072]);
    run(&trace, &config, make_stack())
}

#[test]
fn same_seed_same_stack_byte_identical_report() {
    for (label, make_stack) in stacks() {
        for seed in [1, 42, 1234] {
            let a = format!("{:?}", report_for(seed, make_stack));
            let b = format!("{:?}", report_for(seed, make_stack));
            assert_eq!(a, b, "{label} diverged on seed {seed}");
        }
    }
}

#[test]
fn different_seeds_actually_differ() {
    // Guard against the comparison above passing vacuously (e.g. the
    // generator ignoring its seed).
    let a = format!("{:?}", report_for(1, faascache_stack));
    let b = format!("{:?}", report_for(2, faascache_stack));
    assert_ne!(a, b);
}

#[test]
fn explicit_none_plan_matches_default_config() {
    // `FaultPlan::none()` draws zero random numbers and schedules zero
    // events, so a config carrying it is byte-identical to the plain
    // default — fault-free runs take the exact pre-fault code path.
    let trace = gen::azure(42).functions(15).minutes(2).build();
    let plain = SimConfig::default().workers_mb(vec![3_072]);
    let explicit = SimConfig::default()
        .workers_mb(vec![3_072])
        .faults(FaultPlan::none());
    let a = run(&trace, &plain, cidre_stack(CidreConfig::default()));
    let b = run(&trace, &explicit, cidre_stack(CidreConfig::default()));
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(a.provision_failures, 0);
    assert_eq!(a.crash_evictions, 0);
}

fn faulty_config(fault_seed: u64) -> SimConfig {
    SimConfig::default().workers_mb(vec![2_048, 2_048]).faults(
        FaultPlan::none()
            .seed(fault_seed)
            .provision_failures(0.2)
            .stragglers(0.1, 1.5, 20.0)
            .retry_backoff(TimeDelta::from_millis(50), TimeDelta::from_secs(2))
            .crash_worker(TimePoint::from_secs(30), WorkerId(0)),
    )
}

#[test]
fn same_seed_same_fault_plan_byte_identical_report() {
    let trace = gen::azure(7).functions(15).minutes(2).build();
    let config = faulty_config(9);
    for (label, make_stack) in stacks() {
        let a = format!("{:?}", run(&trace, &config, make_stack()));
        let b = format!("{:?}", run(&trace, &config, make_stack()));
        assert_eq!(a, b, "{label} diverged under fault injection");
    }
}

#[test]
fn different_fault_seeds_actually_differ() {
    let trace = gen::azure(7).functions(15).minutes(2).build();
    let a = format!("{:?}", run(&trace, &faulty_config(9), faascache_stack()));
    let b = format!("{:?}", run(&trace, &faulty_config(10), faascache_stack()));
    assert_ne!(a, b, "the fault seed must steer the run");
}

/// FNV-1a 64-bit over raw file bytes — stable, dependency-free content
/// fingerprint for the golden assertions below.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Pinned content hashes of every artifact `experiments all` and
/// `sweep` write at `Scale::Tiny`. The first eight were captured on the
/// pre-refactor (naive linear-scan) engine; the rest at PR 18's commit,
/// whose engine reproduces those eight. Any divergence here means a
/// change moved a scheduling or eviction decision somewhere — or a
/// runner's own arithmetic or formatting.
const CSV_GOLDENS: &[(&str, u64)] = &[
    ("fig12_overhead_azure.csv", 0x3150e1b8345750e2),
    ("fig12_breakdown_azure.csv", 0x24189be3962b5401),
    ("fig12_overhead_fc.csv", 0x9fbcd39382015b48),
    ("fig12_breakdown_fc.csv", 0xf2ed68933bc5e419),
    ("sweep.csv", 0xf53faaada3036598),
    ("faults.csv", 0x16608f9464ab3ca4),
    // The ledger-driven Pareto sweep (PR 8): pins every cost column —
    // GB-seconds by charge class, the per-request bill, the work
    // counters — and the frontier flags.
    ("pareto.csv", 0x0ef09de4488a9cc5),
    // The latency-waterfall sweep (PR 9): pins the per-policy ×
    // start-class queue/provision/retry/exec decomposition and the
    // provenance event counts.
    ("trace.csv", 0x4bc3028235c6a0e6),
    // Every other runner, and the `trace` experiment's three Chrome
    // exports: until PR 20 only `paper_shapes`' coarse inequalities
    // held these.
    ("table1.csv", 0x697dc2ae680de224),
    ("table2.csv", 0x9b632fea7d1b69cc),
    ("fig2.csv", 0x48271517697a4efa),
    ("fig3.csv", 0xb3d7046c1df01e28),
    ("fig5.csv", 0x10ef44d401534eaa),
    ("fig6.csv", 0xd7f0c5339c912b99),
    ("fig7.csv", 0x5a88bacfb7662352),
    ("fig8.csv", 0x1a011a5d17c904af),
    ("fig9.csv", 0x1e08a8d90dc4a16f),
    ("fig10.csv", 0x1722d66b68d3f9e4),
    ("fig13_azure.csv", 0x4571d281a71480ae),
    ("fig13_fc.csv", 0x7b3cb9beebd969fa),
    ("fig14.csv", 0xbe0baea47b92b2b3),
    ("fig15.csv", 0x9611f185ae6d16d4),
    ("fig16.csv", 0x1b4c1631d57e4583),
    ("fig17.csv", 0x4061da850fa430cb),
    ("fig18.csv", 0x5866e67a9c0bc3aa),
    ("fig19.csv", 0xb48995a8f7926eb3),
    ("fig20.csv", 0x3686d06e0035da51),
    ("fig21.csv", 0x978f3c2b27c18966),
    ("extra_placement.csv", 0x0c8c821610b75706),
    ("extra_variance.csv", 0x628d1692c641776e),
    ("trace_faascache.json", 0x97f8f445020a8731),
    ("trace_cidre-bss.json", 0x7f691b8a4e611577),
    ("trace_cidre.json", 0x5243e0655e46e52e),
];

/// `all` fans its experiments out over `jobs`, and most of them (`pareto`
/// and `trace` among them) fan their runs out again: at 1 and 4 jobs
/// every artifact matches its pin and the narration is the same text,
/// blocks in registry order.
#[test]
fn experiment_csv_outputs_match_pinned_goldens() {
    let out = std::env::temp_dir().join(format!("cidre-goldens-{}", std::process::id()));
    let narration = [1, 4].map(|jobs| {
        let _ = std::fs::remove_dir_all(&out);
        let mut ctx = cidre_bench::ExpCtx::tiny();
        ctx.out_dir = out.clone();
        ctx.jobs = jobs;
        // Pin the sweep inputs explicitly, as the CLI flags would, so a
        // change of the built-in defaults cannot perturb the golden outputs.
        ctx.sweep = cidre_bench::SweepOverrides {
            policies: Some(vec!["faascache".into(), "cidre-bss".into(), "cidre".into()]),
            caches_gb: Some(vec![80, 100, 120]),
            workload: Some(cidre_bench::Workload::Azure),
        };
        let mut text = String::new();
        // `all` skips `sweep` (an interactive tool, not a paper artifact).
        for exp in ["all", "sweep"] {
            assert!(
                cidre_bench::run_by_name(exp, &ctx, |block| text += &block.text),
                "unknown experiment {exp}"
            );
        }
        // Exactly the pinned files: a runner that silently stops writing,
        // or starts writing something unpinned, fails here.
        let mut written: Vec<String> = std::fs::read_dir(&out)
            .expect("experiments wrote an output directory")
            .map(|e| {
                e.expect("readable entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8 name")
            })
            .collect();
        written.sort_unstable();
        let mut pinned: Vec<&str> = CSV_GOLDENS.iter().map(|&(name, _)| name).collect();
        pinned.sort_unstable();
        assert_eq!(written, pinned, "output files differ from the pinned set");
        let mut failures = Vec::new();
        for &(name, want) in CSV_GOLDENS {
            let bytes = std::fs::read(out.join(name))
                .unwrap_or_else(|e| panic!("experiment did not write {name}: {e}"));
            let got = fnv1a64(&bytes);
            if got != want {
                failures.push(format!("  {name}: got {got:#018x}, want {want:#018x}"));
            }
        }
        assert!(
            failures.is_empty(),
            "experiment outputs at jobs={jobs} diverged from the pinned goldens:\n{}",
            failures.join("\n")
        );
        text
    });
    let _ = std::fs::remove_dir_all(&out);
    assert!(narration[0].starts_with("== Table 1"));
    assert_eq!(
        narration[0], narration[1],
        "narration at jobs=4 differs from jobs=1"
    );
}

#[test]
fn fc_workload_is_deterministic_too() {
    let config = SimConfig::default().workers_mb(vec![2_048]);
    let trace_a = gen::fc(7).functions(10).minutes(1).build();
    let trace_b = gen::fc(7).functions(10).minutes(1).build();
    assert_eq!(trace_a, trace_b, "trace generation must be seed-stable");
    let a = run(&trace_a, &config, cidre_stack(CidreConfig::default()));
    let b = run(&trace_b, &config, cidre_stack(CidreConfig::default()));
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

/// Pinned content hash of the Chrome trace-event export of one faulted
/// CIDRE run (the `faulty_config(9)` schedule over the seed-7 Azure
/// miniature). The export is a pure function of the event stream, so
/// this one constant pins the recorder and the exporter at once
/// (DESIGN.md §12).
const CHROME_EXPORT_GOLDEN: u64 = 0x35621b28ba6759ca;

/// The trace export of a faulted run must parse as valid JSON and match
/// the pinned golden.
#[test]
fn chrome_export_is_valid_json_and_matches_golden() {
    let trace = gen::azure(7).functions(15).minutes(2).build();
    let (_, log) = run_traced(
        &trace,
        &faulty_config(9),
        cidre_stack(CidreConfig::default()),
    );
    let json = log.to_chrome_json();
    faas_testkit::json::Value::parse(&json).expect("export is valid JSON");
    assert_eq!(
        fnv1a64(json.as_bytes()),
        CHROME_EXPORT_GOLDEN,
        "chrome export diverged from the pinned golden"
    );
}

/// `per_function_peak_rpm` feeds the Fig. 3 concurrency CDF. Its output
/// order is part of the contract — ascending `FunctionId`, pinned here
/// with peaks chosen so id order differs from value order. The previous
/// implementation iterated `HashMap`s, so this vector could legally
/// come back shuffled between runs.
#[test]
fn per_function_peak_rpm_is_ascending_id_order() {
    use cidre::trace::{
        stats::per_function_peak_rpm, FunctionId, FunctionProfile, Invocation, Trace,
    };

    let fs: Vec<FunctionProfile> = (0..3)
        .map(|i| FunctionProfile::new(FunctionId(i), "f", 128, TimeDelta::from_millis(100)))
        .collect();
    // fn0: peak 3 (minute 0); fn1: peak 1; fn2: peak 2 (minute 1).
    let arrivals: &[(u32, u64)] = &[
        (0, 0),
        (0, 5),
        (0, 10),
        (1, 0),
        (2, 61_000),
        (2, 62_000),
        (0, 61_000),
    ];
    let invs = arrivals
        .iter()
        .map(|&(f, ms)| Invocation {
            func: FunctionId(f),
            arrival: TimePoint::from_millis(ms),
            exec: TimeDelta::from_millis(1),
        })
        .collect();
    let trace = Trace::new(fs, invs).expect("valid trace");

    let peaks = per_function_peak_rpm(&trace);
    assert_eq!(
        peaks,
        vec![3.0, 1.0, 2.0],
        "peaks must come back in FunctionId order, not peak order"
    );
    assert_eq!(
        peaks,
        per_function_peak_rpm(&trace),
        "recomputation must be order-stable"
    );
}
