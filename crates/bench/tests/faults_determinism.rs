//! The `faults` experiment must be a pure function of (seed, scale):
//! same context ⇒ byte-identical CSV, run-to-run. Runs at tiny scale so
//! the double sweep stays cheap; the mechanism under test (seeded
//! `FaultPlan`s threaded through `run_policy_batch`) is scale-blind.

use std::path::PathBuf;

use cidre_bench::{experiments, ExpCtx, Out};

fn run_once(tag: &str) -> String {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("faults-{tag}"));
    let ctx = ExpCtx {
        out_dir: out_dir.clone(),
        ..ExpCtx::tiny()
    };
    experiments::faults::run(&ctx, &mut Out::default());
    std::fs::read_to_string(out_dir.join("faults.csv")).expect("experiment wrote its CSV")
}

#[test]
fn faults_csv_is_byte_identical_across_runs() {
    let a = run_once("a");
    let b = run_once("b");
    assert_eq!(a, b, "faults experiment must be deterministic");
    // Sanity: the sweep produced every (rate, policy) row plus a header.
    let rows = experiments::faults::RATES.len() * experiments::faults::POLICIES.len();
    assert_eq!(a.lines().count(), rows + 1);
    // The zero-rate control rows report clean fault counters.
    for line in a.lines().skip(1).take(experiments::faults::POLICIES.len()) {
        let cells: Vec<&str> = line.split(',').collect();
        assert_eq!(cells[6], "0", "control row has provision failures: {line}");
        assert_eq!(cells[7], "0", "control row has crash evictions: {line}");
    }
}
