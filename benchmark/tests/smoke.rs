//! Runs the benchmark binary with `--smoke` (a 2 s window) on every
//! workload, traced and untraced, and holds its output to BENCHMARK.json:
//! every end-to-end or per-layer metric listed there is printed exactly
//! once with a unit, nothing else is, and the last line is the result
//! object the driver parses.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["seq_pressure", "seq_warm", "policy_mix", "host_closed"];

fn spec() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `"name"` of every object in the array under `key`.
fn names_under(spec: &str, key: &str) -> Vec<String> {
    let start = spec
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let array = &spec[start..];
    let array = &array[..array.find(']').expect("array closes")];
    array
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("name value opens") + 1..];
            rest[..rest.find('"').expect("name value closes")].to_string()
        })
        .collect()
}

/// Runs the binary; returns the `name value unit` lines as a map of
/// name to every `(value, unit)` printed for it, and the last line.
fn run(workload: &str, trace: &str) -> (BTreeMap<String, Vec<(f64, String)>>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cidre-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--smoke"])
        .args(["--trace", trace])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited {:?}:\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().expect("some output").to_string();
    let mut metrics: BTreeMap<String, Vec<(f64, String)>> = BTreeMap::new();
    for line in lines.iter().filter(|l| !l.starts_with('#')) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(fields.len(), 3, "not `name value unit`: {line:?}");
        let value: f64 = fields[1].parse().expect("a number");
        metrics
            .entry(fields[0].to_string())
            .or_default()
            .push((value, fields[2].to_string()));
    }
    (metrics, last)
}

fn check(workload: &str, trace: &str, key: &str) {
    let expected = names_under(&spec(), key);
    assert!(!expected.is_empty());
    let (metrics, last) = run(workload, trace);
    for name in &expected {
        let printed = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
        assert_eq!(
            printed.len(),
            1,
            "{workload}: {name} printed more than once"
        );
        let (value, unit) = &printed[0];
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(!unit.is_empty(), "{workload}: {name} has no unit");
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload}: {name} missing from the result object"
        );
    }
    let extra: Vec<&String> = metrics.keys().filter(|k| !expected.contains(k)).collect();
    assert!(
        extra.is_empty(),
        "{workload}: not in BENCHMARK.json: {extra:?}"
    );
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
}

#[test]
fn end_to_end_run_prints_every_end_to_end_metric_once() {
    for workload in WORKLOADS {
        check(workload, "0", "end_to_end");
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric_once_and_writes_spans() {
    for workload in WORKLOADS {
        check(workload, "1", "per_layer");
        let file = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join("benchmark")
            .join(format!("{workload}.trace.json"));
        let spans = std::fs::read_to_string(&file).expect("span file written");
        assert!(spans.starts_with("{\"spans\":[{\"id\":0,\"parent\":null,\"name\":\"setup\""));
        assert!(spans.contains("\"name\":\"pass\"") && spans.contains("\"counts\":{"));
    }
}

#[test]
fn spec_lists_the_four_workloads_and_setup_s() {
    let spec = spec();
    assert_eq!(names_under(&spec, "workloads"), WORKLOADS);
    assert!(names_under(&spec, "end_to_end").contains(&"setup_s".to_string()));
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--workload", "seq_warm", "--trace", "2"],
        vec!["--workload", "seq_warm", "--seconds", "0"],
        vec!["--seed"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cidre-benchmark"))
            .args(&args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
