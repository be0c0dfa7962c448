//! Exit codes and diagnostics of the `experiments` and `live_load`
//! binaries: bad input is exit 1 with a message, never a panic, and a
//! run that could not write its outputs is not a success.

use std::process::{Command, Output};

const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_experiments");
const LIVE_LOAD: &str = env!("CARGO_BIN_EXE_live_load");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

/// Exit 1 (not 101, not a signal) and a diagnostic on stderr.
fn assert_rejected(bin: &str, args: &[&str]) -> String {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?}: stderr {stderr:?}");
    let first = stderr.lines().next().unwrap_or("");
    assert!(!first.trim().is_empty(), "{args:?}: no diagnostic");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    stderr
}

#[test]
fn experiments_rejects_hostile_argv() {
    let cases: &[&[&str]] = &[
        &[],
        &["fig2", "--frobnicate"],
        &["fig2", "--seed", "x"],
        &["fig2", "--jobs", "-1"],
        &["fig2", "--out"],
        &["sweep", "--caches-gb", "1,x"],
        &["sweep", "--policies", ""],
        &["sweep", "--workload", "gcp"],
        &["fig99", "--tiny"],
    ];
    for args in cases {
        assert_rejected(EXPERIMENTS, args);
    }
}

#[test]
fn live_load_rejects_hostile_argv() {
    for args in [&["--seed=x"], &["--frobnicate"]] {
        assert_rejected(LIVE_LOAD, args);
    }
}

/// The sweep is configured by its flags alone: a stray variable named
/// like one of them neither empties nor changes the table.
#[test]
fn sweep_ignores_the_environment() {
    let out_dir = std::env::temp_dir().join(format!("cidre-sweep-{}", std::process::id()));
    let out = Command::new(EXPERIMENTS)
        .args(["sweep", "--tiny", "--out", out_dir.to_str().expect("utf-8")])
        .env("SWEEP_CACHES_GB", "abc")
        .output()
        .unwrap_or_else(|e| panic!("cannot run {EXPERIMENTS}: {e}"));
    let csv = std::fs::read_to_string(out_dir.join("sweep.csv"));
    let _ = std::fs::remove_dir_all(&out_dir);
    assert_eq!(out.status.code(), Some(0));
    let csv = csv.expect("sweep.csv written");
    // A header, then three policies at each of three cache sizes.
    assert_eq!(csv.lines().count(), 1 + 3 * 3, "{csv}");
}

#[test]
fn experiments_list_names_every_experiment() {
    let out = run(EXPERIMENTS, &["list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 26, "{stdout}");
}

/// Two empty directories pass a `diff -r`: a run whose every write
/// failed must not look like one that succeeded.
#[test]
fn experiments_fails_when_outputs_cannot_be_written() {
    // The binary itself is a regular file, so nothing can be created
    // beneath it.
    let out_dir = format!("{EXPERIMENTS}/sub");
    let stderr = assert_rejected(EXPERIMENTS, &["all", "--tiny", "--out", &out_dir]);
    // Every failed write is warned about, and all of them are counted.
    let warnings = stderr
        .lines()
        .filter(|l| l.starts_with("warning: cannot write"))
        .count();
    let total = format!("\n{warnings} output file(s) could not be written");
    assert!(warnings > 0 && stderr.contains(&total), "{stderr}");
}

#[test]
fn experiments_closing_line_reports_time_and_peak_rss() {
    let out_dir = std::env::temp_dir().join(format!("cidre-cli-{}", std::process::id()));
    let out = run(
        EXPERIMENTS,
        &[
            "table1",
            "--tiny",
            "--out",
            out_dir.to_str().expect("utf-8"),
        ],
    );
    let _ = std::fs::remove_dir_all(&out_dir);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    assert!(last.starts_with("done in "), "{last:?}");
    if std::path::Path::new("/proc/self/status").exists() {
        assert!(
            last.contains("s, peak RSS ") && last.ends_with(" MB"),
            "{last:?}"
        );
    }
}
