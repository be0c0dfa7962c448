//! Self-test over the fixture corpus in `fixtures/`.
//!
//! Each fixture holds, for one rule, the shapes that must fire and the
//! shapes that must stay silent. The corpus is excluded from workspace
//! scans (`scan::skip_dir`), so these files can be violations on
//! purpose.

use std::path::Path;

use cidre_lint::{analyze_workspace, FileKind, LockSpec, LocksConfig, Rule, SourceFile};

fn source(rel_path: &str, src: String) -> Vec<SourceFile> {
    vec![SourceFile {
        rel_path: rel_path.to_string(),
        kind: FileKind::Source,
        src,
    }]
}

/// Runs the pass over one fixture under a caller-chosen relative path
/// and seed config; returns the line of every finding of `rule` after
/// asserting that no other rule fired.
fn run(fixture: &str, rel_path: &str, cfg: &LocksConfig, rule: Rule) -> Vec<u32> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(fixture);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    let found = analyze_workspace(&source(rel_path, src), cfg);
    assert!(found.iter().all(|(_, v)| v.rule == rule), "{found:?}");
    found.into_iter().map(|(_, v)| v.line).collect()
}

fn k1_cfg(scope: &'static [&'static str]) -> LocksConfig {
    LocksConfig {
        k1_scope: scope,
        locks: &[],
    }
}

#[test]
fn k1_corpus() {
    let cfg = k1_cfg(&["crates/fixt/"]);
    // Direct wake under guard, the one-level-deep call, and the call
    // under the revived guard; `notify` itself (wake after drop) and
    // the call between the drop and the re-acquisition are silent.
    let lines = run("k1.rs", "crates/fixt/src/k1.rs", &cfg, Rule::K1);
    assert_eq!(lines, vec![23, 39, 48]);
}

#[test]
fn k1_is_silent_outside_its_scope() {
    let cfg = k1_cfg(&["crates/live/src/exec/"]);
    let lines = run("k1.rs", "crates/fixt/src/k1.rs", &cfg, Rule::K1);
    assert!(lines.is_empty(), "{lines:?}");
}

const L1_FILE: &[&str] = &["crates/fixt/src/l1.rs"];
const L1_CFG: LocksConfig = LocksConfig {
    k1_scope: &[],
    locks: &[
        LockSpec {
            name: "alpha",
            files: L1_FILE,
            field: "alpha",
            impls: &[],
        },
        LockSpec {
            name: "beta",
            files: L1_FILE,
            field: "beta",
            impls: &[],
        },
    ],
};

#[test]
fn l1_corpus() {
    // Both edges of the alpha/beta cycle, the re-entrant self-edge,
    // and the second beta→alpha instance; the sequential `ordered` is
    // silent.
    let lines = run("l1.rs", L1_FILE[0], &L1_CFG, Rule::L1);
    assert_eq!(lines, vec![20, 27, 34, 41]);
}

#[test]
fn l1_reordering_two_acquisitions_breaks_a_clean_scan() {
    // Scratch sources, not fixture files: the same two functions, once
    // agreeing on alpha-before-beta (clean) and once with the second
    // function flipped (cycle). Deliberately reordering two lock
    // acquisitions must flip the scan from silent to failing.
    let agree = "
        fn one(t: &Two) {
            let a = t.alpha.lock().unwrap();
            let b = t.beta.lock().unwrap();
            drop(b);
            drop(a);
        }
        fn two(t: &Two) {
            let a = t.alpha.lock().unwrap();
            let b = t.beta.lock().unwrap();
            drop(b);
            drop(a);
        }
    ";
    let flipped = "
        fn one(t: &Two) {
            let a = t.alpha.lock().unwrap();
            let b = t.beta.lock().unwrap();
            drop(b);
            drop(a);
        }
        fn two(t: &Two) {
            let b = t.beta.lock().unwrap();
            let a = t.alpha.lock().unwrap();
            drop(a);
            drop(b);
        }
    ";
    let scan = |src: &str| -> Vec<Rule> {
        analyze_workspace(&source(L1_FILE[0], src.to_string()), &L1_CFG)
            .into_iter()
            .map(|(_, v)| v.rule)
            .collect()
    };
    assert!(scan(agree).is_empty(), "consistent order must be silent");
    assert_eq!(scan(flipped), vec![Rule::L1; 2], "both cycle edges flagged");
}
