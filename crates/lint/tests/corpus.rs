//! Self-test over the fixture corpus in `fixtures/`.
//!
//! Each fixture holds, for one rule: positive cases that must fire,
//! justified `lint:allow` cases that must be suppressed, and a *bare*
//! allow that must both report `A0` and fail to suppress. The corpus is
//! excluded from workspace scans (`scan::skip_dir`), so these files can
//! be violations on purpose without touching the ratchet baseline.

use std::path::Path;

use cidre_lint::{
    analyze_file, analyze_workspace, classify, FileContext, FileKind, LocksConfig, Rule, SourceFile,
};

/// Analyzes one fixture under a caller-chosen crate context (rules are
/// crate-scoped, so each fixture picks a crate where only its own rule
/// family fires).
fn run(fixture: &str, crate_name: &str) -> Vec<(Rule, u32)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(fixture);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    let ctx = FileContext {
        crate_name: crate_name.to_string(),
        rel_path: format!("crates/{crate_name}/src/fixture.rs"),
        file_kind: FileKind::Source,
    };
    analyze_file(&ctx, &src)
        .into_iter()
        .map(|v| (v.rule, v.line))
        .collect()
}

fn count(v: &[(Rule, u32)], rule: Rule) -> usize {
    v.iter().filter(|(r, _)| *r == rule).count()
}

#[test]
fn w1_corpus() {
    let v = run("w1.rs", "sim");
    // Two positives, one un-suppressed behind a bare allow; the two
    // justified allows (trailing + comment-above) are silent.
    assert_eq!(count(&v, Rule::W1), 3, "{v:?}");
    assert_eq!(count(&v, Rule::A0), 1, "{v:?}");
    assert_eq!(v.len(), 4, "no other rule may fire: {v:?}");
}

#[test]
fn o1_corpus() {
    let v = run("o1.rs", "sim");
    // values() call, for-loop over a field, for-loop over a local
    // HashSet, and the keys() call behind the bare allow.
    assert_eq!(count(&v, Rule::O1), 4, "{v:?}");
    assert_eq!(count(&v, Rule::A0), 1, "{v:?}");
    assert_eq!(v.len(), 5, "{v:?}");
}

#[test]
fn f1_corpus() {
    // Run as `metrics` so the unwrap in the positive case does not also
    // trip U1 (scoped to faas-core/sim).
    let v = run("f1.rs", "metrics");
    assert_eq!(count(&v, Rule::F1), 2, "{v:?}");
    assert_eq!(count(&v, Rule::A0), 1, "{v:?}");
    assert_eq!(v.len(), 3, "{v:?}");
}

#[test]
fn c1_corpus() {
    let v = run("c1.rs", "trace");
    // micros, mem_mb, and idle_ms casts; the secs cast is allowed, the
    // unmarked `n as u64` never fires.
    assert_eq!(count(&v, Rule::C1), 3, "{v:?}");
    assert_eq!(count(&v, Rule::A0), 1, "{v:?}");
    assert_eq!(v.len(), 4, "{v:?}");
}

#[test]
fn e1_corpus() {
    let v = run("e1.rs", "sim");
    // RandomState + DefaultHasher imports, the positive env read, and
    // the env read behind the bare allow.
    assert_eq!(count(&v, Rule::E1), 4, "{v:?}");
    assert_eq!(count(&v, Rule::A0), 1, "{v:?}");
    assert_eq!(v.len(), 5, "{v:?}");
}

#[test]
fn u1_corpus() {
    let v = run("u1.rs", "faas-core");
    assert_eq!(count(&v, Rule::U1), 2, "{v:?}");
    assert_eq!(count(&v, Rule::A0), 1, "{v:?}");
    assert_eq!(v.len(), 3, "{v:?}");
}

#[test]
fn p1_corpus() {
    let v = run("p1.rs", "sim");
    // Two positives plus the print behind the bare allow; the
    // cfg(test) print and both justified allows are silent.
    assert_eq!(count(&v, Rule::P1), 3, "{v:?}");
    assert_eq!(count(&v, Rule::A0), 1, "{v:?}");
    assert_eq!(v.len(), 4, "{v:?}");
}

#[test]
fn p1_exempts_binaries_and_terminal_crates() {
    use cidre_lint::analyze_file;
    let src = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join("p1.rs"),
    )
    .expect("fixture readable");
    // A binary target, a crate main.rs, and the crates whose product
    // is terminal output are all out of scope (A0 from the bare allow
    // still fires — suppression hygiene is never exempt).
    for (crate_name, rel_path) in [
        ("bench", "crates/bench/src/bin/experiments.rs"),
        ("lint", "crates/lint/src/main.rs"),
        ("lint", "crates/lint/src/rules.rs"),
        ("testkit", "crates/testkit/src/bench.rs"),
    ] {
        let ctx = FileContext {
            crate_name: crate_name.to_string(),
            rel_path: rel_path.to_string(),
            file_kind: FileKind::Source,
        };
        let v: Vec<(Rule, u32)> = analyze_file(&ctx, &src)
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect();
        assert_eq!(count(&v, Rule::P1), 0, "{rel_path}: {v:?}");
        assert_eq!(count(&v, Rule::A0), 1, "{rel_path}: {v:?}");
    }
}

/// Runs the workspace concurrency pass over one fixture under a
/// caller-chosen relative path and seed config.
fn run_workspace(fixture: &str, rel_path: &str, cfg_toml: &str) -> Vec<(Rule, u32)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(fixture);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    let cfg = LocksConfig::parse(cfg_toml).expect("test seed config parses");
    let files = vec![SourceFile {
        ctx: FileContext {
            crate_name: "fixt".to_string(),
            rel_path: rel_path.to_string(),
            file_kind: FileKind::Source,
        },
        src,
    }];
    analyze_workspace(&files, &cfg)
        .into_iter()
        .map(|(_, v)| (v.rule, v.line))
        .collect()
}

#[test]
fn g1_corpus() {
    let v = run("g1.rs", "live");
    // Simple positive, the two-guard positive, and the await behind
    // the bare allow; both justified allows and the three negative
    // shapes (drop-first, scoped-out, deref copy) are silent.
    assert_eq!(count(&v, Rule::G1), 3, "{v:?}");
    assert_eq!(count(&v, Rule::A0), 1, "{v:?}");
    assert_eq!(v.len(), 4, "{v:?}");
}

#[test]
fn k1_corpus() {
    let cfg = "[k1]\nscope = [\"crates/fixt/\"]\n";
    let v = run_workspace("k1.rs", "crates/fixt/src/k1.rs", cfg);
    // Direct wake under guard, the one-level-deep call, and the call
    // behind the bare allow; `notify` itself (wake after drop), the
    // justified allow, and the multi-rule allow in `dual` are silent.
    assert_eq!(count(&v, Rule::K1), 3, "{v:?}");
    assert_eq!(v.len(), 3, "{v:?}");
    // The bare allow and the suppressed G1 in `dual` surface through
    // the per-file pass: exactly one A0, no G1.
    let f = run("k1.rs", "fixt");
    assert_eq!(count(&f, Rule::A0), 1, "{f:?}");
    assert_eq!(count(&f, Rule::G1), 0, "{f:?}");
}

#[test]
fn k1_is_silent_outside_its_scope() {
    let cfg = "[k1]\nscope = [\"crates/live/src/exec/\"]\n";
    let v = run_workspace("k1.rs", "crates/fixt/src/k1.rs", cfg);
    assert!(v.is_empty(), "{v:?}");
}

const L1_CFG: &str = "\
[[lock]]
name = \"alpha\"
files = [\"crates/fixt/src/l1.rs\"]
field = \"alpha\"

[[lock]]
name = \"beta\"
files = [\"crates/fixt/src/l1.rs\"]
field = \"beta\"
";

#[test]
fn l1_corpus() {
    let v = run_workspace("l1.rs", "crates/fixt/src/l1.rs", L1_CFG);
    // Both edges of the alpha/beta cycle, the re-entrant self-edge,
    // and the edge behind the bare allow; the justified allow and the
    // sequential `ordered` are silent.
    assert_eq!(count(&v, Rule::L1), 4, "{v:?}");
    assert_eq!(v.len(), 4, "{v:?}");
    let f = run("l1.rs", "fixt");
    assert_eq!(count(&f, Rule::A0), 1, "{f:?}");
    assert_eq!(f.len(), 1, "{f:?}");
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
    let cfg = LocksConfig::parse(L1_CFG).expect("config parses");
    let scan = |src: &str| -> Vec<Rule> {
        let files = vec![SourceFile {
            ctx: FileContext {
                crate_name: "fixt".to_string(),
                rel_path: "crates/fixt/src/l1.rs".to_string(),
                file_kind: FileKind::Source,
            },
            src: src.to_string(),
        }];
        analyze_workspace(&files, &cfg)
            .into_iter()
            .map(|(_, v)| v.rule)
            .collect()
    };
    assert!(scan(agree).is_empty(), "consistent order must be silent");
    let v = scan(flipped);
    assert_eq!(v.len(), 2, "both cycle edges flagged: {v:?}");
    assert!(v.iter().all(|r| *r == Rule::L1), "{v:?}");
}

#[test]
fn multi_rule_allow_suppresses_each_listed_rule() {
    let src = "fn f() { let t = Instant::now(); } // lint:allow(W1,G1): fixture clock\n";
    let ctx = FileContext {
        crate_name: "sim".to_string(),
        rel_path: "crates/sim/src/x.rs".to_string(),
        file_kind: FileKind::Source,
    };
    let v = analyze_file(&ctx, src);
    assert!(v.is_empty(), "both rules listed, W1 suppressed: {v:?}");
}

#[test]
fn unknown_rule_in_multi_rule_list_poisons_the_directive() {
    // One bogus id invalidates the whole directive: A0 fires and
    // nothing is suppressed.
    let ctx = FileContext {
        crate_name: "sim".to_string(),
        rel_path: "crates/sim/src/x.rs".to_string(),
        file_kind: FileKind::Source,
    };
    for allow in ["lint:allow(W1,Z9): x", "lint:allow(W1,A0): x"] {
        let src = format!("fn f() {{ let t = Instant::now(); }} // {allow}\n");
        let v: Vec<(Rule, u32)> = analyze_file(&ctx, &src)
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect();
        assert_eq!(count(&v, Rule::A0), 1, "{allow}: {v:?}");
        assert_eq!(count(&v, Rule::W1), 1, "{allow}: {v:?}");
    }
}

#[test]
fn lint_crate_lints_itself_clean() {
    // The analyzer must hold itself to its own rules — zero findings
    // (and zero suppressions needed) across its sources.
    let src_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut checked = 0;
    for entry in std::fs::read_dir(&src_dir).expect("src dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().map(|e| e == "rs") != Some(true) {
            continue;
        }
        let name = path.file_name().expect("file name").to_string_lossy();
        let ctx = classify(&format!("crates/lint/src/{name}"));
        let src = std::fs::read_to_string(&path).expect("readable");
        let v = analyze_file(&ctx, &src);
        assert!(v.is_empty(), "crates/lint/src/{name}: {v:?}");
        checked += 1;
    }
    assert!(checked >= 8, "expected the full module set, saw {checked}");
}

#[test]
fn fixtures_are_silent_outside_their_scoped_crate() {
    // The same source, classified into a crate outside the rule's
    // scope, must not fire (W1/F1 apply everywhere and are exempt).
    assert_eq!(count(&run("o1.rs", "testkit"), Rule::O1), 0);
    assert_eq!(count(&run("c1.rs", "policies"), Rule::C1), 0);
    assert_eq!(count(&run("e1.rs", "bench"), Rule::E1), 0);
    assert_eq!(count(&run("u1.rs", "metrics"), Rule::U1), 0);
}
