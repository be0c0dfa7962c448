//! Workspace walker: finds every `.rs` file, derives its
//! [`FileContext`], runs the per-file rules and the seeded workspace
//! concurrency pass, and aggregates per-(rule, crate) counts for the
//! ratchet.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::conc::{analyze_workspace, SourceFile};
use crate::locks::LocksConfig;
use crate::rules::{analyze_file, FileContext, FileKind, Rule, Violation};

/// One file's findings, workspace-relative.
#[derive(Debug)]
pub struct FileReport {
    /// `/`-separated path relative to the workspace root.
    pub rel_path: String,
    /// Crate key used in the baseline.
    pub crate_name: String,
    /// Violations surviving suppression.
    pub violations: Vec<Violation>,
}

/// Aggregated scan output.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// Per-file findings, sorted by path.
    pub files: Vec<FileReport>,
    /// Live counts per (rule, crate), zero entries omitted.
    pub counts: BTreeMap<(Rule, String), usize>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Directories never scanned: build output, VCS, experiment output,
/// and the lint fixture corpus (whose files are violations on purpose).
fn skip_dir(rel: &str) -> bool {
    rel == "target"
        || rel == ".git"
        || rel == "results"
        || rel == "crates/lint/fixtures"
        || rel.starts_with('.')
}

/// Derives the baseline crate key and test-ness from a relative path.
///
/// Crate key is the directory name under `crates/` (`sim`,
/// `faas-core`, …) or `"root"` for the workspace-root package. Files
/// under any `tests/`, `benches/`, or `examples/` directory are test
/// context; everything else is source.
pub fn classify(rel: &str) -> FileContext {
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("root")
        .to_string();
    let test_markers = ["tests/", "benches/", "examples/"];
    let is_test = test_markers
        .iter()
        .any(|m| rel.starts_with(m) || rel.contains(&format!("/{m}")));
    FileContext {
        crate_name,
        rel_path: rel.to_string(),
        file_kind: if is_test {
            FileKind::TestFile
        } else {
            FileKind::Source
        },
    }
}

/// Scans the workspace rooted at `root`: the per-file rules on every
/// `.rs` file, then the workspace concurrency pass (K1/L1) seeded
/// from `<root>/lint-locks.toml` — a missing seed file leaves those
/// rules silent; a malformed one is fatal. I/O errors on individual
/// files are fatal too: a lint gate that silently skips unreadable
/// files is not a gate.
pub fn scan_workspace(root: &Path) -> Result<ScanResult, String> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    let locks_path = root.join("lint-locks.toml");
    let cfg = match std::fs::read_to_string(&locks_path) {
        Ok(text) => {
            LocksConfig::parse(&text).map_err(|e| format!("{}: {e}", locks_path.display()))?
        }
        Err(_) => LocksConfig::default(),
    };

    let mut sources: Vec<SourceFile> = Vec::new();
    let mut per_file: Vec<Vec<Violation>> = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .map_err(|_| "walk escaped root".to_string())?
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let ctx = classify(&rel);
        per_file.push(analyze_file(&ctx, &src));
        sources.push(SourceFile { ctx, src });
    }
    for (idx, v) in analyze_workspace(&sources, &cfg) {
        per_file[idx].push(v);
    }

    let mut result = ScanResult {
        files_scanned: sources.len(),
        ..ScanResult::default()
    };
    for (file, mut violations) in sources.into_iter().zip(per_file) {
        violations.sort_by_key(|v| (v.line, v.rule));
        for v in &violations {
            *result
                .counts
                .entry((v.rule, file.ctx.crate_name.clone()))
                .or_insert(0) += 1;
        }
        if !violations.is_empty() {
            result.files.push(FileReport {
                rel_path: file.ctx.rel_path,
                crate_name: file.ctx.crate_name,
                violations,
            });
        }
    }
    Ok(result)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walking {}: {e}", dir.display()))?;
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .map_err(|_| "walk escaped root".to_string())?
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        let ty = entry
            .file_type()
            .map_err(|e| format!("stat {}: {e}", path.display()))?;
        if ty.is_dir() {
            if !skip_dir(&rel) {
                walk(root, &path, out)?;
            }
        } else if ty.is_file() && rel.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_derives_crate_and_testness() {
        let c = classify("crates/sim/src/engine.rs");
        assert_eq!(c.crate_name, "sim");
        assert_eq!(c.file_kind, FileKind::Source);
        let c = classify("crates/sim/tests/oracle_edges.rs");
        assert_eq!(c.crate_name, "sim");
        assert_eq!(c.file_kind, FileKind::TestFile);
        let c = classify("tests/determinism.rs");
        assert_eq!(c.crate_name, "root");
        assert_eq!(c.file_kind, FileKind::TestFile);
        let c = classify("examples/quickstart.rs");
        assert_eq!(c.file_kind, FileKind::TestFile);
        let c = classify("src/lib.rs");
        assert_eq!(c.crate_name, "root");
        assert_eq!(c.file_kind, FileKind::Source);
        let c = classify("crates/bench/benches/sim_throughput.rs");
        assert_eq!(c.crate_name, "bench");
        assert_eq!(c.file_kind, FileKind::TestFile);
    }

    #[test]
    fn fixture_corpus_and_target_are_skipped() {
        assert!(skip_dir("target"));
        assert!(skip_dir("crates/lint/fixtures"));
        assert!(skip_dir(".git"));
        assert!(!skip_dir("crates/lint/src"));
        assert!(!skip_dir("crates"));
    }
}
