//! Workspace walker: finds every `.rs` file, classifies it as source or
//! test context, and runs the concurrency pass over all of them.

use std::path::{Path, PathBuf};

use crate::conc::{analyze_workspace, FileKind, LocksConfig, SourceFile, Violation};

/// Scan output.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// `(workspace-relative path, finding)`, sorted by path, then
    /// line, then rule.
    pub findings: Vec<(String, Violation)>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Directories never scanned: build output, VCS, experiment output,
/// and the fixture corpus (whose files are violations on purpose).
fn skip_dir(rel: &str) -> bool {
    rel == "target"
        || rel == ".git"
        || rel == "results"
        || rel == "crates/lint/fixtures"
        || rel.starts_with('.')
}

/// Files under any `tests/`, `benches/`, or `examples/` directory are
/// test context; everything else is source.
pub fn classify(rel: &str) -> FileKind {
    let is_test = ["tests/", "benches/", "examples/"]
        .iter()
        .any(|m| rel.starts_with(m) || rel.contains(&format!("/{m}")));
    if is_test {
        FileKind::TestFile
    } else {
        FileKind::Source
    }
}

fn rel_path(root: &Path, path: &Path) -> Result<String, String> {
    let rel = path
        .strip_prefix(root)
        .map_err(|_| "walk escaped root".to_string())?;
    let parts: Vec<_> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect();
    Ok(parts.join("/"))
}

/// Scans the workspace rooted at `root` with its own seeds
/// ([`LocksConfig::WORKSPACE`]). I/O errors on individual files are
/// fatal: a gate that silently skips unreadable files is not a gate.
pub fn scan_workspace(root: &Path) -> Result<ScanResult, String> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    let mut sources = Vec::new();
    for path in paths {
        let rel_path = rel_path(root, &path)?;
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let kind = classify(&rel_path);
        sources.push(SourceFile {
            rel_path,
            kind,
            src,
        });
    }
    let mut findings: Vec<(String, Violation)> =
        analyze_workspace(&sources, &LocksConfig::WORKSPACE)
            .into_iter()
            .map(|(idx, v)| (sources[idx].rel_path.clone(), v))
            .collect();
    findings.sort_by(|(pa, a), (pb, b)| (pa, a.line, a.rule).cmp(&(pb, b.line, b.rule)));
    Ok(ScanResult {
        findings,
        files_scanned: sources.len(),
    })
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walking {}: {e}", dir.display()))?;
        let path = entry.path();
        let rel = rel_path(root, &path)?;
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
    fn classify_derives_testness() {
        for source in ["crates/sim/src/engine.rs", "src/lib.rs"] {
            assert_eq!(classify(source), FileKind::Source, "{source}");
        }
        for test in [
            "crates/sim/tests/oracle_edges.rs",
            "tests/determinism.rs",
            "examples/quickstart.rs",
            "crates/bench/benches/sim_throughput.rs",
        ] {
            assert_eq!(classify(test), FileKind::TestFile, "{test}");
        }
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
