//! The indexes in the docs name what the code has: DESIGN.md §5 lists
//! every experiment the `experiments` binary runs, in its order, and
//! README's crate table lists every package of the workspace.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The lines of `doc` from the heading starting `start` up to the next
/// `## ` heading.
fn section<'a>(doc: &'a str, start: &str) -> Vec<&'a str> {
    doc.lines()
        .skip_while(|l| !l.starts_with(start))
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .collect()
}

/// The first cell of every body row of the first table in `lines`,
/// without its backticks.
fn first_column(lines: &[&str]) -> Vec<String> {
    lines
        .iter()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // header and separator
        .map(|l| {
            l.split('|')
                .nth(1)
                .unwrap_or_default()
                .trim()
                .replace('`', "")
        })
        .collect()
}

/// The `name` of a manifest's `[package]` table.
fn package_name(manifest: &Path) -> String {
    let text = read(manifest);
    text.lines()
        .skip_while(|l| l.trim() != "[package]")
        .find_map(|l| l.trim().strip_prefix("name = "))
        .map(|v| v.trim_matches('"').to_string())
        .unwrap_or_else(|| panic!("{}: no [package] name", manifest.display()))
}

#[test]
fn design_experiment_index_matches_the_registry() {
    let design = read(&root().join("DESIGN.md"));
    let listed = first_column(&section(&design, "## 5."));
    let registered: Vec<String> = cidre_bench::registry()
        .iter()
        .map(|e| e.name.to_string())
        .collect();
    assert_eq!(listed, registered, "DESIGN.md §5's ID column");
}

#[test]
fn readme_crate_table_names_every_package() {
    let readme = read(&root().join("README.md"));
    let mut listed: Vec<String> = first_column(&readme.lines().collect::<Vec<_>>())
        .into_iter()
        // `[name](path)` → `name`
        .map(|cell| {
            cell.trim_start_matches('[')
                .split(']')
                .next()
                .unwrap_or_default()
                .to_string()
        })
        .collect();
    listed.sort();

    let mut packages = vec![package_name(&root().join("Cargo.toml"))];
    for entry in fs::read_dir(root().join("crates")).expect("crates/ is readable") {
        let manifest = entry.expect("a directory entry").path().join("Cargo.toml");
        if manifest.exists() {
            packages.push(package_name(&manifest));
        }
    }
    packages.sort();
    assert_eq!(listed, packages, "README.md's crate table");
}
