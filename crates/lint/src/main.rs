//! CLI: `cargo run -p cidre-lint`. Scans the workspace this crate was
//! built in and prints every K1/L1 finding.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/IO error.

use std::path::Path;
use std::process::ExitCode;

use cidre_lint::scan_workspace;

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        None => {}
        Some("--help" | "-h") => {
            eprintln!(
                "cidre-lint: the executor's lock discipline, checked statically\n\
                 \n\
                 USAGE: cidre-lint\n\
                 \n\
                 Scans every .rs file of the workspace for K1 (a wake, direct or\n\
                 one call deep, while a lock guard is held in crates/live/src/exec)\n\
                 and L1 (a cycle in the acquisition order of that executor's named\n\
                 locks). There is nothing to configure and nothing to suppress: a\n\
                 finding is fixed. The other rules of DESIGN.md §8 are clippy's."
            );
            return ExitCode::SUCCESS;
        }
        Some(other) => {
            eprintln!("cidre-lint: unknown argument `{other}` (try --help)");
            return ExitCode::from(2);
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let result = match scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cidre-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for (path, v) in &result.findings {
        println!("{:?} {path}:{} {}", v.rule, v.line, v.message);
    }
    println!(
        "cidre-lint: scanned {} files, {} finding(s)",
        result.files_scanned,
        result.findings.len()
    );
    if result.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
