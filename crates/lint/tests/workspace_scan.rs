//! The analyzer inside `cargo test`: the workspace has no K1 or L1
//! finding, and neither rule has a way to accept one.

use std::path::Path;

use cidre_lint::scan_workspace;

#[test]
fn workspace_has_no_k1_or_l1_finding() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let result = scan_workspace(&root).expect("workspace scan succeeds");
    assert!(result.files_scanned > 100, "{}", result.files_scanned);
    assert!(result.findings.is_empty(), "{:#?}", result.findings);
}
