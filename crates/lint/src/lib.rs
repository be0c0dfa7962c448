//! `cidre-lint` — the two concurrency rules nothing else can express.
//!
//! The determinism and safety rules of DESIGN.md §8 are clippy lints
//! (`clippy.toml`, `[workspace.lints.clippy]`, the `deny` lines in each
//! crate's `lib.rs`), checked with type information by `ci.sh`'s clippy
//! step. What clippy has no lint for is the executor's lock discipline
//! (DESIGN.md §10): **K1**, no `wake()` — direct or one call deep —
//! while a lock guard is held, and **L1**, no cycle in the order the
//! named locks of `crates/live/src/exec` are acquired in. Both need a
//! flow walk and cross-file state; this crate is that and nothing more.
//!
//! Hermetic like the rest of the workspace: a hand-rolled lexer and a
//! brace-tree parser, no `syn`, no external crates. The seeds are a
//! `const` table ([`LocksConfig::WORKSPACE`]); there is no
//! configuration file, no suppression and no baseline — a finding is
//! fixed. `cargo test` runs the scan (`tests/workspace_scan.rs`). See
//! DESIGN.md §13 for the parser and the rule semantics.

pub mod conc;
pub mod lexer;
pub mod parser;
pub mod scan;

pub use conc::{analyze_workspace, FileKind, LockSpec, LocksConfig, Rule, SourceFile, Violation};
pub use scan::{classify, scan_workspace, ScanResult};
