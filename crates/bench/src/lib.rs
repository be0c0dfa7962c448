//! Experiment harness regenerating every table and figure of the CIDRE
//! paper's evaluation (see `DESIGN.md` §5 for the experiment index).
//!
//! Each experiment is a function over an [`ExpCtx`] that prints the
//! paper's rows/series to stdout and writes CSV files under the output
//! directory. The `experiments` binary exposes them as subcommands:
//!
//! ```text
//! cargo run --release -p cidre-bench --bin experiments -- fig12 --quick
//! cargo run --release -p cidre-bench --bin experiments -- all
//! ```
//!
//! `--quick` shrinks the workloads (fewer functions, shorter traces,
//! proportionally smaller caches) so the full suite runs in minutes; the
//! default scale matches the paper's sampled workloads (Table 1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// DESIGN.md §8, in library code outside tests: no printing (P1).
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

pub mod experiments;
mod registry;
pub mod workloads;

/// Global quiet switch: when set, experiment narration (tables, charts,
/// per-run progress lines) is suppressed. The golden and determinism
/// tests enable this so `cargo test` logs stay reasonable; CSV outputs
/// are still written.
static QUIET: AtomicBool = AtomicBool::new(false);

/// Artifacts [`ExpCtx::save_text`] could not write, process-wide.
static FAILED_WRITES: AtomicUsize = AtomicUsize::new(0);

/// How many artifact writes have failed so far. The runners carry on
/// past a failed write; the `experiments` CLI exits non-zero on any.
pub fn failed_writes() -> usize {
    FAILED_WRITES.load(Ordering::Relaxed)
}

/// Enables or disables experiment narration globally.
pub fn set_quiet(quiet: bool) {
    QUIET.store(quiet, Ordering::Relaxed);
}

/// Whether experiment narration is currently suppressed.
pub fn is_quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

/// `println!` that respects the global quiet switch.
#[macro_export]
macro_rules! say {
    ($($arg:tt)*) => {
        if !$crate::is_quiet() {
            // The narration sink every other print in this library
            // routes through; the quiet switch is its off knob.
            println!($($arg)*);
        }
    };
}

pub use registry::{registry, run_by_name, Experiment};
pub use workloads::{ExpCtx, Scale, SweepOverrides, Workload};
