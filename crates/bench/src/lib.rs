//! Experiment harness regenerating every table and figure of the CIDRE
//! paper's evaluation (see `DESIGN.md` §5 for the experiment index).
//!
//! Each experiment is a function over an [`ExpCtx`] that narrates the
//! paper's rows/series into its own [`Out`] and writes CSV files under
//! the output directory. The `experiments` binary exposes them as
//! subcommands and prints each run's narration:
//!
//! ```text
//! cargo run --release -p cidre-bench --bin experiments -- fig12 --quick
//! cargo run --release -p cidre-bench --bin experiments -- all
//! ```
//!
//! `--quick` shrinks the workloads (fewer functions, shorter traces,
//! proportionally smaller caches) so the full suite runs in minutes; the
//! default scale matches the paper's sampled workloads (Table 1).
//! `all` runs the experiments `--jobs` at a time; one that fans its
//! simulation runs out as well then has up to `jobs²` threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// DESIGN.md §8, in library code outside tests: no printing (P1).
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod experiments;
mod registry;
pub mod workloads;

/// What one experiment run leaves besides its files: its narration
/// (tables, charts, per-run progress lines) and how many artifacts it
/// could not write. Each run owns one, so runs share no state.
#[derive(Debug, Default)]
pub struct Out {
    /// The narration, in the order the run wrote it.
    pub text: String,
    /// Artifacts [`ExpCtx::save_text`] could not write in this run. The
    /// runners carry on past a failed write; the `experiments` CLI
    /// exits non-zero on any.
    pub write_failures: usize,
}

impl Out {
    /// Appends to [`Self::text`]: what `write!` and `writeln!` on an
    /// `Out` call. Formatting into a `String` cannot fail, so this
    /// returns nothing to check.
    pub fn write_fmt(&mut self, args: std::fmt::Arguments<'_>) {
        self.text.push_str(&args.to_string());
    }

    /// Appends one line with nothing to format.
    pub fn line(&mut self, text: &str) {
        self.text.push_str(text);
        self.text.push('\n');
    }
}

pub use registry::{registry, run_by_name, Experiment};
pub use workloads::{ExpCtx, Scale, SweepOverrides, Workload};
