//! Statistical primitives shared by the CIDRE reproduction.
//!
//! This crate provides the measurement substrate used across the
//! workspace: empirical CDFs ([`Cdf`]), percentile estimation
//! ([`percentile`]), online summaries ([`Summary`]), time-based sliding
//! windows ([`SlidingWindow`]) as used by CIDRE's conditional
//! speculative scaling, step-function time series
//! ([`TimeSeries`]) for memory-usage accounting, and plain-text rendering
//! helpers ([`Table`], [`AsciiChart`]) used by the experiment harness.
//!
//! For runs too large to keep every sample, [`P2Quantile`] estimates a
//! single quantile in constant memory (the P² algorithm), and
//! [`PercentileSink`] bundles several such estimators with exact
//! count / min / max / mean — the measurement endpoint for open-loop
//! load generation.
//!
//! Everything here is dependency-free, deterministic, and `f64`-based; the
//! simulator keeps integer microseconds internally and converts at the
//! measurement boundary.
//!
//! # Examples
//!
//! ```
//! use faas_metrics::{Cdf, percentile};
//!
//! let cdf = Cdf::from_samples([3.0, 1.0, 2.0, 4.0]);
//! assert_eq!(cdf.quantile(0.5), 2.5);
//! assert_eq!(cdf.fraction_at_or_below(2.5), 0.5);
//! assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 100.0), 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// DESIGN.md §8, in library code outside tests: no walk of a hash
// collection and no environment read (O1, E1), no lossy cast (C1), no
// printing (P1).
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::iter_over_hash_type,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]
#![cfg_attr(
    not(test),
    expect(
        clippy::cast_precision_loss,
        reason = "sample counts, ranks and plot widths convert to f64 throughout; all sit \
                  far below 2^53, where the conversion is exact"
    )
)]

mod ascii;
mod cdf;
mod pareto;
mod percentile;
mod quantile;
mod sink;
mod sliding;
mod summary;
mod table;
mod timeseries;

pub use ascii::{AsciiChart, AsciiWaterfall};
pub use cdf::Cdf;
pub use pareto::{pareto_frontier, ParetoPoint};
pub use percentile::{mean, median, percentile, std_dev};
pub use quantile::P2Quantile;
pub use sink::PercentileSink;
pub use sliding::SlidingWindow;
pub use summary::Summary;
pub use table::Table;
pub use timeseries::TimeSeries;
