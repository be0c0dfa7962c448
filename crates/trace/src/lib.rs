//! FaaS workload traces for the CIDRE reproduction.
//!
//! The paper evaluates CIDRE on two production traces (Azure Functions and
//! Alibaba Cloud Function Compute, Table 1) that are not publicly
//! redistributable at the fidelity the experiments need. This crate
//! provides:
//!
//! * a trace **model** ([`Trace`], [`FunctionProfile`], [`Invocation`])
//!   shared with the simulator,
//! * seeded **synthetic generators** ([`gen::azure`], [`gen::fc`],
//!   [`gen::SyntheticWorkload`]) that reproduce the published marginals the
//!   policies are sensitive to — Zipf function popularity, bursty
//!   concurrency (Fig. 3), lognormal execution times with ≈25% variance
//!   (§2.6), memory-proportional cold-start latency (§2.2),
//! * **transforms** used by the sensitivity studies ([`transform`]):
//!   inter-arrival-time scaling (Fig. 19), execution-time scaling
//!   (Figs. 10, 20), cold-start scaling (Fig. 9), sampling and slicing,
//! * **statistics** ([`stats`]) reproducing Table 1 and Figs. 2–3, and
//! * plain-text **serialisation** ([`io`]).
//!
//! # Examples
//!
//! ```
//! use faas_trace::gen;
//!
//! let trace = gen::azure(42).functions(20).minutes(2).build();
//! assert!(trace.invocations().len() > 100);
//! let stats = faas_trace::stats::TraceStats::compute(&trace);
//! assert!(stats.rps_avg > 0.0);
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
        reason = "microsecond timestamps and request counts convert to f64 throughout; all \
                  sit far below 2^53, where the conversion is exact"
    )
)]

pub mod gen;
pub mod io;
mod model;
pub mod stats;
mod time;
pub mod transform;

pub use model::{FunctionId, FunctionProfile, Invocation, Trace, TraceError};
pub use time::{TimeDelta, TimePoint};
