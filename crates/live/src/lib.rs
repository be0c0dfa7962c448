//! A live mini-FaaS host: the same policies, real threads, real clocks.
//!
//! The paper implements CIDRE inside OpenLambda and measures a running
//! system; the rest of this workspace reproduces that with a
//! deterministic discrete-event simulator ([`faas_sim`]). This crate is
//! the bridge between the two: it executes a trace against the **wall
//! clock** — arrivals injected by a real-time driver, provisioning and
//! execution latencies realised as actual timed delays, and an
//! orchestrator task that reacts to events in whatever order the OS
//! delivers them.
//!
//! There is no second copy of the mechanics here. Both modes below are
//! *drivers* of [`faas_sim::Orchestrator`], the same sans-IO state
//! machine the simulator steps on a virtual clock (DESIGN.md §4): this
//! crate reads the wall clock, turns "deliver this event at simulated
//! time T" into an entry of the driver's own deadline heap, woken by
//! one timer on its own executor ([`exec`]), and — in the host — runs
//! real handlers and answers callers. Dispatch,
//! queueing, REPLACE, deferral, fault handling and recording are the
//! core's, so live runs double as a fidelity check for the simulator:
//! identical policy code and identical mechanics race against genuine
//! asynchrony instead of a deterministic virtual clock, and the
//! resulting class ratios should (and do — see the integration tests)
//! agree with simulation up to timing noise.
//!
//! Two modes are provided:
//!
//! * [`run_live`] — replay a [`faas_trace::Trace`] against the wall
//!   clock (execution latencies realised as timed delays).
//! * [`FaasHost`] — a programmable host: deploy real Rust handlers,
//!   invoke them from any thread, and receive outputs together with the
//!   warm / delayed-warm / cold outcome the policy produced.
//!
//! Time is compressed by [`LiveConfig::time_scale`] so a 30-minute trace
//! can replay in seconds; waits are reported in *simulated* time units
//! for direct comparison with [`faas_sim::SimReport`].
//!
//! Limitations relative to the simulator (documented, not hidden):
//! runs are **not deterministic** (that is the point), and timing
//! granularity is bounded by OS sleep precision, so heavily compressed
//! traces blur near-simultaneous events.
//!
//! # Examples
//!
//! ```
//! use faas_live::{run_live, LiveConfig};
//! use faas_sim::baseline_lru_stack;
//! use faas_trace::gen;
//!
//! let trace = gen::azure(3).functions(5).minutes(1).build();
//! // 1 simulated second = 1 real millisecond: the minute replays in 60 ms.
//! let config = LiveConfig::default().time_scale(0.001);
//! let report = run_live(&trace, &config, baseline_lru_stack());
//! assert_eq!(report.requests.len(), trace.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// DESIGN.md §8, in library code outside tests: no printing (P1).
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![expect(
    clippy::disallowed_types,
    reason = "this crate is the wall-clock substrate: timers, deadlines and lag are Instants"
)]

pub mod exec;
mod heap;
mod host;
mod mailbox;
mod runtime;

pub use host::{FaasHost, Handler, InvokeHandle, InvokeOutcome};
pub use runtime::{run_live, run_live_stats, run_live_traced, LiveConfig, LiveStats};
