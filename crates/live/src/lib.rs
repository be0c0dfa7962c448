//! A live mini-FaaS host: the same policies, real threads, real clocks.
//!
//! The paper implements CIDRE inside OpenLambda and measures a running
//! system; the rest of this workspace reproduces that with a
//! deterministic discrete-event simulator ([`faas_sim`]). This crate is
//! the bridge between the two: it runs the same policies against the
//! **wall clock**, with provisioning and execution latencies realised
//! as actual timed delays.
//!
//! There is no second copy of the mechanics here (DESIGN.md §4). Two
//! modes are provided:
//!
//! * [`run_live`] — replay a [`faas_trace::Trace`] against the wall
//!   clock. This is the simulator's own replay loop,
//!   [`faas_sim::run_on_clock`], handed a clock that sleeps the
//!   caller's thread until each event falls due.
//! * [`FaasHost`] — a programmable host: deploy real Rust handlers,
//!   invoke them from any thread, and receive outputs together with the
//!   warm / delayed-warm / cold outcome the policy produced. It drives
//!   [`faas_sim::Orchestrator`], the sans-IO state machine under both
//!   loops, from one thread of its own: timed events are entries of that
//!   thread's deadline heap, it blocks on its channel until the earliest
//!   of them, and handlers run on a blocking pool ([`exec`]).
//!
//! Dispatch, queueing, REPLACE, deferral, fault handling and recording
//! are the core's, so live runs race identical policy code and
//! identical mechanics against genuine asynchrony instead of a
//! deterministic virtual clock.
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
mod runtime;

pub use host::{FaasHost, Handler, InvokeHandle, InvokeOutcome};
pub use runtime::{run_live, run_live_stats, LiveConfig, LiveStats};
