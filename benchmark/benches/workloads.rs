//! The four workloads: what each one sets up and what one pass does.
//!
//! Why these four (the layer each stresses, and the one it bypasses, is
//! in README.md):
//!
//! * `seq_pressure` — the paper's tightest Fig. 12 point: an 80 GB cache
//!   under the 5-minute Azure-shaped trace evicts 74k containers for 99k
//!   requests, so the pool index, CIP priority and CSS decision do most
//!   of the work.
//! * `seq_warm` — the same trace with room for everything: no eviction,
//!   so only the event heap, the warm path, the ledger and the report
//!   work. An eviction-path change must leave it unchanged.
//! * `policy_mix` — the nine baseline stacks on one trace: the same
//!   engine and pool index used through the re-scan, tick-expiry and
//!   prewarm paths that CIDRE does not take.
//! * `host_closed` — the live host under a closed loop of 64
//!   invocations: the reactor → channel → orchestrator → blocking-pool
//!   chain does all the work and the DES none.

use std::collections::VecDeque;

use crate::adapter::{zipf_draws, Engine, Host, Outcome, Pending, Replay, Stack, Trace};
use crate::estimator::Calibrator;
use crate::spans::{threads_now, Tracer};

pub const NAMES: [&str; 4] = ["seq_pressure", "seq_warm", "policy_mix", "host_closed"];

/// Functions deployed on the live host, their size, and the one worker
/// they share: 64 of the 256 fit at once.
const HOST_FUNCTIONS: u32 = 256;
const HOST_FUNCTION_MB: u32 = 128;
const HOST_WORKER_MB: u64 = 8 * 1024;
const HOST_COLD_MS: u64 = 100;
/// Outstanding invocations the one client keeps, and invocations a pass.
/// With 64 outstanding the pass-to-pass spread was 23% against 8–13%
/// with 16: more blocking-pool threads than CPUs turn throughput into a
/// matter of scheduling luck.
const HOST_WINDOW: usize = 16;
const HOST_PASS_INVOCATIONS: usize = 20_000;
const HOST_ZIPF_S: f64 = 0.9;

/// What one pass did.
pub struct Pass {
    /// Simulated requests or host invocations completed.
    pub requests: u64,
    /// Calibrated seconds of the timed calls of the pass.
    pub seconds: f64,
    pub wall_s: f64,
    pub cold: u64,
    pub delayed: u64,
    /// Sum over requests of `wait ÷ (wait + exec)`.
    pub overhead: f64,
    /// Operations checked and operations that failed the check.
    pub attempted: u64,
    pub failed: u64,
    /// The digest of every run of the pass.
    pub digests: Vec<u64>,
    /// Their reports, kept only by the traced run: holding the four
    /// reports of a `seq_warm` call made `peak_rss_mb` a measure of the
    /// benchmark and moved it 11% between runs.
    pub outcomes: Vec<Outcome>,
}

impl Pass {
    fn new() -> Self {
        Pass {
            requests: 0,
            seconds: 0.0,
            wall_s: 0.0,
            cold: 0,
            delayed: 0,
            overhead: 0.0,
            attempted: 0,
            failed: 0,
            digests: Vec::new(),
            outcomes: Vec::new(),
        }
    }

    /// Folds one run's report into the pass's counts, as soon as the run
    /// returns: reading the report is part of what a user waits for.
    fn tally(&mut self, outcome: Outcome, keep: bool) {
        self.requests += outcome.requests();
        self.cold += outcome.cold();
        self.delayed += outcome.delayed();
        self.overhead += outcome.overhead_ratio() * outcome.requests() as f64;
        self.digests.push(outcome.digest());
        if keep {
            self.outcomes.push(outcome);
        }
    }
}

struct ReplayWorkload {
    replay: Replay,
    /// The runs of one pass, timed `runs_per_call` at a time.
    runs: Vec<Stack>,
    runs_per_call: usize,
    /// Digest of each run of the warm-up pass; every later pass must
    /// reproduce them.
    digests: Vec<u64>,
}

struct HostWorkload {
    draws: Vec<u32>,
    threads_peak: f64,
    /// The traced run's stand-in for the trace this workload lacks: the
    /// first minute of `seq_pressure`'s, on its cluster.
    probe: Option<Replay>,
}

enum Kind {
    Replay(ReplayWorkload),
    Host(HostWorkload),
}

pub struct Workload {
    pub name: &'static str,
    kind: Kind,
}

impl Workload {
    /// Everything a user pays before the first timed pass: trace
    /// generation, a CSV round trip, cluster or host construction, and
    /// one untimed warm-up pass. Spans are recorded when `tracer` is on.
    pub fn setup(name: &str, seed: u64, tracer: &mut Tracer) -> Workload {
        let name = *NAMES
            .iter()
            .find(|n| **n == name)
            .expect("workload name was checked");
        let kind = if name == "host_closed" {
            Kind::Host(HostWorkload {
                draws: zipf_draws(
                    seed,
                    HOST_PASS_INVOCATIONS,
                    HOST_FUNCTIONS as usize,
                    HOST_ZIPF_S,
                ),
                threads_peak: 0.0,
                probe: tracer
                    .is_on()
                    .then(|| Replay::new(load_trace(seed, 5, tracer).head(60), 80)),
            })
        } else {
            let (minutes, cache_gb, runs, runs_per_call) = match name {
                "seq_pressure" => (5, 80, vec![Stack::Cidre], 1),
                // 400 GB still evicted 18–258 containers once the phases
                // were rotated; 800 GB evicts none on any seed tried.
                "seq_warm" => (5, 800, vec![Stack::Cidre; 4], 4),
                // At the 120 GB first sized, eight of the nine stacks sat
                // at 98% cold starts once the phases were rotated: a cliff
                // on which they do not differ. At 240 GB they spread from
                // 9% to 57% cold and from 4k to 33k evictions.
                _ => (3, 240, Stack::BASELINES.to_vec(), 3),
            };
            Kind::Replay(ReplayWorkload {
                replay: Replay::new(load_trace(seed, minutes, tracer), cache_gb),
                runs,
                runs_per_call,
                digests: Vec::new(),
            })
        };
        let mut workload = Workload { name, kind };
        let warm_up = workload.pass(&mut Calibrator::off(), tracer);
        assert_eq!(warm_up.failed, 0, "warm-up pass failed");
        if let Kind::Replay(w) = &mut workload.kind {
            w.digests = warm_up.digests;
        }
        workload
    }

    /// Whether two passes must produce the same outputs. The live host
    /// races real threads, so `host_closed` is not.
    pub fn deterministic(&self) -> bool {
        matches!(self.kind, Kind::Replay(_))
    }

    /// The trace and cluster the replay-shaped layer probes run on.
    pub fn probe_replay(&self) -> &Replay {
        match &self.kind {
            Kind::Replay(w) => &w.replay,
            Kind::Host(w) => w.probe.as_ref().expect("set up with the tracer on"),
        }
    }

    /// Most threads the process had while a host pass was being driven.
    pub fn threads_peak(&self) -> f64 {
        match &self.kind {
            Kind::Replay(_) => threads_now(),
            Kind::Host(w) => w.threads_peak,
        }
    }

    pub fn pass(&mut self, cal: &mut Calibrator, tracer: &mut Tracer) -> Pass {
        let pass_span = tracer.enter("pass");
        let pass = match &mut self.kind {
            Kind::Replay(w) => w.pass(cal, tracer),
            Kind::Host(w) => w.pass(cal, tracer),
        };
        tracer.exit(pass_span);
        tracer.count("pass.requests", pass.requests);
        pass
    }
}

/// Generates the trace of `seed` and takes it through the CSV format and
/// back, as a user who keeps traces on disk would.
fn load_trace(seed: u64, minutes: u64, tracer: &mut Tracer) -> Trace {
    let id = tracer.enter("trace.gen");
    let trace = Trace::generate(seed, minutes);
    tracer.exit(id);
    let id = tracer.enter("trace.csv_write");
    let csv = trace.to_csv();
    tracer.exit(id);
    let id = tracer.enter("trace.csv_parse");
    let parsed = Trace::from_csv(&csv);
    tracer.exit(id);
    tracer.count("trace.requests", trace.requests());
    tracer.count("trace.csv_bytes", csv.len() as u64);
    assert!(parsed.same_as(&trace), "CSV round trip changed the trace");
    parsed
}

impl ReplayWorkload {
    fn pass(&self, cal: &mut Calibrator, tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::new();
        for call in self.runs.chunks(self.runs_per_call) {
            let ((), timing) = cal.timed(|| {
                for stack in call {
                    let id = tracer.enter(stack.span());
                    let outcome = self.replay.run(*stack, Engine::Sequential);
                    tracer.exit(id);
                    let check = tracer.enter("check");
                    pass.attempted += self.replay.requests();
                    pass.failed += outcome.failed(&self.replay);
                    pass.tally(outcome, tracer.is_on());
                    tracer.exit(check);
                }
            });
            pass.seconds += timing.calibrated_s;
            pass.wall_s += timing.wall_s;
        }
        // A run whose report differs from the warm-up pass's fails as a
        // whole: the sequential engine is deterministic.
        for (digest, expected) in pass.digests.iter().zip(&self.digests) {
            if digest != expected {
                pass.failed += self.replay.requests();
            }
        }
        pass
    }
}

impl HostWorkload {
    fn pass(&mut self, cal: &mut Calibrator, tracer: &mut Tracer) -> Pass {
        let id = tracer.enter("host.start");
        let host = Host::start(
            HOST_FUNCTIONS,
            HOST_FUNCTION_MB,
            HOST_COLD_MS,
            HOST_WORKER_MB,
        );
        tracer.exit(id);

        // Only the closed loop is timed; `start` and `shutdown` are not.
        let draws = &self.draws;
        let mut threads = 0.0;
        let mut failed = 0u64;
        let ((), timing) = cal.timed(|| {
            let drive = tracer.enter("host.drive");
            let mut window = VecDeque::with_capacity(HOST_WINDOW);
            let mut settle = |(pending, sent): (Pending, u64)| {
                if pending.wait() != Some(sent.to_le_bytes().to_vec()) {
                    failed += 1;
                }
            };
            for (i, func) in draws.iter().enumerate() {
                if window.len() == HOST_WINDOW {
                    settle(window.pop_front().expect("window is full"));
                }
                let tag = i as u64;
                window.push_back((host.invoke(*func, tag.to_le_bytes().to_vec()), tag));
            }
            threads = threads_now();
            window.into_iter().for_each(&mut settle);
            tracer.exit(drive);
        });
        self.threads_peak = self.threads_peak.max(threads);

        let id = tracer.enter("host.shutdown");
        let report = host.shutdown();
        tracer.exit(id);
        let attempted = self.draws.len() as u64;
        failed += report.requests().abs_diff(attempted);
        let mut pass = Pass::new();
        pass.seconds = timing.calibrated_s;
        pass.wall_s = timing.wall_s;
        pass.attempted = attempted;
        pass.failed = failed;
        pass.tally(report, tracer.is_on());
        pass
    }
}
