//! Open-loop load generator for the live trace replay.
//!
//! Builds a seeded arrival schedule ([`faas_testkit::Arrivals`]), turns
//! it into a trace, replays it on the wall clock (`faas_live::run_live`,
//! the simulator's loop sleeping until each event is due) *and* through
//! the deterministic simulator, then prints both sides: sustained
//! requests/sec, p50 / p99 / p999 wait (exact, from every request's
//! record), and the warm / delayed-warm / cold class split. The
//! schedule is a pure function of the seed, so any run can be
//! reproduced and cross-checked byte-for-byte.
//!
//! Usage: `live_load [--smoke] [--seed=N] [--stack=cidre]`
//!
//! * `--smoke` — the CI configuration: ~1500 requests, finishes in
//!   about a second. The default (full) configuration keeps **>= 10 000
//!   requests in flight at once** and asserts that it did.
//! * `--seed=N` — arrival-schedule seed (default 9).
//! * `--stack=cidre` — drive the CIDRE policy stack instead of the
//!   default FaasCache stack.
//!
//! The process exits non-zero when the live run drops a request, fails
//! its concurrency floor, or diverges from the simulator beyond the
//! documented noise bounds: class ratios within 0.25, p50/p99 wait
//! within 150 simulated ms (cold starts are 300 ms, so this tolerates
//! scheduling jitter but catches systematic distortion like an event
//! loop that cannot keep up). The extreme tail (p999) additionally
//! absorbs worst-case OS-scheduling and policy-cost hiccups on the
//! slowest handful of requests — real-time phenomena, so its bound is
//! a fixed real-millisecond budget that time compression scales into
//! simulated milliseconds.
//!
//! Both sides also report their cost ledgers (DESIGN.md §11). The live
//! ledger is charged in *virtual* time, so residency is dominated by
//! the deterministic execution schedule; only container lifetime
//! decisions (eviction timing, racer outcomes) differ under real
//! scheduling jitter. Total GB-seconds must therefore agree within a
//! 25% relative bound — loose enough for lifetime jitter, tight enough
//! to catch a charge class that drifts or double-counts.

use std::process::ExitCode;

use cidre_core::{cidre_stack, CidreConfig};
use faas_live::{run_live_stats, LiveConfig};
use faas_policies::faascache_stack;
use faas_sim::{run, PolicyStack, SimConfig, SimReport, StartClass};
use faas_testkit::Arrivals;
use faas_trace::{FunctionId, FunctionProfile, Invocation, TimeDelta, TimePoint, Trace};

/// Class-ratio agreement bound between live and simulated runs.
const RATIO_TOLERANCE: f64 = 0.25;

/// Wait-percentile agreement bound, in simulated milliseconds.
const WAIT_TOLERANCE_MS: f64 = 150.0;

/// Extra real-time jitter budget for the p999 tail, in *real*
/// milliseconds; divided by the time scale to land in simulated units.
const TAIL_JITTER_REAL_MS: f64 = 60.0;

/// Relative live-vs-sim agreement bound on total ledger GB-seconds
/// (see the module docs for why virtual-time charging keeps this
/// tight).
const GBS_TOLERANCE: f64 = 0.25;

/// One load-generator configuration (all times simulated).
struct Scenario {
    requests: usize,
    functions: u32,
    /// Arrival window; with `exec` longer than it, every request
    /// overlaps every other.
    window: TimeDelta,
    exec: TimeDelta,
    /// Simulated-to-real compression (`0.05` = 1 s simulated in 50 ms).
    time_scale: f64,
    cache_gb: u64,
    /// Concurrency floor the live run must reach.
    min_inflight: u64,
}

impl Scenario {
    fn smoke() -> Self {
        Self {
            requests: 1_500,
            functions: 8,
            window: TimeDelta::from_secs(10),
            exec: TimeDelta::from_secs(12),
            time_scale: 0.02,
            cache_gb: 100,
            min_inflight: 1_000,
        }
    }

    fn full() -> Self {
        // 12 000 requests over 40 simulated seconds (~170 us of real
        // time apart at 1:20 compression — above per-event policy
        // cost), each executing 60 s, so the in-flight population
        // climbs to the full 12 000. The cache is sized so capacity,
        // not eviction pressure, bounds the container count
        // (12 000 / 4 threads = 3 000 containers of 128 MB).
        Self {
            requests: 12_000,
            functions: 8,
            window: TimeDelta::from_secs(40),
            exec: TimeDelta::from_secs(60),
            time_scale: 0.05,
            cache_gb: 400,
            min_inflight: 10_000,
        }
    }

    /// The seeded trace: Poisson arrivals over `window`, functions
    /// assigned round-robin, fixed execution time.
    fn trace(&self, seed: u64) -> Trace {
        let profiles: Vec<FunctionProfile> = (0..self.functions)
            .map(|i| {
                FunctionProfile::new(
                    FunctionId(i),
                    format!("f{i}"),
                    128,
                    TimeDelta::from_millis(300),
                )
            })
            .collect();
        let rate = self.requests as f64 / (self.window.as_millis_f64() / 1e3);
        let invs: Vec<Invocation> = Arrivals::poisson(seed, rate)
            .take(self.requests)
            .enumerate()
            .map(|(i, at_us)| Invocation {
                func: FunctionId(i as u32 % self.functions),
                arrival: TimePoint::from_micros(at_us),
                exec: self.exec,
            })
            .collect();
        Trace::new(profiles, invs).expect("generated trace is valid")
    }

    /// The cluster both sides run on.
    fn sim_config(&self) -> SimConfig {
        SimConfig::with_cache_gb(self.cache_gb).container_threads(4)
    }
}

/// The wait percentiles both sides print and compare.
const WAIT_PERCENTILES: [(&str, f64); 3] = [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)];

/// One side's [`WAIT_PERCENTILES`] in simulated milliseconds, exact over
/// every request (all zero for an empty report).
fn wait_percentiles(report: &SimReport) -> [f64; 3] {
    let cdf = report.wait_cdf();
    WAIT_PERCENTILES.map(|(_, q)| if cdf.is_empty() { 0.0 } else { cdf.quantile(q) })
}

fn ratio_line(report: &SimReport) -> String {
    format!(
        "warm {:.3}  delayed-warm {:.3}  cold {:.3}",
        report.ratio(StartClass::Warm),
        report.ratio(StartClass::DelayedWarm),
        report.ratio(StartClass::Cold),
    )
}

/// One side's cost-ledger columns (DESIGN.md §11), in GB-seconds.
fn ledger_line(report: &SimReport) -> String {
    let l = &report.ledger;
    format!(
        "keep-warm {:.1} GB-s  idle {:.1} GB-s  cold-start {:.1} GB-s  \
         speculative {:.1} GB-s  {:.4} GB-s/req",
        l.keep_warm_gb_s(),
        l.idle_gb_s(),
        l.cold_start_gb_s(),
        l.speculative_gb_s(),
        report.gb_s_per_request(),
    )
}

fn percentile_line([p50, p99, p999]: [f64; 3]) -> String {
    format!("p50 {p50:.1} ms  p99 {p99:.1} ms  p999 {p999:.1} ms")
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut seed = 9u64;
    let mut cidre = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--stack=cidre" => cidre = true,
            a if a.starts_with("--seed=") => {
                seed = match a["--seed=".len()..].parse() {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("live_load: bad --seed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => {
                eprintln!(
                    "live_load: unknown argument {other}\n\
                     usage: live_load [--smoke] [--seed=N] [--stack=cidre]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let scenario = if smoke {
        Scenario::smoke()
    } else {
        Scenario::full()
    };
    let mk: fn() -> PolicyStack = if cidre {
        || cidre_stack(CidreConfig::default())
    } else {
        faascache_stack
    };
    let stack_name = if cidre { "cidre" } else { "faascache" };
    println!(
        "live_load: {} requests over {:.0} s simulated, exec {:.0} s, seed {seed}, \
         stack {stack_name}, 1:{:.0} compression",
        scenario.requests,
        scenario.window.as_millis_f64() / 1e3,
        scenario.exec.as_millis_f64() / 1e3,
        1.0 / scenario.time_scale,
    );

    let trace = scenario.trace(seed);
    let sim_cfg = scenario.sim_config();
    let live_cfg = LiveConfig::default()
        .sim(sim_cfg.clone())
        .time_scale(scenario.time_scale);

    let simulated = run(&trace, &sim_cfg, mk());
    let (live, stats) = run_live_stats(&trace, &live_cfg, mk());

    let sim_waits = wait_percentiles(&simulated);
    let live_waits = wait_percentiles(&live);
    println!("  sim : {}", ratio_line(&simulated));
    println!("        {}", percentile_line(sim_waits));
    println!("        {}", ledger_line(&simulated));
    println!("  live: {}", ratio_line(&live));
    println!("        {}", percentile_line(live_waits));
    println!("        {}", ledger_line(&live));
    let rps = live.requests.len() as f64 / stats.wall.as_secs_f64();
    println!(
        "  live: {} requests in {:.2} s wall = {:.0} req/s sustained; \
         peak in-flight {}, timer fires {}, max lateness {:.1} ms \
         (sleep overshoot {:.1} ms, step work {:.1} ms)",
        live.requests.len(),
        stats.wall.as_secs_f64(),
        rps,
        stats.peak_inflight,
        stats.timer_fires,
        stats.max_lateness.as_millis_f64(),
        stats.max_overshoot.as_millis_f64(),
        stats.max_step_work.as_millis_f64(),
    );

    let mut ok = true;
    if live.requests.len() != trace.len() {
        eprintln!(
            "live_load: dropped requests: {} served of {}",
            live.requests.len(),
            trace.len()
        );
        ok = false;
    }
    if stats.peak_inflight < scenario.min_inflight {
        eprintln!(
            "live_load: concurrency floor missed: peak in-flight {} < {}",
            stats.peak_inflight, scenario.min_inflight
        );
        ok = false;
    }
    for class in [StartClass::Warm, StartClass::DelayedWarm, StartClass::Cold] {
        let (s, l) = (simulated.ratio(class), live.ratio(class));
        if (s - l).abs() > RATIO_TOLERANCE {
            eprintln!("live_load: {class:?} ratio diverged: sim {s:.3} vs live {l:.3}");
            ok = false;
        }
    }
    for (((label, p), s), l) in WAIT_PERCENTILES.into_iter().zip(sim_waits).zip(live_waits) {
        let mut bound = WAIT_TOLERANCE_MS;
        if p == 0.999 {
            bound += TAIL_JITTER_REAL_MS / scenario.time_scale;
        }
        if (s - l).abs() > bound {
            eprintln!(
                "live_load: {label} wait diverged: sim {s:.1} ms vs live {l:.1} ms \
                 (bound {bound:.0} ms; the latest event was stepped {:.1} ms late, \
                 sleep overshoot {:.1} ms, step work {:.1} ms)",
                stats.max_lateness.as_millis_f64(),
                stats.max_overshoot.as_millis_f64(),
                stats.max_step_work.as_millis_f64(),
            );
            ok = false;
        }
    }
    {
        let (s, l) = (simulated.ledger.total_gb_s(), live.ledger.total_gb_s());
        if (s - l).abs() > GBS_TOLERANCE * s.max(l) {
            eprintln!(
                "live_load: total GB-seconds diverged: sim {s:.1} vs live {l:.1} \
                 (relative bound {GBS_TOLERANCE})"
            );
            ok = false;
        }
    }

    if ok {
        println!("live_load: ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Most smoke requests start on a free warm thread, so the exact
    /// median wait is zero.
    #[test]
    fn smoke_sim_median_wait_is_exactly_zero() {
        let scenario = Scenario::smoke();
        let trace = scenario.trace(9);
        let report = run(&trace, &scenario.sim_config(), faascache_stack());
        let line = percentile_line(wait_percentiles(&report));
        assert!(line.starts_with("p50 0.0 ms  "), "{line}");
    }
}
