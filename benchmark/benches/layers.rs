//! The per-layer table of the traced run: every layer measured from
//! outside, by timing calls into its crate's public functions.
//!
//! Each probe runs inside a span of its own name and gets a share of the
//! run's window; its metric is a median over the batches (or pairs) that
//! fit. The single-operation probes run at the sizes the workload showed
//! — event-heap depth, idle-pool size, function count — so that
//! `count × ns` from this table adds up to a share of
//! `engine.ns_per_req`. The differential probes (reference scans, memory
//! series, tracing, shards, run-level fan-out, live replay) replay the
//! first minute of the workload's trace, so that several pairs fit.
//!
//! Which end-to-end metric each line should move, on which workload, is
//! the table in README.md.

use std::time::Duration;

use crate::adapter::{
    event_push_pop, pool_evict_enter_leave, pool_evict_pop_min, pool_freethread_set_pick,
    pool_pending_push_pop, Engine, ExecProbe, Host, Outcome, PolicyProbe, Replay, Stack,
};
use crate::estimator::{median, percentile, Stopwatch};
use crate::spans::Tracer;
use crate::Metric;

/// What the traced passes showed, for sizing the probes and turning
/// their costs into shares.
pub struct Observed<'a> {
    pub replay: &'a Replay,
    /// The report of one sequential CIDRE run of `replay`.
    pub outcome: &'a Outcome,
    pub engine_ns_per_req: f64,
}

/// Seconds of trace the differential probes replay, and the shorter
/// slice for the two engines that are much slower than `run`.
const HEAD_S: u64 = 60;
const SLICE_S: u64 = 10;
/// Operations per batch of a single-operation probe.
const BATCH: usize = 100_000;

/// Runs `batch(ops)` until `budget_s` is spent; median nanoseconds per
/// operation over the batches.
fn ns_per_op(
    tracer: &mut Tracer,
    name: &'static str,
    budget_s: f64,
    ops: usize,
    mut batch: impl FnMut(usize),
) -> f64 {
    let started = Stopwatch::start();
    let mut samples = Vec::new();
    loop {
        let id = tracer.enter(name);
        let t = Stopwatch::start();
        batch(ops);
        samples.push(t.seconds() * 1e9 / ops as f64);
        tracer.exit(id);
        if started.seconds() >= budget_s {
            return median(&samples);
        }
    }
}

/// Runs `a` and `b` back to back, alternating which goes first, until
/// `budget_s` is spent; the median of `a / b` over the pairs.
fn paired_ratio(
    tracer: &mut Tracer,
    name: &'static str,
    budget_s: f64,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> f64 {
    let started = Stopwatch::start();
    let mut ratios = Vec::new();
    let time = |f: &mut dyn FnMut()| {
        let t = Stopwatch::start();
        f();
        t.seconds()
    };
    loop {
        let id = tracer.enter(name);
        let (ta, tb) = if ratios.len() % 2 == 0 {
            let ta = time(&mut a);
            (ta, time(&mut b))
        } else {
            let tb = time(&mut b);
            (time(&mut a), tb)
        };
        tracer.exit(id);
        ratios.push(ta / tb);
        if started.seconds() >= budget_s {
            return median(&ratios);
        }
    }
}

/// Every probe, within about `budget_s` seconds in all.
pub fn probe_all(seen: &Observed<'_>, budget_s: f64, tracer: &mut Tracer) -> Vec<Metric> {
    let mut out = Vec::new();
    let unit = budget_s / 40.0; // the weights below add up to 40
    let requests = seen.outcome.requests() as f64;

    // ---- engine: differentials on the first minute of the trace
    let head = seen.replay.head(HEAD_S);
    let run = |engine| {
        let head = &head;
        move || drop(head.run(Stack::Cidre, engine))
    };
    let events_per_req = seen.outcome.events_est(seen.replay.tick_s()) / requests;
    out.push(Metric::new(
        "engine.events_per_req_est",
        events_per_req,
        "count",
    ));
    out.push(Metric::new(
        "engine.reference_scan_ratio",
        paired_ratio(
            tracer,
            "probe.engine.reference_scan",
            4.0 * unit,
            run(Engine::ReferenceScan),
            run(Engine::Sequential),
        ),
        "ratio",
    ));
    let without = paired_ratio(
        tracer,
        "probe.engine.memseries",
        3.0 * unit,
        run(Engine::NoMemorySeries),
        run(Engine::Sequential),
    );
    out.push(Metric::new(
        "engine.memseries_share",
        1.0 - without,
        "ratio",
    ));

    // ---- event heap at the depth the engine starts from (every arrival
    // is queued up front)
    let push_pop = ns_per_op(tracer, "probe.event.push_pop", unit, BATCH, |ops| {
        event_push_pop(seen.replay.requests() as usize, ops)
    });
    out.push(Metric::new("event.push_pop_ns", push_pop, "ns"));
    out.push(Metric::new(
        "event.share_est",
        push_pop * events_per_req / seen.engine_ns_per_req,
        "ratio",
    ));

    // ---- faas-core pool types at the idle-pool size of the workload
    let pool = seen.outcome.containers_alive() as usize;
    for (name, span, probe) in [
        (
            "pool.evict_enter_leave_ns",
            "probe.pool.evict_enter_leave",
            pool_evict_enter_leave as fn(usize, usize),
        ),
        (
            "pool.evict_pop_min_ns",
            "probe.pool.evict_pop_min",
            pool_evict_pop_min,
        ),
        (
            "pool.freethread_set_pick_ns",
            "probe.pool.freethread_set_pick",
            pool_freethread_set_pick,
        ),
        (
            "pool.pending_push_pop_ns",
            "probe.pool.pending_push_pop",
            pool_pending_push_pop,
        ),
    ] {
        let ns = ns_per_op(tracer, span, unit, BATCH, |ops| probe(pool, ops));
        out.push(Metric::new(name, ns, "ns"));
    }

    // ---- policy callbacks, and how many of them a request costs
    let mut policy = PolicyProbe::new(seen.replay.functions());
    let css = ns_per_op(tracer, "probe.policy.css_on_blocked", unit, BATCH, |ops| {
        policy.css_on_blocked(ops)
    });
    out.push(Metric::new("policy.css_on_blocked_ns", css, "ns"));
    let cip = ns_per_op(tracer, "probe.policy.cip_priority", unit, BATCH, |ops| {
        policy.cip_priority(ops)
    });
    out.push(Metric::new("policy.cip_priority_ns", cip, "ns"));
    let gdsf = ns_per_op(tracer, "probe.policy.gdsf_priority", unit, BATCH, |ops| {
        policy.gdsf_priority(ops)
    });
    out.push(Metric::new("policy.gdsf_priority_ns", gdsf, "ns"));
    // One admission decision per request that found no free container,
    // one priority evaluation per container that went idle or was evicted.
    let blocked = (seen.outcome.cold() + seen.outcome.delayed()) as f64 / requests;
    let decisions = blocked + seen.outcome.evictions() as f64 / requests;
    out.push(Metric::new("policy.decisions_per_req", decisions, "count"));
    out.push(Metric::new(
        "policy.css_share_est",
        css * blocked / seen.engine_ns_per_req,
        "ratio",
    ));

    // ---- report post-processing
    for (name, span, f) in [
        (
            "report.summary_ns_per_req",
            "probe.report.summary",
            Outcome::summarize as fn(&Outcome),
        ),
        (
            "report.cdf_ns_per_req",
            "probe.report.cdf",
            Outcome::build_cdf,
        ),
        (
            "report.csv_ns_per_req",
            "probe.report.csv",
            Outcome::write_csv,
        ),
    ] {
        let ns = ns_per_op(tracer, span, unit, 1, |_| f(seen.outcome));
        out.push(Metric::new(name, ns / requests, "ns"));
    }

    // ---- paths no end-to-end run takes
    let mut traced = None;
    let ratio = paired_ratio(
        tracer,
        "probe.obs.traced",
        3.0 * unit,
        || traced = Some(head.run_traced()),
        run(Engine::Sequential),
    );
    out.push(Metric::new("obs.traced_ratio", ratio, "ratio"));
    let (traced_outcome, log) = traced.expect("at least one pair ran");
    out.push(Metric::new(
        "obs.events_per_req",
        log.events() as f64 / traced_outcome.requests() as f64,
        "count",
    ));
    let ns = ns_per_op(tracer, "probe.obs.waterfall", unit, 1, |_| {
        std::hint::black_box(log.waterfalls());
    });
    out.push(Metric::new(
        "obs.waterfall_ns_per_event",
        ns / log.events() as f64,
        "ns",
    ));
    let mut bytes = 0;
    let ns = ns_per_op(tracer, "probe.obs.chrome", unit, 1, |_| {
        bytes = log.chrome_json_bytes();
    });
    out.push(Metric::new(
        "obs.chrome_mb_per_s",
        bytes as f64 / 1e6 / (ns / 1e9),
        "MB/s",
    ));

    // Ten seconds of trace: the sharded engine has only ever been
    // recorded at 0.03–0.04× the sequential one.
    let slice = seen.replay.head(SLICE_S);
    let (mut sharded, mut sequential) = (0, 0);
    let ratio = paired_ratio(
        tracer,
        "probe.shard",
        4.0 * unit,
        || sharded = slice.run(Stack::Cidre, Engine::Sharded2).digest(),
        || sequential = slice.run(Stack::Cidre, Engine::Sequential).digest(),
    );
    out.push(Metric::new("shard.ratio_2", ratio, "ratio"));
    out.push(Metric::new(
        "shard.identical",
        f64::from(sequential == sharded),
        "count",
    ));
    out.push(Metric::new(
        "par.speedup_2",
        paired_ratio(
            tracer,
            "probe.par",
            3.0 * unit,
            || drop(head.run_par(4, 1)),
            || drop(head.run_par(4, 2)),
        ),
        "ratio",
    ));

    // Live replay of the same ten seconds, one simulated second per ten
    // real milliseconds.
    let id = tracer.enter("probe.runtime");
    let live = slice.run_live(0.01);
    let simulated = slice.run(Stack::Cidre, Engine::Sequential);
    tracer.exit(id);
    let live_requests = live.outcome.requests() as f64;
    out.push(Metric::new(
        "runtime.lag_ratio",
        live.wall_s / live.scaled_span_s,
        "ratio",
    ));
    out.push(Metric::new(
        "runtime.cold_ratio_delta",
        live.outcome.cold() as f64 / live_requests
            - simulated.cold() as f64 / simulated.requests() as f64,
        "ratio",
    ));
    out.push(Metric::new(
        "runtime.timer_fires_per_req",
        live.timer_fires as f64 / live_requests,
        "count",
    ));
    out.push(Metric::new(
        "runtime.peak_tasks",
        live.peak_tasks as f64,
        "count",
    ));

    // ---- each baseline stack, on the first minute
    for stack in Stack::BASELINES {
        let id = tracer.enter(stack.span());
        let t = Stopwatch::start();
        let outcome = head.run(stack, Engine::Sequential);
        let seconds = t.seconds();
        tracer.exit(id);
        out.push(Metric {
            name: format!("policy.{}.ns_per_req", stack.name()),
            value: seconds * 1e9 / outcome.requests() as f64,
            unit: "ns",
        });
    }

    // ---- the executor under the live stack
    let exec = ExecProbe::start();
    let ns = ns_per_op(tracer, "probe.exec.spawn_join", unit, 2_000, |ops| {
        exec.spawn_join(ops)
    });
    out.push(Metric::new("exec.spawn_join_ns", ns, "ns"));
    let ns = ns_per_op(tracer, "probe.exec.channel_rtt", unit, 2_000, |ops| {
        exec.channel_rtt(ops)
    });
    out.push(Metric::new("exec.channel_rtt_ns", ns, "ns"));
    let ns = ns_per_op(tracer, "probe.exec.spawn_blocking", unit, 2_000, |ops| {
        exec.spawn_blocking_rtt(ops)
    });
    out.push(Metric::new("exec.spawn_blocking_rtt_us", ns / 1e3, "us"));
    let id = tracer.enter("probe.exec.timer");
    let timers = ((unit / 0.0012) as usize).clamp(20, 2_000);
    let late = exec.timer_lateness_us(timers, Duration::from_millis(1));
    tracer.exit(id);
    out.push(Metric::new(
        "exec.timer_late_p50_us",
        percentile(&late, 50.0),
        "us",
    ));
    out.push(Metric::new(
        "exec.timer_late_p99_us",
        percentile(&late, 99.0),
        "us",
    ));
    exec.shutdown();

    // ---- the live host, one invocation at a time
    let mut start_shutdown_ms = Vec::new();
    let started = Stopwatch::start();
    while start_shutdown_ms.len() < 3 || started.seconds() < unit {
        let id = tracer.enter("probe.host.start_shutdown");
        let t = Stopwatch::start();
        drop(Host::start(4, 128, 100, 8 * 1024).shutdown());
        start_shutdown_ms.push(t.seconds() * 1e3);
        tracer.exit(id);
    }
    out.push(Metric::new(
        "host.start_shutdown_ms",
        median(&start_shutdown_ms),
        "ms",
    ));
    let functions = 256;
    let host = Host::start(functions, 128, 100, 64 * 1024);
    let rtt_us = |func: u32| {
        let t = Stopwatch::start();
        let reply = host.invoke(func, vec![7]).wait();
        assert_eq!(reply, Some(vec![7]), "echo");
        t.seconds() * 1e6
    };
    let id = tracer.enter("probe.host.cold_rtt");
    let cold: Vec<f64> = (0..functions).map(rtt_us).collect();
    tracer.exit(id);
    out.push(Metric::new(
        "host.cold_rtt_p50_us",
        percentile(&cold, 50.0),
        "us",
    ));
    let id = tracer.enter("probe.host.rtt");
    let started = Stopwatch::start();
    let mut warm = Vec::new();
    while warm.len() < 100 || started.seconds() < 2.0 * unit {
        warm.push(rtt_us(0));
    }
    tracer.exit(id);
    out.push(Metric::new(
        "host.rtt_p50_us",
        percentile(&warm, 50.0),
        "us",
    ));
    out.push(Metric::new(
        "host.rtt_p99_us",
        percentile(&warm, 99.0),
        "us",
    ));
    drop(host.shutdown());

    out
}
