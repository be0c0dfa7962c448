//! Micro-benchmarks of CIDRE's decision paths.
//!
//! The paper reports Algorithm 1 adding ≈36 µs per decision in
//! OpenLambda; here the pure in-memory decision (no RPC, no Go runtime)
//! should be far below that. Also benches the CIP priority computation
//! that eviction sorts by.

use std::collections::HashMap;
use std::hint::black_box;
use std::process::ExitCode;

use cidre_core::{CidreConfig, CipKeepAlive, CssScaler};
use faas_sim::{
    ClusterState, ContainerInfo, KeepAlive, PolicyCtx, RequestId, RequestInfo, Scaler, StartClass,
    WorkerId,
};
use faas_testkit::{BenchStats, Harness, Rng};
use faas_trace::{FunctionId, FunctionProfile, TimeDelta, TimePoint};

fn harness() -> ClusterState {
    let profiles: Vec<FunctionProfile> = (0..64)
        .map(|i| {
            FunctionProfile::new(
                FunctionId(i),
                format!("f{i}"),
                256,
                TimeDelta::from_millis(300),
            )
        })
        .collect();
    let mut cl = ClusterState::new(&[1_000_000], profiles, 1);
    for i in 0..64u32 {
        let id = cl.begin_provision(FunctionId(i), WorkerId(0), TimePoint::ZERO, false);
        cl.finish_provision(id, TimePoint::ZERO);
        cl.note_arrival(FunctionId(i), TimePoint::ZERO);
    }
    cl
}

fn bench_css_decision(h: &mut Harness) {
    let cl = harness();
    let busy = HashMap::new();
    let mut css = CssScaler::new(CidreConfig::default());
    // Prime statistics for one function.
    let req = RequestInfo {
        id: RequestId(0),
        func: FunctionId(0),
        arrival: TimePoint::ZERO,
    };
    for t in 0..100u64 {
        let ctx = PolicyCtx::new(TimePoint::from_millis(t), &cl, &busy);
        css.on_start(
            &req,
            StartClass::DelayedWarm,
            TimeDelta::from_millis(5),
            TimeDelta::from_millis(20),
            &ctx,
        );
    }
    css.on_cold_outcome(
        FunctionId(0),
        Some(TimeDelta::from_millis(5)),
        &PolicyCtx::new(TimePoint::from_millis(100), &cl, &busy),
    );
    h.bench("css_on_blocked (Algorithm 1 decision)", || {
        let ctx = PolicyCtx::new(TimePoint::from_millis(200), &cl, &busy);
        black_box(css.on_blocked(&req, &ctx));
    });
}

/// Algorithm 1 as a loaded function sees it: `retained` execution times
/// in `Te`'s 15-minute window, and between any two decisions one request
/// starts (a record, and once the window is full an expiry) — the
/// steady state of `seq_pressure`, whose mean window is ≈270. The lane
/// above primes 100 observations and never records again, so it cannot
/// see a cost that grows with the window.
fn bench_css_decision_at(h: &mut Harness, retained: u64) -> Option<BenchStats> {
    let cl = harness();
    let busy = HashMap::new();
    let config = CidreConfig::default();
    let mut css = CssScaler::new(config);
    let window = config.window.expect("default window is bounded");
    let step_us = window.as_micros() / retained;
    let mut rng = Rng::seed_from_u64(retained);
    let mut now_us = 0;
    let mut step = |css: &mut CssScaler| {
        now_us += step_us;
        let ctx = PolicyCtx::new(TimePoint::from_micros(now_us), &cl, &busy);
        let req = RequestInfo {
            id: RequestId(0),
            func: FunctionId(0),
            arrival: ctx.now,
        };
        let exec = TimeDelta::from_micros(rng.range_u64(1_000, 1_000_000));
        css.on_start(&req, StartClass::Warm, TimeDelta::ZERO, exec, &ctx);
        css.on_blocked(&req, &ctx)
    };
    for _ in 0..retained {
        step(&mut css);
    }
    h.bench(&format!("css_on_blocked/window_{retained}"), || {
        black_box(step(&mut css));
    })
}

fn bench_cip_priority(h: &mut Harness) {
    let cl = harness();
    let busy = HashMap::new();
    let cip = CipKeepAlive::new();
    let info = ContainerInfo::from(cl.container(faas_sim::ContainerId(0)).expect("live"));
    h.bench("cip_priority (Eq. 3)", || {
        let ctx = PolicyCtx::new(TimePoint::from_secs(60), &cl, &busy);
        black_box(cip.priority(&info, &ctx));
    });
}

/// Maximum ratio of the CSS decision's cost at 16 384 retained
/// observations to its cost at 256. Measured on the gate host: 6x for
/// the incremental order statistic (one shift of a third of the sorted
/// mirror), 29x with one copy of the window per decision, 115x with the
/// copy-and-sort it replaced; six smoke runs gave 6.0x to 7.8x.
const MAX_CSS_WINDOW_SCALING: f64 = 16.0;

fn main() -> ExitCode {
    let mut h = Harness::new("policy_overhead");
    bench_css_decision(&mut h);
    let small = bench_css_decision_at(&mut h, 256);
    let large = bench_css_decision_at(&mut h, 16_384);
    bench_cip_priority(&mut h);

    // Algorithm 1's decision may not scale with the function's window
    // the way a per-decision sort or copy of it would. A name filter
    // that selects one lane of the pair skips the check.
    if let (Some(small), Some(large)) = (small, large) {
        let scaling = large.median_ns / small.median_ns;
        println!(
            "policy_overhead: css_on_blocked {:.0} ns at 16384 observations vs {:.0} ns at 256: \
             {scaling:.1}x (limit {MAX_CSS_WINDOW_SCALING}x)",
            large.median_ns, small.median_ns
        );
        if scaling > MAX_CSS_WINDOW_SCALING {
            eprintln!("policy_overhead: css_on_blocked scales with its window");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
