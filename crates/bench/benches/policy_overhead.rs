//! Micro-benchmark of Algorithm 1's decision (CSS) against its window.
//!
//! The paper reports Algorithm 1 adding ≈36 µs per decision in
//! OpenLambda; here the pure in-memory decision (no RPC, no Go runtime)
//! should be far below that, and may not grow with the window the way a
//! per-decision sort would. The `window_*` lanes time a decision that
//! reads `Te`'s median, which CSS does only for an idle time `Ti`
//! strictly between 0 and infinity; `ti_zero` times the common case,
//! which reads no statistic. The fixed-size decision and CIP's priority
//! are `benchmark/`'s `policy.css_on_blocked_ns` and
//! `policy.cip_priority_ns` probes.

use std::hint::black_box;
use std::process::ExitCode;

use cidre_core::{CidreConfig, CssScaler};
use faas_sim::{ClusterState, RequestId, RequestInfo, Scaler, StartClass, WorkerId};
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

/// Algorithm 1 as a loaded function sees it: `retained` execution times
/// in `Te`'s 15-minute window, and between any two decisions one request
/// starts (a record, and once the window is full an expiry) — the
/// steady state of `seq_pressure`, whose mean window is ≈270. A decision
/// over a window primed once and never recorded into again cannot see a
/// cost that grows with the window.
///
/// Each step also reports a speculative container idle for `ti`. CSS
/// reads `Te` only for a `Ti` strictly between 0 and infinity, so the
/// `window_*` lanes pass 2 ms: inside that range and far below the
/// ≈500 ms median, so BSS stays on and every decision reads the median.
/// The `ti_zero` lane passes 0, the common case, which reads no
/// statistic.
fn bench_css_decision_at(
    h: &mut Harness,
    name: &str,
    retained: u64,
    ti: TimeDelta,
) -> Option<BenchStats> {
    let cl = harness();
    let config = CidreConfig::default();
    let mut css = CssScaler::new(config);
    let window = config.window.expect("default window is bounded");
    let step_us = window.as_micros() / retained;
    let mut rng = Rng::seed_from_u64(retained);
    let mut now_us = 0;
    let mut step = |css: &mut CssScaler| {
        now_us += step_us;
        let ctx = cl.policy_ctx(TimePoint::from_micros(now_us));
        let req = RequestInfo {
            id: RequestId(0),
            func: FunctionId(0),
            arrival: ctx.now,
        };
        let exec = TimeDelta::from_micros(rng.range_u64(1_000, 1_000_000));
        css.on_start(&req, StartClass::Warm, TimeDelta::ZERO, exec, &ctx);
        css.on_cold_outcome(req.func, Some(ti), &ctx);
        css.on_blocked(&req, &ctx)
    };
    for _ in 0..retained {
        step(&mut css);
    }
    assert!(css.bss_enabled(FunctionId(0)), "{name}: BSS switched off");
    h.bench(&format!("css_on_blocked/{name}"), || {
        black_box(step(&mut css));
    })
}

/// Maximum ratio of the CSS decision's cost at 16 384 retained
/// observations to its cost at 256. Measured on the gate host: 6x for
/// the incremental order statistic (one shift of a third of the sorted
/// mirror), 29x with one copy of the window per decision, 115x with the
/// copy-and-sort it replaced; six smoke runs gave 6.0x to 7.8x.
const MAX_CSS_WINDOW_SCALING: f64 = 16.0;

fn main() -> ExitCode {
    let mut h = Harness::new("policy_overhead");
    let ti = TimeDelta::from_millis(2);
    let small = bench_css_decision_at(&mut h, "window_256", 256, ti);
    let large = bench_css_decision_at(&mut h, "window_16384", 16_384, ti);
    bench_css_decision_at(&mut h, "ti_zero", 256, TimeDelta::ZERO);

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
