//! Semantic tests pinning the paper's qualitative claims on crafted or
//! generated workloads. These are the cheap, always-on versions of the
//! full experiments in `cidre-bench`.

use cidre::core::{cidre_bss_stack, cidre_stack, CidreConfig};
use cidre::policies::{faascache_queue_stack, faascache_stack, lru_stack, offline_stack};
use cidre::sim::{run, SimConfig, StartClass};
use cidre::trace::{
    gen, transform, FunctionId, FunctionProfile, Invocation, TimeDelta, TimePoint, Trace,
};

/// A bursty single-function trace where executions are much shorter than
/// cold starts — the regime where delayed warm starts win outright.
///
/// A small warm-up burst first establishes two warm containers; later
/// bursts of ten hit while those two are busy, so eight requests per
/// burst face the queue-on-busy vs cold-start choice.
fn short_exec_bursts() -> Trace {
    let f = FunctionProfile::new(FunctionId(0), "f", 256, TimeDelta::from_millis(500));
    let mut invs = Vec::new();
    for i in 0..2u64 {
        invs.push(Invocation {
            func: FunctionId(0),
            arrival: TimePoint::from_millis(i * 5),
            exec: TimeDelta::from_millis(30),
        });
    }
    for burst in 1..20u64 {
        for i in 0..10u64 {
            invs.push(Invocation {
                func: FunctionId(0),
                arrival: TimePoint::from_millis(burst * 2_000 + i * 5),
                exec: TimeDelta::from_millis(30),
            });
        }
    }
    Trace::new(vec![f], invs).expect("valid")
}

#[test]
fn observation1_delayed_warm_beats_cold_per_blocked_request() {
    // Figs. 5/6 compare the *blocked* requests' fates: queueing on a
    // 30 ms execution beats paying a 500 ms cold start. (The overall mean
    // can still favour vanilla when its one-time fleet of cold starts is
    // amortised over repeating bursts — exactly why Fig. 7 shows
    // unbounded queueing is not the right policy and CIDRE races
    // conditionally instead.)
    let trace = short_exec_bursts();
    let config = SimConfig::with_cache_gb(4);
    let vanilla = run(&trace, &config, faascache_stack());
    let queued = run(&trace, &config, faascache_queue_stack(None));
    let queueing_delay = queued.wait_cdf_of(StartClass::DelayedWarm);
    let cold_delay = vanilla.wait_cdf_of(StartClass::Cold);
    assert!(!queueing_delay.is_empty() && !cold_delay.is_empty());
    assert!(
        queueing_delay.quantile(0.99) < cold_delay.quantile(0.5),
        "even p99 queueing ({:.0} ms) should beat the median cold start ({:.0} ms)",
        queueing_delay.quantile(0.99),
        cold_delay.quantile(0.5)
    );
    assert!(queued.containers_created < vanilla.containers_created);
}

#[test]
fn cidre_beats_faascache_on_cold_ratio_and_overhead() {
    // The headline claim at small scale (FC-shaped workload).
    let trace = gen::fc(99).functions(25).minutes(3).build();
    let config = SimConfig::with_cache_gb(10);
    let cidre = run(&trace, &config, cidre_stack(CidreConfig::default()));
    let faascache = run(&trace, &config, faascache_stack());
    assert!(
        cidre.ratio(StartClass::Cold) < faascache.ratio(StartClass::Cold),
        "CIDRE cold {:.3} vs FaasCache {:.3}",
        cidre.ratio(StartClass::Cold),
        faascache.ratio(StartClass::Cold)
    );
    assert!(
        cidre.avg_overhead_ratio() < faascache.avg_overhead_ratio(),
        "CIDRE overhead {:.3} vs FaasCache {:.3}",
        cidre.avg_overhead_ratio(),
        faascache.avg_overhead_ratio()
    );
}

#[test]
fn offline_is_the_lower_bound_among_tested_policies() {
    let trace = gen::fc(3).functions(15).minutes(2).build();
    let config = SimConfig::with_cache_gb(8);
    let offline = run(&trace, &config, offline_stack(&trace)).avg_overhead_ratio();
    for (name, stack) in [("faascache", faascache_stack()), ("lru", lru_stack())] {
        let online = run(&trace, &config, stack).avg_overhead_ratio();
        assert!(
            offline <= online + 0.02,
            "offline {offline:.3} should be <= {name} {online:.3}"
        );
    }
}

#[test]
fn observation3_exec_scaling_preserves_opportunity_shape() {
    // Fig. 10 / Table 2: scaling execution time does not collapse the
    // delayed-warm-start share of CIDRE's non-warm starts.
    let base = gen::azure(11).functions(20).minutes(2).build();
    let config = SimConfig::with_cache_gb(8);
    let mut shares = Vec::new();
    for scale in [1.0, 1.5, 2.0] {
        let trace = transform::scale_exec(&base, scale);
        let report = run(&trace, &config, cidre_stack(CidreConfig::default()));
        let delayed = report.ratio(StartClass::DelayedWarm);
        let cold = report.ratio(StartClass::Cold);
        if delayed + cold > 0.0 {
            shares.push(delayed / (delayed + cold));
        }
    }
    // Paper: 70.4% / 71.4% / 69.9% — nearly flat. Require the spread to
    // stay within 25 percentage points at toy scale.
    let (min, max) = shares
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    assert!(max - min < 0.25, "delayed share drifted: {shares:?}");
}

#[test]
fn iat_compression_raises_overhead() {
    // Fig. 19: halving inter-arrival times (doubling load) cannot reduce
    // the overhead ratio.
    let base = gen::azure(21).functions(20).minutes(2).build();
    let config = SimConfig::with_cache_gb(8);
    let relaxed = run(
        &transform::scale_iat(&base, 2.0),
        &config,
        cidre_stack(CidreConfig::default()),
    );
    let pressed = run(
        &transform::scale_iat(&base, 0.5),
        &config,
        cidre_stack(CidreConfig::default()),
    );
    assert!(
        pressed.avg_overhead_ratio() >= relaxed.avg_overhead_ratio() - 0.02,
        "compressed load {:.3} should not beat relaxed {:.3}",
        pressed.avg_overhead_ratio(),
        relaxed.avg_overhead_ratio()
    );
}

#[test]
fn css_avoids_wasted_cold_starts_under_memory_pressure() {
    // §5.1 / Fig. 12(b): under a constrained cache, BSS's unconditional
    // racing thrashes (many wasted speculative containers); CSS detects
    // the waste through its Ti/Te hints and stops provisioning, creating
    // far fewer containers and fewer cold starts.
    let trace = gen::fc(99).functions(25).minutes(3).build();
    let config = SimConfig::with_cache_gb(10);
    let bss = run(&trace, &config, cidre_bss_stack());
    let css = run(&trace, &config, cidre_stack(CidreConfig::default()));
    assert!(
        css.containers_created < bss.containers_created,
        "CSS created {} containers, BSS {}",
        css.containers_created,
        bss.containers_created
    );
    assert!(
        css.wasted_cold_starts < bss.wasted_cold_starts,
        "CSS wasted {}, BSS wasted {}",
        css.wasted_cold_starts,
        bss.wasted_cold_starts
    );
    assert!(
        css.ratio(StartClass::Cold) < bss.ratio(StartClass::Cold),
        "CSS cold ratio {:.3} vs BSS {:.3}",
        css.ratio(StartClass::Cold),
        bss.ratio(StartClass::Cold)
    );
}

#[test]
fn fig21_more_threads_never_raise_overhead() {
    // Fig. 21: more threads per container lower the overhead ratio for
    // both systems, and CIDRE stays at or below FaasCache at every count.
    // A fresh container's threads each serve a waiter, so a thread added
    // is never left idle beside a blocked request.
    let ctx = cidre_bench::ExpCtx::tiny();
    let trace = ctx.trace(cidre_bench::Workload::Azure);
    let overhead = |threads: u32, stack| {
        let config = ctx.sim_config(100).container_threads(threads);
        run(&trace, &config, stack).avg_overhead_ratio()
    };
    let mut last: Option<(u32, f64, f64)> = None;
    for threads in [1, 2, 4, 8] {
        let faascache = overhead(threads, faascache_stack());
        let cidre = overhead(threads, cidre_stack(CidreConfig::default()));
        assert!(
            cidre <= faascache,
            "{threads} thread(s): CIDRE {:.1} % above FaasCache {:.1} %",
            cidre * 100.0,
            faascache * 100.0
        );
        if let Some((before, fc_before, cidre_before)) = last {
            assert!(
                faascache <= fc_before && cidre <= cidre_before,
                "overhead rose from {before} to {threads} threads: FaasCache {:.1} -> {:.1} %, \
                 CIDRE {:.1} -> {:.1} %",
                fc_before * 100.0,
                faascache * 100.0,
                cidre_before * 100.0,
                cidre * 100.0
            );
        }
        last = Some((threads, faascache, cidre));
    }
}
