//! CI throughput gate over `BENCH_results.json`.
//!
//! Usage: `bench_guard <baseline.json> <current.json>`
//!
//! Fails (exit 1) when either:
//!
//! * the large-N simulator throughput (`sim_throughput` /
//!   `replay/large_n`, events per second) regressed more than 20%
//!   against the committed baseline, or
//! * the indexed scan is no longer at least 2x the retained reference
//!   scan (`replay/large_n_reference`) within the current run — the
//!   speedup the indexed hot paths exist to provide, or
//! * the sharded engine's 4-shard scaling lane (`scaling/shards_4` vs
//!   `scaling/shards_1`) drops below its parallelism-aware floor:
//!   2.5x on hosts with at least 4 CPUs; on narrower hosts — where a
//!   wall-clock speedup is physically impossible — an overhead bound
//!   instead (the sharded run may not fall below a fixed fraction of
//!   sequential throughput), plus the same 20% ratchet against the
//!   committed `scaling/shards_4` baseline either way, or
//! * the live load-serving lane regressed: sustained requests/sec
//!   (`live_load` / `serve_smoke/rps`) fell more than 35% below the
//!   committed baseline, or the live p99 wait
//!   (`serve_smoke/p99_wait`, stored in `median_ns`, lower is better)
//!   grew more than 35% above it. The live lane races the wall clock
//!   end to end — reactor, executor, OS scheduler — so its threshold
//!   is looser than the microbenchmark ratchets, or
//! * the memory bill regressed: GB-seconds per served request on the
//!   live workload (`serve_smoke/gbs_per_req`, stored raw in
//!   `median_ns`, lower is better) grew more than 20% above the
//!   committed baseline. The value comes from the deterministic
//!   simulator side of the `live_load` run, so the tight ratchet is
//!   safe — any drift is a real cost-model or policy change, not
//!   noise, or
//! * the disabled trace recorder stopped being free: `run()` drives
//!   the engine with the no-op recorder (DESIGN.md §12), so
//!   `replay/large_n` *is* the recorder-off path, and its **best**
//!   sample (events/sec at `min_ns`) may not fall more than 2% below
//!   the committed baseline median. Comparing best-vs-median keeps the
//!   deliberately tight threshold immune to ordinary wall-clock noise:
//!   a real recording-cost leak into the hot loop shifts every sample,
//!   including the best one, or
//! * Algorithm 1's decision cost grows with the function's window:
//!   within the current run, `policy_overhead` /
//!   `css_on_blocked/window_16384` may cost at most 16x
//!   `css_on_blocked/window_256`. Measured on the gate host: 6x for the
//!   incremental order statistic (one shift of a third of the sorted
//!   mirror), 29x with one copy of the window per decision, 115x with
//!   the copy-and-sort it replaced. The two lanes run back to back in
//!   one process; six smoke runs gave 6.0x to 7.8x.
//!
//! Both files use the testkit harness schema; comparisons are on
//! `throughput_elems_per_sec`, which is scenario-invariant between
//! smoke and full bench modes (identical workload, fewer samples).
//! The `serve_smoke` live lane is pinned to one workload by name, so
//! it is likewise comparable across runs.

use std::process::ExitCode;

use faas_testkit::json::Value;

/// Maximum tolerated relative throughput regression vs the baseline.
const MAX_REGRESSION: f64 = 0.20;

/// Minimum required indexed-over-reference speedup.
const MIN_SPEEDUP: f64 = 2.0;

/// Minimum required 4-shard-over-sequential speedup on hosts with at
/// least this many CPUs (the shards can actually run concurrently).
const MIN_SHARD_SPEEDUP: f64 = 2.5;
const SHARD_SPEEDUP_MIN_CPUS: usize = 4;

/// On hosts too narrow for real parallelism, the scaling gate degrades
/// to a loose overhead backstop: 4 shards time-sliced onto fewer CPUs
/// must still deliver at least this fraction of sequential throughput.
/// The conservative-barrier machinery (per-phase checkpoints, rollback
/// replays, log merges) measures ~0.04x on a 1-CPU host, so this floor
/// only catches catastrophic blowups; the 20% baseline ratchet below is
/// the real regression guard on narrow hosts.
const SHARD_OVERHEAD_FLOOR: f64 = 0.01;

/// Maximum tolerated relative regression on the live load-serving
/// lanes (rps down, or p99 wait up). Wall-clock end-to-end runs are
/// noisier than microbenchmarks, hence the looser threshold.
const LIVE_MAX_REGRESSION: f64 = 0.35;

/// Maximum tolerated events/sec cost of the *disabled* trace recorder
/// on the large-N replay — the zero-cost-when-off contract of
/// DESIGN.md §12, enforced on the best sample vs the baseline median.
const MAX_RECORDER_OVERHEAD: f64 = 0.02;

/// Maximum ratio of the CSS decision's cost at 16 384 retained
/// observations to its cost at 256 (see the module docs for what each
/// side of it measured).
const MAX_CSS_WINDOW_SCALING: f64 = 16.0;

/// Extracts field `key` for `bench` under `target`.
fn bench_field(doc: &Value, target: &str, bench: &str, key: &str) -> Option<f64> {
    doc.get("targets")?
        .get(target)?
        .get("benches")?
        .as_arr()?
        .iter()
        .find(|b| b.get("name").and_then(Value::as_str) == Some(bench))?
        .get(key)?
        .as_f64()
}

/// Extracts `throughput_elems_per_sec` for `bench` under `target`.
fn throughput(doc: &Value, target: &str, bench: &str) -> Option<f64> {
    bench_field(doc, target, bench, "throughput_elems_per_sec")
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path] = args.as_slice() else {
        eprintln!("usage: bench_guard <baseline.json> <current.json>");
        return ExitCode::FAILURE;
    };
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("bench_guard: {err}");
            }
            return ExitCode::FAILURE;
        }
    };

    let Some(cur) = throughput(&current, "sim_throughput", "replay/large_n") else {
        eprintln!("bench_guard: current run lacks sim_throughput/replay/large_n");
        return ExitCode::FAILURE;
    };
    let mut ok = true;

    // Gate 1: no >20% regression against the committed baseline.
    match throughput(&baseline, "sim_throughput", "replay/large_n") {
        Some(base) => {
            let floor = base * (1.0 - MAX_REGRESSION);
            if cur < floor {
                eprintln!(
                    "bench_guard: replay/large_n regressed: {cur:.0} elems/s < \
                     {floor:.0} (baseline {base:.0} - {:.0}%)",
                    MAX_REGRESSION * 100.0
                );
                ok = false;
            } else {
                println!("bench_guard: replay/large_n {cur:.0} elems/s vs baseline {base:.0} (ok)");
            }
        }
        None => {
            // First run ever: nothing to regress against.
            println!("bench_guard: no baseline for replay/large_n; skipping regression gate");
        }
    }

    // Gate 2: the indexed scan must stay >= 2x the reference scan.
    match throughput(&current, "sim_throughput", "replay/large_n_reference") {
        Some(reference) if reference > 0.0 => {
            let speedup = cur / reference;
            if speedup < MIN_SPEEDUP {
                eprintln!(
                    "bench_guard: indexed speedup {speedup:.2}x < {MIN_SPEEDUP}x \
                     (indexed {cur:.0} vs reference {reference:.0} elems/s)"
                );
                ok = false;
            } else {
                println!("bench_guard: indexed speedup {speedup:.2}x over reference (ok)");
            }
        }
        _ => {
            eprintln!("bench_guard: current run lacks sim_throughput/replay/large_n_reference");
            ok = false;
        }
    }

    // Gate 3: sharded scaling efficiency (parallelism-aware floor).
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    match (
        throughput(&current, "sim_throughput", "scaling/shards_1"),
        throughput(&current, "sim_throughput", "scaling/shards_4"),
    ) {
        (Some(seq), Some(sharded)) if seq > 0.0 => {
            let speedup = sharded / seq;
            let floor = if cpus >= SHARD_SPEEDUP_MIN_CPUS {
                MIN_SHARD_SPEEDUP
            } else {
                SHARD_OVERHEAD_FLOOR
            };
            if speedup < floor {
                eprintln!(
                    "bench_guard: 4-shard scaling {speedup:.2}x < {floor}x floor on \
                     {cpus}-CPU host (sharded {sharded:.0} vs sequential {seq:.0} elems/s)"
                );
                ok = false;
            } else {
                println!(
                    "bench_guard: 4-shard scaling {speedup:.2}x (floor {floor}x, \
                     {cpus} CPUs, ok)"
                );
            }
            // Ratchet: the 4-shard lane may not regress >20% against
            // the committed baseline (same host in CI, so this holds
            // the achieved efficiency wherever the floor is coarse).
            if let Some(base) = throughput(&baseline, "sim_throughput", "scaling/shards_4") {
                let floor = base * (1.0 - MAX_REGRESSION);
                if sharded < floor {
                    eprintln!(
                        "bench_guard: scaling/shards_4 regressed: {sharded:.0} elems/s < \
                         {floor:.0} (baseline {base:.0} - {:.0}%)",
                        MAX_REGRESSION * 100.0
                    );
                    ok = false;
                } else {
                    println!(
                        "bench_guard: scaling/shards_4 {sharded:.0} elems/s vs \
                         baseline {base:.0} (ok)"
                    );
                }
            } else {
                println!("bench_guard: no baseline for scaling/shards_4; skipping ratchet");
            }
        }
        _ => {
            eprintln!("bench_guard: current run lacks the scaling/shards_{{1,4}} lane");
            ok = false;
        }
    }

    // Gate 4: live load-serving lanes (looser, wall-clock ratchets).
    match throughput(&current, "live_load", "serve_smoke/rps") {
        Some(rps) => {
            match throughput(&baseline, "live_load", "serve_smoke/rps") {
                Some(base) => {
                    let floor = base * (1.0 - LIVE_MAX_REGRESSION);
                    if rps < floor {
                        eprintln!(
                            "bench_guard: serve_smoke/rps regressed: {rps:.0} req/s < \
                         {floor:.0} (baseline {base:.0} - {:.0}%)",
                            LIVE_MAX_REGRESSION * 100.0
                        );
                        ok = false;
                    } else {
                        println!("bench_guard: serve_smoke/rps {rps:.0} req/s vs baseline {base:.0} (ok)");
                    }
                }
                None => println!("bench_guard: no baseline for serve_smoke/rps; skipping ratchet"),
            }
        }
        None => {
            eprintln!("bench_guard: current run lacks live_load/serve_smoke/rps");
            ok = false;
        }
    }
    match bench_field(&current, "live_load", "serve_smoke/p99_wait", "median_ns") {
        Some(p99) => match bench_field(&baseline, "live_load", "serve_smoke/p99_wait", "median_ns")
        {
            Some(base) if base > 0.0 => {
                let ceiling = base * (1.0 + LIVE_MAX_REGRESSION);
                if p99 > ceiling {
                    eprintln!(
                        "bench_guard: serve_smoke/p99_wait regressed: {:.1} ms > \
                         {:.1} (baseline {:.1} + {:.0}%)",
                        p99 / 1e6,
                        ceiling / 1e6,
                        base / 1e6,
                        LIVE_MAX_REGRESSION * 100.0
                    );
                    ok = false;
                } else {
                    println!(
                        "bench_guard: serve_smoke/p99_wait {:.1} ms vs baseline {:.1} (ok)",
                        p99 / 1e6,
                        base / 1e6
                    );
                }
            }
            _ => println!("bench_guard: no baseline for serve_smoke/p99_wait; skipping ratchet"),
        },
        None => {
            eprintln!("bench_guard: current run lacks live_load/serve_smoke/p99_wait");
            ok = false;
        }
    }

    // Gate 5: the keep-warm memory ratchet — GB-seconds per served
    // request (deterministic, lower is better) may not grow >20%
    // against the committed baseline.
    match bench_field(
        &current,
        "live_load",
        "serve_smoke/gbs_per_req",
        "median_ns",
    ) {
        Some(gbs) => {
            match bench_field(
                &baseline,
                "live_load",
                "serve_smoke/gbs_per_req",
                "median_ns",
            ) {
                Some(base) if base > 0.0 => {
                    let ceiling = base * (1.0 + MAX_REGRESSION);
                    if gbs > ceiling {
                        eprintln!(
                            "bench_guard: serve_smoke/gbs_per_req regressed: {gbs:.4} GB-s/req > \
                             {ceiling:.4} (baseline {base:.4} + {:.0}%)",
                            MAX_REGRESSION * 100.0
                        );
                        ok = false;
                    } else {
                        println!(
                            "bench_guard: serve_smoke/gbs_per_req {gbs:.4} GB-s/req vs \
                             baseline {base:.4} (ok)"
                        );
                    }
                }
                _ => println!(
                    "bench_guard: no baseline for serve_smoke/gbs_per_req; skipping ratchet"
                ),
            }
        }
        None => {
            eprintln!("bench_guard: current run lacks live_load/serve_smoke/gbs_per_req");
            ok = false;
        }
    }

    // Gate 6: zero-cost-when-off. `replay/large_n` runs the engine with
    // the disabled no-op recorder, so this lane is the recorder-off hot
    // path. The 2% band is far tighter than run-to-run noise, so the
    // comparison is the current run's *best* sample (throughput scaled
    // from median_ns to min_ns) against the baseline median: noise
    // spares the best sample, a real hot-path leak does not.
    match (
        bench_field(&current, "sim_throughput", "replay/large_n", "median_ns"),
        bench_field(&current, "sim_throughput", "replay/large_n", "min_ns"),
    ) {
        (Some(median), Some(min)) if min > 0.0 => {
            let best = cur * median / min;
            match throughput(&baseline, "sim_throughput", "replay/large_n") {
                Some(base) => {
                    let floor = base * (1.0 - MAX_RECORDER_OVERHEAD);
                    if best < floor {
                        eprintln!(
                            "bench_guard: disabled recorder is not free: best replay/large_n \
                             sample {best:.0} elems/s < {floor:.0} (baseline {base:.0} - {:.0}%)",
                            MAX_RECORDER_OVERHEAD * 100.0
                        );
                        ok = false;
                    } else {
                        println!(
                            "bench_guard: recorder-off best {best:.0} elems/s vs \
                             baseline {base:.0} (within {:.0}%, ok)",
                            MAX_RECORDER_OVERHEAD * 100.0
                        );
                    }
                }
                None => {
                    println!("bench_guard: no baseline for replay/large_n; skipping recorder gate")
                }
            }
        }
        _ => {
            eprintln!("bench_guard: current run lacks replay/large_n timing fields");
            ok = false;
        }
    }

    // Gate 7: the CSS decision may not scale with the window the way a
    // per-decision sort or copy of it would.
    match (
        bench_field(
            &current,
            "policy_overhead",
            "css_on_blocked/window_256",
            "median_ns",
        ),
        bench_field(
            &current,
            "policy_overhead",
            "css_on_blocked/window_16384",
            "median_ns",
        ),
    ) {
        (Some(small), Some(large)) if small > 0.0 => {
            let scaling = large / small;
            if scaling > MAX_CSS_WINDOW_SCALING {
                eprintln!(
                    "bench_guard: css_on_blocked scales with its window: {large:.0} ns at \
                     16384 observations is {scaling:.1}x the {small:.0} ns at 256 \
                     (limit {MAX_CSS_WINDOW_SCALING}x)"
                );
                ok = false;
            } else {
                println!(
                    "bench_guard: css_on_blocked window scaling {scaling:.1}x \
                     (limit {MAX_CSS_WINDOW_SCALING}x, ok)"
                );
            }
        }
        _ => {
            eprintln!(
                "bench_guard: current run lacks the css_on_blocked/window_{{256,16384}} lanes"
            );
            ok = false;
        }
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
