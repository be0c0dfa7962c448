//! What `faas-core`'s indexes buy: one large-N replay through the
//! indexed hot paths and through the retained reference scans, and a
//! failing exit unless the first is at least [`MIN_SPEEDUP`] times the
//! second. A third lane replays the same scenario under CIDRE, whose
//! volatile priorities rebuild each REPLACE round from the idle lists.
//!
//! Two more lanes replay one paper-scale trace left of Fig. 12's cliff,
//! where almost every request waits for a provision, and at a cache that
//! never evicts; the run fails unless the first costs at most
//! [`MAX_THRASH_RATIO`] times the second per request. Replay rates at
//! the paper's scale are otherwise `benchmark/`'s job.

use std::hint::black_box;
use std::process::ExitCode;

use cidre_core::{cidre_stack, CidreConfig};
use faas_policies::faascache_stack;
use faas_sim::{run, ScanMode, SimConfig};
use faas_testkit::Harness;
use faas_trace::gen;

/// Minimum indexed-over-reference speedup. Both medians come from this
/// process, back to back; runs on the gate host gave 5.4x to 6.5x.
const MIN_SPEEDUP: f64 = 2.0;

/// Maximum thrash-over-warm cost per request. On the gate host, a scan
/// of the cluster-wide deferral queue per finished provision made it
/// 44x; with each function's deferred chains counted instead, six
/// smoke runs gave 2.1x to 3.0x.
const MAX_THRASH_RATIO: f64 = 8.0;

fn main() -> ExitCode {
    let mut h = Harness::new("sim_throughput");
    // Large-N eviction-pressure scenario: 10k functions over one minute
    // (~93k requests, ~80k container lifetimes) against two 300 GB
    // workers, so each memory-pressure round sees an idle pool of ~1000
    // eviction candidates. This is the scenario the indexed hot paths
    // are sized for (at the paper's 330 functions the reference scans
    // take 1.42-1.46x as long: `engine.reference_scan_ratio` in six runs
    // of `benchmark --workload policy_mix --seed 42 --trace 1`); it is
    // identical in smoke and full mode, only sample counts differ.
    let trace = gen::azure(7)
        .functions(10_000)
        .minutes(1)
        .rate_per_function(0.15)
        .build();
    let config = SimConfig::default().workers_mb(vec![307_200; 2]);
    h.samples(10);
    h.throughput_elems(trace.len() as u64);
    let indexed = h.bench("replay/large_n", || {
        black_box(run(&trace, &config, faascache_stack()));
    });
    // The same scenario through the retained naive scans: the oracle the
    // differential tests compare against.
    let reference_config = config.clone().scan_mode(ScanMode::Reference);
    h.throughput_elems(trace.len() as u64);
    let reference = h.bench("replay/large_n_reference", || {
        black_box(run(&trace, &reference_config, faascache_stack()));
    });
    // The paper's own stack on the same scenario: CIP priorities are
    // volatile, so every round snapshots ~1000 candidates afresh.
    h.throughput_elems(trace.len() as u64);
    h.bench("replay/large_n_cidre", || {
        black_box(run(&trace, &config, cidre_stack(CidreConfig::default())));
    });

    // FaasCache on ten minutes of the paper's Azure workload: at 80 GB
    // the backlog of deferred provisions runs deep (the thrash regime:
    // 194k evictions for 198k requests), at 1 600 GB nothing is evicted.
    // Same requests, so the ratio of the medians is their ratio per
    // request.
    let paper = gen::azure(42).functions(330).minutes(10).build();
    let thrash_config = SimConfig::with_cache_gb(80);
    let warm_config = SimConfig::with_cache_gb(1_600);
    assert_eq!(
        run(&paper, &warm_config, faascache_stack()).containers_evicted,
        0,
        "replay/thrash_warm must not evict"
    );
    h.throughput_elems(paper.len() as u64);
    let thrash = h.bench("replay/thrash", || {
        black_box(run(&paper, &thrash_config, faascache_stack()));
    });
    h.throughput_elems(paper.len() as u64);
    let warm = h.bench("replay/thrash_warm", || {
        black_box(run(&paper, &warm_config, faascache_stack()));
    });

    // A name filter that selects one lane of a pair skips its check.
    let mut code = ExitCode::SUCCESS;
    if let (Some(indexed), Some(reference)) = (indexed, reference) {
        let speedup = reference.median_ns / indexed.median_ns;
        println!(
            "sim_throughput: indexed {:.0} ms vs reference {:.0} ms per replay: \
             {speedup:.2}x (floor {MIN_SPEEDUP}x)",
            indexed.median_ns / 1e6,
            reference.median_ns / 1e6
        );
        if speedup < MIN_SPEEDUP {
            eprintln!("sim_throughput: the indexes no longer pay for themselves");
            code = ExitCode::FAILURE;
        }
    }
    if let (Some(thrash), Some(warm)) = (thrash, warm) {
        let ratio = thrash.median_ns / warm.median_ns;
        println!(
            "sim_throughput: thrash {:.0} ns vs warm {:.0} ns per request: \
             {ratio:.2}x (limit {MAX_THRASH_RATIO}x)",
            thrash.median_ns / paper.len() as f64,
            warm.median_ns / paper.len() as f64
        );
        if ratio > MAX_THRASH_RATIO {
            eprintln!("sim_throughput: a request costs more the deeper the deferral backlog");
            code = ExitCode::FAILURE;
        }
    }
    code
}
