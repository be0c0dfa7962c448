//! What `faas-core`'s indexes buy: one large-N replay through the
//! indexed hot paths and through the retained reference scans, and a
//! failing exit unless the first is at least [`MIN_SPEEDUP`] times the
//! second. Replay rates at the paper's scale are `benchmark/`'s job.

use std::hint::black_box;
use std::process::ExitCode;

use faas_policies::faascache_stack;
use faas_sim::{run, ScanMode, SimConfig};
use faas_testkit::Harness;
use faas_trace::gen;

/// Minimum indexed-over-reference speedup. Both medians come from this
/// process, back to back; runs on the gate host gave 5.4x to 6.5x.
const MIN_SPEEDUP: f64 = 2.0;

fn main() -> ExitCode {
    let mut h = Harness::new("sim_throughput");
    // Large-N eviction-pressure scenario: 10k functions over one minute
    // (~93k requests, ~80k container lifetimes) against two 300 GB
    // workers, so each memory-pressure round sees an idle pool of ~1000
    // eviction candidates. This is the scenario the indexed hot paths
    // are sized for (at the paper's 330 functions the two scans tie:
    // `engine.reference_scan_ratio` in `benchmark/`); it is identical in
    // smoke and full mode, only sample counts differ.
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

    // A name filter that selects one lane of the pair skips the check.
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
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
