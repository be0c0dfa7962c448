//! The repo's benchmark: four workloads, calibrated host time, exact
//! simulated outputs, and a per-layer table measured from outside.
//!
//! ```text
//! cidre-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                 [--smoke] [--selfcheck]
//! ```
//!
//! Prints every metric as `name value unit`, then one JSON object as the
//! last line. Exits non-zero if any operation failed a check. See
//! README.md for the glossary and the method.

mod adapter;
mod estimator;
mod layers;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use estimator::{median, quartiles, Calibrator, Quartiles, Stopwatch};
use spans::Tracer;
use workloads::{Pass, Workload};

#[global_allocator]
static ALLOC: spans::CountingAlloc = spans::CountingAlloc;

/// How much worse `req_per_s` may get before it counts as a regression;
/// `--selfcheck` holds two windows of the same process to it. The same
/// number is the metric's `bound` in BENCHMARK.json.
const REQ_PER_S_BOUND: f64 = 0.25;
/// Fresh set-ups an end-to-end run times; `setup_s` is their median.
const SETUPS: usize = 3;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 25.0,
        trace: false,
        smoke: false,
        selfcheck: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workloads::NAMES,
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    if args.smoke {
        args.seconds = 2.0;
    }
    Ok(args)
}

/// The passes of one timed window.
struct Window {
    passes: Vec<Pass>,
}

impl Window {
    /// Runs passes until the next one (taken to last as long as the
    /// previous) would end after `seconds`; at least one.
    fn measure(
        workload: &mut Workload,
        cal: &mut Calibrator,
        tracer: &mut Tracer,
        seconds: f64,
    ) -> Window {
        let started = Stopwatch::start();
        let mut passes: Vec<Pass> = Vec::new();
        loop {
            let before = started.seconds();
            // Only the last pass keeps its reports (the traced run reads
            // them).
            if let Some(previous) = passes.last_mut() {
                previous.outcomes = Vec::new();
            }
            passes.push(workload.pass(cal, tracer));
            let after = started.seconds();
            if after + (after - before) > seconds {
                return Window { passes };
            }
        }
    }

    fn sum(&self, f: impl Fn(&Pass) -> u64) -> u64 {
        self.passes.iter().map(f).sum()
    }

    /// Requests per second of host time, pass by pass.
    fn req_per_s(&self) -> Quartiles {
        let rates: Vec<f64> = self
            .passes
            .iter()
            .map(|p| p.requests as f64 / p.seconds)
            .collect();
        quartiles(&rates)
    }

    fn raw_req_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .passes
            .iter()
            .map(|p| p.requests as f64 / p.wall_s)
            .collect();
        median(&rates)
    }

    fn share(&self, f: impl Fn(&Pass) -> u64) -> f64 {
        self.sum(f) as f64 / self.sum(|p| p.requests) as f64
    }

    /// Mean over requests of `wait ÷ (wait + exec)`.
    fn overhead_ratio(&self) -> f64 {
        self.passes.iter().map(|p| p.overhead).sum::<f64>() / self.sum(|p| p.requests) as f64
    }
}

struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Lines for the reader that are not metrics of this run's kind.
    notes: Vec<String>,
}

fn end_to_end(args: &Args) -> Report {
    let mut tracer = Tracer::new(false);
    let mut cal = Calibrator::new();
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..if args.smoke { 1 } else { SETUPS } {
        drop(workload.take()); // one workload alive at a time, as a user has
        let (w, timing) = cal.timed(|| Workload::setup(&args.workload, args.seed, &mut tracer));
        setup_s.push(timing.calibrated_s);
        workload = Some(w);
    }
    let mut workload = workload.expect("at least one set-up");
    let window = Window::measure(&mut workload, &mut cal, &mut tracer, args.seconds);
    let rate = window.req_per_s();
    let setup = quartiles(&setup_s);
    let metrics = vec![
        Metric::new("req_per_s", rate.median, "1/s"),
        Metric::new("setup_s", setup.median, "s"),
        Metric::new("peak_rss_mb", spans::peak_rss_mb(), "MB"),
        // The complements of the cold-start, delayed-warm and overhead
        // ratios: those are 0.007 or less on some workload and move ±15%
        // with the seed, which no common bound survives (README.md).
        Metric::new("out_served_warm", 1.0 - window.share(|p| p.cold), "ratio"),
        Metric::new(
            "out_served_at_once",
            1.0 - window.share(|p| p.delayed),
            "ratio",
        ),
        Metric::new("out_efficiency", 1.0 - window.overhead_ratio(), "ratio"),
    ];
    let notes = vec![
        format!("workload {} seed {}", workload.name, args.seed),
        format!(
            "deterministic {} passes {} window_s {}",
            workload.deterministic(),
            window.passes.len(),
            args.seconds
        ),
        format!(
            "req_per_s.q1 {} req_per_s.q3 {} req_per_s.iqr_ratio {}",
            rate.q1,
            rate.q3,
            rate.iqr_ratio()
        ),
        format!("raw.req_per_s {} 1/s", window.raw_req_per_s()),
        format!(
            "req_per_s by pass {:?}",
            window
                .passes
                .iter()
                .map(|p| (p.requests as f64 / p.seconds).round())
                .collect::<Vec<_>>()
        ),
        format!("setup_s.q1 {} setup_s.q3 {}", setup.q1, setup.q3),
        format!(
            "fail_ratio {} ratio",
            window.sum(|p| p.failed) as f64 / window.sum(|p| p.attempted) as f64
        ),
    ];
    Report {
        attempted: window.sum(|p| p.attempted),
        failed: window.sum(|p| p.failed),
        metrics,
        notes,
    }
}

/// Where the span file goes: under cargo's target directory, which the
/// repo already ignores.
fn span_file(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("benchmark")
        .join(format!("{workload}.trace.json"))
}

fn traced(args: &Args) -> Report {
    spans::count_allocations();
    let mut off = Tracer::new(false);
    let mut tracer = Tracer::new(true);
    let mut cal = Calibrator::new();
    let setup_span = tracer.enter("setup");
    let mut workload = Workload::setup(&args.workload, args.seed, &mut tracer);
    tracer.exit(setup_span);

    // A sixth of the window untraced, a quarter traced, the rest probes.
    let untraced = Window::measure(&mut workload, &mut cal, &mut off, args.seconds / 6.0);
    let allocs_before = spans::alloc_snapshot();
    let window = Window::measure(&mut workload, &mut cal, &mut tracer, args.seconds / 4.0);
    let allocs_after = spans::alloc_snapshot();
    let threads_peak = workload.threads_peak();
    let requests = window.sum(|p| p.requests) as f64;
    let rate = window.req_per_s();

    // Engine time per request: self time of the replay spans (on
    // `host_closed`, of the span around the closed loop).
    let mut engine_s = tracer.self_seconds("host.drive");
    for stack in std::iter::once(adapter::Stack::Cidre).chain(adapter::Stack::BASELINES) {
        engine_s.extend(tracer.self_seconds(stack.span()));
    }
    // The warm-up pass of the set-up was traced too; count its requests.
    let engine_ns_per_req =
        engine_s.iter().sum::<f64>() * 1e9 / tracer.counts["pass.requests"] as f64;

    let last = window.passes.last().expect("at least one pass");
    let digest_stable = window
        .passes
        .iter()
        .all(|p| p.digests == window.passes[0].digests);
    let mean = |f: fn(&adapter::Outcome) -> f64| {
        last.outcomes.iter().map(f).sum::<f64>() / last.outcomes.len() as f64
    };
    let gen_s = median(&tracer.self_seconds("trace.gen"));
    let csv_write_s = median(&tracer.self_seconds("trace.csv_write"));
    let csv_parse_s = median(&tracer.self_seconds("trace.csv_parse"));
    let csv_mb = tracer.counts["trace.csv_bytes"] as f64 / 1e6;
    let slices_ms: Vec<f64> = cal.slices_s.iter().map(|s| s * 1e3).collect();
    let mut metrics = vec![
        Metric::new("passes", window.passes.len() as f64, "count"),
        Metric::new(
            "trace_overhead_ratio",
            untraced.req_per_s().median / rate.median,
            "ratio",
        ),
        Metric::new("raw.req_per_s", window.raw_req_per_s(), "1/s"),
        Metric::new("calib.slice_ms_p50", median(&slices_ms), "ms"),
        Metric::new(
            "calib.iqr_ratio",
            quartiles(&slices_ms).iqr_ratio(),
            "ratio",
        ),
        Metric::new("engine.ns_per_req", engine_ns_per_req, "ns"),
        Metric::new(
            "alloc.count_per_req",
            (allocs_after.allocs - allocs_before.allocs) as f64 / requests,
            "count",
        ),
        Metric::new(
            "alloc.bytes_per_req",
            (allocs_after.bytes - allocs_before.bytes) as f64 / requests,
            "B",
        ),
        Metric::new(
            "trace.gen_mreq_per_s",
            tracer.counts["trace.requests"] as f64 / 1e6 / gen_s,
            "Mreq/s",
        ),
        Metric::new("trace.csv_write_mb_per_s", csv_mb / csv_write_s, "MB/s"),
        Metric::new("trace.csv_parse_mb_per_s", csv_mb / csv_parse_s, "MB/s"),
        Metric::new("out.cold_ratio", window.share(|p| p.cold), "ratio"),
        Metric::new("out.delayed_ratio", window.share(|p| p.delayed), "ratio"),
        Metric::new("out.overhead_ratio", window.overhead_ratio(), "ratio"),
        Metric::new("out.wait_p99_ms", mean(adapter::Outcome::wait_p99_ms), "ms"),
        Metric::new(
            "out.gbs_per_req",
            mean(adapter::Outcome::gbs_per_req),
            "GB.s",
        ),
        Metric::new(
            "out.evictions",
            last.outcomes.iter().map(|o| o.evictions()).sum::<u64>() as f64,
            "count",
        ),
        Metric::new("out.digest_stable", f64::from(digest_stable), "count"),
        Metric::new("host.threads_peak", threads_peak, "count"),
    ];

    let replay = workload.probe_replay();
    let outcome = replay.run(adapter::Stack::Cidre, adapter::Engine::Sequential);
    let seen = layers::Observed {
        replay,
        outcome: &outcome,
        engine_ns_per_req,
    };
    let probes = tracer.enter("probes");
    let budget_s = args.seconds * (1.0 - 1.0 / 6.0 - 1.0 / 4.0);
    metrics.extend(layers::probe_all(&seen, budget_s, &mut tracer));
    tracer.exit(probes);
    metrics.push(Metric::new(
        "alloc.peak_live_mb",
        spans::alloc_peak_live_mb(),
        "MB",
    ));

    let path = span_file(workload.name);
    let mut notes = vec![format!("workload {} seed {}", workload.name, args.seed)];
    match tracer.write_json(&path) {
        Ok(()) => notes.push(format!(
            "spans {} written to {}",
            tracer.spans.len(),
            path.display()
        )),
        Err(e) => notes.push(format!("spans not written to {}: {e}", path.display())),
    }
    Report {
        attempted: window.sum(|p| p.attempted) + untraced.sum(|p| p.attempted),
        failed: window.sum(|p| p.failed) + untraced.sum(|p| p.failed),
        metrics,
        notes,
    }
}

/// Two windows of the same process must agree: `req_per_s` within its
/// bound, and on the replay workloads the class counts exactly.
fn selfcheck(args: &Args) -> Result<Report, String> {
    let mut tracer = Tracer::new(false);
    let mut cal = Calibrator::new();
    let mut workload = Workload::setup(&args.workload, args.seed, &mut tracer);
    let a = Window::measure(&mut workload, &mut cal, &mut tracer, args.seconds);
    let b = Window::measure(&mut workload, &mut cal, &mut tracer, args.seconds);
    let (ra, rb) = (a.req_per_s().median, b.req_per_s().median);
    let drift = (ra / rb - 1.0).abs().max((rb / ra - 1.0).abs());
    let failed = a.sum(|p| p.failed) + b.sum(|p| p.failed);
    let exact = !workload.deterministic()
        || (a.share(|p| p.cold) == b.share(|p| p.cold)
            && a.share(|p| p.delayed) == b.share(|p| p.delayed));
    let report = Report {
        attempted: a.sum(|p| p.attempted) + b.sum(|p| p.attempted),
        failed,
        metrics: vec![
            Metric::new("selfcheck.req_per_s_a", ra, "1/s"),
            Metric::new("selfcheck.req_per_s_b", rb, "1/s"),
            Metric::new("selfcheck.drift", drift, "ratio"),
        ],
        notes: vec![format!("workload {} seed {}", workload.name, args.seed)],
    };
    if drift > REQ_PER_S_BOUND {
        return Err(format!(
            "req_per_s drifted {drift:.4} between two windows (bound {REQ_PER_S_BOUND})"
        ));
    }
    if !exact {
        return Err("class shares differ between two windows of a deterministic replay".into());
    }
    Ok(report)
}

fn print(report: &Report) {
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cidre-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.selfcheck {
        match selfcheck(&args) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("cidre-benchmark: selfcheck failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    if report.metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("cidre-benchmark: a metric is not a finite number");
        return ExitCode::FAILURE;
    }
    print(&report);
    if report.failed > 0 {
        eprintln!(
            "cidre-benchmark: {} of {} operations failed",
            report.failed, report.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
