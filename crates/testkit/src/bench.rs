//! Wall-clock micro-benchmark harness.
//!
//! A bench target is a plain binary (`harness = false`) that builds a
//! [`Harness`] and runs closures through [`Harness::bench`]. Each
//! benchmark is calibrated during warmup so a sample takes a measurable
//! slice of wall time, then timed over a fixed iteration budget; the
//! harness prints median / p95 per iteration and optional element
//! throughput, and returns the [`BenchStats`] so a target can compare
//! two of its own lanes. Nothing is written to disk.
//!
//! `BENCH_SMOKE=1` is CI smoke mode: minimal warmup and samples, so a
//! target finishes in seconds while still exercising every path.
//!
//! # Examples
//!
//! ```no_run
//! use faas_testkit::Harness;
//! let mut h = Harness::new("my_target");
//! let stats = h.bench("hot_loop", || {
//!     std::hint::black_box(2u64 + 2);
//! });
//! if let Some(s) = stats {
//!     assert!(s.median_ns < 1e6, "hot_loop took {} ns", s.median_ns);
//! }
//! ```

#![expect(
    clippy::disallowed_types,
    reason = "the timer harness: with faas-live, the one place that reads the wall clock"
)]

use std::time::{Duration, Instant};

/// Measured statistics for one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Iterations per timed sample (calibrated during warmup).
    pub iters_per_sample: u64,
    /// Median ns/iteration across samples.
    pub median_ns: f64,
    /// 95th-percentile ns/iteration across samples.
    pub p95_ns: f64,
    /// Fastest sample's ns/iteration.
    pub min_ns: f64,
    /// Slowest sample's ns/iteration.
    pub max_ns: f64,
    /// Elements processed per iteration (for throughput), if declared.
    pub elems_per_iter: Option<u64>,
}

impl BenchStats {
    /// Elements per second at the median sample, if throughput applies.
    pub fn throughput_elems_per_sec(&self) -> Option<f64> {
        self.elems_per_iter
            .map(|e| e as f64 * 1e9 / self.median_ns.max(1e-9))
    }
}

/// The per-target bench harness. See the [module docs](self).
#[derive(Debug)]
pub struct Harness {
    target: String,
    filter: Option<String>,
    smoke: bool,
    samples: usize,
    min_sample_time: Duration,
    next_elems: Option<u64>,
}

impl Harness {
    /// Creates the harness for a bench target (the `[[bench]]` name).
    /// Reads CLI args so `cargo bench <substring>` filters benchmarks,
    /// and honors `BENCH_SMOKE`.
    pub fn new(target: &str) -> Self {
        let smoke = std::env::var("BENCH_SMOKE")
            .map(|v| v != "0")
            .unwrap_or(false);
        // cargo passes `--bench` (and test-harness flags); the first
        // non-flag argument is a name filter.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Self {
            target: target.to_string(),
            filter,
            smoke,
            samples: if smoke { 5 } else { 30 },
            min_sample_time: if smoke {
                Duration::from_millis(2)
            } else {
                Duration::from_millis(25)
            },
            next_elems: None,
        }
    }

    /// Overrides the number of timed samples for subsequent benchmarks
    /// (smoke mode keeps its own smaller floor).
    pub fn samples(&mut self, n: usize) -> &mut Self {
        if !self.smoke {
            self.samples = n.max(3);
        }
        self
    }

    /// Declares that each iteration of the *next* benchmark processes
    /// `n` elements, enabling throughput reporting.
    pub fn throughput_elems(&mut self, n: u64) -> &mut Self {
        self.next_elems = Some(n);
        self
    }

    /// Runs one benchmark, prints its statistics and returns them;
    /// `None` when the CLI name filter skipped it.
    pub fn bench<F: FnMut()>(&mut self, name: &str, mut f: F) -> Option<BenchStats> {
        let elems = self.next_elems.take();
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return None;
            }
        }
        // Warmup + calibration: run until the clock has accumulated
        // enough time to estimate the per-iteration cost.
        let warmup_budget = if self.smoke {
            Duration::from_millis(5)
        } else {
            Duration::from_millis(150)
        };
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        while warmup_start.elapsed() < warmup_budget || warmup_iters < 1 {
            f();
            warmup_iters += 1;
        }
        let est_ns = (warmup_start.elapsed().as_nanos() as f64 / warmup_iters as f64).max(1.0);
        let iters_per_sample =
            ((self.min_sample_time.as_nanos() as f64 / est_ns).ceil() as u64).max(1);

        let mut per_iter_ns = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                f();
            }
            per_iter_ns.push(t.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
        per_iter_ns.sort_by(f64::total_cmp);
        let pct = |p: f64| {
            let idx = ((per_iter_ns.len() - 1) as f64 * p).round() as usize;
            per_iter_ns[idx]
        };
        let stats = BenchStats {
            iters_per_sample,
            median_ns: pct(0.50),
            p95_ns: pct(0.95),
            min_ns: per_iter_ns[0],
            max_ns: *per_iter_ns.last().expect("non-empty"),
            elems_per_iter: elems,
        };
        let tput = match stats.throughput_elems_per_sec() {
            Some(t) => format!("  ({} elems/s)", human(t)),
            None => String::new(),
        };
        println!(
            "{}/{name:<40} median {:>12}  p95 {:>12}{tput}",
            self.target,
            human_ns(stats.median_ns),
            human_ns(stats.p95_ns),
        );
        Some(stats)
    }
}

fn human_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

fn human(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_harness(filter: Option<&str>) -> Harness {
        // Constructed directly so tests don't depend on process env.
        Harness {
            target: "test".to_string(),
            filter: filter.map(str::to_string),
            smoke: true,
            samples: 4,
            min_sample_time: Duration::from_micros(200),
            next_elems: None,
        }
    }

    fn spin() {
        let mut x = 0u64;
        for i in 0..50 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
    }

    #[test]
    fn stats_ordering_holds() {
        let s = smoke_harness(None).bench("spin", spin).expect("no filter");
        assert!(s.min_ns <= s.median_ns);
        assert!(s.median_ns <= s.p95_ns);
        assert!(s.p95_ns <= s.max_ns);
        assert!(s.iters_per_sample >= 1);
    }

    #[test]
    fn filter_skips_lane_and_its_throughput() {
        let mut h = smoke_harness(Some("large"));
        h.throughput_elems(100);
        assert!(h.bench("small", spin).is_none());
        // The skipped lane's declaration must not leak onto the next.
        let s = h.bench("large_n", spin).expect("matches the filter");
        assert!(s.median_ns > 0.0);
        assert_eq!(s.throughput_elems_per_sec(), None);
        h.throughput_elems(100);
        let s = h.bench("large_n", spin).expect("matches the filter");
        assert!(s.throughput_elems_per_sec().is_some_and(|t| t > 0.0));
    }

    #[test]
    fn human_formatting() {
        assert_eq!(human_ns(12.34), "12.3 ns");
        assert_eq!(human_ns(12_340.0), "12.34 µs");
        assert_eq!(human(2_500_000.0), "2.50M");
    }
}
