//! How host time is made repeatable: order statistics, the calibration
//! slice, and the pairing of every timed call with its adjacent slices.
//!
//! The container shares its two CPUs, so the same deterministic call
//! takes 1.6 s or 2.4 s depending on the neighbours, and CPU time
//! tracks wall time (the slowdown is the host, not our scheduling). A
//! fixed-work kernel run immediately before and after each call slows
//! down with it, so `wall / slice` is far steadier than `wall`. Nothing
//! here touches a workspace crate.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Duration;
// lint:allow(W1): a benchmark measures host time; this alias is its one wall clock
use std::time::Instant as WallClock;

/// Seconds one calibration slice takes on the host this benchmark was
/// sized on. Fixed once: calibrated seconds are "seconds on that host",
/// so changing it rescales every timing metric of every workload.
pub const C_NOMINAL_S: f64 = 0.1;

/// Heap operations per slice (≈ `C_NOMINAL_S` of work) and heap size.
/// Shorter slices were measured too noisy to divide by.
const SLICE_OPS: usize = 875_000;
const SLICE_HEAP: usize = 50_000;

/// Host time since `start`: the only way the benchmark reads a clock.
pub struct Stopwatch(WallClock);

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch(WallClock::now())
    }

    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    pub fn nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// The instant `after` the start, as a deadline for a timer.
    pub fn deadline(&self, after: Duration) -> WallClock {
        self.0 + after
    }
}

/// First quartile, median, third quartile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// Inter-quartile distance as a share of the median — the spread
    /// the driver computes over ten runs.
    pub fn iqr_ratio(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method), so
/// the spreads printed here are the ones the driver will compute.
/// One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return Quartiles {
            q1: v[0],
            median: v[0],
            q3: v[0],
        };
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// Nearest-rank percentile, `p` in `[0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Calibrated seconds of a call that took `wall_s`, bracketed by slices
/// that took `before_s` and `after_s`.
pub fn calibrated(wall_s: f64, before_s: f64, after_s: f64) -> f64 {
    wall_s * C_NOMINAL_S / ((before_s + after_s) / 2.0)
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub wall_s: f64,
    pub calibrated_s: f64,
}

/// The calibration kernel and the slice it ran last. The kernel has the
/// shape of a DES inner loop — binary-heap pop and push, a hash-map
/// update, a `Vec` append — over a heap of `SLICE_HEAP` entries, so it
/// slows down under the same cache and CPU contention the engines do.
pub struct Calibrator {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    seen: HashMap<u32, u64>,
    log: Vec<u64>,
    rng: u64,
    last_slice_s: f64,
    /// Every slice run so far, for the `calib.*` noise gauges.
    pub slices_s: Vec<f64>,
    /// Switched off (untimed warm-up passes) no slice runs and
    /// calibrated seconds are wall seconds.
    on: bool,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut cal = Self {
            heap: (0..SLICE_HEAP as u32)
                .map(|i| Reverse((u64::from(i) * 7919 % 100_003, i)))
                .collect(),
            seen: HashMap::new(),
            log: Vec::with_capacity(SLICE_OPS),
            rng: 0x9E37_79B9_7F4A_7C15,
            last_slice_s: 0.0,
            slices_s: Vec::new(),
            on: true,
        };
        cal.slice(); // untimed warm-up: grows the map and faults pages in
        cal.slices_s.clear();
        cal.slice();
        cal
    }

    /// A calibrator that runs no slices, for passes nobody times.
    pub fn off() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seen: HashMap::new(),
            log: Vec::new(),
            rng: 0,
            last_slice_s: C_NOMINAL_S,
            slices_s: Vec::new(),
            on: false,
        }
    }

    fn slice(&mut self) {
        if !self.on {
            return;
        }
        let t = Stopwatch::start();
        self.log.clear();
        for _ in 0..SLICE_OPS {
            let Reverse((at, id)) = self.heap.pop().expect("heap keeps its size");
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            *self.seen.entry(id % 4096).or_insert(0) += 1;
            self.log.push(at);
            self.heap.push(Reverse((at + 1 + self.rng % 1_000_000, id)));
        }
        std::hint::black_box(&self.log);
        self.last_slice_s = t.seconds();
        self.slices_s.push(self.last_slice_s);
    }

    /// Times `f` between the slice run last and a fresh one. Work done
    /// between two `timed` calls (checks, bookkeeping) must stay short,
    /// or the leading slice is no longer adjacent.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timing) {
        let before_s = self.last_slice_s;
        let t = Stopwatch::start();
        let out = f();
        let wall_s = t.seconds();
        self.slice();
        let timing = Timing {
            wall_s,
            calibrated_s: calibrated(wall_s, before_s, self.last_slice_s),
        };
        (out, timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0]), 4.0);
        assert!((quartiles(&v).iqr_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    /// A host whose speed swings 3× (one regime change every 21 steps,
    /// plus a spike that hits a single slice) must not move the
    /// estimate: the call really costs 6.2 slices at any speed.
    #[test]
    fn pairing_recovers_true_ratio_under_3x_speed_swing() {
        let true_ratio = 6.2;
        let mut noise = 0x2545_F491_4F6C_DD1Du64;
        let mut jitter = || {
            noise ^= noise << 13;
            noise ^= noise >> 7;
            noise ^= noise << 17;
            0.99 + (noise % 1000) as f64 / 50_000.0 // ±1%
        };
        let speed = |step: usize| {
            if (step / 21).is_multiple_of(2) {
                1.0
            } else {
                3.0
            }
        };
        let mut samples = Vec::new();
        let mut raw = Vec::new();
        for call in 0..40 {
            // slice k runs at step 2k, call k at step 2k+1
            let mut before = 0.08 * speed(2 * call) * jitter();
            let wall = true_ratio * 0.08 * speed(2 * call + 1) * jitter();
            let after = 0.08 * speed(2 * call + 2) * jitter();
            if call % 9 == 4 {
                before *= 2.5; // a preemption that hit only this slice
            }
            samples.push(calibrated(wall, before, after));
            raw.push(wall);
        }
        let estimate = median(&samples) / C_NOMINAL_S;
        assert!(
            (estimate / true_ratio - 1.0).abs() < 0.03,
            "estimated {estimate}, true {true_ratio}"
        );
        // The raw wall-clock samples of the same calls spread 3×.
        assert!(quartiles(&raw).iqr_ratio() > 0.5);
        assert!(quartiles(&samples).iqr_ratio() < 0.05);
    }

    #[test]
    fn a_slice_is_fixed_work_and_long_enough_to_divide_by() {
        let mut cal = Calibrator::new();
        let ((), t) = cal.timed(|| ());
        assert_eq!(cal.slices_s.len(), 2);
        assert_eq!(cal.heap.len(), SLICE_HEAP);
        assert_eq!(cal.log.len(), SLICE_OPS);
        assert!(cal.slices_s.iter().all(|&s| s > 0.01));
        assert!(t.wall_s < 0.01);
    }
}
