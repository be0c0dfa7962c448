//! Minimal property-testing runner.
//!
//! A property is a closure over a [`Gen`], which hands out random values
//! drawn from an underlying stream of raw `u64` *choices*. Recording
//! that stream buys the two features that make property testing usable:
//!
//! * **Shrinking** — on failure, the runner re-executes the property
//!   against simplified copies of the recorded choice stream
//!   (truncated, zeroed, halved). Because every `Gen` accessor maps the
//!   raw choice monotonically onto its range (choice 0 ⇒ range minimum,
//!   missing choices ⇒ 0), simplifying choices simplifies inputs — the
//!   same idea as Hypothesis-style choice-sequence shrinking.
//! * **Failing-seed persistence** — the per-case seed of a (shrunk)
//!   failure is appended to a `*.testkit-regressions` file which is
//!   re-run first on every subsequent run, mirroring the
//!   `proptest-regressions` workflow this replaces.
//!
//! Environment overrides: `TESTKIT_SEED` pins the base seed (printed on
//! every failure), `TESTKIT_CASES` overrides the case count (useful for
//! CI smoke runs).
//!
//! # Examples
//!
//! ```
//! use faas_testkit::Checker;
//!
//! Checker::new("addition_commutes").cases(50).run(|g| {
//!     let a = g.u64(0..1_000);
//!     let b = g.u64(0..1_000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use crate::rng::{splitmix64, Rng};

/// Shrink attempts after a failure, at most.
const SHRINK_BUDGET: u32 = 512;

/// Random-input source handed to properties: draws values from a raw
/// choice stream that is recorded for shrinking and replay.
#[derive(Debug)]
pub struct Gen {
    rng: Rng,
    replay: Option<Vec<u64>>,
    pos: usize,
    record: Vec<u64>,
}

impl Gen {
    fn fresh(seed: u64) -> Self {
        Self {
            rng: Rng::seed_from_u64(seed),
            replay: None,
            pos: 0,
            record: Vec::new(),
        }
    }

    fn replaying(choices: Vec<u64>) -> Self {
        Self {
            rng: Rng::seed_from_u64(0),
            replay: Some(choices),
            pos: 0,
            record: Vec::new(),
        }
    }

    /// The next raw choice. In replay mode, choices past the end of the
    /// recorded stream read as 0 (the minimal value), which is what
    /// makes truncation a valid shrinking move.
    fn draw(&mut self) -> u64 {
        let v = match &self.replay {
            Some(r) => r.get(self.pos).copied().unwrap_or(0),
            None => self.rng.next_u64(),
        };
        self.pos += 1;
        self.record.push(v);
        v
    }

    /// Uniform integer in the half-open range. Choice 0 maps to `lo`.
    pub fn u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.draw() % (range.end - range.start)
    }

    /// Uniform `u32` in the half-open range.
    pub fn u32(&mut self, range: std::ops::Range<u32>) -> u32 {
        self.u64(range.start as u64..range.end as u64) as u32
    }

    /// Uniform `usize` in the half-open range.
    pub fn usize(&mut self, range: std::ops::Range<usize>) -> usize {
        self.u64(range.start as u64..range.end as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`. Choice 0 maps to `lo`.
    pub fn f64(&mut self, range: std::ops::Range<f64>) -> f64 {
        let u = (self.draw() >> 11) as f64 / (1u64 << 53) as f64;
        range.start + u * (range.end - range.start)
    }

    /// Bernoulli draw; choice 0 maps to `false` (for any `p < 1`), so
    /// shrinking turns feature flags off.
    pub fn bool(&mut self, p: f64) -> bool {
        ((self.draw() >> 11) as f64 / (1u64 << 53) as f64) >= 1.0 - p
    }

    /// A vector whose length is drawn from `len`, elements from `f`.
    pub fn vec<T>(
        &mut self,
        len: std::ops::Range<usize>,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.usize(len);
        (0..n).map(|_| f(self)).collect()
    }

    /// One element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.usize(0..items.len())]
    }
}

/// Property-test configuration and runner. See the [module docs](self).
#[derive(Debug)]
pub struct Checker {
    name: String,
    cases: u32,
    base_seed: u64,
    regressions: Option<PathBuf>,
}

impl Checker {
    /// Creates a checker named `name` (used in failure diagnostics and
    /// regression-file entries) with 64 cases.
    pub fn new(name: &str) -> Self {
        let base_seed = std::env::var("TESTKIT_SEED")
            .ok()
            .and_then(|s| parse_seed(&s))
            .unwrap_or(0x001D_EA5E_ED0F_00D5_u64);
        let cases = std::env::var("TESTKIT_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(64);
        Self {
            name: name.to_string(),
            cases,
            base_seed,
            regressions: None,
        }
    }

    /// Sets the number of random cases (`TESTKIT_CASES` still wins).
    pub fn cases(mut self, n: u32) -> Self {
        if std::env::var("TESTKIT_CASES").is_err() {
            self.cases = n;
        }
        self
    }

    /// Sets the regression file: failing case seeds are appended here
    /// and re-run first on every subsequent run. Use a path anchored at
    /// `CARGO_MANIFEST_DIR` so it works from any working directory.
    pub fn regressions_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.regressions = Some(path.into());
        self
    }

    /// Runs the property: persisted regression seeds first, then
    /// `cases` fresh random cases. On failure the input is shrunk, the
    /// case seed persisted, diagnostics printed, and the original panic
    /// re-raised so the test harness reports it.
    pub fn run<F: Fn(&mut Gen)>(self, prop: F) {
        for seed in self.load_regression_seeds() {
            self.run_case(&prop, seed, true);
        }
        let mut sm = self.base_seed ^ fxhash(self.name.as_bytes());
        for _ in 0..self.cases {
            let case_seed = splitmix64(&mut sm);
            self.run_case(&prop, case_seed, false);
        }
    }

    fn run_case<F: Fn(&mut Gen)>(&self, prop: &F, case_seed: u64, from_regression: bool) {
        let mut gen = Gen::fresh(case_seed);
        let outcome = catch_unwind(AssertUnwindSafe(|| prop(&mut gen)));
        let Err(payload) = outcome else { return };
        let choices = gen.record.clone();
        let shrunk = Self::shrink(prop, choices);
        if !from_regression {
            self.persist_regression_seed(case_seed);
        }
        eprintln!(
            "testkit: property '{}' failed (case seed {case_seed:#018x}, {} choices after \
             shrinking{}). Re-run deterministically with TESTKIT_SEED={:#x}.",
            self.name,
            shrunk.len(),
            if from_regression {
                ", replayed from regression file"
            } else {
                ""
            },
            self.base_seed,
        );
        // Re-raise the panic from the most-shrunk failing input so the
        // assertion message matches the minimal counterexample.
        match catch_unwind(AssertUnwindSafe(|| {
            prop(&mut Gen::replaying(shrunk.clone()))
        })) {
            Err(p) => resume_unwind(p),
            Ok(()) => resume_unwind(payload),
        }
    }

    /// Greedy choice-stream shrinking: truncation, chunk zeroing, and
    /// per-value halving, repeated until the budget runs out or no pass
    /// makes progress. Returns the simplest still-failing stream.
    fn shrink<F: Fn(&mut Gen)>(prop: &F, mut best: Vec<u64>) -> Vec<u64> {
        let fails = |choices: &[u64]| {
            catch_unwind(AssertUnwindSafe(|| {
                prop(&mut Gen::replaying(choices.to_vec()))
            }))
            .is_err()
        };
        let mut attempts = 0u32;
        let mut progressed = true;
        while progressed && attempts < SHRINK_BUDGET {
            progressed = false;
            // Pass 1: cut the tail in half, then quarters.
            for denom in [2usize, 4, 8] {
                let keep = best.len() - best.len() / denom;
                if keep < best.len() {
                    let cand = best[..keep].to_vec();
                    attempts += 1;
                    if fails(&cand) {
                        best = cand;
                        progressed = true;
                    }
                }
                if attempts >= SHRINK_BUDGET {
                    return best;
                }
            }
            // Pass 2: zero chunks of shrinking size.
            for chunk in [8usize, 4, 2, 1] {
                let mut i = 0;
                while i < best.len() && attempts < SHRINK_BUDGET {
                    let end = (i + chunk).min(best.len());
                    if best[i..end].iter().any(|&v| v != 0) {
                        let mut cand = best.clone();
                        cand[i..end].iter_mut().for_each(|v| *v = 0);
                        attempts += 1;
                        if fails(&cand) {
                            best = cand;
                            progressed = true;
                        }
                    }
                    i = end;
                }
            }
            // Pass 3: halve individual values.
            for i in 0..best.len() {
                if attempts >= SHRINK_BUDGET {
                    return best;
                }
                if best[i] > 0 {
                    let mut cand = best.clone();
                    cand[i] /= 2;
                    attempts += 1;
                    if fails(&cand) {
                        best = cand;
                        progressed = true;
                    }
                }
            }
        }
        best
    }

    fn load_regression_seeds(&self) -> Vec<u64> {
        let Some(path) = &self.regressions else {
            return Vec::new();
        };
        let Ok(text) = std::fs::read_to_string(path) else {
            return Vec::new();
        };
        let tag = format!("cc {} ", self.name);
        text.lines()
            .filter_map(|line| line.strip_prefix(&tag))
            .filter_map(|rest| parse_seed(rest.split_whitespace().next().unwrap_or("")))
            .collect()
    }

    fn persist_regression_seed(&self, seed: u64) {
        let Some(path) = &self.regressions else {
            return;
        };
        if self.load_regression_seeds().contains(&seed) {
            return;
        }
        let mut text = std::fs::read_to_string(path).unwrap_or_else(|_| {
            "# Failing property-test case seeds persisted by faas-testkit.\n\
             # Each line is `cc <property-name> <case-seed>`; these cases\n\
             # re-run before any new random cases. Check this file in.\n"
                .to_string()
        });
        text.push_str(&format!("cc {} {seed:#018x}\n", self.name));
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("testkit: cannot persist regression seed to {path:?}: {e}");
        }
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Tiny FNV-style hash so differently named properties in one process
/// explore different streams even under a pinned `TESTKIT_SEED`.
fn fxhash(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = AtomicU32::new(0);
        Checker::new("counts_cases").cases(17).run(|g| {
            counter.fetch_add(1, Ordering::Relaxed);
            let v = g.u64(5..10);
            assert!((5..10).contains(&v));
        });
        // TESTKIT_CASES may override the count in exotic CI setups; it
        // must still run at least once.
        assert!(counter.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn failing_property_panics_and_shrinks() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            Checker::new("must_fail").cases(50).run(|g| {
                let v = g.u64(0..1_000_000);
                assert!(v < 10, "found {v}");
            });
        }));
        assert!(result.is_err(), "property should have failed");
    }

    #[test]
    fn shrinking_finds_small_counterexamples() {
        // The minimal failing input for `v >= 100` under shrinking is
        // v == 100 exactly: zeroing pushes toward 0, halving toward the
        // boundary. Capture the last failing value via a cell.
        let last = std::sync::Mutex::new(0u64);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            Checker::new("shrinks_to_boundary").cases(200).run(|g| {
                let v = g.u64(0..1 << 40);
                if v >= 100 {
                    *last.lock().unwrap() = v;
                    panic!("too big: {v}");
                }
            });
        }));
        let v = *last.lock().unwrap();
        assert!(v >= 100, "shrunk input must still fail");
        assert!(
            v < 1 << 20,
            "shrinking should simplify far below 2^40, got {v}"
        );
    }

    #[test]
    fn vec_and_choose_compose() {
        Checker::new("vec_compose").cases(20).run(|g| {
            let xs = g.vec(1..10, |g| g.u32(0..100));
            assert!(!xs.is_empty() && xs.len() < 10);
            let item = *g.choose(&xs);
            assert!(xs.contains(&item));
        });
    }

    #[test]
    fn replay_past_end_yields_minimum() {
        let mut g = Gen::replaying(vec![]);
        assert_eq!(g.u64(7..100), 7);
        assert_eq!(g.f64(0.5..2.0), 0.5);
        assert!(!g.bool(0.99));
    }

    #[test]
    fn regression_file_round_trip() {
        let dir = std::env::temp_dir().join("testkit-prop-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("rt-{}.testkit-regressions", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let checker = Checker::new("rt_prop").regressions_file(&path);
        checker.persist_regression_seed(0xABCD);
        let checker = Checker::new("rt_prop").regressions_file(&path);
        assert_eq!(checker.load_regression_seeds(), vec![0xABCD]);
        // Idempotent.
        checker.persist_regression_seed(0xABCD);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("0x000000000000abcd").count(), 1);
        // Other properties don't see it.
        let other = Checker::new("other_prop").regressions_file(&path);
        assert!(other.load_regression_seeds().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn seed_parsing_accepts_hex_and_decimal() {
        assert_eq!(parse_seed("0x10"), Some(16));
        assert_eq!(parse_seed(" 42 "), Some(42));
        assert_eq!(parse_seed("nope"), None);
    }
}
