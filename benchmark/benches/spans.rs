//! What the traced run records: spans and counts kept in memory and
//! written out at exit, a counting allocator, and two `/proc` gauges.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use crate::estimator::Stopwatch;

/// One timed interval around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span and count recorder of the single generator thread. Switched off
/// (the end-to-end run) it records nothing and `enter`/`exit` cost a
/// branch.
pub struct Tracer {
    on: bool,
    origin: Stopwatch,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.nanos()
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        if !self.on {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// Self time of every span called `name`, in seconds: its duration
    /// minus the part its direct children cover.
    pub fn self_seconds(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c) as f64 / 1e9)
            .collect()
    }

    /// Writes `{"spans":[{id,parent,name,start_ns,end_ns}..],"counts":{..}}`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\":[");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                if id == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("],\"counts\":{");
        for (i, (name, n)) in self.counts.iter().enumerate() {
            let _ = write!(out, "{}\"{name}\":{n}", if i == 0 { "" } else { "," });
        }
        out.push_str("}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

/// The system allocator plus counters that are updated only while
/// counting is on: the end-to-end run pays one relaxed load per call.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE: AtomicI64 = AtomicI64::new(0);

fn note(allocated: usize, freed: usize) {
    // Statistics only: nothing is published through these counters.
    if allocated > 0 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(allocated as u64, Ordering::Relaxed);
    }
    let delta = allocated as i64 - freed as i64;
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never influence
// the returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            note(layout.size(), 0);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            note(0, layout.size());
        }
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            note(layout.size(), 0);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            note(new_size, layout.size());
        }
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller guarantees `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct AllocSnapshot {
    pub allocs: u64,
    pub bytes: u64,
}

/// Starts counting. Live bytes are counted from this point, so switch
/// it on before the first allocation that matters.
pub fn count_allocations() {
    COUNTING.store(true, Ordering::Relaxed);
}

pub fn alloc_snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

pub fn alloc_peak_live_mb() -> f64 {
    PEAK_LIVE.load(Ordering::Relaxed).max(0) as f64 / (1024.0 * 1024.0)
}

fn proc_status_field(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM:").expect("/proc/self/status has VmHWM") / 1024.0
}

/// Threads this process has right now.
pub fn threads_now() -> f64 {
    proc_status_field("Threads:").expect("/proc/self/status has Threads")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        let a = t.enter("inner");
        t.exit(a);
        let b = t.enter("inner");
        t.exit(b);
        t.exit(outer);
        t.count("ops", 2);
        t.count("ops", 3);
        let s = &t.spans;
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        let children: u64 = s[1..].iter().map(|c| c.end_ns - c.start_ns).sum();
        let expect = (s[0].end_ns - s[0].start_ns - children) as f64 / 1e9;
        assert_eq!(t.self_seconds("outer"), vec![expect]);
        assert_eq!(t.self_seconds("inner").len(), 2);
        assert_eq!(t.counts["ops"], 5);
    }

    #[test]
    fn a_tracer_switched_off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x");
        t.exit(id);
        t.count("n", 1);
        assert!(t.spans.is_empty() && t.counts.is_empty());
    }

    #[test]
    fn proc_gauges_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(threads_now() >= 1.0);
    }
}
