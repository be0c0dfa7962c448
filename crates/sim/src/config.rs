//! Simulation configuration.

use faas_trace::TimeDelta;

use crate::fault::FaultPlan;

/// Strategy for choosing which worker hosts a newly provisioned
/// container. Only workers that can fit the container (free memory, or
/// free plus evictable idle memory) are considered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// The worker with the most free memory (falls back to the most
    /// reclaimable memory under pressure). Balances load; the default.
    #[default]
    MaxFree,
    /// Rotate through fitting workers in order, OpenLambda-style
    /// round-robin dispatch.
    RoundRobin,
    /// The lowest-numbered fitting worker; packs the cluster tightly,
    /// concentrating eviction pressure.
    FirstFit,
}

/// Which implementation the scheduling/eviction hot paths use.
///
/// Both modes make byte-identical decisions; the reference mode keeps
/// the original linear scans alive as the oracle for differential
/// property tests (see `faas_sim::reference` and `tests/equivalence.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanMode {
    /// Indexed pools and lazy-deletion eviction heaps (production).
    #[default]
    Indexed,
    /// The retained naive linear scans (differential-test oracle).
    Reference,
}

/// Configuration of one simulation run.
///
/// The defaults model the paper's main testbed: a three-worker cluster
/// with a 100 GB aggregate function cache and single-threaded containers.
///
/// # Examples
///
/// ```
/// use faas_sim::SimConfig;
///
/// let cfg = SimConfig::with_cache_gb(160).container_threads(4);
/// let total: u64 = cfg.workers_mb.iter().sum();
/// // Three equal workers; integer division loses at most 2 MB.
/// assert!(total > 160 * 1024 - 3 && total <= 160 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Per-worker memory capacity in MB.
    pub workers_mb: Vec<u64>,
    /// Execution threads per container (1 except in the Fig. 21 study).
    pub threads: u32,
    /// Interval between policy ticks (TTL expiration, prewarming).
    pub tick: TimeDelta,
    /// Worker-placement strategy for new containers.
    pub placement: Placement,
    /// Fault-injection schedule ([`FaultPlan::none`] by default — zero
    /// RNG draws, zero fault events, byte-identical to fault-free runs).
    pub faults: FaultPlan,
    /// Hot-path implementation selector ([`ScanMode::Indexed`] by
    /// default; [`ScanMode::Reference`] replays the original linear
    /// scans for differential testing).
    pub scan: ScanMode,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::with_cache_gb(100)
    }
}

impl SimConfig {
    /// A three-worker cluster splitting `cache_gb` GB of total function
    /// cache evenly, matching the evaluation's cache-size sweep
    /// (80–160 GB, Fig. 12).
    pub fn with_cache_gb(cache_gb: u64) -> Self {
        let per_worker = cache_gb * 1024 / 3;
        Self {
            workers_mb: vec![per_worker; 3],
            threads: 1,
            tick: TimeDelta::from_secs(10),
            placement: Placement::MaxFree,
            faults: FaultPlan::none(),
            scan: ScanMode::Indexed,
        }
    }

    /// Explicit per-worker capacities in MB.
    pub fn workers_mb(mut self, caps: Vec<u64>) -> Self {
        self.workers_mb = caps;
        self
    }

    /// A uniform cluster of `n` workers with `mb` MB each (the §5.2
    /// production configuration is `uniform(37, 384 * 1024)`).
    pub fn uniform_workers(mut self, n: usize, mb: u64) -> Self {
        self.workers_mb = vec![mb; n];
        self
    }

    /// Sets threads per container (Fig. 21).
    pub fn container_threads(mut self, threads: u32) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the policy tick interval.
    pub fn tick(mut self, tick: TimeDelta) -> Self {
        self.tick = tick;
        self
    }

    /// Sets the worker-placement strategy.
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the fault-injection plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the hot-path implementation ([`ScanMode`]).
    pub fn scan_mode(mut self, scan: ScanMode) -> Self {
        self.scan = scan;
        self
    }

    // Inert: the sharded engine is deleted. `benchmark/benches/adapter.rs`
    // (frozen) still calls this; the next `benchmark` PR removes both.
    #[doc(hidden)]
    pub fn shards(self, _shards: usize) -> Self {
        self
    }

    // Inert: memory is accounted once, by the ledger. The frozen
    // `benchmark/benches/adapter.rs` still calls this; the next
    // `benchmark` PR removes both.
    #[doc(hidden)]
    pub fn without_memory_timeseries(self) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_three_workers_100gb() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.workers_mb.len(), 3);
        assert_eq!(cfg.threads, 1);
        // Integer division loses at most 2 MB.
        let total: u64 = cfg.workers_mb.iter().sum();
        assert!((100 * 1024 - 3..=100 * 1024).contains(&total));
    }

    #[test]
    fn builders_chain() {
        let cfg = SimConfig::default()
            .uniform_workers(2, 1000)
            .container_threads(8)
            .tick(TimeDelta::from_secs(1));
        assert_eq!(cfg.workers_mb, vec![1000, 1000]);
        assert_eq!(cfg.threads, 8);
        assert_eq!(cfg.tick, TimeDelta::from_secs(1));
    }

    #[test]
    fn placement_defaults_and_overrides() {
        assert_eq!(SimConfig::default().placement, Placement::MaxFree);
        let cfg = SimConfig::default().placement(Placement::RoundRobin);
        assert_eq!(cfg.placement, Placement::RoundRobin);
    }

    #[test]
    fn scan_mode_defaults_indexed() {
        assert_eq!(SimConfig::default().scan, ScanMode::Indexed);
        let cfg = SimConfig::default().scan_mode(ScanMode::Reference);
        assert_eq!(cfg.scan, ScanMode::Reference);
    }

    #[test]
    fn default_faults_are_none() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.faults, FaultPlan::none());
        assert_eq!(cfg, SimConfig::default().faults(FaultPlan::none()));
        let faulty = SimConfig::default().faults(FaultPlan::none().provision_failures(0.1));
        assert_ne!(faulty.faults, FaultPlan::none());
    }
}
