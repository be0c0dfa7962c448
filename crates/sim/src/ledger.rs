//! Deterministic resource-cost ledger (DESIGN.md §11).
//!
//! Latency metrics say what the policies won; this ledger says what
//! they paid. Every container's memory residency is charged to exactly
//! one of two lifecycle classes — provisioning ([`CostLedger::cold_start_mb_us`])
//! or warm ([`CostLedger::keep_warm_mb_us`]) — so the two always sum to
//! the integral of the cluster's memory-usage step function (the
//! conservation property pinned in `tests/properties.rs`). Two overlay
//! classes refine the warm charge: idle time (warm but serving nothing)
//! and speculative waste (the full residency of CSS provisions that
//! lost their race and never served).
//!
//! All accumulators are integers in MB·µs, so every charge is exact.
//! Conversion to GB·s happens only at the reporting boundary.

/// Resource costs and scheduling work accumulated over one run.
///
/// Lives inside `ClusterState`, whose mutators charge it. See the module
/// docs for the charging discipline and DESIGN.md §11 for where each
/// class is charged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostLedger {
    /// Warm residency: memory × time from `warm_at` until destruction
    /// (or end-of-run settlement) for every container that turned warm.
    pub keep_warm_mb_us: u128,
    /// Wasted-idle subset of `keep_warm_mb_us`: memory × time spent
    /// warm with zero occupied threads.
    pub idle_mb_us: u128,
    /// Provisioning residency: memory × time from `created_at` until
    /// the container turned warm, failed, or crashed mid-provision.
    pub cold_start_mb_us: u128,
    /// Speculative waste: the full residency (provisioning + warm) of
    /// containers destroyed or settled having never served a request
    /// after a speculative start. Overlaps the two lifecycle classes;
    /// never exceeds their sum.
    pub speculative_mb_us: u128,
    /// Scheduling work: request dispatches onto container threads
    /// (every execution start, including re-executions after crashes).
    pub dispatches: u64,
    /// Scheduling work: REPLACE admissions that evicted at least one
    /// victim to make room.
    pub replace_rounds: u64,
}

/// One MB held for one second, in the ledger's integer unit.
const MB_US_PER_GB_S: f64 = 1024.0 * 1e6;

impl CostLedger {
    /// Total memory residency (provisioning + warm) in MB·µs; equals
    /// the integral of the cluster memory step function over the run.
    pub fn total_mb_us(&self) -> u128 {
        self.cold_start_mb_us + self.keep_warm_mb_us
    }

    /// Warm (keep-alive) residency in GB-seconds.
    pub fn keep_warm_gb_s(&self) -> f64 {
        to_gb_s(self.keep_warm_mb_us)
    }

    /// Wasted-idle residency in GB-seconds.
    pub fn idle_gb_s(&self) -> f64 {
        to_gb_s(self.idle_mb_us)
    }

    /// Provisioning (cold-start) residency in GB-seconds.
    pub fn cold_start_gb_s(&self) -> f64 {
        to_gb_s(self.cold_start_mb_us)
    }

    /// Speculative-loser residency in GB-seconds.
    pub fn speculative_gb_s(&self) -> f64 {
        to_gb_s(self.speculative_mb_us)
    }

    /// Total residency in GB-seconds.
    pub fn total_gb_s(&self) -> f64 {
        to_gb_s(self.total_mb_us())
    }

    /// Total GB-seconds divided by `served` requests — the memory bill
    /// per request. Zero when nothing was served.
    #[expect(
        clippy::cast_precision_loss,
        reason = "reporting-boundary conversion; the exact integer total is already fixed"
    )]
    pub fn gb_s_per_request(&self, served: u64) -> f64 {
        if served == 0 {
            0.0
        } else {
            self.total_gb_s() / served as f64
        }
    }
}

/// MB·µs → GB·s at the reporting boundary.
#[expect(
    clippy::cast_precision_loss,
    reason = "reporting-boundary conversion; comparisons all happen on the exact integer \
              accumulators"
)]
fn to_gb_s(mb_us: u128) -> f64 {
    mb_us as f64 / MB_US_PER_GB_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversion_is_gb_seconds() {
        // 1024 MB held for 1 s = 1024 MB · 1e6 µs = 1 GB·s.
        let ledger = CostLedger {
            keep_warm_mb_us: 1024 * 1_000_000,
            ..Default::default()
        };
        assert!((ledger.keep_warm_gb_s() - 1.0).abs() < 1e-12);
        assert!((ledger.total_gb_s() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_request_bill_handles_zero_served() {
        let ledger = CostLedger {
            cold_start_mb_us: 1024 * 1_000_000,
            ..Default::default()
        };
        assert_eq!(ledger.gb_s_per_request(0), 0.0);
        assert!((ledger.gb_s_per_request(2) - 0.5).abs() < 1e-12);
    }
}
