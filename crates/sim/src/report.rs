//! Simulation outcome: per-request records and derived metrics.

use faas_metrics::{Cdf, Summary};
use faas_trace::{FunctionId, TimeDelta, TimePoint};

use crate::ledger::CostLedger;
use crate::policy::StartClass;

/// Outcome record for one completed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// The invoked function.
    pub func: FunctionId,
    /// Arrival time.
    pub arrival: TimePoint,
    /// Invocation overhead: time from arrival until execution began.
    pub wait: TimeDelta,
    /// Pure execution duration.
    pub exec: TimeDelta,
    /// How the request started (warm / delayed warm / cold).
    pub class: StartClass,
}

impl RequestRecord {
    /// The paper's per-request overhead ratio:
    /// `wait / (wait + exec)` (§2.4), in `[0, 1]`.
    pub fn overhead_ratio(&self) -> f64 {
        let w = self.wait.as_millis_f64();
        let e = self.exec.as_millis_f64();
        if w + e == 0.0 {
            0.0
        } else {
            w / (w + e)
        }
    }

    /// End-to-end service time: wait plus execution.
    pub fn e2e(&self) -> TimeDelta {
        self.wait + self.exec
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// One record per completed request, in the order executions
    /// started (crash-voided executions leave no record).
    pub requests: Vec<RequestRecord>,
    /// Containers created over the run (cold starts initiated, including
    /// speculative and prewarmed ones).
    pub containers_created: u64,
    /// Containers evicted by the keep-alive policy.
    pub containers_evicted: u64,
    /// Speculative containers evicted without serving any request.
    pub wasted_cold_starts: u64,
    /// Provisions that failed (fault injection) and were retried.
    pub provision_failures: u64,
    /// Containers destroyed by worker crashes (fault injection).
    pub crash_evictions: u64,
    /// Simulated completion time of the last request.
    pub finished_at: TimePoint,
    /// Resource-cost ledger: memory residency by lifecycle class plus
    /// scheduling-work counters (DESIGN.md §11).
    pub ledger: CostLedger,
    /// The instant the ledger was settled: the latest charge timestamp
    /// of the run. Residency tails of containers still alive at the end
    /// are charged up to exactly this point, so the ledger equals the
    /// integral of the cluster's used memory over `[0, ledger_settled_at]`:
    /// a container traced by `run_traced` holds its memory from its
    /// `ProvisionBegin` to its `ProvisionEnd { ok: false }` or `Evict`,
    /// or else to this instant.
    pub ledger_settled_at: TimePoint,
}

impl SimReport {
    /// Number of requests with the given start class.
    pub fn count(&self, class: StartClass) -> u64 {
        self.requests.iter().filter(|r| r.class == class).count() as u64
    }

    /// Fraction of requests with the given start class, in `[0, 1]`.
    /// Zero when the report is empty.
    #[expect(
        clippy::cast_precision_loss,
        reason = "request counts sit far below 2^53 — exact in f64"
    )]
    pub fn ratio(&self, class: StartClass) -> f64 {
        if self.requests.is_empty() {
            0.0
        } else {
            self.count(class) as f64 / self.requests.len() as f64
        }
    }

    /// Mean per-request overhead ratio (the paper's headline "average
    /// overhead ratio", e.g. Figs. 7, 8, 12, 15). Zero when empty.
    #[expect(
        clippy::cast_precision_loss,
        reason = "request counts sit far below 2^53 — exact in f64"
    )]
    pub fn avg_overhead_ratio(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests
            .iter()
            .map(RequestRecord::overhead_ratio)
            .sum::<f64>()
            / self.requests.len() as f64
    }

    /// Summary of invocation overheads in milliseconds (Fig. 20).
    pub fn wait_summary(&self) -> Summary {
        self.requests
            .iter()
            .map(|r| r.wait.as_millis_f64())
            .collect()
    }

    /// CDF of invocation overheads in milliseconds (Figs. 13a/b, 14, 19).
    pub fn wait_cdf(&self) -> Cdf {
        self.requests
            .iter()
            .map(|r| r.wait.as_millis_f64())
            .collect()
    }

    /// CDF of end-to-end service times in milliseconds (Figs. 13c/d).
    pub fn e2e_cdf(&self) -> Cdf {
        self.requests
            .iter()
            .map(|r| r.e2e().as_millis_f64())
            .collect()
    }

    /// CDF of waits for one class only (the Fig. 5/6 tradeoff curves).
    pub fn wait_cdf_of(&self, class: StartClass) -> Cdf {
        self.requests
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.wait.as_millis_f64())
            .collect()
    }

    /// Serialises every request record as CSV
    /// (`func,arrival_us,wait_us,exec_us,class`), for offline analysis of
    /// a run in external tooling.
    pub fn requests_csv(&self) -> String {
        let mut out = String::from("func,arrival_us,wait_us,exec_us,class\n");
        for r in &self.requests {
            let class = match r.class {
                StartClass::Warm => "warm",
                StartClass::DelayedWarm => "delayed",
                StartClass::Cold => "cold",
            };
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                r.func.0,
                r.arrival.as_micros(),
                r.wait.as_micros(),
                r.exec.as_micros(),
                class
            ));
        }
        out
    }

    /// Memory bill per completed request in GB-seconds — the cost axis
    /// of the `pareto` sweep. Zero when the report is empty.
    pub fn gb_s_per_request(&self) -> f64 {
        self.ledger.gb_s_per_request(self.requests.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(wait_ms: u64, exec_ms: u64, class: StartClass) -> RequestRecord {
        RequestRecord {
            func: FunctionId(0),
            arrival: TimePoint::ZERO,
            wait: TimeDelta::from_millis(wait_ms),
            exec: TimeDelta::from_millis(exec_ms),
            class,
        }
    }

    #[test]
    fn overhead_ratio_definition() {
        assert_eq!(rec(0, 10, StartClass::Warm).overhead_ratio(), 0.0);
        assert_eq!(rec(10, 10, StartClass::Cold).overhead_ratio(), 0.5);
        assert_eq!(rec(0, 0, StartClass::Warm).overhead_ratio(), 0.0);
    }

    #[test]
    fn ratios_partition() {
        let report = SimReport {
            requests: vec![
                rec(0, 1, StartClass::Warm),
                rec(1, 1, StartClass::Cold),
                rec(1, 1, StartClass::DelayedWarm),
                rec(0, 1, StartClass::Warm),
            ],
            ..Default::default()
        };
        assert_eq!(report.ratio(StartClass::Warm), 0.5);
        assert_eq!(report.ratio(StartClass::Cold), 0.25);
        assert_eq!(report.ratio(StartClass::DelayedWarm), 0.25);
        let total = report.ratio(StartClass::Warm)
            + report.ratio(StartClass::Cold)
            + report.ratio(StartClass::DelayedWarm);
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn avg_overhead_ratio_mean() {
        let report = SimReport {
            requests: vec![rec(0, 10, StartClass::Warm), rec(10, 10, StartClass::Cold)],
            ..Default::default()
        };
        assert_eq!(report.avg_overhead_ratio(), 0.25);
    }

    #[test]
    fn empty_report_is_all_zero() {
        let r = SimReport::default();
        assert_eq!(r.avg_overhead_ratio(), 0.0);
        assert_eq!(r.ratio(StartClass::Cold), 0.0);
        assert!(r.wait_cdf().is_empty());
    }

    #[test]
    fn e2e_adds_wait_and_exec() {
        assert_eq!(rec(3, 4, StartClass::Cold).e2e(), TimeDelta::from_millis(7));
    }

    #[test]
    fn csv_dump_has_header_and_rows() {
        let report = SimReport {
            requests: vec![rec(5, 10, StartClass::Cold), rec(0, 10, StartClass::Warm)],
            ..Default::default()
        };
        let csv = report.requests_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "func,arrival_us,wait_us,exec_us,class");
        assert!(lines[1].ends_with(",cold"));
        assert!(lines[2].ends_with(",warm"));
    }

    #[test]
    fn class_filtered_cdf() {
        let report = SimReport {
            requests: vec![
                rec(5, 1, StartClass::Cold),
                rec(9, 1, StartClass::DelayedWarm),
            ],
            ..Default::default()
        };
        let cold = report.wait_cdf_of(StartClass::Cold);
        assert_eq!(cold.samples(), &[5.0]);
    }
}
