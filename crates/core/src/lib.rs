//! CIDRE: concurrency-informed delayed reuse and eviction.
//!
//! This crate implements the paper's primary contribution on top of the
//! [`faas_sim`] policy traits:
//!
//! * [`CipKeepAlive`] — the concurrency-informed priority eviction policy
//!   (§3.3, Eq. 3): container-level recency/cost/size statistics combined
//!   with function-level invocation frequency and warm-container counts.
//! * [`BssScaler`] — basic speculative scaling (§3.2): race a delayed
//!   warm start against a cold start for every blocked request.
//! * [`CssScaler`] — conditional speculative scaling (Algorithm 1): a
//!   per-function hint-based classifier that disables the cold-start path
//!   when speculation is being wasted and re-enables it when queueing
//!   outgrows provisioning cost.
//!
//! [`cidre_stack`] assembles the full system (CIP + CSS); ablation
//! constructors provide the paper's Fig. 15 variants.
//!
//! # Examples
//!
//! ```
//! use cidre_core::{cidre_stack, CidreConfig};
//! use faas_sim::{run, SimConfig};
//! use faas_trace::gen;
//!
//! let trace = gen::azure(11).functions(10).minutes(1).build();
//! let report = run(&trace, &SimConfig::default(), cidre_stack(CidreConfig::default()));
//! assert_eq!(report.requests.len(), trace.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// DESIGN.md §8, in library code outside tests: no walk of a hash
// collection and no environment read (O1, E1), no lossy cast (C1), no
// printing (P1).
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::iter_over_hash_type,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
        clippy::cast_precision_loss,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

mod cip;
mod config;
mod css;

pub use cip::CipKeepAlive;
pub use config::{CidreConfig, TeEstimator};
pub use css::{BssScaler, CssScaler};

use faas_sim::{AlwaysCold, PolicyStack};

/// The complete CIDRE policy stack: CIP eviction + CSS scaling.
pub fn cidre_stack(config: CidreConfig) -> PolicyStack {
    PolicyStack::new(
        Box::new(CipKeepAlive::new()),
        Box::new(CssScaler::new(config)),
    )
}

/// The CIDRE_BSS variant evaluated throughout §5: CIP eviction + basic
/// speculative scaling.
pub fn cidre_bss_stack() -> PolicyStack {
    PolicyStack::new(Box::new(CipKeepAlive::new()), Box::new(BssScaler))
}

/// Ablation (Fig. 15): CIP eviction alone, with traditional always-cold
/// scaling.
pub fn cip_only_stack() -> PolicyStack {
    PolicyStack::new(Box::new(CipKeepAlive::new()), Box::new(AlwaysCold))
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_sim::{run, SimConfig, StartClass};
    use faas_trace::gen;

    #[test]
    fn stacks_have_expected_labels() {
        assert_eq!(cidre_stack(CidreConfig::default()).label(), "cip+css");
        assert_eq!(cidre_bss_stack().label(), "cip+bss");
        assert_eq!(cip_only_stack().label(), "cip+cold");
    }

    #[test]
    fn cidre_reduces_cold_starts_vs_always_cold() {
        let trace = gen::fc(42).functions(20).minutes(2).build();
        let cfg = SimConfig::default().workers_mb(vec![4096]);
        let cidre = run(&trace, &cfg, cidre_stack(CidreConfig::default()));
        let vanilla = run(&trace, &cfg, cip_only_stack());
        assert!(
            cidre.ratio(StartClass::Cold) < vanilla.ratio(StartClass::Cold),
            "CIDRE cold ratio {} must beat always-cold {}",
            cidre.ratio(StartClass::Cold),
            vanilla.ratio(StartClass::Cold)
        );
    }

    #[test]
    fn css_wastes_fewer_cold_starts_than_bss() {
        let trace = gen::fc(7).functions(20).minutes(2).build();
        let cfg = SimConfig::default().workers_mb(vec![4096]);
        let css = run(&trace, &cfg, cidre_stack(CidreConfig::default()));
        let bss = run(&trace, &cfg, cidre_bss_stack());
        assert!(
            css.containers_created <= bss.containers_created,
            "CSS created {} containers, BSS {}",
            css.containers_created,
            bss.containers_created
        );
    }
}
