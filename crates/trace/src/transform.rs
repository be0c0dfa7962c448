//! Trace transforms used by the paper's sensitivity studies.

use crate::{FunctionId, Invocation, TimePoint, Trace};

#[cfg(test)]
use crate::TimeDelta;

/// Scales all inter-arrival times by `factor` (Fig. 19).
///
/// A factor of 2.0 doubles every gap (halving the load); 0.5 compresses
/// the trace (doubling the load). Implemented as scaling each arrival's
/// offset from the trace origin, which scales every inter-arrival gap by
/// the same factor. Execution times are unchanged.
///
/// # Panics
///
/// Panics if `factor` is negative or NaN.
pub fn scale_iat(trace: &Trace, factor: f64) -> Trace {
    assert!(factor >= 0.0, "IAT factor must be non-negative");
    let (functions, invocations) = trace.clone().into_parts();
    let invocations = invocations
        .into_iter()
        .map(|inv| {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "the factor is asserted non-negative and micros stay below 2^53, \
                          so the scaled product rounds exactly"
            )]
            let us = (inv.arrival.as_micros() as f64 * factor).round() as u64;
            Invocation {
                arrival: TimePoint::from_micros(us),
                ..inv
            }
        })
        .collect();
    Trace::new(functions, invocations).expect("transform preserves consistency")
}

/// Scales every invocation's execution time by `factor` (Figs. 10 and 20,
/// Table 2). Arrivals are unchanged.
///
/// # Panics
///
/// Panics if `factor` is negative or NaN.
pub fn scale_exec(trace: &Trace, factor: f64) -> Trace {
    let (functions, invocations) = trace.clone().into_parts();
    let invocations = invocations
        .into_iter()
        .map(|inv| Invocation {
            exec: inv.exec.scale(factor),
            ..inv
        })
        .collect();
    Trace::new(functions, invocations).expect("transform preserves consistency")
}

/// Keeps only invocations arriving in `[start, end)`, re-basing arrivals
/// so the slice starts at time zero. All profiles are retained.
pub fn slice_time(trace: &Trace, start: TimePoint, end: TimePoint) -> Trace {
    let (functions, invocations) = trace.clone().into_parts();
    let invocations = invocations
        .into_iter()
        .filter(|i| i.arrival >= start && i.arrival < end)
        .map(|i| Invocation {
            arrival: TimePoint::ZERO + (i.arrival - start),
            ..i
        })
        .collect();
    Trace::new(functions, invocations).expect("transform preserves consistency")
}

/// Merges two traces into one workload, remapping the second trace's
/// function ids past the first's so they never collide. Used to model
/// multi-tenant clusters (§5.2's production pool is "shared with other
/// FC FaaS tenants"): the foreground workload plus a background-tenant
/// trace compete for the same container cache.
pub fn merge(a: &Trace, b: &Trace) -> Trace {
    let offset = a.functions().iter().map(|f| f.id.0 + 1).max().unwrap_or(0);
    let (mut functions, mut invocations) = a.clone().into_parts();
    let (b_functions, b_invocations) = b.clone().into_parts();
    functions.extend(b_functions.into_iter().map(|mut f| {
        f.id = FunctionId(f.id.0 + offset);
        f
    }));
    invocations.extend(b_invocations.into_iter().map(|mut i| {
        i.func = FunctionId(i.func.0 + offset);
        i
    }));
    Trace::new(functions, invocations).expect("disjoint ids preserve consistency")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FunctionProfile;

    fn base() -> Trace {
        let fs = vec![
            FunctionProfile::new(FunctionId(0), "a", 128, TimeDelta::from_millis(100)),
            FunctionProfile::new(FunctionId(1), "b", 256, TimeDelta::from_millis(300)),
        ];
        let invs = vec![
            Invocation {
                func: FunctionId(0),
                arrival: TimePoint::from_millis(10),
                exec: TimeDelta::from_millis(4),
            },
            Invocation {
                func: FunctionId(1),
                arrival: TimePoint::from_millis(30),
                exec: TimeDelta::from_millis(8),
            },
        ];
        Trace::new(fs, invs).expect("valid")
    }

    #[test]
    fn iat_scaling_scales_gaps() {
        let t = scale_iat(&base(), 2.0);
        let a: Vec<u64> = t
            .invocations()
            .iter()
            .map(|i| i.arrival.as_micros())
            .collect();
        assert_eq!(a, vec![20_000, 60_000]);
        // Exec unchanged.
        assert_eq!(t.invocations()[0].exec, TimeDelta::from_millis(4));
    }

    #[test]
    fn iat_scale_half_compresses() {
        let t = scale_iat(&base(), 0.5);
        assert_eq!(t.invocations()[0].arrival, TimePoint::from_millis(5));
    }

    #[test]
    fn exec_scaling_leaves_arrivals() {
        let t = scale_exec(&base(), 1.5);
        assert_eq!(t.invocations()[0].exec, TimeDelta::from_millis(6));
        assert_eq!(t.invocations()[0].arrival, TimePoint::from_millis(10));
    }

    #[test]
    fn slicing_rebases_time() {
        let t = slice_time(
            &base(),
            TimePoint::from_millis(20),
            TimePoint::from_millis(40),
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.invocations()[0].arrival, TimePoint::from_millis(10));
    }

    #[test]
    fn slice_excludes_end() {
        let t = slice_time(
            &base(),
            TimePoint::from_millis(10),
            TimePoint::from_millis(30),
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.invocations()[0].func, FunctionId(0));
    }

    #[test]
    fn merge_remaps_and_preserves_everything() {
        let merged = merge(&base(), &base());
        assert_eq!(merged.functions().len(), 4);
        assert_eq!(merged.len(), 4);
        // The second copy's ids are shifted past the first's.
        assert!(merged.function(FunctionId(2)).is_some());
        assert!(merged.function(FunctionId(3)).is_some());
        // Same arrival stream, duplicated.
        let at_10ms = merged
            .invocations()
            .iter()
            .filter(|i| i.arrival == TimePoint::from_millis(10))
            .count();
        assert_eq!(at_10ms, 2);
    }

    #[test]
    fn merge_with_empty_is_identity_modulo_profiles() {
        let merged = merge(&base(), &Trace::default());
        assert_eq!(merged.len(), base().len());
        assert_eq!(merged.functions().len(), 2);
    }

    #[test]
    fn zero_iat_factor_collapses_arrivals() {
        let t = scale_iat(&base(), 0.0);
        assert!(t.invocations().iter().all(|i| i.arrival == TimePoint::ZERO));
    }
}
