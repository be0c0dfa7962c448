//! Experiment registry: names, descriptions, and dispatch.

use std::sync::Mutex;

use crate::experiments;
use crate::{ExpCtx, Out};

/// One registered experiment.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Subcommand name (e.g. `fig12`).
    pub name: &'static str,
    /// One-line description shown by `experiments list`.
    pub description: &'static str,
    /// Entry point: runs the experiment, narrating into the [`Out`].
    pub run: fn(&ExpCtx, &mut Out),
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("name", &self.name)
            .finish()
    }
}

/// All experiments in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "table1",
            description: "workload statistics (requests, Rps, GBps)",
            run: experiments::table1::run,
        },
        Experiment {
            name: "fig2",
            description: "cold-start/exec-time ratio CDFs",
            run: experiments::fig2::run,
        },
        Experiment {
            name: "fig3",
            description: "function concurrency CDFs",
            run: experiments::fig3::run,
        },
        Experiment {
            name: "fig5",
            description: "queueing vs cold-start tradeoff CDFs (Azure)",
            run: experiments::fig5_6::run_fig5,
        },
        Experiment {
            name: "fig6",
            description: "queueing vs cold-start tradeoff CDFs (FC)",
            run: experiments::fig5_6::run_fig6,
        },
        Experiment {
            name: "fig7",
            description: "busy-container queue length sweep L in {0,1,2}",
            run: experiments::fig7::run,
        },
        Experiment {
            name: "fig8",
            description: "FaasCache vs FaasCache-C eviction",
            run: experiments::fig8::run,
        },
        Experiment {
            name: "fig9",
            description: "opportunity space vs cold-start overhead",
            run: experiments::fig9_10::run_fig9,
        },
        Experiment {
            name: "fig10",
            description: "opportunity space vs execution time",
            run: experiments::fig9_10::run_fig10,
        },
        Experiment {
            name: "fig12",
            description: "all policies x cache sizes 80-160 GB (heavy)",
            run: experiments::fig12::run,
        },
        Experiment {
            name: "fig13",
            description: "overhead + E2E CDFs at 100 GB",
            run: experiments::fig13::run,
        },
        Experiment {
            name: "fig14",
            description: "BSS on/off at 37-worker production scale",
            run: experiments::fig14::run,
        },
        Experiment {
            name: "fig15",
            description: "ablation: FC / CIP / BSS / CSS / CIDRE",
            run: experiments::fig15::run,
        },
        Experiment {
            name: "fig16",
            description: "memory usage vs concurrency level",
            run: experiments::fig16::run,
        },
        Experiment {
            name: "fig17",
            description: "Te estimator sensitivity",
            run: experiments::fig17::run,
        },
        Experiment {
            name: "fig18",
            description: "sliding-window size sensitivity",
            run: experiments::fig18::run,
        },
        Experiment {
            name: "fig19",
            description: "IAT (load) scaling sensitivity",
            run: experiments::fig19::run,
        },
        Experiment {
            name: "fig20",
            description: "execution-time scaling (incl. Table 2)",
            run: experiments::fig20::run,
        },
        Experiment {
            name: "table2",
            description: "alias of fig20 (same run emits Table 2)",
            run: experiments::fig20::run,
        },
        Experiment {
            name: "fig21",
            description: "intra-container thread count sweep",
            run: experiments::fig21::run,
        },
        Experiment {
            name: "placement",
            description: "extra: worker-placement ablation (beyond the paper)",
            run: experiments::extra_placement::run,
        },
        Experiment {
            name: "variance",
            description: "extra: section 2.6 execution-time variance analysis",
            run: experiments::extra_variance::run,
        },
        Experiment {
            name: "faults",
            description: "extra: policy degradation under injected failures",
            run: experiments::faults::run,
        },
        Experiment {
            name: "pareto",
            description: "extra: latency vs memory-cost frontier per policy",
            run: experiments::pareto::run,
        },
        Experiment {
            name: "trace",
            description: "extra: latency waterfalls + Chrome trace export per policy",
            run: experiments::trace::run,
        },
        Experiment {
            name: "sweep",
            description: "custom policy x cache sweep (--policies, --caches-gb, --workload)",
            run: experiments::sweep::run,
        },
    ]
}

/// Runs one experiment by name, or every paper artifact for `"all"`,
/// handing each run's [`Out`] to `emit`. Returns `false` if the name is
/// unknown.
///
/// `all` runs its experiments `ctx.jobs` at a time, each into its own
/// [`Out`] followed by a blank line. A finished block waits until every
/// earlier one has been emitted, so `emit` sees the blocks in registry
/// order, and the same blocks, whatever `jobs` is.
pub fn run_by_name(name: &str, ctx: &ExpCtx, emit: impl FnMut(Out) + Send) -> bool {
    let all = name == "all";
    // `table2` aliases fig20 (same run); `sweep` is an interactive
    // tool, not a paper artifact.
    let exps: Vec<Experiment> = registry()
        .into_iter()
        .filter(|e| {
            if all {
                !matches!(e.name, "table2" | "sweep")
            } else {
                e.name == name
            }
        })
        .collect();
    if exps.is_empty() {
        return false;
    }
    let done = Mutex::new((0, exps.iter().map(|_| None).collect::<Vec<_>>(), emit));
    faas_testkit::par_map(&exps, ctx.jobs, |i, exp| {
        let mut out = Out::default();
        (exp.run)(ctx, &mut out);
        if all {
            writeln!(out);
        }
        let mut done = done.lock().expect("emitter poisoned");
        let (next, blocks, emit) = &mut *done;
        blocks[i] = Some(out);
        while let Some(block) = blocks.get_mut(*next).and_then(Option::take) {
            emit(block);
            *next += 1;
        }
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }

    #[test]
    fn registry_covers_every_paper_artifact() {
        let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
        for required in [
            "table1", "table2", "fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
            "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
            "fig21",
        ] {
            assert!(names.contains(&required), "missing experiment {required}");
        }
    }

    #[test]
    fn unknown_name_reports_false() {
        let ctx = ExpCtx::quick();
        assert!(!run_by_name("figNaN", &ctx, |_| {}));
    }
}
