//! CLI for the CIDRE experiment suite.
//!
//! ```text
//! experiments <name|all|list> [--quick] [--tiny] [--out DIR] [--seed N] [--jobs N]
//!                             [--policies A,B] [--caches-gb N,M] [--workload azure|fc]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use cidre_bench::experiments::sweep::parse_list;
use cidre_bench::{registry, run_by_name, ExpCtx, Workload};

fn usage() {
    eprintln!("usage: experiments <name|all|list> [flags]");
    eprintln!("  --quick           reduced scale (fewer functions, shorter traces)");
    eprintln!("  --tiny            miniature scale (CI smoke; same as the goldens)");
    eprintln!("  --out DIR         CSV output directory (default: results)");
    eprintln!("  --seed N          workload generation seed (default: 42)");
    eprintln!("  --jobs N          worker threads for policy/cache fan-out, and for");
    eprintln!("                    `all`'s experiments (so up to N² threads)");
    eprintln!("                    (default: 1; 0 or more than the cores = all");
    eprintln!("                    cores; results identical)");
    eprintln!("  sweep only:");
    eprintln!("  --policies A,B,C  policies to sweep");
    eprintln!("  --caches-gb N,M   paper-scale cache sizes in GB");
    eprintln!("  --workload W      azure or fc");
    eprintln!("       experiments list    # show all experiment names");
}

/// The worker count of `--jobs VALUE` on a machine with `cores` cores,
/// and a note for stderr when the value was clamped: `0` means every
/// core, and more than `cores` gets `cores`, since `all` runs up to
/// `jobs²` threads. `Err` holds the message for a value that is not a
/// count.
fn parse_jobs(value: Option<&str>, cores: usize) -> Result<(usize, Option<String>), String> {
    let jobs = value
        .and_then(|s| s.parse::<usize>().ok())
        .ok_or("--jobs requires an integer (0 = all cores)")?;
    Ok(match jobs {
        0 => (cores, None),
        jobs if jobs > cores => (
            cores,
            Some(format!(
                "--jobs {jobs} is more than the {cores} available core(s); using {cores}"
            )),
        ),
        jobs => (jobs, None),
    })
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(name) = args.next() else {
        usage();
        return ExitCode::FAILURE;
    };
    let mut ctx = ExpCtx::default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => ctx.scale = cidre_bench::Scale::Quick,
            "--tiny" => ctx.scale = cidre_bench::Scale::Tiny,
            "--out" => match args.next() {
                Some(dir) => ctx.out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(seed) => ctx.seed = seed,
                None => {
                    eprintln!("--seed requires an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match parse_jobs(args.next().as_deref(), faas_testkit::default_jobs()) {
                Ok((jobs, note)) => {
                    ctx.jobs = jobs;
                    if let Some(note) = note {
                        eprintln!("{note}");
                    }
                }
                Err(message) => {
                    eprintln!("{message}");
                    return ExitCode::FAILURE;
                }
            },
            "--policies" => match args.next().map(|s| parse_list(&s)) {
                Some(list) if !list.is_empty() => ctx.sweep.policies = Some(list),
                _ => {
                    eprintln!("--policies requires a non-empty comma-separated list");
                    return ExitCode::FAILURE;
                }
            },
            "--caches-gb" => {
                let parsed = args.next().map(|s| {
                    parse_list(&s)
                        .iter()
                        .map(|e| e.parse::<u64>())
                        .collect::<Result<Vec<u64>, _>>()
                });
                match parsed {
                    Some(Ok(list)) if !list.is_empty() => ctx.sweep.caches_gb = Some(list),
                    _ => {
                        eprintln!(
                            "--caches-gb requires a non-empty comma-separated list of integers"
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--workload" => match args.next().as_deref().and_then(Workload::from_name) {
                Some(w) => ctx.sweep.workload = Some(w),
                None => {
                    eprintln!("--workload requires `azure` or `fc`");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
                return ExitCode::FAILURE;
            }
        }
    }

    if name == "list" {
        for exp in registry() {
            println!("{:<8} {}", exp.name, exp.description);
        }
        return ExitCode::SUCCESS;
    }

    println!(
        "CIDRE experiment suite — {} scale, seed {}, {} job{}, output {}",
        format!("{:?}", ctx.scale).to_lowercase(),
        ctx.seed,
        ctx.jobs,
        if ctx.jobs == 1 { "" } else { "s" },
        ctx.out_dir.display()
    );
    #[expect(
        clippy::disallowed_types,
        reason = "CLI progress timer only; never feeds a result"
    )]
    let start = std::time::Instant::now();
    // Each block is printed as soon as it and every earlier one are done.
    let mut failed = 0;
    let known = run_by_name(&name, &ctx, |out| {
        print!("{}", out.text);
        failed += out.write_failures;
    });
    if !known {
        eprintln!("unknown experiment {name:?}; try `experiments list`");
        return ExitCode::FAILURE;
    }
    if failed > 0 {
        eprintln!("{failed} output file(s) could not be written");
        return ExitCode::FAILURE;
    }
    // Linux reports the resident-set high-water mark as `VmHWM: N kB`.
    let peak_rss = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            kb.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()
        })
        .map(|kb| format!(", peak RSS {} MB", kb / 1024))
        .unwrap_or_default();
    println!("done in {:.1}s{peak_rss}", start.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::parse_jobs;

    #[test]
    fn jobs_above_the_core_count_are_clamped_with_a_note() {
        assert_eq!(parse_jobs(Some("2"), 4), Ok((2, None)));
        assert_eq!(parse_jobs(Some("4"), 4), Ok((4, None)));
        assert_eq!(parse_jobs(Some("0"), 4), Ok((4, None)));
        let (jobs, note) = parse_jobs(Some("64"), 4).expect("a count");
        assert_eq!(jobs, 4);
        let note = note.expect("a clamp is noted");
        assert!(note.contains("64") && note.contains("using 4"), "{note}");
        assert_eq!(
            parse_jobs(Some("18446744073709551615"), 2).map(|j| j.0),
            Ok(2)
        );
    }

    #[test]
    fn jobs_must_be_a_count() {
        for value in [None, Some(""), Some("-1"), Some("two"), Some("1.5")] {
            assert!(parse_jobs(value, 4).is_err(), "{value:?}");
        }
    }
}
