//! CLI: `cargo run -p cidre-lint [-- --root <dir>] [--write-baseline]
//! [--verbose] [--format=text|json]`
//!
//! Exit codes: 0 clean, 1 gate failure (new violation, stale baseline,
//! or bad allow), 2 usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use cidre_lint::{check_gate, fresh_baseline, scan_workspace, to_json, Baseline, Rule};

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut write_baseline = false;
    let mut verbose = false;
    let mut format = Format::Text;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            "--write-baseline" => write_baseline = true,
            "--verbose" | "-v" => verbose = true,
            "--format=text" => format = Format::Text,
            "--format=json" => format = Format::Json,
            "--help" | "-h" => {
                eprintln!(
                    "cidre-lint: determinism & safety analyzer\n\
                     \n\
                     USAGE: cidre-lint [--root <dir>] [--write-baseline] [--verbose]\n\
                     \x20                [--format=text|json]\n\
                     \n\
                     Scans every .rs file in the workspace, applies the rule set\n\
                     (W1 wall-clock, O1 hash iteration, F1 partial_cmp, C1 lossy\n\
                     casts, E1 ambient entropy, U1 unwrap in hot paths, P1 library\n\
                     printing, G1 guard across await, K1 wake under lock, L1\n\
                     lock-order cycles — the last two seeded from\n\
                     lint-locks.toml), honours\n\
                     justified `// lint:allow(RULE[,RULE…]): why` comments, and gates\n\
                     the result against lint-baseline.toml (exact match required).\n\
                     --write-baseline regenerates the baseline from the live scan.\n\
                     --format=json emits the scan + gate as deterministic JSON."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    // Default root: the workspace that contains this crate, so
    // `cargo run -p cidre-lint` works from anywhere inside it.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
    });
    let baseline_path = root.join("lint-baseline.toml");

    if write_baseline {
        let text = match fresh_baseline(&root) {
            Ok(t) => t,
            Err(e) => return fail(&e),
        };
        if let Err(e) = std::fs::write(&baseline_path, &text) {
            return fail(&format!("writing {}: {e}", baseline_path.display()));
        }
        println!("cidre-lint: wrote {}", baseline_path.display());
        return ExitCode::SUCCESS;
    }

    let result = match scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => return fail(&format!("{}: {e}", baseline_path.display())),
        },
        Err(e) => {
            return fail(&format!(
                "{}: {e}\nrun `cidre-lint --write-baseline` to create it",
                baseline_path.display()
            ))
        }
    };

    let gate = check_gate(&result, &baseline);
    if format == Format::Json {
        print!("{}", to_json(&result, &gate));
        return if gate.is_clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if verbose || !gate.is_clean() {
        for file in &result.files {
            for v in &file.violations {
                println!("{} {}:{} {}", v.rule.id(), file.rel_path, v.line, v.message);
            }
        }
    }
    println!(
        "cidre-lint: scanned {} files, {} live finding(s) across {} (rule, crate) bucket(s)",
        result.files_scanned,
        result
            .counts
            .iter()
            .filter(|((r, _), _)| *r != Rule::A0)
            .map(|(_, n)| n)
            .sum::<usize>(),
        result.counts.len()
    );
    if gate.is_clean() {
        println!("cidre-lint: gate clean (baseline exactly matched)");
        return ExitCode::SUCCESS;
    }
    for (rule, krate, live, accepted) in &gate.new_violations {
        eprintln!(
            "cidre-lint: NEW violation(s): rule {} in crate `{krate}`: live {live} > accepted {accepted} \
             — fix them or add `// lint:allow({}): <why>`",
            rule.id(),
            rule.id()
        );
    }
    for (rule, krate, live, accepted) in &gate.stale_entries {
        eprintln!(
            "cidre-lint: STALE baseline: rule {} in crate `{krate}`: live {live} < accepted {accepted} \
             — run `cargo run -p cidre-lint -- --write-baseline` to ratchet down",
            rule.id()
        );
    }
    if gate.bad_allows > 0 {
        eprintln!(
            "cidre-lint: {} bad lint:allow directive(s) (missing justification / unknown rule) — \
             these are never baselinable",
            gate.bad_allows
        );
    }
    ExitCode::FAILURE
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("cidre-lint: {msg} (try --help)");
    ExitCode::from(2)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("cidre-lint: {msg}");
    ExitCode::from(2)
}
