//! The rule set, scoped to this workspace's determinism invariants.
//!
//! Every rule is a token-pattern matcher over [`crate::lexer::lex`]
//! output — deliberately heuristic (no type information), tuned so the
//! things it *can* see are exactly the things the differential oracle
//! and the pinned CSV goldens depend on. What a rule cannot prove safe
//! it flags; humans answer with a justified
//! `// lint:allow(RULE): why` or a fix. See DESIGN.md §8.
//!
//! | rule | invariant |
//! |------|-----------|
//! | W1   | no wall-clock (`Instant::now`/`SystemTime`) outside `crates/live` and `testkit::bench` |
//! | O1   | no `HashMap`/`HashSet` iteration in report-feeding crates (sim, policies, faas-core, trace, metrics) |
//! | F1   | no `partial_cmp` on floats — `f64::total_cmp` is total and NaN-safe |
//! | C1   | no lossy `as u64`/`as usize`/`as f64` casts on time/memory arithmetic |
//! | E1   | no ambient entropy (`RandomState`, `DefaultHasher`, env reads) in sim paths |
//! | U1   | no `unwrap()` in the pool/engine hot-path crates — `expect("<invariant>")` |
//! | P1   | no `println!`/`eprintln!` in library code — record via `faas_obs` or return data; binaries/tests exempt |
//! | G1   | no `Mutex`/`RwLock` guard binding live across an `.await` point |
//! | K1   | no `wake()` reachable under an executor lock guard (workspace pass, seeded) |
//! | L1   | no cycle in the seeded lock-acquisition-order graph (workspace pass) |
//! | A0   | every `lint:allow` carries a justification |
//!
//! G1 is flow-sensitive but file-local, so it runs here with the other
//! per-file rules; K1/L1 need cross-file state and run in
//! [`crate::conc`], seeded from `lint-locks.toml`. See DESIGN.md §13.

use crate::lexer::{lex, Comment, Token, TokenKind};
use crate::parser::{fn_items, nested_spans, walk_body, Event};

/// Rule identifiers. `A0` is the meta-rule (bad suppression) and can
/// never be baselined or suppressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Wall-clock outside the live substrate / bench harness.
    W1,
    /// Unordered hash-collection iteration on a report-feeding path.
    O1,
    /// `partial_cmp` on floats instead of `total_cmp`.
    F1,
    /// Lossy numeric cast on time/memory arithmetic.
    C1,
    /// Ambient entropy in sim paths.
    E1,
    /// `unwrap()` in pool/engine hot paths.
    U1,
    /// Direct stdout/stderr printing from library code.
    P1,
    /// Lock guard live across an `.await` point.
    G1,
    /// `wake()` reachable while an executor lock guard is held.
    K1,
    /// Lock-acquisition-order cycle over the seeded lock set.
    L1,
    /// `lint:allow` without a justification (or with an unknown rule).
    A0,
}

impl Rule {
    /// All baselinable rules, in display order. `A0` is excluded: an
    /// unjustified allow is always fatal.
    pub const BASELINABLE: [Rule; 10] = [
        Rule::W1,
        Rule::O1,
        Rule::F1,
        Rule::C1,
        Rule::E1,
        Rule::U1,
        Rule::P1,
        Rule::G1,
        Rule::K1,
        Rule::L1,
    ];

    /// Stable textual id used in baselines and allow directives.
    pub fn id(self) -> &'static str {
        match self {
            Rule::W1 => "W1",
            Rule::O1 => "O1",
            Rule::F1 => "F1",
            Rule::C1 => "C1",
            Rule::E1 => "E1",
            Rule::U1 => "U1",
            Rule::P1 => "P1",
            Rule::G1 => "G1",
            Rule::K1 => "K1",
            Rule::L1 => "L1",
            Rule::A0 => "A0",
        }
    }

    /// Parses a rule id as written inside `lint:allow(...)`.
    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "W1" => Some(Rule::W1),
            "O1" => Some(Rule::O1),
            "F1" => Some(Rule::F1),
            "C1" => Some(Rule::C1),
            "E1" => Some(Rule::E1),
            "U1" => Some(Rule::U1),
            "P1" => Some(Rule::P1),
            "G1" => Some(Rule::G1),
            "K1" => Some(Rule::K1),
            "L1" => Some(Rule::L1),
            "A0" => Some(Rule::A0),
            _ => None,
        }
    }
}

/// Whether a file is product source or test-context source. Files under
/// `tests/`, `benches/`, or `examples/` are test context wholesale;
/// `#[cfg(test)] mod` regions inside source files are detected per
/// token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library/binary source.
    Source,
    /// Integration tests, benches, examples.
    TestFile,
}

/// Where a file lives, for rule scoping.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Crate directory name under `crates/` (`sim`, `faas-core`, …) or
    /// `"root"` for the workspace-root package.
    pub crate_name: String,
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Source vs test context.
    pub file_kind: FileKind,
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable explanation with the fix direction.
    pub message: String,
}

/// Crates whose output feeds reports/goldens: O1 scope.
const REPORT_CRATES: [&str; 5] = ["sim", "policies", "faas-core", "trace", "metrics"];
/// Crates doing time/memory arithmetic that must not silently truncate.
const ARITH_CRATES: [&str; 5] = ["sim", "faas-core", "trace", "metrics", "core"];
/// Crates that must stay free of ambient entropy.
const ENTROPY_CRATES: [&str; 5] = ["sim", "policies", "faas-core", "core", "trace"];
/// Crates whose hot paths must use `expect` with an invariant message.
const HOT_PATH_CRATES: [&str; 2] = ["faas-core", "sim"];

/// Methods that observe hash-collection iteration order.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "into_iter",
];

/// Analyzes one file: lexes, runs every in-scope rule, applies
/// justified suppressions, and reports bad suppressions as [`Rule::A0`].
pub fn analyze_file(ctx: &FileContext, src: &str) -> Vec<Violation> {
    let lexed = lex(src);
    let in_test = test_spans(&lexed.tokens, ctx.file_kind);
    let mut violations = Vec::new();

    rule_w1(ctx, &lexed.tokens, &mut violations);
    rule_o1(ctx, &lexed.tokens, &in_test, &mut violations);
    rule_f1(&lexed.tokens, &mut violations);
    rule_c1(ctx, &lexed.tokens, &in_test, &mut violations);
    rule_e1(ctx, &lexed.tokens, &in_test, &mut violations);
    rule_u1(ctx, &lexed.tokens, &mut violations);
    rule_p1(ctx, &lexed.tokens, &in_test, &mut violations);
    rule_g1(&lexed.tokens, &mut violations);

    let (allows, mut a0) = parse_allows(&lexed.comments);
    apply_suppressions(&lexed.tokens, &allows, &mut violations);
    violations.append(&mut a0);
    violations.sort_by_key(|v| (v.line, v.rule));
    violations
}

/// Marks which token indices sit inside a `#[cfg(test)] mod … { … }`
/// region. For [`FileKind::TestFile`] everything is test context.
pub(crate) fn test_spans(tokens: &[Token], kind: FileKind) -> Vec<bool> {
    let mut flags = vec![kind == FileKind::TestFile; tokens.len()];
    if kind == FileKind::TestFile {
        return flags;
    }
    let t = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut i = 0;
    while i < tokens.len() {
        // #[cfg(test)]
        let is_cfg_test = t(i) == "#"
            && t(i + 1) == "["
            && t(i + 2) == "cfg"
            && t(i + 3) == "("
            && t(i + 4) == "test"
            && t(i + 5) == ")"
            && t(i + 6) == "]";
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Scan past any further attributes to the item; only `mod`
        // blocks get span treatment (a cfg(test) `use` has no body).
        let mut j = i + 7;
        while t(j) == "#" && t(j + 1) == "[" {
            let mut k = j + 2;
            let mut depth = 1;
            while k < tokens.len() && depth > 0 {
                match t(k) {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
                k += 1;
            }
            j = k;
        }
        if t(j) != "mod" {
            i = j.max(i + 1);
            continue;
        }
        // Find the opening brace, then its match.
        let mut k = j;
        while k < tokens.len() && t(k) != "{" {
            k += 1;
        }
        let start = k;
        let mut depth = 0usize;
        while k < tokens.len() {
            match t(k) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        for f in flags.iter_mut().take(k.min(tokens.len())).skip(start) {
            *f = true;
        }
        i = k.max(i + 1);
    }
    flags
}

/// W1: wall-clock reads. Allowed zones: all of `crates/live` (it *is*
/// the wall-clock substrate) and the testkit bench harness.
fn rule_w1(ctx: &FileContext, tokens: &[Token], out: &mut Vec<Violation>) {
    let allowed = ctx.crate_name == "live"
        || (ctx.crate_name == "testkit" && ctx.rel_path.ends_with("bench.rs"));
    if allowed {
        return;
    }
    for tok in tokens {
        if tok.kind == TokenKind::Ident && (tok.text == "Instant" || tok.text == "SystemTime") {
            out.push(Violation {
                rule: Rule::W1,
                line: tok.line,
                message: format!(
                    "wall-clock `{}` outside crates/live / testkit::bench; \
                     sim time must come from the event clock",
                    tok.text
                ),
            });
        }
    }
}

/// O1: iteration over `HashMap`/`HashSet` in report-feeding crates.
///
/// Pass 1 collects identifiers declared with a hash-collection type
/// (`name: HashMap<…>` fields/params and `let name = HashMap::new()`
/// style bindings). Pass 2 flags `name.iter()`-family calls and
/// `for … in [&][mut] [self.]name` loops over those identifiers.
fn rule_o1(ctx: &FileContext, tokens: &[Token], in_test: &[bool], out: &mut Vec<Violation>) {
    if !REPORT_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    let t = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut names: Vec<String> = Vec::new();
    for i in 0..tokens.len() {
        if t(i) != "HashMap" && t(i) != "HashSet" {
            continue;
        }
        // `name : [&][mut] HashMap` (field, param, or annotated let).
        let mut j = i;
        while j > 0 && (t(j - 1) == "&" || t(j - 1) == "mut") {
            j -= 1;
        }
        if j >= 2 && t(j - 1) == ":" && tokens[j - 2].kind == TokenKind::Ident {
            names.push(tokens[j - 2].text.clone());
            continue;
        }
        // `let [mut] name = HashMap::new()` / `with_capacity` / `from`.
        if t(i + 1) == ":" && t(i + 2) == ":" {
            let mut k = i;
            let floor = k.saturating_sub(6);
            while k > floor {
                if t(k - 1) == "let" {
                    let mut n = k; // token after `let`
                    if t(n) == "mut" {
                        n += 1;
                    }
                    if tokens.get(n).map(|t| t.kind) == Some(TokenKind::Ident) {
                        names.push(tokens[n].text.clone());
                    }
                    break;
                }
                k -= 1;
            }
        }
    }
    names.sort();
    names.dedup();
    if names.is_empty() {
        return;
    }
    let is_tracked = |s: &str| names.iter().any(|n| n == s);
    for i in 0..tokens.len() {
        if in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        // name.iter() / self.name.keys() / name.drain() …
        if tokens[i].kind == TokenKind::Ident
            && ITER_METHODS.contains(&t(i))
            && t(i + 1) == "("
            && i >= 2
            && t(i - 1) == "."
            && tokens[i - 2].kind == TokenKind::Ident
            && is_tracked(t(i - 2))
        {
            out.push(Violation {
                rule: Rule::O1,
                line: tokens[i].line,
                message: format!(
                    "unordered hash-collection iteration `{}.{}()` on a report-feeding \
                     path; use BTreeMap/BTreeSet or sort before iterating",
                    t(i - 2),
                    t(i)
                ),
            });
        }
        // for pat in [&][mut] path.to.name { — walk the ident/`.` chain
        // after `in`; the loop iterates the chain's last ident.
        if t(i) == "in" {
            let mut j = i + 1;
            while t(j) == "&" || t(j) == "mut" {
                j += 1;
            }
            let mut last_ident = None;
            while j < tokens.len() {
                if tokens[j].kind == TokenKind::Ident {
                    last_ident = Some(j);
                    j += 1;
                } else if t(j) == "." && tokens.get(j + 1).map(|t| t.kind) == Some(TokenKind::Ident)
                {
                    j += 1;
                } else {
                    break;
                }
            }
            if let (Some(li), "{") = (last_ident, t(j)) {
                let j = li;
                if is_tracked(t(j)) && !in_test.get(j).copied().unwrap_or(false) {
                    out.push(Violation {
                        rule: Rule::O1,
                        line: tokens[j].line,
                        message: format!(
                            "unordered `for … in {}` over a hash collection on a \
                             report-feeding path; use BTreeMap/BTreeSet or sort first",
                            t(j)
                        ),
                    });
                }
            }
        }
    }
}

/// F1: any `partial_cmp` call site (the two `fn partial_cmp` trait
/// impl definitions are exempt). Applies everywhere, tests included —
/// a NaN-unsafe comparator in a differential-oracle test is still a
/// NaN-unsafe comparator.
fn rule_f1(tokens: &[Token], out: &mut Vec<Violation>) {
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind == TokenKind::Ident && tok.text == "partial_cmp" {
            let prev = i.checked_sub(1).map(|j| tokens[j].text.as_str());
            if prev == Some("fn") {
                continue; // PartialOrd impl, not a call site
            }
            out.push(Violation {
                rule: Rule::F1,
                line: tok.line,
                message: "float comparison via `partial_cmp`; use `f64::total_cmp` \
                          (total order, no NaN unwrap)"
                    .to_string(),
            });
        }
    }
}

/// Idents that mark an expression as time/memory arithmetic for C1.
fn is_time_mem_marker(ident: &str) -> bool {
    ident.ends_with("_ms")
        || ident.ends_with("_mb")
        || ident.ends_with("_at")
        || ident.contains("micros")
        || ident.contains("millis")
        || ident.contains("secs")
        || ident.contains("mem")
        || ident.contains("bytes")
}

/// C1: `… as u64|usize|f64` where the expression (up to 8 tokens back,
/// stopping at a statement boundary) mentions a time/memory identifier.
fn rule_c1(ctx: &FileContext, tokens: &[Token], in_test: &[bool], out: &mut Vec<Violation>) {
    if !ARITH_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    let t = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    for i in 0..tokens.len() {
        if t(i) != "as" || in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let target = t(i + 1);
        if !matches!(target, "u64" | "usize" | "f64") {
            continue;
        }
        let floor = i.saturating_sub(8);
        let mut marker = None;
        for j in (floor..i).rev() {
            let txt = t(j);
            if matches!(txt, ";" | "{" | "}" | "=") {
                break;
            }
            if tokens[j].kind == TokenKind::Ident && is_time_mem_marker(txt) {
                marker = Some(txt.to_string());
                break;
            }
        }
        if let Some(m) = marker {
            out.push(Violation {
                rule: Rule::C1,
                line: tokens[i].line,
                message: format!(
                    "lossy `as {target}` cast on time/memory arithmetic (near `{m}`); \
                     use a checked conversion or widen the type"
                ),
            });
        }
    }
}

/// E1: ambient entropy in sim paths — hash-randomization types and
/// environment reads both make runs machine-dependent.
fn rule_e1(ctx: &FileContext, tokens: &[Token], in_test: &[bool], out: &mut Vec<Violation>) {
    if !ENTROPY_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    let t = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    for (i, tok) in tokens.iter().enumerate() {
        if in_test.get(i).copied().unwrap_or(false) || tok.kind != TokenKind::Ident {
            continue;
        }
        let flagged = match tok.text.as_str() {
            "RandomState" | "DefaultHasher" => Some(tok.text.clone()),
            "env" if t(i + 1) == ":" && t(i + 2) == ":" => {
                let m = t(i + 3);
                if m.starts_with("var") || m == "vars" {
                    Some(format!("env::{m}"))
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(what) = flagged {
            out.push(Violation {
                rule: Rule::E1,
                line: tok.line,
                message: format!(
                    "ambient entropy `{what}` in a sim path; seed explicitly via \
                     testkit or thread configuration through SimConfig"
                ),
            });
        }
    }
}

/// U1: `.unwrap()` in the pool/engine hot-path crates (tests included:
/// oracle tests panicking without an invariant message cost real
/// debugging time).
fn rule_u1(ctx: &FileContext, tokens: &[Token], out: &mut Vec<Violation>) {
    if !HOT_PATH_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    let t = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    for (i, tok) in tokens.iter().enumerate() {
        if tok.text == "unwrap" && t(i + 1) == "(" && i >= 1 && t(i - 1) == "." {
            out.push(Violation {
                rule: Rule::U1,
                line: tok.line,
                message: "`unwrap()` in a pool/engine hot path; use \
                          `expect(\"<violated invariant>\")` naming the invariant"
                    .to_string(),
            });
        }
    }
}

/// P1: `println!` / `eprintln!` in library code. Observability belongs
/// in the `faas_obs` recorder (or returned data the caller renders);
/// ad-hoc stdout writes from a library can't be disabled, captured, or
/// diffed. Exempt: binaries (`src/bin/`, `src/main.rs`) — a CLI's whole
/// job is printing — plus test context and the two crates whose product
/// *is* terminal output (`testkit`'s bench harness, the linter itself).
fn rule_p1(ctx: &FileContext, tokens: &[Token], in_test: &[bool], out: &mut Vec<Violation>) {
    if ctx.file_kind == FileKind::TestFile
        || ctx.crate_name == "testkit"
        || ctx.crate_name == "lint"
        || ctx.rel_path.contains("/src/bin/")
        || ctx.rel_path.ends_with("src/main.rs")
    {
        return;
    }
    let t = |i: usize| tokens.get(i).map(|t| t.text.as_str()).unwrap_or("");
    for (i, tok) in tokens.iter().enumerate() {
        if in_test.get(i).copied().unwrap_or(false) || tok.kind != TokenKind::Ident {
            continue;
        }
        if (tok.text == "println" || tok.text == "eprintln") && t(i + 1) == "!" {
            out.push(Violation {
                rule: Rule::P1,
                line: tok.line,
                message: format!(
                    "`{}!` in library code; record through faas_obs (or return \
                     data for the caller to render) instead of writing to the \
                     terminal",
                    tok.text
                ),
            });
        }
    }
}

/// G1: a lock-guard binding live across an `.await` point. The guard
/// pins the lock (or poisons determinism-adjacent invariants) for an
/// unbounded suspension: any other task contending the lock deadlocks
/// against the suspended holder. Applies to every crate, tests
/// included — a deadlock in an oracle test still hangs CI. Flow
/// semantics (births, `drop` kills, block scoping, re-acquisition)
/// live in [`crate::parser::walk_body`].
fn rule_g1(tokens: &[Token], out: &mut Vec<Violation>) {
    let fns = fn_items(tokens);
    for k in 0..fns.len() {
        let skip = nested_spans(&fns, k);
        walk_body(tokens, fns[k].body, &skip, |e, live| {
            let Event::Await { line } = e else { return };
            if live.is_empty() {
                return;
            }
            let mut names: Vec<String> = live
                .iter()
                .map(|g| format!("`{}` (line {})", g.name, g.line))
                .collect();
            names.sort();
            out.push(Violation {
                rule: Rule::G1,
                line: *line,
                message: format!(
                    "lock guard {} is live across this `.await`; drop it (or scope \
                     it out) before suspending",
                    names.join(", ")
                ),
            });
        });
    }
}

/// A parsed, justified `lint:allow` directive.
#[derive(Debug)]
pub(crate) struct Allow {
    rules: Vec<Rule>,
    /// Line of the directive comment.
    line: u32,
    /// Last line of the directive comment (block comments).
    end_line: u32,
}

/// Parses `lint:allow(R1[,R2…]): justification` directives out of
/// comments. Directives with no justification, an empty justification,
/// an unknown rule, or an attempt to allow `A0` are themselves
/// violations (A0).
pub(crate) fn parse_allows(comments: &[Comment]) -> (Vec<Allow>, Vec<Violation>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        // Doc comments (`///`, `//!`, `/** */`, `/*! */`) are rendered
        // documentation — the grammar is *described* there, never used.
        // Directives must live in plain comments.
        if c.text.starts_with('/') || c.text.starts_with('!') || c.text.starts_with('*') {
            continue;
        }
        let Some(at) = c.text.find("lint:allow") else {
            continue;
        };
        let rest = &c.text[at + "lint:allow".len()..];
        let mut fail = |why: &str| {
            bad.push(Violation {
                rule: Rule::A0,
                line: c.line,
                message: format!("bad lint:allow directive: {why}"),
            });
        };
        let Some(open) = rest.find('(') else {
            fail("missing rule list `(RULE, …)`");
            continue;
        };
        let Some(close) = rest.find(')') else {
            fail("unclosed rule list");
            continue;
        };
        if rest[..open].trim() != "" || close < open {
            fail("malformed rule list");
            continue;
        }
        let mut rules = Vec::new();
        let mut ok = true;
        for part in rest[open + 1..close].split(',') {
            match Rule::parse(part.trim()) {
                Some(Rule::A0) => {
                    fail("A0 (unjustified allow) can never itself be allowed");
                    ok = false;
                    break;
                }
                Some(r) => rules.push(r),
                None => {
                    fail(&format!("unknown rule `{}`", part.trim()));
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let justification = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if justification.is_empty() {
            fail("missing justification — write `lint:allow(RULE): <why this is safe>`");
            continue;
        }
        allows.push(Allow {
            rules,
            line: c.line,
            end_line: c.end_line,
        });
    }
    (allows, bad)
}

/// Applies justified allows: a directive suppresses its rules on the
/// directive's own line (trailing-comment form) or on the first line
/// containing code within three lines below it (comment-above form).
pub(crate) fn apply_suppressions(
    tokens: &[Token],
    allows: &[Allow],
    violations: &mut Vec<Violation>,
) {
    if allows.is_empty() {
        return;
    }
    let mut code_lines: Vec<u32> = tokens.iter().map(|t| t.line).collect();
    code_lines.sort_unstable();
    code_lines.dedup();
    let has_code = |l: u32| code_lines.binary_search(&l).is_ok();
    violations.retain(|v| {
        !allows.iter().any(|a| {
            if !a.rules.contains(&v.rule) {
                return false;
            }
            if has_code(a.line) {
                // Trailing-comment form: only the directive's own line.
                return v.line == a.line;
            }
            // Comment-above form: first code line within 3 lines below.
            let mut target = None;
            for l in a.end_line + 1..=a.end_line + 3 {
                if has_code(l) {
                    target = Some(l);
                    break;
                }
            }
            target == Some(v.line)
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(crate_name: &str, rel: &str, kind: FileKind) -> FileContext {
        FileContext {
            crate_name: crate_name.to_string(),
            rel_path: rel.to_string(),
            file_kind: kind,
        }
    }

    fn rules_of(v: &[Violation]) -> Vec<Rule> {
        v.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn w1_fires_outside_allowed_zone_only() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        let v = analyze_file(&ctx("sim", "crates/sim/src/x.rs", FileKind::Source), src);
        assert_eq!(rules_of(&v), vec![Rule::W1]);
        let v = analyze_file(&ctx("live", "crates/live/src/x.rs", FileKind::Source), src);
        assert!(v.is_empty());
        let v = analyze_file(
            &ctx("testkit", "crates/testkit/src/bench.rs", FileKind::Source),
            src,
        );
        assert!(v.is_empty());
    }

    #[test]
    fn o1_catches_method_and_for_loops() {
        let src = "
            use std::collections::HashMap;
            struct S { m: HashMap<u32, u32> }
            fn f(s: &S) {
                for (k, v) in &s.m {}
                let _ = s.m.values().count();
            }
        ";
        // `s.m` receiver: token before `.` is `m`? the chain is s . m . values —
        // receiver ident before `values` is `m`, tracked via field decl.
        let v = analyze_file(&ctx("sim", "crates/sim/src/x.rs", FileKind::Source), src);
        assert!(rules_of(&v).contains(&Rule::O1), "got {v:?}");
    }

    #[test]
    fn o1_still_sees_a_map_with_the_id_hasher() {
        // A fixed hasher makes iteration order repeat from run to run,
        // so a dependence on it no longer shows up as flakiness: the
        // third type parameter must not hide the map from the rule.
        let src = "
            use std::collections::HashMap;
            use faas_core::IdBuildHasher;
            struct S { clocks: HashMap<ContainerId, f64, IdBuildHasher> }
            fn f(s: &S) -> Vec<f64> {
                let mut seen: HashMap<u32, u32, IdBuildHasher> = HashMap::default();
                for (k, v) in seen.drain() {}
                let fresh = HashMap::<u32, u32, IdBuildHasher>::default();
                for k in fresh.keys() {}
                s.clocks.values().copied().collect()
            }
        ";
        let v = analyze_file(
            &ctx("policies", "crates/policies/src/x.rs", FileKind::Source),
            src,
        );
        assert_eq!(
            rules_of(&v),
            vec![Rule::O1, Rule::O1, Rule::O1],
            "got {v:?}"
        );
        // Lookups stay free.
        let lookups = "
            use std::collections::HashMap;
            struct S { clocks: HashMap<ContainerId, f64, IdBuildHasher> }
            fn f(s: &mut S, c: ContainerId) { s.clocks.insert(c, 0.0); s.clocks.remove(&c); }
        ";
        let v = analyze_file(
            &ctx("policies", "crates/policies/src/x.rs", FileKind::Source),
            lookups,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn o1_ignores_membership_and_other_crates() {
        let src = "
            use std::collections::HashSet;
            fn f(keep: &HashSet<u32>) -> bool { keep.contains(&3) }
        ";
        let v = analyze_file(
            &ctx("trace", "crates/trace/src/x.rs", FileKind::Source),
            src,
        );
        assert!(v.is_empty(), "{v:?}");
        let iter_src = "
            use std::collections::HashMap;
            fn f(m: &HashMap<u32, u32>) { for x in m.keys() {} }
        ";
        let v = analyze_file(
            &ctx("testkit", "crates/testkit/src/x.rs", FileKind::Source),
            iter_src,
        );
        assert!(v.is_empty(), "O1 is scoped to report-feeding crates");
    }

    #[test]
    fn o1_skips_cfg_test_modules() {
        let src = "
            use std::collections::HashMap;
            #[cfg(test)]
            mod tests {
                use super::*;
                #[test]
                fn t() {
                    let m: HashMap<u32, u32> = HashMap::new();
                    for x in m.keys() {}
                }
            }
        ";
        let v = analyze_file(&ctx("sim", "crates/sim/src/x.rs", FileKind::Source), src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn f1_flags_calls_not_impls() {
        let src = "
            impl PartialOrd for X {
                fn partial_cmp(&self, o: &Self) -> Option<Ordering> { None }
            }
            fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }
        ";
        let v = analyze_file(
            &ctx("metrics", "crates/metrics/src/x.rs", FileKind::Source),
            src,
        );
        assert_eq!(rules_of(&v), vec![Rule::F1]);
    }

    #[test]
    fn c1_needs_a_time_mem_marker() {
        let flagged = "fn f(t: T) -> usize { t.arrival.as_secs_f64() as usize }";
        let v = analyze_file(
            &ctx("trace", "crates/trace/src/x.rs", FileKind::Source),
            flagged,
        );
        assert_eq!(rules_of(&v), vec![Rule::C1]);
        let clean = "fn f(n: u32) -> u64 { n as u64 }";
        let v = analyze_file(
            &ctx("trace", "crates/trace/src/x.rs", FileKind::Source),
            clean,
        );
        assert!(v.is_empty());
    }

    #[test]
    fn e1_flags_env_and_hashers() {
        let src = "fn f() { let v = std::env::var(\"X\"); }";
        let v = analyze_file(&ctx("sim", "crates/sim/src/x.rs", FileKind::Source), src);
        assert_eq!(rules_of(&v), vec![Rule::E1]);
        let src = "use std::collections::hash_map::RandomState;";
        let v = analyze_file(
            &ctx("policies", "crates/policies/src/x.rs", FileKind::Source),
            src,
        );
        assert_eq!(rules_of(&v), vec![Rule::E1]);
    }

    #[test]
    fn u1_only_in_hot_path_crates() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap() }";
        let v = analyze_file(
            &ctx("faas-core", "crates/faas-core/src/x.rs", FileKind::Source),
            src,
        );
        assert_eq!(rules_of(&v), vec![Rule::U1]);
        let v = analyze_file(
            &ctx("metrics", "crates/metrics/src/x.rs", FileKind::Source),
            src,
        );
        assert!(v.is_empty());
    }

    #[test]
    fn justified_allow_suppresses_same_line_and_next_line() {
        let trailing = "fn f() { let t = Instant::now(); } // lint:allow(W1): CLI progress only\n";
        let v = analyze_file(
            &ctx("bench", "crates/bench/src/x.rs", FileKind::Source),
            trailing,
        );
        assert!(v.is_empty(), "{v:?}");
        let above = "
            // lint:allow(W1): CLI progress only
            fn f() { let t = Instant::now(); }
        ";
        let v = analyze_file(
            &ctx("bench", "crates/bench/src/x.rs", FileKind::Source),
            above,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn bare_allow_is_a0_and_does_not_suppress() {
        let src = "
            // lint:allow(W1)
            fn f() { let t = Instant::now(); }
        ";
        let v = analyze_file(
            &ctx("bench", "crates/bench/src/x.rs", FileKind::Source),
            src,
        );
        let rules = rules_of(&v);
        assert!(rules.contains(&Rule::A0), "{v:?}");
        assert!(rules.contains(&Rule::W1), "bare allow must not suppress");
    }

    #[test]
    fn unknown_rule_in_allow_is_a0() {
        let src = "// lint:allow(Z9): whatever\nfn f() {}\n";
        let v = analyze_file(&ctx("sim", "crates/sim/src/x.rs", FileKind::Source), src);
        assert_eq!(rules_of(&v), vec![Rule::A0]);
    }

    #[test]
    fn allow_does_not_leak_past_target_line() {
        let src = "
            // lint:allow(W1): only the next line
            fn f() { let t = Instant::now(); }
            fn g() { let u = Instant::now(); }
        ";
        let v = analyze_file(
            &ctx("bench", "crates/bench/src/x.rs", FileKind::Source),
            src,
        );
        assert_eq!(rules_of(&v), vec![Rule::W1]);
    }
}
