//! The workspace concurrency pass: K1 (wake under an executor lock)
//! and L1 (lock-acquisition-order cycles), both seeded from
//! `lint-locks.toml` ([`crate::locks`]) and built on the brace-tree
//! parser's flow walker ([`crate::parser`]).
//!
//! Unlike the per-file rules these need cross-file state — K1's
//! one-level wake set and L1's order graph span files — so the pass
//! runs once over every parsed file and hands its findings back to the
//! scanner, which merges them into the same per-file reports,
//! suppression grammar, and ratchet the token rules use. Test context
//! (test files and `#[cfg(test)]` modules) is out of scope for both:
//! tests hold locks on purpose. See DESIGN.md §13 for rule semantics.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::lex;
use crate::locks::LocksConfig;
use crate::parser::{fn_items, nested_spans, walk_body, Event, FnInfo};
use crate::rules::{
    apply_suppressions, parse_allows, test_spans, FileContext, FileKind, Rule, Violation,
};

/// One workspace file handed to the pass.
#[derive(Debug)]
pub struct SourceFile {
    /// Scope/classification info.
    pub ctx: FileContext,
    /// Full source text.
    pub src: String,
}

/// A parsed file, shared by both rules.
struct Parsed {
    tokens: Vec<crate::lexer::Token>,
    comments: Vec<crate::lexer::Comment>,
    fns: Vec<FnInfo>,
    /// Per-fn: is the body in test context?
    fn_in_test: Vec<bool>,
}

/// Runs K1/L1 over the workspace. Returns `(file index, violation)`
/// pairs with each file's justified suppressions already applied.
pub fn analyze_workspace(files: &[SourceFile], cfg: &LocksConfig) -> Vec<(usize, Violation)> {
    let parsed: Vec<Parsed> = files
        .iter()
        .map(|f| {
            let lexed = lex(&f.src);
            let in_test = test_spans(&lexed.tokens, f.ctx.file_kind);
            let fns = fn_items(&lexed.tokens);
            let fn_in_test = fns
                .iter()
                .map(|fi| in_test.get(fi.body.0).copied().unwrap_or(false))
                .collect();
            Parsed {
                tokens: lexed.tokens,
                comments: lexed.comments,
                fns,
                fn_in_test,
            }
        })
        .collect();

    let mut violations: Vec<(usize, Violation)> = Vec::new();
    rule_k1(files, &parsed, cfg, &mut violations);
    rule_l1(files, &parsed, cfg, &mut violations);

    // Per-file suppression with the shared grammar. A0s from bad
    // directives are already reported by `analyze_file` on the same
    // file, so only the allows are used here.
    let mut by_file: BTreeMap<usize, Vec<Violation>> = BTreeMap::new();
    for (idx, v) in violations {
        by_file.entry(idx).or_default().push(v);
    }
    let mut out = Vec::new();
    for (idx, mut vs) in by_file {
        let (allows, _bad) = parse_allows(&parsed[idx].comments);
        apply_suppressions(&parsed[idx].tokens, &allows, &mut vs);
        out.extend(vs.into_iter().map(|v| (idx, v)));
    }
    out
}

/// Source (non-test) fns of one file that a scope-substring list
/// selects, as `(fn index)` — test files contribute nothing.
fn scoped_fns(files: &[SourceFile], parsed: &[Parsed], idx: usize, scope: &[String]) -> Vec<usize> {
    let ctx = &files[idx].ctx;
    if ctx.file_kind == FileKind::TestFile
        || !scope.iter().any(|s| ctx.rel_path.contains(s.as_str()))
    {
        return Vec::new();
    }
    (0..parsed[idx].fns.len())
        .filter(|&k| !parsed[idx].fn_in_test[k])
        .collect()
}

/// K1 — `wake()` / `wake_by_ref()` (or a call into a function that
/// wakes directly — one level deep) while any lock guard is live.
/// DESIGN.md §10 rule 1: a waker invoked under the arena/reactor lock
/// re-enters `schedule` and deadlocks or re-orders the run queue.
fn rule_k1(
    files: &[SourceFile],
    parsed: &[Parsed],
    cfg: &LocksConfig,
    out: &mut Vec<(usize, Violation)>,
) {
    if cfg.k1_scope.is_empty() {
        return;
    }
    // Pass 1: which in-scope fns wake directly?
    let mut wakers: BTreeSet<String> = BTreeSet::new();
    for idx in 0..files.len() {
        for k in scoped_fns(files, parsed, idx, &cfg.k1_scope) {
            let p = &parsed[idx];
            let skip = nested_spans(&p.fns, k);
            let mut wakes = false;
            walk_body(&p.tokens, p.fns[k].body, &skip, |e, _| {
                if let Event::Call {
                    name,
                    is_macro: false,
                    ..
                } = e
                {
                    if matches!(*name, "wake" | "wake_by_ref") {
                        wakes = true;
                    }
                }
            });
            if wakes {
                wakers.insert(p.fns[k].name.clone());
            }
        }
    }
    // Pass 2: flag wake-reaching calls under a live guard.
    for idx in 0..files.len() {
        for k in scoped_fns(files, parsed, idx, &cfg.k1_scope) {
            let p = &parsed[idx];
            let skip = nested_spans(&p.fns, k);
            walk_body(&p.tokens, p.fns[k].body, &skip, |e, live| {
                let Event::Call {
                    name,
                    line,
                    is_macro: false,
                } = e
                else {
                    return;
                };
                if live.is_empty() {
                    return;
                }
                let held = live
                    .iter()
                    .map(|g| g.name.as_str())
                    .collect::<Vec<_>>()
                    .join("`, `");
                if matches!(*name, "wake" | "wake_by_ref") {
                    out.push((
                        idx,
                        Violation {
                            rule: Rule::K1,
                            line: *line,
                            message: format!(
                                "`{name}()` while guard `{held}` is held; wakers re-enter \
                                 the executor — drop the guard first (DESIGN.md §10 rule 1)"
                            ),
                        },
                    ));
                } else if wakers.contains(*name) {
                    out.push((
                        idx,
                        Violation {
                            rule: Rule::K1,
                            line: *line,
                            message: format!(
                                "`{name}()` wakes directly and is called while guard \
                                 `{held}` is held; drop the guard first (DESIGN.md §10 \
                                 rule 1, one level deep)"
                            ),
                        },
                    ));
                }
            });
        }
    }
}

/// L1 — the workspace lock-acquisition-order graph. Every acquisition
/// of a seeded lock while another seeded lock's guard is live adds an
/// edge; any edge on a cycle (including a self-edge: re-acquiring a
/// held lock) is a finding at the inner acquisition site.
fn rule_l1(
    files: &[SourceFile],
    parsed: &[Parsed],
    cfg: &LocksConfig,
    out: &mut Vec<(usize, Violation)>,
) {
    if cfg.locks.is_empty() {
        return;
    }
    let resolve = |rel: &str, ty: Option<&str>, recv: &str| -> Option<&str> {
        cfg.locks
            .iter()
            .find(|l| l.matches(rel, ty, recv))
            .map(|l| l.name.as_str())
    };
    // (holding, acquiring, file idx, line) — source order, so output
    // and cycle paths are deterministic.
    let mut edges: Vec<(String, String, usize, u32)> = Vec::new();
    for (idx, file) in files.iter().enumerate() {
        if file.ctx.file_kind == FileKind::TestFile {
            continue;
        }
        let p = &parsed[idx];
        for k in 0..p.fns.len() {
            if p.fn_in_test[k] {
                continue;
            }
            let fi = &p.fns[k];
            let ty = fi.impl_type();
            let skip = nested_spans(&p.fns, k);
            walk_body(&p.tokens, fi.body, &skip, |e, live| {
                let Event::Acquire(g) = e else { return };
                let Some(new) = resolve(&file.ctx.rel_path, ty, &g.recv) else {
                    return;
                };
                for held in live {
                    if let Some(old) = resolve(&file.ctx.rel_path, ty, &held.recv) {
                        edges.push((old.to_string(), new.to_string(), idx, g.line));
                    }
                }
            });
        }
    }
    // Adjacency over distinct edges; flag every edge instance that
    // lies on a cycle.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (old, new, _, _) in &edges {
        adj.entry(old.as_str()).or_default().insert(new.as_str());
    }
    for (old, new, idx, line) in &edges {
        let Some(path) = find_path(&adj, new, old) else {
            continue;
        };
        let chain = if old == new {
            format!("`{new}` is already held")
        } else {
            let mut names = path.clone();
            names.push(old.as_str());
            format!(
                "the reverse order `{}` exists elsewhere",
                names.join("` → `")
            )
        };
        out.push((
            *idx,
            Violation {
                rule: Rule::L1,
                line: *line,
                message: format!(
                    "acquiring lock `{new}` while holding `{old}` completes an \
                     acquisition-order cycle ({chain}); fix the ordering or drop first"
                ),
            },
        ));
    }
}

/// BFS path from `from` to `to` over the order graph (inclusive of
/// `from`, exclusive of `to`); `Some` means `to` is reachable.
fn find_path<'a>(
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = VecDeque::from([from]);
    let mut seen = BTreeSet::from([from]);
    while let Some(u) = queue.pop_front() {
        if u == to {
            // Walk back to build the path.
            let mut path = Vec::new();
            let mut cur = u;
            while cur != from {
                path.push(cur);
                cur = prev[cur];
            }
            path.push(from);
            path.reverse();
            path.pop(); // exclusive of `to` == the final hop target
            return Some(path);
        }
        for &v in adj.get(u).into_iter().flatten() {
            if seen.insert(v) {
                prev.insert(v, u);
                queue.push_back(v);
            }
        }
    }
    None
}
