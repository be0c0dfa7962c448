//! The two rules: K1 (wake under an executor lock) and L1
//! (lock-acquisition-order cycles), built on the brace-tree parser's
//! flow walker ([`crate::parser`]) and seeded by a [`LocksConfig`].
//!
//! Both need cross-file state — K1's one-level wake set and L1's order
//! graph span files — so the pass runs once over every file. Test
//! context (test files and `#[cfg(test)]` modules) is out of scope for
//! both: tests hold locks on purpose. There is no suppression: a
//! finding is fixed. See DESIGN.md §13 for the semantics.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::{lex, Token};
use crate::parser::{fn_items, nested_spans, walk_body, Event, FnInfo};

/// Rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `wake()` reachable while an executor lock guard is held.
    K1,
    /// Lock-acquisition-order cycle over the seeded lock set.
    L1,
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

/// One workspace file handed to the pass.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Source vs test context.
    pub kind: FileKind,
    /// Full source text.
    pub src: String,
}

/// One named lock for L1's acquisition-order graph. Nearly every lock
/// field in the executor is called `state`, so identity is structural.
#[derive(Debug, Clone, Copy)]
pub struct LockSpec {
    /// Display name used in the order graph (`arena`, `reactor`, …).
    pub name: &'static str,
    /// Workspace-relative path suffixes where this lock is acquired.
    pub files: &'static [&'static str],
    /// Receiver ident immediately before the acquiring `.lock()`.
    pub field: &'static str,
    /// Impl types whose methods acquire this lock; empty = any.
    pub impls: &'static [&'static str],
}

impl LockSpec {
    /// Whether an acquisition at (`rel_path`, impl `ty`, receiver
    /// `recv`) is this lock.
    pub fn matches(&self, rel_path: &str, ty: Option<&str>, recv: &str) -> bool {
        recv == self.field
            && self.files.iter().any(|f| rel_path.ends_with(f))
            && (self.impls.is_empty() || ty.is_some_and(|t| self.impls.contains(&t)))
    }
}

/// The seed data of both rules.
#[derive(Debug, Clone, Copy)]
pub struct LocksConfig {
    /// Path substrings under K1 (wake-under-lock) analysis.
    pub k1_scope: &'static [&'static str],
    /// Named locks for L1.
    pub locks: &'static [LockSpec],
}

const TASK: &[&str] = &["crates/live/src/exec/task.rs"];
const REACTOR: &[&str] = &["crates/live/src/exec/reactor.rs"];

impl LocksConfig {
    /// This workspace's seeds: the executor of `crates/live/src/exec`
    /// (DESIGN.md §10). `task.rs` holds three distinct locks behind a
    /// `state` field; the impl type tells them apart.
    #[rustfmt::skip]
    pub const WORKSPACE: LocksConfig = LocksConfig {
        k1_scope: &["crates/live/src/exec/"],
        locks: &[
            LockSpec { name: "arena", files: TASK, field: "state", impls: &["Inner"] },
            LockSpec { name: "join", files: TASK, field: "state", impls: &["JoinShared"] },
            LockSpec { name: "parker", files: TASK, field: "state", impls: &["Parker"] },
            LockSpec { name: "panic", files: &["crates/live/src/exec/task.rs", "crates/live/src/exec/mod.rs"], field: "panic", impls: &[] },
            LockSpec { name: "reactor", files: REACTOR, field: "state", impls: &[] },
            LockSpec { name: "timer-cell", files: REACTOR, field: "cell", impls: &[] },
            LockSpec { name: "channel", files: &["crates/live/src/exec/channel.rs"], field: "state", impls: &[] },
            LockSpec { name: "blocking", files: &["crates/live/src/exec/blocking.rs"], field: "state", impls: &[] },
        ],
    };
}

/// A parsed file, shared by both rules.
struct Parsed {
    tokens: Vec<Token>,
    fns: Vec<FnInfo>,
    /// Per-fn: is the body in test context?
    fn_in_test: Vec<bool>,
}

/// Runs K1/L1 over the workspace. Returns `(file index, violation)`
/// pairs in rule order, each rule's in source order.
pub fn analyze_workspace(files: &[SourceFile], cfg: &LocksConfig) -> Vec<(usize, Violation)> {
    let parsed: Vec<Parsed> = files
        .iter()
        .map(|f| {
            let tokens = lex(&f.src);
            let in_test = test_spans(&tokens, f.kind);
            let fns = fn_items(&tokens);
            let fn_in_test = fns.iter().map(|fi| in_test[fi.body.0]).collect();
            Parsed {
                tokens,
                fns,
                fn_in_test,
            }
        })
        .collect();
    let mut violations = Vec::new();
    rule_k1(files, &parsed, cfg, &mut violations);
    rule_l1(files, &parsed, cfg, &mut violations);
    violations
}

/// Marks which token indices sit inside a `#[cfg(test)] mod … { … }`
/// region. For [`FileKind::TestFile`] everything is test context.
fn test_spans(tokens: &[Token], kind: FileKind) -> Vec<bool> {
    let mut flags = vec![kind == FileKind::TestFile; tokens.len()];
    if kind == FileKind::TestFile {
        return flags;
    }
    let t = |i: usize| tokens.get(i).map_or("", |t| t.text.as_str());
    let mut i = 0;
    while i < tokens.len() {
        let is_cfg_test = ["#", "[", "cfg", "(", "test", ")", "]"]
            .iter()
            .enumerate()
            .all(|(k, want)| t(i + k) == *want);
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Scan past any further attributes to the item; only `mod`
        // blocks get span treatment (a cfg(test) `use` has no body).
        let mut j = i + 7;
        while t(j) == "#" && t(j + 1) == "[" {
            let mut depth = 1;
            j += 2;
            while j < tokens.len() && depth > 0 {
                match t(j) {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        if t(j) != "mod" {
            i = j.max(i + 1);
            continue;
        }
        // The opening brace, then its match.
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
        for f in flags.iter_mut().take(k).skip(start) {
            *f = true;
        }
        i = k.max(i + 1);
    }
    flags
}

/// Source (non-test) fns of one file that a scope-substring list
/// selects — test files contribute nothing.
fn scoped_fns(file: &SourceFile, p: &Parsed, scope: &[&str]) -> Vec<usize> {
    if file.kind == FileKind::TestFile || !scope.iter().any(|s| file.rel_path.contains(s)) {
        return Vec::new();
    }
    (0..p.fns.len()).filter(|&k| !p.fn_in_test[k]).collect()
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
    let is_wake = |name: &str| matches!(name, "wake" | "wake_by_ref");
    // Pass 1: which in-scope fns wake directly?
    let mut wakers: BTreeSet<&str> = BTreeSet::new();
    for (file, p) in files.iter().zip(parsed) {
        for k in scoped_fns(file, p, cfg.k1_scope) {
            let skip = nested_spans(&p.fns, k);
            let mut wakes = false;
            walk_body(&p.tokens, p.fns[k].body, &skip, |e, _| {
                wakes |= matches!(e, Event::Call { name, .. } if is_wake(name));
            });
            if wakes {
                wakers.insert(&p.fns[k].name);
            }
        }
    }
    // Pass 2: flag wake-reaching calls under a live guard.
    for (idx, (file, p)) in files.iter().zip(parsed).enumerate() {
        for k in scoped_fns(file, p, cfg.k1_scope) {
            let skip = nested_spans(&p.fns, k);
            walk_body(&p.tokens, p.fns[k].body, &skip, |e, live| {
                let Event::Call { name, line } = e else {
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
                let message = if is_wake(name) {
                    format!(
                        "`{name}()` while guard `{held}` is held; wakers re-enter \
                         the executor — drop the guard first (DESIGN.md §10 rule 1)"
                    )
                } else if wakers.contains(name) {
                    format!(
                        "`{name}()` wakes directly and is called while guard \
                         `{held}` is held; drop the guard first (DESIGN.md §10 \
                         rule 1, one level deep)"
                    )
                } else {
                    return;
                };
                out.push((
                    idx,
                    Violation {
                        rule: Rule::K1,
                        line: *line,
                        message,
                    },
                ));
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
    let resolve = |rel: &str, ty: Option<&str>, recv: &str| -> Option<&'static str> {
        let lock = cfg.locks.iter().find(|l| l.matches(rel, ty, recv))?;
        Some(lock.name)
    };
    // (holding, acquiring, file idx, line) — source order, so output
    // and cycle paths are deterministic.
    let mut edges: Vec<(&str, &str, usize, u32)> = Vec::new();
    for (idx, (file, p)) in files.iter().zip(parsed).enumerate() {
        if file.kind == FileKind::TestFile {
            continue;
        }
        for (k, fi) in p.fns.iter().enumerate() {
            if p.fn_in_test[k] {
                continue;
            }
            let ty = fi.impl_type();
            walk_body(&p.tokens, fi.body, &nested_spans(&p.fns, k), |e, live| {
                let Event::Acquire(g) = e else { return };
                let Some(new) = resolve(&file.rel_path, ty, &g.recv) else {
                    return;
                };
                for held in live {
                    if let Some(old) = resolve(&file.rel_path, ty, &held.recv) {
                        edges.push((old, new, idx, g.line));
                    }
                }
            });
        }
    }
    // Adjacency over distinct edges; flag every edge instance that
    // lies on a cycle.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for &(old, new, _, _) in &edges {
        adj.entry(old).or_default().insert(new);
    }
    for &(old, new, idx, line) in &edges {
        let Some(mut path) = find_path(&adj, new, old) else {
            continue;
        };
        let chain = if old == new {
            format!("`{new}` is already held")
        } else {
            path.push(old);
            format!(
                "the reverse order `{}` exists elsewhere",
                path.join("` → `")
            )
        };
        let message = format!(
            "acquiring lock `{new}` while holding `{old}` completes an \
             acquisition-order cycle ({chain}); fix the ordering or drop first"
        );
        out.push((
            idx,
            Violation {
                rule: Rule::L1,
                line,
                message,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_matching_uses_file_field_and_impl() {
        let lock = |name: &str| {
            let mut named = LocksConfig::WORKSPACE.locks.iter();
            named.find(|l| l.name == name).expect("a seeded lock")
        };
        let (arena, reactor) = (lock("arena"), lock("reactor"));
        assert!(arena.matches("crates/live/src/exec/task.rs", Some("Inner"), "state"));
        assert!(!arena.matches("crates/live/src/exec/task.rs", Some("Parker"), "state"));
        assert!(!arena.matches("crates/live/src/exec/task.rs", None, "state"));
        assert!(!arena.matches("crates/live/src/exec/mod.rs", Some("Inner"), "state"));
        assert!(reactor.matches("crates/live/src/exec/reactor.rs", None, "state"));
        assert!(!reactor.matches("crates/live/src/exec/reactor.rs", None, "cell"));
    }
}
