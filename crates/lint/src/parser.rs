//! A brace-tree parser and flow walker over [`crate::lexer`] output.
//!
//! Same philosophy as the lexer: no `syn`, no external crates, no type
//! information — just enough structure for the flow-sensitive rules
//! (K1/L1, DESIGN.md §13). Three layers:
//!
//! * [`fn_items`] — the brace tree: every `fn` item with its body token
//!   span and a qualified name (`Type::name` inside `impl` blocks, with
//!   `impl Trait for Type` resolving to `Type`);
//! * [`walk_body`] — a linear flow walk of one body that tracks
//!   lock-guard liveness (a `let` binding whose initializer ends in
//!   `.lock()` / zero-arg `.read()` / `.write()`, optionally chained
//!   through the poison adapters `expect`/`unwrap`/`unwrap_or_else`)
//!   through block scopes, `drop(name)` kills, and `name = …lock()…`
//!   re-acquisition, and reports acquisitions and calls with the set
//!   of guards live at each event;
//! * [`crate::conc`] interprets the events.
//!
//! Known, deliberate approximations (the analyzer is a linter, not a
//! borrow checker): loop back-edges are not modelled (a guard
//! re-acquired at the bottom of a `loop` is not live at its top),
//! guards bound by destructuring patterns (`match m.lock() { Ok(g) =>
//! … }`) are invisible, and a guard held only as a statement temporary
//! (`*m.lock().expect("…") = x`) is not tracked. The workspace idiom —
//! bind, use, `drop` or fall off the block — is exactly what *is*
//! tracked.

use crate::lexer::{Token, TokenKind};

/// One `fn` item found in a token stream.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Bare function name.
    pub name: String,
    /// `Type::name` when defined inside an `impl` block, else `name`.
    pub qual: String,
    /// Token indices of the body's `{` and its matching `}`.
    pub body: (usize, usize),
}

impl FnInfo {
    /// The impl type of a qualified name (`"Inner::cancel"` → `Some("Inner")`).
    pub fn impl_type(&self) -> Option<&str> {
        self.qual.split_once("::").map(|(t, _)| t)
    }
}

fn text(tokens: &[Token], i: usize) -> &str {
    tokens.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

fn is_ident(tokens: &[Token], i: usize) -> bool {
    tokens.get(i).map(|t| t.kind) == Some(TokenKind::Ident)
}

/// Index of the `}` matching the `{` at `open` (or the last token if
/// unbalanced — a half-written file must not wedge the analyzer).
fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        match text(tokens, i) {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Skips a generic argument list starting at `<`, returning the index
/// just past the matching `>`. `->` never decrements (the `>` of an
/// arrow is preceded by `-`).
fn skip_angles(tokens: &[Token], start: usize) -> usize {
    let mut depth = 0i32;
    let mut i = start;
    while i < tokens.len() {
        match text(tokens, i) {
            "<" => depth += 1,
            ">" if text(tokens, i.wrapping_sub(1)) != "-" => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            "{" | ";" => return i, // malformed header; bail before the body
            _ => {}
        }
        i += 1;
    }
    i
}

/// Reads a type path (`crate::foo::Bar<T>`), returning its last path
/// ident and the index just past what was consumed. `&`/`mut` prefixes
/// are skipped; a non-path type (tuple, slice) yields `None`.
fn path_last_ident(tokens: &[Token], start: usize) -> (Option<String>, usize) {
    let mut i = start;
    while matches!(text(tokens, i), "&" | "mut")
        || tokens.get(i).map(|t| t.kind) == Some(TokenKind::Lifetime)
    {
        i += 1;
    }
    let mut last = None;
    loop {
        if !is_ident(tokens, i) {
            break;
        }
        last = Some(tokens[i].text.clone());
        i += 1;
        if text(tokens, i) == "<" {
            i = skip_angles(tokens, i);
        }
        if text(tokens, i) == ":" && text(tokens, i + 1) == ":" {
            i += 2;
        } else {
            break;
        }
    }
    (last, i)
}

/// An `impl` block: the self type's last path ident and the body span.
#[derive(Debug)]
struct ImplSpan {
    type_name: Option<String>,
    open: usize,
    close: usize,
}

/// True when the `impl` at `i` starts an item (vs `impl Trait` in type
/// position, whose preceding token is `->`, `(`, `,`, `<`, `=`, …).
fn impl_starts_item(tokens: &[Token], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    matches!(text(tokens, i - 1), "}" | ";" | "]" | "unsafe")
}

fn impl_spans(tokens: &[Token]) -> Vec<ImplSpan> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if text(tokens, i) != "impl" || !impl_starts_item(tokens, i) {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if text(tokens, j) == "<" {
            j = skip_angles(tokens, j);
        }
        // First path: the trait in `impl Trait for Type`, or the self
        // type in an inherent impl.
        let (first, after) = path_last_ident(tokens, j);
        j = after;
        let mut type_name = first;
        if text(tokens, j) == "for" {
            let (second, after_ty) = path_last_ident(tokens, j + 1);
            type_name = second;
            j = after_ty;
        }
        // Skip any where clause to the body.
        while j < tokens.len() && text(tokens, j) != "{" && text(tokens, j) != ";" {
            j += 1;
        }
        if text(tokens, j) != "{" {
            i = j.max(i + 1);
            continue;
        }
        let close = match_brace(tokens, j);
        spans.push(ImplSpan {
            type_name,
            open: j,
            close,
        });
        // Continue scanning *inside* the impl body for nothing — fns
        // are found by the separate fn scan; move past the header only.
        i = j + 1;
    }
    spans
}

/// Finds every `fn` item with a body. Trait-method declarations
/// (ending in `;`) are skipped; nested fns are reported as their own
/// items (callers exclude nested spans via [`nested_spans`]).
pub fn fn_items(tokens: &[Token]) -> Vec<FnInfo> {
    let impls = impl_spans(tokens);
    let mut fns = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if text(tokens, i) != "fn" || !is_ident(tokens, i + 1) {
            i += 1;
            continue;
        }
        let name = tokens[i + 1].text.clone();
        // Signatures contain no `{`; the first `{` or `;` ends them.
        let mut j = i + 2;
        while j < tokens.len() && text(tokens, j) != "{" && text(tokens, j) != ";" {
            j += 1;
        }
        if text(tokens, j) != "{" {
            i = j.max(i + 1);
            continue;
        }
        let close = match_brace(tokens, j);
        let impl_type = impls
            .iter()
            .rfind(|s| s.open < i && i < s.close)
            .and_then(|s| s.type_name.clone());
        let qual = match impl_type {
            Some(t) => format!("{t}::{name}"),
            None => name.clone(),
        };
        fns.push(FnInfo {
            name,
            qual,
            body: (j, close),
        });
        i += 2; // continue inside the body: nested fns are items too
    }
    fns
}

/// Body spans of fns strictly nested inside `fns[me]`, for exclusion
/// so tokens are attributed to their innermost fn only.
pub fn nested_spans(fns: &[FnInfo], me: usize) -> Vec<(usize, usize)> {
    let (s, e) = fns[me].body;
    fns.iter()
        .enumerate()
        .filter(|(k, f)| *k != me && f.body.0 > s && f.body.1 < e)
        .map(|(_, f)| f.body)
        .collect()
}

/// A live lock-guard binding.
#[derive(Debug, Clone)]
pub struct Guard {
    /// Bound variable name.
    pub name: String,
    /// Receiver ident right before the acquiring `.lock()` call
    /// (`self.state.lock()` → `state`; empty when not an ident).
    pub recv: String,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// Block depth the binding lives in (internal to the walker).
    depth: usize,
}

/// Flow events, delivered in token order. Each comes with the guards
/// live *before* the event takes effect.
#[derive(Debug)]
pub enum Event<'a> {
    /// A new guard binding committed; `live` excludes the new guard.
    Acquire(&'a Guard),
    /// A call by (last-segment) name. Macro invocations are not calls.
    Call { name: &'a str, line: u32 },
}

/// The lock-acquiring method names. `read`/`write` only count with an
/// empty argument list, which distinguishes `RwLock` from `io::Read`.
fn acquire_method(tokens: &[Token], i: usize) -> bool {
    text(tokens, i) == "."
        && matches!(text(tokens, i + 1), "lock" | "read" | "write")
        && text(tokens, i + 2) == "("
        && text(tokens, i + 3) == ")"
}

/// Index of the `)` matching the `(` at `open`.
fn match_paren(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        match text(tokens, i) {
            "(" => depth += 1,
            ")" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Given the `)` index of an acquiring call, skips poison adapters and
/// answers whether the chain *ends* there — i.e. the value being bound
/// is the guard itself, not a field or method result pulled out of a
/// statement temporary.
fn chain_yields_guard(tokens: &[Token], close: usize) -> bool {
    let mut k = close;
    while text(tokens, k + 1) == "."
        && matches!(text(tokens, k + 2), "expect" | "unwrap" | "unwrap_or_else")
        && text(tokens, k + 3) == "("
    {
        k = match_paren(tokens, k + 3);
    }
    text(tokens, k + 1) != "."
}

/// Keywords that can directly precede `(` without being a call.
fn is_call_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while" | "for" | "match" | "return" | "in" | "as" | "move" | "loop" | "else"
    )
}

/// A `let`/assignment whose right-hand side is being scanned for an
/// acquisition at its own depth.
#[derive(Debug)]
struct Pending {
    name: String,
    depth: usize,
    /// `if let` / `while let` bindings commit at the block `{`, plain
    /// ones at `;`.
    cond: bool,
    acq: Option<(String, u32)>, // (recv, line)
}

/// Walks one fn body, tracking guard liveness and firing [`Event`]s.
/// `skip` lists nested-fn body spans to exclude.
pub fn walk_body(
    tokens: &[Token],
    body: (usize, usize),
    skip: &[(usize, usize)],
    mut on_event: impl FnMut(&Event<'_>, &[Guard]),
) {
    let (open, close) = body;
    let mut live: Vec<Guard> = Vec::new();
    let mut pending: Vec<Pending> = Vec::new();
    let mut depth = 1usize; // inside the body braces
    let mut i = open + 1;
    while i < close {
        if let Some(&(_, e)) = skip.iter().find(|&&(s, _)| s == i) {
            i = e + 1;
            continue;
        }
        let t = text(tokens, i);
        match t {
            "{" => {
                // An `if let`/`while let` binding commits into the new
                // block's scope.
                if let Some(p) = pending.last() {
                    if p.cond && p.depth == depth {
                        let p = pending.pop().expect("pending non-empty");
                        if let Some((recv, line)) = p.acq {
                            let g = Guard {
                                name: p.name,
                                recv,
                                line,
                                depth: depth + 1,
                            };
                            on_event(&Event::Acquire(&g), &live);
                            live.push(g);
                        }
                    }
                }
                depth += 1;
                i += 1;
                continue;
            }
            "}" => {
                live.retain(|g| g.depth < depth);
                pending.retain(|p| p.depth < depth);
                depth = depth.saturating_sub(1);
                i += 1;
                continue;
            }
            ";" => {
                if let Some(p) = pending.last() {
                    if p.depth == depth && !p.cond {
                        let p = pending.pop().expect("pending non-empty");
                        if let Some((recv, line)) = p.acq {
                            // A plain re-binding of a name drops the
                            // old value only at scope end, but a plain
                            // assignment replaces it now; either way
                            // the new guard supersedes for tracking.
                            live.retain(|g| g.name != p.name);
                            let g = Guard {
                                name: p.name,
                                recv,
                                line,
                                depth,
                            };
                            on_event(&Event::Acquire(&g), &live);
                            live.push(g);
                        }
                    }
                }
                i += 1;
                continue;
            }
            "let" => {
                let cond = matches!(text(tokens, i.wrapping_sub(1)), "if" | "while");
                let mut j = i + 1;
                if text(tokens, j) == "mut" {
                    j += 1;
                }
                let simple = is_ident(tokens, j)
                    && (text(tokens, j + 1) == "=" || text(tokens, j + 1) == ":");
                if simple {
                    let name = tokens[j].text.clone();
                    // Skip a type ascription to the `=` (or give up at
                    // the statement end for `let g;`).
                    let mut k = j + 1;
                    if text(tokens, k) == ":" {
                        let mut angle = 0i32;
                        while k < close {
                            match text(tokens, k) {
                                "<" => angle += 1,
                                ">" if text(tokens, k - 1) != "-" => angle -= 1,
                                "=" if angle == 0 => break,
                                ";" => break,
                                _ => {}
                            }
                            k += 1;
                        }
                    }
                    // A leading `*` on the RHS copies *out of* the
                    // guard temporary — the binding is plain data.
                    if text(tokens, k) == "="
                        && text(tokens, k + 1) != "="
                        && text(tokens, k + 1) != "*"
                    {
                        pending.push(Pending {
                            name,
                            depth,
                            cond,
                            acq: None,
                        });
                        i = k + 1;
                        continue;
                    }
                }
                i = j;
                continue;
            }
            _ => {}
        }
        // Acquisition inside a pending RHS at the binding's depth.
        if acquire_method(tokens, i) {
            if let Some(p) = pending.last_mut() {
                if p.depth == depth && p.acq.is_none() && chain_yields_guard(tokens, i + 3) {
                    let recv = if is_ident(tokens, i.wrapping_sub(1)) {
                        tokens[i - 1].text.clone()
                    } else {
                        String::new()
                    };
                    p.acq = Some((recv, tokens[i + 1].line));
                }
            }
            i += 4;
            continue;
        }
        // drop(name) of a live guard: a release, not a call.
        if t == "drop"
            && text(tokens, i + 1) == "("
            && is_ident(tokens, i + 2)
            && text(tokens, i + 3) == ")"
            && live.iter().any(|g| g.name == text(tokens, i + 2))
        {
            let victim = text(tokens, i + 2).to_string();
            live.retain(|g| g.name != victim);
            i += 4;
            continue;
        }
        // Assignment re-acquisition: `name = …lock()…;` revives (or
        // creates) a guard under an existing binding.
        if is_ident(tokens, i)
            && text(tokens, i + 1) == "="
            && text(tokens, i + 2) != "="
            && text(tokens, i + 2) != ">" // match arm `pat => …`
            && text(tokens, i + 2) != "*" // deref copy, not a rebind
            && !matches!(text(tokens, i.wrapping_sub(1)), "." | "=" | "!" | "<" | ">" | ":")
        {
            // Only scan the RHS when the ident is (or was) guard-like:
            // any tracked name, to keep plain assignments cheap.
            pending.push(Pending {
                name: tokens[i].text.clone(),
                depth,
                cond: false,
                acq: None,
            });
            i += 2;
            continue;
        }
        // Calls. A macro's name is not one (`name!(` has no `(` next).
        if is_ident(tokens, i)
            && !is_call_keyword(t)
            && text(tokens, i.wrapping_sub(1)) != "fn"
            && text(tokens, i + 1) == "("
        {
            let line = tokens[i].line;
            on_event(&Event::Call { name: t, line }, &live);
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn fns_of(src: &str) -> (Vec<Token>, Vec<FnInfo>) {
        let tokens = lex(src);
        let fns = fn_items(&tokens);
        (tokens, fns)
    }

    #[test]
    fn qualifies_fns_by_impl_type() {
        let src = "
            struct Inner;
            impl Inner { fn cancel(&self) {} }
            impl<T> Drop for Sender<T> { fn drop(&mut self) {} }
            impl Future for Recv<'_, u32> {
                fn poll(&mut self) -> u8 { 0 }
            }
            fn free() {}
        ";
        let (_, fns) = fns_of(src);
        let quals: Vec<&str> = fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            vec!["Inner::cancel", "Sender::drop", "Recv::poll", "free"]
        );
    }

    #[test]
    fn return_position_impl_is_not_an_impl_block() {
        let src = "
            fn make() -> impl Iterator<Item = u32> { std::iter::empty() }
            fn after() {}
        ";
        let (_, fns) = fns_of(src);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[1].qual, "after");
    }

    #[test]
    fn nested_fn_spans_are_reported_and_excludable() {
        let src = "fn outer() { fn inner() { helper(); } other(); }";
        let (tokens, fns) = fns_of(src);
        assert_eq!(fns.len(), 2);
        let outer = fns.iter().position(|f| f.name == "outer").expect("outer");
        let skip = nested_spans(&fns, outer);
        assert_eq!(skip.len(), 1);
        let mut calls = Vec::new();
        walk_body(&tokens, fns[outer].body, &skip, |e, _| {
            if let Event::Call { name, .. } = e {
                calls.push(name.to_string());
            }
        });
        assert_eq!(calls, vec!["other"]);
    }

    /// Collects (event description, live guard names) for assertions.
    fn trace(src: &str) -> Vec<(String, Vec<String>)> {
        let (tokens, fns) = fns_of(src);
        let mut out = Vec::new();
        for (k, f) in fns.iter().enumerate() {
            let skip = nested_spans(&fns, k);
            walk_body(&tokens, f.body, &skip, |e, live| {
                let desc = match e {
                    Event::Acquire(g) => format!("acq:{}:{}", g.name, g.recv),
                    Event::Call { name, .. } => format!("call:{name}"),
                };
                out.push((desc, live.iter().map(|g| g.name.clone()).collect()));
            });
        }
        out
    }

    #[test]
    fn guard_lives_until_drop_or_block_end() {
        let src = "
            fn f(&self) {
                let st = self.state.lock().expect(\"poisoned\");
                use_it(&st);
                drop(st);
                after();
                {
                    let inner = self.state.lock().expect(\"poisoned\");
                    touch(&inner);
                }
                outside();
            }
        ";
        let t = trace(src);
        let live_at = |call: &str| -> Vec<String> {
            t.iter()
                .find(|(d, _)| d == call)
                .map(|(_, l)| l.clone())
                .expect("event present")
        };
        assert_eq!(live_at("call:use_it"), vec!["st"]);
        assert!(live_at("call:after").is_empty(), "drop released st");
        assert_eq!(live_at("call:touch"), vec!["inner"]);
        assert!(live_at("call:outside").is_empty(), "block end released");
    }

    #[test]
    fn statement_temporaries_and_field_pulls_are_not_guards() {
        // The chain continues past the poison adapter: the bound value
        // is not the guard.
        let src = "
            fn f(&self) {
                let w = self.state.lock().expect(\"p\").waker.take();
                after();
            }
            fn g(&self) {
                let snapshot = *self.state.lock().expect(\"p\");
                copied();
            }
            fn h(&self) {
                let mut n = 0;
                n = *self.state.lock().expect(\"p\");
                reassigned(n);
            }
        ";
        let t = trace(src);
        for call in ["call:after", "call:copied", "call:reassigned"] {
            let (_, live) = t.iter().find(|(d, _)| d == call).expect("call");
            assert!(live.is_empty(), "{call}: {t:?}");
        }
    }

    #[test]
    fn reassignment_revives_a_guard() {
        let src = "
            fn f(&self) {
                let mut st = shared.state.lock().expect(\"p\");
                drop(st);
                mid();
                st = shared.state.lock().expect(\"p\");
                held(&st);
            }
        ";
        let t = trace(src);
        let (_, at_mid) = t.iter().find(|(d, _)| d == "call:mid").expect("mid");
        assert!(at_mid.is_empty());
        let (_, at_held) = t.iter().find(|(d, _)| d == "call:held").expect("held");
        assert_eq!(at_held, &vec!["st".to_string()]);
    }

    #[test]
    fn if_let_guard_is_scoped_to_its_block() {
        let src = "
            fn f(&self) {
                if let g = self.cell.lock().expect(\"p\") {
                    inside();
                }
                outside();
            }
        ";
        let t = trace(src);
        let (_, at_in) = t.iter().find(|(d, _)| d == "call:inside").expect("in");
        assert_eq!(at_in, &vec!["g".to_string()]);
        let (_, at_out) = t.iter().find(|(d, _)| d == "call:outside").expect("out");
        assert!(at_out.is_empty());
    }

    #[test]
    fn zero_arg_read_write_acquire_but_io_read_does_not() {
        let src = "
            fn f(&self) {
                let g = self.map.read();
                r1(&g);
            }
            fn io(&self, buf: &mut [u8]) {
                let n = self.file.read(buf);
                r2(n);
            }
        ";
        let t = trace(src);
        let (_, at_r1) = t.iter().find(|(d, _)| d == "call:r1").expect("r1");
        assert_eq!(at_r1, &vec!["g".to_string()]);
        let (_, at_r2) = t.iter().find(|(d, _)| d == "call:r2").expect("r2");
        assert!(at_r2.is_empty(), "io read takes an argument");
    }
}
