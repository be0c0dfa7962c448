//! `lint-locks.toml` — the seed data for the workspace concurrency
//! rules (K1/L1, DESIGN.md §13), parsed with the same hand-rolled
//! TOML-subset philosophy as [`crate::baseline`].
//!
//! Schema (all keys shown; unknown sections or keys are errors so a
//! typo cannot silently disable a rule):
//!
//! ```toml
//! [k1]
//! scope = ["crates/live/src/exec/"]        # path substrings
//!
//! [[lock]]                                  # one table per named lock
//! name  = "arena"                           # unique
//! files = ["crates/live/src/exec/task.rs"]  # path suffixes
//! field = "state"                           # receiver ident before .lock()
//! impls = ["Inner"]                         # optional impl-type filter
//! ```
//!
//! A missing file yields [`LocksConfig::default`]: every workspace
//! rule that needs seed data is silent, and only the seed-free G1
//! runs.

/// One named lock for L1's acquisition-order graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockSpec {
    /// Display name used in the order graph (`arena`, `reactor`, …).
    pub name: String,
    /// Workspace-relative path suffixes where this lock is acquired.
    pub files: Vec<String>,
    /// Receiver ident immediately before the acquiring `.lock()`.
    pub field: String,
    /// Impl types whose methods acquire this lock; empty = any.
    pub impls: Vec<String>,
}

impl LockSpec {
    /// Whether an acquisition at (`rel_path`, impl `ty`, receiver
    /// `recv`) is this lock.
    pub fn matches(&self, rel_path: &str, ty: Option<&str>, recv: &str) -> bool {
        recv == self.field
            && self.files.iter().any(|f| rel_path.ends_with(f.as_str()))
            && (self.impls.is_empty() || ty.is_some_and(|t| self.impls.iter().any(|i| i == t)))
    }
}

/// The parsed seed file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocksConfig {
    /// Path substrings under K1 (wake-under-lock) analysis.
    pub k1_scope: Vec<String>,
    /// Named locks for L1.
    pub locks: Vec<LockSpec>,
}

/// Which table a key-value line belongs to.
#[derive(Debug, PartialEq)]
enum Section {
    None,
    K1,
    Lock,
}

/// Parses a TOML string value: `"…"` (no escapes needed — paths and
/// identifiers only).
fn parse_string(raw: &str, line_no: usize) -> Result<String, String> {
    let v = raw.trim();
    let inner = v
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("line {line_no}: expected a double-quoted string, got `{v}`"))?;
    if inner.contains('"') || inner.contains('\\') {
        return Err(format!(
            "line {line_no}: escapes are not supported in `{inner}`"
        ));
    }
    Ok(inner.to_string())
}

/// Parses `["a", "b", …]` (the `[` already seen; may span lines via
/// the caller's accumulation).
fn parse_array(raw: &str, line_no: usize) -> Result<Vec<String>, String> {
    let v = raw.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("line {line_no}: expected `[\"…\", …]`, got `{v}`"))?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue; // trailing comma
        }
        out.push(parse_string(part, line_no)?);
    }
    Ok(out)
}

impl LocksConfig {
    /// Parses the committed form; any malformed or unknown construct
    /// fails loudly.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cfg = LocksConfig::default();
        let mut section = Section::None;
        let mut lines = text.lines().enumerate().peekable();
        while let Some((i, raw)) = lines.next() {
            let line_no = i + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                section = match header.strip_suffix(']') {
                    Some("k1") => Section::K1,
                    Some("[lock]") => {
                        cfg.locks.push(LockSpec::default());
                        Section::Lock
                    }
                    _ => return Err(format!("line {line_no}: unknown table `{line}`")),
                };
                continue;
            }
            let Some((key, mut value)) = line
                .split_once('=')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            else {
                return Err(format!("line {line_no}: expected `key = value`"));
            };
            // Accumulate a multi-line array until the closing bracket.
            while value.starts_with('[') && !value.ends_with(']') {
                let Some((_, next)) = lines.next() else {
                    return Err(format!("line {line_no}: unterminated array for `{key}`"));
                };
                value.push(' ');
                value.push_str(strip_comment(next).trim());
            }
            match (&section, key.as_str()) {
                (Section::K1, "scope") => cfg.k1_scope = parse_array(&value, line_no)?,
                (Section::Lock, "name") => {
                    lock_mut(&mut cfg)?.name = parse_string(&value, line_no)?
                }
                (Section::Lock, "files") => {
                    lock_mut(&mut cfg)?.files = parse_array(&value, line_no)?
                }
                (Section::Lock, "field") => {
                    lock_mut(&mut cfg)?.field = parse_string(&value, line_no)?
                }
                (Section::Lock, "impls") => {
                    lock_mut(&mut cfg)?.impls = parse_array(&value, line_no)?
                }
                _ => return Err(format!("line {line_no}: unknown key `{key}` in this table")),
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Cross-field checks: locks need distinct names, a field, and at
    /// least one file.
    fn validate(&self) -> Result<(), String> {
        let mut names: Vec<&str> = self.locks.iter().map(|l| l.name.as_str()).collect();
        names.sort_unstable();
        for w in names.windows(2) {
            if w[0] == w[1] && !w[0].is_empty() {
                return Err(format!("duplicate lock name `{}`", w[0]));
            }
        }
        for l in &self.locks {
            if l.name.is_empty() || l.field.is_empty() || l.files.is_empty() {
                return Err(format!(
                    "lock `{}` needs name, field, and at least one file",
                    l.name
                ));
            }
        }
        Ok(())
    }
}

fn strip_comment(line: &str) -> &str {
    // Values never contain `#` (validated: no escapes, identifiers and
    // paths only), so a bare split is safe.
    line.split('#').next().unwrap_or("")
}

fn lock_mut(cfg: &mut LocksConfig) -> Result<&mut LockSpec, String> {
    cfg.locks
        .last_mut()
        .ok_or_else(|| "lock key outside a [[lock]] table".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# seed data
[k1]
scope = ["crates/live/src/exec/"]

[[lock]]
name  = "arena"
files = ["task.rs"]
field = "state"
impls = ["Inner"]

[[lock]]
name  = "reactor"
files = [
    "reactor.rs",  # arrays may span lines
]
field = "state"
"#;

    #[test]
    fn parses_the_full_schema() {
        let cfg = LocksConfig::parse(SAMPLE).expect("sample parses");
        assert_eq!(cfg.k1_scope, vec!["crates/live/src/exec/"]);
        assert_eq!(cfg.locks.len(), 2);
        assert_eq!(cfg.locks[0].name, "arena");
        assert_eq!(cfg.locks[0].impls, vec!["Inner"]);
        assert!(cfg.locks[1].impls.is_empty());
        assert_eq!(cfg.locks[1].files, vec!["reactor.rs"]);
    }

    #[test]
    fn lock_matching_uses_file_field_and_impl() {
        let cfg = LocksConfig::parse(SAMPLE).expect("sample parses");
        let arena = &cfg.locks[0];
        assert!(arena.matches("crates/live/src/exec/task.rs", Some("Inner"), "state"));
        assert!(!arena.matches("crates/live/src/exec/task.rs", Some("Parker"), "state"));
        assert!(!arena.matches("crates/live/src/exec/task.rs", None, "state"));
        assert!(!arena.matches("crates/live/src/exec/mod.rs", Some("Inner"), "state"));
        let reactor = &cfg.locks[1];
        assert!(reactor.matches("crates/live/src/exec/reactor.rs", None, "state"));
        assert!(!reactor.matches("crates/live/src/exec/reactor.rs", None, "cell"));
    }

    #[test]
    fn rejects_unknown_tables_keys_and_bad_shapes() {
        assert!(LocksConfig::parse("[zz]\n").is_err());
        assert!(LocksConfig::parse("[k1]\nbogus = [\"x\"]\n").is_err());
        assert!(
            LocksConfig::parse("name = \"x\"\n").is_err(),
            "key outside table"
        );
        assert!(
            LocksConfig::parse("[[lock]]\nname = \"a\"\nfield = \"f\"\n").is_err(),
            "lock without files"
        );
        let dup = "[[lock]]\nname = \"a\"\nfiles = [\"x\"]\nfield = \"f\"\n\
                   [[lock]]\nname = \"a\"\nfiles = [\"y\"]\nfield = \"g\"\n";
        assert!(LocksConfig::parse(dup).is_err(), "duplicate lock name");
        assert!(
            LocksConfig::parse("[s1]\nentry = [\"E\"]\n").is_err(),
            "the retired s1 table is unknown like any other"
        );
        assert!(
            LocksConfig::parse("[k1]\nscope = [\"E\"\n").is_err(),
            "unterminated"
        );
    }

    #[test]
    fn missing_file_semantics_is_the_default() {
        let cfg = LocksConfig::default();
        assert!(cfg.k1_scope.is_empty() && cfg.locks.is_empty());
    }
}
