//! Plain-text (CSV) trace serialisation.
//!
//! Format: a single file with two sections. Function profiles come first,
//! one `F,<id>,<name>,<mem_mb>,<cold_start_us>` line each; invocations
//! follow, one `I,<func_id>,<arrival_us>,<exec_us>` line each. Lines
//! starting with `#` and blank lines are ignored. Names must not contain
//! commas or newlines.

use std::error::Error;
use std::fmt::{self, Write as _};
use std::fs;
use std::io::Write as _;
use std::path::Path;

use crate::{FunctionId, FunctionProfile, Invocation, TimeDelta, TimePoint, Trace, TraceError};

/// Error raised while reading or writing a trace file.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// A line did not match the expected format (line number, message).
    Parse(usize, String),
    /// The parsed records do not form a consistent trace.
    Inconsistent(TraceError),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceIoError::Parse(line, msg) => write!(f, "trace parse error at line {line}: {msg}"),
            TraceIoError::Inconsistent(e) => write!(f, "inconsistent trace: {e}"),
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Parse(..) => None,
            TraceIoError::Inconsistent(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Serialises a trace to the CSV format described in the module docs.
pub fn to_string(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str(
        "# CIDRE trace: F,<id>,<name>,<mem_mb>,<cold_us> / I,<fn>,<arrival_us>,<exec_us>\n",
    );
    // Straight into the one buffer (`fmt::Write` on a `String` cannot
    // fail): no intermediate `String` per record.
    for f in trace.functions() {
        let (mem, cold) = (f.mem_mb, f.cold_start.as_micros());
        let _ = writeln!(out, "F,{},{},{mem},{cold}", f.id.0, f.name);
    }
    for i in trace.invocations() {
        let (arrival, exec) = (i.arrival.as_micros(), i.exec.as_micros());
        let _ = writeln!(out, "I,{},{arrival},{exec}", i.func.0);
    }
    out
}

/// Parses a trace from the CSV format described in the module docs.
///
/// # Errors
///
/// Returns [`TraceIoError::Parse`] on malformed lines and
/// [`TraceIoError::Inconsistent`] if records don't form a valid trace.
pub fn from_str(text: &str) -> Result<Trace, TraceIoError> {
    let mut functions = Vec::new();
    let mut invocations = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // At most five fields matter; further ones are only counted, so
        // that a record with too many is still refused.
        let mut fields = [""; 5];
        let mut count = 0;
        for field in line.split(',') {
            if let Some(slot) = fields.get_mut(count) {
                *slot = field;
            }
            count += 1;
        }
        let parse_u64 = |s: &str, what: &str| {
            s.parse::<u64>()
                .map_err(|_| TraceIoError::Parse(lineno, format!("bad {what}: {s:?}")))
        };
        // Ids and memory are 32-bit in the model: a value that does not
        // fit is a bad field, never a silently different one.
        let parse_u32 = |s: &str, what: &str| {
            u32::try_from(parse_u64(s, what)?)
                .map_err(|_| TraceIoError::Parse(lineno, format!("{what} out of range: {s:?}")))
        };
        match (fields[0], count) {
            ("F", 5) => {
                let id = parse_u32(fields[1], "function id")?;
                let mem = parse_u32(fields[3], "memory")?;
                let cold = parse_u64(fields[4], "cold start")?;
                functions.push(FunctionProfile::new(
                    FunctionId(id),
                    fields[2],
                    mem,
                    TimeDelta::from_micros(cold),
                ));
            }
            ("I", 4) => {
                let id = parse_u32(fields[1], "function id")?;
                let arrival = parse_u64(fields[2], "arrival")?;
                let exec = parse_u64(fields[3], "exec")?;
                invocations.push(Invocation {
                    func: FunctionId(id),
                    arrival: TimePoint::from_micros(arrival),
                    exec: TimeDelta::from_micros(exec),
                });
            }
            _ => {
                return Err(TraceIoError::Parse(
                    lineno,
                    format!("expected 'F' (5 fields) or 'I' (4 fields) record, got {line:?}"),
                ))
            }
        }
    }
    Trace::new(functions, invocations).map_err(TraceIoError::Inconsistent)
}

/// Writes a trace to a file.
///
/// # Errors
///
/// Returns any filesystem error encountered.
pub fn write_file(trace: &Trace, path: impl AsRef<Path>) -> Result<(), TraceIoError> {
    let mut f = fs::File::create(path)?;
    f.write_all(to_string(trace).as_bytes())?;
    Ok(())
}

/// Reads a trace from a file.
///
/// # Errors
///
/// Returns filesystem, parse, or consistency errors.
pub fn read_file(path: impl AsRef<Path>) -> Result<Trace, TraceIoError> {
    from_str(&fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn round_trip_preserves_trace() {
        let t = gen::azure(3).functions(5).minutes(1).build();
        let text = to_string(&t);
        let back = from_str(&text).expect("parses");
        assert_eq!(t, back);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let t = from_str("# hi\n\nF,0,f,128,1000\nI,0,5,10\n").expect("parses");
        assert_eq!(t.len(), 1);
        assert_eq!(t.functions().len(), 1);
    }

    #[test]
    fn malformed_line_reports_position() {
        let err = from_str("F,0,f,128,1000\nGARBAGE\n").expect_err("must fail");
        match err {
            TraceIoError::Parse(line, _) => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn bad_number_is_parse_error() {
        let err = from_str("F,x,f,128,1000\n").expect_err("must fail");
        assert!(err.to_string().contains("function id"));
        // One past `u32::MAX` is out of range, not function 0 ...
        let err = from_str("F,0,f,128,1000\nI,4294967296,0,10\n").expect_err("must fail");
        assert!(matches!(err, TraceIoError::Parse(2, _)), "{err:?}");
        assert!(err.to_string().contains("function id"));
        // ... and 2^32 + 128 MB is not a 128 MB function.
        let err = from_str("F,0,f,4294967424,1000\n").expect_err("must fail");
        assert!(matches!(err, TraceIoError::Parse(1, _)), "{err:?}");
        assert!(err.to_string().contains("memory"));
    }

    /// Hostile input: whatever the bytes, the reader answers `Ok` or
    /// `Err` — it never panics — and what it accepts it can write back
    /// and read again unchanged. Lines are record-shaped more often than
    /// not (numbers drawn around the 32-bit edge) so that `Ok` is
    /// reachable, with raw bytes spliced in between and inside them.
    #[test]
    fn arbitrary_bytes_never_panic_and_accepted_traces_round_trip() {
        use faas_testkit::{Checker, Gen};
        fn number(g: &mut Gen) -> u64 {
            match g.usize(0..16) {
                0 => g.u64(u64::from(u32::MAX) - 1..u64::from(u32::MAX) + 3),
                1 => g.u64(0..u64::MAX),
                _ => g.u64(0..3),
            }
        }
        Checker::new("arbitrary_bytes_never_panic_and_accepted_traces_round_trip").run(|g| {
            let lines = g.vec(0..6, |g| match g.usize(0..8) {
                0 => g.vec(0..24, |g| g.u32(0..256) as u8),
                1..=3 => format!("I,{},{},{}", number(g), number(g), number(g)).into_bytes(),
                _ => {
                    let name = g.vec(0..4, |g| g.u32(0..256) as u8);
                    let mut line = format!("F,{},", number(g)).into_bytes();
                    line.extend(name);
                    line.extend(format!(",{},{}", number(g), number(g)).into_bytes());
                    line
                }
            });
            let text = String::from_utf8_lossy(&lines.join(&b'\n')).into_owned();
            if let Ok(trace) = from_str(&text) {
                let back = from_str(&to_string(&trace)).expect("own output parses");
                assert_eq!(trace, back, "input {text:?}");
            }
        });
    }

    #[test]
    fn unknown_function_is_inconsistent() {
        let err = from_str("I,7,0,10\n").expect_err("must fail");
        assert!(matches!(err, TraceIoError::Inconsistent(_)));
    }

    #[test]
    fn file_round_trip() {
        let t = gen::fc(9).functions(3).minutes(1).build();
        let dir = std::env::temp_dir().join("cidre-trace-io-test");
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("t.csv");
        write_file(&t, &path).expect("write");
        let back = read_file(&path).expect("read");
        assert_eq!(t, back);
        let _ = fs::remove_file(&path);
    }
}
