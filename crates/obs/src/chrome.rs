//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! Layout: pid 0 is the orchestrator track (admission decisions,
//! deferrals, retry scheduling, worker crashes as instant events);
//! every worker `w` becomes pid `w + 1`, and every container becomes a
//! thread (tid = container id) under its worker, carrying complete
//! (`"ph":"X"`) spans for provisioning and request execution. Evictions
//! are instants on the container's own track.
//!
//! The writer is a single deterministic pass over the event stream:
//! spans are emitted when they close (at `ProvisionEnd` / `Finish`, or
//! at the crash that killed them), instants inline, and track metadata
//! at the end from sorted id sets. Two runs that record the same events
//! therefore export byte-identical JSON — the property the determinism
//! goldens and the CI double-run lane pin.

use std::collections::{BTreeMap, BTreeSet};

use faas_trace::{FunctionId, TimePoint};

use crate::{AdmitDecision, EvictReason, ObsEvent};

/// Escapes a string for inclusion in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON value: finite numbers via Rust's
/// shortest-roundtrip `Debug` (always a valid JSON number), non-finite
/// values as strings (JSON has no NaN/Infinity literals).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("\"{v}\"")
    }
}

/// Formats an optional provenance note as a trailing args field.
fn note_field(note: &Option<String>) -> String {
    match note {
        Some(n) => format!(",\"note\":\"{}\"", escape(n)),
        None => String::new(),
    }
}

fn decision_label(d: &AdmitDecision) -> String {
    match d {
        AdmitDecision::ColdStart => "cold-start".into(),
        AdmitDecision::WaitWarm => "wait-warm".into(),
        AdmitDecision::Race => "race".into(),
        AdmitDecision::EnqueueOn(cid) => format!("enqueue-on c{cid}"),
    }
}

fn reason_label(r: EvictReason) -> &'static str {
    match r {
        EvictReason::Replace => "replace",
        EvictReason::Expire => "expire",
        EvictReason::Crash => "crash",
    }
}

/// An open execution span: where and when the request started.
struct OpenExec {
    start: TimePoint,
    cid: u64,
    func: FunctionId,
}

/// An open provisioning span.
struct OpenProv {
    begin: TimePoint,
    func: FunctionId,
    speculative: bool,
    attempt: u32,
}

/// State for the single export pass.
struct Writer {
    out: Vec<String>,
    /// Container -> worker placement, learned from `ProvisionBegin`.
    placement: BTreeMap<u64, u16>,
    open_exec: BTreeMap<u64, OpenExec>,
    open_prov: BTreeMap<u64, OpenProv>,
    /// Worker pids that appeared (for process metadata).
    workers: BTreeSet<u16>,
    /// (pid, tid) container tracks that appeared (for thread metadata).
    tracks: BTreeSet<(u64, u64)>,
    /// Latest timestamp seen; closes still-open spans at the end.
    max_ts: u64,
}

impl Writer {
    fn new() -> Self {
        Writer {
            out: Vec::new(),
            placement: BTreeMap::new(),
            open_exec: BTreeMap::new(),
            open_prov: BTreeMap::new(),
            workers: BTreeSet::new(),
            tracks: BTreeSet::new(),
            max_ts: 0,
        }
    }

    /// pid for a container's track; 0 (orchestrator) when the events
    /// hold no `ProvisionBegin` for it (a slice cut mid-run).
    fn pid_of(&mut self, cid: u64) -> u64 {
        match self.placement.get(&cid) {
            Some(&w) => {
                self.workers.insert(w);
                u64::from(w) + 1
            }
            None => 0,
        }
    }

    fn instant(&mut self, name: &str, ts: u64, pid: u64, tid: u64, args: String) {
        self.out.push(format!(
            "{{\"name\":\"{name}\",\"ph\":\"i\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\
             \"s\":\"t\",\"args\":{{{args}}}}}"
        ));
        self.tracks.insert((pid, tid));
    }

    fn span(&mut self, name: &str, cat: &str, ts: u64, dur: u64, track: (u64, u64), args: String) {
        let (pid, tid) = track;
        self.out.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
             \"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}"
        ));
        self.tracks.insert(track);
    }

    fn close_exec(&mut self, rid: u64, end: TimePoint, killed: bool) {
        let Some(open) = self.open_exec.remove(&rid) else {
            return;
        };
        let pid = self.pid_of(open.cid);
        let suffix = if killed { " (killed)" } else { "" };
        let name = format!("f{}{suffix}", open.func.0);
        let ts = open.start.as_micros();
        let dur = end.as_micros().saturating_sub(ts);
        let args = format!("\"rid\":{rid},\"cid\":{}", open.cid);
        self.span(&name, "exec", ts, dur, (pid, open.cid), args);
    }

    fn close_prov(&mut self, cid: u64, end: TimePoint, outcome: &str) {
        let Some(open) = self.open_prov.remove(&cid) else {
            return;
        };
        let pid = self.pid_of(cid);
        let name = format!("provision f{}", open.func.0);
        let ts = open.begin.as_micros();
        let dur = end.as_micros().saturating_sub(ts);
        let args = format!(
            "\"cid\":{cid},\"outcome\":\"{outcome}\",\"speculative\":{},\"attempt\":{}",
            open.speculative, open.attempt
        );
        self.span(&name, "provision", ts, dur, (pid, cid), args);
    }

    fn push(&mut self, ev: &ObsEvent) {
        let ts = ev.at().as_micros();
        self.max_ts = self.max_ts.max(ts);
        match ev {
            ObsEvent::Admit {
                rid,
                func,
                decision,
                note,
                ..
            } => {
                let args = format!(
                    "\"rid\":{rid},\"func\":{},\"decision\":\"{}\"{}",
                    func.0,
                    decision_label(decision),
                    note_field(note)
                );
                self.instant("admit", ts, 0, 0, args);
            }
            ObsEvent::Start {
                rid,
                cid,
                func,
                class,
                wait,
                ..
            } => {
                self.open_exec.insert(
                    *rid,
                    OpenExec {
                        start: ev.at(),
                        cid: *cid,
                        func: *func,
                    },
                );
                // The start itself is also an instant so class and
                // queue wait stay visible even if the span never
                // closes (crash, or a slice that ends first).
                let pid = self.pid_of(*cid);
                let args = format!(
                    "\"rid\":{rid},\"class\":\"{}\",\"wait_us\":{}",
                    class.label(),
                    wait.as_micros()
                );
                self.instant("start", ts, pid, *cid, args);
            }
            ObsEvent::Finish { rid, .. } => self.close_exec(*rid, ev.at(), false),
            ObsEvent::ProvisionBegin {
                cid,
                func,
                worker,
                speculative,
                attempt,
                ..
            } => {
                self.placement.insert(*cid, *worker);
                self.open_prov.insert(
                    *cid,
                    OpenProv {
                        begin: ev.at(),
                        func: *func,
                        speculative: *speculative,
                        attempt: *attempt,
                    },
                );
            }
            ObsEvent::ProvisionEnd { cid, ok, .. } => {
                let outcome = if *ok { "ok" } else { "failed" };
                self.close_prov(*cid, ev.at(), outcome);
            }
            ObsEvent::RetryScheduled {
                func,
                attempt,
                backoff,
                speculative,
                ..
            } => {
                let args = format!(
                    "\"func\":{},\"attempt\":{attempt},\"backoff_us\":{},\"speculative\":{speculative}",
                    func.0,
                    backoff.as_micros()
                );
                self.instant("retry-scheduled", ts, 0, 0, args);
            }
            ObsEvent::EvictCandidates {
                worker,
                incoming,
                candidates,
                ..
            } => {
                self.workers.insert(*worker);
                let pid = u64::from(*worker) + 1;
                let list: Vec<String> = candidates
                    .iter()
                    .map(|(cid, prio)| format!("[{cid},{}]", json_f64(*prio)))
                    .collect();
                let args = format!(
                    "\"incoming\":{},\"candidates\":[{}]",
                    incoming.0,
                    list.join(",")
                );
                self.instant("replace-candidates", ts, pid, 0, args);
            }
            ObsEvent::Evict {
                cid,
                func,
                worker,
                reason,
                note,
                ..
            } => {
                if *reason == EvictReason::Crash {
                    // The crash voids whatever the container was doing:
                    // close its open spans as killed, oldest rid first.
                    let doomed: Vec<u64> = self
                        .open_exec
                        .iter()
                        .filter(|(_, o)| o.cid == *cid)
                        .map(|(&rid, _)| rid)
                        .collect();
                    for rid in doomed {
                        self.close_exec(rid, ev.at(), true);
                    }
                    self.close_prov(*cid, ev.at(), "killed");
                }
                self.workers.insert(*worker);
                let pid = u64::from(*worker) + 1;
                let name = format!("evict:{}", reason_label(*reason));
                let args = format!("\"func\":{}{}", func.0, note_field(note));
                self.instant(&name, ts, pid, *cid, args);
            }
            ObsEvent::Defer {
                func, speculative, ..
            } => {
                let args = format!("\"func\":{},\"speculative\":{speculative}", func.0);
                self.instant("defer", ts, 0, 0, args);
            }
            ObsEvent::WorkerDown { worker, .. } => {
                self.workers.insert(*worker);
                let args = format!("\"worker\":{worker}");
                self.instant("worker-down", ts, 0, 0, args);
            }
        }
    }

    fn finish(mut self) -> String {
        // Close anything still open (interrupted recordings) at the
        // last timestamp seen, marked so readers know the end is fake.
        let end = TimePoint::from_micros(self.max_ts);
        let rids: Vec<u64> = self.open_exec.keys().copied().collect();
        for rid in rids {
            self.close_exec(rid, end, false);
        }
        let cids: Vec<u64> = self.open_prov.keys().copied().collect();
        for cid in cids {
            self.close_prov(cid, end, "open");
        }

        // Track metadata from the sorted id sets: deterministic, and
        // emitted last so the single pass above never needs lookahead.
        self.out.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\
             \"args\":{\"name\":\"orchestrator\"}}"
                .to_string(),
        );
        for w in &self.workers {
            let pid = u64::from(*w) + 1;
            self.out.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\
                 \"args\":{{\"name\":\"worker w{w}\"}}}}"
            ));
        }
        for (pid, tid) in &self.tracks {
            let name = if *tid == 0 {
                "events".to_string()
            } else {
                format!("c{tid}")
            };
            self.out.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ));
        }

        let mut json = String::from("{\"traceEvents\":[\n");
        json.push_str(&self.out.join(",\n"));
        json.push_str("\n]}\n");
        json
    }
}

/// Exports an event stream as Chrome trace-event JSON.
pub fn to_chrome_json(events: &[ObsEvent]) -> String {
    let mut w = Writer::new();
    for ev in events {
        w.push(ev);
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use faas_trace::TimeDelta;

    use super::*;
    use crate::ObsClass;

    fn t(ms: u64) -> TimePoint {
        TimePoint::from_millis(ms)
    }

    fn sample_events() -> Vec<ObsEvent> {
        vec![
            ObsEvent::Admit {
                at: t(0),
                rid: 0,
                func: FunctionId(1),
                decision: AdmitDecision::ColdStart,
                note: Some("tail \"quote\"".into()),
            },
            ObsEvent::ProvisionBegin {
                at: t(0),
                cid: 7,
                func: FunctionId(1),
                worker: 2,
                speculative: false,
                attempt: 0,
            },
            ObsEvent::ProvisionEnd {
                at: t(40),
                cid: 7,
                ok: true,
            },
            ObsEvent::Start {
                at: t(40),
                rid: 0,
                cid: 7,
                func: FunctionId(1),
                class: ObsClass::Cold,
                wait: TimeDelta::from_millis(40),
            },
            ObsEvent::EvictCandidates {
                at: t(50),
                worker: 2,
                incoming: FunctionId(0),
                candidates: vec![(7, 1.5), (9, f64::INFINITY)],
            },
            ObsEvent::Finish {
                at: t(90),
                rid: 0,
                cid: 7,
            },
            ObsEvent::WorkerDown {
                at: t(95),
                worker: 2,
            },
            ObsEvent::Evict {
                at: t(95),
                cid: 7,
                func: FunctionId(1),
                worker: 2,
                reason: EvictReason::Crash,
                note: None,
            },
        ]
    }

    #[test]
    fn export_is_valid_json_with_expected_tracks() {
        let json = to_chrome_json(&sample_events());
        let doc = faas_testkit::json::Value::parse(&json).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("traceEvents array");
        assert!(!events.is_empty());
        // Exactly one exec span, on worker 2's pid (3), thread c7.
        let execs: Vec<_> = events
            .iter()
            .filter(|e| e.get("cat").and_then(|v| v.as_str()) == Some("exec"))
            .collect();
        assert_eq!(execs.len(), 1);
        assert_eq!(execs[0].get("pid").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(execs[0].get("tid").and_then(|v| v.as_f64()), Some(7.0));
        assert_eq!(execs[0].get("ts").and_then(|v| v.as_f64()), Some(40_000.0));
        assert_eq!(execs[0].get("dur").and_then(|v| v.as_f64()), Some(50_000.0));
        // The non-finite candidate priority round-trips as a string.
        assert!(json.contains("\"inf\""));
        // Metadata names both processes.
        assert!(json.contains("orchestrator"));
        assert!(json.contains("worker w2"));
    }

    #[test]
    fn crash_closes_open_spans_as_killed() {
        let events = vec![
            ObsEvent::ProvisionBegin {
                at: t(0),
                cid: 3,
                func: FunctionId(0),
                worker: 0,
                speculative: true,
                attempt: 1,
            },
            ObsEvent::Evict {
                at: t(10),
                cid: 3,
                func: FunctionId(0),
                worker: 0,
                reason: EvictReason::Crash,
                note: None,
            },
        ];
        let json = to_chrome_json(&events);
        faas_testkit::json::Value::parse(&json).expect("valid JSON");
        assert!(json.contains("\"outcome\":\"killed\""));
    }

    /// Whatever a provenance note holds, escaping it and wrapping it in
    /// quotes gives a JSON string that reads back as the note.
    #[test]
    fn escaped_strings_parse_back_equal() {
        faas_testkit::Checker::new("chrome_escape_round_trips")
            .cases(256)
            .run(|g| {
                let chars = g.vec(0..40, |g| {
                    let code = match g.u32(0..4) {
                        0 => g.u32(0..0x20),
                        1 => *g.choose(&[0x22, 0x5c, 0x2f, 0x7f]),
                        2 => g.u32(0x20..0x80),
                        _ => g.u32(0x80..0x11_0000),
                    };
                    char::from_u32(code).unwrap_or('\u{FFFD}')
                });
                let s: String = chars.into_iter().collect();
                let doc = format!("\"{}\"", escape(&s));
                let back = faas_testkit::json::Value::parse(&doc);
                assert_eq!(back, Ok(faas_testkit::json::Value::Str(s)), "{doc:?}");
            });
    }

    #[test]
    fn export_is_deterministic() {
        let a = to_chrome_json(&sample_events());
        let b = to_chrome_json(&sample_events());
        assert_eq!(a, b);
    }
}
