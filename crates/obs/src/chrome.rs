//! Chrome-trace and JSONL exporters.
//!
//! [`to_chrome_trace`] renders the event stream as a Chrome trace-event
//! JSON object (load it in `chrome://tracing` or Perfetto): span events
//! become complete (`"X"`) slices, paired instants (lock/unlock and DLA
//! begin/end) become `"B"`/`"E"` duration slices so epochs show as
//! nested bars, everything else becomes a thread-scoped instant. Ranks
//! map to tids; timestamps are virtual seconds scaled to microseconds.

use crate::{Event, EventKind};
use serde::Value;

enum Phase {
    Span,
    Begin,
    End,
    Instant,
}

fn uval(v: u64) -> Value {
    Value::UInt(v)
}

fn sval(v: &str) -> Value {
    Value::Str(v.to_owned())
}

/// Name, category, phase and argument object for one event.
fn describe(e: &Event) -> (String, &'static str, Phase, Vec<(String, Value)>) {
    use EventKind::*;
    match &e.kind {
        Op { name, gmr, bytes } => (
            format!("op:{name}"),
            "op",
            Phase::Span,
            vec![("gmr".into(), uval(*gmr)), ("bytes".into(), uval(*bytes))],
        ),
        GaOp { name, bytes } => (
            format!("ga:{name}"),
            "ga",
            Phase::Span,
            vec![("bytes".into(), uval(*bytes))],
        ),
        Stage { stage, gmr } => (
            format!("stage:{stage}"),
            "stage",
            Phase::Span,
            vec![("gmr".into(), uval(*gmr))],
        ),
        Pack { win, bytes } => (
            "pack".into(),
            "pack",
            Phase::Span,
            vec![("win".into(), uval(*win)), ("bytes".into(), uval(*bytes))],
        ),
        MutexWait {
            win,
            mutex,
            host,
            src,
        } => (
            format!("mutex_wait:m{mutex}@{host}"),
            "mutex",
            Phase::Span,
            vec![
                ("win".into(), uval(*win)),
                ("mutex".into(), uval(u64::from(*mutex))),
                ("host".into(), uval(u64::from(*host))),
                ("src".into(), uval(u64::from(*src))),
            ],
        ),
        Coll { comm, seq, src } => (
            format!("coll:c{comm}"),
            "coll",
            Phase::Span,
            vec![
                ("comm".into(), uval(*comm)),
                ("seq".into(), uval(*seq)),
                ("src".into(), uval(u64::from(*src))),
            ],
        ),
        Wait { cat, src, obj } => (
            format!("wait:{}", cat.name()),
            "wait",
            Phase::Span,
            vec![
                ("wait".into(), sval(cat.name())),
                ("src".into(), uval(u64::from(*src))),
                ("obj".into(), uval(*obj)),
            ],
        ),
        Compute => ("compute".into(), "compute", Phase::Span, Vec::new()),
        AgentDrain {
            win,
            target,
            ops,
            avoided_s,
        } => (
            format!("agent_drain:w{win}->{target}"),
            "agent",
            Phase::Span,
            vec![
                ("win".into(), uval(*win)),
                ("target".into(), uval(u64::from(*target))),
                ("ops".into(), uval(u64::from(*ops))),
                ("avoided_s".into(), Value::Float(*avoided_s)),
            ],
        ),
        LockAcquire {
            win,
            target,
            exclusive,
        } => (
            format!("epoch:w{win}->{target}"),
            "epoch",
            Phase::Begin,
            vec![
                ("win".into(), uval(*win)),
                ("target".into(), uval(u64::from(*target))),
                ("exclusive".into(), Value::Bool(*exclusive)),
            ],
        ),
        LockRelease { win, target } => (
            format!("epoch:w{win}->{target}"),
            "epoch",
            Phase::End,
            vec![
                ("win".into(), uval(*win)),
                ("target".into(), uval(u64::from(*target))),
            ],
        ),
        LockAll { win } => (
            format!("epoch:w{win}:all"),
            "epoch",
            Phase::Begin,
            vec![("win".into(), uval(*win))],
        ),
        UnlockAll { win } => (
            format!("epoch:w{win}:all"),
            "epoch",
            Phase::End,
            vec![("win".into(), uval(*win))],
        ),
        Flush { win, target } => (
            format!("flush:w{win}->{target}"),
            "epoch",
            Phase::Instant,
            vec![
                ("win".into(), uval(*win)),
                ("target".into(), uval(u64::from(*target))),
            ],
        ),
        NbEpochOpen { win, target } => (
            format!("nb_epoch:w{win}->{target}"),
            "epoch",
            Phase::Instant,
            vec![
                ("win".into(), uval(*win)),
                ("target".into(), uval(u64::from(*target))),
            ],
        ),
        NbEpochClose { win, target } => (
            format!("nb_epoch_close:w{win}->{target}"),
            "epoch",
            Phase::Instant,
            vec![
                ("win".into(), uval(*win)),
                ("target".into(), uval(u64::from(*target))),
            ],
        ),
        Rma {
            win,
            target,
            kind,
            bytes,
        } => (
            format!("rma:{}", kind.name()),
            "rma",
            Phase::Instant,
            vec![
                ("win".into(), uval(*win)),
                ("target".into(), uval(u64::from(*target))),
                ("bytes".into(), uval(*bytes)),
            ],
        ),
        Pool { bytes, hit } => (
            if *hit { "pool:hit" } else { "pool:miss" }.into(),
            "pool",
            Phase::Instant,
            vec![
                ("bytes".into(), uval(*bytes)),
                ("hit".into(), Value::Bool(*hit)),
            ],
        ),
        StageTouch { gmr, bytes } => (
            format!("stage_touch:g{gmr}"),
            "stage",
            Phase::Instant,
            vec![("gmr".into(), uval(*gmr)), ("bytes".into(), uval(*bytes))],
        ),
        DlaBegin { win, exclusive } => (
            format!("dla:w{win}"),
            "dla",
            Phase::Begin,
            vec![
                ("win".into(), uval(*win)),
                ("exclusive".into(), Value::Bool(*exclusive)),
            ],
        ),
        DlaEnd { win } => (
            format!("dla:w{win}"),
            "dla",
            Phase::End,
            vec![("win".into(), uval(*win))],
        ),
        LocalAccess { win, write } => (
            "local_access".into(),
            "dla",
            Phase::Instant,
            vec![
                ("win".into(), uval(*win)),
                ("write".into(), Value::Bool(*write)),
            ],
        ),
        Method { name, fast } => (
            format!("method:{name}"),
            "method",
            Phase::Instant,
            vec![("fast".into(), Value::Bool(*fast))],
        ),
        GmrCreate { gmr, bytes } => (
            format!("gmr_create:g{gmr}"),
            "gmr",
            Phase::Instant,
            vec![("gmr".into(), uval(*gmr)), ("bytes".into(), uval(*bytes))],
        ),
        GmrFree { gmr } => (
            format!("gmr_free:g{gmr}"),
            "gmr",
            Phase::Instant,
            vec![("gmr".into(), uval(*gmr))],
        ),
        Error { what, gmr } => (
            format!("error:{what}"),
            "error",
            Phase::Instant,
            vec![("gmr".into(), uval(*gmr))],
        ),
        SchedFlush {
            win,
            target,
            ops,
            runs,
            segs_in,
            segs_out,
        } => (
            format!("sched_flush:w{win}->{target}"),
            "sched",
            Phase::Instant,
            vec![
                ("win".into(), uval(*win)),
                ("target".into(), uval(u64::from(*target))),
                ("ops".into(), uval(u64::from(*ops))),
                ("runs".into(), uval(u64::from(*runs))),
                ("segs_in".into(), uval(u64::from(*segs_in))),
                ("segs_out".into(), uval(u64::from(*segs_out))),
            ],
        ),
        DtypeCommit { win, hit } => (
            if *hit {
                "dtype:hit".into()
            } else {
                "dtype:miss".into()
            },
            "dtype",
            Phase::Instant,
            vec![
                ("win".into(), uval(*win)),
                ("hit".into(), Value::Bool(*hit)),
            ],
        ),
        WinSync { win } => (
            format!("win_sync:w{win}"),
            "shm",
            Phase::Instant,
            vec![("win".into(), uval(*win))],
        ),
        ShmAccess {
            win,
            target,
            write,
            bytes,
        } => (
            if *write { "shm:store" } else { "shm:load" }.into(),
            "shm",
            Phase::Instant,
            vec![
                ("win".into(), uval(*win)),
                ("target".into(), uval(u64::from(*target))),
                ("write".into(), Value::Bool(*write)),
                ("bytes".into(), uval(*bytes)),
            ],
        ),
        AtomicOp {
            win,
            target,
            cas,
            native,
            success,
        } => (
            if *cas { "atomic:cas" } else { "atomic:rmw" }.into(),
            "atomic",
            Phase::Instant,
            vec![
                ("win".into(), uval(*win)),
                ("target".into(), uval(u64::from(*target))),
                ("native".into(), Value::Bool(*native)),
                ("success".into(), Value::Bool(*success)),
            ],
        ),
        TransportIssue {
            backend,
            win,
            target,
            kind,
            bytes,
            offloaded,
        } => (
            format!("{backend}:{}", kind.name()),
            "transport",
            Phase::Instant,
            vec![
                ("backend".into(), sval(backend)),
                ("win".into(), uval(*win)),
                ("target".into(), uval(u64::from(*target))),
                ("bytes".into(), uval(*bytes)),
                ("offloaded".into(), Value::Bool(*offloaded)),
            ],
        ),
    }
}

/// Microsecond value for the trace, rounded to 0.1 ns so the rendered
/// artifact carries no float-noise digits (`3.0000000000000004`-style
/// tails churned `results/TRACE_*.json` wholesale on unrelated edits).
fn us(seconds: f64) -> Value {
    Value::Float((seconds * 1e6 * 1e4).round() / 1e4)
}

fn trace_event(e: &Event) -> Value {
    let (name, cat, phase, args) = describe(e);
    let mut fields: Vec<(String, Value)> = vec![
        ("name".into(), Value::Str(name)),
        ("cat".into(), sval(cat)),
        ("ts".into(), us(e.ts)),
        ("pid".into(), uval(0)),
        ("tid".into(), uval(u64::from(e.rank))),
    ];
    let ph = match phase {
        Phase::Span => {
            fields.push(("dur".into(), us(e.dur)));
            "X"
        }
        Phase::Begin => "B",
        Phase::End => "E",
        Phase::Instant => {
            fields.push(("s".into(), sval("t")));
            "i"
        }
    };
    fields.insert(2, ("ph".into(), sval(ph)));
    fields.push(("args".into(), Value::Object(args)));
    Value::Object(fields)
}

/// One endpoint of a flow ("s" start on the releasing rank, "f" finish on
/// the waiting rank). `id` ties the pair; derived from event content so
/// re-renders of the same stream are bit-identical.
fn flow_event(name: &str, ph: &str, id: String, rank: u32, ts: f64) -> Value {
    let mut fields: Vec<(String, Value)> = vec![
        ("name".into(), sval(name)),
        ("cat".into(), sval("flow")),
        ("ph".into(), sval(ph)),
        ("id".into(), Value::Str(id)),
        ("ts".into(), us(ts)),
        ("pid".into(), uval(0)),
        ("tid".into(), uval(u64::from(rank))),
    ];
    if ph == "f" {
        fields.push(("bp".into(), sval("e")));
    }
    Value::Object(fields)
}

/// Cross-rank causal edges as Chrome flow events: for every collective,
/// an arrow from the straggler's arrival to each waiter's departure; for
/// every mutex handoff, an arrow from the granting rank to the waiter's
/// wake-up. Events are consumed in sorted order, so the output is
/// deterministic.
fn flow_events(events: &[&Event]) -> Vec<Value> {
    use std::collections::BTreeMap;
    // Straggler world rank, its span start, and (rank, departure) waiters.
    type CollEdge = (u32, f64, Vec<(u32, f64)>);
    let mut colls: BTreeMap<(u64, u64), CollEdge> = BTreeMap::new();
    let mut out = Vec::new();
    for e in events {
        match &e.kind {
            EventKind::Coll { comm, seq, src } => {
                let entry = colls
                    .entry((*comm, *seq))
                    .or_insert((*src, 0.0, Vec::new()));
                if e.rank == *src {
                    entry.1 = e.ts;
                } else {
                    entry.2.push((e.rank, e.ts + e.dur));
                }
            }
            EventKind::MutexWait {
                win, mutex, src, ..
            } if e.dur > 0.0 => {
                let end = e.ts + e.dur;
                let id = format!("mutex:{win}:{mutex}:{}:{:x}", e.rank, end.to_bits());
                out.push(flow_event("handoff", "s", id.clone(), *src, end));
                out.push(flow_event("handoff", "f", id, e.rank, end));
            }
            _ => {}
        }
    }
    for ((comm, seq), (src, src_ts, mut waiters)) in colls {
        waiters.sort_by_key(|w| w.0);
        for (rank, end) in waiters {
            let id = format!("coll:{comm}:{seq}:{rank}");
            out.push(flow_event("straggler", "s", id.clone(), src, src_ts));
            out.push(flow_event("straggler", "f", id, rank, end));
        }
    }
    out
}

/// Events in a deterministic render order: sorted by rank, preserving
/// each rank's program order (per-rank buffers are contiguous and
/// program-ordered, but the order *between* ranks in the sink follows
/// thread-exit timing, which is wall-schedule noise).
fn sorted(events: &[Event]) -> Vec<&Event> {
    let mut refs: Vec<&Event> = events.iter().collect();
    refs.sort_by_key(|e| e.rank);
    refs
}

/// Render a full Chrome trace-event JSON document.
pub fn to_chrome_trace(events: &[Event]) -> String {
    let ordered = sorted(events);
    let mut rows: Vec<Value> = ordered.iter().map(|e| trace_event(e)).collect();
    rows.extend(flow_events(&ordered));
    let doc = Value::Object(vec![
        ("traceEvents".into(), Value::Array(rows)),
        ("displayTimeUnit".into(), sval("ms")),
    ]);
    serde_json::to_string_pretty(&doc).expect("chrome trace render")
}

/// Render one JSON object per line (grep-friendly event dump).
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in sorted(events) {
        let (name, cat, _, args) = describe(e);
        let mut fields: Vec<(String, Value)> = vec![
            ("rank".into(), uval(u64::from(e.rank))),
            ("ts".into(), Value::Float(e.ts)),
            ("dur".into(), Value::Float(e.dur)),
            ("name".into(), Value::Str(name)),
            ("cat".into(), sval(cat)),
        ];
        fields.extend(args);
        out.push_str(&serde_json::to_string(&Value::Object(fields)).expect("jsonl render"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpKind;

    fn ev(rank: u32, ts: f64, dur: f64, kind: EventKind) -> Event {
        Event {
            rank,
            ts,
            dur,
            kind,
        }
    }

    #[test]
    fn chrome_trace_parses_back_and_pairs_epochs() {
        let events = vec![
            ev(
                0,
                0.0,
                0.0,
                EventKind::LockAcquire {
                    win: 1,
                    target: 1,
                    exclusive: true,
                },
            ),
            ev(
                0,
                0.1,
                0.2,
                EventKind::Op {
                    name: "put",
                    gmr: 1,
                    bytes: 4096,
                },
            ),
            ev(
                0,
                0.15,
                0.0,
                EventKind::Rma {
                    win: 1,
                    target: 1,
                    kind: OpKind::Put,
                    bytes: 4096,
                },
            ),
            ev(0, 0.3, 0.0, EventKind::LockRelease { win: 1, target: 1 }),
        ];
        let doc = to_chrome_trace(&events);
        let val = serde_json::from_str(&doc).expect("valid json");
        let Value::Object(fields) = val else {
            panic!("not an object")
        };
        let rows = fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents");
        let Value::Array(rows) = rows else {
            panic!("not an array")
        };
        assert_eq!(rows.len(), 4);
        let phs: Vec<&str> = rows
            .iter()
            .map(|r| {
                let Value::Object(f) = r else { panic!() };
                let (_, Value::Str(ph)) = f.iter().find(|(k, _)| k == "ph").unwrap() else {
                    panic!()
                };
                ph.as_str()
            })
            .collect();
        assert_eq!(phs, ["B", "X", "i", "E"]);
    }

    #[test]
    fn jsonl_emits_one_line_per_event() {
        let events = vec![
            ev(
                1,
                0.5,
                0.0,
                EventKind::Pool {
                    bytes: 64,
                    hit: true,
                },
            ),
            ev(1, 0.6, 0.0, EventKind::Flush { win: 2, target: 0 }),
        ];
        let dump = to_jsonl(&events);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            serde_json::from_str(line).expect("each line is valid json");
        }
    }
}
