//! `figures check DIR`: validates the JSON artifacts in `DIR` and runs
//! their acceptance gates; CI regenerates the artifacts and runs it.
//!
//! Every `BENCH_*` row is an [`ab::Row`](crate::ab::Row): one schema
//! ([`ROW_SCHEMA`]) and one provenance check cover them all, before the
//! per-artifact gates. The DES series that stay outside the shared row
//! (`"source": "des"` rows of `BENCH_rmw` and `BENCH_workloads`) carry
//! their own schemas.

use std::collections::HashSet;

use serde::Value;

/// A schema: `field:kind` pairs, kinds `s` string, `b` bool, `u`
/// unsigned, `n` number, `m` object of numbers, `p` `(bytes, value)`
/// points.
type Schema = &'static str;

/// The one row shape of every `BENCH_*` artifact.
pub const ROW_SCHEMA: Schema = "platform:s workload:s arm:s ranks:u ranks_per_node:u \
    congested:b transport:s atomics:s progress:s coalesce:s virtual_s:n fingerprint:s \
    payload_ok:b verified:b params:m stage:m ops:m wire:m metrics:m";
/// [`crate::rmw::DesPoint`].
const RMW_DES_SCHEMA: Schema = "platform:s transport:s atomics_mode:s source:s ranks:u \
    ranks_per_node:u block:u service_us:n ticket_us:n makespan_s:n counter_utilisation:n \
    cas_retries:u";
/// [`crate::workloads::ScalePoint`].
const SCALE_SCHEMA: Schema = "platform:s workload:s source:s axis:s transport:s atomics:s \
    progress:s coalesce:s ranks:u ranks_per_node:u ops:u virtual_s:n throughput_per_s:n \
    verified:b";
const FIG5_SCHEMA: Schema = "combo:s warm:b points:p";
const CRITPATH_SCHEMA: Schema = "workload:s ranks:u makespan_s:n critpath_s:n \
    rank_switches:u attributed_frac:n imbalance:n top_wait_category:s wait_progress_s:n \
    wait_lock_s:n wait_congestion_s:n wait_cas_retry_s:n wait_win_sync_s:n compute_s:n \
    tracked_s:n untracked_s:n";

fn fields(schema: Schema) -> impl Iterator<Item = (&'static str, &'static str)> {
    schema.split_whitespace().filter_map(|f| f.split_once(':'))
}

fn kind_ok(v: &Value, kind: &str) -> bool {
    match (kind, v) {
        ("s", Value::Str(_)) | ("b", Value::Bool(_)) | ("u", Value::UInt(_)) => true,
        ("n", v) => matches!(v, Value::UInt(_) | Value::Int(_) | Value::Float(_)),
        ("m", Value::Object(entries)) => entries.iter().all(|(_, v)| kind_ok(v, "n")),
        ("p", Value::Array(points)) => points.iter().all(|p| {
            matches!(p, Value::Array(pair)
                if pair.len() == 2 && kind_ok(&pair[0], "u") && kind_ok(&pair[1], "n"))
        }),
        _ => false,
    }
}

fn get<'a>(row: &'a Value, key: &str) -> Option<&'a Value> {
    match row {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn num(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn str_of<'a>(row: &'a Value, key: &str) -> Option<&'a str> {
    match get(row, key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// `row[map][key]` as a number.
fn nested(row: &Value, map: &str, key: &str) -> Option<f64> {
    num(get(row, map).and_then(|m| get(m, key)))
}

fn is_series(row: &Value) -> bool {
    str_of(row, "source") == Some("des")
}

/// Validates the rows of artifact `name`; one message per problem.
pub fn check_rows(name: &str, rows: &[Value]) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let Value::Object(entries) = row else {
            problems.push(format!("{name}[{i}]: row is not an object"));
            continue;
        };
        let schema = match name {
            "fig5" => FIG5_SCHEMA,
            "OBS_critpath" => CRITPATH_SCHEMA,
            "BENCH_rmw" if is_series(row) => RMW_DES_SCHEMA,
            "BENCH_workloads" if is_series(row) => SCALE_SCHEMA,
            _ => ROW_SCHEMA,
        };
        let mut found = Vec::new();
        for (key, kind) in fields(schema) {
            match get(row, key) {
                None => found.push(format!("missing field `{key}`")),
                Some(v) if !kind_ok(v, kind) => found.push(format!("field `{key}` has wrong kind")),
                _ => {}
            }
        }
        for (k, _) in entries {
            if !fields(schema).any(|(key, _)| key == k) {
                found.push(format!("unexpected field `{k}`"));
            }
        }
        if name.starts_with("BENCH_") {
            found.extend(provenance(name, row));
        }
        if name == "OBS_critpath" {
            found.extend(critpath_gates(row));
        }
        problems.extend(found.into_iter().map(|m| format!("{name}[{i}]: {m}")));
    }
    match name {
        "BENCH_progress" => problems.extend(stall_collapse(rows)),
        "BENCH_workloads" => problems.extend(workload_spread(rows)),
        _ => {}
    }
    problems
}

/// Every `BENCH_*` row names the node layout and the resolved transport /
/// atomics / progress disciplines that produced it, and no runtime arm
/// may have failed its oracle or drifted its payload from the baseline.
fn provenance(name: &str, row: &Value) -> Vec<String> {
    let mut out = Vec::new();
    let series = is_series(row);
    if let Some(Value::UInt(0)) = get(row, "ranks_per_node") {
        out.push("`ranks_per_node` must be >= 1".to_string());
    }
    // The ARMCI-Native pool rows run without a wire backend; only the
    // DES series model a sharded counter.
    let transports: &[&str] = match name {
        "BENCH_pool" => &["mpi-rma", "channel", "native"],
        _ => &["mpi-rma", "channel"],
    };
    let (atomics_key, atomics): (_, &[&str]) = match (name, series) {
        ("BENCH_rmw", true) => ("atomics_mode", &["native", "mutex", "sharded"]),
        (_, true) => ("atomics", &["native", "mutex", "sharded"]),
        _ => ("atomics", &["native", "mutex"]),
    };
    let mut known = |key: &str, allowed: &[&str]| {
        if let Some(v) = str_of(row, key).filter(|v| !allowed.contains(v)) {
            out.push(format!(
                "unknown `{key}` `{v}` (want {})",
                allowed.join("|")
            ));
        }
    };
    known("transport", transports);
    known(atomics_key, atomics);
    if get(row, "progress").is_some() {
        known("progress", &["none", "agent"]);
    }
    if !series {
        known("coalesce", &["auto", "batched", "datatype", "none"]);
        if let Some(Value::Bool(false)) = get(row, "verified") {
            out.push("runtime arm failed its bit-exact oracle".to_string());
        }
        if let Some(Value::Bool(false)) = get(row, "payload_ok") {
            out.push("payload/energy drifted from the baseline arm".to_string());
        }
    }
    out
}

/// The profiler's gates: the backward walk covers the whole makespan,
/// and the skewed workloads (CCSD, graph) attribute at least 90% of
/// their non-compute time to named wait/communication categories.
fn critpath_gates(row: &Value) -> Vec<String> {
    let mut out = Vec::new();
    if let (Some(m), Some(c)) = (num(get(row, "makespan_s")), num(get(row, "critpath_s"))) {
        if (m - c).abs() > 1e-9 * m.abs().max(1.0) {
            out.push(format!("critpath_s {c} does not cover makespan_s {m}"));
        }
    }
    if let Some(w @ ("ccsd-skewed" | "graph")) = str_of(row, "workload") {
        if let Some(f) = num(get(row, "attributed_frac")).filter(|f| *f < 0.9) {
            out.push(format!("{w} attribution {f:.3} below the 0.9 gate"));
        }
    }
    out
}

/// The async-progress gate: on the `ccsd-skewed` pair at
/// [`crate::progress::GATE_SKEW`] the host arm's `progress.stall_s` is at
/// least [`crate::progress::GATE_RATIO`]× what the agent arm pays instead
/// (residual stall plus `agent_drain_s`), as
/// [`crate::progress::collapse_ratio`] reports.
fn stall_collapse(rows: &[Value]) -> Vec<String> {
    use crate::progress::{GATE_RATIO, GATE_SKEW};
    let arm = |progress: &str| {
        rows.iter().find(|r| {
            str_of(r, "workload") == Some("ccsd-skewed")
                && nested(r, "params", "skew") == Some(GATE_SKEW)
                && str_of(r, "progress") == Some(progress)
        })
    };
    let stall = |r: &Value| nested(r, "metrics", "progress.stall_s");
    let paid = |r: &Value| Some(stall(r)? + nested(r, "metrics", "agent_drain_s")?);
    match (arm("none").and_then(stall), arm("agent").and_then(paid)) {
        (Some(n), Some(a)) if n < GATE_RATIO * a => vec![format!(
            "BENCH_progress: skew {GATE_SKEW} stall {n:.6} vs agent {a:.6} (stall+service) \
             below the {GATE_RATIO}x collapse gate"
        )],
        (Some(_), Some(_)) => Vec::new(),
        _ => vec![format!(
            "BENCH_progress: no ccsd-skewed none/agent pair at skew {GATE_SKEW} to gate"
        )],
    }
}

/// The workload-suite gates: per driver, the virtual-time spread between
/// the baseline arm and some axis arm reaches
/// [`crate::workloads::GATE_SPREAD`] (otherwise the A/B proves nothing),
/// and the DES series is present.
fn workload_spread(rows: &[Value]) -> Vec<String> {
    use crate::workloads::{AXES, GATE_SPREAD};
    let mut out = Vec::new();
    for workload in ["graph", "stencil", "kv"] {
        let of = |arm: &str| {
            let is = |r: &&Value| {
                !is_series(r)
                    && str_of(r, "workload") == Some(workload)
                    && str_of(r, "arm") == Some(arm)
            };
            num(rows.iter().find(is).and_then(|r| get(r, "virtual_s")))
        };
        match of("baseline") {
            None => out.push(format!("BENCH_workloads: no baseline row for `{workload}`")),
            Some(base) => {
                let best = AXES
                    .iter()
                    .filter_map(|a| of(a))
                    .map(|v| v.max(base) / v.min(base).max(f64::MIN_POSITIVE))
                    .fold(0.0f64, f64::max);
                if best < GATE_SPREAD {
                    out.push(format!(
                        "BENCH_workloads: `{workload}` widest axis spread {best:.2}x below the \
                         {GATE_SPREAD}x gate"
                    ));
                }
            }
        }
        if !rows
            .iter()
            .any(|r| is_series(r) && str_of(r, "workload") == Some(workload))
        {
            out.push(format!("BENCH_workloads: no DES rows for `{workload}`"));
        }
    }
    out
}

fn load(dir: &str, name: &str) -> Result<Value, String> {
    let path = format!("{dir}/{name}.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: unreadable: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Validates every artifact in `dir`; one message per problem.
pub fn check_dir(dir: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let tables = crate::ARTIFACTS.iter().map(|a| a.file());
    for name in tables.chain(["fig5".into(), "OBS_critpath".into()]) {
        let name = name.as_str();
        match load(dir, name) {
            Ok(Value::Array(rows)) if !rows.is_empty() => {
                problems.extend(check_rows(name, &rows));
                eprintln!("[figures check] {name}: {} rows", rows.len());
            }
            Ok(Value::Array(_)) => problems.push(format!("{name}: empty artifact")),
            Ok(_) => problems.push(format!("{name}: top level is not an array")),
            Err(e) => problems.push(e),
        }
    }
    for (name, cats) in [
        ("TRACE_fig3", &["epoch", "stage", "pack", "op"][..]),
        ("TRACE_ccsd", &["epoch", "stage", "op"][..]),
    ] {
        match load(dir, name) {
            Ok(top) => problems.extend(check_trace(name, &top, cats)),
            Err(e) => problems.push(e),
        }
    }
    match load(dir, "OBS_report") {
        Ok(top) => problems.extend(check_report(&top)),
        Err(e) => problems.push(e),
    }
    problems
}

/// A Chrome trace: a nonempty `traceEvents` array of events with
/// `name`/`cat`/`ph`/`ts` covering at least `want_cats` categories.
fn check_trace(name: &str, top: &Value, want_cats: &[&str]) -> Vec<String> {
    let events = match get(top, "traceEvents") {
        Some(Value::Array(events)) if !events.is_empty() => events,
        _ => return vec![format!("{name}: missing or empty `traceEvents` array")],
    };
    let mut cats = HashSet::new();
    for (i, e) in events.iter().enumerate() {
        if let Some(key) = ["name", "cat", "ph", "ts"]
            .iter()
            .find(|k| get(e, k).is_none())
        {
            return vec![format!("{name}: traceEvents[{i}] missing `{key}`")];
        }
        cats.extend(str_of(e, "cat"));
    }
    eprintln!("[figures check] {name}: {} events", events.len());
    let missing = want_cats.iter().filter(|c| !cats.contains(**c));
    missing
        .map(|c| format!("{name}: no `{c}` spans in trace"))
        .collect()
}

/// `OBS_report`: nonempty `counters`, plus `times` and `histograms`, with
/// the kinds the registry serialises.
fn check_report(top: &Value) -> Vec<String> {
    let mut out = Vec::new();
    for section in ["counters", "times", "histograms"] {
        let Some(Value::Object(entries)) = get(top, section) else {
            out.push(format!("OBS_report: missing `{section}` object"));
            continue;
        };
        for (k, v) in entries {
            let ok = match section {
                "counters" => kind_ok(v, "u"),
                "times" => kind_ok(v, "n"),
                _ => get(v, "count").is_some() && get(v, "buckets_log2us").is_some(),
            };
            if !ok {
                out.push(format!("OBS_report: `{section}.{k}` malformed"));
            }
        }
    }
    if !matches!(get(top, "counters"), Some(Value::Object(o)) if !o.is_empty()) {
        out.push("OBS_report: report has no counters".to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ab::Row;
    use serde::Serialize;
    use simnet::PlatformId;

    fn s(v: &str) -> Value {
        Value::Str(v.to_string())
    }

    /// `v` with `key` set to `to` (`Value::Null` removes it).
    fn with(mut v: Value, key: &str, to: Value) -> Value {
        let Value::Object(entries) = &mut v else {
            panic!("not an object")
        };
        entries.retain(|(k, _)| k != key);
        if to != Value::Null {
            entries.push((key.to_string(), to));
        }
        v
    }

    /// A well-formed runtime row.
    fn row(workload: &'static str, arm: &'static str) -> Value {
        let row = Row {
            transport: "mpi-rma",
            atomics: "native",
            progress: "none",
            coalesce: "auto",
            virtual_s: 1.0,
            params: vec![("skew", crate::progress::GATE_SKEW.to_value())],
            ..Row::new(PlatformId::InfiniBandCluster, workload, arm, 4, 1)
        };
        row.to_value()
    }

    /// A well-formed row of `schema`, with `set` fields overridden.
    fn schema_row(schema: Schema, set: &[(&str, Value)]) -> Value {
        let row = fields(schema).map(|(k, kind)| {
            let v = match set.iter().find(|(key, _)| *key == k) {
                Some((_, v)) => v.clone(),
                None if kind == "s" => s("none"),
                None if kind == "b" => Value::Bool(true),
                None => Value::UInt(1),
            };
            (k.to_string(), v)
        });
        Value::Object(row.collect())
    }

    /// The skewed-CCSD pair at the gate skew, the agent arm paying
    /// `agent_s` of service against a host stall of exactly the gate.
    fn skewed(agent_s: f64) -> Vec<Value> {
        let metrics = |stall: f64, agent: f64| {
            Value::Object(vec![
                ("progress.stall_s".to_string(), Value::Float(stall)),
                ("agent_drain_s".to_string(), Value::Float(agent)),
            ])
        };
        let ratio = crate::progress::GATE_RATIO;
        let agent = with(row("ccsd-skewed", "agent"), "progress", s("agent"));
        vec![
            with(row("ccsd-skewed", "none"), "metrics", metrics(ratio, 0.0)),
            with(agent, "metrics", metrics(0.5, agent_s)),
        ]
    }

    /// Baseline and `spread`× slower atomics arm of every driver, plus
    /// one DES point each.
    fn suite(spread: f64) -> Vec<Value> {
        let mut rows = Vec::new();
        for w in ["graph", "stencil", "kv"] {
            rows.push(row(w, "baseline"));
            rows.push(with(row(w, "atomics"), "virtual_s", Value::Float(spread)));
            let des = [
                ("workload", s(w)),
                ("source", s("des")),
                ("transport", s("mpi-rma")),
                ("atomics", s("sharded")),
            ];
            rows.push(schema_row(SCALE_SCHEMA, &des));
        }
        rows
    }

    fn critpath(workload: &str, critpath_s: f64, attributed: f64) -> Vec<Value> {
        let set = [
            ("workload", s(workload)),
            ("makespan_s", Value::Float(1.0)),
            ("critpath_s", Value::Float(critpath_s)),
            ("attributed_frac", Value::Float(attributed)),
        ];
        vec![schema_row(CRITPATH_SCHEMA, &set)]
    }

    #[test]
    fn well_formed_rows_pass_every_gate() {
        let native = with(row("fig3-contig", "cold"), "transport", s("native"));
        let gate = crate::workloads::GATE_SPREAD;
        for (name, rows) in [
            ("BENCH_shm", vec![row("fig3-mix", "wire")]),
            ("BENCH_pool", vec![native]),
            ("BENCH_progress", skewed(0.5)),
            ("BENCH_workloads", suite(gate)),
            ("OBS_critpath", critpath("graph", 1.0, 0.9)),
        ] {
            assert_eq!(check_rows(name, &rows), Vec::<String>::new(), "{name}");
        }
    }

    #[test]
    fn every_gate_flags_its_seeded_bad_row() {
        let mix = |key: &str, to: Value| vec![with(row("fig3-mix", "wire"), key, to)];
        let gate = crate::workloads::GATE_SPREAD;
        let cases = [
            (
                "BENCH_shm",
                mix("virtual_s", Value::Null),
                "missing field `virtual_s`",
            ),
            (
                "BENCH_shm",
                mix("bogus", Value::UInt(1)),
                "unexpected field `bogus`",
            ),
            (
                "BENCH_shm",
                mix("ranks_per_node", Value::UInt(0)),
                "must be >= 1",
            ),
            (
                "BENCH_transport",
                mix("transport", s("")),
                "unknown `transport` ``",
            ),
            (
                "BENCH_transport",
                mix("transport", s("pigeon")),
                "unknown `transport` `pigeon`",
            ),
            (
                "BENCH_workloads",
                mix("transport", s("native")),
                "unknown `transport` `native`",
            ),
            (
                "BENCH_transport",
                mix("atomics", s("")),
                "unknown `atomics` ``",
            ),
            (
                "BENCH_rmw",
                mix("atomics", s("sharded")),
                "unknown `atomics` `sharded`",
            ),
            (
                "BENCH_transport",
                mix("progress", s("")),
                "unknown `progress` ``",
            ),
            (
                "BENCH_progress",
                mix("progress", s("irq")),
                "unknown `progress` `irq`",
            ),
            (
                "BENCH_workloads",
                mix("verified", Value::Bool(false)),
                "bit-exact oracle",
            ),
            (
                "BENCH_progress",
                mix("payload_ok", Value::Bool(false)),
                "drifted",
            ),
            ("BENCH_progress", skewed(0.6), "collapse gate"),
            ("BENCH_workloads", suite(gate * 0.99), "below the 1.3x gate"),
            (
                "OBS_critpath",
                critpath("fig3", 0.9, 1.0),
                "does not cover makespan_s",
            ),
            (
                "OBS_critpath",
                critpath("graph", 1.0, 0.89),
                "below the 0.9 gate",
            ),
        ];
        for (name, rows, want) in cases {
            let problems = check_rows(name, &rows);
            assert!(
                problems.iter().any(|p| p.contains(want)),
                "{name}: no problem mentions `{want}`: {problems:?}"
            );
        }
    }
}
