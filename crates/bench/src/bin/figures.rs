//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures [table2|fig3|fig4|fig5|fig6|pipeline|pool|coalesce|shm|transport|rmw|
//!          progress|workloads|trace|critpath|all] [--json DIR]
//! figures check DIR
//! ```
//!
//! Text goes to stdout; with `--json DIR`, machine-readable data is also
//! written to `DIR/<artifact>.json`. `check` validates the schema of the
//! JSON artifacts in `DIR` (keys present, value kinds unchanged) and
//! exits nonzero on drift — CI regenerates the cheap artifacts and runs
//! it to catch accidental serializer or struct-shape changes.

use bench::{
    coalesce, fig3, fig4, fig5, fig6r, pipeline, pool, rmw, shm, table2, trace, transport,
};
use serde::Value;
use simnet::PlatformId;

/// Expected value kind for one field of an artifact row.
#[derive(Clone, Copy)]
enum Kind {
    Str,
    Bool,
    UInt,
    Num,
    /// Array of `(bytes, bandwidth)` pairs.
    Points,
}

fn kind_ok(v: &Value, k: Kind) -> bool {
    match k {
        Kind::Str => matches!(v, Value::Str(_)),
        Kind::Bool => matches!(v, Value::Bool(_)),
        Kind::UInt => matches!(v, Value::UInt(_)),
        Kind::Num => matches!(v, Value::UInt(_) | Value::Int(_) | Value::Float(_)),
        Kind::Points => match v {
            Value::Array(items) => items.iter().all(|p| match p {
                Value::Array(pair) => {
                    pair.len() == 2 && kind_ok(&pair[0], Kind::UInt) && kind_ok(&pair[1], Kind::Num)
                }
                _ => false,
            }),
            _ => false,
        },
    }
}

/// Schemas of the artifacts CI regenerates: every row must be an object
/// carrying exactly these fields with these kinds.
fn schemas() -> Vec<(&'static str, Vec<(&'static str, Kind)>)> {
    vec![
        (
            "fig5",
            vec![
                ("combo", Kind::Str),
                ("warm", Kind::Bool),
                ("points", Kind::Points),
            ],
        ),
        (
            "BENCH_pipeline",
            vec![
                ("platform", Kind::Str),
                ("transport", Kind::Str),
                ("workload", Kind::Str),
                ("bytes", Kind::UInt),
                ("segments", Kind::UInt),
                ("ranks_per_node", Kind::UInt),
                ("nonblocking", Kind::Bool),
                ("plans", Kind::UInt),
                ("planned_ops", Kind::UInt),
                ("acquires", Kind::UInt),
                ("executed_ops", Kind::UInt),
                ("completes", Kind::UInt),
                ("nb_aggregated", Kind::UInt),
                ("plan_s", Kind::Num),
                ("acquire_s", Kind::Num),
                ("execute_s", Kind::Num),
                ("complete_s", Kind::Num),
                ("pool_hits", Kind::UInt),
                ("pool_misses", Kind::UInt),
                ("pool_reg_s", Kind::Num),
                ("pool_hit_rate", Kind::Num),
                ("epoch_held_s", Kind::Num),
                ("pack_s", Kind::Num),
                ("rma_ops", Kind::UInt),
            ],
        ),
        (
            "BENCH_coalesce",
            vec![
                ("platform", Kind::Str),
                ("transport", Kind::Str),
                ("workload", Kind::Str),
                ("arm", Kind::Str),
                ("ranks_per_node", Kind::UInt),
                ("epochs", Kind::UInt),
                ("flushes", Kind::UInt),
                ("wire_ops", Kind::UInt),
                ("queued_ops", Kind::UInt),
                ("runs", Kind::UInt),
                ("segs_in", Kind::UInt),
                ("segs_out", Kind::UInt),
                ("dtype_hits", Kind::UInt),
                ("dtype_misses", Kind::UInt),
                ("dtype_hit_rate", Kind::Num),
                ("virtual_s", Kind::Num),
                ("payload_ok", Kind::Bool),
                ("energy", Kind::Num),
            ],
        ),
        (
            "BENCH_shm",
            vec![
                ("platform", Kind::Str),
                ("transport", Kind::Str),
                ("workload", Kind::Str),
                ("arm", Kind::Str),
                ("ranks_per_node", Kind::UInt),
                ("shm_hits", Kind::UInt),
                ("shm_bypass_bytes", Kind::UInt),
                ("executed_ops", Kind::UInt),
                ("shm_hit_rate", Kind::Num),
                ("virtual_s", Kind::Num),
                ("payload_ok", Kind::Bool),
                ("energy", Kind::Num),
            ],
        ),
        (
            "BENCH_transport",
            vec![
                ("platform", Kind::Str),
                ("workload", Kind::Str),
                ("transport", Kind::Str),
                ("congested", Kind::Bool),
                ("ranks_per_node", Kind::UInt),
                ("epochs", Kind::UInt),
                ("flushes", Kind::UInt),
                ("offloaded_ops", Kind::UInt),
                ("fallback_ops", Kind::UInt),
                ("virtual_s", Kind::Num),
                ("payload_ok", Kind::Bool),
                ("energy", Kind::Num),
            ],
        ),
        (
            "BENCH_pool",
            vec![
                ("platform", Kind::Str),
                ("transport", Kind::Str),
                ("backend", Kind::Str),
                ("workload", Kind::Str),
                ("phase", Kind::Str),
                ("ranks_per_node", Kind::UInt),
                ("hits", Kind::UInt),
                ("misses", Kind::UInt),
                ("hit_rate", Kind::Num),
                ("reg_cost_s", Kind::Num),
                ("high_water_bytes", Kind::UInt),
            ],
        ),
        (
            "OBS_critpath",
            vec![
                ("workload", Kind::Str),
                ("ranks", Kind::UInt),
                ("makespan_s", Kind::Num),
                ("critpath_s", Kind::Num),
                ("rank_switches", Kind::UInt),
                ("attributed_frac", Kind::Num),
                ("imbalance", Kind::Num),
                ("top_wait_category", Kind::Str),
                ("wait_progress_s", Kind::Num),
                ("wait_lock_s", Kind::Num),
                ("wait_congestion_s", Kind::Num),
                ("wait_cas_retry_s", Kind::Num),
                ("wait_win_sync_s", Kind::Num),
                ("compute_s", Kind::Num),
                ("tracked_s", Kind::Num),
                ("untracked_s", Kind::Num),
            ],
        ),
        (
            "BENCH_rmw",
            vec![
                ("platform", Kind::Str),
                ("transport", Kind::Str),
                ("atomics_mode", Kind::Str),
                ("source", Kind::Str),
                ("ranks", Kind::UInt),
                ("ranks_per_node", Kind::UInt),
                ("block", Kind::UInt),
                ("service_us", Kind::Num),
                ("ticket_us", Kind::Num),
                ("makespan_s", Kind::Num),
                ("counter_utilisation", Kind::Num),
                ("cas_retries", Kind::UInt),
            ],
        ),
        (
            "BENCH_progress",
            vec![
                ("platform", Kind::Str),
                ("transport", Kind::Str),
                ("workload", Kind::Str),
                ("progress", Kind::Str),
                ("skew", Kind::Num),
                ("ranks", Kind::UInt),
                ("ranks_per_node", Kind::UInt),
                ("stall_s", Kind::Num),
                ("straggler_s", Kind::Num),
                ("agent_s", Kind::Num),
                ("agent_ops", Kind::UInt),
                ("offloaded_s", Kind::Num),
                ("virtual_s", Kind::Num),
                ("energy", Kind::Num),
                ("payload_ok", Kind::Bool),
            ],
        ),
        (
            "BENCH_workloads",
            vec![
                ("platform", Kind::Str),
                ("workload", Kind::Str),
                ("source", Kind::Str),
                ("axis", Kind::Str),
                ("transport", Kind::Str),
                ("atomics", Kind::Str),
                ("progress", Kind::Str),
                ("coalesce", Kind::Str),
                ("ranks", Kind::UInt),
                ("ranks_per_node", Kind::UInt),
                ("ops", Kind::UInt),
                ("virtual_s", Kind::Num),
                ("throughput_per_s", Kind::Num),
                ("verified", Kind::Bool),
            ],
        ),
    ]
}

/// Validates the artifacts in `dir` against the schemas; returns the
/// number of problems found (each reported on stderr).
fn check(dir: &str) -> usize {
    let mut problems = 0;
    let mut complain = |msg: String| {
        eprintln!("[figures check] {msg}");
        problems += 1;
    };
    for (name, fields) in schemas() {
        let path = format!("{dir}/{name}.json");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                complain(format!("{path}: unreadable: {e}"));
                continue;
            }
        };
        let rows = match serde_json::from_str(&text) {
            Ok(Value::Array(rows)) if !rows.is_empty() => rows,
            Ok(Value::Array(_)) => {
                complain(format!("{path}: empty artifact"));
                continue;
            }
            Ok(_) => {
                complain(format!("{path}: top level is not an array"));
                continue;
            }
            Err(e) => {
                complain(format!("{path}: {e}"));
                continue;
            }
        };
        for (i, row) in rows.iter().enumerate() {
            let Value::Object(entries) = row else {
                complain(format!("{path}[{i}]: row is not an object"));
                continue;
            };
            for &(key, kind) in &fields {
                match entries.iter().find(|(k, _)| k == key) {
                    None => complain(format!("{path}[{i}]: missing field `{key}`")),
                    Some((_, v)) if !kind_ok(v, kind) => {
                        complain(format!("{path}[{i}]: field `{key}` has wrong kind"))
                    }
                    _ => {}
                }
            }
            for (k, _) in entries {
                if !fields.iter().any(|(key, _)| key == k) {
                    complain(format!("{path}[{i}]: unexpected field `{k}`"));
                }
            }
            // Every BENCH_* row must say what node layout produced it
            // (the intra-node shared-memory tier makes numbers
            // meaningless without the ranks-per-node context) and which
            // wire backend carried the traffic.
            if name.starts_with("BENCH_") {
                match entries.iter().find(|(k, _)| k == "ranks_per_node") {
                    Some((_, Value::UInt(n))) if *n >= 1 => {}
                    Some((_, Value::UInt(_))) => {
                        complain(format!("{path}[{i}]: `ranks_per_node` must be >= 1"))
                    }
                    _ => {} // missing/mistyped already reported above
                }
                match entries.iter().find(|(k, _)| k == "transport") {
                    Some((_, Value::Str(t))) if !t.is_empty() => {}
                    Some((_, Value::Str(_))) => {
                        complain(format!("{path}[{i}]: `transport` must be nonempty"))
                    }
                    _ => {} // missing/mistyped already reported above
                }
            }
            // The profiler's acceptance gates ride the schema check: the
            // backward walk must cover the whole makespan, and the
            // skewed-CCSD run must attribute at least 90% of its
            // non-compute time to named wait/communication categories.
            if name == "OBS_critpath" {
                let get = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                if let (Some(Value::Float(m)), Some(Value::Float(c))) =
                    (get("makespan_s"), get("critpath_s"))
                {
                    if (m - c).abs() > 1e-9 * m.abs().max(1.0) {
                        complain(format!(
                            "{path}[{i}]: critpath_s {c} does not cover makespan_s {m}"
                        ));
                    }
                }
                if let Some(Value::Str(w)) = get("workload") {
                    // The skewed workloads — CCSD and the graph kernel —
                    // must attribute ≥90% of their non-compute time.
                    if w == "ccsd-skewed" || w == "graph" {
                        match get("attributed_frac") {
                            Some(Value::Float(f)) if *f >= 0.9 => {}
                            Some(Value::Float(f)) => complain(format!(
                                "{path}[{i}]: {w} attribution {f:.3} below the 0.9 gate"
                            )),
                            _ => {} // missing/mistyped already reported above
                        }
                    }
                }
            }
            // Atomic measurements are meaningless without knowing which
            // synchronization discipline produced them: every BENCH_rmw
            // row must carry its `atomics_mode` provenance.
            if name == "BENCH_rmw" {
                match entries.iter().find(|(k, _)| k == "atomics_mode") {
                    Some((_, Value::Str(m)))
                        if matches!(m.as_str(), "native" | "mutex" | "sharded") => {}
                    Some((_, Value::Str(m))) => complain(format!(
                        "{path}[{i}]: unknown `atomics_mode` `{m}` \
                         (want native|mutex|sharded)"
                    )),
                    _ => {} // missing/mistyped already reported above
                }
            }
            // Workload-suite rows carry the resolved provenance of all
            // three config axes, and every runtime row must have passed
            // its driver's bit-exact oracle (plus the cross-arm
            // identity check) — an unverified measurement is a bug, not
            // a data point.
            if name == "BENCH_workloads" {
                let get = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                match get("transport") {
                    Some(Value::Str(t)) if matches!(t.as_str(), "mpi-rma" | "channel") => {}
                    Some(Value::Str(t)) => complain(format!(
                        "{path}[{i}]: unknown `transport` `{t}` (want mpi-rma|channel)"
                    )),
                    _ => {} // missing/mistyped already reported above
                }
                match get("atomics") {
                    Some(Value::Str(m)) if matches!(m.as_str(), "native" | "mutex" | "sharded") => {
                    }
                    Some(Value::Str(m)) => complain(format!(
                        "{path}[{i}]: unknown `atomics` `{m}` (want native|mutex|sharded)"
                    )),
                    _ => {} // missing/mistyped already reported above
                }
                match get("progress") {
                    Some(Value::Str(m)) if matches!(m.as_str(), "none" | "agent") => {}
                    Some(Value::Str(m)) => complain(format!(
                        "{path}[{i}]: unknown `progress` `{m}` (want none|agent)"
                    )),
                    _ => {} // missing/mistyped already reported above
                }
                if matches!(get("source"), Some(Value::Str(s)) if s == "runtime") {
                    if let Some(Value::Bool(false)) = get("verified") {
                        complain(format!(
                            "{path}[{i}]: runtime arm failed its bit-exact oracle"
                        ));
                    }
                }
            }
            // Stall measurements are meaningless without knowing which
            // progress discipline produced them: every BENCH_progress
            // row carries its resolved `progress` provenance, and the
            // agent must never have broken payload determinism.
            if name == "BENCH_progress" {
                match entries.iter().find(|(k, _)| k == "progress") {
                    Some((_, Value::Str(m))) if matches!(m.as_str(), "none" | "agent") => {}
                    Some((_, Value::Str(m))) => complain(format!(
                        "{path}[{i}]: unknown `progress` `{m}` (want none|agent)"
                    )),
                    _ => {} // missing/mistyped already reported above
                }
                if let Some((_, Value::Bool(false))) =
                    entries.iter().find(|(k, _)| k == "payload_ok")
                {
                    complain(format!(
                        "{path}[{i}]: agent arm drifted payload/energy from the host arm"
                    ));
                }
            }
        }
        // The async-progress acceptance gate rides the schema check: at
        // the headline skew the agent must collapse progress-wait
        // seconds by at least the ISSUE's factor.
        if name == "BENCH_progress" {
            check_stall_collapse(&path, &rows, &mut complain);
        }
        // The workload-suite gates: each driver must show a measurable
        // spread on at least one config axis and carry a DES scaling
        // series.
        if name == "BENCH_workloads" {
            check_workload_spread(&path, &rows, &mut complain);
        }
        eprintln!("[figures check] {path}: {} rows", rows.len());
    }
    for (name, want_cats) in [
        ("TRACE_fig3", &["epoch", "stage", "pack", "op"][..]),
        ("TRACE_ccsd", &["epoch", "stage", "op"][..]),
    ] {
        check_trace(dir, name, want_cats, &mut complain);
    }
    check_report(dir, &mut complain);
    problems
}

/// The BENCH_progress stall-collapse gate: on the `ccsd-skewed` pair at
/// the gate skew, the host arm's `stall_s` must be at least
/// [`bench::progress::GATE_RATIO`]× what the agent arm pays instead —
/// residual stall plus the agent's own service time (`agent_s`), the
/// same service-inclusive ratio [`bench::progress::collapse_ratio`]
/// reports.
fn check_stall_collapse(path: &str, rows: &[Value], complain: &mut impl FnMut(String)) {
    let field = |row: &Value, key: &str| -> Option<Value> {
        let Value::Object(entries) = row else {
            return None;
        };
        entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    let num = |v: &Value| -> Option<f64> {
        match v {
            Value::Float(f) => Some(*f),
            Value::UInt(u) => Some(*u as f64),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    };
    let mut gated = 0usize;
    let skewed: Vec<&Value> = rows
        .iter()
        .filter(|r| {
            matches!(field(r, "workload"), Some(Value::Str(w)) if w == "ccsd-skewed")
                && field(r, "skew").as_ref().and_then(&num) == Some(bench::progress::GATE_SKEW)
        })
        .collect();
    let arm = |name: &str| {
        skewed
            .iter()
            .find(|r| matches!(field(r, "progress"), Some(Value::Str(p)) if p == name))
            .copied()
    };
    if let (Some(none), Some(agent)) = (arm("none"), arm("agent")) {
        if let (Some(n), Some(a), Some(svc)) = (
            field(none, "stall_s").as_ref().and_then(&num),
            field(agent, "stall_s").as_ref().and_then(&num),
            field(agent, "agent_s").as_ref().and_then(&num),
        ) {
            gated += 1;
            if n < bench::progress::GATE_RATIO * (a + svc) {
                complain(format!(
                    "{path}: skew {} stall_s {n:.6} vs agent {:.6} (stall+service) — \
                     below the {}x collapse gate",
                    bench::progress::GATE_SKEW,
                    a + svc,
                    bench::progress::GATE_RATIO,
                ));
            }
        }
    }
    if gated == 0 {
        complain(format!(
            "{path}: no ccsd-skewed none/agent pair at skew {} to gate",
            bench::progress::GATE_SKEW
        ));
    }
}

/// The BENCH_workloads gates: per driver, the virtual-time spread
/// (slowest/fastest of an axis arm vs baseline) must reach
/// [`bench::workloads::GATE_SPREAD`] on at least one config axis —
/// otherwise the A/B proves nothing — and the scalesim series must be
/// present (≥1 `des` row) so the 10⁵–10⁶-client scaling story ships
/// with the measured rows.
fn check_workload_spread(path: &str, rows: &[Value], complain: &mut impl FnMut(String)) {
    let field = |row: &Value, key: &str| -> Option<Value> {
        let Value::Object(entries) = row else {
            return None;
        };
        entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    let sfield = |row: &Value, key: &str| -> Option<String> {
        match field(row, key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    };
    for workload in ["graph", "stencil", "kv"] {
        let virtual_of = |axis: &str| -> Option<f64> {
            rows.iter()
                .find(|r| {
                    sfield(r, "source").as_deref() == Some("runtime")
                        && sfield(r, "workload").as_deref() == Some(workload)
                        && sfield(r, "axis").as_deref() == Some(axis)
                })
                .and_then(|r| match field(r, "virtual_s") {
                    Some(Value::Float(f)) => Some(f),
                    _ => None,
                })
        };
        let Some(base) = virtual_of("baseline") else {
            complain(format!("{path}: no runtime baseline row for `{workload}`"));
            continue;
        };
        let best = ["transport", "atomics", "progress", "coalesce"]
            .into_iter()
            .filter_map(|a| {
                let v = virtual_of(a)?;
                Some(v.max(base) / v.min(base).max(f64::MIN_POSITIVE))
            })
            .fold(0.0f64, f64::max);
        if best < bench::workloads::GATE_SPREAD {
            complain(format!(
                "{path}: `{workload}` widest axis spread {best:.2}x below the {}x gate",
                bench::workloads::GATE_SPREAD
            ));
        }
        if !rows.iter().any(|r| {
            sfield(r, "source").as_deref() == Some("des")
                && sfield(r, "workload").as_deref() == Some(workload)
        }) {
            complain(format!("{path}: no DES scaling rows for `{workload}`"));
        }
    }
}

/// Validates a Chrome-trace artifact: a top-level object whose nonempty
/// `traceEvents` array holds events with `name`/`cat`/`ph`/`ts` fields
/// and covers at least `want_cats` categories.
fn check_trace(dir: &str, name: &str, want_cats: &[&str], complain: &mut impl FnMut(String)) {
    let path = format!("{dir}/{name}.json");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => return complain(format!("{path}: unreadable: {e}")),
    };
    let top = match serde_json::from_str(&text) {
        Ok(Value::Object(top)) => top,
        Ok(_) => return complain(format!("{path}: top level is not an object")),
        Err(e) => return complain(format!("{path}: {e}")),
    };
    let Some((_, Value::Array(events))) = top.iter().find(|(k, _)| k == "traceEvents") else {
        return complain(format!("{path}: missing `traceEvents` array"));
    };
    if events.is_empty() {
        return complain(format!("{path}: empty trace"));
    }
    let mut cats = std::collections::HashSet::new();
    for (i, e) in events.iter().enumerate() {
        let Value::Object(fields) = e else {
            return complain(format!("{path}: traceEvents[{i}] is not an object"));
        };
        for key in ["name", "cat", "ph", "ts"] {
            if !fields.iter().any(|(k, _)| k == key) {
                return complain(format!("{path}: traceEvents[{i}] missing `{key}`"));
            }
        }
        if let Some((_, Value::Str(c))) = fields.iter().find(|(k, _)| k == "cat") {
            cats.insert(c.clone());
        }
    }
    for want in want_cats {
        if !cats.contains(*want) {
            complain(format!("{path}: no `{want}` spans in trace"));
        }
    }
    eprintln!("[figures check] {path}: {} events", events.len());
}

/// Validates the OBS_report artifact: `counters` / `times` /
/// `histograms` maps with the kinds the registry serialises.
fn check_report(dir: &str, complain: &mut impl FnMut(String)) {
    let path = format!("{dir}/OBS_report.json");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => return complain(format!("{path}: unreadable: {e}")),
    };
    let top = match serde_json::from_str(&text) {
        Ok(Value::Object(top)) => top,
        Ok(_) => return complain(format!("{path}: top level is not an object")),
        Err(e) => return complain(format!("{path}: {e}")),
    };
    for (section, kind) in [
        ("counters", Kind::UInt),
        ("times", Kind::Num),
        ("histograms", Kind::Num),
    ] {
        let Some((_, Value::Object(entries))) = top.iter().find(|(k, _)| k == section) else {
            complain(format!("{path}: missing `{section}` object"));
            continue;
        };
        if section == "histograms" {
            for (k, v) in entries {
                let ok = matches!(v, Value::Object(h)
                    if h.iter().any(|(hk, _)| hk == "count")
                        && h.iter().any(|(hk, _)| hk == "buckets_log2us"));
                if !ok {
                    complain(format!("{path}: histogram `{k}` malformed"));
                }
            }
        } else {
            for (k, v) in entries {
                if !kind_ok(v, kind) {
                    complain(format!("{path}: `{section}.{k}` has wrong kind"));
                }
            }
        }
    }
    if !top
        .iter()
        .any(|(k, v)| k == "counters" && matches!(v, Value::Object(o) if !o.is_empty()))
    {
        complain(format!("{path}: report has no counters"));
    }
    eprintln!("[figures check] {path}: ok");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("check") {
        let dir = args.get(1).cloned().unwrap_or_else(|| "results".into());
        let problems = check(&dir);
        if problems > 0 {
            eprintln!("[figures check] FAILED: {problems} problem(s)");
            std::process::exit(1);
        }
        eprintln!("[figures check] OK");
        return;
    }
    let mut what = "all".to_string();
    let mut json_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {
                json_dir = Some(it.next().expect("--json needs a directory").clone());
            }
            other => what = other.to_string(),
        }
    }
    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
    }
    let dump = |name: &str, data: &str| {
        if let Some(dir) = &json_dir {
            std::fs::write(format!("{dir}/{name}.json"), data).expect("write json");
        }
    };

    let all = what == "all";
    if all || what == "table2" {
        println!("{}", table2::render());
    }
    if all || what == "fig3" {
        let mut everything = Vec::new();
        for id in PlatformId::ALL {
            eprintln!("[figures] fig3: {}", id.name());
            let series = fig3::generate(id);
            print!("{}", fig3::render(&series));
            everything.extend(series);
        }
        dump("fig3", &serde_json::to_string_pretty(&everything).unwrap());
    }
    if all || what == "fig4" {
        let mut everything = Vec::new();
        for id in PlatformId::ALL {
            eprintln!("[figures] fig4: {}", id.name());
            let series = fig4::generate(id);
            print!("{}", fig4::render(&series));
            everything.extend(series);
        }
        dump("fig4", &serde_json::to_string_pretty(&everything).unwrap());
    }
    if all || what == "fig5" {
        eprintln!("[figures] fig5");
        let mut series = fig5::generate();
        series.extend(fig5::generate_warm());
        print!("{}", fig5::render(&series));
        dump("fig5", &serde_json::to_string_pretty(&series).unwrap());
    }
    if all || what == "ds" {
        eprintln!("[figures] ds comparison");
        let rows = bench::ds_compare::generate(PlatformId::InfiniBandCluster);
        let nx = bench::ds_compare::nxtval_latency(PlatformId::InfiniBandCluster, 4);
        print!("{}", bench::ds_compare::render(&rows, nx));
        dump("ds_compare", &serde_json::to_string_pretty(&rows).unwrap());
    }
    if all || what == "fig6-ablation" {
        let mut everything = Vec::new();
        for id in [PlatformId::InfiniBandCluster, PlatformId::CrayXE6] {
            eprintln!("[figures] fig6-ablation: {}", id.name());
            let series = fig6r::generate_ablation(id);
            print!("{}", fig6r::render(&series));
            everything.extend(series);
        }
        dump(
            "fig6_ablation",
            &serde_json::to_string_pretty(&everything).unwrap(),
        );
    }
    if all || what == "pipeline" {
        let mut everything = Vec::new();
        for id in [PlatformId::InfiniBandCluster, PlatformId::CrayXE6] {
            eprintln!("[figures] pipeline: {}", id.name());
            let rows = pipeline::generate(id);
            print!("{}", pipeline::render(&rows));
            everything.extend(rows);
        }
        dump(
            "BENCH_pipeline",
            &serde_json::to_string_pretty(&everything).unwrap(),
        );
    }
    if all || what == "coalesce" {
        let mut everything = Vec::new();
        for id in [PlatformId::InfiniBandCluster, PlatformId::CrayXE6] {
            eprintln!("[figures] coalesce: {}", id.name());
            let rows = coalesce::generate(id);
            print!("{}", coalesce::render(&rows));
            everything.extend(rows);
        }
        dump(
            "BENCH_coalesce",
            &serde_json::to_string_pretty(&everything).unwrap(),
        );
    }
    if all || what == "shm" {
        let mut everything = Vec::new();
        for id in [PlatformId::InfiniBandCluster, PlatformId::CrayXE6] {
            eprintln!("[figures] shm: {}", id.name());
            let rows = shm::generate(id);
            print!("{}", shm::render(&rows));
            everything.extend(rows);
        }
        dump(
            "BENCH_shm",
            &serde_json::to_string_pretty(&everything).unwrap(),
        );
    }
    if all || what == "transport" {
        let mut everything = Vec::new();
        for id in [PlatformId::InfiniBandCluster, PlatformId::CrayXE6] {
            eprintln!("[figures] transport: {}", id.name());
            let rows = transport::generate(id);
            print!("{}", transport::render(&rows));
            everything.extend(rows);
        }
        dump(
            "BENCH_transport",
            &serde_json::to_string_pretty(&everything).unwrap(),
        );
    }
    if all || what == "rmw" {
        let mut everything = Vec::new();
        for id in [PlatformId::InfiniBandCluster, PlatformId::CrayXE6] {
            eprintln!("[figures] rmw: {}", id.name());
            let rows = rmw::generate(id);
            print!("{}", rmw::render(&rows));
            everything.extend(rows);
        }
        dump(
            "BENCH_rmw",
            &serde_json::to_string_pretty(&everything).unwrap(),
        );
    }
    if all || what == "pool" {
        let mut everything = Vec::new();
        for id in [PlatformId::InfiniBandCluster, PlatformId::CrayXE6] {
            eprintln!("[figures] pool: {}", id.name());
            let rows = pool::generate(id);
            print!("{}", pool::render(&rows));
            everything.extend(rows);
        }
        dump(
            "BENCH_pool",
            &serde_json::to_string_pretty(&everything).unwrap(),
        );
    }
    if all || what == "progress" {
        let mut everything = Vec::new();
        for id in [PlatformId::InfiniBandCluster, PlatformId::CrayXE6] {
            eprintln!("[figures] progress: {}", id.name());
            let rows = bench::progress::generate(id);
            print!("{}", bench::progress::render(&rows));
            everything.extend(rows);
        }
        dump(
            "BENCH_progress",
            &serde_json::to_string_pretty(&everything).unwrap(),
        );
    }
    if all || what == "workloads" {
        eprintln!("[figures] workloads: InfiniBand cluster");
        let rows = bench::workloads::generate(PlatformId::InfiniBandCluster);
        print!("{}", bench::workloads::render(&rows));
        dump(
            "BENCH_workloads",
            &serde_json::to_string_pretty(&rows).unwrap(),
        );
    }
    if all || what == "fig6" {
        let mut everything = Vec::new();
        for id in PlatformId::ALL {
            eprintln!("[figures] fig6: {}", id.name());
            let series = fig6r::generate(id);
            print!("{}", fig6r::render(&series));
            everything.extend(series);
        }
        dump("fig6", &serde_json::to_string_pretty(&everything).unwrap());
    }
    if all || what == "trace" {
        let mut violations = 0usize;
        let mut combined = Vec::new();
        for (name, cap) in [
            ("TRACE_fig3", trace::fig3_capture()),
            ("TRACE_ccsd", trace::ccsd_capture()),
        ] {
            eprintln!("[figures] {name}: {} events", cap.events.len());
            for v in cap.audit() {
                eprintln!("[figures] {name} AUDIT {v}");
                violations += 1;
            }
            dump(name, &cap.chrome_json());
            combined.extend(cap.events);
        }
        let reg = obs::metrics::Registry::from_events(&combined);
        print!("{}", reg.render());
        dump("OBS_report", &reg.to_json());
        if violations > 0 {
            eprintln!("[figures] FAILED: {violations} epoch-invariant violation(s)");
            std::process::exit(1);
        }
    }
    if all || what == "critpath" {
        let mut rows = Vec::new();
        for (workload, ranks, cap) in [
            ("fig3", 2usize, trace::fig3_capture()),
            (
                "ccsd-skewed",
                trace::CCSD_SKEWED_RANKS,
                trace::ccsd_skewed_capture(4.0),
            ),
            (
                "ccsd-skewed-agent",
                trace::CCSD_SKEWED_RANKS,
                trace::ccsd_skewed_capture_with(4.0, armci_mpi::ProgressMode::Agent),
            ),
            ("graph", trace::WORKLOAD_RANKS, trace::graph_capture()),
            ("stencil", trace::WORKLOAD_RANKS, trace::stencil_capture()),
            ("kv", trace::WORKLOAD_RANKS, trace::kv_capture()),
        ] {
            eprintln!("[figures] critpath {workload}: {} events", cap.events.len());
            println!("== {workload} ==");
            print!("{}", cap.waitstate().render());
            print!("{}", cap.critpath().render());
            rows.push(trace::critpath_row(workload, ranks, &cap));
        }
        dump(
            "OBS_critpath",
            &serde_json::to_string_pretty(&serde::Value::Array(rows)).unwrap(),
        );
    }
}
