//! Observability CLI over the instrumented runtime.
//!
//! ```text
//! obs trace [WORKLOAD] [--out PATH] [--jsonl] [--skew X]
//! obs report [WORKLOAD|all] [--progress none|agent]
//! obs audit [WORKLOAD]
//! obs critpath [WORKLOAD] [--skew X] [--progress none|agent] [--out PATH]
//! obs overhead [REPS] [--assert-ns N]
//! ```
//!
//! `WORKLOAD` is one of `fig3`, `ccsd`, `ccsd-coalesced`, `ccsd-skewed`,
//! or the workload-suite drivers `graph`, `stencil` and `kv`
//! (`obs critpath graph` answers "where does the skewed BFS wait?").
//!
//! `trace` captures the named workload with the recorder enabled and
//! writes Chrome-trace JSON (open in `chrome://tracing` or Perfetto) —
//! or one event per line with `--jsonl` — to `--out` (default stdout).
//! `report` prints the one-screen folded metrics summary. `audit`
//! replays the trace through the epoch-invariant auditor and exits
//! nonzero if any illegal interleaving is found. `critpath` runs the
//! wait-state attributor and critical-path walker over the capture,
//! prints both summaries, and with `--out` writes the flat JSON row the
//! `OBS_critpath` artifact carries; with the recorder compiled out
//! (`--features obs/off`) it reports "no events" and exits zero.
//! `overhead` times a contiguous put/get loop for A/B against a
//! `--features obs/off` build of this same binary; `--assert-ns N`
//! instead times 15 interleaved recorder-on/recorder-off pairs in this
//! binary and fails if the lower quartile of the pairs' per-op deltas
//! exceeds `N` nanoseconds. The deterministic part of the budget (events
//! per op, allocations per event) is gated exactly by the `bench` test
//! `recorder_budget`.
//!
//! `--progress` selects the async-progress discipline for the
//! `ccsd-skewed` workload (default `none`): run `critpath ccsd-skewed`
//! once per arm to see the straggler's share of the attributed waits
//! collapse when the per-node agent drains passive-target rounds.

#![forbid(unsafe_code)]

use armci_mpi::ProgressMode;
use bench::trace::{self, Capture};

/// On/off pairs the `overhead --assert-ns` gate times.
const OVERHEAD_PAIRS: usize = 15;

fn capture_named(name: &str, skew: f64, progress: ProgressMode) -> Capture {
    match name {
        "fig3" => trace::fig3_capture(),
        "ccsd" => trace::ccsd_capture(),
        "ccsd-coalesced" => trace::ccsd_coalesced_capture(),
        "ccsd-skewed" => trace::ccsd_skewed_capture_with(skew, progress),
        "graph" => trace::graph_capture(),
        "stencil" => trace::stencil_capture(),
        "kv" => trace::kv_capture(),
        other => {
            eprintln!(
                "[obs] unknown workload `{other}` \
                 (want fig3, ccsd, ccsd-coalesced, ccsd-skewed, graph, stencil or kv)"
            );
            std::process::exit(2);
        }
    }
}

fn ranks_of(name: &str) -> usize {
    match name {
        "ccsd-skewed" => trace::CCSD_SKEWED_RANKS,
        "graph" | "stencil" | "kv" => trace::WORKLOAD_RANKS,
        _ => 2,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("report");
    let mut workload = "fig3".to_string();
    let mut out: Option<String> = None;
    let mut jsonl = false;
    let mut skew = 4.0f64;
    let mut progress = ProgressMode::None;
    let mut assert_ns: Option<f64> = None;
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(it.next().expect("--out needs a path").clone()),
            "--jsonl" => jsonl = true,
            "--progress" => {
                progress = match it.next().expect("--progress needs a mode").as_str() {
                    "none" => ProgressMode::None,
                    "agent" => ProgressMode::Agent,
                    other => {
                        eprintln!("[obs] unknown progress mode `{other}` (want none or agent)");
                        std::process::exit(2);
                    }
                }
            }
            "--skew" => {
                skew = it
                    .next()
                    .expect("--skew needs a factor")
                    .parse()
                    .expect("--skew wants a number")
            }
            "--assert-ns" => {
                assert_ns = Some(
                    it.next()
                        .expect("--assert-ns needs a bound")
                        .parse()
                        .expect("--assert-ns wants a number"),
                )
            }
            other => workload = other.to_string(),
        }
    }
    match cmd {
        "trace" => {
            let cap = capture_named(&workload, skew, progress);
            let text = if jsonl {
                obs::chrome::to_jsonl(&cap.events)
            } else {
                cap.chrome_json()
            };
            match &out {
                Some(path) => {
                    if let Some(dir) = std::path::Path::new(path).parent() {
                        let _ = std::fs::create_dir_all(dir);
                    }
                    std::fs::write(path, &text).expect("write trace");
                    eprintln!("[obs] {} events -> {path}", cap.events.len());
                }
                None => print!("{text}"),
            }
        }
        "report" => {
            let caps = if workload == "all" {
                vec![trace::fig3_capture(), trace::ccsd_capture()]
            } else {
                vec![capture_named(&workload, skew, progress)]
            };
            let events: Vec<obs::Event> = caps.into_iter().flat_map(|c| c.events).collect();
            print!("{}", obs::metrics::Registry::from_events(&events).render());
        }
        "critpath" => {
            let cap = capture_named(&workload, skew, progress);
            if cap.events.is_empty() {
                // The obs/off build records nothing; the analyzers have
                // nothing to say, which is not an error.
                println!("[obs critpath] {workload}: no events (recorder off)");
                return;
            }
            print!("{}", cap.waitstate().render());
            print!("{}", cap.critpath().render());
            if let Some(path) = &out {
                if let Some(dir) = std::path::Path::new(path).parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                let row = trace::critpath_row(&workload, ranks_of(&workload), &cap);
                let text = serde_json::to_string_pretty(&serde::Value::Array(vec![row])).unwrap();
                std::fs::write(path, text).expect("write critpath row");
                eprintln!("[obs critpath] row -> {path}");
            }
        }
        "audit" => {
            let cap = capture_named(&workload, skew, progress);
            let violations = cap.audit();
            for v in &violations {
                eprintln!("[obs audit] {v}");
            }
            if violations.is_empty() {
                eprintln!(
                    "[obs audit] {workload}: clean ({} events)",
                    cap.events.len()
                );
            } else {
                eprintln!("[obs audit] FAILED: {} violation(s)", violations.len());
                std::process::exit(1);
            }
        }
        "overhead" => {
            let reps: usize = workload.parse().unwrap_or(200);
            match assert_ns {
                None => {
                    let dt = trace::contig_overhead(reps);
                    println!(
                        "contig put/get x{reps}: {:.1} ms (recorder {})",
                        dt.as_secs_f64() * 1e3,
                        if obs::COMPILED_IN {
                            "recording"
                        } else {
                            "compiled out"
                        }
                    );
                }
                Some(bound) => {
                    // Interleaved on/off pairs; the gate reads the lower
                    // quartile of the per-op deltas, so it fails only when
                    // most pairs, not one noisy round, exceed the budget.
                    let deltas = trace::overhead_pairs_ns(reps, OVERHEAD_PAIRS);
                    let (q1, median) = (deltas[OVERHEAD_PAIRS / 4], deltas[OVERHEAD_PAIRS / 2]);
                    println!(
                        "recorder overhead: lower quartile {q1:.1} ns/op, median {median:.1} ns/op \
                         ({OVERHEAD_PAIRS} on/off pairs of {reps} reps, bound {bound} ns)"
                    );
                    if q1 > bound {
                        eprintln!("[obs overhead] FAILED: {q1:.1} ns/op > {bound} ns/op");
                        std::process::exit(1);
                    }
                }
            }
        }
        other => {
            eprintln!(
                "[obs] unknown command `{other}` \
                 (want trace, report, audit, critpath or overhead)"
            );
            std::process::exit(2);
        }
    }
}
