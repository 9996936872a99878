//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures [table2|fig3|fig4|fig5|fig6|pipeline|pool|coalesce|shm|transport|rmw|
//!          progress|workloads|trace|critpath|all] [--json DIR]
//! figures check DIR
//! ```
//!
//! Text goes to stdout; with `--json DIR`, machine-readable data is also
//! written to `DIR/<artifact>.json`. `check` validates the JSON artifacts
//! in `DIR` (see `bench::check`: one row schema, provenance, acceptance
//! gates) and exits nonzero on any problem.

#![forbid(unsafe_code)]

use bench::{fig3, fig4, fig5, fig6r, table2, trace};
use simnet::PlatformId;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("check") {
        let dir = args.get(1).cloned().unwrap_or_else(|| "results".into());
        let problems = bench::check::check_dir(&dir);
        for p in &problems {
            eprintln!("[figures check] {p}");
        }
        if !problems.is_empty() {
            eprintln!("[figures check] FAILED: {} problem(s)", problems.len());
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
    for artifact in bench::ARTIFACTS {
        if !(all || what == artifact.name) {
            continue;
        }
        let mut json = Vec::new();
        for &id in artifact.platforms {
            eprintln!("[figures] {}: {}", artifact.name, id.name());
            let table = (artifact.table)(id);
            print!("{}", table.render());
            json.extend(table.json());
        }
        dump(
            &artifact.file(),
            &serde_json::to_string_pretty(&serde::Value::Array(json)).unwrap(),
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
