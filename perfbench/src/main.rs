//! The repository benchmark: four closed-loop workloads on two rank
//! threads, each checked by its oracle after every rep.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with the recorder
//! compiled in but idle. `--trace 1` prints the per-layer metrics of a
//! separate traced run. The last line of stdout is the JSON result.

mod drivers;
mod harness;
mod report;
mod rma;
mod stats;

use drivers::{CcsdPipelined, KvShm, StencilHalo};
use harness::{run_instance, Plan, Workload, REF_NOMINAL_S};
use nwchem_proxy::CcsdConfig;
use report::{Metric, Tally};
use rma::RmaContig;
use std::process::ExitCode;
use std::time::Duration;

/// Instances per run whose set-up time is measured; `setup_s` is their
/// median.
const SETUPS: usize = 11;

const WORKLOADS: [&str; 4] = ["rma-contig", "stencil-halo", "ccsd-pipelined", "kv-shm"];

const USAGE: &str =
    "usage: perfbench --workload <rma-contig|stencil-halo|ccsd-pipelined|kv-shm|all> \
     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Problem sizes. `full` is what the benchmark measures; `tiny` is the
/// smoke-test size.
#[derive(Debug, Clone, Copy)]
struct Size {
    rma_ops: usize,
    stencil: (usize, usize, usize),
    ccsd: CcsdConfig,
    kv_ops: usize,
}

const FULL: Size = Size {
    rma_ops: 4000,
    stencil: (256, 256, 4),
    ccsd: CcsdConfig {
        no: 8,
        nv: 16,
        tile_o: 2,
        tile_v: 4,
        iterations: 2,
    },
    kv_ops: 8000,
};

/// The measured run of one workload: its metrics, verdicts and
/// provenance.
struct Outcome {
    tally: Tally,
    metrics: Vec<Metric>,
    prov: harness::Provenance,
    /// Context lines printed above the metrics.
    notes: Vec<String>,
}

/// `SETUPS - 1` set-up-only instances, then one instance that also runs
/// the solve phase until the deadline. Each set-up time is scaled to the
/// reference host speed by the kernel timed right after that set-up.
fn end_to_end<W: Workload>(w: &W, seconds: u64) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let inst = run_instance(w, Plan::Setup)?;
        setups.push(report::scaled_s(inst.setup_s, inst.setup_ref_s));
        tally.absorb(&inst);
    }
    let inst = run_instance(w, Plan::Solve(Duration::from_secs(seconds)))?;
    setups.push(report::scaled_s(inst.setup_s, inst.setup_ref_s));
    tally.absorb(&inst);
    let metrics = vec![
        Metric {
            name: "host_ops_per_s",
            value: report::host_ops_per_s(&inst.solve),
            unit: "1/s",
        },
        Metric {
            name: "virtual_s",
            value: report::virtual_s(&inst.solve, w.deterministic_virtual()),
            unit: "s",
        },
        Metric {
            name: "setup_s",
            value: stats::median(&setups).unwrap_or(0.0),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mib",
            value: inst.peak_rss_mib.ok_or("could not read the peak RSS")?,
            unit: "MiB",
        },
    ];
    let speed = stats::median(
        &inst
            .solve
            .iter()
            .map(|r| REF_NOMINAL_S / r.ref_s)
            .collect::<Vec<_>>(),
    );
    let notes = vec![format!(
        "{} solve reps; unscaled {:.1} ops per host second; host ran at {:.3}x the reference speed",
        inst.solve.len(),
        report::raw_ops_per_s(&inst.solve),
        speed.unwrap_or(0.0)
    )];
    Ok(Outcome {
        tally,
        metrics,
        prov: inst.provenance,
        notes,
    })
}

/// The traced run: untraced reps for a third of the time, the same
/// number of reps with the recorder armed, then (for `rma-contig`) the
/// ladder. Traced payloads and makespans must equal the untraced ones.
fn traced<W: Workload>(
    w: &W,
    seconds: u64,
    ladder: Option<&dyn Fn() -> rma::Ladder>,
) -> Result<Outcome, String> {
    let _recorder = obs::test_guard();
    let inst = run_instance(
        w,
        Plan::Trace(Duration::from_secs_f64(seconds as f64 / 3.0)),
    )?;
    let mut tally = Tally::default();
    tally.absorb(&inst);
    let exact = w.deterministic_virtual();
    let (plain, armed) = (
        report::virtual_s(&inst.solve, exact),
        report::virtual_s(&inst.traced, exact),
    );
    // The traced reps start later in virtual time than the untraced ones,
    // so their makespans may differ in the last bits; nothing more.
    if exact && (armed - plain).abs() > 1e-9 * plain.abs() {
        tally.errors.push(format!(
            "traced virtual_s {armed:e} differs from untraced {plain:e}"
        ));
    }
    let lad = ladder.map(|f| f());
    if let Some(l) = &lad {
        tally.absorb_ladder(l);
    }
    Ok(Outcome {
        tally,
        metrics: report::per_layer(&inst, w.flops_per_rep(), lad.as_ref()),
        prov: inst.provenance,
        notes: vec![format!(
            "{} untraced and {} traced reps",
            inst.solve.len(),
            inst.traced.len()
        )],
    })
}

fn measure<W: Workload>(
    w: &W,
    args: &Args,
    ladder: Option<&dyn Fn() -> rma::Ladder>,
) -> Result<Outcome, String> {
    if args.trace {
        traced(w, args.seconds, ladder)
    } else {
        end_to_end(w, args.seconds)
    }
}

fn run_one(args: &Args, size: Size) -> Result<Outcome, String> {
    let seed = args.seed;
    match args.workload.as_str() {
        "rma-contig" => {
            let w = RmaContig::new(seed, size.rma_ops);
            measure(&w, args, Some(&|| w.ladder()))
        }
        "stencil-halo" => {
            let (rows, cols, iters) = size.stencil;
            measure(&StencilHalo::new(seed, rows, cols, iters), args, None)
        }
        "ccsd-pipelined" => measure(&CcsdPipelined::new(size.ccsd), args, None),
        "kv-shm" => measure(&KvShm::new(seed, size.kv_ops), args, None),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Runs every workload in its own child process (so `peak_rss_mib` is
/// per workload), streaming each one's report.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for name in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match run_one(&args, FULL) {
        Ok(o) => {
            report::print(
                &args.workload,
                args.seed,
                &o.prov,
                &o.notes,
                &o.tally,
                &o.metrics,
            );
            if o.tally.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Size = Size {
        rma_ops: 64,
        stencil: (8, 8, 2),
        ccsd: CcsdConfig {
            no: 4,
            nv: 8,
            tile_o: 2,
            tile_v: 4,
            iterations: 1,
        },
        kv_ops: 32,
    };

    fn smoke(workload: &str, trace: bool) {
        // The recorder is process-global: keep untraced runs out of a
        // concurrent test's traced phase (`traced` takes this itself).
        let _idle = (!trace).then(obs::test_guard);
        let args = Args {
            workload: workload.into(),
            seed: 7,
            seconds: 0,
            trace,
        };
        let o = run_one(&args, TINY).expect("the run starts");
        assert!(o.tally.correct(), "{workload}: {:?}", o.tally.errors);
        assert!(o.metrics.iter().all(|m| m.value.is_finite()));
    }

    #[test]
    fn every_workload_passes_its_oracle_at_tiny_size() {
        for w in WORKLOADS {
            smoke(w, false);
        }
    }

    #[test]
    fn traced_runs_match_untraced_at_tiny_size() {
        for w in WORKLOADS {
            smoke(w, true);
        }
    }

    #[test]
    fn cli_rejects_unknown_workloads_and_flags() {
        let args = |v: &[&str]| parse(v.iter().map(|s| s.to_string()));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "kv-shm", "--bogus", "1"]).is_err());
        let a = args(&["--workload", "kv-shm", "--seed", "3", "--trace", "1"]).unwrap();
        assert_eq!((a.seed, a.trace), (3, true));
    }
}
