//! Turns instances into the named metrics, the human-readable table and
//! the one-line JSON result.

use crate::harness::{Instance, Provenance, RepRecord, TraceFold, MIN_REPS, REF_NOMINAL_S};
use crate::rma::{Kind, Ladder};
use crate::stats::{median, percentile, self_time, Ratio};

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Operations attempted and failed, oracle verdicts and payload drift,
/// over every rep of a run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    payload: Option<u64>,
}

impl Tally {
    pub fn absorb(&mut self, inst: &Instance) {
        let reps = inst.warmup.iter().chain(&inst.solve).chain(&inst.traced);
        for r in reps {
            self.attempted += r.ops;
            self.failed += r.failed;
            match self.payload {
                None => self.payload = Some(r.payload),
                Some(p) if p != r.payload => {
                    self.errors.push(format!(
                        "payload digest {:#x} differs from {p:#x}",
                        r.payload
                    ));
                }
                Some(_) => {}
            }
        }
        self.errors.extend(inst.errors.iter().cloned());
    }

    pub fn absorb_ladder(&mut self, lad: &Ladder) {
        self.attempted += lad.attempted;
        self.failed += lad.failed;
        self.errors.extend(lad.errors.iter().cloned());
    }

    /// Every op counts as failed once any oracle failed.
    pub fn failed_ops(&self) -> u64 {
        if self.errors.is_empty() {
            self.failed
        } else {
            self.attempted
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }
}

fn med(xs: impl Iterator<Item = f64>) -> f64 {
    median(&xs.collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Host seconds scaled to the reference host speed: `host_s` measured
/// while the reference kernel took `ref_s`.
pub fn scaled_s(host_s: f64, ref_s: f64) -> f64 {
    host_s * Ratio::new(REF_NOMINAL_S, ref_s).value()
}

/// `host_ops_per_s`: every timed rep's ops over the host seconds of every
/// timed rep, each rep's seconds scaled to the reference host speed by
/// the reference kernel timed around it.
pub fn host_ops_per_s(reps: &[RepRecord]) -> f64 {
    let ops: u64 = reps.iter().map(|r| r.ops).sum();
    let secs = reps.iter().map(|r| scaled_s(r.host_s, r.ref_s)).sum();
    Ratio::new(ops as f64, secs).value()
}

/// The same rate, unscaled: ops over raw host seconds.
pub fn raw_ops_per_s(reps: &[RepRecord]) -> f64 {
    let ops: u64 = reps.iter().map(|r| r.ops).sum();
    Ratio::new(ops as f64, reps.iter().map(|r| r.host_s).sum()).value()
}

/// `virtual_s` is the median makespan of the first [`MIN_REPS`] reps
/// where the makespan is `deterministic`: every later rep starts at a
/// larger absolute virtual time, where the clock's float sums round
/// differently in the last bits. Where a host race decides the schedule,
/// the makespan takes a few discrete values, so it is the mean over every
/// rep: the median would jump between them from run to run.
pub fn virtual_s(reps: &[RepRecord], deterministic: bool) -> f64 {
    if deterministic {
        med(reps.iter().take(MIN_REPS).map(|r| r.makespan_s))
    } else {
        let sum = reps.iter().map(|r| r.makespan_s).sum();
        Ratio::new(sum, reps.len() as f64).value()
    }
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The traced run's per-layer metrics. Counts and virtual seconds are per
/// rep, summed over ranks; ladder metrics are zero unless `ladder` ran.
pub fn per_layer(inst: &Instance, flops_per_rep: f64, ladder: Option<&Ladder>) -> Vec<Metric> {
    let mut m = Vec::new();
    let mut put = |name, value: Option<f64>, unit| {
        m.push(Metric {
            name,
            value: value.unwrap_or(0.0),
            unit,
        })
    };

    let empty = Ladder::default();
    let lad = ladder.unwrap_or(&empty);
    let core_all: Vec<f64> = lad.core.iter().map(|s| s.1).collect();
    let core =
        |k: Kind| -> Vec<f64> { lad.core.iter().filter(|s| s.0 == k).map(|s| s.1).collect() };
    let p50 = |xs: &[f64]| percentile(xs, 0.5);
    let p99 = |xs: &[f64]| percentile(xs, 0.99);
    let n = |xs: &[f64]| Some(xs.len() as f64);
    put("mpisim.win_op_ns.p50", p50(&lad.win), "ns");
    put("mpisim.win_op_ns.p99", p99(&lad.win), "ns");
    put("mpisim.win_op_ns.n", n(&lad.win), "count");
    put("transport.op_ns.p50", p50(&lad.transport), "ns");
    put("transport.op_ns.p99", p99(&lad.transport), "ns");
    put("transport.op_ns.n", n(&lad.transport), "count");
    put("core.op_ns.p50", p50(&core_all), "ns");
    put("core.op_ns.p99", p99(&core_all), "ns");
    put("core.op_ns.n", n(&core_all), "count");
    let kinds = [
        (Kind::Put, "core.put_ns.p50", "core.put_ns.p99"),
        (Kind::Get, "core.get_ns.p50", "core.get_ns.p99"),
        (Kind::Acc, "core.acc_ns.p50", "core.acc_ns.p99"),
        (Kind::FetchAdd, "core.rmw_ns.p50", "core.rmw_ns.p99"),
    ];
    for (k, n50, n99) in kinds {
        let xs = core(k);
        put(n50, p50(&xs), "ns");
        put(n99, p99(&xs), "ns");
    }
    put("ga.op_ns.p50", p50(&lad.ga), "ns");
    put("ga.op_ns.p99", p99(&lad.ga), "ns");
    put("ga.op_ns.n", n(&lad.ga), "count");
    let (l0, l1, l2, l3) = (
        p50(&lad.win),
        p50(&lad.transport),
        p50(&core_all),
        p50(&lad.ga),
    );
    put("ladder.transport_self_ns", self_time(l1, l0), "ns");
    put("ladder.engine_self_ns", self_time(l2, l1), "ns");
    put("ladder.ga_self_ns", self_time(l3, l2), "ns");

    put(
        "driver.run_s",
        Some(med(inst.solve.iter().map(|r| r.host_s))),
        "s",
    );
    // Overhead compares scaled rep times: the two phases run a few
    // seconds apart, long enough for the host's speed to change.
    let scaled = |reps: &[RepRecord]| med(reps.iter().map(|r| scaled_s(r.host_s, r.ref_s)));
    let (untraced, traced) = (scaled(&inst.solve), scaled(&inst.traced));

    let reps = inst.traced.len().max(1) as f64;
    let c = inst.counters;
    let t: &TraceFold = &inst.trace;
    let per = |x: f64| Some(x / reps);
    let ratio = |r: Ratio| Some(r.value());
    put("engine.plans", per(c.plans), "count");
    put("engine.planned_ops", per(c.planned_ops), "count");
    put("engine.executed_ops", per(c.executed_ops), "count");
    put("engine.acquires", per(c.acquires), "count");
    put(
        "engine.epochs_per_op",
        ratio(Ratio::new(c.acquires, c.executed_ops)),
        "ratio",
    );
    put("engine.plan_s", per(c.plan_s), "s");
    put("engine.acquire_s", per(c.acquire_s), "s");
    put("engine.execute_s", per(c.execute_s), "s");
    put("engine.complete_s", per(c.complete_s), "s");
    put("sched.enqueued", per(c.sched_enqueued), "count");
    put("sched.runs", per(c.sched_runs), "count");
    put("sched.segs_out", per(c.sched_segs_out), "count");
    put(
        "sched.ops_per_run",
        ratio(Ratio::new(c.sched_enqueued, c.sched_runs)),
        "ratio",
    );
    put(
        "sched.segs_in_per_out",
        ratio(Ratio::new(c.sched_segs_in, c.sched_segs_out)),
        "ratio",
    );
    let lookups = c.dtype_hits + c.dtype_misses;
    put("dtype.hits", per(c.dtype_hits), "count");
    put("dtype.misses", per(c.dtype_misses), "count");
    put("dtype.lookups", per(lookups), "count");
    put(
        "dtype.hit_rate",
        ratio(Ratio::new(c.dtype_hits, lookups)),
        "ratio",
    );
    let takes = c.pool_hits + c.pool_misses;
    put("pool.takes", per(takes), "count");
    put(
        "pool.hit_rate",
        ratio(Ratio::new(c.pool_hits, takes)),
        "ratio",
    );
    put("pool.reg_s", per(c.pool_reg_s), "s");
    put("rmw.native_ops", per(c.rmw_native), "count");
    put("rmw.cas_retries", per(c.cas_retries), "count");
    put("mutex.waits", per(t.counter("mutex.waits")), "count");
    put("shm.hits", per(c.shm_hits), "count");
    put(
        "shm.hit_rate",
        ratio(Ratio::new(c.shm_hits, c.planned_ops)),
        "ratio",
    );
    put("shm.bypass_bytes", per(c.shm_bypass_bytes), "B");
    put("transport.offload_ops", per(c.offloaded), "count");
    put("transport.fallback_ops", per(c.fallback), "count");
    let rma_bytes = c.bytes_put + c.bytes_got + c.bytes_acc;
    put("rma.bytes_put", per(c.bytes_put), "B");
    put("rma.bytes_got", per(c.bytes_got), "B");
    put("rma.bytes_acc", per(c.bytes_acc), "B");
    put("rma.bytes_total", per(rma_bytes), "B");
    put("wait.progress_s", per(t.time("progress.stall_s")), "s");
    put("wait.straggler_s", per(t.time("progress.straggler_s")), "s");
    put("wait.lock_s", per(t.wait("lock")), "s");
    put("wait.cas_retry_s", per(t.wait("cas_retry")), "s");
    put("wait.win_sync_s", per(t.wait("win_sync")), "s");
    put("kernel.flops", Some(flops_per_rep), "flop");
    put(
        "kernel.flops_per_rma_byte",
        ratio(Ratio::new(flops_per_rep * reps, rma_bytes)),
        "flop/B",
    );
    put(
        "obs.trace_overhead_pct",
        ratio(Ratio::new(100.0 * (traced - untraced), untraced)),
        "%",
    );
    put("obs.events", per(t.events as f64), "count");
    m
}

/// Prints the table, then the JSON result as the last line.
pub fn print(
    workload: &str,
    seed: u64,
    prov: &Provenance,
    notes: &[String],
    tally: &Tally,
    metrics: &[Metric],
) {
    println!(
        "workload {workload}  seed {seed}  transport {}  atomics {}  progress {}  ranks_per_node {}",
        prov.transport, prov.atomics, prov.progress, prov.ranks_per_node
    );
    for n in notes {
        println!("  {n}");
    }
    for e in &tally.errors {
        println!("ORACLE FAILURE: {e}");
    }
    for m in metrics {
        println!("  {:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let failed = tally.failed_ops();
    println!(
        "  {:<28} {:>18.6} ratio ({failed} of {} ops failed)",
        "error_rate",
        Ratio::new(failed as f64, tally.attempted as f64).value(),
        tally.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted.max(1),
        body.join(", ")
    );
}
