//! The closed loop every workload runs through.
//!
//! One *instance* spawns the two rank threads, builds `ArmciMpi` with the
//! default `Config`, lets the workload allocate, and runs one warm-up rep:
//! that is set-up, timed from before the spawn. The solve phase then runs
//! back-to-back reps. Each rep starts after a barrier, and rank 0 times
//! the rep on the host clock. Every rank reports the virtual seconds it
//! spent in the rep. After the rep, rank 0 runs the workload's oracle on
//! all ranks' outputs, outside the timed window.

use crate::stats::Digest;
use armci_mpi::{ArmciMpi, Config};
use mpisim::{Proc, Runtime, RuntimeConfig};
use std::collections::BTreeMap;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Rank threads per instance, one per core of the two-core host the
/// benchmark targets.
pub const RANKS: usize = 2;

/// Solve reps run even past the deadline. Where the makespan is
/// deterministic, `virtual_s` is the median of exactly these first reps,
/// so it does not depend on how many reps the host fits into the deadline.
pub const MIN_REPS: usize = 9;

/// What one rank did in one rep.
pub struct Rep<O> {
    /// ARMCI/GA calls this rank issued.
    pub ops: u64,
    /// Calls that returned `Err`.
    pub failed: u64,
    /// Virtual seconds this rank spent in the rep.
    pub virtual_s: f64,
    /// Output for the oracle.
    pub out: O,
}

/// A workload: per-rank state, one rep, and the oracle over all ranks.
pub trait Workload: Sync {
    /// Per-rank state built once per instance (allocations).
    type State;
    /// Per-rank output of one rep.
    type Out: Send;

    /// Runtime configuration (platform and rank placement).
    fn runtime(&self) -> RuntimeConfig;
    /// Allocates this rank's state (collective; part of set-up).
    fn prepare(&self, p: &Proc, rt: &ArmciMpi) -> Self::State;
    /// Untimed, before the barrier that starts a rep.
    fn reset(&self, _p: &Proc, _rt: &ArmciMpi, _st: &mut Self::State) {}
    /// The timed rep.
    fn rep(&self, p: &Proc, rt: &ArmciMpi, st: &mut Self::State) -> Rep<Self::Out>;
    /// Untimed, right after the rep (readback for the oracle).
    fn finish(&self, _p: &Proc, _rt: &ArmciMpi, _st: &mut Self::State, _out: &mut Self::Out) {}
    /// The oracle over every rank's output of one rep.
    fn check(&self, outs: &[Self::Out]) -> Result<(), String>;
    /// Digest of the outputs that must not change from rep to rep.
    fn payload(&self, outs: &[Self::Out]) -> u64;
    /// Whether the modelled makespan repeats exactly from rep to rep.
    /// False where host thread races decide the schedule (NXTVAL).
    fn deterministic_virtual(&self) -> bool {
        true
    }
    /// Kernel floating-point operations per rep, from the problem size.
    fn flops_per_rep(&self) -> f64 {
        0.0
    }
}

/// One rep as rank 0 records it.
#[derive(Debug, Clone, Copy)]
pub struct RepRecord {
    pub host_s: f64,
    /// [`reference_kernel`] seconds around the rep, averaged over ranks
    /// (0 for the warm-up rep, which is not calibrated).
    pub ref_s: f64,
    pub ops: u64,
    pub failed: u64,
    /// Max over ranks of the rep's virtual seconds.
    pub makespan_s: f64,
    pub payload: u64,
}

/// What one instance runs after set-up.
#[derive(Debug, Clone, Copy)]
pub enum Plan {
    /// Set-up only: the instance ends after the warm-up rep.
    Setup,
    /// Reps until the deadline.
    Solve(Duration),
    /// Untraced reps until the deadline, then as many reps again with the
    /// recorder armed.
    Trace(Duration),
}

/// Resolved runtime provenance, stamped on every result.
#[derive(Debug, Clone, Default)]
pub struct Provenance {
    pub transport: &'static str,
    pub atomics: &'static str,
    pub progress: &'static str,
    pub ranks_per_node: usize,
}

/// Public layer counters read before and after the traced phase.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// A snapshot of the counters `ArmciMpi` exposes (`stats`,
        /// `stage_stats`, `pool_stats`, `transport_stats`), as floats so
        /// deltas and cross-rank sums are one field-wise operation.
        #[derive(Debug, Default, Clone, Copy, PartialEq)]
        pub struct Counters { $(pub $field: f64),* }

        impl Counters {
            pub fn minus(&self, o: &Counters) -> Counters {
                Counters { $($field: self.$field - o.$field),* }
            }

            pub fn plus(&self, o: &Counters) -> Counters {
                Counters { $($field: self.$field + o.$field),* }
            }
        }
    };
}

counters!(
    plans,
    planned_ops,
    acquires,
    executed_ops,
    plan_s,
    acquire_s,
    execute_s,
    complete_s,
    sched_enqueued,
    sched_runs,
    sched_segs_in,
    sched_segs_out,
    dtype_hits,
    dtype_misses,
    shm_hits,
    shm_bypass_bytes,
    pool_hits,
    pool_misses,
    pool_reg_s,
    rmw_native,
    cas_retries,
    offloaded,
    fallback,
    bytes_put,
    bytes_got,
    bytes_acc,
);

impl Counters {
    pub fn snapshot(rt: &ArmciMpi) -> Counters {
        let g = rt.stage_stats();
        let s = rt.stats();
        let pool = rt.pool_stats();
        let tx = rt.transport_stats();
        Counters {
            plans: g.plans as f64,
            planned_ops: g.planned_ops as f64,
            acquires: g.acquires as f64,
            executed_ops: g.executed_ops as f64,
            plan_s: g.plan_s,
            acquire_s: g.acquire_s,
            execute_s: g.execute_s,
            complete_s: g.complete_s,
            sched_enqueued: g.sched_enqueued as f64,
            sched_runs: g.sched_runs as f64,
            sched_segs_in: g.sched_segs_in as f64,
            sched_segs_out: g.sched_segs_out as f64,
            dtype_hits: g.dtype_hits as f64,
            dtype_misses: g.dtype_misses as f64,
            shm_hits: g.shm_hits as f64,
            shm_bypass_bytes: g.shm_bypass_bytes as f64,
            pool_hits: pool.hits as f64,
            pool_misses: pool.misses as f64,
            pool_reg_s: pool.reg_cost_s,
            rmw_native: s.rmw_native as f64,
            cas_retries: s.cas_retries as f64,
            offloaded: tx.offloaded as f64,
            fallback: tx.fallback as f64,
            bytes_put: s.bytes_put as f64,
            bytes_got: s.bytes_got as f64,
            bytes_acc: s.bytes_acc as f64,
        }
    }
}

/// The recorder's events folded rep by rep: registry counters and times,
/// and waitstate category seconds, summed over ranks and reps.
#[derive(Debug, Default, Clone)]
pub struct TraceFold {
    pub counters: BTreeMap<String, u64>,
    pub times: BTreeMap<String, f64>,
    pub waits: BTreeMap<&'static str, f64>,
    pub events: u64,
}

impl TraceFold {
    fn add(&mut self, events: &[obs::Event]) {
        let reg = obs::metrics::Registry::from_events(events);
        for (k, v) in reg.counters {
            *self.counters.entry(k).or_default() += v;
        }
        for (k, v) in reg.times {
            *self.times.entry(k).or_default() += v;
        }
        for (k, v) in obs::waitstate::analyze(events).cat_s {
            *self.waits.entry(k).or_default() += v;
        }
        self.events += events.len() as u64;
    }

    pub fn counter(&self, key: &str) -> f64 {
        self.counters.get(key).copied().unwrap_or(0) as f64
    }

    pub fn time(&self, key: &str) -> f64 {
        self.times.get(key).copied().unwrap_or(0.0)
    }

    pub fn wait(&self, cat: &str) -> f64 {
        self.waits.get(cat).copied().unwrap_or(0.0)
    }
}

/// Everything one instance produced (rank 0's records, all ranks'
/// counters).
#[derive(Debug, Default)]
pub struct Instance {
    pub setup_s: f64,
    /// [`reference_kernel`] seconds right after set-up.
    pub setup_ref_s: f64,
    pub warmup: Option<RepRecord>,
    pub solve: Vec<RepRecord>,
    pub traced: Vec<RepRecord>,
    /// Oracle failures, one line each.
    pub errors: Vec<String>,
    /// Counter deltas over the traced phase, summed over ranks.
    pub counters: Counters,
    pub trace: TraceFold,
    pub provenance: Provenance,
    /// The process's peak resident set once [`MIN_REPS`] solve reps are
    /// done: a fixed amount of work, so the figure does not depend on how
    /// many reps the host fits into the deadline (the runtime keeps a
    /// small record per collective).
    pub peak_rss_mib: Option<f64>,
}

/// Refuses to measure anything but the faithful program: semantic checks
/// and virtual-time charging on, the recorder compiled in but idle, and
/// no more rank threads than host cores.
pub fn guard(cfg: &RuntimeConfig) -> Result<(), String> {
    if !cfg.semantic_checks || !cfg.charge_time {
        return Err("semantic checks and time charging must both be on".into());
    }
    if !obs::COMPILED_IN {
        return Err("the recorder must be compiled in (obs/off is set)".into());
    }
    if obs::enabled() {
        return Err("the recorder must be idle outside the traced phase".into());
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if RANKS > cores {
        return Err(format!(
            "{RANKS} rank threads need {RANKS} cores, host has {cores}"
        ));
    }
    Ok(())
}

/// Runs one instance of `w` under `plan`.
pub fn run_instance<W: Workload>(w: &W, plan: Plan) -> Result<Instance, String> {
    let cfg = w.runtime();
    guard(&cfg)?;
    let shared = Shared {
        slots: Mutex::new((0..RANKS).map(|_| None).collect()),
        sync: Barrier::new(RANKS),
    };
    let t_spawn = Instant::now();
    let per_rank = Runtime::run_with(RANKS, cfg, |p| rank_main(w, p, plan, t_spawn, &shared));
    let mut inst = Instance::default();
    for (rank, r) in per_rank.into_iter().enumerate() {
        inst.counters = inst.counters.plus(&r.counters);
        if rank == 0 {
            let counters = inst.counters;
            inst = r.log.expect("rank 0 keeps the log");
            inst.counters = counters;
        }
    }
    Ok(inst)
}

/// Host seconds [`reference_kernel`] takes at the host speed the bounds
/// were set at. Host metrics are scaled to it: a run on a host that is
/// momentarily 30% slower reads the same as one on a fast host.
pub const REF_NOMINAL_S: f64 = 6e-4;

/// A fixed slice of host work shaped like the simulator's own, run by
/// both rank threads at once: small allocations, copies, hashing,
/// ordered-map updates and float math, in rounds that end at a barrier
/// between the two threads. Timed beside every rep, it measures how fast
/// the host runs right now, cross-core wake-ups included: a shared
/// two-vCPU Xeon virtual machine was seen to drift by up to half its
/// speed over minutes. It uses no code of the stack, so a change to the
/// program does not move it. Returns the host seconds it took, counted
/// from a first barrier, so work one thread finished late (rank 0's
/// oracle, say) does not count as the other thread's.
pub fn reference_kernel(sync: &Barrier) -> f64 {
    sync.wait();
    let t0 = Instant::now();
    let mut h = Digest::default();
    let mut acc = 0.0f64;
    let mut map = BTreeMap::new();
    for round in 0..32usize {
        for i in round * 64..(round + 1) * 64 {
            let v: Vec<u8> = (0..(i % 64) * 16).map(|b| b as u8).collect();
            h = h.bytes(&v);
            acc += (i as f64).sqrt();
            map.insert(i % 97, acc);
        }
        sync.wait();
    }
    std::hint::black_box((h, acc, map.len()));
    t0.elapsed().as_secs_f64()
}

/// One rank's rep and the reference-kernel seconds measured around it.
type Deposit<O> = (Rep<O>, f64);

/// What the rank threads of one instance share besides the runtime.
struct Shared<O> {
    /// Each rank's latest rep, collected by rank 0.
    slots: Mutex<Vec<Option<Deposit<O>>>>,
    /// The reference kernel's rendezvous.
    sync: Barrier,
}

struct RankResult {
    counters: Counters,
    log: Option<Instance>,
}

/// One rep on this rank: reset, the reference kernel, start barrier, the
/// timed rep, readback, the reference kernel again, then an exchange so
/// rank 0 holds every rank's output. The warm-up rep skips the kernel
/// (`calibrate` false), so set-up time does not include it.
fn step<W: Workload>(
    w: &W,
    p: &Proc,
    rt: &ArmciMpi,
    st: &mut W::State,
    sh: &Shared<W::Out>,
    calibrate: bool,
) -> Option<(f64, Vec<Deposit<W::Out>>)> {
    let world = p.world();
    let kernel = || {
        if calibrate {
            reference_kernel(&sh.sync)
        } else {
            0.0
        }
    };
    w.reset(p, rt, st);
    let before = kernel();
    world.barrier();
    let t0 = Instant::now();
    let mut rep = w.rep(p, rt, st);
    let host_s = t0.elapsed().as_secs_f64();
    w.finish(p, rt, st, &mut rep.out);
    let ref_s = (before + kernel()) / 2.0;
    if obs::enabled() {
        obs::flush_thread();
    }
    sh.slots.lock().expect("no rank panicked holding the slots")[p.rank()] = Some((rep, ref_s));
    world.barrier();
    (p.rank() == 0).then(|| {
        let reps = sh
            .slots
            .lock()
            .expect("no rank panicked holding the slots")
            .iter_mut()
            .map(|s| s.take().expect("every rank deposited its rep"))
            .collect();
        (host_s, reps)
    })
}

/// Rank 0's side of a finished rep: the record, plus the oracle verdict.
fn gate<W: Workload>(
    w: &W,
    host_s: f64,
    reps: Vec<Deposit<W::Out>>,
    log: &mut Instance,
) -> RepRecord {
    let ops = reps.iter().map(|r| r.0.ops).sum();
    let failed = reps.iter().map(|r| r.0.failed).sum();
    let makespan_s = reps.iter().map(|r| r.0.virtual_s).fold(0.0, f64::max);
    let ref_s = reps.iter().map(|r| r.1).sum::<f64>() / reps.len() as f64;
    let outs: Vec<W::Out> = reps.into_iter().map(|r| r.0.out).collect();
    if let Err(e) = w.check(&outs) {
        log.errors.push(e);
    }
    RepRecord {
        host_s,
        ref_s,
        ops,
        failed,
        makespan_s,
        payload: w.payload(&outs),
    }
}

fn rank_main<W: Workload>(
    w: &W,
    p: &Proc,
    plan: Plan,
    t_spawn: Instant,
    sh: &Shared<W::Out>,
) -> RankResult {
    let world = p.world();
    let rt = ArmciMpi::with_config(p, Config::default());
    let mut st = w.prepare(p, &rt);
    let warm = step(w, p, &rt, &mut st, sh, false);
    let setup_s = t_spawn.elapsed().as_secs_f64();
    let setup_ref_s = reference_kernel(&sh.sync);
    let mut log = (p.rank() == 0).then(|| Instance {
        setup_s,
        setup_ref_s,
        provenance: Provenance {
            transport: rt.transport_name(),
            atomics: rt.atomics_mode_name(),
            progress: rt.progress_mode_name(),
            ranks_per_node: (0..RANKS)
                .filter(|&r| p.config().platform.same_node(r, 0))
                .count(),
        },
        ..Instance::default()
    });
    if let (Some(log), Some((host_s, reps))) = (log.as_mut(), warm) {
        log.warmup = Some(gate(w, host_s, reps, log));
    }

    let mut counters = Counters::default();
    let deadline = match plan {
        Plan::Setup => None,
        Plan::Solve(d) | Plan::Trace(d) => Some(d),
    };
    if let Some(d) = deadline {
        let t0 = Instant::now();
        loop {
            // At least MIN_REPS reps, however short the deadline.
            let more = log
                .as_ref()
                .map(|l| u64::from(l.solve.len() < MIN_REPS || t0.elapsed() < d));
            if world.bcast_u64(0, more) == 0 {
                break;
            }
            if let (Some(log), Some((host_s, reps))) =
                (log.as_mut(), step(w, p, &rt, &mut st, sh, true))
            {
                let rec = gate(w, host_s, reps, log);
                log.solve.push(rec);
                if log.solve.len() == MIN_REPS {
                    log.peak_rss_mib = crate::report::peak_rss_mib().ok();
                }
            }
        }
    }
    if let Plan::Trace(_) = plan {
        let n = world.bcast_u64(0, log.as_ref().map(|l| l.solve.len() as u64));
        if p.rank() == 0 {
            obs::clear();
            obs::enable();
        }
        world.barrier();
        obs::set_rank(p.rank());
        let before = Counters::snapshot(&rt);
        for _ in 0..n {
            if let (Some(log), Some((host_s, reps))) =
                (log.as_mut(), step(w, p, &rt, &mut st, sh, true))
            {
                log.trace.add(&obs::take());
                let rec = gate(w, host_s, reps, log);
                log.traced.push(rec);
            }
        }
        counters = Counters::snapshot(&rt).minus(&before);
        world.barrier();
        if p.rank() == 0 {
            obs::disable();
            obs::clear();
        }
    }
    world.barrier();
    RankResult { counters, log }
}
