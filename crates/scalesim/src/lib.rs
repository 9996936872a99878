//! Discrete-event simulator for large-scale NWChem proxy runs (Figure 6).
//!
//! The thread-per-rank runtime cannot reach the paper's 744–12,288 cores,
//! so the scaling study replays the proxy's task stream in an event-driven
//! model: `P` logical processes repeatedly claim tickets from the shared
//! **NXTVAL counter** (a serial server at the hosting process — the
//! classic GA bottleneck) and execute one task (`compute + comm`) per
//! ticket. Per-task costs come from [`nwchem_proxy::profile`], which uses
//! the same [`simnet`] cost models as the executable runtimes, so the DES
//! and the thread-level simulation agree by construction.
//!
//! Two effects beyond the per-task model matter at scale and are
//! represented explicitly:
//!
//! * **counter contention** — the NXTVAL server grants tickets FIFO; when
//!   `P · service_time` approaches the task duration the counter
//!   serialises the run (visible as flattening at high core counts);
//! * **interconnect congestion** — the Cray XE6's development-release
//!   native port degraded under load (the paper's native XE curves flatten
//!   for (T) and *worsen* for CCSD); modelled as a per-backend comm-time
//!   multiplier `1 + P / congestion_scale`.

#![forbid(unsafe_code)]

pub mod fig6;

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulation input.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Logical processes.
    pub nprocs: usize,
    /// Tasks to execute (per iteration).
    pub ntasks: usize,
    /// Compute seconds per task.
    pub task_compute: f64,
    /// Communication seconds per task (before congestion scaling).
    pub task_comm: f64,
    /// NXTVAL service seconds per request at the counter host.
    pub nxtval_service: f64,
    /// Origin-observed NXTVAL round-trip latency (excluding queueing).
    pub nxtval_latency: f64,
    /// Optional congestion model (the XE6 development-release native
    /// port): effective comm = comm · (1 + (P/scale)²). Supra-linear so
    /// that scaling first flattens, then reverses — the paper's native
    /// XE CCSD curve.
    pub congestion_scale: Option<f64>,
    /// Fixed startup/synchronisation cost per iteration.
    pub startup: f64,
    /// Iterations (the makespan of one iteration is multiplied).
    pub iterations: usize,
}

/// Simulation output.
#[derive(Debug, Clone, Copy)]
pub struct SimResult {
    /// Wall-clock (virtual) seconds for the whole run.
    pub makespan: f64,
    /// Fraction of the makespan the counter server was busy.
    pub counter_utilisation: f64,
    /// Mean queueing wait per NXTVAL request.
    pub mean_nxtval_wait: f64,
}

/// Per-node sharded refinement of the NXTVAL counter (the
/// `armci_mpi::NxtvalCounter` discipline): each node's leader holds a
/// shard of `block` tickets claimed by node peers at intra-node atomic
/// cost, and the home counter — the serial server of the flat model —
/// is only visited once per `block` tickets for a refill. The home
/// service/latency still come from [`SimConfig`]; this struct adds the
/// shard tier.
#[derive(Debug, Clone, Copy)]
pub struct ShardedCounter {
    /// Ranks sharing one shard (the node size).
    pub ranks_per_node: usize,
    /// Tickets fetched from home per refill.
    pub block: usize,
    /// Shard-server service time per local claim (a slab CAS).
    pub shard_service: f64,
    /// Origin-observed shard round-trip latency (excluding queueing).
    pub shard_latency: f64,
}

/// Time-ordered event key (min-heap via reversed compare).
#[derive(Debug, PartialEq)]
struct Ev {
    t: f64,
    proc: usize,
}

impl Eq for Ev {}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap, we want earliest first;
        // ties broken by proc id for determinism
        other
            .t
            .total_cmp(&self.t)
            .then_with(|| other.proc.cmp(&self.proc))
    }
}

/// Simulates one iteration; returns (makespan, busy, total_wait, requests).
fn simulate_iteration(cfg: &SimConfig) -> (f64, f64, f64, usize) {
    let comm = match cfg.congestion_scale {
        Some(scale) => {
            let x = cfg.nprocs as f64 / scale;
            cfg.task_comm * (1.0 + x * x)
        }
        None => cfg.task_comm,
    };
    let task_time = cfg.task_compute + comm;

    // All processes request their first ticket at t = startup.
    let mut heap: BinaryHeap<Ev> = (0..cfg.nprocs)
        .map(|p| Ev {
            t: cfg.startup,
            proc: p,
        })
        .collect();
    let mut server_free = 0.0f64;
    let mut next_ticket = 0usize;
    let mut busy = 0.0f64;
    let mut total_wait = 0.0f64;
    let mut requests = 0usize;
    let mut makespan = cfg.startup;

    while let Some(Ev { t, proc }) = heap.pop() {
        // Request arrives at the counter host after half a round trip.
        let arrive = t + 0.5 * cfg.nxtval_latency;
        let start = server_free.max(arrive);
        let done = start + cfg.nxtval_service;
        busy += cfg.nxtval_service;
        total_wait += start - arrive;
        requests += 1;
        server_free = done;
        // Ticket travels back.
        let got = done + 0.5 * cfg.nxtval_latency;
        let ticket = next_ticket;
        next_ticket += 1;
        if ticket < cfg.ntasks {
            heap.push(Ev {
                t: got + task_time,
                proc,
            });
        } else {
            makespan = makespan.max(got);
        }
    }
    (makespan, busy, total_wait, requests)
}

/// Simulates one iteration under the sharded counter; returns
/// (makespan, home busy, total wait, requests). Requests queue at their
/// node's shard server; an empty shard makes the grant additionally wait
/// for a home-counter round trip (the refill), serialised at the home
/// server like every flat-model request.
fn simulate_sharded_iteration(cfg: &SimConfig, sh: &ShardedCounter) -> (f64, f64, f64, usize) {
    let comm = match cfg.congestion_scale {
        Some(scale) => {
            let x = cfg.nprocs as f64 / scale;
            cfg.task_comm * (1.0 + x * x)
        }
        None => cfg.task_comm,
    };
    let task_time = cfg.task_compute + comm;
    let rpn = sh.ranks_per_node.max(1);
    let nnodes = cfg.nprocs.div_ceil(rpn);

    let mut heap: BinaryHeap<Ev> = (0..cfg.nprocs)
        .map(|p| Ev {
            t: cfg.startup,
            proc: p,
        })
        .collect();
    let mut shard_free = vec![0.0f64; nnodes];
    let mut stock = vec![0usize; nnodes];
    let mut home_free = 0.0f64;
    let mut home_busy = 0.0f64;
    let mut total_wait = 0.0f64;
    let mut requests = 0usize;
    let mut next_ticket = 0usize;
    let mut makespan = cfg.startup;

    while let Some(Ev { t, proc }) = heap.pop() {
        let node = proc / rpn;
        let arrive = t + 0.5 * sh.shard_latency;
        let mut start = shard_free[node].max(arrive);
        if stock[node] == 0 {
            // Refill: the shard does a home round trip before granting.
            let harrive = start + 0.5 * cfg.nxtval_latency;
            let hstart = home_free.max(harrive);
            let hdone = hstart + cfg.nxtval_service;
            home_busy += cfg.nxtval_service;
            home_free = hdone;
            start = hdone + 0.5 * cfg.nxtval_latency;
            stock[node] = sh.block.max(1);
        }
        stock[node] -= 1;
        let done = start + sh.shard_service;
        shard_free[node] = done;
        total_wait += start - arrive;
        requests += 1;
        let got = done + 0.5 * sh.shard_latency;
        let ticket = next_ticket;
        next_ticket += 1;
        if ticket < cfg.ntasks {
            heap.push(Ev {
                t: got + task_time,
                proc,
            });
        } else {
            makespan = makespan.max(got);
        }
    }
    (makespan, home_busy, total_wait, requests)
}

/// Runs the simulation with the sharded NXTVAL counter.
/// `counter_utilisation` reports the *home* server — the shared resource
/// whose saturation is the flat model's plateau.
pub fn simulate_sharded(cfg: &SimConfig, shard: &ShardedCounter) -> SimResult {
    assert!(cfg.nprocs > 0 && cfg.iterations > 0);
    let (mk, busy, wait, reqs) = simulate_sharded_iteration(cfg, shard);
    SimResult {
        makespan: mk * cfg.iterations as f64,
        counter_utilisation: (busy / mk).min(1.0),
        mean_nxtval_wait: wait / reqs as f64,
    }
}

/// Runs the simulation.
///
/// ```
/// use scalesim::{simulate, SimConfig};
///
/// let base = SimConfig {
///     nprocs: 64,
///     ntasks: 10_000,
///     task_compute: 1e-3,
///     task_comm: 0.5e-3,
///     nxtval_service: 2e-6,
///     nxtval_latency: 4e-6,
///     congestion_scale: None,
///     startup: 0.0,
///     iterations: 1,
/// };
/// let r64 = simulate(&base);
/// let r128 = simulate(&SimConfig { nprocs: 128, ..base });
/// assert!(r128.makespan < r64.makespan); // more cores, faster
/// ```
pub fn simulate(cfg: &SimConfig) -> SimResult {
    assert!(cfg.nprocs > 0 && cfg.iterations > 0);
    let (mk, busy, wait, reqs) = simulate_iteration(cfg);
    SimResult {
        makespan: mk * cfg.iterations as f64,
        counter_utilisation: (busy / mk).min(1.0),
        mean_nxtval_wait: wait / reqs as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimConfig {
        SimConfig {
            nprocs: 4,
            ntasks: 100,
            task_compute: 1.0e-3,
            task_comm: 0.5e-3,
            nxtval_service: 2.0e-6,
            nxtval_latency: 4.0e-6,
            congestion_scale: None,
            startup: 0.0,
            iterations: 1,
        }
    }

    #[test]
    fn single_proc_executes_serially() {
        let cfg = SimConfig {
            nprocs: 1,
            ..base()
        };
        let r = simulate(&cfg);
        let per_task = cfg.task_compute + cfg.task_comm + cfg.nxtval_service + cfg.nxtval_latency;
        // 100 tasks + the final empty-ticket probe
        let expect = 100.0 * per_task + cfg.nxtval_service + cfg.nxtval_latency;
        assert!(
            (r.makespan - expect).abs() < 1e-9,
            "{} vs {expect}",
            r.makespan
        );
    }

    #[test]
    fn speedup_is_near_linear_when_uncontended() {
        let t1 = simulate(&SimConfig {
            nprocs: 1,
            ..base()
        })
        .makespan;
        let t4 = simulate(&SimConfig {
            nprocs: 4,
            ..base()
        })
        .makespan;
        let speedup = t1 / t4;
        assert!(speedup > 3.5 && speedup <= 4.2, "speedup {speedup}");
    }

    #[test]
    fn counter_saturates_at_extreme_scale() {
        // With enough processes the makespan is bounded below by
        // ntasks · service.
        let cfg = SimConfig {
            nprocs: 10_000,
            ntasks: 20_000,
            ..base()
        };
        let r = simulate(&cfg);
        assert!(r.makespan >= 20_000.0 * cfg.nxtval_service);
        assert!(r.counter_utilisation > 0.5);
        let uncontended = simulate(&SimConfig { nprocs: 64, ..cfg });
        assert!(uncontended.mean_nxtval_wait < r.mean_nxtval_wait);
    }

    #[test]
    fn makespan_monotone_nonincreasing_in_procs() {
        let mut prev = f64::INFINITY;
        for p in [1usize, 2, 4, 8, 16, 32, 64] {
            let r = simulate(&SimConfig {
                nprocs: p,
                ..base()
            });
            assert!(
                r.makespan <= prev * 1.0001,
                "p={p}: {} vs prev {prev}",
                r.makespan
            );
            prev = r.makespan;
        }
    }

    #[test]
    fn congestion_makes_scaling_flatten_or_worsen() {
        let cfg = SimConfig {
            ntasks: 10_000,
            congestion_scale: Some(200.0),
            ..base()
        };
        let t256 = simulate(&SimConfig { nprocs: 256, ..cfg }).makespan;
        let t4096 = simulate(&SimConfig {
            nprocs: 4096,
            ..cfg
        })
        .makespan;
        // 16× more processes buys little or negative improvement
        assert!(t4096 > 0.5 * t256, "t256 {t256} t4096 {t4096}");
    }

    #[test]
    fn iterations_multiply_makespan() {
        let one = simulate(&base()).makespan;
        let ten = simulate(&SimConfig {
            iterations: 10,
            ..base()
        })
        .makespan;
        assert!((ten - 10.0 * one).abs() < 1e-12);
    }

    #[test]
    fn all_tasks_are_executed_exactly_once() {
        // Indirect check: makespan with P≥ntasks+1 equals roughly one
        // task (everyone grabs at most one ticket).
        let cfg = SimConfig {
            nprocs: 200,
            ntasks: 100,
            ..base()
        };
        let r = simulate(&cfg);
        let per_task = cfg.task_compute + cfg.task_comm;
        assert!(r.makespan < per_task + 400.0 * cfg.nxtval_service + 1e-3);
    }

    #[test]
    fn sharded_counter_scales_past_the_flat_plateau() {
        // Weak scaling: tickets per process fixed, so the flat counter's
        // home server saturates (P · service > task time) while the
        // sharded counter amortises home traffic 1/block.
        let shard = ShardedCounter {
            ranks_per_node: 32,
            block: 64,
            shard_service: 5.0e-8,
            shard_latency: 1.0e-7,
        };
        let mk = |p: usize, sharded: bool| {
            let cfg = SimConfig {
                nprocs: p,
                ntasks: 8 * p,
                ..base()
            };
            if sharded {
                simulate_sharded(&cfg, &shard).makespan
            } else {
                simulate(&cfg).makespan
            }
        };
        // Throughput (tickets/s) of the flat counter flattens at the
        // home server's rate; the sharded counter keeps scaling.
        let flat_tp = |p: usize| 8.0 * p as f64 / mk(p, false);
        let shard_tp = |p: usize| 8.0 * p as f64 / mk(p, true);
        assert!(
            flat_tp(4096) < 1.05 * flat_tp(1024),
            "flat should plateau: {} vs {}",
            flat_tp(4096),
            flat_tp(1024)
        );
        assert!(
            shard_tp(4096) > 2.0 * flat_tp(4096),
            "sharded {} should beat flat {} at 4096",
            shard_tp(4096),
            flat_tp(4096)
        );
        assert!(
            shard_tp(4096) > 1.5 * shard_tp(256),
            "sharded keeps scaling: {} vs {}",
            shard_tp(4096),
            shard_tp(256)
        );
    }

    #[test]
    fn sharded_home_utilisation_is_a_block_fraction_of_flat() {
        let shard = ShardedCounter {
            ranks_per_node: 32,
            block: 64,
            shard_service: 5.0e-8,
            shard_latency: 1.0e-7,
        };
        let cfg = SimConfig {
            nprocs: 2048,
            ntasks: 8 * 2048,
            ..base()
        };
        let flat = simulate(&cfg);
        let sh = simulate_sharded(&cfg, &shard);
        assert!(
            flat.counter_utilisation > 0.9,
            "{}",
            flat.counter_utilisation
        );
        assert!(
            sh.counter_utilisation < 0.5 * flat.counter_utilisation,
            "home load must drop ~1/block: {} vs {}",
            sh.counter_utilisation,
            flat.counter_utilisation
        );
    }

    #[test]
    fn startup_shifts_makespan() {
        let a = simulate(&base()).makespan;
        let b = simulate(&SimConfig {
            startup: 1.0,
            ..base()
        })
        .makespan;
        assert!((b - a - 1.0).abs() < 1e-9);
    }
}
