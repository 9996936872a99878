//! NXTVAL contention sweep (`BENCH_rmw.json`): the synchronization
//! stack's three ticket disciplines — **native** MPI-3 `fetch_and_op`
//! at the home rank, the paper's §V-D Latham **mutex** protocol, and
//! the **sharded** per-node counter (`armci_mpi::NxtvalCounter`) — under
//! growing rank counts.
//!
//! Two sources feed the artifact:
//!
//! * runtime rows (the shared [`Row`], workload `nxtval`) ground the
//!   service times: the executable runtimes really take tickets at small
//!   rank counts and the per-ticket virtual cost (and CAS retry count)
//!   is measured;
//! * the [`DesPoint`] series (`"source": "des"`) sweeps 1 → 4096 ranks
//!   through [`scalesim`] with the per-discipline service times priced
//!   from the same platform model — the mutex formula of
//!   [`nwchem_proxy::profile::nxtval_service`], `rmw_latency` for
//!   native, and the slab atomic cost for shards.
//!
//! The headline is the paper's §VIII-B argument made quantitative:
//! native atomics are strictly cheaper than the mutex at every
//! contended point, and sharding scales ticket throughput past the
//! single-home-rank plateau that caps both flat disciplines.

use armci_mpi::{AtomicsMode, Config};
use nwchem_proxy::{nxtval_service, Backend};
use scalesim::{simulate, simulate_sharded, ShardedCounter, SimConfig};
use serde::Serialize;
use simnet::{Platform, PlatformId};

use crate::ab::{run_table, Arm, Column, Driver, Row, Table};

/// Rank counts of the DES sweep (1 → 4096).
pub const DES_RANKS: [usize; 7] = [1, 4, 16, 64, 256, 1024, 4096];

/// Rank counts the executable runtimes ground the model at.
pub const RUNTIME_RANKS: [usize; 2] = [4, 8];

/// Ranks per node of the sweep topology.
pub const RANKS_PER_NODE: u32 = 32;

/// Sharded-counter refill block.
pub const BLOCK: usize = 64;

/// Tickets per rank (weak scaling: total tickets grow with ranks).
pub const TICKETS_PER_RANK: usize = 8;

/// Per-ticket task time in the DES (compute + comm a claimant performs
/// before returning for the next ticket).
const TASK_S: f64 = 200.0e-6;

/// One point of the scalesim sweep (a series outside the shared row).
#[derive(Debug, Clone, Serialize)]
pub struct DesPoint {
    pub platform: PlatformId,
    /// Wire backend carrying the counter traffic.
    pub transport: &'static str,
    /// Ticket discipline: `"native"`, `"mutex"` or `"sharded"`.
    pub atomics_mode: &'static str,
    /// Always `"des"`.
    pub source: &'static str,
    pub ranks: u64,
    pub ranks_per_node: u32,
    /// Refill block (1 = flat counter).
    pub block: u64,
    /// Home-rank service time per request, µs.
    pub service_us: f64,
    /// Mean virtual time per ticket observed by a claimant, µs.
    pub ticket_us: f64,
    /// Makespan of the ticketed task loop, seconds.
    pub makespan_s: f64,
    /// Home-counter busy fraction (the flat plateau's cause).
    pub counter_utilisation: f64,
    /// CAS retries (always zero in the DES).
    pub cas_retries: u64,
}

/// Per-discipline home service time, seconds.
fn service_s(platform: &Platform, mode: &str) -> f64 {
    match mode {
        "mutex" => nxtval_service(platform, Backend::ArmciMpi),
        // Native fetch_and_op at the home rank; the sharded counter uses
        // the same home atomics, 1/block as often.
        _ => platform.mpi.rmw_latency,
    }
}

/// One DES point of the sweep.
fn des_point(platform: &Platform, mode: &'static str, ranks: usize) -> DesPoint {
    let service = service_s(platform, mode);
    let cfg = SimConfig {
        nprocs: ranks,
        ntasks: TICKETS_PER_RANK * ranks,
        task_compute: TASK_S,
        task_comm: 0.0,
        nxtval_service: service,
        nxtval_latency: 2.0 * service,
        congestion_scale: None,
        startup: 0.0,
        iterations: 1,
    };
    let res = if mode == "sharded" {
        simulate_sharded(
            &cfg,
            &ShardedCounter {
                ranks_per_node: RANKS_PER_NODE as usize,
                block: BLOCK,
                shard_service: platform.shm.atomic_cost(),
                shard_latency: 2.0 * platform.shm.atomic_cost(),
            },
        )
    } else {
        simulate(&cfg)
    };
    DesPoint {
        platform: platform.id,
        transport: "mpi-rma",
        atomics_mode: mode,
        source: "des",
        ranks: ranks as u64,
        ranks_per_node: RANKS_PER_NODE,
        block: if mode == "sharded" { BLOCK as u64 } else { 1 },
        service_us: service * 1e6,
        ticket_us: res.makespan * 1e6 / TICKETS_PER_RANK as f64,
        makespan_s: res.makespan,
        counter_utilisation: res.counter_utilisation,
        cas_retries: 0,
    }
}

/// The DES sweep for one platform.
pub fn des(id: PlatformId) -> Vec<DesPoint> {
    let platform = Platform::get(id);
    let mut points = Vec::new();
    for mode in ["native", "mutex", "sharded"] {
        for ranks in DES_RANKS {
            points.push(des_point(&platform, mode, ranks));
        }
    }
    points
}

/// Executable grounding: every rank takes `TICKETS_PER_RANK` tickets
/// through the real runtime under each discipline, at every
/// [`RUNTIME_RANKS`] count.
pub fn arms(platform: PlatformId) -> Vec<Arm> {
    let mut arms = Vec::new();
    for (label, driver, atomics) in [
        (
            "native",
            Driver::Nxtval { sharded: false },
            AtomicsMode::Native,
        ),
        (
            "mutex",
            Driver::Nxtval { sharded: false },
            AtomicsMode::MutexFallback,
        ),
        (
            "sharded",
            Driver::Nxtval { sharded: true },
            AtomicsMode::Native,
        ),
    ] {
        for ranks in RUNTIME_RANKS {
            let cfg = Config {
                atomics,
                ..Default::default()
            };
            arms.push(Arm {
                ranks_per_node: RANKS_PER_NODE,
                ..Arm::new(label, driver, platform, ranks, cfg)
            });
        }
    }
    arms
}

/// The runtime rows for one platform, with the per-ticket cost (the
/// makespan over the tickets each rank took) and the discipline's
/// modelled home service time.
pub fn generate(id: PlatformId) -> Vec<Row> {
    let mut platform = Platform::get(id);
    platform.sockets_per_node = 1;
    platform.cores_per_socket = RANKS_PER_NODE;
    let mut rows = run_table(arms(id));
    for r in &mut rows {
        let ticket_us = r.virtual_s * 1e6 / TICKETS_PER_RANK as f64;
        let service_us = service_s(&platform, r.arm) * 1e6;
        r.metrics.push(("ticket_us", ticket_us.to_value()));
        r.metrics.push(("service_us", service_us.to_value()));
    }
    rows
}

const COLUMNS: &[Column] = &[
    ("block", |r| r.param("block")),
    ("service_µs", |r| r.metric("service_us")),
    ("ticket_µs", |r| r.metric("ticket_us")),
    ("retries", |r| r.ops.cas_retries as f64),
];

/// The artifact for one platform: the runtime rows, the DES sweep as
/// its series, and the headline crossovers at 4096 ranks.
pub fn table(id: PlatformId) -> Table {
    let rows = generate(id);
    let points = des(id);
    let get = |mode: &str| {
        points
            .iter()
            .find(|d| d.atomics_mode == mode && d.ranks == 4096)
    };
    let headline = match (get("native"), get("mutex"), get("sharded")) {
        (Some(n), Some(m), Some(sh)) => format!(
            "@4096 ranks (DES): mutex {:.1} ms, native {:.1} ms ({:.1}x), sharded {:.1} ms ({:.1}x)\n",
            m.makespan_s * 1e3,
            n.makespan_s * 1e3,
            m.makespan_s / n.makespan_s,
            sh.makespan_s * 1e3,
            m.makespan_s / sh.makespan_s,
        ),
        _ => String::new(),
    };
    let title = "NXTVAL contention — native vs mutex vs sharded tickets";
    Table {
        series: points.iter().map(Serialize::to_value).collect(),
        ..Table::new(title, COLUMNS, rows, headline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_beats_mutex_and_sharded_beats_the_plateau() {
        let points = des(PlatformId::InfiniBandCluster);
        let get = |mode: &str, ranks: u64| {
            points
                .iter()
                .find(|d| d.atomics_mode == mode && d.ranks == ranks)
                .unwrap()
        };
        // DES acceptance: native strictly cheaper than the Latham mutex
        // at every contended point (≥ 64 ranks).
        for ranks in [64u64, 256, 1024, 4096] {
            let native = get("native", ranks);
            let mutex = get("mutex", ranks);
            assert!(
                native.makespan_s < mutex.makespan_s,
                "{ranks} ranks: native {} vs mutex {}",
                native.makespan_s,
                mutex.makespan_s
            );
        }
        // The flat native counter plateaus: home utilisation saturates
        // and ticket throughput stalls between 1024 and 4096 ranks.
        let tp = |d: &DesPoint| TICKETS_PER_RANK as f64 * d.ranks as f64 / d.makespan_s;
        let n1k = get("native", 1024);
        let n4k = get("native", 4096);
        assert!(n4k.counter_utilisation > 0.9, "{}", n4k.counter_utilisation);
        assert!(tp(n4k) < 1.1 * tp(n1k), "flat native must plateau");
        // Sharding scales past it.
        let s4k = get("sharded", 4096);
        assert!(
            tp(s4k) > 2.0 * tp(n4k),
            "sharded {} tickets/s vs flat {}",
            tp(s4k),
            tp(n4k)
        );
        // The home server sheds ~1/block of the load (visible before
        // both curves saturate the window).
        let s1k = get("sharded", 1024);
        assert!(
            s1k.counter_utilisation < 0.5 * n1k.counter_utilisation,
            "sharded home util {} vs flat {}",
            s1k.counter_utilisation,
            n1k.counter_utilisation
        );
        // Executable grounding agrees in ordering: native tickets are
        // cheaper than mutex tickets on the real runtime too.
        let rows = generate(PlatformId::InfiniBandCluster);
        for ranks in RUNTIME_RANKS {
            let ticket_us = |arm: &str| {
                rows.iter()
                    .find(|r| r.arm == arm && r.ranks == ranks)
                    .unwrap()
                    .metric("ticket_us")
            };
            assert!(
                ticket_us("native") < ticket_us("mutex"),
                "{ranks} ranks: native {} µs vs mutex {} µs",
                ticket_us("native"),
                ticket_us("mutex")
            );
        }
    }
}
