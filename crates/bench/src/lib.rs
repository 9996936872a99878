//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (§VII) from the simulated runtimes.
//!
//! | artifact | module | paper content |
//! |----------|--------|---------------|
//! | Table II | [`table2`] | experimental platforms |
//! | Figure 3 | [`fig3`]   | contiguous get/put/acc bandwidth vs size |
//! | Figure 4 | [`fig4`]   | strided bandwidth by method, 16 B & 1 KiB segments |
//! | Figure 5 | [`fig5`]   | ARMCI/MPI buffer-registration interoperability |
//! | Figure 6 | [`fig6r`]  | NWChem CCSD and (T) scaling |
//!
//! A supplemental §IX comparison ([`ds_compare`]) pits ARMCI-MPI
//! against the legacy two-sided data-server ARMCI. The `BENCH_*`
//! artifacts ([`ARTIFACTS`]) repeat the §VII experiment under the
//! runtime's config axes, all through one runner ([`ab`]) and one row
//! shape ([`ab::Row`]); [`check`] validates them:
//!
//! | artifact | module | what the arms compare |
//! |----------|--------|-----------------------|
//! | `BENCH_pipeline` | [`pipeline`] | engine plan/acquire/execute/complete stages, blocking vs nonblocking burst |
//! | `BENCH_pool` | [`pool`] | staging-pool hits and registration cost, cold vs steady, ARMCI-MPI vs ARMCI-Native |
//! | `BENCH_coalesce` | [`coalesce`] | per-op epochs vs batched vs coalescing scheduler |
//! | `BENCH_shm` | [`shm`] | intra-node shared-memory tier vs forced wire, per ranks-per-node |
//! | `BENCH_transport` | [`transport`] | MPI RMA vs RAMC-style channels, with and without congestion |
//! | `BENCH_rmw` | [`rmw`] | NXTVAL tickets: native atomics vs mutex vs sharded (+ DES sweep) |
//! | `BENCH_progress` | [`progress`] | host-CPU progress vs per-node agents under compute skew |
//! | `BENCH_workloads` | [`workloads`] | graph/stencil/kv across five config axes (+ DES series) |
//!
//! The traffic lives in [`drivers`]; [`trace`] captures recorder streams
//! for the `TRACE_*`/`OBS_*` artifacts.
//!
//! The `figures` binary prints each as aligned text and (optionally) JSON.
//! Bandwidth numbers are **virtual-time** measurements: the operations
//! really execute on the simulated runtime and the platform cost model
//! prices them, so shapes are deterministic and platform-faithful.

#![forbid(unsafe_code)]

pub mod ab;
pub mod check;
pub mod coalesce;
pub mod drivers;
pub mod ds_compare;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6r;
pub mod pipeline;
pub mod pool;
pub mod progress;
pub mod rmw;
pub mod shm;
pub mod table2;
pub mod trace;
pub mod transport;
pub mod workloads;

use simnet::PlatformId;

/// One `BENCH_*` artifact: the `figures` subcommand that regenerates
/// `BENCH_<name>.json`, the platforms it covers, and its generator.
pub struct Artifact {
    pub name: &'static str,
    pub platforms: &'static [PlatformId],
    pub table: fn(PlatformId) -> ab::Table,
}

impl Artifact {
    /// The JSON file name, without the extension.
    pub fn file(&self) -> String {
        format!("BENCH_{}", self.name)
    }
}

const BOTH: &[PlatformId] = &[PlatformId::InfiniBandCluster, PlatformId::CrayXE6];

macro_rules! artifacts {
    ($($name:ident: $platforms:expr),*) => {
        /// Every `BENCH_*` artifact, in `figures all` order.
        pub const ARTIFACTS: &[Artifact] = &[$(Artifact {
            name: stringify!($name),
            platforms: $platforms,
            table: $name::table,
        }),*];
    };
}

artifacts! { pipeline: BOTH, coalesce: BOTH, shm: BOTH, transport: BOTH, rmw: BOTH, pool: BOTH,
progress: BOTH, workloads: &[PlatformId::InfiniBandCluster] }

/// Runtime configuration for `id` with the ranks spread one per node.
///
/// The paper's bandwidth topologies place origin and target on separate
/// nodes, so the wire benchmarks must keep the intra-node shared-memory
/// tier out of their measurements; `BENCH_shm.json` is where that tier
/// is measured, explicitly, A/B against the forced-wire path.
pub fn internode(id: simnet::PlatformId) -> mpisim::RuntimeConfig {
    let mut platform = simnet::Platform::get(id).customized("internode-bench");
    platform.sockets_per_node = 1;
    platform.cores_per_socket = 1;
    mpisim::RuntimeConfig {
        platform,
        ..Default::default()
    }
}

/// Formats a byte count like the paper's axes (powers of two).
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{}MiB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{}KiB", b >> 10)
    } else {
        format!("{b}B")
    }
}

/// Formats a bandwidth in GB/s with three significant digits.
pub fn fmt_gbps(bps: f64) -> String {
    format!("{:.3}", bps / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(16), "16B");
        assert_eq!(fmt_bytes(2048), "2KiB");
        assert_eq!(fmt_bytes(1 << 22), "4MiB");
    }

    #[test]
    fn gbps_formatting() {
        assert_eq!(fmt_gbps(3.21e9), "3.210");
    }
}
