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
//! A supplemental §IX comparison (`ds_compare`) pits ARMCI-MPI against
//! the legacy two-sided data-server ARMCI, [`pipeline`] breaks the
//! transfer engine's plan/acquire/execute/complete stages down over the
//! Figure 3/4 workloads (`BENCH_pipeline.json`), [`pool`] reports
//! the staging buffer pool's hit/miss/registration behaviour on the same
//! workloads (`BENCH_pool.json`), [`coalesce`] A/B-tests the
//! coalescing RMA scheduler and committed-datatype cache against the
//! per-op path on the fig3 mix and the CCSD proxy
//! (`BENCH_coalesce.json`), asserting bit-identical payloads/energies,
//! and [`shm`] A/B-tests the intra-node shared-memory fast path against
//! the forced-wire baseline over a ranks-per-node sweep
//! (`BENCH_shm.json`). [`transport`] A/B-tests the pluggable wire
//! backends — MPI passive-target RMA vs RAMC-style remote memory
//! channels — with and without the congestion-aware shared-NIC queueing
//! model (`BENCH_transport.json`). [`rmw`] sweeps the NXTVAL contention
//! story 1 → 4096 ranks across the three ticket disciplines — native
//! MPI-3 atomics, the §V-D Latham mutex, and the sharded per-node
//! counter (`BENCH_rmw.json`).
//!
//! The `figures` binary prints each as aligned text and (optionally) JSON.
//! Bandwidth numbers are **virtual-time** measurements: the operations
//! really execute on the simulated runtime and the platform cost model
//! prices them, so shapes are deterministic and platform-faithful.

pub mod coalesce;
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
