//! Wire backends: the RAMC-style channel transport reports its offload
//! split, MPI RMA reports none, and the channel composes with the shm
//! tier. That both backends move identical payloads is checked by the
//! differential oracle (`differential.rs`); only cost and offload
//! accounting may differ.

use armci::Armci;
use armci_mpi::{ArmciMpi, Config, TransportKind};
use mpisim::{Runtime, RuntimeConfig};
use simnet::{Platform, PlatformId};

/// Runtime with `ranks_per_node` cores per node and no clock charging,
/// so layouts range from everything-on-one-node to one-rank-per-node.
fn layout(ranks_per_node: u32) -> RuntimeConfig {
    let mut platform =
        Platform::get(PlatformId::InfiniBandCluster).customized("transport-equivalence-test");
    platform.sockets_per_node = 1;
    platform.cores_per_socket = ranks_per_node;
    RuntimeConfig {
        platform,
        charge_time: false,
        ..Default::default()
    }
}

fn tx_cfg(transport: TransportKind) -> Config {
    Config {
        transport,
        ..Default::default()
    }
}

#[test]
fn channel_backend_reports_offload_split() {
    // A contiguous put offloads to the channel "hardware"; a strided one
    // falls back to software. The counters must record the split and the
    // backend must identify itself.
    Runtime::run_with(2, layout(1), |p| {
        let rt = ArmciMpi::with_config(p, tx_cfg(TransportKind::Channel));
        assert_eq!(rt.transport_name(), "channel");
        let bases = rt.malloc(256).unwrap();
        rt.barrier();
        if p.rank() == 0 {
            rt.put(&[7u8; 64], bases[1]).unwrap();
            rt.put_strided(&[1u8; 24], &[8], bases[1], &[16], &[8, 3])
                .unwrap();
            let s = rt.transport_stats();
            assert!(s.offloaded >= 1, "contiguous put should offload: {s:?}");
            assert!(s.fallback >= 1, "strided put should fall back: {s:?}");
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    });
}

#[test]
fn mpi_rma_backend_reports_no_offload() {
    Runtime::run_with(2, layout(1), |p| {
        let rt = ArmciMpi::with_config(p, tx_cfg(TransportKind::MpiRma));
        assert_eq!(rt.transport_name(), "mpi-rma");
        let bases = rt.malloc(64).unwrap();
        rt.barrier();
        if p.rank() == 0 {
            rt.put(&[7u8; 32], bases[1]).unwrap();
            let s = rt.transport_stats();
            assert_eq!((s.offloaded, s.fallback), (0, 0));
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    });
}

#[test]
fn channel_backend_composes_with_shm_tier() {
    // With the node slab on, same-node plans take the load/store tier
    // (which must lock under the channel backend — there is no standing
    // lock_all to make lock-free win_sync legal) while cross-node plans
    // ride the channel. Payloads stay correct on both routes.
    let mut platform =
        Platform::get(PlatformId::InfiniBandCluster).customized("transport-shm-test");
    platform.sockets_per_node = 1;
    platform.cores_per_socket = 2;
    let rc = RuntimeConfig {
        platform,
        charge_time: false,
        ..Default::default()
    };
    Runtime::run_with(4, rc, |p| {
        let cfg = Config {
            transport: TransportKind::Channel,
            shm: true,
            ..Default::default()
        };
        let rt = ArmciMpi::with_config(p, cfg);
        let bases = rt.malloc(64).unwrap();
        rt.barrier();
        if p.rank() == 0 {
            // target 1 shares the node; targets 2 and 3 do not
            for (t, &base) in bases.iter().enumerate().skip(1) {
                rt.put(&[t as u8; 16], base).unwrap();
                let mut img = [0u8; 16];
                rt.get(base, &mut img).unwrap();
                assert_eq!(img, [t as u8; 16]);
            }
            let g = rt.stage_stats();
            assert!(g.shm_hits >= 1, "node peer should use the slab");
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    });
}
