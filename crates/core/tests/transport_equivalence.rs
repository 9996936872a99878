//! Wire backends: the RAMC-style channel transport reports its offload
//! split, MPI RMA reports none, the channel composes with the shm tier,
//! and every route refuses a malformed transfer with the same error.
//! That both backends move identical payloads is checked by the
//! differential oracle (`differential.rs`); only cost and offload
//! accounting may differ.

use armci::Armci;
use armci_mpi::transport::for_kind;
use armci_mpi::{ArmciMpi, Config, TransportKind};
use mpisim::{
    AccOp, Datatype, ElemType, LockMode, MpiError, Origin, RmaClass, Runtime, RuntimeConfig,
    WinHandle,
};
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

/// One error surface: each malformed blocking transfer returns the same
/// `MpiError` variant on the MPI-RMA wire path, the channel backend and
/// the shm route, and leaves both the target window and a get's origin
/// buffer unchanged.
#[test]
fn malformed_transfers_fail_alike_on_every_route() {
    use std::mem::discriminant;
    Runtime::run_with(2, layout(2), |p| {
        let w = p.world();
        let win = WinHandle::allocate_shared(&w, 64);
        if w.rank() == 0 {
            let (wire, channel) = (
                for_kind(TransportKind::MpiRma, false),
                for_kind(TransportKind::Channel, false),
            );
            let c = Datatype::contiguous;
            let (put, get) = (RmaClass::Put, RmaClass::Get);
            let acc = RmaClass::Acc(ElemType::F64, AccOp::Sum);
            let misaligned = Datatype::Indexed {
                blocks: vec![(0, 4), (8, 12)],
            };
            let bad_dt = MpiError::BadDatatype(String::new());
            let mismatch = MpiError::TypeMismatch {
                origin_bytes: 0,
                target_bytes: 0,
            };
            let oob = MpiError::OutOfBounds {
                target: 1,
                disp: 0,
                len: 0,
                size: 0,
            };
            // (classes, origin buffer length, odt, tdisp, tdt, expected)
            let cases = [
                (
                    "origin extent exceeds buffer",
                    vec![put, get, acc],
                    8,
                    c(16),
                    0,
                    c(16),
                    &bad_dt,
                ),
                (
                    "origin/target size mismatch",
                    vec![put, get, acc],
                    16,
                    c(8),
                    0,
                    c(16),
                    &mismatch,
                ),
                (
                    "accumulate not element multiple",
                    vec![acc],
                    12,
                    c(12),
                    0,
                    c(12),
                    &bad_dt,
                ),
                (
                    "misaligned target segment",
                    vec![acc],
                    16,
                    c(16),
                    0,
                    misaligned,
                    &bad_dt,
                ),
                (
                    "out of bounds",
                    vec![put, get, acc],
                    8,
                    c(8),
                    60,
                    c(8),
                    &oob,
                ),
            ];
            win.lock(LockMode::Exclusive, 1).unwrap();
            for (name, classes, len, odt, tdisp, tdt, want) in &cases {
                for &class in classes {
                    let errs = [0, 1, 2].map(|route| {
                        let mut buf = vec![0x5au8; *len];
                        let origin = match class {
                            RmaClass::Put => Origin::Put(&buf),
                            RmaClass::Get => Origin::Get(&mut buf),
                            RmaClass::Acc(elem, op) => Origin::Acc(&buf, elem, op),
                        };
                        let res = match route {
                            0 => wire.transfer(&win, origin, odt, 1, *tdisp, tdt),
                            1 => channel.transfer(&win, origin, odt, 1, *tdisp, tdt),
                            _ => win.shm_transfer(origin, odt, 1, *tdisp, tdt).map(drop),
                        };
                        assert!(buf.iter().all(|&b| b == 0x5a), "{name}: origin changed");
                        res.expect_err(name)
                    });
                    for err in &errs {
                        assert_eq!(
                            discriminant(err),
                            discriminant(*want),
                            "{name} {class:?}: {errs:?}"
                        );
                    }
                }
            }
            let mut image = [9u8; 64];
            win.get_bytes(&mut image, 1, 0).unwrap();
            assert_eq!(image, [0; 64], "a malformed transfer moved bytes");
            win.unlock(1).unwrap();
        }
        w.barrier();
        win.free().unwrap();
    });
}
