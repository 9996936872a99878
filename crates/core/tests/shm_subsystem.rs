//! The intra-node shared-memory subsystem: route equivalence with the
//! wire path across rank layouts, the fast-path counters, and the
//! eager completion of bypassed nonblocking operations.

use armci::{AccKind, Armci};
use armci_mpi::{ArmciMpi, Config, ProgressMode, TransportKind};
use mpisim::{Runtime, RuntimeConfig};
use proptest::prelude::*;
use simnet::{Platform, PlatformId};

/// Runtime with `ranks_per_node` cores per node and no clock charging,
/// so layouts range from everything-on-one-node to one-rank-per-node.
fn layout(ranks_per_node: u32) -> RuntimeConfig {
    let mut platform =
        Platform::get(PlatformId::InfiniBandCluster).customized("shm-subsystem-test");
    platform.sockets_per_node = 1;
    platform.cores_per_socket = ranks_per_node;
    RuntimeConfig {
        platform,
        charge_time: false,
        ..Default::default()
    }
}

fn shm_cfg(shm: bool) -> Config {
    Config {
        shm,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------
// Fast-path counters and statistics mirroring
// ---------------------------------------------------------------------

#[test]
fn same_node_ops_hit_the_fast_path_and_mirror_op_stats() {
    Runtime::run_with(2, layout(2), |p| {
        let rt = ArmciMpi::new(p);
        let bases = rt.malloc(64).unwrap();
        rt.barrier();
        if p.rank() == 0 {
            let src = [7u8; 32];
            let mut dst = [0u8; 32];
            rt.put(&src, bases[1]).unwrap();
            rt.get(bases[1], &mut dst).unwrap();
            assert_eq!(dst, src);
            rt.acc(AccKind::Double(1.0), &[0u8; 16], bases[1]).unwrap();

            // The route is invisible to OpStats: same counters the wire
            // path would have produced.
            let s = rt.stats();
            assert_eq!((s.puts, s.gets, s.accs), (1, 1, 1));
            assert_eq!(s.bytes_put, 32);
            assert_eq!(s.bytes_got, 32);
            assert_eq!(s.bytes_acc, 16);
            assert_eq!(s.epochs, 3, "one epoch per blocking op, as on wire");

            // The route is visible only through the stage counters.
            let g = rt.stage_stats();
            assert_eq!(g.shm_hits, 3);
            assert_eq!(g.shm_bypass_bytes, 32 + 32 + 16);
            assert_eq!(g.executed_ops, 0, "nothing touched the NIC model");
            assert!((g.shm_hit_rate() - 1.0).abs() < f64::EPSILON);
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    });
}

#[test]
fn cross_node_ops_stay_on_the_wire() {
    Runtime::run_with(2, layout(1), |p| {
        let rt = ArmciMpi::new(p);
        let bases = rt.malloc(64).unwrap();
        rt.barrier();
        if p.rank() == 0 {
            rt.put(&[7u8; 32], bases[1]).unwrap();
            let g = rt.stage_stats();
            assert_eq!(g.shm_hits, 0);
            assert_eq!(g.shm_bypass_bytes, 0);
            assert!(g.executed_ops > 0);
            assert!(g.shm_hit_rate() < f64::EPSILON);
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    });
}

#[test]
fn forced_wire_config_never_routes_shm() {
    Runtime::run_with(2, layout(2), |p| {
        let rt = ArmciMpi::with_config(p, shm_cfg(false));
        let bases = rt.malloc(64).unwrap();
        rt.barrier();
        if p.rank() == 0 {
            rt.put(&[1u8; 16], bases[1]).unwrap();
            assert_eq!(rt.stage_stats().shm_hits, 0);
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    });
}

#[test]
fn bypassed_nonblocking_ops_complete_eagerly() {
    Runtime::run_with(2, layout(2), |p| {
        let rt = ArmciMpi::new(p);
        let bases = rt.malloc(64).unwrap();
        rt.barrier();
        if p.rank() == 0 {
            let mut hs = Vec::new();
            for i in 0..4usize {
                hs.push(
                    rt.nb_put(&[i as u8 + 1; 8], bases[1].offset(i * 8))
                        .unwrap(),
                );
            }
            let g = rt.stage_stats();
            assert_eq!(g.shm_hits, 4, "all four ops took the fast path");
            assert_eq!(g.nb_submitted, 0, "nothing entered the deferred engine");
            rt.wait_all(hs).unwrap();
            let mut img = vec![0u8; 32];
            rt.get(bases[1], &mut img).unwrap();
            for i in 0..4usize {
                assert_eq!(&img[i * 8..(i + 1) * 8], &[i as u8 + 1; 8]);
            }
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    });
}

#[test]
fn mixed_node_fanout_splits_by_reachability() {
    // Four ranks, two per node: targets 1 (same node as 0) and 2, 3
    // (other node). The same program hits both tiers.
    Runtime::run_with(4, layout(2), |p| {
        let rt = ArmciMpi::new(p);
        let bases = rt.malloc(64).unwrap();
        rt.barrier();
        if p.rank() == 0 {
            for (t, &base) in bases.iter().enumerate().skip(1) {
                rt.put(&[t as u8; 16], base).unwrap();
            }
            let g = rt.stage_stats();
            assert_eq!(g.shm_hits, 1, "only the node peer bypasses");
            assert_eq!(g.shm_bypass_bytes, 16);
            assert_eq!(g.executed_ops, 2, "off-node targets stay on wire");
            let s = rt.stats();
            assert_eq!(s.puts, 3, "OpStats blind to the route split");
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    });
}

// ---------------------------------------------------------------------
// Property: the shm route is observationally identical to the wire
// route under random layouts and op mixes
// ---------------------------------------------------------------------

/// One random operation: `(kind, target, slot, len, seed)`. Kinds 0–2
/// are blocking put/get/acc; 3–5 their nonblocking forms. Slots are
/// 8-byte (f64) units inside each rank's 256-byte region.
type MixOp = (u8, usize, usize, usize, u8);

fn arb_ops() -> impl Strategy<Value = Vec<MixOp>> {
    proptest::collection::vec((0u8..6, 1usize..4, 0usize..24, 1usize..6, 0u8..200), 1..14)
}

/// Replays an op mix from rank 0 over four ranks; returns the final
/// images of ranks 1–3 and the concatenated get results.
fn run_mix(ranks_per_node: u32, shm: bool, ops: Vec<MixOp>) -> (Vec<u8>, Vec<u8>) {
    Runtime::run_with(4, layout(ranks_per_node), move |p| {
        let rt = ArmciMpi::with_config(p, shm_cfg(shm));
        let bases = rt.malloc(256).unwrap();
        rt.barrier();
        let mut out = (Vec::new(), Vec::new());
        if p.rank() == 0 {
            let mut handles = Vec::new();
            let mut gets: Vec<Vec<u8>> = Vec::new();
            for &(kind, target, slot, len, seed) in &ops {
                let addr = bases[target].offset(slot * 8);
                let bytes = len * 8;
                match kind {
                    0 | 3 => {
                        let payload: Vec<u8> = (0..bytes)
                            .map(|i| (i as u8).wrapping_mul(13).wrapping_add(seed))
                            .collect();
                        if kind == 0 {
                            rt.put(&payload, addr).unwrap();
                        } else {
                            handles.push(rt.nb_put(&payload, addr).unwrap());
                        }
                    }
                    1 | 4 => {
                        let mut buf = vec![0u8; bytes];
                        if kind == 1 {
                            rt.get(addr, &mut buf).unwrap();
                        } else {
                            handles.push(rt.nb_get(addr, &mut buf).unwrap());
                        }
                        gets.push(buf);
                    }
                    _ => {
                        let raw: Vec<u8> = std::iter::repeat_n(f64::from(seed).to_le_bytes(), len)
                            .flatten()
                            .collect();
                        if kind == 2 {
                            rt.acc(AccKind::Double(1.0), &raw, addr).unwrap();
                        } else {
                            handles.push(rt.nb_acc(AccKind::Double(1.0), &raw, addr).unwrap());
                        }
                    }
                }
            }
            rt.wait_all(handles).unwrap();
            let mut images = Vec::new();
            for &base in &bases[1..] {
                let mut image = vec![0u8; 256];
                rt.get(base, &mut image).unwrap();
                images.extend(image);
            }
            out = (images, gets.concat());
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
        out
    })
    .swap_remove(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any mix of blocking and nonblocking puts, gets and accumulates
    /// leaves byte-identical remote memory and get results whether
    /// transfers ride the shared-memory fast path or the wire, on every
    /// node layout from fully-spread to fully-packed.
    #[test]
    fn shm_route_equivalent_to_wire(ops in arb_ops()) {
        for ranks_per_node in [1u32, 2, 4] {
            let wire = run_mix(ranks_per_node, false, ops.clone());
            let shm = run_mix(ranks_per_node, true, ops.clone());
            prop_assert_eq!(
                &shm, &wire,
                "route divergence at {} ranks/node", ranks_per_node
            );
        }
    }
}

// ---------------------------------------------------------------------
// The shm route under every wire discipline
// ---------------------------------------------------------------------

/// What a same-node put / get / acc / nonblocking put sequence from rank
/// 0 leaves behind: the bytes read back, the epoch and flush counts, the
/// shm stage counters, and rank 0's virtual time across the sequence.
#[derive(Debug, PartialEq)]
struct RouteOutcome {
    got: Vec<u8>,
    image: Vec<u8>,
    epochs: u64,
    flushes: u64,
    shm_hits: u64,
    shm_bypass_bytes: u64,
    executed_ops: u64,
    vtime_s: f64,
}

fn same_node_route(cfg: Config) -> RouteOutcome {
    let rc = RuntimeConfig {
        charge_time: true,
        ..layout(2)
    };
    let mut outs = Runtime::run_with(2, rc, move |p| {
        let rt = ArmciMpi::with_config(p, cfg.clone());
        let bases = rt.malloc(64).unwrap();
        rt.barrier();
        // Rank 0 hands a failure back instead of panicking, so rank 1 is
        // never left waiting in the barrier.
        let out = (p.rank() == 0).then(|| -> armci::ArmciResult<RouteOutcome> {
            rt.reset_stats();
            rt.reset_stage_stats();
            let t0 = rt.vtime();
            let t = bases[1];
            rt.put(&[7u8; 32], t)?;
            let mut got = vec![0u8; 32];
            rt.get(t, &mut got)?;
            let addend: Vec<u8> = [1.5f64, -2.0]
                .iter()
                .flat_map(|x| x.to_le_bytes())
                .collect();
            rt.acc(AccKind::Double(2.0), &addend, t.offset(32))?;
            let h = rt.nb_put(&[9u8; 8], t.offset(56))?;
            rt.wait(h)?;
            let mut image = vec![0u8; 64];
            rt.get(t, &mut image)?;
            let (s, g) = (rt.stats(), rt.stage_stats());
            Ok(RouteOutcome {
                got,
                image,
                epochs: s.epochs,
                flushes: s.flushes,
                shm_hits: g.shm_hits,
                shm_bypass_bytes: g.shm_bypass_bytes,
                executed_ops: g.executed_ops,
                vtime_s: rt.vtime() - t0,
            })
        });
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
        out
    });
    outs.swap_remove(0)
        .expect("rank 0 reports")
        .expect("same-node sequence")
}

/// The shm route runs through the one executor with the bracket of the
/// wire discipline: per-op MPI locks (one epoch per plan), a standing
/// `lock_all` under MPI epochless (one flush per plan), and per-op locks
/// again under the channel backend, which opens no `lock_all` for
/// `win_sync` to lean on. Payload, counters and rank 0's virtual time
/// are pinned to the values of the dedicated shm executor this route
/// replaced.
#[test]
fn shm_route_brackets_follow_each_wire_discipline() {
    let mut image = vec![7u8; 32];
    for x in [3.0f64, -4.0] {
        image.extend_from_slice(&x.to_le_bytes());
    }
    image.extend_from_slice(&[0; 8]);
    image.extend_from_slice(&[9; 8]);
    let expect = |epochs, flushes, vtime_s| RouteOutcome {
        got: vec![7; 32],
        image: image.clone(),
        epochs,
        flushes,
        // put, get, acc, nb_put, get: 32 + 32 + 16 + 8 + 64 bytes
        shm_hits: 5,
        shm_bypass_bytes: 152,
        executed_ops: 0,
        vtime_s,
    };
    let per_op = expect(5, 0, 5.067140000000003e-5);
    assert_eq!(same_node_route(Config::default()), per_op);
    let epochless = Config {
        epochless: true,
        ..Default::default()
    };
    assert_eq!(same_node_route(epochless), expect(0, 5, 5.71714e-5));
    let channel = Config {
        transport: TransportKind::Channel,
        ..Default::default()
    };
    assert_eq!(same_node_route(channel), per_op);
}

/// `ProgressMode::Agent` routes through the per-node agent on both wire
/// backends.
#[test]
fn agent_progress_resolves_on_both_wires() {
    Runtime::run_with(1, layout(1), |p| {
        for transport in [TransportKind::MpiRma, TransportKind::Channel] {
            let cfg = Config {
                transport,
                progress: ProgressMode::Agent,
                ..Default::default()
            };
            assert_eq!(ArmciMpi::with_config(p, cfg).progress_mode_name(), "agent");
        }
    });
}
