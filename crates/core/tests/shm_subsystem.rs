//! The intra-node shared-memory subsystem: the fast-path counters, the
//! eager completion of bypassed nonblocking operations, and the shm
//! route's bracket under each wire discipline. That the shm route moves
//! the wire path's payloads is checked by the differential oracle
//! (`differential.rs`).

use armci::{AccKind, Armci};
use armci_mpi::{ArmciMpi, Config, ProgressMode, TransportKind};
use mpisim::{Runtime, RuntimeConfig};
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
