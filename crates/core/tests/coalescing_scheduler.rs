//! The coalescing RMA scheduler: wire-level op merging and epoch
//! coarsening, §VIII-A access-mode rejection, and the committed-datatype
//! cache. That every coalesce mode keeps blocking program order's
//! payloads is checked by the differential oracle (`differential.rs`).

use armci::{AccKind, AccessMode, Armci, ArmciError, ArmciExt};
use armci_mpi::{ArmciMpi, CoalesceMode, Config};
use mpisim::{Runtime, RuntimeConfig};

fn quiet() -> RuntimeConfig {
    RuntimeConfig {
        charge_time: false,
        ..Default::default()
    }
}

fn cfg(coalesce: CoalesceMode, epochless: bool) -> Config {
    Config {
        coalesce,
        epochless,
        // These tests assert wire-scheduler internals (sched_* counters,
        // datatype cache hits); the intra-node shared-memory bypass would
        // route every op around the scheduler on the 2-rank single-node
        // layouts used here. shm-on payloads are checked by differential.rs.
        shm: false,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------
// §VIII-A: operations that contradict the access-mode hint are rejected
// ---------------------------------------------------------------------

#[test]
fn put_into_read_only_region_is_rejected() {
    Runtime::run_with(2, quiet(), |p| {
        let rt = ArmciMpi::new(p);
        let world = rt.world_group();
        let bases = rt.malloc(64).unwrap();
        rt.barrier();
        rt.set_access_mode(bases[p.rank()], &world, AccessMode::ReadOnly)
            .unwrap();
        if p.rank() == 0 {
            let err = rt.put(&[1u8; 8], bases[1]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ArmciError::AccessModeViolation {
                        mode: "read-only",
                        op: "put",
                        ..
                    }
                ),
                "unexpected error: {err}"
            );
            let err = rt
                .acc(AccKind::Double(1.0), &[0u8; 8], bases[1])
                .unwrap_err();
            assert!(matches!(
                err,
                ArmciError::AccessModeViolation {
                    mode: "read-only",
                    op: "accumulate",
                    ..
                }
            ));
            // the nonblocking path rejects at plan time too
            assert!(rt.nb_put(&[1u8; 8], bases[1]).is_err());
            // reads are what the hint promises — still fine
            let mut b = [0u8; 8];
            rt.get(bases[1], &mut b).unwrap();
        }
        rt.barrier();
        rt.set_access_mode(bases[p.rank()], &world, AccessMode::Standard)
            .unwrap();
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    });
}

#[test]
fn get_from_accumulate_only_region_is_rejected() {
    Runtime::run_with(2, quiet(), |p| {
        let rt = ArmciMpi::new(p);
        let world = rt.world_group();
        let bases = rt.malloc(64).unwrap();
        rt.barrier();
        rt.set_access_mode(bases[p.rank()], &world, AccessMode::AccumulateOnly)
            .unwrap();
        if p.rank() == 0 {
            let mut b = [0u8; 8];
            let err = rt.get(bases[1], &mut b).unwrap_err();
            assert!(
                matches!(
                    err,
                    ArmciError::AccessModeViolation {
                        mode: "accumulate-only",
                        op: "get",
                        ..
                    }
                ),
                "unexpected error: {err}"
            );
            assert!(rt.put(&[1u8; 8], bases[1]).is_err());
            // accumulates are the promise — still fine
            rt.acc_f64s(1.0, &[1.0], bases[1]).unwrap();
        }
        rt.barrier();
        rt.set_access_mode(bases[p.rank()], &world, AccessMode::Standard)
            .unwrap();
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    });
}

// ---------------------------------------------------------------------
// Wire-level merging and the committed-datatype cache
// ---------------------------------------------------------------------

/// Eight adjacent disjoint nonblocking puts to one target coalesce into
/// one epoch *and* one wire operation (the queue's coarsened epoch gives
/// the one epoch; run merging is what removes the other seven wire ops).
#[test]
fn adjacent_puts_merge_into_one_wire_op() {
    Runtime::run_with(2, quiet(), |p| {
        let rt = ArmciMpi::with_config(p, cfg(CoalesceMode::Auto, false));
        let bases = rt.malloc(64).unwrap();
        rt.barrier();
        if p.rank() == 0 {
            let mut hs = Vec::new();
            for i in 0..8usize {
                let payload = [i as u8 + 1; 8];
                hs.push(rt.nb_put(&payload, bases[1].offset(i * 8)).unwrap());
            }
            rt.wait_all(hs).unwrap();
            let st = rt.stats();
            assert_eq!(st.epochs, 1, "one coarsened epoch");
            assert_eq!(st.puts, 1, "eight queued puts, one wire put");
            let g = rt.stage_stats();
            assert_eq!(g.sched_enqueued, 8);
            assert_eq!(g.sched_runs, 1);
            assert_eq!(g.sched_ops_merged(), 7);
            assert_eq!(g.sched_segs_in, 8);
            assert_eq!(g.sched_segs_out, 1, "adjacent segments merged");
        }
        rt.barrier();
        if p.rank() == 1 {
            let mut img = vec![0u8; 64];
            rt.get(bases[1], &mut img).unwrap();
            for i in 0..8usize {
                assert_eq!(&img[i * 8..(i + 1) * 8], &[i as u8 + 1; 8]);
            }
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    });
}

/// Repeated same-shape strided transfers hit the committed-datatype
/// cache after the first commit.
#[test]
fn repeated_strided_shape_hits_dtype_cache() {
    Runtime::run_with(2, quiet(), |p| {
        let rt = ArmciMpi::with_config(p, cfg(CoalesceMode::Datatype, true));
        let bases = rt.malloc(8 * 64).unwrap();
        rt.barrier();
        if p.rank() == 0 {
            // 8 rows × 8 bytes at stride 64: a non-contiguous shape the
            // merged issue commits as one indexed datatype.
            let local = vec![7u8; 8 * 8];
            for _ in 0..4 {
                let h = rt
                    .nb_put_strided(&local, &[8], bases[1], &[64], &[8, 8])
                    .unwrap();
                rt.wait(h).unwrap();
            }
            let g = rt.stage_stats();
            assert_eq!(g.dtype_misses, 1, "first flush commits the shape");
            assert_eq!(g.dtype_hits, 3, "remaining flushes reuse it");
            assert!(g.dtype_hit_rate() > 0.7);
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    });
}

/// A CCSD-shaped prefetch volley under the default `Config`: tile gets
/// alternate between two arrays (GMRs), half from the peer node and half
/// from this rank's own block, and the second array's tiles recur once
/// per task, as the T tiles do. Queues on different `(GMR, target)`
/// pairs stay open side by side, so each remote pair flushes once and
/// merges its tiles; self-owned tiles complete eagerly on the shm route
/// without flushing anything. The payloads equal blocking gets'.
#[test]
fn ccsd_volley_flushes_once_per_pair_and_merges() {
    const N: usize = 16; // f64 elements per row and rows per rank's block
    const ROW: usize = N * 8;
    let mut platform =
        simnet::Platform::get(simnet::PlatformId::InfiniBandCluster).customized("ccsd-volley-test");
    platform.sockets_per_node = 1;
    platform.cores_per_socket = 1;
    let layout = RuntimeConfig {
        platform,
        charge_time: false,
        ..Default::default()
    };
    Runtime::run_with(2, layout, |p| {
        let rt = ArmciMpi::with_config(p, Config::default());
        let me = p.rank();
        let arrays = [rt.malloc(N * ROW).unwrap(), rt.malloc(N * ROW).unwrap()];
        for (a, bases) in arrays.iter().enumerate() {
            rt.access_mut(bases[me], N * ROW, &mut |b| {
                for (i, x) in b.chunks_exact_mut(8).enumerate() {
                    x.copy_from_slice(&((a * 10_000 + me * 1000 + i) as f64).to_le_bytes());
                }
            })
            .unwrap();
        }
        rt.barrier();
        if me == 0 {
            // A 4×4 tile of doubles: 4 rows of 32 bytes at the row stride.
            let tile = |owner: usize, r: usize, c: usize, a: usize| {
                arrays[a][owner].offset(r * 4 * ROW + c * 32)
            };
            let mut volley = Vec::new();
            for task in 0..4 {
                for pair in 0..4 {
                    let owner = pair % 2;
                    volley.push(tile(owner, task, pair, 0));
                    volley.push(tile(owner, 0, pair, 1));
                }
            }
            let mut got = vec![vec![0u8; 128]; volley.len()];
            let handles: Vec<_> = volley
                .iter()
                .zip(&mut got)
                .map(|(&addr, buf)| {
                    rt.nb_get_strided(addr, &[ROW], buf, &[32], &[32, 4])
                        .unwrap()
                })
                .collect();
            assert_eq!(
                rt.stage_stats().sched_flushes,
                0,
                "nothing flushes mid-volley"
            );
            rt.wait_all(handles).unwrap();
            let g = rt.stage_stats();
            assert_eq!(g.sched_enqueued, 16, "the remote half is queued");
            assert_eq!(g.sched_flushes, 2, "one flush per remote (GMR, target)");
            assert!(g.sched_ops_merged() > 0, "{g:?}");
            // The V queue's 8 disjoint tiles form one run; the T queue's
            // 2 tiles recur once per task and cut 4 runs. The rows sit a
            // tile column apart, so no segment fuses.
            assert_eq!(
                (g.sched_runs, g.sched_segs_in, g.sched_segs_out),
                (5, 64, 64),
                "{g:?}"
            );
            assert_eq!(g.shm_hits, 16, "self-owned tiles take the shm route");
            for (&addr, nb) in volley.iter().zip(&got) {
                let mut want = vec![0u8; 128];
                rt.get_strided(addr, &[ROW], &mut want, &[32], &[32, 4])
                    .unwrap();
                assert_eq!(nb, &want);
            }
        }
        rt.barrier();
        for bases in &arrays {
            rt.free(bases[me]).unwrap();
        }
    });
}
