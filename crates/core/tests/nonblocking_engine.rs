//! Nonblocking transfer engine: aggregation, overlap, and the
//! serialisation rules that keep deferred operations safe.
//!
//! The headline test demonstrates the §VIII-B(3) claim: N nonblocking
//! operations to N distinct targets in epochless mode complete in far
//! less virtual time than N sequential blocking epochs, because the
//! engine keeps one flush-based aggregate epoch open per target and
//! only pays per-op issue overhead up front.

use armci::{Armci, ArmciError, ArmciExt, IovDesc, Local, NbHandle, Remote, StridedMethod};
use armci_mpi::{ArmciMpi, Config};
use mpisim::{Proc, Runtime, RuntimeConfig};

fn quiet() -> RuntimeConfig {
    RuntimeConfig {
        charge_time: false,
        ..Default::default()
    }
}

// Every layout in this file fits on one node, so the intra-node
// shared-memory bypass would route ops around the deferred engine whose
// counters and overlap schedule these tests assert. Pin the wire path;
// shm-on payloads are checked by differential.rs.
fn epochless() -> Config {
    Config {
        epochless: true,
        shm: false,
        ..Default::default()
    }
}

fn mpi2() -> Config {
    Config {
        shm: false,
        ..Default::default()
    }
}

// ----------------------------------------------------------------------
// Overlap: distinct targets, virtual time + stage stats
// ----------------------------------------------------------------------

const OVERLAP_RANKS: usize = 5;
const OVERLAP_BYTES: usize = 1 << 20;

/// Rank 0 moves `OVERLAP_BYTES` to every peer; returns rank 0's virtual
/// elapsed time for the transfer phase.
fn timed_fanout(nonblocking: bool) -> f64 {
    let res = Runtime::run_with(OVERLAP_RANKS, RuntimeConfig::default(), move |p: &Proc| {
        let rt = ArmciMpi::with_config(p, epochless());
        let bases = rt.malloc(OVERLAP_BYTES).unwrap();
        rt.barrier();
        let mut elapsed = 0.0;
        if p.rank() == 0 {
            let src = vec![7u8; OVERLAP_BYTES];
            let t0 = p.world().clock_now();
            if nonblocking {
                let mut handles = Vec::new();
                for base in &bases[1..] {
                    handles.push(rt.nb_put(&src, *base).unwrap());
                }
                rt.wait_all(handles).unwrap();
            } else {
                for base in &bases[1..] {
                    rt.put(&src, *base).unwrap();
                }
            }
            elapsed = p.world().clock_now() - t0;

            if nonblocking {
                let g = rt.stage_stats();
                // One aggregate epoch per distinct target, all concurrent.
                assert_eq!(g.acquires as usize, OVERLAP_RANKS - 1);
                assert_eq!(g.nb_submitted as usize, OVERLAP_RANKS - 1);
                assert_eq!(g.nb_aggregated, 0);
                assert_eq!(g.completes as usize, OVERLAP_RANKS - 1);
                assert_eq!(g.nb_waits as usize, OVERLAP_RANKS - 1);
            }
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
        elapsed
    });
    res[0]
}

#[test]
fn nb_fanout_overlaps_where_blocking_serialises() {
    let blocking = timed_fanout(false);
    let nb = timed_fanout(true);
    assert!(blocking > 0.0 && nb > 0.0, "virtual clock did not advance");
    // Blocking pays N full transfer costs back to back; the nonblocking
    // fan-out pays N issue overheads plus ~one transfer cost. Require a
    // decisive win, not a rounding artefact.
    assert!(
        nb < blocking * 0.5,
        "no overlap: nonblocking {nb} s vs blocking {blocking} s"
    );
}

// ----------------------------------------------------------------------
// Aggregation: repeated ops to one target share an epoch (MPI-2)
// ----------------------------------------------------------------------

#[test]
fn nb_ops_to_same_target_aggregate_into_one_epoch() {
    Runtime::run_with(2, quiet(), |p: &Proc| {
        let rt = ArmciMpi::with_config(p, mpi2());
        let bases = rt.malloc(64).unwrap();
        rt.barrier();
        if p.rank() == 0 {
            let mut handles = Vec::new();
            for i in 0..4usize {
                let v = [i as u8 + 1; 8];
                handles.push(rt.nb_put(&v, bases[1].offset(i * 8)).unwrap());
            }
            let g = rt.stage_stats();
            assert_eq!(g.acquires, 1, "same-target ops must share one epoch");
            assert_eq!(g.nb_submitted, 4);
            assert_eq!(g.nb_aggregated, 3);
            assert_eq!(g.completes, 0, "nothing completed before wait");
            rt.wait_all(handles).unwrap();
            let g = rt.stage_stats();
            assert_eq!(g.completes, 1, "one unlock retires the whole epoch");
        }
        rt.barrier();
        if p.rank() == 1 {
            rt.access(bases[1], 32, &mut |b| {
                for i in 0..4 {
                    assert_eq!(&b[i * 8..i * 8 + 8], &[i as u8 + 1; 8]);
                }
            })
            .unwrap();
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    });
}

#[test]
fn mpi2_conflicting_ops_split_the_epoch() {
    // Two puts to the same bytes cannot share an MPI-2 epoch (conflicting
    // accesses within one epoch are erroneous): the second forces the
    // first epoch to retire and opens a fresh one. Program order is
    // preserved, so the later write wins.
    Runtime::run_with(2, quiet(), |p: &Proc| {
        let rt = ArmciMpi::with_config(p, mpi2());
        let bases = rt.malloc(8).unwrap();
        rt.barrier();
        if p.rank() == 0 {
            let h1 = rt.nb_put(&[1u8; 8], bases[1]).unwrap();
            let h2 = rt.nb_put(&[2u8; 8], bases[1]).unwrap();
            let g = rt.stage_stats();
            assert_eq!(g.acquires, 2, "conflicting ops must not aggregate");
            assert_eq!(g.completes, 1, "first epoch retired on conflict");
            rt.wait_all(vec![h1, h2]).unwrap();
        }
        rt.barrier();
        if p.rank() == 1 {
            rt.access(bases[1], 8, &mut |b| assert_eq!(b, &[2u8; 8]))
                .unwrap();
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    });
}

#[test]
fn mpi2_second_target_leaves_first_queue_open() {
    // An MPI-2 scheduler queue holds no lock until its flush, which takes
    // and releases exactly one: a second target opens its own queue and
    // leaves the first in flight, and each wait flushes only the queue
    // holding its handle, in whatever order the waits come.
    Runtime::run_with(3, quiet(), |p: &Proc| {
        let rt = ArmciMpi::with_config(p, mpi2());
        let bases = rt.malloc(8).unwrap();
        rt.barrier();
        if p.rank() == 0 {
            let h1 = rt.nb_put(&[1u8; 8], bases[1]).unwrap();
            let h2 = rt.nb_put(&[2u8; 8], bases[2]).unwrap();
            let g = rt.stage_stats();
            assert_eq!(g.acquires, 2);
            assert_eq!(g.completes, 0, "both queues open until a wait");
            rt.wait(h2).unwrap();
            assert_eq!(
                rt.stage_stats().completes,
                1,
                "a wait flushes its own queue"
            );
            rt.wait(h1).unwrap();
            assert_eq!(rt.stage_stats().completes, 2);
        }
        rt.barrier();
        if p.rank() > 0 {
            let v = p.rank() as u8;
            rt.access(bases[p.rank()], 8, &mut |b| assert_eq!(b, &[v; 8]))
                .unwrap();
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    });
}

#[test]
fn mpi2_crossed_queues_on_two_gmrs_do_not_deadlock() {
    // Both ranks queue MPI-2 puts to each other (and to themselves) on
    // two allocations, then wait in opposite orders, round after round.
    // Every flush takes one exclusive lock and releases it before the
    // next, so the crossed queues cannot hold-and-wait.
    const ROUNDS: usize = 32;
    Runtime::run_with(2, quiet(), |p: &Proc| {
        let rt = ArmciMpi::with_config(p, mpi2());
        let me = p.rank();
        let peer = 1 - me;
        let gmrs = [rt.malloc(64).unwrap(), rt.malloc(64).unwrap()];
        rt.barrier();
        for round in 0..ROUNDS {
            // Each rank writes its own 8-byte slot of every target block.
            let v = |g: usize, t: usize| (round * 8 + g * 4 + t * 2 + me) as u8;
            let mut handles = Vec::new();
            for (g, bases) in gmrs.iter().enumerate() {
                for t in [peer, me] {
                    handles.push(rt.nb_put(&[v(g, t); 8], bases[t].offset(me * 8)).unwrap());
                }
            }
            if me == 1 {
                handles.reverse();
            }
            for h in handles {
                rt.wait(h).unwrap();
            }
        }
        rt.barrier();
        for (g, bases) in gmrs.iter().enumerate() {
            rt.access(bases[me], 16, &mut |b| {
                for writer in 0..2 {
                    let want = ((ROUNDS - 1) * 8 + g * 4 + me * 2 + writer) as u8;
                    assert_eq!(&b[writer * 8..writer * 8 + 8], &[want; 8]);
                }
            })
            .unwrap();
        }
        rt.barrier();
        for bases in &gmrs {
            rt.free(bases[me]).unwrap();
        }
    });
}

// ----------------------------------------------------------------------
// Serialisation rules: blocking ops, DLA, staging, RMW
// ----------------------------------------------------------------------

#[test]
fn blocking_staging_copy_quiesces_pending_nb() {
    // A staged copy (access of the local window + blocking put) while a
    // nonblocking put is in flight must serialise, not tear.
    Runtime::run_with(3, quiet(), |p: &Proc| {
        let rt = ArmciMpi::with_config(p, epochless());
        let bases = rt.malloc(16).unwrap();
        rt.barrier();
        if p.rank() == 0 {
            rt.access_mut(bases[0], 16, &mut |b| b.fill(9)).unwrap();
            let h = rt.nb_put(&[5u8; 16], bases[1]).unwrap();
            assert_eq!(rt.stage_stats().completes, 0);
            // copy() stages through local access, which retires the
            // open aggregate epoch first (one complete), then runs its
            // own blocking put epoch (a second complete).
            rt.copy(bases[0], bases[2], 16).unwrap();
            assert_eq!(rt.stage_stats().completes, 2);
            // The handle was resolved by the quiesce; wait is a no-op Ok.
            rt.wait(h).unwrap();
        }
        rt.barrier();
        let expect = match p.rank() {
            1 => Some(5u8),
            2 => Some(9u8),
            _ => None,
        };
        if let Some(v) = expect {
            rt.access(bases[p.rank()], 16, &mut |b| {
                assert!(b.iter().all(|&x| x == v))
            })
            .unwrap();
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    });
}

#[test]
fn dla_access_serialises_against_outstanding_nb() {
    Runtime::run_with(2, quiet(), |p: &Proc| {
        let rt = ArmciMpi::with_config(p, epochless());
        let bases = rt.malloc(8).unwrap();
        rt.barrier();
        if p.rank() == 0 {
            let h = rt.nb_put(&[3u8; 8], bases[1]).unwrap();
            // Direct local access is a synchronisation point: the open
            // epoch is retired before the closure runs.
            rt.access_mut(bases[0], 8, &mut |b| b.fill(1)).unwrap();
            let g = rt.stage_stats();
            assert_eq!(g.acquires, 1);
            assert_eq!(g.completes, 1, "access must quiesce in-flight nb ops");
            rt.wait(h).unwrap();
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    });
}

#[test]
fn rmw_quiesces_only_its_own_allocation() {
    // NXTVAL-style counters live in their own GMR; an RMW there must not
    // retire in-flight transfers on unrelated arrays (that would destroy
    // the overlap schedule the proxy relies on).
    Runtime::run_with(2, quiet(), |p: &Proc| {
        let rt = ArmciMpi::with_config(p, epochless());
        let data = rt.malloc(64).unwrap();
        let counter = rt.malloc(8).unwrap();
        rt.barrier();
        if p.rank() == 0 {
            let h = rt.nb_put(&[4u8; 64], data[1]).unwrap();
            rt.fetch_add(counter[0], 1).unwrap();
            let g = rt.stage_stats();
            assert_eq!(
                g.completes, 0,
                "RMW on an unrelated GMR must leave the data epoch open"
            );
            rt.wait(h).unwrap();
            assert_eq!(rt.stage_stats().completes, 1);
        }
        rt.barrier();
        rt.free(data[p.rank()]).unwrap();
        rt.free(counter[p.rank()]).unwrap();
    });
}

#[test]
fn wait_on_unknown_handle_is_an_error() {
    Runtime::run_with(1, quiet(), |p: &Proc| {
        let rt = ArmciMpi::with_config(p, mpi2());
        assert!(rt.wait(NbHandle::deferred(997)).is_err());
        // Eager handles are always fine.
        rt.wait(NbHandle::eager()).unwrap();
    });
}

/// Issues a nonblocking I/O-vector put planned as one operation per
/// segment (`IovConservative`) and waits on it, then waits on the same
/// handle again: the second wait must find no record left. Disjoint
/// segments share one MPI-2 epoch; overlapping ones split across epochs,
/// so the handle is resolved by more than one flush.
fn double_wait_after_multi_plan_put(remote_addrs: [usize; 4]) -> ArmciError {
    let cfg = Config {
        iov: StridedMethod::IovConservative,
        ..mpi2()
    };
    Runtime::run_with(2, quiet(), move |p: &Proc| {
        let rt = ArmciMpi::with_config(p, cfg.clone());
        let bases = rt.malloc(64).unwrap();
        rt.barrier();
        let err = if p.rank() == 0 {
            let desc = IovDesc {
                rank: 1,
                bytes: 8,
                local_offsets: vec![0, 8, 16, 24],
                remote_addrs: remote_addrs.map(|a| bases[1].addr + a).to_vec(),
            };
            let h = rt
                .xfer(Remote::Iov(&desc), Local::Put(&[6u8; 32]), true)
                .unwrap();
            let id = h.id.expect("a wire put is deferred");
            rt.wait(h).unwrap();
            Some(rt.wait(NbHandle::deferred(id)).unwrap_err())
        } else {
            None
        };
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
        err
    })
    .swap_remove(0)
    .unwrap()
}

#[test]
fn second_wait_on_a_multi_plan_handle_is_an_error() {
    for addrs in [[0, 16, 32, 48], [0, 4, 8, 12]] {
        let err = double_wait_after_multi_plan_put(addrs);
        assert!(
            matches!(err, ArmciError::BadDescriptor(_)),
            "segments at {addrs:?}: {err}"
        );
    }
}
