//! End-to-end tests of the simulated MPI runtime: p2p, collectives,
//! communicator creation, and passive-target RMA across real threads.

use mpisim::coll::ReduceOp;
use mpisim::mpi3::{CellOp, FetchOp};
use mpisim::{
    AccOp, Comm, Datatype, ElemType, LockMode, MpiError, Proc, RecvSrc, Runtime, RuntimeConfig,
    WinHandle, ANY_TAG,
};

fn quiet() -> RuntimeConfig {
    RuntimeConfig {
        charge_time: false,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------

#[test]
fn ring_pass() {
    Runtime::run_with(6, quiet(), |p: &Proc| {
        let w = p.world();
        let next = (w.rank() + 1) % w.size();
        let prev = (w.rank() + w.size() - 1) % w.size();
        w.send(next, 1, &[w.rank() as u8]);
        let (data, st) = w.recv(RecvSrc::Rank(prev), 1);
        assert_eq!(data, vec![prev as u8]);
        assert_eq!(st.source, prev);
    });
}

#[test]
fn wildcard_receive_collects_everyone() {
    Runtime::run_with(5, quiet(), |p: &Proc| {
        let w = p.world();
        if w.rank() == 0 {
            let mut seen = [false; 5];
            for _ in 1..5 {
                let (data, st) = w.recv(RecvSrc::Any, ANY_TAG);
                assert_eq!(data[0] as usize, st.source);
                seen[st.source] = true;
            }
            assert!(seen[1..].iter().all(|&b| b));
        } else {
            w.send(0, w.rank() as i32, &[w.rank() as u8]);
        }
    });
}

#[test]
fn messages_between_same_pair_are_ordered() {
    Runtime::run_with(2, quiet(), |p: &Proc| {
        let w = p.world();
        if w.rank() == 0 {
            for i in 0..100u32 {
                w.send(1, 7, &i.to_le_bytes());
            }
        } else {
            for i in 0..100u32 {
                let (d, _) = w.recv(RecvSrc::Rank(0), 7);
                assert_eq!(u32::from_le_bytes(d.try_into().unwrap()), i);
            }
        }
    });
}

#[test]
fn virtual_time_send_recv_ordering() {
    // Receiver cannot observe a message before it was (virtually) sent.
    Runtime::run(2, |p: &Proc| {
        let w = p.world();
        if w.rank() == 0 {
            p.compute(5.0);
            w.send(1, 0, &[1u8; 1024]);
        } else {
            let (_, _) = w.recv(RecvSrc::Rank(0), 0);
            assert!(p.clock().now() >= 5.0, "recv at {}", p.clock().now());
        }
    });
}

// ---------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------

#[test]
fn allgather_orders_by_rank() {
    Runtime::run_with(4, quiet(), |p: &Proc| {
        let w = p.world();
        let all = w.allgather_u64s(&[w.rank() as u64 + 10, 7]);
        assert_eq!(
            all,
            vec![vec![10, 7], vec![11, 7], vec![12, 7], vec![13, 7]]
        );
    });
}

#[test]
fn bcast_from_nonzero_root() {
    Runtime::run_with(4, quiet(), |p: &Proc| {
        let w = p.world();
        let payload = if w.rank() == 2 {
            Some(vec![42u8, 43])
        } else {
            None
        };
        assert_eq!(w.bcast_bytes(2, payload), vec![42, 43]);
    });
}

#[test]
fn allreduce_sum_and_max() {
    Runtime::run_with(4, quiet(), |p: &Proc| {
        let w = p.world();
        let r = w.rank() as f64;
        assert_eq!(w.allreduce_f64(ReduceOp::Sum, &[r, 1.0]), vec![6.0, 4.0]);
        assert_eq!(w.allreduce_i64(ReduceOp::Max, &[w.rank() as i64]), vec![3]);
    });
}

#[test]
fn maxloc_elects_lowest_winner() {
    Runtime::run_with(4, quiet(), |p: &Proc| {
        let w = p.world();
        // ranks 1 and 3 tie with value 5
        let v = if w.rank() % 2 == 1 { 5 } else { 0 };
        assert_eq!(w.maxloc_i64(v), (5, 1));
    });
}

#[test]
fn barrier_synchronises_clocks() {
    Runtime::run(3, |p: &Proc| {
        let w = p.world();
        p.compute(p.rank() as f64);
        w.barrier();
        assert!(p.clock().now() >= 2.0);
    });
}

/// Eight ranks on a host with fewer cores run thousands of back-to-back
/// rendezvous, so the collective cell's waiters both spin and park.
#[test]
fn collectives_stress_many_rounds() {
    const RANKS: i64 = 8;
    Runtime::run_with(RANKS as usize, quiet(), |p: &Proc| {
        let w = p.world();
        let me = p.rank() as i64;
        for round in 0..2_000i64 {
            w.barrier();
            let s = w.allreduce_i64(ReduceOp::Sum, &[round + me, 1]);
            assert_eq!(s, vec![RANKS * round + RANKS * (RANKS - 1) / 2, RANKS]);
            let m = w.allreduce_i64(ReduceOp::Max, &[(me + round) % RANKS]);
            assert_eq!(m, vec![RANKS - 1]);
        }
    });
}

// ---------------------------------------------------------------------
// Communicator creation
// ---------------------------------------------------------------------

#[test]
fn dup_is_independent_context() {
    Runtime::run_with(3, quiet(), |p: &Proc| {
        let w = p.world();
        let d = w.dup();
        assert_ne!(d.id(), w.id());
        assert_eq!(d.rank(), w.rank());
        assert_eq!(d.size(), w.size());
        // message sent on dup is invisible on world
        if d.rank() == 0 {
            d.send(1, 5, b"dup");
        }
        if d.rank() == 1 {
            let (data, _) = d.recv(RecvSrc::Rank(0), 5);
            assert_eq!(data, b"dup");
        }
    });
}

#[test]
fn split_by_parity_with_key_reversal() {
    Runtime::run_with(6, quiet(), |p: &Proc| {
        let w = p.world();
        let color = (w.rank() % 2) as i64;
        // reverse order within each group
        let key = -(w.rank() as i64);
        let sub = w.split(color, key).expect("member");
        assert_eq!(sub.size(), 3);
        // Highest world rank got key smallest -> comm rank 0.
        let expect_rank0_world = if color == 0 { 4 } else { 5 };
        assert_eq!(sub.world_rank_of(0), expect_rank0_world);
        // group collective works
        let sum = sub.allreduce_i64(ReduceOp::Sum, &[w.rank() as i64])[0];
        let expect: i64 = if color == 0 { 2 + 4 } else { 1 + 3 + 5 };
        assert_eq!(sum, expect);
    });
}

#[test]
fn split_undefined_color_returns_none() {
    Runtime::run_with(4, quiet(), |p: &Proc| {
        let w = p.world();
        let res = w.split(if w.rank() == 0 { -1 } else { 0 }, 0);
        if w.rank() == 0 {
            assert!(res.is_none());
        } else {
            let c = res.expect("member");
            assert_eq!(c.size(), 3);
        }
    });
}

#[test]
fn noncollective_creation_only_members_participate() {
    Runtime::run_with(6, quiet(), |p: &Proc| {
        let w = p.world();
        let members = [1usize, 3, 4];
        if members.contains(&w.rank()) {
            let g: Comm = w.create_noncollective(&members);
            assert_eq!(g.size(), 3);
            let my = members.iter().position(|&m| m == w.rank()).unwrap();
            assert_eq!(g.rank(), my);
            // the group is fully functional for collectives
            let s = g.allreduce_i64(ReduceOp::Sum, &[w.rank() as i64])[0];
            assert_eq!(s, 8);
        }
        // non-members do nothing — must not deadlock
    });
}

#[test]
fn nested_subgroups() {
    Runtime::run_with(8, quiet(), |p: &Proc| {
        let w = p.world();
        let half = w.split((w.rank() / 4) as i64, w.rank() as i64).unwrap();
        assert_eq!(half.size(), 4);
        let quarter = half.split((half.rank() / 2) as i64, 0).unwrap();
        assert_eq!(quarter.size(), 2);
        let s = quarter.allreduce_i64(ReduceOp::Sum, &[1])[0];
        assert_eq!(s, 2);
    });
}

// ---------------------------------------------------------------------
// RMA
// ---------------------------------------------------------------------

fn with_win<R: Send>(
    n: usize,
    size: usize,
    f: impl Fn(&Proc, &WinHandle) -> R + Send + Sync,
) -> Vec<R> {
    Runtime::run_with(n, quiet(), move |p: &Proc| {
        let w = p.world();
        let win = WinHandle::create(&w, size);
        let r = f(p, &win);
        w.barrier();
        win.free().unwrap();
        r
    })
}

#[test]
fn put_then_get_roundtrip() {
    with_win(2, 64, |p, win| {
        let w = win.comm().clone();
        if p.rank() == 0 {
            win.lock(LockMode::Exclusive, 1).unwrap();
            win.put_bytes(&[7u8; 16], 1, 8).unwrap();
            win.unlock(1).unwrap();
            w.barrier();
        } else {
            w.barrier();
            win.lock(LockMode::Exclusive, 1).unwrap();
            let local = win.with_local(|b| b.to_vec()).unwrap();
            win.unlock(1).unwrap();
            assert_eq!(&local[8..24], &[7u8; 16]);
            assert_eq!(&local[..8], &[0u8; 8]);
        }
    });
}

#[test]
fn get_reads_remote_window() {
    with_win(2, 32, |p, win| {
        let w = win.comm().clone();
        if p.rank() == 1 {
            win.lock(LockMode::Exclusive, 1).unwrap();
            win.with_local_mut(|b| b.iter_mut().enumerate().for_each(|(i, x)| *x = i as u8))
                .unwrap();
            win.unlock(1).unwrap();
        }
        w.barrier();
        if p.rank() == 0 {
            let mut buf = vec![0u8; 8];
            win.lock(LockMode::Shared, 1).unwrap();
            win.get_bytes(&mut buf, 1, 4).unwrap();
            win.unlock(1).unwrap();
            assert_eq!(buf, vec![4, 5, 6, 7, 8, 9, 10, 11]);
        }
    });
}

/// An accumulate's origin segments need not be element-aligned: the
/// mover packs the origin selection before combining, so two `f64`s
/// split across four 4-byte origin blocks add as whole elements.
#[test]
fn accumulate_packs_an_unaligned_origin_selection() {
    with_win(2, 32, |p, win| {
        if p.rank() == 0 {
            let packed: Vec<u8> = [1.5f64, 2.5].iter().flat_map(|x| x.to_le_bytes()).collect();
            let mut origin = vec![0xffu8; 32];
            for (i, half) in packed.chunks(4).enumerate() {
                origin[8 * i..8 * i + 4].copy_from_slice(half);
            }
            let odt = Datatype::Vector {
                count: 4,
                blocklen: 4,
                stride: 8,
            };
            let tdt = Datatype::contiguous(16);
            let ones: Vec<u8> = [1.0f64, 1.0].iter().flat_map(|x| x.to_le_bytes()).collect();
            win.lock(LockMode::Exclusive, 1).unwrap();
            win.put(&ones, &tdt, 1, 8, &tdt).unwrap();
            win.unlock(1).unwrap();
            win.lock(LockMode::Exclusive, 1).unwrap();
            let (elem, op) = (ElemType::F64, AccOp::Sum);
            win.accumulate(&origin, &odt, 1, 8, &tdt, elem, op).unwrap();
            win.unlock(1).unwrap();
            let mut got = [0u8; 16];
            win.lock(LockMode::Shared, 1).unwrap();
            win.get_bytes(&mut got, 1, 8).unwrap();
            win.unlock(1).unwrap();
            let vals: Vec<f64> = got
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            assert_eq!(vals, [2.5, 3.5]);
        }
    });
}

#[test]
fn accumulate_sums_from_all_ranks() {
    let n = 4;
    with_win(n, 8 * 4, |p, win| {
        let w = win.comm().clone();
        let contrib: Vec<u8> = (0..4)
            .flat_map(|i| ((p.rank() + i) as f64).to_le_bytes())
            .collect();
        win.lock(LockMode::Exclusive, 0).unwrap();
        win.accumulate(
            &contrib,
            &Datatype::contiguous(32),
            0,
            0,
            &Datatype::contiguous(32),
            ElemType::F64,
            AccOp::Sum,
        )
        .unwrap();
        win.unlock(0).unwrap();
        w.barrier();
        if p.rank() == 0 {
            win.lock(LockMode::Exclusive, 0).unwrap();
            let vals = win
                .with_local(|b| {
                    b.chunks_exact(8)
                        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                        .collect::<Vec<_>>()
                })
                .unwrap();
            win.unlock(0).unwrap();
            // sum over ranks r of (r + i) = 6 + 4i
            for (i, v) in vals.iter().enumerate().take(4) {
                assert_eq!(*v, 6.0 + 4.0 * i as f64);
            }
        }
    });
}

#[test]
fn strided_put_with_subarray_datatype() {
    with_win(2, 6 * 8, |p, win| {
        let w = win.comm().clone();
        if p.rank() == 0 {
            // target is a 6-byte-wide "array" × 8 rows: write a 3x4 patch at (1,2)
            let tdt = Datatype::subarray(&[8, 6], &[3, 4], &[1, 2], 1).unwrap();
            let src: Vec<u8> = (1..=12).collect();
            win.lock(LockMode::Exclusive, 1).unwrap();
            win.put(&src, &Datatype::contiguous(12), 1, 0, &tdt)
                .unwrap();
            win.unlock(1).unwrap();
        }
        w.barrier();
        if p.rank() == 1 {
            win.lock(LockMode::Exclusive, 1).unwrap();
            let local = win.with_local(|b| b.to_vec()).unwrap();
            win.unlock(1).unwrap();
            let mut expect = vec![0u8; 48];
            for r in 0..3 {
                for c in 0..4 {
                    expect[(1 + r) * 6 + 2 + c] = (r * 4 + c + 1) as u8;
                }
            }
            assert_eq!(local, expect);
        }
    });
}

#[test]
fn conflicting_puts_in_one_epoch_detected() {
    Runtime::run_with(2, RuntimeConfig::default(), |p: &Proc| {
        let w = p.world();
        let win = WinHandle::create(&w, 64);
        if p.rank() == 0 {
            win.lock(LockMode::Exclusive, 1).unwrap();
            win.put_bytes(&[1u8; 16], 1, 0).unwrap();
            let err = win.put_bytes(&[2u8; 16], 1, 8).unwrap_err();
            assert!(matches!(err, MpiError::ConflictingAccess { .. }), "{err}");
            win.unlock(1).unwrap();
        }
        w.barrier();
        win.free().unwrap();
    });
}

#[test]
fn nonconflicting_ops_in_one_epoch_allowed() {
    Runtime::run_with(2, RuntimeConfig::default(), |p: &Proc| {
        let w = p.world();
        let win = WinHandle::create(&w, 64);
        if p.rank() == 0 {
            win.lock(LockMode::Exclusive, 1).unwrap();
            win.put_bytes(&[1u8; 8], 1, 0).unwrap();
            win.put_bytes(&[2u8; 8], 1, 8).unwrap();
            let mut buf = [0u8; 8];
            win.get_bytes(&mut buf, 1, 32).unwrap();
            win.unlock(1).unwrap();
        }
        w.barrier();
        win.free().unwrap();
    });
}

#[test]
fn overlapping_gets_are_fine_overlapping_acc_same_op_fine() {
    Runtime::run_with(2, RuntimeConfig::default(), |p: &Proc| {
        let w = p.world();
        let win = WinHandle::create(&w, 64);
        if p.rank() == 0 {
            let mut a = [0u8; 16];
            win.lock(LockMode::Shared, 1).unwrap();
            win.get_bytes(&mut a, 1, 0).unwrap();
            win.get_bytes(&mut a, 1, 8).unwrap();
            win.unlock(1).unwrap();

            let x = [0u8; 16];
            win.lock(LockMode::Exclusive, 1).unwrap();
            let dt = Datatype::contiguous(16);
            win.accumulate(&x, &dt, 1, 0, &dt, ElemType::F64, AccOp::Sum)
                .unwrap();
            win.accumulate(&x, &dt, 1, 8, &dt, ElemType::F64, AccOp::Sum)
                .unwrap();
            win.unlock(1).unwrap();
        }
        w.barrier();
        win.free().unwrap();
    });
}

#[test]
fn rma_outside_epoch_rejected() {
    Runtime::run_with(2, RuntimeConfig::default(), |p: &Proc| {
        let w = p.world();
        let win = WinHandle::create(&w, 16);
        if p.rank() == 0 {
            let err = win.put_bytes(&[1u8; 4], 1, 0).unwrap_err();
            assert!(matches!(err, MpiError::NoEpoch { target: 1 }));
        }
        w.barrier();
        win.free().unwrap();
    });
}

#[test]
fn double_lock_rejected() {
    Runtime::run_with(2, quiet(), |p: &Proc| {
        let w = p.world();
        let win = WinHandle::create(&w, 16);
        if p.rank() == 0 {
            win.lock(LockMode::Shared, 1).unwrap();
            let err = win.lock(LockMode::Shared, 1).unwrap_err();
            assert!(matches!(err, MpiError::AlreadyLocked { target: 1 }));
            win.unlock(1).unwrap();
            let err = win.unlock(1).unwrap_err();
            assert!(matches!(err, MpiError::NotLocked { target: 1 }));
        }
        w.barrier();
        win.free().unwrap();
    });
}

#[test]
fn out_of_bounds_rejected() {
    Runtime::run_with(2, quiet(), |p: &Proc| {
        let w = p.world();
        let win = WinHandle::create(&w, 16);
        if p.rank() == 0 {
            win.lock(LockMode::Exclusive, 1).unwrap();
            let err = win.put_bytes(&[0u8; 8], 1, 12).unwrap_err();
            assert!(matches!(err, MpiError::OutOfBounds { .. }));
            win.unlock(1).unwrap();
        }
        w.barrier();
        win.free().unwrap();
    });
}

#[test]
fn local_mut_requires_exclusive() {
    Runtime::run_with(1, quiet(), |p: &Proc| {
        let w = p.world();
        let win = WinHandle::create(&w, 16);
        assert!(win.with_local_mut(|_| ()).is_err());
        win.lock(LockMode::Shared, 0).unwrap();
        assert!(win.with_local(|_| ()).is_ok());
        assert!(win.with_local_mut(|_| ()).is_err());
        win.unlock(0).unwrap();
        win.lock(LockMode::Exclusive, 0).unwrap();
        assert!(win.with_local_mut(|b| b[0] = 9).is_ok());
        win.unlock(0).unwrap();
        let _ = p;
        win.free().unwrap();
    });
}

#[test]
fn zero_size_window_slices_allowed() {
    Runtime::run_with(3, quiet(), |p: &Proc| {
        let w = p.world();
        // only rank 1 contributes memory
        let size = if p.rank() == 1 { 32 } else { 0 };
        let win = WinHandle::create(&w, size);
        assert_eq!(win.size_of(0), 0);
        assert_eq!(win.size_of(1), 32);
        if p.rank() == 2 {
            win.lock(LockMode::Exclusive, 1).unwrap();
            win.put_bytes(&[5u8; 4], 1, 0).unwrap();
            win.unlock(1).unwrap();
        }
        w.barrier();
        win.free().unwrap();
    });
}

#[test]
fn exclusive_epochs_serialize_concurrent_increments() {
    // Classic lost-update check: every rank does read-modify-write on the
    // same counter under an exclusive epoch; no update may be lost.
    let n = 8;
    let iters = 50;
    let cfg = RuntimeConfig {
        charge_time: false,
        semantic_checks: false, // the get+put pair below is exactly the
        // pattern MPI-2 forbids in one epoch (§V-D motivates mutexes);
        // disable the checker to demonstrate the exclusive lock's atomicity.
        ..Default::default()
    };
    Runtime::run_with(n, cfg, move |p: &Proc| {
        let w = p.world();
        let win = WinHandle::create(&w, 8);
        for _ in 0..iters {
            win.lock(LockMode::Exclusive, 0).unwrap();
            let mut buf = [0u8; 8];
            win.get_bytes(&mut buf, 0, 0).unwrap();
            let v = u64::from_le_bytes(buf) + 1;
            // get+put overlap would be flagged within one epoch with
            // checks on; the quiet() config disables checks, and the
            // exclusive lock makes the pair atomic anyway. This mirrors
            // why MPI-2 RMW needs mutexes (§V-D) — we model the "cheat"
            // that a correct implementation cannot use.
            win.put_bytes(&v.to_le_bytes(), 0, 0).unwrap();
            win.unlock(0).unwrap();
        }
        w.barrier();
        let total = if p.rank() == 0 {
            win.lock(LockMode::Shared, 0).unwrap();
            let mut buf = [0u8; 8];
            win.get_bytes(&mut buf, 0, 0).unwrap();
            win.unlock(0).unwrap();
            u64::from_le_bytes(buf)
        } else {
            0
        };
        w.barrier();
        win.free().unwrap();
        if p.rank() == 0 {
            assert_eq!(total, (n * iters) as u64);
        }
    });
}

#[test]
fn window_use_after_free_fails() {
    Runtime::run_with(2, quiet(), |p: &Proc| {
        let w = p.world();
        let win = WinHandle::create(&w, 16);
        let win2 = WinHandle::create(&w, 16);
        w.barrier();
        win2.free().unwrap();
        // win still OK
        win.lock(LockMode::Shared, 0).unwrap();
        win.unlock(0).unwrap();
        w.barrier();
        win.free().unwrap();
        let _ = p;
    });
}

// ---------------------------------------------------------------------
// MPI-3 extensions
// ---------------------------------------------------------------------

#[test]
fn fetch_and_op_is_atomic_under_contention() {
    let n = 8;
    let iters = 200;
    let results = Runtime::run_with(n, quiet(), move |p: &Proc| {
        let w = p.world();
        let win = WinHandle::create(&w, 8);
        win.lock_all().unwrap();
        let mut fetched = Vec::with_capacity(iters);
        for _ in 0..iters {
            fetched.push(win.fetch_and_op_i64(1, 0, 0, FetchOp::Sum).unwrap());
        }
        win.unlock_all().unwrap();
        w.barrier();
        let final_val = if p.rank() == 0 {
            win.lock(LockMode::Shared, 0).unwrap();
            let mut b = [0u8; 8];
            win.get_bytes(&mut b, 0, 0).unwrap();
            win.unlock(0).unwrap();
            i64::from_le_bytes(b)
        } else {
            -1
        };
        w.barrier();
        win.free().unwrap();
        (fetched, final_val)
    });
    // Final value = total increments; every fetched value unique.
    let mut all: Vec<i64> = results.iter().flat_map(|(f, _)| f.clone()).collect();
    all.sort_unstable();
    let expect: Vec<i64> = (0..(n * iters) as i64).collect();
    assert_eq!(
        all, expect,
        "fetch_and_op returned duplicate/missing values"
    );
    assert_eq!(results[0].1, (n * iters) as i64);
}

#[test]
fn compare_and_swap_spinlock() {
    let n = 4;
    Runtime::run_with(n, quiet(), move |p: &Proc| {
        let w = p.world();
        // word 0: lock; words 1: protected counter
        let win = WinHandle::create(&w, 16);
        win.lock_all().unwrap();
        for _ in 0..25 {
            // acquire
            let acquire = CellOp::CompareAndSwap {
                compare: 0,
                swap: 1,
            };
            while win.atomic_i64(acquire, 0, 0).unwrap() != 0 {
                std::hint::spin_loop();
            }
            let v = win.fetch_and_op_i64(0, 0, 8, FetchOp::NoOp).unwrap();
            win.fetch_and_op_i64(v + 1, 0, 8, FetchOp::Replace).unwrap();
            // release
            win.fetch_and_op_i64(0, 0, 0, FetchOp::Replace).unwrap();
        }
        win.unlock_all().unwrap();
        w.barrier();
        if p.rank() == 0 {
            win.lock(LockMode::Shared, 0).unwrap();
            let mut b = [0u8; 8];
            win.get_bytes(&mut b, 0, 8).unwrap();
            win.unlock(0).unwrap();
            assert_eq!(i64::from_le_bytes(b), (n * 25) as i64);
        }
        w.barrier();
        win.free().unwrap();
    });
}

#[test]
fn lock_all_conflicts_with_per_target_locks() {
    Runtime::run_with(2, quiet(), |p: &Proc| {
        let w = p.world();
        let win = WinHandle::create(&w, 16);
        if p.rank() == 0 {
            win.lock(LockMode::Shared, 0).unwrap();
            assert!(matches!(
                win.lock_all(),
                Err(MpiError::EpochModeMixed { .. })
            ));
            win.unlock(0).unwrap();
            win.lock_all().unwrap();
            assert!(matches!(
                win.lock(LockMode::Shared, 1),
                Err(MpiError::EpochModeMixed { .. })
            ));
            win.unlock_all().unwrap();
        }
        w.barrier();
        win.free().unwrap();
    });
}

#[test]
fn lock_all_permits_conflicts_without_error() {
    // MPI-3: conflicting accesses are undefined, not erroneous — the
    // checker must not fire under lock_all.
    Runtime::run_with(2, RuntimeConfig::default(), |p: &Proc| {
        let w = p.world();
        let win = WinHandle::create(&w, 16);
        if p.rank() == 0 {
            win.lock_all().unwrap();
            win.put_bytes(&[1u8; 8], 1, 0).unwrap();
            win.put_bytes(&[2u8; 8], 1, 4).unwrap(); // overlapping: allowed
            win.unlock_all().unwrap();
        }
        w.barrier();
        win.free().unwrap();
    });
}

// ---------------------------------------------------------------------
// Virtual-time sanity
// ---------------------------------------------------------------------

#[test]
fn bigger_transfers_cost_more_virtual_time() {
    let times = Runtime::run(2, |p: &Proc| {
        let w = p.world();
        let win = WinHandle::create(&w, 1 << 20);
        let mut small_t = 0.0;
        let mut big_t = 0.0;
        if p.rank() == 0 {
            let t0 = p.clock().now();
            win.lock(LockMode::Exclusive, 1).unwrap();
            win.put_bytes(&[0u8; 64], 1, 0).unwrap();
            win.unlock(1).unwrap();
            small_t = p.clock().now() - t0;
            let t1 = p.clock().now();
            win.lock(LockMode::Exclusive, 1).unwrap();
            win.put_bytes(&vec![0u8; 1 << 20], 1, 0).unwrap();
            win.unlock(1).unwrap();
            big_t = p.clock().now() - t1;
        }
        w.barrier();
        win.free().unwrap();
        (small_t, big_t)
    });
    let (small, big) = times[0];
    assert!(big > 10.0 * small, "big {big} small {small}");
}

// ---------------------------------------------------------------------
// A panicking rank
// ---------------------------------------------------------------------

/// Rank 0 panics inside an exclusive epoch on rank 1's window while its
/// peers wait on it in a lock (rank 1), a receive (rank 2) and a barrier
/// (rank 3). The run must fail with rank 0's panic rather than hang; a
/// watchdog bounds it at 10 s.
#[test]
fn a_panicking_rank_fails_the_run_instead_of_hanging_it() {
    let (tx, rx) = std::sync::mpsc::channel();
    let run = std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(|| {
            Runtime::run_with(4, quiet(), |p: &Proc| {
                let w = p.world();
                let win = WinHandle::create(&w, 64);
                if w.rank() == 0 {
                    win.lock(LockMode::Exclusive, 1).unwrap();
                }
                w.barrier();
                match w.rank() {
                    0 => panic!("rank 0 fails inside its epoch"),
                    1 => win.lock(LockMode::Exclusive, 1).unwrap(),
                    2 => drop(w.recv(RecvSrc::Rank(0), 7)),
                    _ => w.barrier(),
                }
            })
        });
        tx.send(outcome.err()).unwrap();
    });
    let payload = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("the run hung after rank 0 panicked")
        .expect("the run returned although rank 0 panicked");
    run.join().unwrap();
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"rank 0 fails inside its epoch"),
        "the first panic is re-raised"
    );
}

// ---------------------------------------------------------------------
// Recorder scoping (nothing records with the recorder compiled out)
// ---------------------------------------------------------------------

/// Events stably sorted by rank: program order within a rank, whatever
/// order the rank threads flushed in.
fn by_rank(mut events: Vec<obs::Event>) -> Vec<obs::Event> {
    events.sort_by_key(|e| e.rank);
    events
}

#[test]
fn arming_mid_run_tags_every_ranks_events_with_its_rank() {
    if !obs::COMPILED_IN {
        return;
    }
    const FLUSH: obs::EventKind = obs::EventKind::Flush { win: 9, target: 0 };
    Runtime::run_with(2, quiet(), |p: &Proc| {
        // Both rank threads are running before rank 0 arms the recorder.
        p.world().barrier();
        if p.rank() == 0 {
            obs::enable();
        }
        p.world().barrier();
        obs::instant(FLUSH);
        obs::flush_thread();
        p.world().barrier();
        if p.rank() == 0 {
            obs::disable();
        }
    });
    let flushes = by_rank(obs::take()).into_iter().filter(|e| e.kind == FLUSH);
    assert_eq!(flushes.map(|e| e.rank).collect::<Vec<_>>(), [0, 1]);
}

#[test]
fn a_capture_holds_none_of_a_concurrent_unarmed_runtimes_events() {
    if !obs::COMPILED_IN {
        return;
    }
    // Both threads are inside `meet`'s two waits at once, so runtime 31
    // runs while the capture is armed.
    let meet = std::sync::Barrier::new(2);
    let run = |win: u64| {
        meet.wait();
        Runtime::run_with(2, quiet(), |p: &Proc| {
            let target = p.rank() as u32;
            obs::instant(obs::EventKind::Flush { win, target });
        });
        meet.wait();
    };
    let events = std::thread::scope(|s| {
        s.spawn(|| run(31));
        obs::capture(|| run(30)).1
    });
    let flush = |target| obs::EventKind::Flush { win: 30, target };
    let got: Vec<_> = by_rank(events).into_iter().map(|e| e.kind).collect();
    assert_eq!(got, [flush(0), flush(1)]);
}

#[test]
fn concurrent_captures_each_equal_a_solo_capture() {
    if !obs::COMPILED_IN {
        return;
    }
    // Rank 0 puts into rank 1's window under an exclusive lock, then
    // both meet at a barrier.
    let program = |p: &Proc| {
        let w = p.world();
        let win = WinHandle::create(&w, 64);
        if w.rank() == 0 {
            win.lock(LockMode::Exclusive, 1).unwrap();
            win.put_bytes(&[7u8; 16], 1, 8).unwrap();
            win.unlock(1).unwrap();
        }
        w.barrier();
        win.free().unwrap();
    };
    let run = || Runtime::run_with(2, RuntimeConfig::default(), program);
    let solo = by_rank(obs::capture(run).1);
    assert!(solo
        .iter()
        .any(|e| matches!(e.kind, obs::EventKind::Rma { .. })));
    let meet = std::sync::Barrier::new(2);
    let capture = || {
        let events = obs::capture(|| {
            meet.wait();
            run();
            meet.wait();
        });
        by_rank(events.1)
    };
    std::thread::scope(|s| {
        let other = s.spawn(capture);
        assert_eq!(capture(), solo);
        assert_eq!(other.join().unwrap(), solo);
    });
}
