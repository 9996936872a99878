//! Edge cases: single-rank communicators, windows on subcommunicators
//! with concurrent traffic elsewhere, large payloads, displacements and
//! target types whose end wraps past `usize::MAX`.

use mpisim::coll::ReduceOp;
use mpisim::dtype::Flat;
use mpisim::mpi3::{CellOp, FetchOp};
use mpisim::{
    AccOp, Datatype, ElemType, LockMode, MpiError, MpiResult, Origin, Proc, RecvSrc, Runtime,
    RuntimeConfig, WinHandle,
};

fn quiet() -> RuntimeConfig {
    RuntimeConfig {
        charge_time: false,
        ..Default::default()
    }
}

#[test]
fn single_rank_world_collectives() {
    Runtime::run_with(1, quiet(), |p: &Proc| {
        let w = p.world();
        w.barrier();
        assert_eq!(w.allreduce_i64(ReduceOp::Sum, &[7])[0], 7);
        assert_eq!(w.bcast_bytes(0, Some(vec![1, 2])), vec![1, 2]);
        assert_eq!(w.maxloc_i64(5), (5, 0));
    });
}

#[test]
fn single_rank_window_self_ops() {
    Runtime::run_with(1, quiet(), |p: &Proc| {
        let w = p.world();
        let win = WinHandle::create(&w, 64);
        win.lock(LockMode::Exclusive, 0).unwrap();
        win.put_bytes(&[9u8; 8], 0, 0).unwrap();
        win.unlock(0).unwrap();
        win.lock(LockMode::Shared, 0).unwrap();
        let mut b = [0u8; 8];
        win.get_bytes(&mut b, 0, 0).unwrap();
        win.unlock(0).unwrap();
        assert_eq!(b, [9u8; 8]);
        win.free().unwrap();
    });
}

#[test]
fn subcomm_window_with_concurrent_world_traffic() {
    Runtime::run_with(6, quiet(), |p: &Proc| {
        let w = p.world();
        let sub = w.split((p.rank() % 2) as i64, p.rank() as i64).unwrap();
        // windows live on the subcommunicators; world p2p runs alongside
        let win = WinHandle::create(&sub, 32);
        if p.rank() == 0 {
            w.send(5, 99, b"cross");
        }
        if sub.rank() == 0 && sub.size() > 1 {
            win.lock(LockMode::Exclusive, 1).unwrap();
            win.put_bytes(&[p.rank() as u8 + 1], 1, 0).unwrap();
            win.unlock(1).unwrap();
        }
        if p.rank() == 5 {
            let (m, _) = w.recv(RecvSrc::Rank(0), 99);
            assert_eq!(m, b"cross");
        }
        sub.barrier();
        if sub.rank() == 1 {
            win.lock(LockMode::Shared, 1).unwrap();
            let mut b = [0u8; 1];
            win.get_bytes(&mut b, 1, 0).unwrap();
            win.unlock(1).unwrap();
            // group leader is world rank 0 (even group) or 1 (odd group)
            let leader = sub.world_rank_of(0);
            assert_eq!(b[0], leader as u8 + 1);
        }
        sub.barrier();
        win.free().unwrap();
    });
}

#[test]
fn large_payload_collectives_and_p2p() {
    Runtime::run_with(3, quiet(), |p: &Proc| {
        let w = p.world();
        // 1 MiB per rank, as 8-byte words.
        let big = vec![p.rank() as u64; 1 << 17];
        let all = w.allgather_u64s(&big);
        for (r, b) in all.iter().enumerate() {
            assert_eq!(b.len(), 1 << 17);
            assert_eq!(b[0], r as u64);
            assert_eq!(b[(1 << 17) - 1], r as u64);
        }
        if p.rank() == 0 {
            w.send(2, 1, &vec![0xabu8; 1 << 21]);
        } else if p.rank() == 2 {
            let (m, _) = w.recv(RecvSrc::Rank(0), 1);
            assert_eq!(m.len(), 1 << 21);
        }
    });
}

#[test]
fn many_windows_lifecycle() {
    Runtime::run_with(2, quiet(), |p: &Proc| {
        let w = p.world();
        let wins: Vec<WinHandle> = (0..20)
            .map(|i| WinHandle::create(&w, 8 * (i + 1)))
            .collect();
        for (i, win) in wins.iter().enumerate() {
            assert_eq!(win.size_of(0), 8 * (i + 1));
            if p.rank() == 0 {
                win.lock(LockMode::Exclusive, 1).unwrap();
                win.put_bytes(&[i as u8], 1, 0).unwrap();
                win.unlock(1).unwrap();
            }
        }
        w.barrier();
        for (i, win) in wins.iter().enumerate() {
            if p.rank() == 1 {
                win.lock(LockMode::Shared, 1).unwrap();
                let mut b = [0u8; 1];
                win.get_bytes(&mut b, 1, 0).unwrap();
                win.unlock(1).unwrap();
                assert_eq!(b[0], i as u8);
            }
        }
        w.barrier();
        for win in wins {
            win.free().unwrap();
        }
    });
}

/// Window bounds checks do not wrap: a displacement near `usize::MAX`
/// whose end overflows is out of bounds on every path (typed put, get
/// and accumulate, the window's mover, shm load and store), and the
/// window is left unchanged. A wrapped check would pass these in a
/// release build and write near the start of the window.
#[test]
fn wrapping_displacements_are_out_of_bounds() {
    Runtime::run_with(2, quiet(), |p: &Proc| {
        let w = p.world();
        let win = WinHandle::allocate_shared(&w, 64);
        if w.rank() == 0 {
            let oob = |target: usize, r: MpiResult<()>| {
                assert!(
                    matches!(r, Err(MpiError::OutOfBounds { target: t, .. }) if t == target),
                    "{r:?}"
                );
            };
            let (odt, tdt) = (
                Datatype::contiguous(4),
                Datatype::Indexed {
                    blocks: vec![(16, 4)],
                },
            );
            let tdisp = usize::MAX - 7;
            win.lock(LockMode::Exclusive, 1).unwrap();
            oob(1, win.put(&[1; 4], &odt, 1, tdisp, &tdt));
            oob(1, win.get(&mut [0; 4], &odt, 1, tdisp, &tdt));
            let (elem, op) = (ElemType::I32, AccOp::Sum);
            oob(1, win.accumulate(&[1; 4], &odt, 1, tdisp, &tdt, elem, op));

            let dt = Datatype::contiguous(8);
            let mut flat = Flat::default();
            let mut back = [0u8; 8];
            let origins = [
                Origin::Put(&[1; 8]),
                Origin::Acc(&[1; 8], ElemType::I64, AccOp::Sum),
                Origin::Get(&mut back),
            ];
            for origin in origins {
                flat.flatten(&origin, &dt, usize::MAX - 2, &dt).unwrap();
                oob(1, win.stage(origin, 1, &flat));
            }
            let mut image = [9u8; 64];
            win.get_bytes(&mut image, 1, 0).unwrap();
            assert_eq!(image, [0; 64], "the target window changed");
            win.unlock(1).unwrap();

            let mine = win.shared_query(0).unwrap();
            oob(0, mine.store(usize::MAX - 2, &[1; 8]));
            oob(0, mine.load(usize::MAX - 2, &mut [0; 8]));
            let mut image = [9u8; 64];
            mine.load(0, &mut image).unwrap();
            assert_eq!(image, [0; 64], "the own section changed");
        }
        w.barrier();
        win.free().unwrap();
    });
}

/// MPI-3 atomics do not wrap either. On a per-rank and on a
/// shared-backed window, an 8-byte cell whose end runs past `usize::MAX`
/// is out of bounds on the MPI atomics and on the priced wire atomic,
/// both sections stay unchanged, and a legal atomic in the same epoch
/// then succeeds. A wrapped check would panic in the slice index, or, on
/// a node slab, write into the neighbouring rank's section.
#[test]
fn wrapping_atomic_displacements_are_out_of_bounds() {
    for shared in [false, true] {
        Runtime::run_with(2, quiet(), |p: &Proc| {
            let w = p.world();
            let win = if shared {
                WinHandle::allocate_shared(&w, 64)
            } else {
                WinHandle::create(&w, 64)
            };
            if w.rank() == 1 {
                let oob = |r: MpiResult<i64>| {
                    assert!(
                        matches!(r, Err(MpiError::OutOfBounds { target: 1, .. })),
                        "{r:?}"
                    );
                };
                let swap = CellOp::CompareAndSwap {
                    compare: 0,
                    swap: 7,
                };
                win.lock(LockMode::Exclusive, 1).unwrap();
                oob(win.fetch_and_op_i64(1, 1, usize::MAX - 3, FetchOp::Sum));
                oob(win.fetch_and_op_i64(7, 1, usize::MAX - 6, FetchOp::Replace));
                oob(win.atomic_i64(swap, 1, usize::MAX - 6));
                oob(win.atomic_i64_priced(swap, 1, usize::MAX - 6, 1e-6));
                assert_eq!(win.fetch_and_op_i64(5, 1, 56, FetchOp::Sum), Ok(0));
                win.unlock(1).unwrap();
            }
            w.barrier();
            if w.rank() == 0 {
                for target in 0..2 {
                    let mut image = [9u8; 64];
                    win.lock(LockMode::Shared, target).unwrap();
                    win.get_bytes(&mut image, target, 0).unwrap();
                    win.unlock(target).unwrap();
                    let mut want = [0u8; 64];
                    if target == 1 {
                        want[56..].copy_from_slice(&5i64.to_le_bytes());
                    }
                    assert_eq!(image, want, "section {target} (shared: {shared})");
                }
            }
            w.barrier();
            win.free().unwrap();
        });
    }
}

/// Target types whose extent or block offsets run past `usize::MAX`:
/// put, get and accumulate through each give `OutOfBounds` (no overflow
/// panic in a debug build, no wrapped extent in a release build) before
/// the epoch records anything, so the next legal operation in the same
/// epoch succeeds and the window holds only its bytes. A wrapped extent
/// would pass admission, record the segments, and fail in the mover,
/// leaving records that make the legal put a conflicting access.
#[test]
fn overflowing_target_types_are_out_of_bounds() {
    Runtime::run_with(2, quiet(), |p: &Proc| {
        let w = p.world();
        let win = WinHandle::create(&w, 64);
        if w.rank() == 0 {
            let oob = |r: MpiResult<()>| {
                assert!(matches!(r, Err(MpiError::OutOfBounds { .. })), "{r:?}");
            };
            let huge = [
                Datatype::Indexed {
                    blocks: vec![(usize::MAX - 2, 8), (0, 8)],
                },
                Datatype::Vector {
                    count: 3,
                    blocklen: 8,
                    stride: usize::MAX / 2,
                },
                Datatype::Vector {
                    count: 3,
                    blocklen: 8,
                    stride: usize::MAX / 2 + 1,
                },
            ];
            win.lock(LockMode::Exclusive, 1).unwrap();
            for tdt in &huge {
                // 4-byte origin blocks split every target segment.
                let n = tdt.size();
                let odt = Datatype::Vector {
                    count: n / 4,
                    blocklen: 4,
                    stride: 8,
                };
                let (elem, op) = (ElemType::F64, AccOp::Sum);
                oob(win.put(&vec![1; 2 * n], &odt, 1, 0, tdt));
                oob(win.get(&mut vec![0; 2 * n], &odt, 1, 0, tdt));
                oob(win.accumulate(&vec![1; 2 * n], &odt, 1, 0, tdt, elem, op));
            }
            win.put_bytes(&[7; 8], 1, 0).unwrap();
            win.unlock(1).unwrap();

            win.lock(LockMode::Shared, 1).unwrap();
            let mut image = [9u8; 64];
            win.get_bytes(&mut image, 1, 0).unwrap();
            win.unlock(1).unwrap();
            let mut want = [0u8; 64];
            want[..8].fill(7);
            assert_eq!(image, want);
        }
        w.barrier();
        win.free().unwrap();
    });
}

/// A type whose selected byte count runs past `usize::MAX` is refused as
/// `BadDatatype` on put, get and accumulate, on either side and against
/// an 8-byte or an empty partner: no multiply-overflow panic in a debug
/// build, and in a release build no wrapped count that happens to match
/// the partner's and no segment list sized from the type's block count.
/// Nothing reaches the epoch, so the next legal operation in it succeeds.
#[test]
fn overflowing_type_sizes_are_bad_datatypes() {
    Runtime::run_with(2, quiet(), |p: &Proc| {
        let w = p.world();
        let win = WinHandle::create(&w, 64);
        if w.rank() == 0 {
            let bad = |r: MpiResult<()>| {
                assert!(matches!(r, Err(MpiError::BadDatatype(_))), "{r:?}");
            };
            let huge = Datatype::Vector {
                count: usize::MAX / 2 + 1,
                blocklen: 2,
                stride: 2,
            };
            let (elem, op) = (ElemType::F64, AccOp::Sum);
            win.lock(LockMode::Exclusive, 1).unwrap();
            for len in [8, 0] {
                let small = Datatype::contiguous(len);
                for (odt, tdt) in [(&small, &huge), (&huge, &small)] {
                    bad(win.put(&[1; 8][..len], odt, 1, 0, tdt));
                    bad(win.get(&mut [0; 8][..len], odt, 1, 0, tdt));
                    bad(win.accumulate(&[1; 8][..len], odt, 1, 0, tdt, elem, op));
                }
            }
            win.put_bytes(&[7; 8], 1, 0).unwrap();
            win.unlock(1).unwrap();

            win.lock(LockMode::Shared, 1).unwrap();
            let mut image = [9u8; 64];
            win.get_bytes(&mut image, 1, 0).unwrap();
            win.unlock(1).unwrap();
            let mut want = [0u8; 64];
            want[..8].fill(7);
            assert_eq!(image, want);
        }
        w.barrier();
        win.free().unwrap();
    });
}
