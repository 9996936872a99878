//! Epoch-invariant auditor over real runtime traces (§IV/§V).
//!
//! Each test captures a genuine ARMCI-MPI run with the recorder on,
//! verifies the auditor stays silent on the legal trace, then seeds one
//! specific illegal interleaving and asserts the auditor flags exactly
//! that violation — no false positives, no misses.

use armci::{AccKind, Armci};
use armci_mpi::{ArmciMpi, Config};
use mpisim::{Proc, Runtime, RuntimeConfig};
use obs::audit::{audit, Rule};
use obs::{Event, EventKind};
use simnet::PlatformId;

/// Runs `body` on two simulated ranks under its own recorder and
/// returns the full event stream.
fn capture_with(
    epochless: bool,
    shm: bool,
    body: impl Fn(&Proc, &ArmciMpi) + Send + Sync,
) -> Vec<Event> {
    let cfg = RuntimeConfig::on_platform(PlatformId::InfiniBandCluster);
    let (_, events) = obs::capture(|| {
        Runtime::run_with(2, cfg, |p| {
            let rt = ArmciMpi::with_config(
                p,
                Config {
                    epochless,
                    shm,
                    ..Default::default()
                },
            );
            body(p, &rt);
        })
    });
    events
}

/// Wire-path capture: both ranks share a node, so the seeded-violation
/// tests below pin `shm: false` to keep genuine `Rma` events in the
/// trace. The shm-routed trace is audited separately.
fn capture(epochless: bool, body: impl Fn(&Proc, &ArmciMpi) + Send + Sync) -> Vec<Event> {
    capture_with(epochless, false, body)
}

/// A blocking-only workload: contiguous put/get/acc, a strided put, and
/// a direct-local-access region, all in MPI-2 per-op epoch mode.
fn blocking_trace() -> Vec<Event> {
    capture(false, |p, rt| {
        let bases = rt.malloc(1 << 16).expect("malloc");
        rt.barrier();
        if p.rank() == 0 {
            let src = vec![3u8; 1 << 16];
            let mut dst = vec![0u8; 1 << 10];
            rt.put(&src[..1 << 12], bases[1]).unwrap();
            rt.get(bases[1], &mut dst).unwrap();
            rt.acc(AccKind::Int(1), &src[..512], bases[1]).unwrap();
            rt.put_strided(&src[..64 * 32], &[64], bases[1], &[128], &[64, 32])
                .unwrap();
        }
        rt.barrier();
        rt.access_mut(bases[p.rank()], 16, &mut |b| b[0] ^= 1)
            .unwrap();
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    })
}

/// Position of the first event on `rank` matching `pred`.
fn find(events: &[Event], rank: u32, pred: impl Fn(&EventKind) -> bool) -> usize {
    events
        .iter()
        .position(|e| e.rank == rank && pred(&e.kind))
        .expect("expected event not found in trace")
}

#[test]
fn legal_blocking_trace_is_silent() {
    let events = blocking_trace();
    assert!(!events.is_empty());
    let v = audit(&events);
    assert!(v.is_empty(), "legal trace flagged: {v:?}");
}

#[test]
fn legal_nonblocking_epochless_trace_is_silent() {
    let events = capture(true, |p, rt| {
        let bases = rt.malloc(1 << 16).expect("malloc");
        rt.barrier();
        if p.rank() == 0 {
            let src = vec![7u8; 1 << 14];
            let mut hs = Vec::new();
            for _ in 0..4 {
                hs.push(
                    rt.nb_acc(AccKind::Int(2), &src[..1 << 10], bases[1])
                        .unwrap(),
                );
            }
            rt.wait_all(hs).unwrap();
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    });
    let v = audit(&events);
    assert!(v.is_empty(), "legal nb trace flagged: {v:?}");
}

#[test]
fn seeded_nested_lock_is_flagged_exactly_once() {
    let mut events = blocking_trace();
    // Re-acquire a lock rank 0 already holds: duplicate the first
    // acquire right after itself.
    let i = find(&events, 0, |k| matches!(k, EventKind::LockAcquire { .. }));
    let dup = events[i].clone();
    events.insert(i + 1, dup);
    let v = audit(&events);
    assert_eq!(v.len(), 1, "expected exactly the seeded violation: {v:?}");
    assert_eq!(v[0].rule, Rule::NestedLock);
    assert_eq!(v[0].rank, 0);
}

#[test]
fn seeded_double_unlock_is_flagged_exactly_once() {
    let mut events = blocking_trace();
    let i = find(&events, 0, |k| matches!(k, EventKind::LockRelease { .. }));
    let dup = events[i].clone();
    events.insert(i + 1, dup);
    let v = audit(&events);
    assert_eq!(v.len(), 1, "expected exactly the seeded violation: {v:?}");
    assert_eq!(v[0].rule, Rule::UnlockWithoutLock);
}

#[test]
fn seeded_dla_violation_is_flagged_exactly_once() {
    let mut events = blocking_trace();
    // A direct store outside any ARMCI_Access_begin/end region.
    let win = events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::LocalAccess { win, .. } => Some(win),
            _ => None,
        })
        .expect("trace has a DLA access");
    let ts = events.last().unwrap().ts + 1.0;
    events.push(Event {
        rank: 0,
        ts,
        dur: 0.0,
        kind: EventKind::LocalAccess { win, write: true },
    });
    let v = audit(&events);
    assert_eq!(v.len(), 1, "expected exactly the seeded violation: {v:?}");
    assert_eq!(v[0].rule, Rule::DlaViolation);
}

#[test]
fn seeded_staging_while_locked_is_flagged_exactly_once() {
    let mut events = blocking_trace();
    // Touch a staging buffer for a window while rank 0 holds a blocking
    // lock on it (§V-E1's self-deadlock pattern).
    let i = find(&events, 0, |k| matches!(k, EventKind::LockAcquire { .. }));
    let EventKind::LockAcquire { win, .. } = events[i].kind else {
        unreachable!()
    };
    let ts = events[i].ts;
    events.insert(
        i + 1,
        Event {
            rank: 0,
            ts,
            dur: 0.0,
            kind: EventKind::StageTouch {
                gmr: win,
                bytes: 64,
            },
        },
    );
    let v = audit(&events);
    assert_eq!(v.len(), 1, "expected exactly the seeded violation: {v:?}");
    assert_eq!(v[0].rule, Rule::StagingWhileLocked);
}

#[test]
fn seeded_op_outside_epoch_is_flagged_exactly_once() {
    let mut events = blocking_trace();
    let win = events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::Rma { win, .. } => Some(win),
            _ => None,
        })
        .expect("trace has rma events");
    let ts = events.last().unwrap().ts + 1.0;
    // An RMA issued after every epoch on the window has closed.
    events.push(Event {
        rank: 0,
        ts,
        dur: 0.0,
        kind: EventKind::Rma {
            win,
            target: 1,
            kind: obs::OpKind::Put,
            bytes: 8,
        },
    });
    let v = audit(&events);
    assert_eq!(v.len(), 1, "expected exactly the seeded violation: {v:?}");
    assert_eq!(v[0].rule, Rule::OpOutsideEpoch);
}

// ---------------------------------------------------------------------
// The intra-node shared-memory route under the same auditor
// ---------------------------------------------------------------------

/// The blocking workload with shm routing on: every transfer between
/// these two same-node ranks takes the load/store fast path.
fn shm_trace() -> Vec<Event> {
    capture_with(false, true, |p, rt| {
        let bases = rt.malloc(1 << 16).expect("malloc");
        rt.barrier();
        if p.rank() == 0 {
            let src = vec![3u8; 1 << 12];
            let mut dst = vec![0u8; 1 << 10];
            rt.put(&src, bases[1]).unwrap();
            rt.get(bases[1], &mut dst).unwrap();
            rt.acc(AccKind::Int(1), &src[..512], bases[1]).unwrap();
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    })
}

#[test]
fn legal_shm_trace_is_silent_and_uses_the_fast_path() {
    let events = shm_trace();
    let shm_accesses = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ShmAccess { .. }))
        .count();
    assert!(
        shm_accesses >= 3,
        "same-node transfers did not take the shm route"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Rma { .. })),
        "intra-node traffic leaked onto the wire path"
    );
    let v = audit(&events);
    assert!(v.is_empty(), "legal shm trace flagged: {v:?}");
}

#[test]
fn seeded_shm_access_outside_win_sync_is_flagged_exactly_once() {
    let mut events = shm_trace();
    let (win, target) = events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::ShmAccess { win, target, .. } => Some((win, target)),
            _ => None,
        })
        .expect("trace has shm accesses");
    let ts = events.last().unwrap().ts + 1.0;
    // A direct store into the peer's section after every epoch closed:
    // no lock covers it and no Win_sync re-established coherence.
    events.push(Event {
        rank: 0,
        ts,
        dur: 0.0,
        kind: EventKind::ShmAccess {
            win,
            target,
            write: true,
            bytes: 8,
        },
    });
    let v = audit(&events);
    assert_eq!(v.len(), 1, "expected exactly the seeded violation: {v:?}");
    assert_eq!(v[0].rule, Rule::ShmCoherence);
}
