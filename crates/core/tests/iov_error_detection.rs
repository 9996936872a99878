//! §VI-B motivation: the batched and datatype methods *can* generate an
//! MPI error when segments overlap — "it is possible for data to already
//! be corrupted when this error is detected". With the runtime's
//! semantics checker on, the error is surfaced; the auto method avoids it
//! entirely by scanning first.

use armci::{
    AccKind, Armci, ArmciError, ArmciResult, GlobalAddr, IovDesc, NbHandle, StridedMethod,
};
use armci_ds::run_with_servers;
use armci_mpi::{ArmciMpi, Config};
use armci_native::ArmciNative;
use mpisim::{Proc, Runtime, RuntimeConfig};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

fn overlapping_desc(base: usize) -> IovDesc {
    IovDesc {
        rank: 1,
        bytes: 8,
        local_offsets: vec![0, 8],
        remote_addrs: vec![base, base + 4], // overlap!
    }
}

fn put_overlapping(method: StridedMethod) -> Result<(), ArmciError> {
    let cfg = Config {
        iov: method,
        ..Default::default()
    };
    Runtime::run_with(2, RuntimeConfig::default(), move |p: &Proc| {
        let rt = ArmciMpi::with_config(p, cfg.clone());
        let bases = rt.malloc(64).unwrap();
        rt.barrier();
        let res = if p.rank() == 0 {
            rt.put_iov(&overlapping_desc(bases[1].addr), &[1u8; 16])
        } else {
            Ok(())
        };
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
        res
    })
    .swap_remove(0)
}

#[test]
fn batched_overlap_is_detected_as_mpi_error() {
    let err = put_overlapping(StridedMethod::IovBatched { batch: 0 }).unwrap_err();
    assert!(
        matches!(
            err,
            ArmciError::Mpi(mpisim::MpiError::ConflictingAccess { .. })
        ),
        "{err}"
    );
}

#[test]
fn datatype_overlap_is_detected_as_mpi_error() {
    let err = put_overlapping(StridedMethod::IovDatatype).unwrap_err();
    assert!(
        matches!(
            err,
            ArmciError::Mpi(mpisim::MpiError::ConflictingAccess { .. })
        ),
        "{err}"
    );
}

#[test]
fn auto_avoids_the_error_via_conflict_scan() {
    put_overlapping(StridedMethod::Auto).unwrap();
}

#[test]
fn conservative_handles_overlap_by_design() {
    put_overlapping(StridedMethod::IovConservative).unwrap();
}

/// A strided accumulate whose local buffer is shorter than its origin
/// shape (4 rows of 16 bytes every 32 bytes span 112 bytes) is a bad
/// descriptor on both the blocking and the nonblocking path, exactly as
/// for `put_strided`. One rank, so a panicking transfer fails the test
/// instead of leaving a peer waiting in a collective.
#[test]
fn short_strided_acc_buffer_is_a_bad_descriptor() {
    let errs = Runtime::run_with(1, RuntimeConfig::default(), |p: &Proc| {
        let rt = ArmciMpi::new(p);
        let bases = rt.malloc(256).unwrap();
        let kind = AccKind::Double(1.0);
        let src = [0u8; 100];
        let blocking = rt.acc_strided(kind, &src, &[32], bases[0], &[64], &[16, 4]);
        let nb = rt.nb_acc_strided(kind, &src, &[32], bases[0], &[64], &[16, 4]);
        rt.free(bases[0]).unwrap();
        [blocking.unwrap_err(), nb.unwrap_err()]
    })
    .swap_remove(0);
    for err in errs {
        assert!(matches!(err, ArmciError::BadDescriptor(_)), "{err}");
    }
}

/// Every verb with an origin shape, each against a 100-byte local buffer
/// that its shape overruns: a strided patch of 4 rows of 16 bytes every
/// 32 bytes, and an IOV whose last segment starts at byte 96. Both span
/// 112 bytes. Returns each verb's result.
fn short_buffer_results(
    rt: &dyn Armci,
    remote: GlobalAddr,
) -> Vec<(&'static str, ArmciResult<()>)> {
    let kind = AccKind::Double(1.0);
    let (ls, rs, count) = ([32], [64], [16, 4]);
    let desc = IovDesc {
        rank: remote.rank,
        bytes: 16,
        local_offsets: vec![0, 96],
        remote_addrs: vec![remote.addr, remote.addr + 64],
    };
    let mut buf = [0u8; 100];
    let nb = |h: ArmciResult<NbHandle>| h.and_then(|h| rt.wait(h));
    vec![
        (
            "get_strided",
            rt.get_strided(remote, &rs, &mut buf, &ls, &count),
        ),
        (
            "put_strided",
            rt.put_strided(&buf, &ls, remote, &rs, &count),
        ),
        (
            "acc_strided",
            rt.acc_strided(kind, &buf, &ls, remote, &rs, &count),
        ),
        (
            "nb_get_strided",
            nb(rt.nb_get_strided(remote, &rs, &mut buf, &ls, &count)),
        ),
        (
            "nb_put_strided",
            nb(rt.nb_put_strided(&buf, &ls, remote, &rs, &count)),
        ),
        (
            "nb_acc_strided",
            nb(rt.nb_acc_strided(kind, &buf, &ls, remote, &rs, &count)),
        ),
        ("get_iov", rt.get_iov(&desc, &mut buf)),
        ("put_iov", rt.put_iov(&desc, &buf)),
        ("acc_iov", rt.acc_iov(kind, &desc, &buf)),
    ]
}

fn assert_bad_descriptors(results: Vec<(&'static str, ArmciResult<()>)>) {
    for (verb, res) in results {
        assert!(
            matches!(res, Err(ArmciError::BadDescriptor(_))),
            "{verb}: {res:?}"
        );
    }
}

/// Runs `f` on its own thread and fails if it has not returned within
/// 10 s, re-raising its panic if it panicked.
fn within_10s<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    let run = std::thread::spawn(move || tx.send(f()).unwrap());
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(r) => r,
        Err(RecvTimeoutError::Disconnected) => match run.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the result was sent"),
        },
        Err(RecvTimeoutError::Timeout) => panic!("the run hung"),
    }
}

/// ARMCI-Native rejects a local buffer shorter than the origin shape
/// instead of indexing past it. One rank, so a panicking transfer fails
/// the test instead of leaving a peer waiting.
#[test]
fn native_short_local_buffer_is_a_bad_descriptor() {
    let results = Runtime::run_with(1, RuntimeConfig::default(), |p: &Proc| {
        let rt = ArmciNative::new(p);
        let bases = rt.malloc(256).unwrap();
        let results = short_buffer_results(&rt, bases[0]);
        rt.free(bases[0]).unwrap();
        results
    })
    .swap_remove(0);
    assert_bad_descriptors(results);
}

/// ARMCI-DS rejects a local buffer shorter than the origin shape before
/// it sends a request. One compute rank; its server waits on a receive,
/// so the run is bounded by a watchdog.
#[test]
fn ds_short_local_buffer_is_a_bad_descriptor() {
    let results = within_10s(|| {
        run_with_servers(1, RuntimeConfig::default(), |_p, rt| {
            let bases = rt.malloc(256).unwrap();
            let results = short_buffer_results(rt, bases[0]);
            rt.free(bases[0]).unwrap();
            results
        })
        .swap_remove(0)
    });
    assert_bad_descriptors(results);
}
