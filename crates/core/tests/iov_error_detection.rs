//! §VI-B motivation: the batched and datatype methods *can* generate an
//! MPI error when segments overlap — "it is possible for data to already
//! be corrupted when this error is detected". With the runtime's
//! semantics checker on, the error is surfaced; the auto method avoids it
//! entirely by scanning first.

use armci::{AccKind, Armci, ArmciError, IovDesc, StridedMethod};
use armci_mpi::{ArmciMpi, Config};
use mpisim::{Proc, Runtime, RuntimeConfig};

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
