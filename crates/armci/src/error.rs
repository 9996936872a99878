//! ARMCI error type.

use std::fmt;

/// Errors surfaced by ARMCI implementations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArmciError {
    /// A global address does not fall inside any live allocation on its
    /// process.
    BadAddress { rank: usize, addr: usize },
    /// Access extends past the end of the allocation.
    OutOfBounds {
        rank: usize,
        addr: usize,
        len: usize,
        limit: usize,
    },
    /// The calling process is not a member of the group for a collective.
    NotInGroup,
    /// A descriptor is malformed (mismatched lengths, zero segment size…).
    BadDescriptor(String),
    /// Mutex API misuse (unlock without lock, unknown handle…).
    MutexMisuse(String),
    /// An allocation was freed while an operation still referencing it
    /// (a translation, a nonblocking handle) was in flight.
    GmrVanished { gmr: u64 },
    /// The shared-memory slab backing an allocation was torn down while a
    /// section handle or a slab-routed operation still referenced it. The
    /// distinction from [`GmrVanished`](ArmciError::GmrVanished) matters
    /// for teardown: a detached slab means a *node peer* may still hold a
    /// base pointer, so the error must surface instead of the stale
    /// pointer dereferencing.
    ShmDetached { gmr: u64 },
    /// The underlying MPI runtime reported an error.
    Mpi(mpisim::MpiError),
    /// Operation not supported by this implementation/configuration.
    Unsupported(&'static str),
    /// A backend was asked for an atomic of a width it cannot price.
    /// Surfaced explicitly instead of silently falling back to a
    /// software emulation whose cost and atomicity domain would differ
    /// from what the caller asked for.
    AtomicUnsupported { backend: &'static str, width: usize },
    /// An operation contradicts the allocation's access-mode hint
    /// (§VIII-A): e.g. a Put into a ReadOnly-hinted GMR. The hint is a
    /// promise about application behaviour during the phase; breaking it
    /// is erroneous access, not merely a missed optimisation.
    AccessModeViolation {
        gmr: u64,
        mode: &'static str,
        op: &'static str,
    },
}

impl fmt::Display for ArmciError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArmciError::BadAddress { rank, addr } => {
                write!(
                    f,
                    "address {addr:#x} on process {rank} is not globally accessible"
                )
            }
            ArmciError::OutOfBounds {
                rank,
                addr,
                len,
                limit,
            } => write!(
                f,
                "access [{addr:#x}..{:#x}) exceeds allocation end {limit:#x} on process {rank}",
                addr.saturating_add(*len)
            ),
            ArmciError::NotInGroup => write!(f, "caller is not a member of the group"),
            ArmciError::BadDescriptor(msg) => write!(f, "bad descriptor: {msg}"),
            ArmciError::MutexMisuse(msg) => write!(f, "mutex misuse: {msg}"),
            ArmciError::GmrVanished { gmr } => {
                write!(f, "allocation {gmr} freed with operations in flight")
            }
            ArmciError::ShmDetached { gmr } => write!(
                f,
                "shared-memory slab of allocation {gmr} detached with sections live"
            ),
            ArmciError::Mpi(e) => write!(f, "MPI error: {e}"),
            ArmciError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            ArmciError::AtomicUnsupported { backend, width } => write!(
                f,
                "backend `{backend}` cannot price a {width}-byte atomic operation"
            ),
            ArmciError::AccessModeViolation { gmr, mode, op } => write!(
                f,
                "{op} violates the {mode} access-mode hint on allocation {gmr}"
            ),
        }
    }
}

impl std::error::Error for ArmciError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArmciError::Mpi(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mpisim::MpiError> for ArmciError {
    fn from(e: mpisim::MpiError) -> Self {
        ArmciError::Mpi(e)
    }
}

impl ArmciError {
    /// The single conversion point for "the allocation's backing memory is
    /// gone". Two ways an operation can lose its footing both funnel here:
    /// the GMR disappeared from the translation table (`cause` = `None` →
    /// [`GmrVanished`](ArmciError::GmrVanished)), or the shared-memory
    /// fast path hit a freed window — the slab was torn down under a live
    /// section — which becomes [`ShmDetached`](ArmciError::ShmDetached)
    /// rather than a panic on a stale base pointer. Any other MPI cause
    /// wraps as [`Mpi`](ArmciError::Mpi) unchanged.
    pub fn backing_lost(gmr: u64, cause: Option<mpisim::MpiError>) -> ArmciError {
        match cause {
            None => ArmciError::GmrVanished { gmr },
            Some(mpisim::MpiError::WinFreed) => ArmciError::ShmDetached { gmr },
            Some(e) => ArmciError::Mpi(e),
        }
    }
}

/// Convenience alias.
pub type ArmciResult<T> = Result<T, ArmciError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_fields() {
        let e = ArmciError::OutOfBounds {
            rank: 2,
            addr: 0x10,
            len: 0x20,
            limit: 0x18,
        };
        let s = e.to_string();
        assert!(s.contains("process 2"));
        assert!(s.contains("0x30"));
    }

    #[test]
    fn mpi_error_wraps_with_source() {
        use std::error::Error;
        let e: ArmciError = mpisim::MpiError::WinFreed.into();
        assert!(e.source().is_some());
    }

    #[test]
    fn backing_lost_classifies_causes() {
        assert_eq!(
            ArmciError::backing_lost(3, None),
            ArmciError::GmrVanished { gmr: 3 }
        );
        assert_eq!(
            ArmciError::backing_lost(3, Some(mpisim::MpiError::WinFreed)),
            ArmciError::ShmDetached { gmr: 3 }
        );
        assert_eq!(
            ArmciError::backing_lost(3, Some(mpisim::MpiError::NoEpoch { target: 1 })),
            ArmciError::Mpi(mpisim::MpiError::NoEpoch { target: 1 })
        );
        assert!(ArmciError::ShmDetached { gmr: 3 }.to_string().contains("3"));
    }

    #[test]
    fn atomic_unsupported_names_backend_and_width() {
        let e = ArmciError::AtomicUnsupported {
            backend: "channel",
            width: 4,
        };
        let s = e.to_string();
        assert!(s.contains("channel"));
        assert!(s.contains("4-byte"));
    }
}
