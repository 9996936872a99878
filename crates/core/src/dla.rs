//! Direct local access (§V-E): the `ARMCI_Access_begin/end` extension.
//!
//! Direct load/store access to memory exposed in an MPI window conflicts
//! with every remote access to the same window region, so ARMCI-MPI only
//! grants it inside an epoch on the caller's own rank: **exclusive** for
//! mutation, shared for read-only access. The Rust shape is a closure
//! (`begin`/`end` become scope entry/exit), which makes it impossible to
//! leak the pointer past the epoch.

use crate::transport::{atomic_epoch_begin, atomic_epoch_end};
use crate::ArmciMpi;
use armci::{ArmciError, ArmciResult, GlobalAddr};
use mpisim::LockMode;

/// The closure a direct-access region runs: read-only under a shared
/// epoch, or mutating under an exclusive one.
pub(crate) enum Access<'a> {
    Read(&'a mut dyn FnMut(&[u8])),
    Write(&'a mut dyn FnMut(&mut [u8])),
}

impl ArmciMpi {
    /// Direct access to `len` bytes of this process's own slice starting
    /// at `addr`, inside an epoch on self: exclusive for [`Access::Write`],
    /// shared for [`Access::Read`].
    pub(crate) fn access_impl(&self, addr: GlobalAddr, len: usize, f: Access) -> ArmciResult<()> {
        let write = matches!(f, Access::Write(_));
        if addr.rank != self.world.rank() {
            // A node peer's slice is reachable through the shared slab
            // (crate::shm); any other remote rank stays illegal.
            return match f {
                Access::Write(f) => self.access_peer_impl(addr, len, true, f),
                Access::Read(f) => self.access_peer_impl(addr, len, false, &mut |b| f(b)),
            };
        }
        // Serialise behind outstanding nonblocking operations: direct
        // load/store while a deferred transfer targets this window would
        // be a conflicting access.
        self.nb_quiesce()?;
        let tr = self.space.translate(addr, len)?;
        let gmrs = self.gmrs.borrow();
        let gmr = gmrs.get(tr.alloc)?;
        // A lock on self, unless a standing lock_all epoch already covers
        // local access (MPI-3 unified memory model, ordered by the
        // win_sync discipline).
        let mode = if write {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        atomic_epoch_begin(&gmr.win, tr.group_rank, mode)?;
        self.dla_begin(tr.alloc.id, write);
        let span = tr.disp..tr.disp + len;
        let res = match f {
            Access::Read(f) => gmr.win.with_local(|buf| f(&buf[span])),
            Access::Write(f) => gmr.win.with_local_mut(|buf| f(&mut buf[span])),
        };
        self.dla_end(tr.alloc.id);
        atomic_epoch_end(&gmr.win, tr.group_rank)?;
        res.map_err(ArmciError::from)
    }

    /// Records entry into an `ARMCI_Access_begin/end` region (the lock
    /// that grants it is already held, so the auditor sees a covered
    /// region).
    pub(crate) fn dla_begin(&self, gmr: u64, exclusive: bool) {
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::DlaBegin {
                    win: gmr,
                    exclusive,
                },
                self.vnow(),
            );
        }
    }

    pub(crate) fn dla_end(&self, gmr: u64) {
        if obs::enabled() {
            obs::instant_at(obs::EventKind::DlaEnd { win: gmr }, self.vnow());
        }
    }
}
