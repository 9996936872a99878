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

impl ArmciMpi {
    /// Mutable direct access to `len` bytes of this process's own slice
    /// starting at `addr`. Implies an exclusive epoch on self.
    pub(crate) fn access_mut_impl(
        &self,
        addr: GlobalAddr,
        len: usize,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> ArmciResult<()> {
        if addr.rank != self.world.rank() {
            // A node peer's slice is reachable through the shared slab
            // (crate::shm); any other remote rank stays illegal.
            return self.access_peer_impl(addr, len, true, f);
        }
        // Serialise behind outstanding nonblocking operations: direct
        // load/store while a deferred transfer targets this window would
        // be a conflicting access.
        self.nb_quiesce()?;
        let tr = self.translate(addr, len)?;
        let gmrs = self.gmrs.borrow();
        let gmr = gmrs.get(tr.gmr)?;
        // An exclusive lock, unless a standing lock_all epoch already
        // covers local access (MPI-3 unified memory model, ordered by the
        // win_sync discipline).
        atomic_epoch_begin(&gmr.win, tr.group_rank, LockMode::Exclusive)?;
        self.dla_begin(tr.gmr.id, true);
        let res = gmr
            .win
            .with_local_mut(|buf| f(&mut buf[tr.disp..tr.disp + len]));
        self.dla_end(tr.gmr.id);
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

    /// Read-only direct access (shared epoch on self).
    pub(crate) fn access_impl(
        &self,
        addr: GlobalAddr,
        len: usize,
        f: &mut dyn FnMut(&[u8]),
    ) -> ArmciResult<()> {
        if addr.rank != self.world.rank() {
            // Shared-slab read of a node peer's slice (as above).
            return self.access_peer_impl(addr, len, false, &mut |b| f(b));
        }
        // Serialise behind outstanding nonblocking operations (as above).
        self.nb_quiesce()?;
        let tr = self.translate(addr, len)?;
        let gmrs = self.gmrs.borrow();
        let gmr = gmrs.get(tr.gmr)?;
        // A standing lock_all epoch already grants shared access; the
        // window is locked otherwise.
        atomic_epoch_begin(&gmr.win, tr.group_rank, LockMode::Shared)?;
        self.dla_begin(tr.gmr.id, false);
        let res = gmr.win.with_local(|buf| f(&buf[tr.disp..tr.disp + len]));
        self.dla_end(tr.gmr.id);
        atomic_epoch_end(&gmr.win, tr.group_rank)?;
        res.map_err(ArmciError::from)
    }
}
