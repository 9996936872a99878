//! MPI-3 RMA extensions (paper §VIII-B).
//!
//! The paper motivates four MPI-3 additions from ARMCI-MPI's pain points:
//! (1) conflicting operations relaxed from *erroneous* to *undefined*,
//! (2) an epochless passive mode (`lock_all`), (3) request-based operations
//! for communication/computation overlap, and (4) atomic read-modify-write
//! operations. This module implements (1), (2) and (4) on [`WinHandle`] so
//! that the `armci-mpi` crate can offer an MPI-3 backend for ablation
//! studies (mutex-based RMW vs native `fetch_and_op`, per-op epochs vs
//! `lock_all` + `flush`). Overlap (3) is the transfer engine's deferred
//! flush, not a request object here.

use crate::error::{MpiError, MpiResult};
use crate::win::{LockMode, WinHandle};

/// Atomic fetch-and-op operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOp {
    /// Fetch old value and add.
    Sum,
    /// Fetch old value and store the operand (atomic swap).
    Replace,
    /// Fetch only (`MPI_NO_OP`).
    NoOp,
}

/// One atomic update of an 8-byte little-endian `i64` cell: what
/// [`WinHandle::atomic_i64_priced`] applies at the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOp {
    /// `MPI_Fetch_and_op` with this operator and operand.
    Fetch(FetchOp, i64),
    /// `MPI_Compare_and_swap`: stores `swap` iff the cell equals `compare`.
    CompareAndSwap { compare: i64, swap: i64 },
}

impl CellOp {
    /// The value the update stores over `old`, or `None` when it leaves
    /// the cell untouched (a fetch-only op or a failed compare).
    pub fn stored(self, old: i64) -> Option<i64> {
        match self {
            CellOp::Fetch(FetchOp::Sum, x) => Some(old.wrapping_add(x)),
            CellOp::Fetch(FetchOp::Replace, x) => Some(x),
            CellOp::Fetch(FetchOp::NoOp, _) => None,
            CellOp::CompareAndSwap { compare, swap } => (old == compare).then_some(swap),
        }
    }

    /// Applies the update in place; returns the old value.
    fn apply(self, cell: &mut [u8; 8]) -> i64 {
        let old = i64::from_le_bytes(*cell);
        *cell = self.stored(old).unwrap_or(old).to_le_bytes();
        old
    }
}

impl WinHandle {
    /// MPI-3 `MPI_Win_lock_all`: opens a shared access epoch on every
    /// target at once. Conflict tracking is disabled (MPI-3 demotes
    /// conflicts from erroneous to undefined), matching §VIII-B(1)+(2).
    pub fn lock_all(&self) -> MpiResult<()> {
        if self.lock_all_active.get() {
            return Err(MpiError::AlreadyLocked { target: usize::MAX });
        }
        let locks = &self.inner.locks;
        if let Some(t) = (0..locks.len()).find(|&t| self.is_locked(t)) {
            return Err(MpiError::EpochModeMixed { target: t });
        }
        for lock in locks {
            lock.acquire(LockMode::Shared);
        }
        self.lock_all_active.set(true);
        self.charge_virtual(0.5 * self.params().epoch_overhead);
        if obs::enabled() {
            obs::instant_at(obs::EventKind::LockAll { win: self.id() }, self.vnow());
        }
        Ok(())
    }

    /// MPI-3 `MPI_Win_unlock_all`.
    pub fn unlock_all(&self) -> MpiResult<()> {
        if !self.lock_all_active.get() {
            return Err(MpiError::NotLocked { target: usize::MAX });
        }
        self.lock_all_active.set(false);
        for lock in &self.inner.locks {
            lock.release(LockMode::Shared);
        }
        self.charge_virtual(0.5 * self.params().epoch_overhead);
        if obs::enabled() {
            obs::instant_at(obs::EventKind::UnlockAll { win: self.id() }, self.vnow());
        }
        Ok(())
    }

    /// MPI-3 `MPI_Win_flush`: completes all outstanding operations on
    /// `target`. Operations execute eagerly in the simulator, so this only
    /// charges the remote-completion round trip.
    pub fn flush(&self, target: usize) -> MpiResult<()> {
        if !self.lock_all_active.get() && !self.is_locked(target) {
            return Err(MpiError::NoEpoch { target });
        }
        // The flush acknowledgement is a target-serviced round.
        let prog = self.progress_extra(target, 1);
        self.charge_virtual(self.params().put.alpha + prog);
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::Flush {
                    win: self.id(),
                    target: target as u32,
                },
                self.vnow(),
            );
        }
        Ok(())
    }

    /// MPI-3 `MPI_Fetch_and_op` on a 64-bit signed integer.
    ///
    /// Atomic with respect to every other atomic on the same location.
    /// Requires an open epoch (lock or lock_all) on the target.
    pub fn fetch_and_op_i64(
        &self,
        operand: i64,
        target: usize,
        tdisp: usize,
        op: FetchOp,
    ) -> MpiResult<i64> {
        self.atomic_i64(CellOp::Fetch(op, operand), target, tdisp)
    }

    /// Atomically applies `op` to the 8-byte cell at `tdisp` on `target`,
    /// charging the MPI backend's `rmw_latency` and emitting the `Rma`
    /// event the epoch auditor watches. Requires an open epoch (lock or
    /// lock_all) on the target.
    pub fn atomic_i64(&self, op: CellOp, target: usize, tdisp: usize) -> MpiResult<i64> {
        let old = self.rmw_cell(op, target, tdisp, true)?;
        // MPI-level atomics complete inside the target's library.
        let prog = self.progress_extra(target, 1);
        self.charge_virtual(self.params().rmw_latency + prog);
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::Rma {
                    win: self.id(),
                    target: target as u32,
                    kind: obs::OpKind::Rmw,
                    bytes: 8,
                },
                self.vnow(),
            );
        }
        Ok(old)
    }

    /// Cell-level atomic mutation only: bounds/epoch checks and the 8-byte
    /// update through the section's one byte path, with no time charged
    /// and no event emitted. The update works in place on the window
    /// bytes — RMW ops allocate nothing per call. `require_epoch` enforces
    /// the MPI rule that an epoch covers the access; non-MPI wire atomics
    /// pass `false`.
    fn rmw_cell(
        &self,
        op: CellOp,
        target: usize,
        tdisp: usize,
        require_epoch: bool,
    ) -> MpiResult<i64> {
        const WIDTH: usize = 8;
        let size = self.target_size(target)?;
        if require_epoch && !self.is_locked(target) {
            return Err(MpiError::NoEpoch { target });
        }
        if tdisp.checked_add(WIDTH).is_none_or(|end| end > size) {
            return Err(MpiError::OutOfBounds {
                target,
                disp: tdisp,
                len: WIDTH,
                size,
            });
        }
        Ok(self.inner.section(target).with_mut(|win| {
            let cell = (&mut win[tdisp..tdisp + WIDTH]).try_into();
            op.apply(cell.expect("an 8-byte cell"))
        }))
    }

    /// Epoch-free atomic on the 8-byte cell at `tdisp`, charging the
    /// backend-supplied `cost`, for wire backends whose atomics are not
    /// MPI operations (e.g. a channel backend's NIC atomics). Emits no
    /// `Rma` event.
    pub fn atomic_i64_priced(
        &self,
        op: CellOp,
        target: usize,
        tdisp: usize,
        cost: f64,
    ) -> MpiResult<i64> {
        let old = self.rmw_cell(op, target, tdisp, false)?;
        self.charge_virtual(cost);
        Ok(old)
    }
}
