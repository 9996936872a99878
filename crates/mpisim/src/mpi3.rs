//! MPI-3 RMA extensions (paper §VIII-B).
//!
//! The paper motivates four MPI-3 additions from ARMCI-MPI's pain points:
//! (1) conflicting operations relaxed from *erroneous* to *undefined*,
//! (2) an epochless passive mode (`lock_all`), (3) request-based operations
//! for communication/computation overlap, and (4) atomic read-modify-write
//! operations. This module implements all four on [`WinHandle`] so that the
//! `armci-mpi` crate can offer an MPI-3 backend for ablation studies
//! (mutex-based RMW vs native `fetch_and_op`, per-op epochs vs `lock_all`
//! + `flush`).

use crate::error::{MpiError, MpiResult};
use crate::win::{LockMode, LockOps, WinHandle};

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

impl FetchOp {
    /// Applies the operator to an 8-byte little-endian `i64` cell in
    /// place; returns the old value.
    fn apply_i64(self, cell: &mut [u8; 8], operand: i64) -> i64 {
        let old = i64::from_le_bytes(*cell);
        let new = match self {
            FetchOp::Sum => old.wrapping_add(operand),
            FetchOp::Replace => operand,
            FetchOp::NoOp => old,
        };
        *cell = new.to_le_bytes();
        old
    }
}

/// A request-based RMA operation in flight.
#[derive(Debug)]
pub struct RmaRequest {
    completes_at: f64,
}

impl RmaRequest {
    /// Blocks (in virtual time) until the operation completes; models
    /// communication/computation overlap: compute performed between issue
    /// and `wait` hides the transfer.
    pub fn wait(self, win: &WinHandle) {
        if win.shared.cfg.charge_time {
            win.shared.clocks[win.comm.my_world_rank()].advance_to(self.completes_at);
        }
    }

    /// Virtual time at which the transfer completes remotely.
    pub fn completes_at(&self) -> f64 {
        self.completes_at
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
        for t in 0..self.size_count() {
            if self.is_locked(t) {
                return Err(MpiError::EpochModeMixed { target: t });
            }
        }
        for t in 0..self.size_count() {
            self.target_lock(t).acquire(LockMode::Shared);
        }
        self.lock_all_active.set(true);
        self.charge_pub(0.5 * self.params_pub().epoch_overhead);
        if obs::enabled() {
            obs::instant_at(obs::EventKind::LockAll { win: self.id() }, self.now());
        }
        Ok(())
    }

    /// MPI-3 `MPI_Win_unlock_all`.
    pub fn unlock_all(&self) -> MpiResult<()> {
        if !self.lock_all_active.get() {
            return Err(MpiError::NotLocked { target: usize::MAX });
        }
        self.lock_all_active.set(false);
        for t in 0..self.size_count() {
            self.target_lock(t).release(LockMode::Shared);
        }
        self.charge_pub(0.5 * self.params_pub().epoch_overhead);
        if obs::enabled() {
            obs::instant_at(obs::EventKind::UnlockAll { win: self.id() }, self.now());
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
        self.charge_pub(self.params_pub().put.alpha + prog);
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::Flush {
                    win: self.id(),
                    target: target as u32,
                },
                self.now(),
            );
        }
        Ok(())
    }

    /// MPI-3 `MPI_Fetch_and_op` on a 64-bit signed integer.
    ///
    /// Atomic with respect to all other `fetch_and_op` / `compare_and_swap`
    /// calls on the same location. Requires an open epoch (lock or
    /// lock_all) on the target.
    pub fn fetch_and_op_i64(
        &self,
        operand: i64,
        target: usize,
        tdisp: usize,
        op: FetchOp,
    ) -> MpiResult<i64> {
        self.rmw_guarded(target, tdisp, true, |cell| op.apply_i64(cell, operand))
    }

    /// Epoch-free fetch-and-op with an explicit backend-supplied price.
    /// Used by wire backends whose atomics are not MPI operations (NIC
    /// atomics, shared-slab atomics) and therefore carry their own cost
    /// model; emits no `Rma` event.
    pub fn fetch_and_op_i64_priced(
        &self,
        operand: i64,
        target: usize,
        tdisp: usize,
        op: FetchOp,
        cost: f64,
    ) -> MpiResult<i64> {
        let old = self.rmw_cell(target, tdisp, false, |cell| op.apply_i64(cell, operand))?;
        self.charge_pub(cost);
        Ok(old)
    }

    /// Epoch-free compare-and-swap with an explicit backend-supplied
    /// price; the epoch-free sibling of
    /// [`WinHandle::compare_and_swap_i64`]. Emits no `Rma` event.
    pub fn compare_and_swap_i64_priced(
        &self,
        compare: i64,
        swap: i64,
        target: usize,
        tdisp: usize,
        cost: f64,
    ) -> MpiResult<i64> {
        let old = self.rmw_cell(target, tdisp, false, |cell| {
            let old = i64::from_le_bytes(*cell);
            let new = if old == compare { swap } else { old };
            *cell = new.to_le_bytes();
            old
        })?;
        self.charge_pub(cost);
        Ok(old)
    }

    /// MPI-3 `MPI_Compare_and_swap` on a 64-bit signed integer: if the
    /// target equals `compare`, stores `swap`; returns the original value.
    pub fn compare_and_swap_i64(
        &self,
        compare: i64,
        swap: i64,
        target: usize,
        tdisp: usize,
    ) -> MpiResult<i64> {
        self.rmw_guarded(target, tdisp, true, |cell| {
            let old = i64::from_le_bytes(*cell);
            let new = if old == compare { swap } else { old };
            *cell = new.to_le_bytes();
            old
        })
    }

    /// Atomically applies `f` to the 8-byte cell at `tdisp` on `target`,
    /// charging the MPI backend's `rmw_latency` and emitting the `Rma`
    /// event the epoch auditor watches.
    fn rmw_guarded(
        &self,
        target: usize,
        tdisp: usize,
        require_epoch: bool,
        f: impl FnOnce(&mut [u8; 8]) -> i64,
    ) -> MpiResult<i64> {
        let old = self.rmw_cell(target, tdisp, require_epoch, f)?;
        // MPI-level atomics complete inside the target's library.
        let prog = self.progress_extra(target, 1);
        self.charge_pub(self.params_pub().rmw_latency + prog);
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::Rma {
                    win: self.id(),
                    target: target as u32,
                    kind: obs::OpKind::Rmw,
                    bytes: 8,
                },
                self.now(),
            );
        }
        Ok(old)
    }

    /// Cell-level atomic mutation only: bounds/epoch checks and the
    /// io-lock-serialised 8-byte update, with no time charged and no
    /// event emitted. The mutator works in place on a stack array — RMW
    /// ops allocate nothing per call. `require_epoch` enforces the MPI
    /// rule that an epoch covers the access; non-MPI wire atomics pass
    /// `false`.
    fn rmw_cell(
        &self,
        target: usize,
        tdisp: usize,
        require_epoch: bool,
        f: impl FnOnce(&mut [u8; 8]) -> i64,
    ) -> MpiResult<i64> {
        const WIDTH: usize = 8;
        if target >= self.size_count() {
            return Err(MpiError::BadRank {
                rank: target,
                size: self.size_count(),
            });
        }
        if require_epoch && !self.lock_all_active.get() && !self.is_locked(target) {
            return Err(MpiError::NoEpoch { target });
        }
        let size = self.size_of(target);
        if tdisp + WIDTH > size {
            return Err(MpiError::OutOfBounds {
                target,
                disp: tdisp,
                len: WIDTH,
                size,
            });
        }
        let (io, buf, base) = self.raw_mem(target);
        let old = {
            let _g = io.lock();
            // Safety: `io` serialises all access to the slice. `base` is
            // the section offset inside the backing allocation (non-zero
            // on shared-backed windows).
            let slice = unsafe { &mut **buf };
            let lo = base + tdisp;
            let mut cell = [0u8; WIDTH];
            cell.copy_from_slice(&slice[lo..lo + WIDTH]);
            let old = f(&mut cell);
            slice[lo..lo + WIDTH].copy_from_slice(&cell);
            old
        };
        Ok(old)
    }

    /// Request-based fetch-and-op: the cell mutates atomically at issue
    /// (so the fetched value is available immediately and ordering with
    /// respect to other atomics is decided now), the caller's clock is
    /// charged only the issue overhead, and the returned request defers
    /// the rest of the RMW round trip to `wait`/`flush` — §VIII-B(3)+(4)
    /// combined: atomics that participate in overlap.
    pub fn rfetch_and_op_i64(
        &self,
        operand: i64,
        target: usize,
        tdisp: usize,
        op: FetchOp,
    ) -> MpiResult<(i64, RmaRequest)> {
        let old = self.rmw_cell(target, tdisp, true, |cell| op.apply_i64(cell, operand))?;
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::Rma {
                    win: self.id(),
                    target: target as u32,
                    kind: obs::OpKind::Rmw,
                    bytes: 8,
                },
                self.now(),
            );
        }
        let total = self.params_pub().rmw_latency + self.progress_extra(target, 1);
        let issue = self.params_pub().op_overhead.min(total);
        Ok((old, self.defer(issue, total)))
    }

    /// Epoch-free request-based fetch-and-op with backend-supplied issue
    /// and total prices (e.g. a channel backend's doorbell now, wire
    /// round trip + CQ poll at completion). Emits no `Rma` event.
    pub fn rfetch_and_op_i64_priced(
        &self,
        operand: i64,
        target: usize,
        tdisp: usize,
        op: FetchOp,
        issue: f64,
        total: f64,
    ) -> MpiResult<(i64, RmaRequest)> {
        let old = self.rmw_cell(target, tdisp, false, |cell| op.apply_i64(cell, operand))?;
        Ok((old, self.defer(issue, total)))
    }

    /// Charges `issue` now and returns a request completing when the
    /// remaining `total - issue` has elapsed. For wire backends that price
    /// operations themselves (e.g. a channel backend's doorbell write now,
    /// completion-queue poll at `wait`).
    pub fn defer(&self, issue: f64, total: f64) -> RmaRequest {
        self.charge_pub(issue);
        RmaRequest {
            completes_at: self.now() + (total - issue).max(0.0),
        }
    }

    fn now(&self) -> f64 {
        self.shared.clocks[self.comm.my_world_rank()].now()
    }

    fn size_count(&self) -> usize {
        self.comm.size()
    }

    pub(crate) fn charge_pub(&self, dt: f64) {
        if self.shared.cfg.charge_time {
            self.shared.clocks[self.comm.my_world_rank()].advance(dt);
        }
    }

    pub(crate) fn params_pub(&self) -> &simnet::BackendParams {
        &self.shared.cfg.platform.mpi
    }
}
