//! Contiguous one-sided operations (§V-C, §V-E1, §V-F).
//!
//! Every operation is planned as a single-op [`crate::engine`] transfer
//! plan and issued inside its own passive-target epoch. The epoch's lock
//! mode is **exclusive** by default — an ARMCI process has no knowledge of
//! operations issued by its peers, so exclusivity is the only way to
//! guarantee MPI-2's no-conflict rule (§V-C). When the target GMR carries
//! an access-mode hint (§VIII-A), compatible operations downgrade to
//! **shared** locks: concurrent readers during read-only phases, concurrent
//! accumulators during accumulate-only phases.

use crate::engine::ExecBuf;
use crate::ArmciMpi;
use armci::{AccKind, AccessMode, ArmciError, ArmciResult, GlobalAddr, NbHandle};
use mpisim::LockMode;

/// Operation class for lock-mode selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpClass {
    Get,
    Put,
    Acc,
}

impl OpClass {
    fn name(self) -> &'static str {
        match self {
            OpClass::Get => "get",
            OpClass::Put => "put",
            OpClass::Acc => "accumulate",
        }
    }
}

impl ArmciMpi {
    /// Lock mode implied by the GMR's access-mode hint for `class`
    /// (§VIII-A). The hint is a *promise* about application behaviour
    /// during the phase — shared locks for compatible operations are
    /// sound only because nothing else touches the region — so an
    /// operation that contradicts the hint (a put into a read-only
    /// region, a get from an accumulate-only one) is erroneous and is
    /// rejected outright rather than silently escalated to an exclusive
    /// lock that could still corrupt concurrent shared-lock traffic.
    pub(crate) fn lock_mode_for(
        &self,
        gmr: u64,
        mode: AccessMode,
        class: OpClass,
    ) -> ArmciResult<LockMode> {
        match (mode, class) {
            (AccessMode::Standard, _) => Ok(LockMode::Exclusive),
            (AccessMode::ReadOnly, OpClass::Get) => Ok(LockMode::Shared),
            (AccessMode::AccumulateOnly, OpClass::Acc) => Ok(LockMode::Shared),
            (AccessMode::ReadOnly, c) => Err(ArmciError::AccessModeViolation {
                gmr,
                mode: "read-only",
                op: c.name(),
            }),
            (AccessMode::AccumulateOnly, c) => Err(ArmciError::AccessModeViolation {
                gmr,
                mode: "accumulate-only",
                op: c.name(),
            }),
        }
    }

    /// Records a staging-buffer fill/drain for `gmr`'s window. The auditor
    /// checks these happen while the home window is unlocked (§V-E1).
    pub(crate) fn stage_touch(&self, gmr: u64, bytes: usize) {
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::StageTouch {
                    gmr,
                    bytes: bytes as u64,
                },
                self.vnow(),
            );
        }
    }

    pub(crate) fn get_impl(&self, src: GlobalAddr, dst: &mut [u8]) -> ArmciResult<()> {
        if dst.is_empty() {
            return Ok(());
        }
        let plan = self.plan_contiguous(OpClass::Get, src, dst.len())?;
        self.run_plans(
            std::slice::from_ref(&plan),
            &ExecBuf::Get(dst.as_mut_ptr(), dst.len()),
        )
    }

    pub(crate) fn put_impl(&self, src: &[u8], dst: GlobalAddr) -> ArmciResult<()> {
        if src.is_empty() {
            return Ok(());
        }
        let plan = self.plan_contiguous(OpClass::Put, dst, src.len())?;
        self.run_plans(
            std::slice::from_ref(&plan),
            &ExecBuf::Put(src.as_ptr(), src.len()),
        )
    }

    pub(crate) fn acc_impl(&self, kind: AccKind, src: &[u8], dst: GlobalAddr) -> ArmciResult<()> {
        if src.is_empty() {
            return Ok(());
        }
        kind.check_len(src.len())?;
        let plan = self.plan_contiguous(OpClass::Acc, dst, src.len())?;
        // Pre-scale into pooled staging so the wire operation is MPI's
        // unscaled SUM accumulate.
        let mut staged = self.scratch(src.len());
        kind.prescale_into(src, &mut staged)?;
        if !kind.is_unit_scale() {
            self.charge(self.copy_cost(src.len()));
        }
        self.stage_touch(plan.gmr, src.len());
        self.run_plans(
            std::slice::from_ref(&plan),
            &ExecBuf::Acc(&staged, kind.mpi_elem()),
        )
    }

    /// Nonblocking contiguous get (§VIII-B(3)): planned like `get_impl`
    /// but executed through the coalescing scheduler; the returned handle
    /// completes at `wait` or the next synchronisation point. The
    /// simulator moves bytes at issue time, so `dst` is filled on return —
    /// only the virtual-time completion is deferred.
    pub(crate) fn nb_get_impl(&self, src: GlobalAddr, dst: &mut [u8]) -> ArmciResult<NbHandle> {
        if dst.is_empty() {
            return Ok(NbHandle::eager());
        }
        let plan = self.plan_contiguous(OpClass::Get, src, dst.len())?;
        self.nb_run_plans(vec![plan], &ExecBuf::Get(dst.as_mut_ptr(), dst.len()))
    }

    /// Nonblocking contiguous put.
    pub(crate) fn nb_put_impl(&self, src: &[u8], dst: GlobalAddr) -> ArmciResult<NbHandle> {
        if src.is_empty() {
            return Ok(NbHandle::eager());
        }
        let plan = self.plan_contiguous(OpClass::Put, dst, src.len())?;
        self.nb_run_plans(vec![plan], &ExecBuf::Put(src.as_ptr(), src.len()))
    }

    /// Nonblocking contiguous accumulate.
    pub(crate) fn nb_acc_impl(
        &self,
        kind: AccKind,
        src: &[u8],
        dst: GlobalAddr,
    ) -> ArmciResult<NbHandle> {
        if src.is_empty() {
            return Ok(NbHandle::eager());
        }
        kind.check_len(src.len())?;
        let plan = self.plan_contiguous(OpClass::Acc, dst, src.len())?;
        let mut staged = self.scratch(src.len());
        kind.prescale_into(src, &mut staged)?;
        if !kind.is_unit_scale() {
            self.charge(self.copy_cost(src.len()));
        }
        self.stage_touch(plan.gmr, src.len());
        self.nb_run_plans(vec![plan], &ExecBuf::Acc(&staged, kind.mpi_elem()))
    }

    /// Global↔global contiguous copy (§V-E1). The source is staged into a
    /// temporary local buffer under its own epoch — released *before* the
    /// destination is locked — which is the only deadlock-free ordering
    /// the paper identifies.
    pub(crate) fn copy_impl(
        &self,
        src: GlobalAddr,
        dst: GlobalAddr,
        bytes: usize,
    ) -> ArmciResult<()> {
        if bytes == 0 {
            return Ok(());
        }
        // Pooled bounce buffer: the global→global copy path is the
        // classic beneficiary of prepinned staging (§V-E1).
        let mut tmp = self.scratch(bytes);
        if src.rank == self.rank_of_self() {
            // Local global buffer: exclusive-epoch direct access, copy
            // out, release (no window is locked while we then lock dst's).
            self.access_impl(src, bytes, &mut |b| tmp.copy_from_slice(b))?;
        } else {
            self.get_impl(src, &mut tmp)?;
        }
        self.charge(self.copy_cost(bytes));
        if obs::enabled() {
            // The bounce buffer is complete and the source epoch released;
            // the destination window must not be locked yet (§V-E1).
            if let Ok(tr) = self.translate(dst, bytes) {
                self.stage_touch(tr.gmr, bytes);
            }
        }
        self.put_impl(&tmp, dst)
    }

    pub(crate) fn rank_of_self(&self) -> usize {
        self.world.rank()
    }
}
