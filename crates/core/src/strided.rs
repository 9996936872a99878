//! Strided operations (§VI-C).
//!
//! Two implementation strategies, selected by [`crate::Config::strided`]:
//!
//! * **IOV translation** — Algorithm 1 (as the [`armci::StridedIter`]
//!   iterator) expands the strided descriptor into a generalized I/O
//!   vector, which is then transferred with any of the §VI-A methods;
//! * **direct** — the strided notation is translated *backwards* into MPI
//!   subarray datatypes for both the origin and the target, and a single
//!   RMA operation hands the whole transfer to the MPI layer. When the
//!   strides do not describe a dense array (non-divisible strides) the
//!   implementation silently falls back to the IOV-datatype path.
//!
//! Both strategies produce [`crate::engine`] transfer plans; the blocking
//! entry points run them immediately while the nonblocking entry points
//! hand them to the coalescing scheduler (DESIGN §7), so
//! `ARMCI_NbPutS`-style patch transfers overlap with computation — and
//! same-target trains of them merge into coarsened epochs — exactly like
//! their contiguous counterparts. Direct-datatype transfers of a
//! repeated shape hit the window's committed-datatype cache instead of
//! rebuilding subarray types per call.

use crate::engine::{ExecBuf, TransferPlan};
use crate::ops::OpClass;
use crate::ArmciMpi;
use armci::stride::{total_bytes, validate, StridedIter};
use armci::{
    strided_to_subarray, AccKind, ArmciResult, GlobalAddr, IovDesc, NbHandle, StridedMethod,
};
use simnet::PoolBuf;

impl ArmciMpi {
    /// Builds the IOV descriptor for a strided transfer where the remote
    /// side is `remote` with `remote_strides` and the local side uses
    /// `local_strides`.
    fn strided_to_iov(
        remote: GlobalAddr,
        remote_strides: &[usize],
        local_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<IovDesc> {
        let mut local_offsets = Vec::new();
        let mut remote_addrs = Vec::new();
        for (rdisp, ldisp) in StridedIter::new(remote_strides, local_strides, count)? {
            remote_addrs.push(remote.addr + rdisp);
            local_offsets.push(ldisp);
        }
        Ok(IovDesc {
            rank: remote.rank,
            bytes: count[0],
            local_offsets,
            remote_addrs,
        })
    }

    /// Plans a strided put: direct subarray datatypes when configured and
    /// expressible, IOV translation otherwise.
    fn plan_put_strided(
        &self,
        src_len: usize,
        src_strides: &[usize],
        dst: GlobalAddr,
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<Vec<TransferPlan>> {
        if self.cfg.strided == StridedMethod::Direct {
            if let Some(plan) = self.plan_strided_direct(
                OpClass::Put,
                src_len,
                src_strides,
                dst,
                dst_strides,
                count,
            )? {
                return Ok(vec![plan]);
            }
            // fall back to the datatype IOV path
            let desc = Self::strided_to_iov(dst, dst_strides, src_strides, count)?;
            self.check_local(&desc, src_len)?;
            return self.plan_iov(&desc, OpClass::Put, false, StridedMethod::IovDatatype);
        }
        let desc = Self::strided_to_iov(dst, dst_strides, src_strides, count)?;
        self.check_local(&desc, src_len)?;
        self.plan_iov(&desc, OpClass::Put, false, self.cfg.strided)
    }

    /// Plans a strided get (local side is the destination).
    fn plan_get_strided(
        &self,
        src: GlobalAddr,
        src_strides: &[usize],
        dst_len: usize,
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<Vec<TransferPlan>> {
        if self.cfg.strided == StridedMethod::Direct {
            if let Some(plan) = self.plan_strided_direct(
                OpClass::Get,
                dst_len,
                dst_strides,
                src,
                src_strides,
                count,
            )? {
                return Ok(vec![plan]);
            }
            let desc = Self::strided_to_iov(src, src_strides, dst_strides, count)?;
            self.check_local(&desc, dst_len)?;
            return self.plan_iov(&desc, OpClass::Get, false, StridedMethod::IovDatatype);
        }
        let desc = Self::strided_to_iov(src, src_strides, dst_strides, count)?;
        self.check_local(&desc, dst_len)?;
        self.plan_iov(&desc, OpClass::Get, false, self.cfg.strided)
    }

    /// Plans a strided accumulate and stages its pre-scaled source. The
    /// direct path gathers the origin segments into a contiguous staging
    /// buffer (the pack an MPI implementation would do anyway) and pairs
    /// it with the target subarray type in one operation.
    fn plan_acc_strided(
        &self,
        kind: AccKind,
        src: &[u8],
        src_strides: &[usize],
        dst: GlobalAddr,
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<(Vec<TransferPlan>, PoolBuf)> {
        kind.check_len(count[0])?;
        if self.cfg.strided == StridedMethod::Direct
            && strided_to_subarray(dst_strides, count).is_some()
        {
            // Gather the origin segments into pooled scratch (the pack an
            // MPI implementation would do anyway), then scale in place.
            let total = total_bytes(count);
            let mut staged = self.scratch(total);
            let mut w = 0usize;
            for (sdisp, _) in StridedIter::new(src_strides, dst_strides, count)? {
                staged[w..w + count[0]].copy_from_slice(&src[sdisp..sdisp + count[0]]);
                w += count[0];
            }
            kind.scale_in_place(&mut staged)?;
            self.charge(self.copy_cost(total));
            let plan = self.plan_strided_direct_acc(dst, dst_strides, count, staged.len())?;
            self.stage_touch(plan.gmr, staged.len());
            return Ok((vec![plan], staged));
        }
        let method = if self.cfg.strided == StridedMethod::Direct {
            StridedMethod::IovDatatype
        } else {
            self.cfg.strided
        };
        let desc = Self::strided_to_iov(dst, dst_strides, src_strides, count)?;
        self.check_local(&desc, src.len())?;
        let staged = self.stage_iov_acc(kind, &desc, src)?;
        let plans = self.plan_iov(&desc, OpClass::Acc, true, method)?;
        if let Some(p) = plans.first() {
            self.stage_touch(p.gmr, staged.len());
        }
        Ok((plans, staged))
    }

    pub(crate) fn put_strided_impl(
        &self,
        src: &[u8],
        src_strides: &[usize],
        dst: GlobalAddr,
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<()> {
        validate(src_strides, count)?;
        validate(dst_strides, count)?;
        let plans = self.plan_put_strided(src.len(), src_strides, dst, dst_strides, count)?;
        self.run_plans(&plans, &ExecBuf::Put(src.as_ptr(), src.len()))
    }

    pub(crate) fn get_strided_impl(
        &self,
        src: GlobalAddr,
        src_strides: &[usize],
        dst: &mut [u8],
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<()> {
        validate(src_strides, count)?;
        validate(dst_strides, count)?;
        let plans = self.plan_get_strided(src, src_strides, dst.len(), dst_strides, count)?;
        self.run_plans(&plans, &ExecBuf::Get(dst.as_mut_ptr(), dst.len()))
    }

    pub(crate) fn acc_strided_impl(
        &self,
        kind: AccKind,
        src: &[u8],
        src_strides: &[usize],
        dst: GlobalAddr,
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<()> {
        validate(src_strides, count)?;
        validate(dst_strides, count)?;
        let (plans, staged) =
            self.plan_acc_strided(kind, src, src_strides, dst, dst_strides, count)?;
        self.run_plans(&plans, &ExecBuf::Acc(&staged, kind.mpi_elem()))
    }

    /// Nonblocking strided put (`ARMCI_NbPutS`): same planning as the
    /// blocking path, executed through the coalescing scheduler.
    pub(crate) fn nb_put_strided_impl(
        &self,
        src: &[u8],
        src_strides: &[usize],
        dst: GlobalAddr,
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<NbHandle> {
        validate(src_strides, count)?;
        validate(dst_strides, count)?;
        let plans = self.plan_put_strided(src.len(), src_strides, dst, dst_strides, count)?;
        self.nb_run_plans(plans, &ExecBuf::Put(src.as_ptr(), src.len()))
    }

    /// Nonblocking strided get (`ARMCI_NbGetS`). The simulator moves bytes
    /// at issue time, so `dst` is filled on return — only the virtual-time
    /// completion is deferred to `wait`.
    pub(crate) fn nb_get_strided_impl(
        &self,
        src: GlobalAddr,
        src_strides: &[usize],
        dst: &mut [u8],
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<NbHandle> {
        validate(src_strides, count)?;
        validate(dst_strides, count)?;
        let plans = self.plan_get_strided(src, src_strides, dst.len(), dst_strides, count)?;
        self.nb_run_plans(plans, &ExecBuf::Get(dst.as_mut_ptr(), dst.len()))
    }

    /// Nonblocking strided accumulate (`ARMCI_NbAccS`).
    pub(crate) fn nb_acc_strided_impl(
        &self,
        kind: AccKind,
        src: &[u8],
        src_strides: &[usize],
        dst: GlobalAddr,
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<NbHandle> {
        validate(src_strides, count)?;
        validate(dst_strides, count)?;
        let (plans, staged) =
            self.plan_acc_strided(kind, src, src_strides, dst, dst_strides, count)?;
        self.nb_run_plans(plans, &ExecBuf::Acc(&staged, kind.mpi_elem()))
    }
}
