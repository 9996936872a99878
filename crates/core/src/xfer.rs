//! The one front door of ARMCI-MPI's data verbs (§V-C, §VI-A, §VI-C).
//!
//! Every get, put and accumulate — contiguous, strided or IOV, blocking
//! or nonblocking — enters through ARMCI-MPI's [`armci::Armci::xfer`],
//! the trait's one data method, with the shape of its remote side
//! ([`armci::Remote`]) and its local buffer ([`armci::Local`]). The
//! front door runs the shape check all backends share
//! ([`armci::Remote::check`]), picks the §VI method in one place, stages
//! an accumulate's pre-scaled source once, and ends in the engine's
//! blocking executor or its coalescing scheduler ([`crate::engine`]).
//!
//! # Epochs and lock modes (§V-C, §VIII-A)
//!
//! Every plan is issued inside its own passive-target epoch. The epoch's
//! lock mode is **exclusive** by default — an ARMCI process has no
//! knowledge of operations issued by its peers, so exclusivity is the
//! only way to guarantee MPI-2's no-conflict rule. When the target GMR
//! carries an access-mode hint, compatible operations downgrade to
//! **shared** locks: concurrent readers during read-only phases,
//! concurrent accumulators during accumulate-only phases.
//!
//! # Noncontiguous methods
//!
//! An I/O vector (§VI-A) is transferred with one of four methods,
//! selected by [`crate::Config::iov`]:
//!
//! * **conservative** — one operation per segment, each in its own
//!   epoch; tolerates segments that overlap or span multiple GMRs;
//! * **batched** — all segments must fall in one GMR and be disjoint; up
//!   to `B` operations share an epoch (`B = 0` means unlimited);
//! * **datatype** ("direct") — MPI indexed datatypes for the local and
//!   remote layouts and a single operation, letting the MPI layer pick
//!   pack/unpack or scatter-gather;
//! * **auto** — scans the descriptor for overlap (§VI-B, one sort-and-sweep);
//!   clean descriptors take the datatype path, conflicted ones fall back
//!   to conservative (detecting the error *after* MPI has started the
//!   transfer would be too late).
//!
//! A strided patch (§VI-C) takes one of two translations, selected by
//! [`crate::Config::strided`]:
//!
//! * **IOV translation** — Algorithm 1 (the [`armci::StridedIter`]
//!   iterator) expands the descriptor into an I/O vector, which is then
//!   transferred with any of the methods above;
//! * **direct** — the strided notation is translated *backwards* into MPI
//!   subarray datatypes for the origin and the target, and a single RMA
//!   operation hands the whole transfer to the MPI layer. When the
//!   strides do not describe a dense array (non-divisible strides) the
//!   transfer silently falls back to the IOV datatype method. An
//!   accumulate gathers its origin into contiguous staging (the pack an
//!   MPI implementation would do anyway), so only its target needs the
//!   subarray.
//!
//! Nonblocking transfers run the same plans through the coalescing
//! scheduler (DESIGN §7): `ARMCI_NbPutS`-style patch transfers overlap
//! with computation, same-target trains of them merge into coarsened
//! epochs, and direct transfers of a repeated shape hit the window's
//! committed-datatype cache instead of rebuilding subarray types.

use crate::dla::Access;
use crate::engine::TransferPlan;
use crate::gmr::Gmr;
use crate::ArmciMpi;
use armci::stride::{extent, total_bytes};
use armci::{
    strided_to_subarray, AccKind, AccessMode, ArmciError, ArmciResult, GlobalAddr, IovDesc, Local,
    NbHandle, Remote, StridedIter, StridedMethod,
};
use mpisim::{AccOp, Datatype, LockMode, Origin};
use simnet::PoolBuf;
use std::borrow::Cow;

/// How the front door plans a noncontiguous transfer.
enum Method<'a> {
    /// §VI-C direct: one operation in one epoch, `extent` target bytes
    /// at `addr` and `bytes` of payload, with subarray datatypes (the
    /// origin's is contiguous staging for an accumulate).
    Subarray {
        addr: GlobalAddr,
        extent: usize,
        bytes: usize,
        odt: Datatype,
        tdt: Datatype,
    },
    /// An I/O vector (the caller's, or Algorithm 1's translation of a
    /// strided patch) planned with a §VI-A method.
    Iov(Cow<'a, IovDesc>, StridedMethod),
}

impl ArmciMpi {
    /// Moves data between `local` and `remote`: through the blocking
    /// executor, or (`nb`) the coalescing scheduler, whose handle
    /// completes at `wait` or the next synchronisation point. The
    /// simulator moves bytes at issue time, so a nonblocking get's
    /// buffer is filled on return — only the virtual-time completion is
    /// deferred.
    pub(crate) fn xfer_impl(
        &self,
        remote: Remote<'_>,
        mut local: Local<'_>,
        nb: bool,
    ) -> ArmciResult<NbHandle> {
        if !remote.check(&local)? {
            return Ok(NbHandle::eager());
        }
        let len = local.len();
        // Plan, and stage an accumulate's source: a contiguous transfer
        // plans first, every other shape stages first.
        let mode = |gmr: &Gmr| self.lock_mode(gmr, &local);
        let mut staged = None;
        let (one, many);
        let plans: &[TransferPlan] = if let Remote::Contig(addr) = remote {
            let dt = Datatype::contiguous(len);
            one = self.plan_single(addr, len, mode, dt.clone(), dt, len)?;
            if let Local::Acc(kind, src) = local {
                staged = Some(self.stage_acc(kind, src, remote)?);
            }
            std::slice::from_ref(&one)
        } else {
            let method = self.method(remote, &local)?;
            if let Local::Acc(kind, src) = local {
                // An IOV method gathers along its descriptor.
                let shape = match &method {
                    Method::Iov(desc, _) => Remote::Iov(desc),
                    Method::Subarray { .. } => remote,
                };
                staged = Some(self.stage_acc(kind, src, shape)?);
            }
            match method {
                Method::Subarray {
                    addr,
                    extent,
                    bytes,
                    odt,
                    tdt,
                } => {
                    one = self.plan_single(addr, extent, mode, odt, tdt, bytes)?;
                    std::slice::from_ref(&one)
                }
                Method::Iov(desc, method) => {
                    many = self.plan_iov(&desc, &local, method)?;
                    &many
                }
            }
        };
        let mut origin = match (&mut local, &staged) {
            (Local::Get(b), _) => Origin::Get(b),
            (Local::Put(b), _) => Origin::Put(b),
            (Local::Acc(kind, _), Some(staged)) => {
                self.stage_touch(plans[0].gmr.id, staged.len());
                Origin::Acc(staged, kind.mpi_elem(), AccOp::Sum)
            }
            (Local::Acc(..), None) => unreachable!("accumulates are staged"),
        };
        if nb {
            self.nb_run_plans(plans, &mut origin)
        } else {
            self.run_plans(plans, &mut origin)
                .map(|()| NbHandle::eager())
        }
    }

    /// Picks how a validated noncontiguous transfer is planned — the
    /// only reader of [`crate::Config::strided`] and
    /// [`crate::Config::iov`] — and translates a strided patch bound for
    /// an IOV method with Algorithm 1. A direct strided transfer whose
    /// shape is no subarray falls back to the IOV datatype method, and
    /// `iov: Direct` acts as `IovDatatype`.
    fn method<'a>(&self, remote: Remote<'a>, local: &Local<'_>) -> ArmciResult<Method<'a>> {
        Ok(match remote {
            Remote::Contig(_) => unreachable!("a contiguous transfer has one plan shape"),
            Remote::Strided {
                addr,
                strides,
                local_strides,
                count,
            } => {
                let iov = |method| {
                    let desc = Self::strided_to_iov(addr, strides, local_strides, count)?;
                    Ok(Method::Iov(Cow::Owned(desc), method))
                };
                if self.cfg.strided != StridedMethod::Direct {
                    return iov(self.cfg.strided);
                }
                // An accumulate's origin is its contiguous staging buffer.
                let odt = if local.is_acc() {
                    Some(Datatype::contiguous(total_bytes(count)))
                } else {
                    strided_to_subarray(local_strides, count)
                };
                match (odt, strided_to_subarray(strides, count)) {
                    (Some(odt), Some(tdt)) => Method::Subarray {
                        addr,
                        extent: extent(strides, count),
                        bytes: total_bytes(count),
                        odt,
                        tdt,
                    },
                    _ => return iov(StridedMethod::IovDatatype),
                }
            }
            Remote::Iov(desc) => Method::Iov(
                Cow::Borrowed(desc),
                match self.cfg.iov {
                    StridedMethod::Direct => StridedMethod::IovDatatype,
                    method => method,
                },
            ),
        })
    }

    /// Stages an accumulate's source: gathers its origin segments into
    /// pooled scratch in segment order and pre-scales them in place, so
    /// the wire operation is MPI's unscaled SUM and every method sources
    /// from one contiguous buffer. A contiguous source is charged the
    /// copy only when it scales.
    fn stage_acc(&self, kind: AccKind, src: &[u8], remote: Remote<'_>) -> ArmciResult<PoolBuf> {
        let mut staged = match remote {
            Remote::Contig(_) => self.gather(src, src.len(), src.len(), [0]),
            Remote::Strided {
                strides,
                local_strides,
                count,
                ..
            } => {
                let offs = StridedIter::new(local_strides, strides, count)?.map(|(o, _)| o);
                self.gather(src, count[0], total_bytes(count), offs)
            }
            Remote::Iov(desc) => self.gather(
                src,
                desc.bytes,
                desc.total_bytes(),
                desc.local_offsets.iter().copied(),
            ),
        };
        kind.scale_in_place(&mut staged)?;
        if !kind.is_unit_scale() || !matches!(remote, Remote::Contig(_)) {
            self.charge(self.copy_cost(staged.len()));
        }
        Ok(staged)
    }

    /// Copies the `seg`-byte segments of `src` at `offs` into `total`
    /// bytes of pooled scratch, back to back.
    fn gather(
        &self,
        src: &[u8],
        seg: usize,
        total: usize,
        offs: impl IntoIterator<Item = usize>,
    ) -> PoolBuf {
        let mut staged = self.scratch(total);
        let mut w = 0;
        for off in offs {
            staged[w..w + seg].copy_from_slice(&src[off..off + seg]);
            w += seg;
        }
        staged
    }

    /// Algorithm 1: the I/O vector of a strided transfer.
    fn strided_to_iov(
        remote: GlobalAddr,
        strides: &[usize],
        local_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<IovDesc> {
        let mut local_offsets = Vec::new();
        let mut remote_addrs = Vec::new();
        for (rdisp, ldisp) in StridedIter::new(strides, local_strides, count)? {
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

    /// Lock mode for an operation of `local`'s class against `gmr`,
    /// from the GMR's access-mode hint (§VIII-A). The hint is a *promise*
    /// about application behaviour during the phase — shared locks for
    /// compatible operations are sound only because nothing else touches
    /// the region — so an operation that contradicts the hint (a put into
    /// a read-only region, a get from an accumulate-only one) is
    /// erroneous and is rejected outright rather than silently escalated
    /// to an exclusive lock that could still corrupt concurrent
    /// shared-lock traffic.
    pub(crate) fn lock_mode(&self, gmr: &Gmr, local: &Local<'_>) -> ArmciResult<LockMode> {
        let mode = match (gmr.mode.get(), local) {
            (AccessMode::Standard, _) => return Ok(LockMode::Exclusive),
            (AccessMode::ReadOnly, Local::Get(_))
            | (AccessMode::AccumulateOnly, Local::Acc(..)) => return Ok(LockMode::Shared),
            (AccessMode::ReadOnly, _) => "read-only",
            (AccessMode::AccumulateOnly, _) => "accumulate-only",
        };
        let op = match local {
            Local::Get(_) => "get",
            Local::Put(_) => "put",
            Local::Acc(..) => "accumulate",
        };
        Err(ArmciError::AccessModeViolation {
            gmr: gmr.id,
            mode,
            op,
        })
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
        if src.rank == self.world.rank() {
            // Local global buffer: shared-epoch direct access, copy out,
            // release (no window is locked while we then lock dst's).
            let copy_out = &mut |b: &[u8]| tmp.copy_from_slice(b);
            self.access_impl(src, bytes, Access::Read(copy_out))?;
        } else {
            self.xfer_impl(Remote::Contig(src), Local::Get(&mut tmp), false)
                .map(drop)?;
        }
        self.charge(self.copy_cost(bytes));
        if obs::enabled() {
            // The bounce buffer is complete and the source epoch released;
            // the destination window must not be locked yet (§V-E1).
            if let Ok(tr) = self.space.translate(dst, bytes) {
                self.stage_touch(tr.alloc.id, bytes);
            }
        }
        self.xfer_impl(Remote::Contig(dst), Local::Put(&tmp), false)
            .map(drop)
    }
}
