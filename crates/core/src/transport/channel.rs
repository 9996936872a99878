//! RAMC-style remote-memory-channel backend.
//!
//! Models a NIC that exposes remote memory through hardware channels
//! instead of the MPI software stack: the initiator rings a doorbell
//! with a descriptor, the NIC moves contiguous payload directly, and a
//! completion-queue entry signals the finish. There are no MPI epochs —
//! the channel orders its own traffic — so access contexts are free and
//! conflicting accesses are the application's problem (as on real RDMA
//! hardware).
//!
//! * **Offloaded path** — single-segment put/get: one doorbell, one DMA,
//!   one CQ poll ([`ChannelParams::contig_cost`]).
//! * **Software fallback** — noncontiguous transfers and every
//!   accumulate: the library walks segments, rings a doorbell per
//!   segment, and (for accumulate) combines at software rates
//!   ([`ChannelParams::sw_cost`] + [`ChannelParams::combine_cost`]).
//! * **NIC atomics** — fetch-and-op and compare-and-swap execute on the
//!   NIC with no epoch, priced as doorbell + wire round trip + CQ poll
//!   ([`simnet::ChannelParams::atomic_cost`] via
//!   [`WinHandle::fetch_and_op_i64_priced`]).
//!
//! Payloads move through the window's bounds-checked staging movers, so
//! the bytes delivered are bit-identical to the MPI-RMA backend's — only
//! pricing, events, and epoch traffic differ. Under the congestion-aware
//! network model, each segment counts as one injected message
//! ([`WinHandle::net_extra`] with `msgs = nsegs`).

use super::{EpochStyle, ProgressSupport, Transport, TransportStats};
use mpisim::dtype::{Datatype, Flat};
use mpisim::mpi3::{FetchOp, RmaRequest};
use mpisim::{AccOp, ElemType, LockMode, MpiError, MpiResult, RmaClass, WinHandle};
use simnet::ChannelParams;
use std::cell::{Cell, RefCell};

/// One channel transfer, priced. `offloaded` means the NIC handled it
/// end-to-end (contiguous, no combine).
struct Priced {
    cost: f64,
    offloaded: bool,
}

/// The channel wire backend. Stateless per window; the only state is a
/// pair of offload counters surfaced through [`Transport::stats`] and the
/// flattening scratch its software path reuses.
#[derive(Debug, Default)]
pub struct ChannelTransport {
    offloaded: Cell<u64>,
    fallback: Cell<u64>,
    flat: RefCell<Flat>,
}

impl ChannelTransport {
    /// A fresh backend with zeroed counters.
    pub fn new() -> ChannelTransport {
        ChannelTransport::default()
    }

    /// Replicates the wire path's origin-buffer validation: the origin
    /// datatype must fit in the caller's buffer.
    fn check_origin(origin_len: usize, odt: &Datatype) -> MpiResult<()> {
        if odt.extent() > origin_len {
            return Err(MpiError::BadDatatype(format!(
                "origin datatype extent {} exceeds buffer {}",
                odt.extent(),
                origin_len
            )));
        }
        Ok(())
    }

    /// Prices one transfer and classifies it offloaded/fallback.
    fn price(p: &ChannelParams, bytes: usize, nsegs: usize, combine: bool) -> Priced {
        if nsegs <= 1 && !combine {
            Priced {
                cost: p.contig_cost(bytes),
                offloaded: true,
            }
        } else {
            let mut cost = p.sw_cost(bytes, nsegs);
            if combine {
                cost += p.combine_cost(bytes);
            }
            Priced {
                cost,
                offloaded: false,
            }
        }
    }

    /// Counts the op, emits its trace event, and returns the total cost
    /// (channel pricing plus congestion delay) for the caller to charge
    /// or defer.
    fn account(
        &self,
        win: &WinHandle,
        kind: obs::OpKind,
        target: usize,
        bytes: usize,
        nsegs: usize,
        priced: &Priced,
    ) -> f64 {
        if priced.offloaded {
            self.offloaded.set(self.offloaded.get() + 1);
        } else {
            self.fallback.set(self.fallback.get() + 1);
        }
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::TransportIssue {
                    backend: "channel",
                    win: win.id(),
                    target: target as u32,
                    kind,
                    bytes: bytes as u64,
                    offloaded: priced.offloaded,
                },
                win.vnow(),
            );
        }
        let extra = win.net_extra(
            target,
            win.channel_params().ser_time(bytes),
            nsegs.max(1) as u64,
        );
        // Offloaded transfers complete on the NIC regardless of the
        // target CPU; only the software fallback needs the target (or
        // its node's agent) to service the request.
        let prog = if priced.offloaded {
            0.0
        } else {
            win.progress_extra(target, 1)
        };
        priced.cost + extra + prog
    }

    /// Flattens both datatypes once and zips them into window-absolute
    /// copy pieces (target offsets shifted by `tdisp`) for the staging
    /// movers.
    fn pieces(flat: &mut Flat, odt: &Datatype, tdisp: usize, tdt: &Datatype) -> MpiResult<()> {
        flat.flatten_target(tdt);
        flat.zip_origin(odt, tdt.size())?;
        for p in &mut flat.pieces {
            p.1 += tdisp;
        }
        Ok(())
    }

    /// Total cost of one NIC atomic to `target`: the channel atomic
    /// price plus congestion delay for its single 8-byte message.
    fn atomic_total(&self, win: &WinHandle, target: usize) -> f64 {
        win.channel_params().atomic_cost()
            + win.net_extra(target, win.channel_params().ser_time(8), 1)
    }

    /// Counts one offloaded NIC atomic and emits its trace event.
    fn account_atomic(&self, win: &WinHandle, target: usize) {
        self.offloaded.set(self.offloaded.get() + 1);
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::TransportIssue {
                    backend: "channel",
                    win: win.id(),
                    target: target as u32,
                    kind: obs::OpKind::Rmw,
                    bytes: 8,
                    offloaded: true,
                },
                win.vnow(),
            );
        }
    }
}

impl Transport for ChannelTransport {
    fn name(&self) -> &'static str {
        "channel"
    }

    fn epoch_style(&self) -> EpochStyle {
        EpochStyle::None
    }

    fn attach(&self, _win: &WinHandle) -> MpiResult<()> {
        Ok(())
    }

    fn detach(&self, _win: &WinHandle) -> MpiResult<()> {
        Ok(())
    }

    fn epoch_begin(&self, _win: &WinHandle, _target: usize, _mode: LockMode) -> MpiResult<()> {
        Ok(())
    }

    fn epoch_end(&self, _win: &WinHandle, _target: usize) -> MpiResult<()> {
        Ok(())
    }

    fn put(
        &self,
        win: &WinHandle,
        origin: &[u8],
        odt: &Datatype,
        target: usize,
        tdisp: usize,
        tdt: &Datatype,
    ) -> MpiResult<()> {
        Self::check_origin(origin.len(), odt)?;
        let mut flat = self.flat.borrow_mut();
        Self::pieces(&mut flat, odt, tdisp, tdt)?;
        win.stage_put_bytes(origin, target, &flat.pieces)?;
        let bytes = odt.size();
        let nsegs = odt.num_segments().max(tdt.num_segments());
        let priced = Self::price(win.channel_params(), bytes, nsegs, false);
        win.charge_virtual(self.account(win, obs::OpKind::Put, target, bytes, nsegs, &priced));
        Ok(())
    }

    fn get(
        &self,
        win: &WinHandle,
        origin: &mut [u8],
        odt: &Datatype,
        target: usize,
        tdisp: usize,
        tdt: &Datatype,
    ) -> MpiResult<()> {
        Self::check_origin(origin.len(), odt)?;
        let mut flat = self.flat.borrow_mut();
        Self::pieces(&mut flat, odt, tdisp, tdt)?;
        win.stage_get_bytes(origin, target, &flat.pieces)?;
        let bytes = odt.size();
        let nsegs = odt.num_segments().max(tdt.num_segments());
        let priced = Self::price(win.channel_params(), bytes, nsegs, false);
        win.charge_virtual(self.account(win, obs::OpKind::Get, target, bytes, nsegs, &priced));
        Ok(())
    }

    fn accumulate(
        &self,
        win: &WinHandle,
        origin: &[u8],
        odt: &Datatype,
        target: usize,
        tdisp: usize,
        tdt: &Datatype,
        elem: ElemType,
        op: AccOp,
    ) -> MpiResult<()> {
        // Validation replicates the wire path: element-multiple size,
        // matching origin/target sizes, element-aligned target segments
        // (checked by the staging mover).
        let es = elem.size();
        if !odt.size().is_multiple_of(es) {
            return Err(MpiError::BadDatatype(format!(
                "accumulate of {} bytes not a multiple of element size {es}",
                odt.size()
            )));
        }
        Self::check_origin(origin.len(), odt)?;
        if odt.size() != tdt.size() {
            return Err(MpiError::TypeMismatch {
                origin_bytes: odt.size(),
                target_bytes: tdt.size(),
            });
        }
        // Gather the origin selection contiguously, then combine per
        // target segment (element-atomic via the mover's slab lock) — the
        // same shape as the wire path, so origin segments need not be
        // element-aligned, only target ones.
        let mut flat = self.flat.borrow_mut();
        let flat = &mut *flat;
        let mut staged = vec![0u8; odt.size()];
        let mut w = 0usize;
        odt.segments_into(&mut flat.osegs);
        for &(off, len) in &flat.osegs {
            staged[w..w + len].copy_from_slice(&origin[off..off + len]);
            w += len;
        }
        flat.flatten_target(tdt);
        flat.pieces.clear();
        let mut s = 0usize;
        for &(toff, len) in &flat.tsegs {
            flat.pieces.push((s, tdisp + toff, len));
            s += len;
        }
        win.stage_acc_bytes(&staged, target, &flat.pieces, elem, op)?;
        let bytes = odt.size();
        let nsegs = odt.num_segments().max(tdt.num_segments());
        let priced = Self::price(win.channel_params(), bytes, nsegs, true);
        win.charge_virtual(self.account(win, obs::OpKind::Acc, target, bytes, nsegs, &priced));
        Ok(())
    }

    fn issue_merged(
        &self,
        win: &WinHandle,
        class: RmaClass,
        target: usize,
        segs: &[(usize, usize)],
    ) -> MpiResult<f64> {
        // Bytes already moved through the stage movers (bounds-checked
        // there); merged runs always take the software path — the NIC
        // offload is contiguous-only.
        let bytes: usize = segs.iter().map(|&(_, len)| len).sum();
        let nsegs = segs.len().max(1);
        let p = win.channel_params();
        let (combine, kind) = match class {
            RmaClass::Acc(..) => (true, obs::OpKind::Acc),
            RmaClass::Put => (false, obs::OpKind::Put),
            RmaClass::Get => (false, obs::OpKind::Get),
        };
        let mut cost = p.sw_cost(bytes, nsegs);
        if combine {
            cost += p.combine_cost(bytes);
        }
        let priced = Priced {
            cost,
            offloaded: false,
        };
        Ok(self.account(win, kind, target, bytes, nsegs, &priced))
    }

    fn fetch_and_op_i64(
        &self,
        win: &WinHandle,
        operand: i64,
        target: usize,
        tdisp: usize,
        op: FetchOp,
    ) -> MpiResult<i64> {
        let cost = self.atomic_total(win, target);
        let old = win.fetch_and_op_i64_priced(operand, target, tdisp, op, cost)?;
        self.account_atomic(win, target);
        Ok(old)
    }

    fn compare_and_swap_i64(
        &self,
        win: &WinHandle,
        compare: i64,
        swap: i64,
        target: usize,
        tdisp: usize,
    ) -> MpiResult<i64> {
        let cost = self.atomic_total(win, target);
        let old = win.compare_and_swap_i64_priced(compare, swap, target, tdisp, cost)?;
        self.account_atomic(win, target);
        Ok(old)
    }

    fn rfetch_and_op_i64(
        &self,
        win: &WinHandle,
        operand: i64,
        target: usize,
        tdisp: usize,
        op: FetchOp,
    ) -> MpiResult<(i64, RmaRequest)> {
        // Doorbell now; wire round trip + CQ poll reaped at completion.
        let total = self.atomic_total(win, target);
        let issue = win.channel_params().doorbell.min(total);
        let pair = win.rfetch_and_op_i64_priced(operand, target, tdisp, op, issue, total)?;
        self.account_atomic(win, target);
        Ok(pair)
    }

    fn progress_support(&self) -> ProgressSupport {
        // The software fallback (noncontiguous, accumulate combine) is
        // serviced by the target's runtime; an agent can drain it. The
        // offloaded contiguous/NIC-atomic paths never stall either way.
        ProgressSupport::Agent
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            offloaded: self.offloaded.get(),
            fallback: self.fallback.get(),
        }
    }
}
