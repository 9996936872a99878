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
//!   [`WinHandle::atomic_i64_priced`]).
//!
//! Payloads move through the window's bounds-checked staging movers, so
//! the bytes delivered are bit-identical to the MPI-RMA backend's — only
//! pricing, events, and epoch traffic differ. Under the congestion-aware
//! network model, each segment counts as one injected message
//! ([`WinHandle::net_extra`] with `msgs = nsegs`).

use super::{EpochStyle, Origin, Transport, TransportStats};
use mpisim::dtype::{Datatype, Flat};
use mpisim::mpi3::CellOp;
use mpisim::{AccOp, ElemType, MpiError, MpiResult, RmaClass, WinHandle};
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

    /// Validates a put's or get's origin, zips both datatypes into
    /// window-absolute copy pieces (target offsets shifted by `tdisp`)
    /// and hands them to `mv`, the window's staging mover for the
    /// direction.
    fn zip_and_move(
        &self,
        origin_len: usize,
        odt: &Datatype,
        tdisp: usize,
        tdt: &Datatype,
        mv: impl FnOnce(&[(usize, usize, usize)]) -> MpiResult<()>,
    ) -> MpiResult<()> {
        Self::check_origin(origin_len, odt)?;
        let mut flat = self.flat.borrow_mut();
        flat.flatten_target(tdt);
        flat.zip_origin(odt, tdt.size())?;
        for p in &mut flat.pieces {
            p.1 += tdisp;
        }
        mv(&flat.pieces)
    }

    /// Validates an accumulate the way the wire path does (element-multiple
    /// size, origin extent, matching origin/target sizes, element-aligned
    /// target segments in the staging mover), then gathers the origin
    /// selection contiguously and combines it per target segment
    /// (element-atomic via the mover's slab lock). As on the wire path,
    /// origin segments need not be element-aligned, only target ones.
    #[allow(clippy::too_many_arguments)]
    fn combine(
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
        win.stage_acc_bytes(&staged, target, &flat.pieces, elem, op)
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

    fn transfer(
        &self,
        win: &WinHandle,
        origin: Origin<'_>,
        odt: &Datatype,
        target: usize,
        tdisp: usize,
        tdt: &Datatype,
    ) -> MpiResult<()> {
        let (kind, combine) = match origin {
            Origin::Put(b) => {
                let mv = |pieces: &_| win.stage_put_bytes(b, target, pieces);
                self.zip_and_move(b.len(), odt, tdisp, tdt, mv)?;
                (obs::OpKind::Put, false)
            }
            Origin::Get(b) => {
                let len = b.len();
                let mv = |pieces: &_| win.stage_get_bytes(b, target, pieces);
                self.zip_and_move(len, odt, tdisp, tdt, mv)?;
                (obs::OpKind::Get, false)
            }
            Origin::Acc(b, elem, op) => {
                self.combine(win, b, odt, target, tdisp, tdt, elem, op)?;
                (obs::OpKind::Acc, true)
            }
        };
        let bytes = odt.size();
        let nsegs = odt.num_segments().max(tdt.num_segments());
        let priced = Self::price(win.channel_params(), bytes, nsegs, combine);
        win.charge_virtual(self.account(win, kind, target, bytes, nsegs, &priced));
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

    /// Doorbell + wire round trip + CQ poll, plus congestion delay for
    /// the single 8-byte message; no epoch.
    fn atomic(&self, win: &WinHandle, op: CellOp, target: usize, tdisp: usize) -> MpiResult<i64> {
        let p = win.channel_params();
        let cost = p.atomic_cost() + win.net_extra(target, p.ser_time(8), 1);
        let old = win.atomic_i64_priced(op, target, tdisp, cost)?;
        self.account_atomic(win, target);
        Ok(old)
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            offloaded: self.offloaded.get(),
            fallback: self.fallback.get(),
        }
    }
}
