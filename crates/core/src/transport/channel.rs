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
//! A transfer is flatten, move, price: [`Flat::flatten`] validates and
//! flattens the datatype pair, and the window's one mover
//! ([`WinHandle::stage`]) bounds-checks and moves the bytes, so the bytes
//! delivered and the errors returned are the MPI-RMA backend's; only
//! pricing, events and epoch traffic differ. Under the congestion-aware
//! network model, each segment counts as one injected message
//! ([`WinHandle::net_extra`] with `msgs = nsegs`).

use super::{EpochStyle, Origin, Transport, TransportStats};
use mpisim::dtype::{Datatype, Flat};
use mpisim::mpi3::CellOp;
use mpisim::{MpiResult, RmaClass, WinHandle};
use std::cell::{Cell, RefCell};

/// The channel wire backend. Stateless per window; the only state is a
/// pair of offload counters surfaced through [`Transport::stats`] and the
/// flattening scratch its transfers reuse.
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

    /// Prices one channel operation, counts it, emits its trace event and
    /// returns the total cost (channel pricing plus congestion and
    /// progress delay) for the caller to charge or defer. The NIC offloads
    /// a single-segment put or get when `offload` allows it; everything
    /// else takes the software path, and an accumulate adds the software
    /// combine.
    fn issue(
        &self,
        win: &WinHandle,
        class: RmaClass,
        target: usize,
        bytes: usize,
        nsegs: usize,
        offload: bool,
    ) -> f64 {
        let p = win.channel_params();
        let (kind, combine) = match class {
            RmaClass::Get => (obs::OpKind::Get, false),
            RmaClass::Put => (obs::OpKind::Put, false),
            RmaClass::Acc(..) => (obs::OpKind::Acc, true),
        };
        let offloaded = offload && nsegs <= 1 && !combine;
        let cost = if offloaded {
            self.offloaded.set(self.offloaded.get() + 1);
            p.contig_cost(bytes)
        } else {
            self.fallback.set(self.fallback.get() + 1);
            let sw = p.sw_cost(bytes, nsegs);
            if combine {
                sw + p.combine_cost(bytes)
            } else {
                sw
            }
        };
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::TransportIssue {
                    backend: "channel",
                    win: win.id(),
                    target: target as u32,
                    kind,
                    bytes: bytes as u64,
                    offloaded,
                },
                win.vnow(),
            );
        }
        let extra = win.net_extra(target, p.ser_time(bytes), nsegs.max(1) as u64);
        // Offloaded transfers complete on the NIC regardless of the
        // target CPU; only the software fallback needs the target (or
        // its node's agent) to service the request.
        let prog = if offloaded {
            0.0
        } else {
            win.progress_extra(target, 1)
        };
        cost + extra + prog
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
        let class = origin.class();
        {
            let mut flat = self.flat.borrow_mut();
            flat.flatten(&origin, odt, tdisp, tdt)?;
            win.stage(origin, target, &flat)?;
        }
        let nsegs = odt.num_segments().max(tdt.num_segments());
        win.charge_virtual(self.issue(win, class, target, odt.size(), nsegs, true));
        Ok(())
    }

    fn issue_merged(
        &self,
        win: &WinHandle,
        class: RmaClass,
        target: usize,
        segs: &[(usize, usize)],
    ) -> MpiResult<f64> {
        // Bytes already moved through the window's mover (bounds-checked
        // there); merged runs always take the software path — the NIC
        // offload is contiguous-only.
        let bytes: usize = segs.iter().map(|&(_, len)| len).sum();
        Ok(self.issue(win, class, target, bytes, segs.len().max(1), false))
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
