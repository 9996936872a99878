//! Pluggable wire backends.
//!
//! A backend holds only what differs between wire mechanisms: how a
//! blocking transfer moves and is priced, how a coalesced run is priced,
//! how an 8-byte atomic executes, and which [`EpochStyle`] brackets its
//! access contexts. Everything else is written once on top of that:
//!
//! * epoch brackets (`EpochStyle::attach`, `EpochStyle::begin`,
//!   `EpochStyle::end`, `EpochStyle::detach`) follow from the style
//!   alone;
//! * the mutual-exclusion brackets of byte-protocol sequences and direct
//!   access (`atomic_epoch_begin`/`atomic_epoch_end`) are the same
//!   for every backend;
//! * payload movement: every route flattens with
//!   [`Flat::flatten`](mpisim::dtype::Flat::flatten) and moves through
//!   the window's one mover, [`WinHandle::stage`]. A backend's
//!   `transfer` adds only admission (where it has epochs) and its
//!   price, and the coalescing scheduler calls the two directly.
//!
//! Two wire backends exist:
//!
//! * [`MpiRmaTransport`] — the paper's backend: MPI-2 per-op passive
//!   epochs (`lock`/`unlock`) or the MPI-3 epochless discipline
//!   (`lock_all` at attach, `flush` per access context), delegating 1:1
//!   to [`WinHandle::transfer`], `issue_merged` and the MPI-3 atomics;
//! * [`ChannelTransport`] — a RAMC-style remote-memory-channel model:
//!   no MPI epochs at all; contiguous puts/gets are offloaded
//!   doorbell-ring + completion-queue operations, noncontiguous and
//!   accumulate traffic takes a software fallback path, and atomics run
//!   on the NIC. Selected with [`Config::transport`](crate::Config).
//!
//! Node-local plans on shared-backed windows are not a backend: the
//! engine's shm route ([`crate::shm`]) brackets them with the MPI
//! backend's epoch style and moves payload with
//! [`WinHandle::shm_transfer`]: the same mover, priced by the shm tier.
//!
//! The trait is *stateless with respect to windows*: every method takes
//! the [`WinHandle`] it operates on, so one boxed backend serves every
//! GMR of the process. Cost attribution happens inside the backend
//! (each method charges the issuing rank's virtual clock); congestion
//! pricing flows through [`WinHandle::net_extra`] on both backends.

mod channel;

pub use channel::ChannelTransport;

use mpisim::dtype::Datatype;
use mpisim::mpi3::{CellOp, FetchOp};
pub use mpisim::Origin;

use mpisim::{AccOp, ElemType, LockMode, MpiResult, RmaClass, WinHandle};

/// Which wire backend a runtime instance uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// MPI passive-target RMA (the paper's implementation).
    #[default]
    MpiRma,
    /// RAMC-style remote memory channels (doorbell + completion queue).
    Channel,
}

/// How a backend brackets access contexts, for epoch statistics and the
/// engine's aggregate-epoch bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochStyle {
    /// A per-target lock/unlock pair per access context (MPI-2).
    PerOp,
    /// A standing `lock_all` epoch; contexts close with `flush` (MPI-3
    /// epochless).
    Flush,
    /// No epochs: the backend orders its own traffic (channel).
    None,
}

impl EpochStyle {
    /// Window-lifetime setup at GMR creation: the epochless style's
    /// standing `lock_all`.
    pub(crate) fn attach(self, win: &WinHandle) -> MpiResult<()> {
        match self {
            EpochStyle::Flush => win.lock_all(),
            EpochStyle::PerOp | EpochStyle::None => Ok(()),
        }
    }

    /// Window-lifetime teardown before the window is freed.
    pub(crate) fn detach(self, win: &WinHandle) -> MpiResult<()> {
        match self {
            EpochStyle::Flush => win.unlock_all(),
            EpochStyle::PerOp | EpochStyle::None => Ok(()),
        }
    }

    /// Opens an access context on `target`: a lock for the per-op style,
    /// nothing otherwise.
    pub(crate) fn begin(self, win: &WinHandle, target: usize, mode: LockMode) -> MpiResult<()> {
        match self {
            EpochStyle::PerOp => win.lock(mode, target),
            EpochStyle::Flush | EpochStyle::None => Ok(()),
        }
    }

    /// Closes the access context on `target`: unlock, flush, or nothing.
    pub(crate) fn end(self, win: &WinHandle, target: usize) -> MpiResult<()> {
        match self {
            EpochStyle::PerOp => win.unlock(target),
            EpochStyle::Flush => win.flush(target),
            EpochStyle::None => Ok(()),
        }
    }
}

/// Opens a mutual-exclusion context on `target` for a byte-protocol
/// sequence (the Latham mutex's put-then-snapshot), a direct-access
/// section or a native atomic: the window lock, unless a standing
/// `lock_all` already covers the access. The same on every backend.
pub(crate) fn atomic_epoch_begin(win: &WinHandle, target: usize, mode: LockMode) -> MpiResult<()> {
    if win.lock_all_is_active() {
        Ok(())
    } else {
        win.lock(mode, target)
    }
}

/// Closes the context [`atomic_epoch_begin`] opened.
pub(crate) fn atomic_epoch_end(win: &WinHandle, target: usize) -> MpiResult<()> {
    if win.lock_all_is_active() {
        Ok(())
    } else {
        win.unlock(target)
    }
}

/// Offload counters a backend may expose (zero for backends without an
/// offload distinction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Operations the backend completed in "hardware" (e.g. contiguous
    /// channel puts/gets and NIC atomics).
    pub offloaded: u64,
    /// Operations that took the backend's software fallback path.
    pub fallback: u64,
}

/// An object-safe wire backend: five required methods, the rest
/// provided. See the module docs for what is written once above it.
///
/// * `transfer` validates, moves payload and charges its full cost,
///   inside an access context the caller opened.
/// * `issue_merged` prices (without charging) one coalesced run whose
///   bytes already moved through the window's mover.
/// * `atomic` applies one 8-byte cell update, including whatever
///   bracketing the backend needs for atomicity, and charges its cost.
///
/// The provided bracket and per-verb methods are compatibility names
/// over these; no backend overrides them.
#[allow(clippy::too_many_arguments)] // mirrors the MPI RMA signatures
pub trait Transport {
    /// Backend name, as recorded in benchmarks and trace events.
    fn name(&self) -> &'static str;

    /// The backend's epoch discipline.
    fn epoch_style(&self) -> EpochStyle;

    /// Blocking one-sided transfer inside an open access context:
    /// `origin` selected by `odt`, the target's window by `tdt` at
    /// `tdisp`. An accumulate is element-atomic at the target.
    fn transfer(
        &self,
        win: &WinHandle,
        origin: Origin<'_>,
        odt: &Datatype,
        target: usize,
        tdisp: usize,
        tdt: &Datatype,
    ) -> MpiResult<()>;

    /// Prices one coalesced run of same-class operations whose bytes
    /// already moved through the window's mover ([`WinHandle::stage`]).
    /// Returns the virtual-time cost for the scheduler to charge or defer.
    fn issue_merged(
        &self,
        win: &WinHandle,
        class: RmaClass,
        target: usize,
        segs: &[(usize, usize)],
    ) -> MpiResult<f64>;

    /// Atomically applies `op` to the 8-byte integer cell at `tdisp` on
    /// `target`; returns the cell's old value.
    fn atomic(&self, win: &WinHandle, op: CellOp, target: usize, tdisp: usize) -> MpiResult<i64>;

    /// Offload counters (zero for backends without the distinction).
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }

    /// Window-lifetime setup under this backend's style: the epochless
    /// style's standing `lock_all`, nothing otherwise.
    fn attach(&self, win: &WinHandle) -> MpiResult<()> {
        self.epoch_style().attach(win)
    }

    /// Window-lifetime teardown: undoes [`Transport::attach`].
    fn detach(&self, win: &WinHandle) -> MpiResult<()> {
        self.epoch_style().detach(win)
    }

    /// Opens an access context on `target`: a lock under the per-op
    /// style, nothing otherwise.
    fn epoch_begin(&self, win: &WinHandle, target: usize, mode: LockMode) -> MpiResult<()> {
        self.epoch_style().begin(win, target, mode)
    }

    /// Closes the access context on `target`: unlock, flush or nothing,
    /// by style.
    fn epoch_end(&self, win: &WinHandle, target: usize) -> MpiResult<()> {
        self.epoch_style().end(win, target)
    }

    /// [`Transport::transfer`] of a put.
    fn put(
        &self,
        win: &WinHandle,
        origin: &[u8],
        odt: &Datatype,
        target: usize,
        tdisp: usize,
        tdt: &Datatype,
    ) -> MpiResult<()> {
        self.transfer(win, Origin::Put(origin), odt, target, tdisp, tdt)
    }

    /// [`Transport::transfer`] of a get.
    fn get(
        &self,
        win: &WinHandle,
        origin: &mut [u8],
        odt: &Datatype,
        target: usize,
        tdisp: usize,
        tdt: &Datatype,
    ) -> MpiResult<()> {
        self.transfer(win, Origin::Get(origin), odt, target, tdisp, tdt)
    }

    /// [`Transport::transfer`] of an accumulate.
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
        self.transfer(win, Origin::Acc(origin, elem, op), odt, target, tdisp, tdt)
    }

    /// [`Transport::atomic`] of an MPI-3 fetch-and-op.
    fn fetch_and_op_i64(
        &self,
        win: &WinHandle,
        operand: i64,
        target: usize,
        tdisp: usize,
        op: FetchOp,
    ) -> MpiResult<i64> {
        self.atomic(win, CellOp::Fetch(op, operand), target, tdisp)
    }
}

/// Builds the wire backend for a configuration.
pub fn for_kind(kind: TransportKind, epochless: bool) -> Box<dyn Transport> {
    match kind {
        TransportKind::MpiRma => Box::new(MpiRmaTransport { epochless }),
        TransportKind::Channel => Box::new(ChannelTransport::new()),
    }
}

/// The paper's backend: MPI passive-target RMA, in per-op-epoch (MPI-2)
/// or epochless (`lock_all` + `flush`, §VIII-B(2)) discipline. Every
/// method delegates 1:1 to the corresponding [`WinHandle`] entry point,
/// so behaviour and pricing are bit-identical to the pre-trait runtime.
#[derive(Debug, Clone, Copy)]
pub struct MpiRmaTransport {
    /// MPI-3 epochless mode: `lock_all` at attach, `flush` at context
    /// close, no per-target locks.
    pub epochless: bool,
}

impl Transport for MpiRmaTransport {
    fn name(&self) -> &'static str {
        "mpi-rma"
    }

    fn epoch_style(&self) -> EpochStyle {
        if self.epochless {
            EpochStyle::Flush
        } else {
            EpochStyle::PerOp
        }
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
        win.transfer(origin, odt, target, tdisp, tdt)
    }

    fn issue_merged(
        &self,
        win: &WinHandle,
        class: RmaClass,
        target: usize,
        segs: &[(usize, usize)],
    ) -> MpiResult<f64> {
        win.issue_merged(class, target, segs)
    }

    /// A shared epoch around the MPI-3 atomic, or the standing `lock_all`
    /// in epochless mode.
    fn atomic(&self, win: &WinHandle, op: CellOp, target: usize, tdisp: usize) -> MpiResult<i64> {
        atomic_epoch_begin(win, target, LockMode::Shared)?;
        let res = win.atomic_i64(op, target, tdisp);
        let end = atomic_epoch_end(win, target);
        let v = res?;
        end?;
        Ok(v)
    }
}
