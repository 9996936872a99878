//! Pluggable wire backends.
//!
//! Everything in ARMCI-MPI that issues wire traffic — epoch bracketing,
//! blocking data movement, the coalescing scheduler's staged payloads
//! and merged-run issue, byte-protocol accesses (the Latham mutex queue),
//! and atomic read-modify-write — goes through the object-safe
//! [`Transport`] trait. Three implementations exist:
//!
//! * [`MpiRmaTransport`] — the paper's backend: MPI-2 per-op passive
//!   epochs (`lock`/`unlock`) or the MPI-3 epochless discipline
//!   (`lock_all` at attach, `flush` per access context), delegating 1:1
//!   to the [`WinHandle`] entry points;
//! * [`ShmTransport`] — the intra-node tier: same epoch discipline, but
//!   payloads move as node-local load/store/accumulate priced by the
//!   platform's shm parameters ([`crate::shm`] owns the `win_sync`
//!   coherence bracketing around it);
//! * [`ChannelTransport`] — a RAMC-style remote-memory-channel model:
//!   no MPI epochs at all; contiguous puts/gets are offloaded
//!   doorbell-ring + completion-queue operations, noncontiguous and
//!   accumulate traffic takes a software fallback path, and atomics run
//!   on the NIC. Selected with [`Config::transport`](crate::Config).
//!
//! The trait is *stateless with respect to windows*: every method takes
//! the [`WinHandle`] it operates on, so one boxed backend serves every
//! GMR of the process. Cost attribution happens inside the backend
//! (each method charges the issuing rank's virtual clock); congestion
//! pricing flows through [`WinHandle::net_extra`] on both backends.

mod channel;

pub use channel::ChannelTransport;

use mpisim::dtype::Datatype;
use mpisim::mpi3::{FetchOp, RmaRequest};
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

/// How a backend relates to asynchronous progress agents
/// ([`crate::ProgressMode`]): whether its passive-target traffic can be
/// drained by a per-node agent while the target computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressSupport {
    /// The backend's software-progressed rounds (epochs, accumulates,
    /// software atomics, flush acknowledgements) can route through a
    /// per-node agent.
    Agent,
    /// Remote completion is hardware-asynchronous already (NIC or
    /// load/store); an agent has nothing to drain.
    Hardware,
    /// The backend cannot route through an agent;
    /// [`armci::ArmciError::ProgressUnsupported`] when one is forced.
    Unsupported,
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

/// An object-safe wire backend. See the module docs for the contract;
/// the blanket rules are:
///
/// * `epoch_begin`/`epoch_end` bracket one access context on one target
///   (data transfers). Backends without per-target epochs make them
///   no-ops.
/// * `atomic_epoch_begin`/`atomic_epoch_end` bracket a byte-protocol
///   sequence that must execute atomically with respect to other ranks'
///   sequences (the Latham mutex's put-then-snapshot). Every backend
///   must provide real mutual exclusion here; the default takes the
///   window lock unless a standing `lock_all` already covers it.
/// * Blocking data movement (`put`/`get`/`accumulate`) validates,
///   moves payload, and charges its full cost.
/// * `stage_*` move scheduler-deferred payload without pricing;
///   `issue_merged` prices (without charging) one coalesced run whose
///   bytes already moved.
#[allow(clippy::too_many_arguments)] // mirrors the MPI RMA signatures
pub trait Transport {
    /// Backend name, as recorded in benchmarks and trace events.
    fn name(&self) -> &'static str;

    /// The backend's epoch discipline.
    fn epoch_style(&self) -> EpochStyle;

    /// Window-lifetime setup at GMR creation (e.g. the epochless
    /// backend's `lock_all`).
    fn attach(&self, win: &WinHandle) -> MpiResult<()>;

    /// Window-lifetime teardown before the window is freed.
    fn detach(&self, win: &WinHandle) -> MpiResult<()>;

    /// Opens an access context on `target`.
    fn epoch_begin(&self, win: &WinHandle, target: usize, mode: LockMode) -> MpiResult<()>;

    /// Closes the access context on `target` (unlock, flush, or nothing
    /// per [`Transport::epoch_style`]).
    fn epoch_end(&self, win: &WinHandle, target: usize) -> MpiResult<()>;

    /// Opens a mutual-exclusion context for a byte-protocol sequence.
    fn atomic_epoch_begin(&self, win: &WinHandle, target: usize, mode: LockMode) -> MpiResult<()> {
        if win.lock_all_is_active() {
            Ok(())
        } else {
            win.lock(mode, target)
        }
    }

    /// Closes the mutual-exclusion context.
    fn atomic_epoch_end(&self, win: &WinHandle, target: usize) -> MpiResult<()> {
        if win.lock_all_is_active() {
            Ok(())
        } else {
            win.unlock(target)
        }
    }

    /// Blocking one-sided put inside an open access context.
    fn put(
        &self,
        win: &WinHandle,
        origin: &[u8],
        odt: &Datatype,
        target: usize,
        tdisp: usize,
        tdt: &Datatype,
    ) -> MpiResult<()>;

    /// Blocking one-sided get.
    fn get(
        &self,
        win: &WinHandle,
        origin: &mut [u8],
        odt: &Datatype,
        target: usize,
        tdisp: usize,
        tdt: &Datatype,
    ) -> MpiResult<()>;

    /// Blocking one-sided accumulate (element-atomic at the target).
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
    ) -> MpiResult<()>;

    /// Contiguous-put convenience (byte protocols).
    fn put_bytes(
        &self,
        win: &WinHandle,
        origin: &[u8],
        target: usize,
        tdisp: usize,
    ) -> MpiResult<()> {
        let dt = Datatype::contiguous(origin.len());
        self.put(win, origin, &dt, target, tdisp, &dt)
    }

    /// Contiguous-get convenience (byte protocols).
    fn get_bytes(
        &self,
        win: &WinHandle,
        origin: &mut [u8],
        target: usize,
        tdisp: usize,
    ) -> MpiResult<()> {
        let dt = Datatype::contiguous(origin.len());
        self.get(win, origin, &dt, target, tdisp, &dt)
    }

    /// Completes a request, advancing the virtual clock to its remote
    /// completion time.
    fn complete(&self, win: &WinHandle, req: RmaRequest) {
        req.wait(win);
    }

    /// Moves scheduler-deferred put payload (no pricing, no admission).
    /// `pieces` are one operation's `(origin_offset, target_disp, len)`
    /// copy pieces: every piece is bounds-checked before any byte moves,
    /// and the copy takes the target's I/O lock once.
    fn stage_put(
        &self,
        win: &WinHandle,
        origin: &[u8],
        target: usize,
        pieces: &[(usize, usize, usize)],
    ) -> MpiResult<()> {
        win.stage_put_bytes(origin, target, pieces)
    }

    /// Moves scheduler-deferred get payload; see [`Transport::stage_put`].
    fn stage_get(
        &self,
        win: &WinHandle,
        origin: &mut [u8],
        target: usize,
        pieces: &[(usize, usize, usize)],
    ) -> MpiResult<()> {
        win.stage_get_bytes(origin, target, pieces)
    }

    /// Applies scheduler-deferred accumulate payload (element-atomic);
    /// see [`Transport::stage_put`].
    fn stage_acc(
        &self,
        win: &WinHandle,
        origin: &[u8],
        target: usize,
        pieces: &[(usize, usize, usize)],
        elem: ElemType,
        op: AccOp,
    ) -> MpiResult<()> {
        win.stage_acc_bytes(origin, target, pieces, elem, op)
    }

    /// Prices one coalesced run of same-class operations whose bytes
    /// already moved through the `stage_*` movers. Returns the
    /// virtual-time cost for the scheduler to charge or defer.
    fn issue_merged(
        &self,
        win: &WinHandle,
        class: RmaClass,
        target: usize,
        segs: &[(usize, usize)],
    ) -> MpiResult<f64>;

    /// Atomic fetch-and-op on a 64-bit integer cell, including whatever
    /// bracketing the backend needs for atomicity.
    fn fetch_and_op_i64(
        &self,
        win: &WinHandle,
        operand: i64,
        target: usize,
        tdisp: usize,
        op: FetchOp,
    ) -> MpiResult<i64>;

    /// Atomic operand widths (in bytes) this backend can price natively.
    /// The `AtomicsMode::Auto` selector keys off whether 8 is present;
    /// asking for an absent width surfaces
    /// `ArmciError::AtomicUnsupported` instead of a silent software
    /// emulation with a different atomicity domain.
    fn atomic_widths(&self) -> &'static [usize] {
        &[8]
    }

    /// Atomic compare-and-swap on a 64-bit integer cell, including
    /// whatever bracketing the backend needs for atomicity. The default
    /// brackets the window's RMW primitive with the atomic-epoch hooks,
    /// which is correct for every MPI-epoch-disciplined backend.
    fn compare_and_swap_i64(
        &self,
        win: &WinHandle,
        compare: i64,
        swap: i64,
        target: usize,
        tdisp: usize,
    ) -> MpiResult<i64> {
        self.atomic_epoch_begin(win, target, LockMode::Shared)?;
        let res = win.compare_and_swap_i64(compare, swap, target, tdisp);
        let end = self.atomic_epoch_end(win, target);
        let v = res?;
        end?;
        Ok(v)
    }

    /// Request-based fetch-and-op: the fetched value is available at
    /// issue (ordering against other atomics is decided now), the rest
    /// of the round trip is deferred to the returned request. Backends
    /// without deferred atomics complete eagerly with a zero-length
    /// deferral.
    fn rfetch_and_op_i64(
        &self,
        win: &WinHandle,
        operand: i64,
        target: usize,
        tdisp: usize,
        op: FetchOp,
    ) -> MpiResult<(i64, RmaRequest)> {
        let v = self.fetch_and_op_i64(win, operand, target, tdisp, op)?;
        Ok((v, win.defer(0.0, 0.0)))
    }

    /// Whether this backend's passive-target traffic can route through a
    /// per-node progress agent. Conservative default: it cannot.
    fn progress_support(&self) -> ProgressSupport {
        ProgressSupport::Unsupported
    }

    /// Offload counters (zero for backends without the distinction).
    fn stats(&self) -> TransportStats {
        TransportStats::default()
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

    fn attach(&self, win: &WinHandle) -> MpiResult<()> {
        if self.epochless {
            win.lock_all()
        } else {
            Ok(())
        }
    }

    fn detach(&self, win: &WinHandle) -> MpiResult<()> {
        if self.epochless {
            win.unlock_all()
        } else {
            Ok(())
        }
    }

    fn epoch_begin(&self, win: &WinHandle, target: usize, mode: LockMode) -> MpiResult<()> {
        if self.epochless {
            Ok(())
        } else {
            win.lock(mode, target)
        }
    }

    fn epoch_end(&self, win: &WinHandle, target: usize) -> MpiResult<()> {
        if self.epochless {
            win.flush(target)
        } else {
            win.unlock(target)
        }
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
        win.put(origin, odt, target, tdisp, tdt)
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
        win.get(origin, odt, target, tdisp, tdt)
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
        win.accumulate(origin, odt, target, tdisp, tdt, elem, op)
    }

    fn put_bytes(
        &self,
        win: &WinHandle,
        origin: &[u8],
        target: usize,
        tdisp: usize,
    ) -> MpiResult<()> {
        win.put_bytes(origin, target, tdisp)
    }

    fn get_bytes(
        &self,
        win: &WinHandle,
        origin: &mut [u8],
        target: usize,
        tdisp: usize,
    ) -> MpiResult<()> {
        win.get_bytes(origin, target, tdisp)
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

    fn fetch_and_op_i64(
        &self,
        win: &WinHandle,
        operand: i64,
        target: usize,
        tdisp: usize,
        op: FetchOp,
    ) -> MpiResult<i64> {
        if self.epochless {
            return win.fetch_and_op_i64(operand, target, tdisp, op);
        }
        win.lock(LockMode::Shared, target)?;
        let res = win.fetch_and_op_i64(operand, target, tdisp, op);
        let end = win.unlock(target);
        let v = res?;
        end?;
        Ok(v)
    }

    fn rfetch_and_op_i64(
        &self,
        win: &WinHandle,
        operand: i64,
        target: usize,
        tdisp: usize,
        op: FetchOp,
    ) -> MpiResult<(i64, RmaRequest)> {
        if self.epochless {
            // The standing `lock_all` covers the access; completion rides
            // the request so the RMW joins coalesced/epochless batches.
            return win.rfetch_and_op_i64(operand, target, tdisp, op);
        }
        // Per-op discipline: the exclusive unlock is the completion
        // point, so there is nothing left to defer.
        let v = self.fetch_and_op_i64(win, operand, target, tdisp, op)?;
        Ok((v, win.defer(0.0, 0.0)))
    }

    fn progress_support(&self) -> ProgressSupport {
        // Lock grants, software accumulates and flush acknowledgements
        // all need target-side MPI calls — exactly what an agent drains.
        ProgressSupport::Agent
    }
}

/// The intra-node tier as a transport: epoch discipline identical to
/// [`MpiRmaTransport`], data movement as node-local load/store/accumulate
/// priced (and charged) from the platform's shm parameters. The
/// `win_sync` coherence bracketing stays with the caller
/// ([`crate::shm`]) — it is a memory-model fence, not wire traffic.
///
/// `epochless` is only honoured when the wire backend is MPI RMA (the
/// standing `lock_all` is what makes lock-free `win_sync` legal); under
/// the channel backend the shm tier always locks.
#[derive(Debug, Clone, Copy)]
pub struct ShmTransport {
    epochless: bool,
}

impl ShmTransport {
    /// `epochless` must already account for the wire backend (see type
    /// docs).
    pub fn new(epochless: bool) -> ShmTransport {
        ShmTransport { epochless }
    }
}

impl Transport for ShmTransport {
    fn name(&self) -> &'static str {
        "shm"
    }

    fn epoch_style(&self) -> EpochStyle {
        if self.epochless {
            EpochStyle::Flush
        } else {
            EpochStyle::PerOp
        }
    }

    fn attach(&self, _win: &WinHandle) -> MpiResult<()> {
        Ok(())
    }

    fn detach(&self, _win: &WinHandle) -> MpiResult<()> {
        Ok(())
    }

    fn epoch_begin(&self, win: &WinHandle, target: usize, mode: LockMode) -> MpiResult<()> {
        if self.epochless {
            Ok(())
        } else {
            win.lock(mode, target)
        }
    }

    fn epoch_end(&self, win: &WinHandle, target: usize) -> MpiResult<()> {
        if self.epochless {
            win.flush(target)
        } else {
            win.unlock(target)
        }
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
        let cost = win.shm_put(origin, odt, target, tdisp, tdt)?;
        win.charge_virtual(cost);
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
        let cost = win.shm_get(origin, odt, target, tdisp, tdt)?;
        win.charge_virtual(cost);
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
        let cost = win.shm_acc(origin, odt, target, tdisp, tdt, elem, op)?;
        win.charge_virtual(cost);
        Ok(())
    }

    fn issue_merged(
        &self,
        _win: &WinHandle,
        _class: RmaClass,
        _target: usize,
        _segs: &[(usize, usize)],
    ) -> MpiResult<f64> {
        // The engine never schedules node-local plans (they bypass the
        // coalescer and complete eagerly), so nothing can reach here.
        Ok(0.0)
    }

    fn fetch_and_op_i64(
        &self,
        win: &WinHandle,
        operand: i64,
        target: usize,
        tdisp: usize,
        op: FetchOp,
    ) -> MpiResult<i64> {
        // Slab atomics are processor atomics on the shared mapping: no
        // epoch, no wire latency — priced as one cacheline RMW. The
        // io-lock inside the cell mutator provides the atomicity.
        win.fetch_and_op_i64_priced(operand, target, tdisp, op, win.shm_params().atomic_cost())
    }

    fn compare_and_swap_i64(
        &self,
        win: &WinHandle,
        compare: i64,
        swap: i64,
        target: usize,
        tdisp: usize,
    ) -> MpiResult<i64> {
        win.compare_and_swap_i64_priced(
            compare,
            swap,
            target,
            tdisp,
            win.shm_params().atomic_cost(),
        )
    }

    fn progress_support(&self) -> ProgressSupport {
        // Node-local load/store completes without the target CPU.
        ProgressSupport::Hardware
    }
}
