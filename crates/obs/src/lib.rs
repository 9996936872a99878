//! Tracing, metrics, and epoch-invariant auditing for the ARMCI-MPI stack.
//!
//! Every layer of the runtime (simnet pool, mpisim windows, the core
//! transfer engine, GA-level operations) records [`Event`]s into a
//! per-thread buffer when recording is enabled. Events carry the rank's
//! **virtual** timestamp (the same clock the simulator charges transfer
//! costs against), so a Chrome trace of a run shows where simulated time
//! goes inside each ARMCI op: epoch lock/unlock, datatype pack, staging
//! copies, mutex spins.
//!
//! Three consumers share the one event stream:
//!
//! * [`chrome`] renders Chrome-trace JSON (`chrome://tracing`, Perfetto)
//!   and a line-per-event JSONL dump;
//! * [`metrics`] folds events into counter/histogram registries (bytes
//!   moved, epochs opened, lock hold times, pool hit-rate, IOV
//!   fast-vs-conservative) and renders a one-screen text report;
//! * [`audit`] replays events per rank and rejects interleavings that
//!   violate the paper's §IV/§V safety rules (nested epochs on one
//!   window, load/store outside `ARMCI_Access_begin/end`, staging
//!   buffers touched under their home window's lock, unlock-without-lock).
//!
//! The recorder is deliberately cheap when idle: one relaxed atomic load
//! per call site, and the `off` feature compiles the whole thing down to
//! constants for overhead A/B measurements.

pub mod audit;
pub mod chrome;
pub mod critpath;
pub mod metrics;
pub mod waitstate;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// True when this build carries the recorder at all (the `off` feature
/// removes it).
pub const COMPILED_IN: bool = cfg!(not(feature = "off"));

/// Operation kind, shared by ARMCI-level and MPI-level events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    Get,
    Put,
    Acc,
    Rmw,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Put => "put",
            OpKind::Acc => "acc",
            OpKind::Rmw => "rmw",
        }
    }
}

/// Cause a [`EventKind::Wait`] span attributes blocked virtual time to.
/// The waitstate analyzer folds these into its per-category report; the
/// critical-path walker follows the `src` rank of the matching event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaitCat {
    /// Waiting for a busy target's host CPU to service a passive-target
    /// protocol round (lock grant, operation completion, flush/unlock
    /// acknowledgement). This is the stall an asynchronous progress agent
    /// collapses.
    Progress,
    /// Blocked at a collective (or on a message not yet sent in virtual
    /// time) behind a slower peer. Attributed to the same `"progress"`
    /// category as [`WaitCat::Progress`] — the cause is still the peer's
    /// lack of progress — but kept distinct so the metrics registry can
    /// separate load imbalance (`progress.straggler_s`, which an agent
    /// cannot fix) from serviceable stalls (`progress.stall_s`, which it
    /// can).
    Straggler,
    /// Queueing delay from the shared-NIC congestion model.
    Congestion,
    /// A failed compare-and-swap charged a wire round trip that moved no
    /// data (the retry loop will go again).
    CasRetry,
    /// `MPI_Win_sync` memory-model barrier on a shared window.
    WinSync,
}

impl WaitCat {
    pub fn name(self) -> &'static str {
        match self {
            // Straggler shares the attribution category deliberately:
            // waitstate/critpath reports fold both into "progress".
            WaitCat::Progress | WaitCat::Straggler => "progress",
            WaitCat::Congestion => "congestion",
            WaitCat::CasRetry => "cas_retry",
            WaitCat::WinSync => "win_sync",
        }
    }
}

/// What happened. Span kinds (`Op`, `GaOp`, `Stage`, `Pack`, `MutexWait`,
/// `Coll`, `Wait`, `Compute`) carry a duration; everything else is an
/// instant whose pairing (lock / unlock, begin / end) is reconstructed by
/// the consumers.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// One engine-level ARMCI operation against a GMR (span).
    Op {
        name: &'static str,
        gmr: u64,
        bytes: u64,
    },
    /// One GA-level (Global Arrays) operation (span).
    GaOp {
        name: &'static str,
        bytes: u64,
    },
    /// One engine pipeline stage: plan / acquire / execute / complete (span).
    Stage {
        stage: &'static str,
        gmr: u64,
    },
    /// Datatype pack/unpack charged by the window (span).
    Pack {
        win: u64,
        bytes: u64,
    },
    /// Blocked inside the RMA mutex queue waiting for a handoff (span).
    /// `src` is the **world** rank whose unlock granted the mutex — the
    /// cross-rank causal edge the critical-path walker follows.
    MutexWait {
        win: u64,
        mutex: u32,
        host: u32,
        src: u32,
    },
    /// One collective operation as seen by one rank: the span runs from
    /// this rank's arrival at the rendezvous to its departure. Every
    /// participant of one collective shares `(comm, seq)` (`seq` is the
    /// cell's round number, identical on all members); `src` is the
    /// **world** rank of the straggler — the latest arrival, ties to the
    /// lowest rank — whose progress released everyone.
    Coll {
        comm: u64,
        seq: u64,
        src: u32,
    },
    /// Blocked virtual time attributed to a cause (span). `src` is the
    /// world rank the wait resolved through (straggler, congesting peer,
    /// CAS target, ...); `obj` is the window / communicator id involved.
    Wait {
        cat: WaitCat,
        src: u32,
        obj: u64,
    },
    /// Modelled local computation (`Proc::compute`) — the part of a
    /// rank's timeline the waitstate analyzer must *not* attribute to
    /// communication or blocking (span).
    Compute,
    /// A per-node progress agent serviced `ops` passive-target rounds
    /// bound for `target` instead of stalling on its host progress
    /// (span; duration is the agent forward + service cost).
    /// `avoided_s` is the expected host-side stall the agent collapsed —
    /// the metric behind `progress.offloaded_s`.
    AgentDrain {
        win: u64,
        target: u32,
        ops: u32,
        avoided_s: f64,
    },
    /// Passive-target lock granted on (window, target).
    LockAcquire {
        win: u64,
        target: u32,
        exclusive: bool,
    },
    /// Passive-target lock released on (window, target).
    LockRelease {
        win: u64,
        target: u32,
    },
    /// MPI-3 `lock_all` opened on a window.
    LockAll {
        win: u64,
    },
    /// MPI-3 `unlock_all` on a window.
    UnlockAll {
        win: u64,
    },
    /// MPI-3 `flush` of (window, target).
    Flush {
        win: u64,
        target: u32,
    },
    /// A nonblocking aggregate epoch adopted the lock on (window, target):
    /// the auditor must not treat staging under it as a violation.
    NbEpochOpen {
        win: u64,
        target: u32,
    },
    NbEpochClose {
        win: u64,
        target: u32,
    },
    /// One MPI-level RMA data-movement call on a window.
    Rma {
        win: u64,
        target: u32,
        kind: OpKind,
        bytes: u64,
    },
    /// Buffer-pool lease outcome.
    Pool {
        bytes: u64,
        hit: bool,
    },
    /// Engine staging buffer filled/drained for a GMR (legal only while
    /// the home window is not locked by this rank).
    StageTouch {
        gmr: u64,
        bytes: u64,
    },
    /// Direct-local-access region (ARMCI_Access_begin/end) entered/left.
    DlaBegin {
        win: u64,
        exclusive: bool,
    },
    DlaEnd {
        win: u64,
    },
    /// A raw load/store of window memory (must sit inside a DLA region).
    LocalAccess {
        win: u64,
        write: bool,
    },
    /// IOV method election: fast (direct datatype) vs conservative.
    Method {
        name: &'static str,
        fast: bool,
    },
    /// GMR lifecycle.
    GmrCreate {
        gmr: u64,
        bytes: u64,
    },
    GmrFree {
        gmr: u64,
    },
    /// Runtime error surfaced through the recorder (e.g. `GmrVanished`).
    Error {
        what: &'static str,
        gmr: u64,
    },
    /// One coalescing-scheduler flush of a (window, target) queue: `ops`
    /// queued operations issued as `runs` coarsened epochs, `segs_in`
    /// raw segments merged down to `segs_out` wire segments.
    SchedFlush {
        win: u64,
        target: u32,
        ops: u32,
        runs: u32,
        segs_in: u32,
        segs_out: u32,
    },
    /// Committed-datatype cache consultation on a window (§VI-B shapes):
    /// `hit` means the pack descriptor build was skipped.
    DtypeCommit {
        win: u64,
        hit: bool,
    },
    /// `MPI_Win_sync` on a window: the separate-memory-model barrier that
    /// makes prior remote stores visible to subsequent load/store and
    /// vice versa. Load/store of a peer's shared section is only coherent
    /// between a `WinSync` and the close of the covering epoch.
    WinSync {
        win: u64,
    },
    /// An intra-node load/store of a shared-window section (the shm fast
    /// path or a `shared_query` view): `target` is the section's owner.
    /// Must sit inside a `Win_sync`'d epoch or a DLA region.
    ShmAccess {
        win: u64,
        target: u32,
        write: bool,
        bytes: u64,
    },
    /// One runtime-level atomic (`rmw` / `compare_and_swap`) against a
    /// GMR, recorded for metrics regardless of which protocol served it:
    /// `native` is true for MPI-3/NIC/slab atomics, false for the Latham
    /// mutex fallback; `cas` marks compare-and-swap (where `success`
    /// reports whether the comparison matched — a failed CAS is a retry).
    AtomicOp {
        win: u64,
        target: u32,
        cas: bool,
        native: bool,
        success: bool,
    },
    /// A wire operation issued through a pluggable transport backend other
    /// than plain MPI RMA (which keeps emitting [`EventKind::Rma`]).
    /// `offloaded` is true when the backend handled the operation in
    /// hardware (e.g. a contiguous channel put) rather than falling back to
    /// a software path.
    TransportIssue {
        backend: &'static str,
        win: u64,
        target: u32,
        kind: OpKind,
        bytes: u64,
        offloaded: bool,
    },
}

/// One recorded event. `ts`/`dur` are virtual seconds; `dur` is zero for
/// instants.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub rank: u32,
    pub ts: f64,
    pub dur: f64,
    pub kind: EventKind,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Vec<Event>> = Mutex::new(Vec::new());
static TEST_MUTEX: Mutex<()> = Mutex::new(());

struct Tls {
    rank: u32,
    now: f64,
    buf: Vec<Event>,
}

impl Drop for Tls {
    fn drop(&mut self) {
        // Rank threads flush whatever they buffered when they exit, so a
        // `take()` after `Runtime::run` sees every rank's events.
        if !self.buf.is_empty() {
            let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
            sink.append(&mut self.buf);
        }
    }
}

thread_local! {
    static TLS: RefCell<Tls> = const {
        RefCell::new(Tls { rank: 0, now: 0.0, buf: Vec::new() })
    };
}

/// Is recording currently on? One relaxed load; callers use this to skip
/// timestamp plumbing entirely on the hot path.
#[inline(always)]
pub fn enabled() -> bool {
    if cfg!(feature = "off") {
        return false;
    }
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on (no-op under the `off` feature).
pub fn enable() {
    if COMPILED_IN {
        ENABLED.store(true, Ordering::Relaxed);
    }
}

/// Turn recording off. Buffered events stay until taken or cleared.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Tag this thread's future events with a rank (called once per rank
/// thread by the runtime).
pub fn set_rank(rank: usize) {
    if !enabled() {
        return;
    }
    TLS.with(|t| t.borrow_mut().rank = rank as u32);
}

/// Advance this thread's clock hint. Call sites that know their virtual
/// time pass it explicitly; layers without a clock (the buffer pool)
/// stamp events with the hint instead.
pub fn set_now(ts: f64) {
    if !enabled() {
        return;
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        if ts > t.now {
            t.now = ts;
        }
    });
}

/// This thread's last known virtual time.
pub fn now_hint() -> f64 {
    if !enabled() {
        return 0.0;
    }
    TLS.with(|t| t.borrow().now)
}

/// Record an instant at the thread's clock hint.
pub fn instant(kind: EventKind) {
    if !enabled() {
        return;
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        let (rank, ts) = (t.rank, t.now);
        t.buf.push(Event {
            rank,
            ts,
            dur: 0.0,
            kind,
        });
    });
}

/// Record an instant at an explicit virtual time (also advances the hint).
pub fn instant_at(kind: EventKind, ts: f64) {
    if !enabled() {
        return;
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        if ts > t.now {
            t.now = ts;
        }
        let rank = t.rank;
        t.buf.push(Event {
            rank,
            ts,
            dur: 0.0,
            kind,
        });
    });
}

/// Record a span `[t0, t1]` (also advances the hint to `t1`).
pub fn span(kind: EventKind, t0: f64, t1: f64) {
    if !enabled() {
        return;
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        if t1 > t.now {
            t.now = t1;
        }
        let rank = t.rank;
        t.buf.push(Event {
            rank,
            ts: t0,
            dur: (t1 - t0).max(0.0),
            kind,
        });
    });
}

/// A borrow of this thread's recorder for pushing several events from
/// one call site with a single TLS access (see [`batch`]).
pub struct Batch<'a> {
    rank: u32,
    now: &'a mut f64,
    buf: &'a mut Vec<Event>,
}

impl Batch<'_> {
    /// Record a span `[t0, t1]` (advances the hint like [`span`]).
    #[inline]
    pub fn span(&mut self, kind: EventKind, t0: f64, t1: f64) {
        if t1 > *self.now {
            *self.now = t1;
        }
        self.buf.push(Event {
            rank: self.rank,
            ts: t0,
            dur: (t1 - t0).max(0.0),
            kind,
        });
    }

    /// Record an instant at `ts` (advances the hint like [`instant_at`]).
    #[inline]
    pub fn instant_at(&mut self, kind: EventKind, ts: f64) {
        if ts > *self.now {
            *self.now = ts;
        }
        self.buf.push(Event {
            rank: self.rank,
            ts,
            dur: 0.0,
            kind,
        });
    }
}

/// Run `f` against this thread's recorder, paying the TLS lookup once
/// for a group of events. `f` is not called when recording is off.
#[inline]
pub fn batch(f: impl FnOnce(&mut Batch)) {
    if !enabled() {
        return;
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        let t = &mut *t;
        let mut b = Batch {
            rank: t.rank,
            now: &mut t.now,
            buf: &mut t.buf,
        };
        f(&mut b);
    });
}

/// Push this thread's buffered events into the global sink.
pub fn flush_thread() {
    if !COMPILED_IN {
        return;
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        if !t.buf.is_empty() {
            let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
            sink.append(&mut t.buf);
        }
    });
}

/// Drain every recorded event: this thread's buffer plus everything rank
/// threads flushed on exit. Within a rank, slice order is program order.
pub fn take() -> Vec<Event> {
    flush_thread();
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    std::mem::take(&mut *sink)
}

/// Drain only the current thread's buffer (per-phase deltas on one rank).
/// Keeps the buffer's capacity so steady-state recording stops allocating.
pub fn take_local() -> Vec<Event> {
    if !COMPILED_IN {
        return Vec::new();
    }
    TLS.with(|t| t.borrow_mut().buf.split_off(0))
}

/// Drop all recorded events everywhere reachable from this thread.
pub fn clear() {
    let _ = take();
}

/// Serialise tests that enable the global recorder. Integration tests in
/// one binary run on concurrent threads; without this their event streams
/// interleave in the shared sink.
pub fn test_guard() -> MutexGuard<'static, ()> {
    TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    // With the recorder compiled out (`off` feature) nothing records,
    // so only the drop-everything behaviour is testable.
    #[cfg(not(feature = "off"))]
    #[test]
    fn recorder_roundtrip_and_hint() {
        let _g = test_guard();
        clear();
        enable();
        set_rank(3);
        span(
            EventKind::Op {
                name: "get",
                gmr: 1,
                bytes: 64,
            },
            1.0,
            2.5,
        );
        instant(EventKind::Pool {
            bytes: 64,
            hit: true,
        });
        assert_eq!(now_hint(), 2.5);
        let ev = take();
        disable();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].rank, 3);
        assert!((ev[0].dur - 1.5).abs() < 1e-12);
        // The pool instant inherited the hint from the span.
        assert_eq!(ev[1].ts, 2.5);
        set_rank(0);
    }

    #[test]
    fn disabled_recorder_drops_events() {
        let _g = test_guard();
        clear();
        disable();
        instant(EventKind::Flush { win: 1, target: 0 });
        assert!(take().is_empty());
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn thread_exit_flushes_to_sink() {
        let _g = test_guard();
        clear();
        enable();
        // Join explicitly: a scope's implicit join returns once the
        // thread's result is dropped, before its thread-locals (and so
        // `Tls::drop`'s flush) are destroyed; `join` waits for both.
        std::thread::scope(|s| {
            s.spawn(|| {
                set_rank(1);
                instant_at(EventKind::LockAll { win: 7 }, 0.25);
            })
            .join()
            .unwrap();
        });
        let ev = take();
        disable();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].rank, 1);
        assert_eq!(ev[0].ts, 0.25);
    }
}
