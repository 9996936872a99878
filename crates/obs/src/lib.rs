//! Tracing, metrics, and epoch-invariant auditing for the ARMCI-MPI stack.
//!
//! Every layer of the runtime (simnet pool, mpisim windows, the core
//! transfer engine, GA-level operations) records [`Event`]s into a
//! per-thread buffer while the thread's [`Recorder`] is armed (a rank
//! thread shares the recorder of the thread that started its runtime;
//! [`capture`] gives one run a recorder of its own). Events carry the
//! rank's **virtual** timestamp (the same clock the simulator charges
//! transfer costs against), so a Chrome trace of a run shows where
//! simulated time goes inside each ARMCI op: epoch lock/unlock, datatype
//! pack, staging copies, mutex spins.
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
//! per call site while nothing in the process is armed, and the `off`
//! feature compiles the whole thing down to constants for overhead A/B
//! measurements.

#![forbid(unsafe_code)]

pub mod audit;
pub mod chrome;
pub mod critpath;
pub mod metrics;
pub mod waitstate;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

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

/// Recorders armed right now, process-wide. [`enabled`] reads it before
/// anything thread-local, so a process with nothing armed pays one
/// relaxed load per call site. Relaxed is enough: arming publishes no
/// data, and a rank that arms its runtime's recorder mid-run orders the
/// other ranks' first events after it with the runtime's own barrier.
static ARMED: AtomicUsize = AtomicUsize::new(0);
static TEST_MUTEX: Mutex<()> = Mutex::new(());

/// One capture's recorder: an armed switch and the sink that every
/// thread attached to it flushes its events into. A thread records
/// into its own recorder only: the one [`attach`]ed to it (a rank
/// thread gets the recorder of the thread that started its runtime),
/// or else one of its own, made on first use.
#[derive(Clone, Default)]
pub struct Recorder(Arc<Inner>);

#[derive(Default)]
struct Inner {
    armed: AtomicBool,
    sink: Mutex<Vec<Event>>,
}

impl Inner {
    fn arm(&self, on: bool) {
        if self.armed.swap(on, Ordering::Relaxed) != on {
            if on {
                ARMED.fetch_add(1, Ordering::Relaxed);
            } else {
                ARMED.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    fn sink(&self) -> MutexGuard<'_, Vec<Event>> {
        self.sink.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.arm(false);
    }
}

struct Tls {
    rec: Option<Recorder>,
    rank: u32,
    now: f64,
    buf: Vec<Event>,
}

impl Tls {
    fn armed(&self) -> bool {
        self.rec
            .as_ref()
            .is_some_and(|r| r.0.armed.load(Ordering::Relaxed))
    }

    /// Moves the buffered events into this thread's recorder.
    fn flush(&mut self) {
        if let (Some(rec), false) = (&self.rec, self.buf.is_empty()) {
            rec.0.sink().append(&mut self.buf);
        }
    }

    fn push(&mut self, kind: EventKind, ts: f64, t1: f64) {
        if t1 > self.now {
            self.now = t1;
        }
        self.buf.push(Event {
            rank: self.rank,
            ts,
            dur: (t1 - ts).max(0.0),
            kind,
        });
    }
}

impl Drop for Tls {
    fn drop(&mut self) {
        // Rank threads flush whatever they buffered when they exit, so a
        // capture sees every rank's events once `Runtime::run_with` has
        // joined them.
        self.flush();
    }
}

thread_local! {
    static TLS: RefCell<Tls> = const {
        RefCell::new(Tls { rec: None, rank: 0, now: 0.0, buf: Vec::new() })
    };
}

/// Is this thread's recorder armed? One relaxed load while nothing in
/// the process is armed; callers use this to skip timestamp plumbing
/// entirely on the hot path.
#[inline(always)]
pub fn enabled() -> bool {
    if cfg!(feature = "off") {
        return false;
    }
    ARMED.load(Ordering::Relaxed) != 0 && armed_here()
}

#[inline(never)]
fn armed_here() -> bool {
    TLS.try_with(|t| t.borrow().armed()).unwrap_or(false)
}

/// Runs `f` on this thread's buffer if its recorder is armed.
#[inline]
fn record(f: impl FnOnce(&mut Tls)) {
    if cfg!(feature = "off") || ARMED.load(Ordering::Relaxed) == 0 {
        return;
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        if t.armed() {
            f(&mut t);
        }
    });
}

/// Arm this thread's recorder, and so every rank thread sharing it
/// (no-op under the `off` feature).
pub fn enable() {
    if COMPILED_IN {
        recorder().0.arm(true);
    }
}

/// Disarm this thread's recorder. Buffered events stay until taken or
/// cleared.
pub fn disable() {
    TLS.with(|t| {
        if let Some(rec) = &t.borrow().rec {
            rec.0.arm(false);
        }
    });
}

/// Makes `rec` the calling thread's recorder, after moving the events
/// the thread has buffered into the recorder it replaces; returns that.
fn swap(rec: Option<Recorder>) -> Option<Recorder> {
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        t.flush();
        std::mem::replace(&mut t.rec, rec)
    })
}

/// The calling thread's recorder, made on first use.
pub fn recorder() -> Recorder {
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        t.rec.get_or_insert_with(Recorder::default).clone()
    })
}

/// Makes `rec` this thread's recorder and tags the thread's events with
/// `rank` (called once per rank thread by the runtime, whether or not
/// `rec` is armed yet: a rank may arm it mid-run).
pub fn attach(rec: Recorder, rank: usize) {
    swap(Some(rec));
    set_rank(rank);
}

/// Tag this thread's future events with a rank.
pub fn set_rank(rank: usize) {
    TLS.with(|t| t.borrow_mut().rank = rank as u32);
}

/// Record an instant at the thread's clock hint. Call sites that know
/// their virtual time pass it explicitly; layers without a clock (the
/// buffer pool) stamp events with the hint instead.
pub fn instant(kind: EventKind) {
    record(|t| t.push(kind, t.now, t.now));
}

/// Record an instant at an explicit virtual time (also advances the hint).
pub fn instant_at(kind: EventKind, ts: f64) {
    record(|t| t.push(kind, ts, ts));
}

/// Record a span `[t0, t1]` (also advances the hint to `t1`).
pub fn span(kind: EventKind, t0: f64, t1: f64) {
    record(|t| t.push(kind, t0, t1));
}

/// A borrow of this thread's recorder for pushing several events from
/// one call site with a single TLS access (see [`batch`]).
pub struct Batch<'a>(&'a mut Tls);

impl Batch<'_> {
    /// Record a span `[t0, t1]` (advances the hint like [`span`]).
    #[inline]
    pub fn span(&mut self, kind: EventKind, t0: f64, t1: f64) {
        self.0.push(kind, t0, t1);
    }

    /// Record an instant at `ts` (advances the hint like [`instant_at`]).
    #[inline]
    pub fn instant_at(&mut self, kind: EventKind, ts: f64) {
        self.0.push(kind, ts, ts);
    }
}

/// Run `f` against this thread's recorder, paying the TLS lookup once
/// for a group of events. `f` is not called when recording is off.
#[inline]
pub fn batch(f: impl FnOnce(&mut Batch)) {
    record(|t| f(&mut Batch(t)));
}

/// Push this thread's buffered events into its recorder's sink.
pub fn flush_thread() {
    if COMPILED_IN {
        TLS.with(|t| t.borrow_mut().flush());
    }
}

/// Drain every event of this thread's recorder: this thread's buffer
/// plus everything its rank threads flushed on exit. Within a rank,
/// slice order is program order.
pub fn take() -> Vec<Event> {
    if !COMPILED_IN {
        return Vec::new();
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        t.flush();
        t.rec
            .as_ref()
            .map_or_else(Vec::new, |r| std::mem::take(&mut *r.0.sink()))
    })
}

/// Drain only the current thread's buffer (per-phase deltas on one rank).
/// Keeps the buffer's capacity so steady-state recording stops allocating.
pub fn take_local() -> Vec<Event> {
    if !COMPILED_IN {
        return Vec::new();
    }
    TLS.with(|t| t.borrow_mut().buf.split_off(0))
}

/// Drop every event of this thread's recorder.
pub fn clear() {
    let _ = take();
}

/// Runs `f` with a fresh recorder armed on the calling thread and
/// returns its result with every event recorded meanwhile, by this
/// thread and by the rank threads of every runtime `f` starts. Only
/// those: captures on other threads, and runtimes they start, record
/// into recorders of their own. When `f` returns or panics, the
/// recorder is disarmed and the thread's previous one put back.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<Event>) {
    /// Puts the thread's previous recorder back, disarming the capture's.
    struct Restore(Option<Recorder>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(rec) = swap(self.0.take()) {
                rec.0.arm(false);
            }
        }
    }
    let rec = Recorder::default();
    let restore = Restore(swap(Some(rec.clone())));
    rec.0.arm(COMPILED_IN);
    let out = f();
    drop(restore);
    let events = std::mem::take(&mut *rec.0.sink());
    (out, events)
}

/// Serialises users of a thread's recorder that arm it by hand across
/// a runtime's ranks. Only perfbench calls it: nothing in the workspace
/// does, since [`capture`] scopes each capture to its own recorder.
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
        let ((), ev) = capture(|| {
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
        });
        set_rank(0);
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].rank, 3);
        assert!((ev[0].dur - 1.5).abs() < 1e-12);
        // The pool instant inherited the hint from the span.
        assert_eq!(ev[1].ts, 2.5);
    }

    #[test]
    fn disabled_recorder_drops_events() {
        disable();
        instant(EventKind::Flush { win: 1, target: 0 });
        assert!(take().is_empty());
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn thread_exit_flushes_to_sink() {
        let ((), ev) = capture(|| {
            let rec = recorder();
            // Join explicitly: a scope's implicit join returns once the
            // thread's result is dropped, before its thread-locals (and so
            // `Tls::drop`'s flush) are destroyed; `join` waits for both.
            std::thread::scope(|s| {
                s.spawn(|| {
                    attach(rec, 1);
                    instant_at(EventKind::LockAll { win: 7 }, 0.25);
                })
                .join()
                .unwrap();
            });
        });
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].rank, 1);
        assert_eq!(ev[0].ts, 0.25);
    }

    #[test]
    fn capture_disarms_when_its_body_panics() {
        let mut armed = false;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            capture(|| {
                armed = enabled();
                panic!("body fails");
            })
        }));
        assert!(caught.is_err());
        assert_eq!(armed, COMPILED_IN);
        assert!(!enabled());
        instant(EventKind::Flush { win: 1, target: 0 });
        assert!(take().is_empty());
    }
}
