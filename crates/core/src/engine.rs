//! The unified transfer engine.
//!
//! Every data-movement path in ARMCI-MPI — contiguous, IOV, strided, RMW
//! staging — runs through one explicit four-stage pipeline:
//!
//! 1. **plan** — address translation (§V-A), strided/IOV method selection
//!    (§VI-A), the conflict-tree scan of the auto method (§VI-B), and
//!    lock-mode selection from the GMR's access-mode hint (§VIII-A). The
//!    output is a list of `TransferPlan`s: one access epoch each, holding
//!    one or more RMA operations with fully-resolved datatypes.
//! 2. **acquire** — opening the access context: a passive-target lock in
//!    MPI-2 mode (one epoch per plan, §V-C), nothing in MPI-3 epochless
//!    mode where the window-wide `lock_all` epoch is already open
//!    (§VIII-B(2)).
//! 3. **execute** — issuing the operations: `put`/`get`/`accumulate` with
//!    contiguous, indexed or subarray datatypes. Operations after the
//!    first in an epoch pipeline (the batched-method win, §VI-A).
//! 4. **complete** — `unlock` (MPI-2) or `flush` (MPI-3), statistics, and
//!    virtual-time accounting.
//!
//! # The coalescing scheduler
//!
//! Nonblocking operations run the same plans through one deferred path,
//! with completion deferred to `ARMCI_Wait` (or the next synchronising
//! call). Payload bytes move at enqueue (through the window's `stage_*`
//! movers, so no raw caller pointer outlives the call), but the wire
//! operations themselves are deferred into a per-`(GMR, target)` queue
//! — the engine-level realisation of ARMCI's aggregate handles. At
//! flush the queue is walked in program order and split into **runs** of
//! same-class operations (all-get, all-put, or all-accumulate with one
//! element type) whose target segments the [`ctree`] conflict scan
//! proves disjoint; each run is issued as **one** MPI operation whose
//! target datatype is the adjacency-merged segment list, under **one**
//! coarsened epoch per flush (shared-lock when the §VIII-A access-mode
//! hint allows it, `flush`-completed under `lock_all` on the MPI-3
//! path). Operations that would conflict fall back to one wire
//! operation each — never merged, still inside the coarsened epoch. An
//! online `CostModel` fed by observed issue costs arbitrates
//! [`CoalesceMode::Auto`] between the merged datatype and the batched
//! per-op issue shape. In MPI-2 mode at most one queue is open at a time
//! (opening a second target flushes the first), which keeps the
//! hold-and-wait deadlock impossible; in epochless mode any number of
//! targets may have operations in flight concurrently.
//!
//! Request-based atomics (`ARMCI_Rmw` under a standing `lock_all` or the
//! channel backend) join per-target *atomic batches* whose requests
//! complete at the same synchronisation points.

use crate::gmr::Gmr;
use crate::ops::OpClass;
use crate::transport;
use crate::ArmciMpi;
use armci::{ArmciError, ArmciResult, GlobalAddr, IovDesc, NbHandle, StridedMethod};
use ctree::ConflictTree;
use mpisim::dtype::{zip_into, Flat};
use mpisim::mpi3::RmaRequest;
use mpisim::{AccOp, Datatype, ElemType, LockMode, RmaClass};
use std::collections::HashSet;
use std::ops::Range;

/// How the scheduler issues queued nonblocking operations at flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoalesceMode {
    /// Coarsened epochs, one wire operation per queued operation
    /// (the §VI-A batched shape).
    Batched,
    /// Coarsened epochs, runs merged into single wire operations with
    /// indexed datatypes (the §VI-A direct-datatype shape).
    Datatype,
    /// Pick `Batched` or `Datatype` per run with the online `CostModel`;
    /// behaves like `Datatype` until the model has seen enough issues.
    #[default]
    Auto,
}

/// Exponentially-weighted online estimate of the platform's issue-cost
/// primitives, learned from the costs the simulator actually charges.
/// Drives the [`CoalesceMode::Auto`] decision: merging a run into one
/// datatype operation trades per-operation overhead for per-segment
/// datatype overhead, and which side wins is a platform property the
/// engine should not hard-code.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CostModel {
    /// Fixed cost of one wire operation (s).
    op_s: f64,
    /// Incremental cost of one datatype segment (s).
    seg_s: f64,
    /// Per-byte wire cost (s/B).
    byte_s: f64,
    /// Issues observed so far.
    obs: u64,
}

impl CostModel {
    const ALPHA: f64 = 0.25;
    /// Observations before `Auto` trusts the estimates.
    const WARM: u64 = 8;

    fn ewma(slot: &mut f64, sample: f64) {
        *slot = if *slot == 0.0 {
            sample
        } else {
            (1.0 - Self::ALPHA) * *slot + Self::ALPHA * sample
        };
    }

    /// Folds one observed issue: `cost` seconds for an operation moving
    /// `bytes` across `nsegs` target segments.
    pub(crate) fn observe(&mut self, cost: f64, bytes: u64, nsegs: usize) {
        self.obs += 1;
        let byte_part = self.byte_s * bytes as f64;
        if nsegs <= 1 {
            Self::ewma(&mut self.op_s, (cost - byte_part).max(0.0));
        } else {
            let fixed = self.op_s + byte_part;
            Self::ewma(&mut self.seg_s, ((cost - fixed) / nsegs as f64).max(0.0));
        }
        if bytes > 0 {
            let seg_part = if nsegs > 1 {
                self.seg_s * nsegs as f64
            } else {
                0.0
            };
            Self::ewma(
                &mut self.byte_s,
                (cost - self.op_s - seg_part).max(0.0) / bytes as f64,
            );
        }
    }

    /// Predicted cost of issuing a run as one merged datatype operation
    /// over `nsegs` merged segments.
    fn datatype_cost(&self, bytes: u64, nsegs: usize) -> f64 {
        let seg = if nsegs > 1 {
            self.seg_s * nsegs as f64
        } else {
            0.0
        };
        self.op_s + self.byte_s * bytes as f64 + seg
    }

    /// Predicted cost of issuing a run as `ops` separate wire operations.
    fn batched_cost(&self, bytes: u64, ops: usize) -> f64 {
        self.op_s * ops as f64 + self.byte_s * bytes as f64
    }

    /// `true` once enough issues were observed for `Auto` to decide.
    fn warm(&self) -> bool {
        self.obs >= Self::WARM
    }

    /// The `Auto` decision: merge the run into one datatype operation?
    fn prefer_merged(&self, bytes: u64, ops: usize, merged_segs: usize) -> bool {
        !self.warm() || self.datatype_cost(bytes, merged_segs) <= self.batched_cost(bytes, ops)
    }
}

/// Per-stage counters and virtual-time totals for the transfer engine.
/// Complements [`crate::OpStats`] (which counts MPI-level operations)
/// with pipeline-level accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageStats {
    /// Transfer plans produced (one access epoch each).
    pub plans: u64,
    /// RMA operations contained in those plans.
    pub planned_ops: u64,
    /// Access contexts opened (blocking epochs, plus one per scheduler
    /// queue or atomic batch opened).
    pub acquires: u64,
    /// RMA operations issued by the execute stage (blocking and
    /// scheduler-flushed combined).
    pub executed_ops: u64,
    /// Access contexts completed (unlock or flush).
    pub completes: u64,
    /// Operations submitted through the nonblocking path.
    pub nb_submitted: u64,
    /// Nonblocking operations that joined an already-open scheduler queue
    /// or atomic batch instead of paying for a new one.
    pub nb_aggregated: u64,
    /// `ARMCI_Wait`/`ARMCI_WaitAll` resolutions.
    pub nb_waits: u64,
    /// Scratch-pool leases served from already-registered memory.
    pub pool_hits: u64,
    /// Scratch-pool leases that pinned fresh pages at first touch.
    pub pool_misses: u64,
    /// Virtual seconds charged for on-demand scratch registration.
    pub pool_reg_s: f64,
    /// Operations queued by the coalescing scheduler.
    pub sched_enqueued: u64,
    /// Scheduler queue flushes (one coarsened epoch each).
    pub sched_flushes: u64,
    /// Wire operations the scheduler actually issued (merged runs plus
    /// batched/fallback per-op issues).
    pub sched_runs: u64,
    /// Target segments entering the merger across all flushed runs.
    pub sched_segs_in: u64,
    /// Target segments left after adjacency merging.
    pub sched_segs_out: u64,
    /// Committed-datatype cache hits (folded from the windows by
    /// [`crate::ArmciMpi::stage_stats`]; zero in a raw snapshot).
    pub dtype_hits: u64,
    /// Committed-datatype cache misses (folded likewise).
    pub dtype_misses: u64,
    /// Operations routed through the intra-node shared-memory fast path
    /// instead of the wire (one count per planned operation).
    pub shm_hits: u64,
    /// Payload bytes those operations moved as node-local load/store —
    /// bytes that never touched the NIC model.
    pub shm_bypass_bytes: u64,
    /// Virtual seconds spent in the plan stage (method selection,
    /// conflict-tree scans).
    pub plan_s: f64,
    /// Virtual seconds spent acquiring access epochs.
    pub acquire_s: f64,
    /// Virtual seconds spent issuing operations (for blocking operations
    /// this includes the wire transfer).
    pub execute_s: f64,
    /// Virtual seconds spent completing epochs (unlock/flush and deferred
    /// request completion).
    pub complete_s: f64,
}

impl StageStats {
    /// Field-wise difference `self − earlier`: the activity between two
    /// snapshots taken with [`crate::ArmciMpi::stage_stats`]. Lets a
    /// harness carve phases out of the running totals without resetting
    /// them (and losing the cumulative view).
    pub fn delta(&self, earlier: &StageStats) -> StageStats {
        StageStats {
            plans: self.plans - earlier.plans,
            planned_ops: self.planned_ops - earlier.planned_ops,
            acquires: self.acquires - earlier.acquires,
            executed_ops: self.executed_ops - earlier.executed_ops,
            completes: self.completes - earlier.completes,
            nb_submitted: self.nb_submitted - earlier.nb_submitted,
            nb_aggregated: self.nb_aggregated - earlier.nb_aggregated,
            nb_waits: self.nb_waits - earlier.nb_waits,
            pool_hits: self.pool_hits - earlier.pool_hits,
            pool_misses: self.pool_misses - earlier.pool_misses,
            pool_reg_s: self.pool_reg_s - earlier.pool_reg_s,
            sched_enqueued: self.sched_enqueued - earlier.sched_enqueued,
            sched_flushes: self.sched_flushes - earlier.sched_flushes,
            sched_runs: self.sched_runs - earlier.sched_runs,
            sched_segs_in: self.sched_segs_in - earlier.sched_segs_in,
            sched_segs_out: self.sched_segs_out - earlier.sched_segs_out,
            dtype_hits: self.dtype_hits - earlier.dtype_hits,
            dtype_misses: self.dtype_misses - earlier.dtype_misses,
            shm_hits: self.shm_hits - earlier.shm_hits,
            shm_bypass_bytes: self.shm_bypass_bytes - earlier.shm_bypass_bytes,
            plan_s: self.plan_s - earlier.plan_s,
            acquire_s: self.acquire_s - earlier.acquire_s,
            execute_s: self.execute_s - earlier.execute_s,
            complete_s: self.complete_s - earlier.complete_s,
        }
    }

    /// Fraction of scratch-pool leases served from registered memory
    /// (0.0 when the pool was never used).
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            return 0.0;
        }
        self.pool_hits as f64 / total as f64
    }

    /// Queued operations the scheduler merged away (wire operations it
    /// did *not* issue thanks to run merging).
    pub fn sched_ops_merged(&self) -> u64 {
        self.sched_enqueued.saturating_sub(self.sched_runs)
    }

    /// Epochs the scheduler saved against the per-op discipline: each
    /// queued operation would have paid its own epoch, the scheduler paid
    /// one coarsened epoch per flush.
    pub fn sched_epochs_saved(&self) -> u64 {
        self.sched_enqueued.saturating_sub(self.sched_flushes)
    }

    /// Fraction of issued operations that took the intra-node
    /// shared-memory route instead of the wire (0.0 when nothing issued).
    pub fn shm_hit_rate(&self) -> f64 {
        let total = self.shm_hits + self.executed_ops;
        if total == 0 {
            return 0.0;
        }
        self.shm_hits as f64 / total as f64
    }

    /// Committed-datatype cache hit rate (0.0 when never consulted).
    pub fn dtype_hit_rate(&self) -> f64 {
        let total = self.dtype_hits + self.dtype_misses;
        if total == 0 {
            return 0.0;
        }
        self.dtype_hits as f64 / total as f64
    }
}

/// One RMA operation within a plan: both datatypes fully resolved. Origin
/// datatype offsets are absolute within the execute-stage buffer (the
/// caller's local buffer for put/get, the pre-scaled staging buffer for
/// accumulates).
pub(crate) struct PlannedOp {
    pub odt: Datatype,
    pub tdisp: usize,
    pub tdt: Datatype,
    /// Payload bytes this operation moves (statistics).
    pub bytes: u64,
}

/// A unit of acquire/execute/complete work: one access epoch on one
/// `(GMR, target)` pair carrying one or more operations.
pub(crate) struct TransferPlan {
    pub gmr: u64,
    /// Target rank within the GMR's group.
    pub target: usize,
    pub mode: LockMode,
    pub ops: Vec<PlannedOp>,
}

/// The buffer the execute stage moves data against. Raw pointers (not
/// slices) because IOV descriptors address disjoint pieces of one caller
/// buffer that may also be the *source* of a get (`&mut` would alias).
pub(crate) enum ExecBuf<'a> {
    /// Destination of a get: base pointer and length of the local buffer.
    Get(*mut u8, usize),
    /// Source of a put.
    Put(*const u8, usize),
    /// Pre-scaled contiguous staging buffer for an accumulate, plus the
    /// MPI element type of the wire operation.
    Acc(&'a [u8], ElemType),
}

impl ExecBuf<'_> {
    /// The access kind of every operation moving against this buffer.
    pub(crate) fn kind(&self) -> NbKind {
        match *self {
            ExecBuf::Get(..) => NbKind::Get,
            ExecBuf::Put(..) => NbKind::Put,
            ExecBuf::Acc(_, elem) => NbKind::Acc(elem),
        }
    }
}

/// What an operation does to its target ranges, for MPI-2 queue
/// conflict checks (mirrors the simulator's epoch access rules:
/// overlapping gets are fine, overlapping same-type accumulates are
/// fine, everything else conflicts) and per-class operation statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum NbKind {
    Get,
    Put,
    Acc(ElemType),
}

impl NbKind {
    fn compatible(self, other: NbKind) -> bool {
        match (self, other) {
            (NbKind::Get, NbKind::Get) => true,
            (NbKind::Acc(a), NbKind::Acc(b)) => a == b,
            _ => false,
        }
    }

    /// The wire class a scheduler run of this kind issues as (engine
    /// accumulates are always MPI `SUM`; scaling happened at staging).
    fn rma_class(self) -> RmaClass {
        match self {
            NbKind::Get => RmaClass::Get,
            NbKind::Put => RmaClass::Put,
            NbKind::Acc(elem) => RmaClass::Acc(elem, AccOp::Sum),
        }
    }
}

/// Splits queued operations (kept in program order) into maximal runs of
/// same-class operations whose combined target segments the conflict
/// tree proves disjoint — the precondition for merging a run into one
/// wire operation. An operation that would overlap its run (or change
/// class) starts a new run: the conservative per-op fallback, which
/// preserves program order because MPI executes the flush's operations
/// in issue order within one epoch.
///
/// Incremental: `tree` holds the current run's segments, and each
/// candidate's segments are checked and inserted one at a time, so
/// forming the runs costs O(S·log S) over S queued segments. `tree` and
/// `runs` are caller-owned scratch (runs come out as index ranges).
fn form_runs(ops: &[QueuedOp], tree: &mut ConflictTree, runs: &mut Vec<Range<usize>>) {
    runs.clear();
    // Whether the current run can still grow: a run whose first
    // operation's own segments overlap can never prove a candidate
    // disjoint from it.
    let mut open = false;
    for (i, op) in ops.iter().enumerate() {
        if let Some(run) = runs.last_mut() {
            if open
                && ops[run.start].kind == op.kind
                && op
                    .segs
                    .iter()
                    .all(|&(off, len)| tree.try_insert(off, off + len).is_ok())
            {
                run.end = i + 1;
                continue;
            }
        }
        // A rejected candidate may have left part of its segments in the
        // tree; the new run starts from an empty one either way.
        tree.clear();
        open = op
            .segs
            .iter()
            .all(|&(off, len)| tree.try_insert(off, off + len).is_ok());
        runs.push(i..i + 1);
    }
}

/// In-flight request-based atomics on one `(GMR, target)` pair whose
/// completion has been deferred to `ARMCI_Wait` (only opened by backends
/// without per-target locks; see [`ArmciMpi::nb_attach_atomic`]).
struct AtomicBatch {
    gmr: u64,
    target: usize,
    /// Handle ids with atomics in this batch.
    ids: Vec<u64>,
    reqs: Vec<RmaRequest>,
}

/// One operation queued by the coalescing scheduler: payload already
/// moved, wire issue deferred to flush.
#[derive(Debug)]
struct QueuedOp {
    kind: NbKind,
    /// Window-absolute target byte segments, in datatype order. The only
    /// flattening of the operation's target datatype: the conflict check,
    /// staging, run formation and the merged issue all borrow it.
    segs: Vec<(usize, usize)>,
    /// Payload bytes (statistics).
    bytes: u64,
}

impl QueuedOp {
    /// Flattens a planned operation's target datatype into
    /// window-absolute segments (one allocation, sized exactly).
    fn new(op: &PlannedOp, kind: NbKind) -> QueuedOp {
        let mut segs = Vec::new();
        op.tdt.segments_into(&mut segs);
        for s in &mut segs {
            s.0 += op.tdisp;
        }
        QueuedOp {
            kind,
            segs,
            bytes: op.bytes,
        }
    }

    fn overlaps(&self, lo: usize, hi: usize) -> bool {
        self.segs
            .iter()
            .any(|&(off, len)| lo < off + len && off < hi)
    }
}

/// A per-`(GMR, target)` scheduler queue. No lock is held while the
/// queue is open — the coarsened epoch is acquired and released entirely
/// inside the flush.
struct SchedQueue {
    gmr: u64,
    target: usize,
    mode: LockMode,
    /// Virtual time the queue opened; queued transfers are on the wire
    /// from here in epochless mode (under the standing `lock_all`), so
    /// flush-time completion is priced from this origin.
    t_open: f64,
    /// Handle ids with operations in this queue.
    ids: Vec<u64>,
    ops: Vec<QueuedOp>,
    /// The kind every queued operation has, or `None` once kinds mix.
    uniform: Option<NbKind>,
}

impl SchedQueue {
    /// Would operations of `kind` over `new` conflict with a queued one
    /// (MPI-2 conflict check: the coarsened epoch is still one epoch, so
    /// conflicting accesses inside it would be erroneous)? A kind
    /// compatible with a uniform queue cannot conflict, so only mixed
    /// queues pay the range scan.
    fn conflicts(&self, kind: NbKind, new: &[QueuedOp]) -> bool {
        if self.uniform.is_some_and(|k| k.compatible(kind)) {
            return false;
        }
        new.iter().flat_map(|n| &n.segs).any(|&(off, len)| {
            self.ops
                .iter()
                .any(|q| !kind.compatible(q.kind) && q.overlaps(off, off + len))
        })
    }
}

/// Buffers the coalescing scheduler reuses across enqueues and flushes,
/// so a steady-state queued operation allocates only its own segment
/// list. Each field is taken out while in use and put back after.
#[derive(Default)]
struct SchedScratch {
    /// The plan being enqueued, flattened, before it joins a queue.
    staged: Vec<QueuedOp>,
    /// Origin segments and copy pieces of the operation being staged.
    flat: Flat,
    /// Run formation's conflict tree and output.
    tree: ConflictTree,
    runs: Vec<Range<usize>>,
    /// A wire operation's merged target segments.
    merged: Vec<(usize, usize)>,
}

/// Engine-side nonblocking state.
#[derive(Default)]
pub(crate) struct NbState {
    next_id: u64,
    /// Coalescing-scheduler queues.
    queues: Vec<SchedQueue>,
    /// Request-based atomics awaiting completion.
    atomics: Vec<AtomicBatch>,
    /// Online issue-cost estimates for [`CoalesceMode::Auto`].
    model: CostModel,
    scratch: SchedScratch,
    /// Handle ids whose operations have completed (epoch closed) but whose
    /// `wait` has not been called yet.
    resolved: HashSet<u64>,
}

impl ArmciMpi {
    /// This rank's virtual clock (stage timing).
    pub(crate) fn vnow(&self) -> f64 {
        self.world.clock_now()
    }

    pub(crate) fn stage(&self, f: impl FnOnce(&mut StageStats)) {
        f(&mut self.stage_stats.borrow_mut());
    }

    fn note_plans(&self, t0: f64, plans: &[TransferPlan]) {
        let t1 = self.vnow();
        let ops: u64 = plans.iter().map(|p| p.ops.len() as u64).sum();
        self.stage(|g| {
            g.plans += plans.len() as u64;
            g.planned_ops += ops;
            g.plan_s += t1 - t0;
        });
        if obs::enabled() {
            obs::span(
                obs::EventKind::Stage {
                    stage: "plan",
                    gmr: plans.first().map(|p| p.gmr).unwrap_or(0),
                },
                t0,
                t1,
            );
        }
    }

    /// Lock mode for an operation of `class` against `gmr_id`, derived
    /// from the GMR's access-mode hint (§VIII-A). Errors when the
    /// operation contradicts the hint.
    fn mode_for_gmr(&self, gmr_id: u64, class: OpClass) -> ArmciResult<LockMode> {
        let gmrs = self.gmrs.borrow();
        let gmr = gmrs
            .get(&gmr_id)
            .ok_or_else(|| crate::gmr::gmr_vanished(gmr_id))?;
        self.lock_mode_for(gmr_id, gmr.mode.get(), class)
    }

    // ------------------------------------------------------------------
    // Plan stage
    // ------------------------------------------------------------------

    /// Plans a contiguous transfer: one epoch, one operation.
    pub(crate) fn plan_contiguous(
        &self,
        class: OpClass,
        remote: GlobalAddr,
        len: usize,
    ) -> ArmciResult<TransferPlan> {
        let t0 = self.vnow();
        let tr = self.translate(remote, len)?;
        let mode = self.mode_for_gmr(tr.gmr, class)?;
        let plan = Self::single_plan(tr.gmr, tr.group_rank, mode, len, tr.disp);
        self.note_plans(t0, std::slice::from_ref(&plan));
        Ok(plan)
    }

    /// Plans a contiguous transfer with an explicit lock mode (the RMW
    /// protocol's read/write epochs are always exclusive, §V-D).
    pub(crate) fn plan_fixed(
        &self,
        remote: GlobalAddr,
        len: usize,
        mode: LockMode,
    ) -> ArmciResult<TransferPlan> {
        let t0 = self.vnow();
        let tr = self.translate(remote, len)?;
        let plan = Self::single_plan(tr.gmr, tr.group_rank, mode, len, tr.disp);
        self.note_plans(t0, std::slice::from_ref(&plan));
        Ok(plan)
    }

    fn single_plan(
        gmr: u64,
        target: usize,
        mode: LockMode,
        len: usize,
        disp: usize,
    ) -> TransferPlan {
        let dt = Datatype::contiguous(len);
        TransferPlan {
            gmr,
            target,
            mode,
            ops: vec![PlannedOp {
                odt: dt.clone(),
                tdisp: disp,
                tdt: dt,
                bytes: len as u64,
            }],
        }
    }

    /// Resolves every IOV segment, requiring a single common GMR (the
    /// batched/datatype prerequisite). Errors if segments span allocations.
    pub(crate) fn resolve_single_gmr(
        &self,
        desc: &IovDesc,
    ) -> ArmciResult<(u64, usize, Vec<usize>)> {
        let mut gmr_id = None;
        let mut group_rank = 0usize;
        let mut disps = Vec::with_capacity(desc.len());
        for &addr in &desc.remote_addrs {
            let tr = self.translate(GlobalAddr::new(desc.rank, addr), desc.bytes)?;
            match gmr_id {
                None => {
                    gmr_id = Some(tr.gmr);
                    group_rank = tr.group_rank;
                }
                Some(id) if id != tr.gmr => {
                    return Err(ArmciError::BadDescriptor(
                        "IOV segments span multiple GMRs".into(),
                    ))
                }
                _ => {}
            }
            disps.push(tr.disp);
        }
        let id = gmr_id.ok_or_else(|| ArmciError::BadDescriptor("empty IOV".into()))?;
        Ok((id, group_rank, disps))
    }

    /// Origin-side byte offset of segment `i`: into the caller's buffer
    /// for put/get, into the gathered staging buffer (segment order) for
    /// accumulates.
    fn seg_off(desc: &IovDesc, staged: bool, i: usize) -> usize {
        if staged {
            i * desc.bytes
        } else {
            desc.local_offsets[i]
        }
    }

    /// Plans an IOV transfer with the given §VI-A method. `staged` marks
    /// accumulate transfers whose origin is the contiguous pre-scaled
    /// staging buffer rather than the caller's scattered buffer.
    pub(crate) fn plan_iov(
        &self,
        desc: &IovDesc,
        class: OpClass,
        staged: bool,
        method: StridedMethod,
    ) -> ArmciResult<Vec<TransferPlan>> {
        let t0 = self.vnow();
        let plans = match method {
            StridedMethod::IovConservative => self.plan_iov_conservative(desc, class, staged)?,
            StridedMethod::IovBatched { batch } => {
                self.plan_iov_batched(desc, class, staged, batch)?
            }
            StridedMethod::IovDatatype | StridedMethod::Direct => {
                vec![self.plan_iov_datatype(desc, class, staged)?]
            }
            StridedMethod::Auto => {
                // §VI-B: conflict-tree scan; datatype when the descriptor
                // is clean and single-GMR, conservative otherwise. The
                // O(N log N) scan is charged to the plan stage.
                let single = self.resolve_single_gmr(desc).is_ok();
                let clean = single && ctree::scan_segments(&desc.remote_segments()).is_ok();
                let n = desc.len().max(1) as f64;
                self.charge(4e-9 * n * n.log2().max(1.0));
                if clean {
                    vec![self.plan_iov_datatype(desc, class, staged)?]
                } else {
                    self.plan_iov_conservative(desc, class, staged)?
                }
            }
        };
        if obs::enabled() {
            let (name, fast) = match method {
                StridedMethod::IovConservative => ("iov_conservative", false),
                StridedMethod::IovBatched { .. } => ("iov_batched", false),
                StridedMethod::IovDatatype | StridedMethod::Direct => ("iov_datatype", true),
                // Auto elected the datatype method iff the conflict-tree
                // scan came back clean (one plan instead of one per segment).
                StridedMethod::Auto => ("iov_auto", plans.len() == 1),
            };
            obs::instant_at(obs::EventKind::Method { name, fast }, self.vnow());
        }
        self.note_plans(t0, &plans);
        Ok(plans)
    }

    /// Conservative method: one epoch per segment; segments may live in
    /// different GMRs and may overlap.
    fn plan_iov_conservative(
        &self,
        desc: &IovDesc,
        class: OpClass,
        staged: bool,
    ) -> ArmciResult<Vec<TransferPlan>> {
        let mut plans = Vec::with_capacity(desc.len());
        for (i, &raddr) in desc.remote_addrs.iter().enumerate() {
            let tr = self.translate(GlobalAddr::new(desc.rank, raddr), desc.bytes)?;
            let mode = self.mode_for_gmr(tr.gmr, class)?;
            plans.push(TransferPlan {
                gmr: tr.gmr,
                target: tr.group_rank,
                mode,
                ops: vec![PlannedOp {
                    odt: Datatype::Indexed {
                        blocks: vec![(Self::seg_off(desc, staged, i), desc.bytes)],
                    },
                    tdisp: tr.disp,
                    tdt: Datatype::contiguous(desc.bytes),
                    bytes: desc.bytes as u64,
                }],
            });
        }
        Ok(plans)
    }

    /// Batched method: chunks of `batch` operations per epoch (0 =
    /// unlimited). Single GMR, disjoint segments.
    fn plan_iov_batched(
        &self,
        desc: &IovDesc,
        class: OpClass,
        staged: bool,
        batch: usize,
    ) -> ArmciResult<Vec<TransferPlan>> {
        let (gmr_id, group_rank, disps) = self.resolve_single_gmr(desc)?;
        let mode = self.mode_for_gmr(gmr_id, class)?;
        let chunk = if batch == 0 { desc.len() } else { batch };
        let mut plans = Vec::with_capacity(desc.len().div_ceil(chunk));
        let mut i = 0usize;
        while i < desc.len() {
            let end = (i + chunk).min(desc.len());
            let ops = (i..end)
                .map(|j| PlannedOp {
                    odt: Datatype::Indexed {
                        blocks: vec![(Self::seg_off(desc, staged, j), desc.bytes)],
                    },
                    tdisp: disps[j],
                    tdt: Datatype::contiguous(desc.bytes),
                    bytes: desc.bytes as u64,
                })
                .collect();
            plans.push(TransferPlan {
                gmr: gmr_id,
                target: group_rank,
                mode,
                ops,
            });
            i = end;
        }
        Ok(plans)
    }

    /// Datatype method: two indexed datatypes, one operation, one epoch.
    fn plan_iov_datatype(
        &self,
        desc: &IovDesc,
        class: OpClass,
        staged: bool,
    ) -> ArmciResult<TransferPlan> {
        let (gmr_id, group_rank, disps) = self.resolve_single_gmr(desc)?;
        let mode = self.mode_for_gmr(gmr_id, class)?;
        let tdt = Datatype::Indexed {
            blocks: disps.iter().map(|&d| (d, desc.bytes)).collect(),
        };
        let odt = if staged {
            // pre-scaled staging buffer is contiguous in segment order
            Datatype::contiguous(desc.total_bytes())
        } else {
            Datatype::Indexed {
                blocks: desc
                    .local_offsets
                    .iter()
                    .map(|&o| (o, desc.bytes))
                    .collect(),
            }
        };
        Ok(TransferPlan {
            gmr: gmr_id,
            target: group_rank,
            mode,
            ops: vec![PlannedOp {
                odt,
                tdisp: 0,
                tdt,
                bytes: desc.total_bytes() as u64,
            }],
        })
    }

    /// Plans a direct strided transfer (§VI-C): subarray datatypes on both
    /// sides, one operation, one epoch. Returns `Ok(None)` when the shape
    /// cannot be expressed as subarrays (caller falls back to IOV).
    pub(crate) fn plan_strided_direct(
        &self,
        class: OpClass,
        local_len: usize,
        local_strides: &[usize],
        remote: GlobalAddr,
        remote_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<Option<TransferPlan>> {
        let t0 = self.vnow();
        let (Some(odt), Some(tdt)) = (
            armci::strided_to_subarray(local_strides, count),
            armci::strided_to_subarray(remote_strides, count),
        ) else {
            return Ok(None);
        };
        if odt.extent() > local_len {
            return Err(ArmciError::BadDescriptor(format!(
                "strided origin extent {} exceeds buffer {}",
                odt.extent(),
                local_len
            )));
        }
        let tr = self.translate(remote, armci::stride::extent(remote_strides, count))?;
        let mode = self.mode_for_gmr(tr.gmr, class)?;
        let plan = TransferPlan {
            gmr: tr.gmr,
            target: tr.group_rank,
            mode,
            ops: vec![PlannedOp {
                odt,
                tdisp: tr.disp,
                tdt,
                bytes: armci::stride::total_bytes(count) as u64,
            }],
        };
        self.note_plans(t0, std::slice::from_ref(&plan));
        Ok(Some(plan))
    }

    /// Plans a direct strided accumulate: contiguous pre-scaled staging
    /// buffer on the origin side, subarray datatype on the target side.
    /// The caller has already verified the target shape is
    /// subarray-expressible.
    pub(crate) fn plan_strided_direct_acc(
        &self,
        remote: GlobalAddr,
        remote_strides: &[usize],
        count: &[usize],
        staged_len: usize,
    ) -> ArmciResult<TransferPlan> {
        let t0 = self.vnow();
        let tdt = armci::strided_to_subarray(remote_strides, count)
            .expect("caller verified subarray-expressible shape");
        let tr = self.translate(remote, armci::stride::extent(remote_strides, count))?;
        let mode = self.mode_for_gmr(tr.gmr, OpClass::Acc)?;
        let plan = TransferPlan {
            gmr: tr.gmr,
            target: tr.group_rank,
            mode,
            ops: vec![PlannedOp {
                odt: Datatype::contiguous(staged_len),
                tdisp: tr.disp,
                tdt,
                bytes: armci::stride::total_bytes(count) as u64,
            }],
        };
        self.note_plans(t0, std::slice::from_ref(&plan));
        Ok(plan)
    }

    // ------------------------------------------------------------------
    // Acquire / execute / complete — blocking path
    // ------------------------------------------------------------------

    /// Runs plans to completion. Outstanding nonblocking operations are
    /// completed first, serialising blocking traffic (and §V-E1
    /// staging) behind in-flight nonblocking operations.
    pub(crate) fn run_plans(&self, plans: &[TransferPlan], buf: &ExecBuf) -> ArmciResult<()> {
        self.nb_quiesce()?;
        for plan in plans {
            self.run_plan(plan, buf)?;
        }
        Ok(())
    }

    /// Acquire / execute / complete for one plan. The route is decided
    /// per plan: a node-peer target on a slab-backed window takes the shm
    /// route ([`crate::shm`]) — the shm bracket's epoch entered and left
    /// through `win_sync`, one lock overhead, slab load/store movers —
    /// and every other target takes the wire backend.
    fn run_plan(&self, plan: &TransferPlan, buf: &ExecBuf) -> ArmciResult<()> {
        let gmrs = self.gmrs.borrow();
        let gmr = gmrs
            .get(&plan.gmr)
            .ok_or_else(|| crate::gmr::gmr_vanished(plan.gmr))?;
        let shm = self.shm_routable(gmr, plan.target);
        let bracket = self.shm_bracket();
        let tx: &dyn transport::Transport = if shm { &bracket } else { self.tx() };
        let sync = || gmr.win.win_sync().map_err(|e| Self::shm_err(plan.gmr, e));
        // acquire
        let t0 = self.vnow();
        self.epoch_begin_via(tx, gmr, plan.target, plan.mode)?;
        let mut res = if shm { sync() } else { Ok(()) };
        let t1 = self.vnow();
        // execute (the epoch is closed even when an operation fails)
        if shm {
            self.charge(self.world.platform().shm.lock_overhead);
        }
        let mut issued = 0u64;
        let mut bytes = 0u64;
        for op in &plan.ops {
            if res.is_err() {
                break;
            }
            res = self.issue_op(gmr, plan.target, shm, op, buf);
            if res.is_ok() {
                issued += 1;
                bytes += op.bytes;
            }
        }
        let t2 = self.vnow();
        // complete (the shm route leaves coherence before the epoch)
        let end = if shm { sync() } else { Ok(()) }
            .and_then(|()| self.epoch_end_via(tx, gmr, plan.target));
        let t3 = self.vnow();
        self.stage(|g| {
            g.acquires += 1;
            if shm {
                g.shm_hits += issued;
                g.shm_bypass_bytes += bytes;
            } else {
                g.executed_ops += issued;
            }
            g.completes += 1;
            g.acquire_s += t1 - t0;
            g.execute_s += t2 - t1;
            g.complete_s += t3 - t2;
        });
        obs::batch(|b| {
            b.span(
                obs::EventKind::Stage {
                    stage: "acquire",
                    gmr: plan.gmr,
                },
                t0,
                t1,
            );
            b.span(
                obs::EventKind::Stage {
                    stage: "execute",
                    gmr: plan.gmr,
                },
                t1,
                t2,
            );
            b.span(
                obs::EventKind::Stage {
                    stage: "complete",
                    gmr: plan.gmr,
                },
                t2,
                t3,
            );
            b.span(
                obs::EventKind::Op {
                    name: Self::exec_name(buf),
                    gmr: plan.gmr,
                    bytes: plan.ops.iter().map(|o| o.bytes).sum(),
                },
                t0,
                t3,
            );
        });
        end?;
        res
    }

    fn exec_name(buf: &ExecBuf) -> &'static str {
        match buf {
            ExecBuf::Get(..) => "get",
            ExecBuf::Put(..) => "put",
            ExecBuf::Acc(..) => "acc",
        }
    }

    /// Issues one planned operation inside an open access context: through
    /// the wire backend, or (`shm`) as a slab copy charged at the
    /// platform's shm tier, its errors funnelled through
    /// [`ArmciMpi::shm_err`]. Operation statistics count the same on both
    /// routes — the route changes the mover, not the op.
    fn issue_op(
        &self,
        gmr: &Gmr,
        target: usize,
        shm: bool,
        op: &PlannedOp,
        buf: &ExecBuf,
    ) -> ArmciResult<()> {
        let (win, tx) = (&gmr.win, self.tx());
        let (odt, tdisp, tdt) = (&op.odt, op.tdisp, &op.tdt);
        let charged = |cost: f64| win.charge_virtual(cost);
        let moved = match *buf {
            ExecBuf::Get(ptr, len) => {
                // Safety: `ptr` covers `len` bytes for the duration of the
                // call and the planner keeps every datatype within bounds;
                // disjoint plans may address disjoint pieces of it.
                let b = unsafe { std::slice::from_raw_parts_mut(ptr, len) };
                if shm {
                    win.shm_get(b, odt, target, tdisp, tdt).map(charged)
                } else {
                    tx.get(win, b, odt, target, tdisp, tdt)
                }
            }
            ExecBuf::Put(ptr, len) => {
                // Safety: as above, read-only.
                let b = unsafe { std::slice::from_raw_parts(ptr, len) };
                if shm {
                    win.shm_put(b, odt, target, tdisp, tdt).map(charged)
                } else {
                    tx.put(win, b, odt, target, tdisp, tdt)
                }
            }
            ExecBuf::Acc(staged, elem) => {
                if shm {
                    win.shm_acc(staged, odt, target, tdisp, tdt, elem, AccOp::Sum)
                        .map(charged)
                } else {
                    tx.accumulate(win, staged, odt, target, tdisp, tdt, elem, AccOp::Sum)
                }
            }
        };
        moved.map_err(|e| {
            if shm {
                Self::shm_err(gmr.id, e)
            } else {
                e.into()
            }
        })?;
        self.note_op(buf.kind(), op.bytes);
        Ok(())
    }

    /// Counts one MPI-level operation of `kind` moving `bytes` in the
    /// per-class operation statistics.
    pub(crate) fn note_op(&self, kind: NbKind, bytes: u64) {
        self.stat(|s| match kind {
            NbKind::Get => {
                s.gets += 1;
                s.bytes_got += bytes;
            }
            NbKind::Put => {
                s.puts += 1;
                s.bytes_put += bytes;
            }
            NbKind::Acc(_) => {
                s.accs += 1;
                s.bytes_acc += bytes;
            }
        });
    }

    // ------------------------------------------------------------------
    // The coalescing scheduler (enqueue / flush)
    // ------------------------------------------------------------------

    /// Enqueues plans on the coalescing scheduler and returns a deferred
    /// handle: payload moves now (through the window's bounds-checked
    /// staging movers), wire issue and epoch accounting are deferred to
    /// the queue's flush at `ARMCI_Wait` (or the next synchronisation
    /// point).
    pub(crate) fn nb_run_plans(
        &self,
        plans: Vec<TransferPlan>,
        buf: &ExecBuf,
    ) -> ArmciResult<NbHandle> {
        if plans.is_empty() {
            return Ok(NbHandle::eager());
        }
        // Intra-node plans bypass the RMA scheduler entirely: a node-local
        // copy has no wire latency to overlap, so deferring it buys
        // nothing. They complete eagerly through the blocking executor's
        // shm route. Mixed plan lists stay on the wire path as a unit so
        // cross-plan ordering is owned by one engine.
        if plans.iter().all(|p| self.plan_shm_routable(p)) {
            self.run_plans(&plans, buf)?;
            return Ok(NbHandle::eager());
        }
        let id = {
            let mut nb = self.nb.borrow_mut();
            nb.next_id += 1;
            nb.next_id
        };
        let kind = buf.kind();
        let op_overhead = self.world.platform().mpi.op_overhead;
        for plan in plans {
            let t0 = self.vnow();
            // Flatten every operation's target once, up front.
            let mut staged = std::mem::take(&mut self.nb.borrow_mut().scratch.staged);
            staged.extend(plan.ops.iter().map(|op| QueuedOp::new(op, kind)));
            // Join an open queue on (gmr, target) or open a new one. The
            // coarsened MPI-2 epoch is still *one* epoch, so a plan whose
            // ranges would conflict with queued operations cannot join —
            // the queue is flushed and a fresh one opened.
            let per_op = self.tx.epoch_style() == transport::EpochStyle::PerOp;
            let found = self.nb.borrow().queues.iter().position(|q| {
                q.gmr == plan.gmr
                    && q.target == plan.target
                    && (!per_op || (q.mode == plan.mode && !q.conflicts(kind, &staged)))
            });
            let idx = match found {
                Some(i) => {
                    self.stage(|g| g.nb_aggregated += plan.ops.len() as u64);
                    i
                }
                None => {
                    if per_op {
                        // One coarsened MPI-2 epoch at a time: flushing
                        // everything outstanding before opening a new
                        // queue keeps hold-and-wait impossible (and is
                        // the only way to retire a conflicting queue on
                        // the same target).
                        self.nb_quiesce()?;
                    }
                    self.stage(|g| g.acquires += 1);
                    let t_open = self.vnow();
                    let mut nb = self.nb.borrow_mut();
                    nb.queues.push(SchedQueue {
                        gmr: plan.gmr,
                        target: plan.target,
                        mode: plan.mode,
                        t_open,
                        ids: Vec::new(),
                        ops: Vec::new(),
                        uniform: Some(kind),
                    });
                    nb.queues.len() - 1
                }
            };
            // Move the payload eagerly; pricing waits for the flush.
            {
                let gmrs = self.gmrs.borrow();
                let gmr = gmrs
                    .get(&plan.gmr)
                    .ok_or_else(|| crate::gmr::gmr_vanished(plan.gmr))?;
                let mut flat = std::mem::take(&mut self.nb.borrow_mut().scratch.flat);
                for (op, q) in plan.ops.iter().zip(&staged) {
                    self.sched_stage_op(gmr, plan.target, op, &q.segs, buf, &mut flat)?;
                }
                self.nb.borrow_mut().scratch.flat = flat;
            }
            // Software issue overhead per queued operation; the wire time
            // itself is charged when the flush prices the runs.
            self.charge(plan.ops.len() as f64 * op_overhead);
            let t1 = self.vnow();
            self.stage(|g| {
                g.nb_submitted += plan.ops.len() as u64;
                g.sched_enqueued += plan.ops.len() as u64;
                g.execute_s += t1 - t0;
            });
            obs::batch(|b| {
                b.span(
                    obs::EventKind::Stage {
                        stage: "execute",
                        gmr: plan.gmr,
                    },
                    t0,
                    t1,
                );
                b.span(
                    obs::EventKind::Op {
                        name: match kind {
                            NbKind::Get => "nb_get",
                            NbKind::Put => "nb_put",
                            NbKind::Acc(_) => "nb_acc",
                        },
                        gmr: plan.gmr,
                        bytes: plan.ops.iter().map(|o| o.bytes).sum(),
                    },
                    t0,
                    t1,
                );
            });
            let mut nb = self.nb.borrow_mut();
            let nb = &mut *nb;
            let q = &mut nb.queues[idx];
            if q.uniform != Some(kind) {
                q.uniform = None;
            }
            q.ops.append(&mut staged);
            q.ids.push(id);
            nb.scratch.staged = staged;
        }
        Ok(NbHandle::deferred(id))
    }

    /// Moves one planned operation's payload between the caller's buffer
    /// and the target window *now*, without wire pricing: the origin
    /// datatype is flattened into `flat`, zipped with the operation's
    /// already-flattened window-absolute target segments `tsegs` (a
    /// two-pointer walk splitting at whichever boundary comes first), and
    /// the resulting piece list moves in one staging call.
    fn sched_stage_op(
        &self,
        gmr: &Gmr,
        target: usize,
        op: &PlannedOp,
        tsegs: &[(usize, usize)],
        buf: &ExecBuf,
        flat: &mut Flat,
    ) -> ArmciResult<()> {
        op.odt.segments_into(&mut flat.osegs);
        flat.pieces.clear();
        zip_into(&flat.osegs, tsegs, &mut flat.pieces);
        match *buf {
            ExecBuf::Get(ptr, buflen) => {
                // Safety: see `issue_op` — the pointer covers `buflen`
                // bytes and the borrow ends with this call.
                let b = unsafe { std::slice::from_raw_parts_mut(ptr, buflen) };
                self.tx().stage_get(&gmr.win, b, target, &flat.pieces)?;
            }
            ExecBuf::Put(ptr, buflen) => {
                // Safety: as above, read-only.
                let b = unsafe { std::slice::from_raw_parts(ptr, buflen) };
                self.tx().stage_put(&gmr.win, b, target, &flat.pieces)?;
            }
            ExecBuf::Acc(staged, elem) => {
                self.tx()
                    .stage_acc(&gmr.win, staged, target, &flat.pieces, elem, AccOp::Sum)?;
            }
        }
        Ok(())
    }

    /// Flushes one scheduler queue: acquires the coarsened epoch (MPI-2),
    /// forms merged runs, issues them, prices the wire, and releases.
    fn sched_flush(&self, q: SchedQueue) -> ArmciResult<()> {
        let t0 = self.vnow();
        let segs_in: u64 = q.ops.iter().map(|o| o.segs.len() as u64).sum();
        let mut segs_out = 0u64;
        let mut wire_ops = 0u64;
        let mut res = Ok(());
        let end;
        {
            let gmrs = self.gmrs.borrow();
            let gmr = gmrs
                .get(&q.gmr)
                .ok_or_else(|| crate::gmr::gmr_vanished(q.gmr))?;
            let per_op = self.tx.epoch_style() == transport::EpochStyle::PerOp;
            if per_op {
                self.epoch_begin(gmr, q.target, q.mode)?;
                obs::instant(obs::EventKind::NbEpochOpen {
                    win: q.gmr,
                    target: q.target as u32,
                });
            }
            let t1 = self.vnow();
            // Run formation re-runs the conflict-tree scan over the queued
            // segments; charge it like the plan stage charges its scan.
            let n = q.ops.len().max(1) as f64;
            self.charge(4e-9 * n * n.log2().max(1.0));
            let (mut tree, mut runs, mut merged) = {
                let mut nb = self.nb.borrow_mut();
                let sc = &mut nb.scratch;
                (
                    std::mem::take(&mut sc.tree),
                    std::mem::take(&mut sc.runs),
                    std::mem::take(&mut sc.merged),
                )
            };
            form_runs(&q.ops, &mut tree, &mut runs);
            // Wire origin: transfers without a per-target epoch (standing
            // lock_all, or the free-running channel) have been on the wire
            // since enqueue; MPI-2 transfers cannot start before the
            // coarsened lock was granted.
            let mut wire_t = if per_op { t1 } else { q.t_open };
            'runs: for run in &runs {
                let ops = &q.ops[run.clone()];
                let kind = ops[0].kind;
                let class = kind.rma_class();
                let bytes: u64 = ops.iter().map(|op| op.bytes).sum();
                merged.clear();
                for op in ops {
                    merged.extend_from_slice(&op.segs);
                }
                ctree::merge_in_place(&mut merged);
                let use_merged = match self.cfg.coalesce {
                    CoalesceMode::Datatype => true,
                    CoalesceMode::Batched => false,
                    // Cold model prefers the merged datatype (one op beats
                    // many on every platform the paper measures).
                    CoalesceMode::Auto => {
                        self.nb
                            .borrow()
                            .model
                            .prefer_merged(bytes, ops.len(), merged.len())
                    }
                };
                if use_merged {
                    let cost = match self.tx().issue_merged(&gmr.win, class, q.target, &merged) {
                        Ok(c) => c,
                        Err(e) => {
                            res = Err(e.into());
                            break 'runs;
                        }
                    };
                    self.nb
                        .borrow_mut()
                        .model
                        .observe(cost, bytes, merged.len());
                    wire_t += cost;
                    segs_out += merged.len() as u64;
                    wire_ops += 1;
                    self.note_op(kind, bytes);
                } else {
                    // Batched shape: one wire op per queued op (adjacent
                    // segments within an op still merge), pipelined under
                    // the one coarsened epoch.
                    for op in ops {
                        merged.clear();
                        merged.extend_from_slice(&op.segs);
                        ctree::merge_in_place(&mut merged);
                        let cost = match self.tx().issue_merged(&gmr.win, class, q.target, &merged)
                        {
                            Ok(c) => c,
                            Err(e) => {
                                res = Err(e.into());
                                break 'runs;
                            }
                        };
                        self.nb
                            .borrow_mut()
                            .model
                            .observe(cost, op.bytes, merged.len());
                        wire_t += cost;
                        segs_out += merged.len() as u64;
                        wire_ops += 1;
                        self.note_op(kind, op.bytes);
                    }
                }
            }
            {
                let mut nb = self.nb.borrow_mut();
                let sc = &mut nb.scratch;
                sc.tree = tree;
                sc.runs = runs;
                sc.merged = merged;
            }
            let t2 = self.vnow();
            // Completion: the wire finishes at `wire_t`; advance there.
            if wire_t > t2 {
                self.charge(wire_t - t2);
            }
            end = self.epoch_end(gmr, q.target);
            let t3 = self.vnow();
            self.stage(|g| {
                g.completes += 1;
                g.executed_ops += wire_ops;
                g.sched_flushes += 1;
                g.sched_runs += wire_ops;
                g.sched_segs_in += segs_in;
                g.sched_segs_out += segs_out;
                g.acquire_s += t1 - t0;
                g.execute_s += t2 - t1;
                g.complete_s += t3 - t2;
            });
            if obs::enabled() {
                obs::batch(|b| {
                    b.instant_at(
                        obs::EventKind::SchedFlush {
                            win: q.gmr,
                            target: q.target as u32,
                            ops: q.ops.len() as u32,
                            runs: wire_ops as u32,
                            segs_in: segs_in as u32,
                            segs_out: segs_out as u32,
                        },
                        t2,
                    );
                    b.instant_at(
                        obs::EventKind::NbEpochClose {
                            win: q.gmr,
                            target: q.target as u32,
                        },
                        t3,
                    );
                    b.span(
                        obs::EventKind::Stage {
                            stage: "acquire",
                            gmr: q.gmr,
                        },
                        t0,
                        t1,
                    );
                    b.span(
                        obs::EventKind::Stage {
                            stage: "execute",
                            gmr: q.gmr,
                        },
                        t1,
                        t2,
                    );
                    b.span(
                        obs::EventKind::Stage {
                            stage: "complete",
                            gmr: q.gmr,
                        },
                        t2,
                        t3,
                    );
                });
            }
        }
        self.nb.borrow_mut().resolved.extend(q.ids.iter().copied());
        end?;
        res
    }

    // ------------------------------------------------------------------
    // Complete — nonblocking path
    // ------------------------------------------------------------------

    /// Completes every open scheduler queue and atomic batch. Called by
    /// blocking transfers, direct local access, fences, barriers and
    /// collective memory operations: any synchronising call serialises
    /// against in-flight nonblocking operations instead of corrupting
    /// them.
    pub(crate) fn nb_quiesce(&self) -> ArmciResult<()> {
        self.nb_retire(|_| true, |_| true)
    }

    /// Completes only the nonblocking work that touches `gmr`. Used by
    /// the mutex RMW protocol, whose atomicity guarantee is per-location:
    /// an RMW on the NXTVAL counter must not retire in-flight transfers on
    /// unrelated allocations (that would serialise the §VIII-B(3) overlap
    /// schedule).
    pub(crate) fn nb_quiesce_gmr(&self, gmr: u64) -> ArmciResult<()> {
        self.nb_retire(|q| q.gmr == gmr, |b| b.gmr == gmr)
    }

    /// Quiesce for a native atomic on bytes `[lo, hi)` of `(gmr,
    /// target)`: retires only the queued transfers on that pair whose
    /// target segments overlap the atomic (location consistency), and
    /// leaves everything else in flight — §VIII-B(4)'s point that atomics
    /// need not serialise the overlap schedule. Queues hold no lock until
    /// their flush, so a per-op backend's own atomic lock cannot collide
    /// with them. Atomic batches stay open: atomics are ordered against
    /// each other at issue.
    pub(crate) fn nb_quiesce_for_atomic(
        &self,
        gmr: u64,
        target: usize,
        lo: usize,
        hi: usize,
    ) -> ArmciResult<()> {
        self.nb_retire(
            |q| q.gmr == gmr && q.target == target && q.ops.iter().any(|op| op.overlaps(lo, hi)),
            |_| false,
        )
    }

    /// Retires the scheduler queues selected by `queue` (flushing each),
    /// then the atomic batches selected by `batch`, in open order; the
    /// rest stay in flight.
    fn nb_retire(
        &self,
        queue: impl FnMut(&mut SchedQueue) -> bool,
        batch: impl FnMut(&mut AtomicBatch) -> bool,
    ) -> ArmciResult<()> {
        let queues: Vec<_> = self.nb.borrow_mut().queues.extract_if(.., queue).collect();
        for q in queues {
            self.sched_flush(q)?;
        }
        let batches: Vec<_> = self.nb.borrow_mut().atomics.extract_if(.., batch).collect();
        for b in batches {
            self.nb_complete_batch(b)?;
        }
        Ok(())
    }

    /// Attaches an in-flight atomic's completion request to the atomic
    /// batch on `(gmr, target)` — opening one if necessary — and returns
    /// the deferred handle that retires it. Only meaningful for backends
    /// without per-target locks (`Flush` or `None` epoch styles): the
    /// standing `lock_all` (or the NIC) covers the access, so the RMW
    /// completes at the same synchronisation points as coalesced data
    /// traffic instead of forcing its own exclusive epoch.
    pub(crate) fn nb_attach_atomic(&self, gmr: u64, target: usize, req: RmaRequest) -> NbHandle {
        let mut nb = self.nb.borrow_mut();
        nb.next_id += 1;
        let id = nb.next_id;
        let idx = match nb
            .atomics
            .iter()
            .position(|b| b.gmr == gmr && b.target == target)
        {
            Some(i) => {
                self.stage(|g| g.nb_aggregated += 1);
                i
            }
            None => {
                self.stage(|g| g.acquires += 1);
                nb.atomics.push(AtomicBatch {
                    gmr,
                    target,
                    ids: Vec::new(),
                    reqs: Vec::new(),
                });
                nb.atomics.len() - 1
            }
        };
        let b = &mut nb.atomics[idx];
        b.reqs.push(req);
        b.ids.push(id);
        self.stage(|g| g.nb_submitted += 1);
        NbHandle::deferred(id)
    }

    /// Completes one atomic batch: waits all requests (advancing the
    /// virtual clock to the latest completion), then closes the access
    /// context (`flush` under `lock_all`, nothing on the channel).
    fn nb_complete_batch(&self, b: AtomicBatch) -> ArmciResult<()> {
        let t0 = self.vnow();
        {
            let gmrs = self.gmrs.borrow();
            let gmr = gmrs
                .get(&b.gmr)
                .ok_or_else(|| crate::gmr::gmr_vanished(b.gmr))?;
            for r in b.reqs {
                r.wait(&gmr.win);
            }
            self.epoch_end(gmr, b.target)?;
        }
        self.nb.borrow_mut().resolved.extend(b.ids);
        let t1 = self.vnow();
        self.stage(|g| {
            g.completes += 1;
            g.complete_s += t1 - t0;
        });
        if obs::enabled() {
            obs::instant(obs::EventKind::NbEpochClose {
                win: b.gmr,
                target: b.target as u32,
            });
            obs::span(
                obs::EventKind::Stage {
                    stage: "complete",
                    gmr: b.gmr,
                },
                t0,
                t1,
            );
        }
        Ok(())
    }

    /// `ARMCI_Wait`: completes the queues and atomic batch holding
    /// `handle`'s operations (a no-op for eagerly-completed or
    /// already-completed handles).
    pub(crate) fn nb_wait(&self, handle: NbHandle) -> ArmciResult<()> {
        self.stage(|g| g.nb_waits += 1);
        if handle.completed_eagerly {
            return Ok(());
        }
        let Some(id) = handle.id else {
            return Ok(());
        };
        // A handle's operations can sit in scheduler queues and/or an
        // already-resolved earlier flush (an MPI-2 multi-plan transfer
        // split across targets): retire every live holder first, then the
        // resolved record.
        let live = {
            let nb = self.nb.borrow();
            nb.queues.iter().any(|q| q.ids.contains(&id))
                || nb.atomics.iter().any(|b| b.ids.contains(&id))
        };
        self.nb_retire(|q| q.ids.contains(&id), |b| b.ids.contains(&id))?;
        if self.nb.borrow_mut().resolved.remove(&id) || live {
            return Ok(());
        }
        Err(ArmciError::BadDescriptor(
            "wait on unknown nonblocking handle".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference run formation: re-scans the run's accumulated segments
    /// plus the candidate's from scratch, pairwise, for every queued
    /// operation (independent of the conflict tree).
    fn form_runs_reference(ops: &[QueuedOp]) -> Vec<Vec<usize>> {
        let mut runs: Vec<Vec<usize>> = Vec::new();
        let mut segs: Vec<(usize, usize)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            if let Some(run) = runs.last_mut() {
                if ops[run[0]].kind == op.kind {
                    let mut cand = segs.clone();
                    cand.extend(op.segs.iter().copied());
                    if ctree::scan_segments_naive(&cand).is_ok() {
                        run.push(i);
                        segs = cand;
                        continue;
                    }
                }
            }
            segs = op.segs.clone();
            runs.push(vec![i]);
        }
        runs
    }

    fn kind_of(k: usize) -> NbKind {
        match k {
            0 => NbKind::Get,
            1 => NbKind::Put,
            2 => NbKind::Acc(ElemType::F64),
            _ => NbKind::Acc(ElemType::I64),
        }
    }

    /// Random queues: each op picks a kind (mostly the previous one, so
    /// runs can grow) and a few segments on a small address space, so
    /// overlapping, adjacent and self-overlapping ops all occur.
    fn arb_queue() -> impl Strategy<Value = Vec<QueuedOp>> {
        proptest::collection::vec(
            (
                0usize..8,
                proptest::collection::vec((0usize..40, 0usize..6), 1..5),
            ),
            0..24,
        )
        .prop_map(|specs| {
            let mut kind = 0usize;
            specs
                .into_iter()
                .map(|(k, segs)| {
                    if k < 4 {
                        kind = k;
                    }
                    QueuedOp {
                        kind: kind_of(kind),
                        segs: segs.into_iter().map(|(w, len)| (w * 4, len * 4)).collect(),
                        bytes: 0,
                    }
                })
                .collect()
        })
    }

    /// Tile-shaped queues: each op is an ascending strided segment list
    /// (a flattened tile) placed past the previous op's end, so runs grow
    /// by appending; an occasional op lands below (disjoint or
    /// overlapping) or changes kind, so the tree links inside a run.
    fn arb_tile_queue() -> impl Strategy<Value = Vec<QueuedOp>> {
        proptest::collection::vec(
            (0usize..16, 1usize..6, 1usize..5, 0usize..4, 0usize..400),
            0..16,
        )
        .prop_map(|specs| {
            let mut end = 0usize;
            specs
                .into_iter()
                .map(|(pick, count, len, gap, low)| {
                    let (len, stride) = (len * 8, (len + gap) * 8);
                    let base = match pick {
                        0 | 1 => low,
                        _ => end + gap * 8,
                    };
                    let segs: Vec<(usize, usize)> =
                        (0..count).map(|i| (base + i * stride, len)).collect();
                    end = end.max(base + (count - 1) * stride + len);
                    QueuedOp {
                        kind: kind_of(usize::from(pick == 2)),
                        segs,
                        bytes: 0,
                    }
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Incremental run formation splits every queue exactly like the
        /// from-scratch reference, on random queues and on tile-shaped
        /// ones (where the tree appends until an out-of-order op links it
        /// partway through a run).
        #[test]
        fn form_runs_matches_reference(ops in arb_queue(), tiles in arb_tile_queue()) {
            let mut tree = ConflictTree::new();
            let mut runs = Vec::new();
            for queue in [&ops, &tiles] {
                form_runs(queue, &mut tree, &mut runs);
                let got: Vec<Vec<usize>> = runs.iter().map(|r| r.clone().collect()).collect();
                prop_assert_eq!(got, form_runs_reference(queue));
            }
        }
    }

    #[test]
    fn self_overlapping_seed_takes_no_followers() {
        let op = |segs: Vec<(usize, usize)>| QueuedOp {
            kind: NbKind::Put,
            segs,
            bytes: 0,
        };
        let ops = vec![
            op(vec![(0, 8), (4, 8)]),
            op(vec![(64, 8)]),
            op(vec![(96, 8)]),
        ];
        let mut tree = ConflictTree::new();
        let mut runs = Vec::new();
        form_runs(&ops, &mut tree, &mut runs);
        assert_eq!(runs, vec![0..1, 1..3]);
        assert_eq!(form_runs_reference(&ops), vec![vec![0], vec![1, 2]]);
    }
}
