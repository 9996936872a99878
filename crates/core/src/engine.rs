//! The unified transfer engine.
//!
//! Every data-movement path in ARMCI-MPI — contiguous, IOV, strided, RMW
//! staging — runs through one explicit four-stage pipeline, entered
//! through the data verbs' one front door ([`crate::xfer`]):
//!
//! 1. **plan** — address translation (§V-A), the §VI-A IOV method plans
//!    the front door picked, the overlap scan of the auto method
//!    (§VI-B), and lock-mode selection from the GMR's access-mode hint
//!    (§VIII-A). The output is a list of `TransferPlan`s: one access
//!    epoch each, holding one or more RMA operations with fully-resolved
//!    datatypes.
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
//! call). Payload bytes move at enqueue (through the window's one mover,
//! `WinHandle::stage`, so no raw caller pointer outlives the call), but
//! the wire operations themselves are deferred into a per-`(GMR,
//! target)` queue — the engine-level realisation of ARMCI's aggregate
//! handles. At flush the queue is split, in program order, into **runs**
//! of same-class operations (all-get, all-put, or all-accumulate with one
//! element type) whose target segments are pairwise disjoint (one merge
//! pass over the queue in program order, before any lock is taken); each
//! run is issued as **one** MPI operation whose
//! target datatype is the adjacency-merged segment list, under **one**
//! coarsened epoch per flush (shared-lock when the §VIII-A access-mode
//! hint allows it, `flush`-completed under `lock_all` on the MPI-3
//! path). Operations that would conflict fall back to one wire
//! operation each — never merged, still inside the coarsened epoch. An
//! online `CostModel` fed by observed issue costs arbitrates
//! [`CoalesceMode::Auto`] between the merged datatype and the batched
//! per-op issue shape. Queues on any number of `(GMR, target)` pairs may
//! be open at once: an open queue holds no lock, and an MPI-2 flush takes
//! one lock and releases it before returning, so no hold-and-wait can
//! form. A plan that cannot join its pair's queue retires only that one.

use crate::gmr::{Gmr, GmrRef};
use crate::transport::{EpochStyle, Origin};
use crate::ArmciMpi;
use armci::{ArmciError, ArmciResult, GlobalAddr, IovDesc, Local, NbHandle, StridedMethod};
use mpisim::dtype::Flat;
use mpisim::{Datatype, LockMode, RmaClass};
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
    /// queue opened).
    pub acquires: u64,
    /// RMA operations issued by the execute stage (blocking and
    /// scheduler-flushed combined).
    pub executed_ops: u64,
    /// Access contexts completed (unlock or flush).
    pub completes: u64,
    /// Operations submitted through the nonblocking path.
    pub nb_submitted: u64,
    /// Nonblocking operations that joined an already-open scheduler queue
    /// instead of paying for a new one.
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
    /// overlap scans).
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
    pub gmr: GmrRef,
    /// Target rank within the GMR's group.
    pub target: usize,
    pub mode: LockMode,
    pub ops: PlanOps,
}

/// A plan's operations. The single operation of a contiguous, direct or
/// per-segment plan is kept inline, so planning it allocates no list.
pub(crate) enum PlanOps {
    One(PlannedOp),
    Many(Vec<PlannedOp>),
}

impl std::ops::Deref for PlanOps {
    type Target = [PlannedOp];

    fn deref(&self) -> &[PlannedOp] {
        match self {
            PlanOps::One(op) => std::slice::from_ref(op),
            PlanOps::Many(ops) => ops,
        }
    }
}

/// Virtual seconds charged for a §VI-B overlap scan over `n` segments:
/// `O(n log n)` at 4 ns per step. It models the scan an MPI library
/// runs, not the simulator's host work: the auto method's plan-stage
/// scan pays it, and so does every scheduler flush, over its queued
/// operations, although run formation on the host no longer sorts.
fn conflict_scan_cost(n: usize) -> f64 {
    let n = n.max(1) as f64;
    4e-9 * n * n.log2().max(1.0)
}

/// Run formation over one queue: splits its operations (kept in program
/// order) into maximal runs of same-class operations whose combined
/// target segments are pairwise disjoint — the precondition for merging
/// a run into one wire operation — and yields each run's merged segment
/// list. An operation that would overlap its run (or change class)
/// starts a new run: the conservative per-op fallback, which preserves
/// program order because MPI executes the flush's operations in issue
/// order within one epoch. A run whose first operation overlaps itself
/// takes no followers.
///
/// One pass in program order, with no sort of the queue: the open run's
/// segments are kept sorted and fused (the tail of `merged`), and each
/// operation's nonempty segments are merged into them. An operation's
/// segments are ascending for every flat and subarray shape, so only an
/// out-of-order list (an IOV) is sorted, on its own. A running maximum
/// end over those sorted segments finds a self-overlap; binary search
/// bounds the window of fused segments the operation's span touches, and
/// a two-pointer merge over that window either finds a strict overlap
/// (the operation starts a new run) or yields the fused union, spliced
/// in place of the window. An operation wholly past the run's last
/// segment appends without a search. O(s + log F + w) per operation of s
/// segments against F fused ones, w of them in its window, plus one
/// move of the fused segments above the window. That move is the worst
/// case: scattered segments that never fuse, queued in descending order,
/// pay O(F) per operation (EXPERIMENTS "Sort-free run formation"
/// measures 4,096 of them at ~2 ms against ~0.1 ms for a global sort);
/// no workload queues that shape. Every buffer is kept across flushes.
#[derive(Default)]
struct Runs {
    /// The runs, as ranges of queued operations.
    runs: Vec<Range<usize>>,
    /// Every run's merged segments, run by run; run `r`'s are
    /// `merged[bounds[r]..bounds[r + 1]]`. While a run is open, its
    /// segments are `merged[bounds[r]..]`.
    merged: Vec<(usize, usize)>,
    bounds: Vec<usize>,
    /// An out-of-order operation's segments, sorted.
    sorted: Vec<(usize, usize)>,
    /// The fused union of an operation's segments and its window.
    window: Vec<(usize, usize)>,
}

impl Runs {
    /// Forms the runs of `ops`, whose segments live in `segs`.
    fn form(&mut self, ops: &[QueuedOp], segs: &[(usize, usize)]) {
        let Runs {
            runs,
            merged,
            bounds,
            sorted,
            window,
        } = self;
        runs.clear();
        merged.clear();
        bounds.clear();
        // Whether the open run may take followers, and where its merged
        // segments start.
        let (mut grows, mut base) = (false, 0);
        for (i, op) in ops.iter().enumerate() {
            let mut own = &segs[op.segs.clone()];
            let tangled = match self_overlap(own) {
                Some(tangled) => tangled,
                None => {
                    sorted.clear();
                    sorted.extend(own.iter().filter(|&&(_, len)| len > 0));
                    sorted.sort_unstable();
                    own = sorted;
                    self_overlap(own) == Some(true)
                }
            };
            // Join the open run if it grows, has this class, and the
            // operation overlaps neither itself nor the run.
            if let Some(run) = runs.last_mut() {
                if grows
                    && !tangled
                    && ops[run.start].kind == op.kind
                    && merge_into(merged, base, own, window)
                {
                    run.end = i + 1;
                    continue;
                }
            }
            grows = !tangled;
            runs.push(i..i + 1);
            base = merged.len();
            bounds.push(base);
            for &seg in own {
                push_fused(merged, base, seg);
            }
        }
        bounds.push(merged.len());
    }

    /// Run `r`'s merged target segments, ascending.
    fn merged(&self, r: usize) -> &[(usize, usize)] {
        &self.merged[self.bounds[r]..self.bounds[r + 1]]
    }
}

/// Whether `segs`' nonempty segments overlap one another, or `None` when
/// `segs` is not ascending by offset (and the answer needs a sort).
fn self_overlap(segs: &[(usize, usize)]) -> Option<bool> {
    let (mut prev, mut reach, mut tangled) = (0, 0, false);
    for &(off, len) in segs {
        if off < prev {
            return None;
        }
        prev = off;
        if len > 0 {
            tangled |= off < reach;
            reach = reach.max(off + len);
        }
    }
    Some(tangled)
}

/// Appends nonempty `(off, len)` to `out[start..]`, ascending, fusing it
/// into the last segment there when it touches or overlaps it; returns
/// whether it overlapped (shared a byte).
fn push_fused(out: &mut Vec<(usize, usize)>, start: usize, (off, len): (usize, usize)) -> bool {
    if len == 0 {
        return false;
    }
    match out[start..].last_mut() {
        Some(last) if off <= last.0 + last.1 => {
            let end = last.0 + last.1;
            last.1 = end.max(off + len) - last.0;
            off < end
        }
        _ => {
            out.push((off, len));
            false
        }
    }
}

/// Merges `own` (ascending, no two overlapping) into the sorted, fused
/// segments `merged[start..]`, unless one of them overlaps a fused one:
/// then returns false and leaves `merged` as it was. `window` is scratch.
fn merge_into(
    merged: &mut Vec<(usize, usize)>,
    start: usize,
    own: &[(usize, usize)],
    window: &mut Vec<(usize, usize)>,
) -> bool {
    let mut live = own.iter().filter(|&&(_, len)| len > 0);
    let (Some(&(lo, _)), Some(&(last, len))) = (live.clone().next(), live.clone().next_back())
    else {
        return true;
    };
    let hi = last + len;
    let fused = &merged[start..];
    // Fused segments ending before `lo` or starting after `hi` can
    // neither overlap nor touch the operation's; an operation past the
    // last one skips the search.
    let from = match fused.last() {
        Some(&(off, len)) if off + len >= lo => fused.partition_point(|&(off, len)| off + len < lo),
        _ => fused.len(),
    };
    if from == fused.len() {
        for &seg in own {
            push_fused(merged, start, seg);
        }
        return true;
    }
    let to = from + fused[from..].partition_point(|&(off, _)| off <= hi);
    // Each side is disjoint within itself, so a segment that starts below
    // the running end overlaps one of the other side.
    window.clear();
    let mut theirs = fused[from..to].iter().copied().peekable();
    for &seg in &mut live {
        while let Some(f) = theirs.next_if(|&(off, _)| off <= seg.0) {
            if push_fused(window, 0, f) {
                return false;
            }
        }
        if push_fused(window, 0, seg) {
            return false;
        }
    }
    for f in theirs {
        if push_fused(window, 0, f) {
            return false;
        }
    }
    merged.splice(start + from..start + to, window.iter().copied());
    true
}

/// One operation queued by the coalescing scheduler: payload already
/// moved, wire issue deferred to flush.
#[derive(Debug)]
struct QueuedOp {
    kind: RmaClass,
    /// Its window-absolute target byte segments, in datatype order, as a
    /// range of its queue's segment arena ([`SchedQueue::segs`]). The
    /// only flattening of the operation's target datatype: the conflict
    /// check, staging, run formation and the batched issue all borrow it.
    segs: Range<usize>,
    /// Payload bytes (statistics).
    bytes: u64,
}

/// Does any of `segs` overlap `[lo, hi)`?
fn overlaps(segs: &[(usize, usize)], lo: usize, hi: usize) -> bool {
    segs.iter().any(|&(off, len)| lo < off + len && off < hi)
}

/// A per-`(GMR, target)` scheduler queue. No lock is held while the
/// queue is open — the coarsened epoch is acquired and released entirely
/// inside the flush.
struct SchedQueue {
    gmr: GmrRef,
    target: usize,
    mode: LockMode,
    /// Virtual time the queue opened; queued transfers are on the wire
    /// from here in epochless mode (under the standing `lock_all`), so
    /// flush-time completion is priced from this origin.
    t_open: f64,
    /// Handle ids with operations in this queue.
    ids: Vec<u64>,
    ops: Vec<QueuedOp>,
    /// Every queued operation's target segments, back to back.
    segs: Vec<(usize, usize)>,
    /// The class every queued operation has, or `None` once classes mix.
    uniform: Option<RmaClass>,
}

impl SchedQueue {
    /// Would operations of `kind` over `new` conflict with a queued one
    /// (MPI-2 conflict check: the coarsened epoch is still one epoch, so
    /// conflicting accesses inside it would be erroneous)? A kind
    /// compatible with a uniform queue cannot conflict, so only mixed
    /// queues pay the range scan.
    fn conflicts(&self, kind: RmaClass, new: &[(usize, usize)]) -> bool {
        if self.uniform.is_some_and(|k| k.compatible(kind)) {
            return false;
        }
        new.iter().any(|&(off, len)| {
            self.ops.iter().any(|q| {
                !kind.compatible(q.kind) && overlaps(&self.segs[q.segs.clone()], off, off + len)
            })
        })
    }

    /// Does a queued operation touch bytes `[lo, hi)`?
    fn touches(&self, lo: usize, hi: usize) -> bool {
        self.ops
            .iter()
            .any(|q| overlaps(&self.segs[q.segs.clone()], lo, hi))
    }
}

/// Buffers the coalescing scheduler (and the IOV auto method's scan)
/// reuse across calls, so a steady-state queued operation allocates
/// nothing of its own. Each field is taken out while in use and put back
/// after.
#[derive(Default)]
struct SchedScratch {
    /// The plan being enqueued, flattened, before it joins a queue: its
    /// operations, with ranges into `staged_segs`.
    staged: Vec<QueuedOp>,
    staged_segs: Vec<(usize, usize)>,
    /// Target segments, origin segments and copy pieces of the operation
    /// being staged.
    flat: Flat,
    /// Run formation's buffers and output.
    runs: Runs,
    /// The IOV auto method's overlap scan, borrowed in place (the scan
    /// calls nothing that could reach the scratch).
    iov_sweep: ctree::Sweep,
    /// A batched wire operation's merged target segments.
    merged: Vec<(usize, usize)>,
    /// Flushed queues, emptied, whose buffers the next queues reuse.
    spare: Vec<SchedQueue>,
}

/// Engine-side nonblocking state.
#[derive(Default)]
pub(crate) struct NbState {
    next_id: u64,
    /// Coalescing-scheduler queues.
    queues: Vec<SchedQueue>,
    /// Online issue-cost estimates for [`CoalesceMode::Auto`].
    model: CostModel,
    scratch: SchedScratch,
    /// Handle ids whose operations have completed (epoch closed) but whose
    /// `wait` has not been called yet, sorted.
    resolved: Vec<u64>,
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
                    gmr: plans.first().map_or(0, |p| p.gmr.id),
                },
                t0,
                t1,
            );
        }
    }

    /// Books one completed access context to [`StageStats`] and records
    /// a `Stage` span per stage. `t` holds the boundaries of the context's
    /// trailing stages of acquire → execute → complete: four times for a
    /// full context, two for a completion alone.
    fn note_stages(&self, gmr: u64, t: &[f64]) {
        const STAGES: [&str; 3] = ["acquire", "execute", "complete"];
        let first = STAGES.len() + 1 - t.len();
        self.stage(|g| {
            g.completes += 1;
            let slots = [&mut g.acquire_s, &mut g.execute_s, &mut g.complete_s];
            for (slot, w) in slots.into_iter().skip(first).zip(t.windows(2)) {
                *slot += w[1] - w[0];
            }
        });
        obs::batch(|b| {
            for (&stage, w) in STAGES[first..].iter().zip(t.windows(2)) {
                b.span(obs::EventKind::Stage { stage, gmr }, w[0], w[1]);
            }
        });
    }

    // ------------------------------------------------------------------
    // Plan stage
    // ------------------------------------------------------------------

    /// Plans one operation in one epoch — a contiguous, direct strided or
    /// RMW-protocol transfer: translates the `extent` target bytes at
    /// `remote`, takes the lock mode `mode` picks for the GMR, and records
    /// the plan stage.
    pub(crate) fn plan_single(
        &self,
        remote: GlobalAddr,
        extent: usize,
        mode: impl FnOnce(&Gmr) -> ArmciResult<LockMode>,
        odt: Datatype,
        tdt: Datatype,
        bytes: usize,
    ) -> ArmciResult<TransferPlan> {
        let t0 = self.vnow();
        let tr = self.space.translate(remote, extent)?;
        let plan = TransferPlan {
            gmr: tr.alloc,
            target: tr.group_rank,
            mode: mode(self.gmrs.borrow().get(tr.alloc)?)?,
            ops: PlanOps::One(PlannedOp {
                odt,
                tdisp: tr.disp,
                tdt,
                bytes: bytes as u64,
            }),
        };
        self.note_plans(t0, std::slice::from_ref(&plan));
        Ok(plan)
    }

    /// Resolves every IOV segment, requiring a single common GMR (the
    /// batched/datatype prerequisite). Errors if segments span allocations.
    pub(crate) fn resolve_single_gmr(
        &self,
        desc: &IovDesc,
    ) -> ArmciResult<(GmrRef, usize, Vec<usize>)> {
        let mut gmr = None;
        let mut group_rank = 0usize;
        let mut disps = Vec::with_capacity(desc.len());
        for &addr in &desc.remote_addrs {
            let tr = self
                .space
                .translate(GlobalAddr::new(desc.rank, addr), desc.bytes)?;
            match gmr {
                None => {
                    gmr = Some(tr.alloc);
                    group_rank = tr.group_rank;
                }
                Some(r) if r != tr.alloc => {
                    return Err(ArmciError::BadDescriptor(
                        "IOV segments span multiple GMRs".into(),
                    ))
                }
                _ => {}
            }
            disps.push(tr.disp);
        }
        let gmr = gmr.ok_or_else(|| ArmciError::BadDescriptor("empty IOV".into()))?;
        Ok((gmr, group_rank, disps))
    }

    /// Origin-side byte offset of segment `i`: into the caller's buffer
    /// for put/get, into the gathered staging buffer (segment order) for
    /// accumulates.
    fn seg_off(desc: &IovDesc, local: &Local<'_>, i: usize) -> usize {
        if local.is_acc() {
            i * desc.bytes
        } else {
            desc.local_offsets[i]
        }
    }

    /// Plans an IOV transfer with the given §VI-A method. An accumulate's
    /// origin is the contiguous pre-scaled staging buffer rather than the
    /// caller's scattered buffer.
    pub(crate) fn plan_iov(
        &self,
        desc: &IovDesc,
        local: &Local<'_>,
        method: StridedMethod,
    ) -> ArmciResult<Vec<TransferPlan>> {
        let t0 = self.vnow();
        let plans = match method {
            StridedMethod::IovConservative => self.plan_iov_conservative(desc, local)?,
            StridedMethod::IovBatched { batch } => self.plan_iov_batched(desc, local, batch)?,
            StridedMethod::IovDatatype | StridedMethod::Direct => {
                let resolved = self.resolve_single_gmr(desc)?;
                vec![self.plan_iov_datatype(desc, local, resolved)?]
            }
            StridedMethod::Auto => {
                // §VI-B: overlap scan of the resolved displacements;
                // datatype when the descriptor is single-GMR and clean,
                // conservative otherwise. The O(N log N) scan is charged
                // to the plan stage.
                let clean = self
                    .resolve_single_gmr(desc)
                    .ok()
                    .filter(|(_, _, disps)| self.disjoint(disps, desc.bytes));
                self.charge(conflict_scan_cost(desc.len()));
                match clean {
                    Some(resolved) => vec![self.plan_iov_datatype(desc, local, resolved)?],
                    None => self.plan_iov_conservative(desc, local)?,
                }
            }
        };
        if obs::enabled() {
            let (name, fast) = match method {
                StridedMethod::IovConservative => ("iov_conservative", false),
                StridedMethod::IovBatched { .. } => ("iov_batched", false),
                StridedMethod::IovDatatype | StridedMethod::Direct => ("iov_datatype", true),
                // Auto elected the datatype method iff the overlap scan
                // came back clean (one plan instead of one per segment).
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
        local: &Local<'_>,
    ) -> ArmciResult<Vec<TransferPlan>> {
        let mut plans = Vec::with_capacity(desc.len());
        for (i, &raddr) in desc.remote_addrs.iter().enumerate() {
            let tr = self
                .space
                .translate(GlobalAddr::new(desc.rank, raddr), desc.bytes)?;
            let mode = self.lock_mode(self.gmrs.borrow().get(tr.alloc)?, local)?;
            plans.push(TransferPlan {
                gmr: tr.alloc,
                target: tr.group_rank,
                mode,
                ops: PlanOps::One(PlannedOp {
                    odt: Datatype::Indexed {
                        blocks: vec![(Self::seg_off(desc, local, i), desc.bytes)],
                    },
                    tdisp: tr.disp,
                    tdt: Datatype::contiguous(desc.bytes),
                    bytes: desc.bytes as u64,
                }),
            });
        }
        Ok(plans)
    }

    /// Batched method: chunks of `batch` operations per epoch (0 =
    /// unlimited). Single GMR, disjoint segments.
    fn plan_iov_batched(
        &self,
        desc: &IovDesc,
        local: &Local<'_>,
        batch: usize,
    ) -> ArmciResult<Vec<TransferPlan>> {
        let (gmr, group_rank, disps) = self.resolve_single_gmr(desc)?;
        let mode = self.lock_mode(self.gmrs.borrow().get(gmr)?, local)?;
        let chunk = if batch == 0 { desc.len() } else { batch };
        let mut plans = Vec::with_capacity(desc.len().div_ceil(chunk));
        let mut i = 0usize;
        while i < desc.len() {
            let end = (i + chunk).min(desc.len());
            let ops = (i..end)
                .map(|j| PlannedOp {
                    odt: Datatype::Indexed {
                        blocks: vec![(Self::seg_off(desc, local, j), desc.bytes)],
                    },
                    tdisp: disps[j],
                    tdt: Datatype::contiguous(desc.bytes),
                    bytes: desc.bytes as u64,
                })
                .collect();
            plans.push(TransferPlan {
                gmr,
                target: group_rank,
                mode,
                ops: PlanOps::Many(ops),
            });
            i = end;
        }
        Ok(plans)
    }

    /// Are `len`-byte segments at `disps` pairwise disjoint? One sweep
    /// in the engine's reused scratch.
    fn disjoint(&self, disps: &[usize], len: usize) -> bool {
        let sweep = &mut self.nb.borrow_mut().scratch.iov_sweep;
        sweep.clear();
        for (i, &d) in disps.iter().enumerate() {
            sweep.push(d, d + len, i);
        }
        sweep.first_overlap().is_none()
    }

    /// Datatype method: two indexed datatypes, one operation, one epoch,
    /// over the descriptor's [`ArmciMpi::resolve_single_gmr`] resolution.
    fn plan_iov_datatype(
        &self,
        desc: &IovDesc,
        local: &Local<'_>,
        (gmr, group_rank, disps): (GmrRef, usize, Vec<usize>),
    ) -> ArmciResult<TransferPlan> {
        let mode = self.lock_mode(self.gmrs.borrow().get(gmr)?, local)?;
        let tdt = Datatype::Indexed {
            blocks: disps.iter().map(|&d| (d, desc.bytes)).collect(),
        };
        let odt = if local.is_acc() {
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
            gmr,
            target: group_rank,
            mode,
            ops: PlanOps::One(PlannedOp {
                odt,
                tdisp: 0,
                tdt,
                bytes: desc.total_bytes() as u64,
            }),
        })
    }

    // ------------------------------------------------------------------
    // Acquire / execute / complete — blocking path
    // ------------------------------------------------------------------

    /// Runs plans to completion. Outstanding nonblocking operations are
    /// completed first, serialising blocking traffic (and §V-E1
    /// staging) behind in-flight nonblocking operations.
    pub(crate) fn run_plans(
        &self,
        plans: &[TransferPlan],
        origin: &mut Origin<'_>,
    ) -> ArmciResult<()> {
        self.nb_quiesce()?;
        for plan in plans {
            self.run_plan(plan, origin)?;
        }
        Ok(())
    }

    /// Acquire / execute / complete for one plan. The route is decided
    /// per plan: a node-peer target on a slab-backed window takes the shm
    /// route ([`crate::shm`]) — the shm bracket's epoch entered and left
    /// through `win_sync`, one lock overhead, the shm-priced mover —
    /// and every other target takes the wire backend.
    fn run_plan(&self, plan: &TransferPlan, origin: &mut Origin<'_>) -> ArmciResult<()> {
        let gmrs = self.gmrs.borrow();
        let gmr = gmrs.get(plan.gmr)?;
        let shm = self.shm_routable(gmr, plan.target);
        let style = if shm {
            self.shm_style()
        } else {
            self.tx.epoch_style()
        };
        let sync = || gmr.win.win_sync().map_err(|e| Self::shm_err(gmr.id, e));
        // acquire
        let t0 = self.vnow();
        self.epoch_begin_via(style, gmr, plan.target, plan.mode)?;
        let mut res = if shm { sync() } else { Ok(()) };
        let t1 = self.vnow();
        // execute (the epoch is closed even when an operation fails)
        if shm {
            self.charge(self.world.platform().shm.lock_overhead);
        }
        let mut issued = 0u64;
        let mut bytes = 0u64;
        for op in plan.ops.iter() {
            if res.is_err() {
                break;
            }
            res = self.issue_op(gmr, plan.target, shm, op, origin.reborrow());
            if res.is_ok() {
                issued += 1;
                bytes += op.bytes;
            }
        }
        let t2 = self.vnow();
        // complete (the shm route leaves coherence before the epoch)
        let end = if shm { sync() } else { Ok(()) }
            .and_then(|()| self.epoch_end_via(style, gmr, plan.target));
        let t3 = self.vnow();
        self.stage(|g| {
            g.acquires += 1;
            if shm {
                g.shm_hits += issued;
                g.shm_bypass_bytes += bytes;
            } else {
                g.executed_ops += issued;
            }
        });
        self.note_stages(gmr.id, &[t0, t1, t2, t3]);
        obs::batch(|b| {
            b.span(
                obs::EventKind::Op {
                    name: match origin.class() {
                        RmaClass::Get => "get",
                        RmaClass::Put => "put",
                        RmaClass::Acc(..) => "acc",
                    },
                    gmr: gmr.id,
                    bytes: plan.ops.iter().map(|o| o.bytes).sum(),
                },
                t0,
                t3,
            );
        });
        end?;
        res
    }

    /// Issues one planned operation inside an open access context: through
    /// the wire backend, or (`shm`) as a slab copy charged at the
    /// platform's shm tier, its errors funnelled through
    /// [`ArmciMpi::shm_err`]. Operation statistics count the same on both
    /// routes — the route changes the price, not the op.
    fn issue_op(
        &self,
        gmr: &Gmr,
        target: usize,
        shm: bool,
        op: &PlannedOp,
        origin: Origin<'_>,
    ) -> ArmciResult<()> {
        let (win, tx) = (&gmr.win, self.tx());
        let (odt, tdisp, tdt) = (&op.odt, op.tdisp, &op.tdt);
        let class = origin.class();
        let moved = if shm {
            win.shm_transfer(origin, odt, target, tdisp, tdt)
                .map(|cost| win.charge_virtual(cost))
        } else {
            tx.transfer(win, origin, odt, target, tdisp, tdt)
        };
        moved.map_err(|e| {
            if shm {
                Self::shm_err(gmr.id, e)
            } else {
                e.into()
            }
        })?;
        self.note_op(class, op.bytes);
        Ok(())
    }

    /// Counts one MPI-level operation of `kind` moving `bytes` in the
    /// per-class operation statistics.
    pub(crate) fn note_op(&self, class: RmaClass, bytes: u64) {
        self.stat(|s| match class {
            RmaClass::Get => {
                s.gets += 1;
                s.bytes_got += bytes;
            }
            RmaClass::Put => {
                s.puts += 1;
                s.bytes_put += bytes;
            }
            RmaClass::Acc(..) => {
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
    /// mover), wire issue and epoch accounting are deferred to
    /// the queue's flush at `ARMCI_Wait` (or the next synchronisation
    /// point).
    pub(crate) fn nb_run_plans(
        &self,
        plans: &[TransferPlan],
        origin: &mut Origin<'_>,
    ) -> ArmciResult<NbHandle> {
        if plans.is_empty() {
            return Ok(NbHandle::eager());
        }
        // Intra-node plans bypass the RMA scheduler entirely: a node-local
        // copy has no wire latency to overlap, so deferring it buys
        // nothing. Each completes eagerly through the blocking executor's
        // shm route once the queue on its own `(GMR, target)` pair, if
        // any, is retired; queues on other pairs stay in flight. Mixed
        // plan lists stay on the wire path as a unit so cross-plan
        // ordering is owned by one engine.
        if plans.iter().all(|p| self.plan_shm_routable(p)) {
            for plan in plans {
                self.nb_retire(|q| q.gmr == plan.gmr && q.target == plan.target)?;
                self.run_plan(plan, origin)?;
            }
            return Ok(NbHandle::eager());
        }
        let id = {
            let mut nb = self.nb.borrow_mut();
            nb.next_id += 1;
            nb.next_id
        };
        let kind = origin.class();
        let op_overhead = self.world.platform().mpi.op_overhead;
        let per_op = self.tx.epoch_style() == EpochStyle::PerOp;
        for plan in plans {
            let t0 = self.vnow();
            // Flatten each operation once and move its payload now: the
            // queue keeps the window-absolute target segments, and pricing
            // waits for the flush.
            let (mut staged, mut segs, mut flat) = {
                let sc = &mut self.nb.borrow_mut().scratch;
                (
                    std::mem::take(&mut sc.staged),
                    std::mem::take(&mut sc.staged_segs),
                    std::mem::take(&mut sc.flat),
                )
            };
            {
                let gmrs = self.gmrs.borrow();
                let win = &gmrs.get(plan.gmr)?.win;
                for op in plan.ops.iter() {
                    let origin = origin.reborrow();
                    flat.flatten(&origin, &op.odt, op.tdisp, &op.tdt)?;
                    win.stage(origin, plan.target, &flat)?;
                    let start = segs.len();
                    segs.extend_from_slice(flat.tsegs());
                    staged.push(QueuedOp {
                        kind,
                        segs: start..segs.len(),
                        bytes: op.bytes,
                    });
                }
            }
            // Join the open queue on (gmr, target) or open a new one. The
            // coarsened MPI-2 epoch is still *one* epoch, so a plan whose
            // lock mode differs or whose ranges would conflict with queued
            // operations cannot join.
            let found = self.nb.borrow().queues.iter().position(|q| {
                q.gmr == plan.gmr
                    && q.target == plan.target
                    && (!per_op || (q.mode == plan.mode && !q.conflicts(kind, &segs)))
            });
            let idx = match found {
                Some(i) => {
                    self.stage(|g| g.nb_aggregated += plan.ops.len() as u64);
                    i
                }
                None => {
                    // A queue on this pair that the plan could not join is
                    // retired first; queues on other pairs stay open. None
                    // holds a lock until its flush, which takes and
                    // releases exactly one, so open queues on several
                    // targets cannot hold-and-wait.
                    self.nb_retire(|q| q.gmr == plan.gmr && q.target == plan.target)?;
                    self.stage(|g| g.acquires += 1);
                    let t_open = self.vnow();
                    let mut nb = self.nb.borrow_mut();
                    let spare = nb.scratch.spare.pop();
                    let (ids, ops, segs) =
                        spare.map(|q| (q.ids, q.ops, q.segs)).unwrap_or_default();
                    nb.queues.push(SchedQueue {
                        gmr: plan.gmr,
                        target: plan.target,
                        mode: plan.mode,
                        t_open,
                        ids,
                        ops,
                        segs,
                        uniform: Some(kind),
                    });
                    nb.queues.len() - 1
                }
            };
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
                        gmr: plan.gmr.id,
                    },
                    t0,
                    t1,
                );
                b.span(
                    obs::EventKind::Op {
                        name: match kind {
                            RmaClass::Get => "nb_get",
                            RmaClass::Put => "nb_put",
                            RmaClass::Acc(..) => "nb_acc",
                        },
                        gmr: plan.gmr.id,
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
            let base = q.segs.len();
            q.segs.extend_from_slice(&segs);
            q.ops.extend(staged.drain(..).map(|op| QueuedOp {
                segs: op.segs.start + base..op.segs.end + base,
                ..op
            }));
            if q.ids.last() != Some(&id) {
                q.ids.push(id);
            }
            segs.clear();
            let sc = &mut nb.scratch;
            (sc.staged, sc.staged_segs, sc.flat) = (staged, segs, flat);
        }
        Ok(NbHandle::deferred(id))
    }

    /// Flushes one scheduler queue: forms merged runs, acquires the
    /// coarsened epoch (MPI-2), issues the runs, prices the wire, and
    /// releases. The emptied queue's buffers go back to the scratch.
    fn sched_flush(&self, mut q: SchedQueue) -> ArmciResult<()> {
        let t0 = self.vnow();
        let segs_in = q.segs.len() as u64;
        let mut segs_out = 0u64;
        let mut wire_ops = 0u64;
        let mut res = Ok(());
        let end;
        {
            let gmrs = self.gmrs.borrow();
            let gmr = gmrs.get(q.gmr)?;
            let per_op = self.tx.epoch_style() == EpochStyle::PerOp;
            // Runs form before the lock is taken, so the target stays
            // locked only while they issue.
            let (mut runs, mut merged) = {
                let sc = &mut self.nb.borrow_mut().scratch;
                (std::mem::take(&mut sc.runs), std::mem::take(&mut sc.merged))
            };
            runs.form(&q.ops, &q.segs);
            if per_op {
                self.epoch_begin(gmr, q.target, q.mode)?;
                obs::instant(obs::EventKind::NbEpochOpen {
                    win: q.gmr.id,
                    target: q.target as u32,
                });
            }
            let t1 = self.vnow();
            // Run formation (done above, off the lock) re-scans the queued
            // segments for conflicts; it is charged after the grant, like
            // the plan stage charges its scan.
            self.charge(conflict_scan_cost(q.ops.len()));
            // Wire origin: transfers without a per-target epoch (standing
            // lock_all, or the free-running channel) have been on the wire
            // since enqueue; MPI-2 transfers cannot start before the
            // coarsened lock was granted.
            let mut wire_t = if per_op { t1 } else { q.t_open };
            'runs: for (r, run) in runs.runs.iter().enumerate() {
                let ops = &q.ops[run.clone()];
                let class = ops[0].kind;
                let bytes: u64 = ops.iter().map(|op| op.bytes).sum();
                let run_segs = runs.merged(r);
                let use_merged = match self.cfg.coalesce {
                    CoalesceMode::Datatype => true,
                    CoalesceMode::Batched => false,
                    // Cold model prefers the merged datatype (one op beats
                    // many on every platform the paper measures).
                    CoalesceMode::Auto => {
                        self.nb
                            .borrow()
                            .model
                            .prefer_merged(bytes, ops.len(), run_segs.len())
                    }
                };
                if use_merged {
                    let cost = match self.tx().issue_merged(&gmr.win, class, q.target, run_segs) {
                        Ok(c) => c,
                        Err(e) => {
                            res = Err(e.into());
                            break 'runs;
                        }
                    };
                    self.nb
                        .borrow_mut()
                        .model
                        .observe(cost, bytes, run_segs.len());
                    wire_t += cost;
                    segs_out += run_segs.len() as u64;
                    wire_ops += 1;
                    self.note_op(class, bytes);
                } else {
                    // Batched shape: one wire op per queued op (adjacent
                    // segments within an op still merge), pipelined under
                    // the one coarsened epoch.
                    for op in ops {
                        merged.clear();
                        merged.extend_from_slice(&q.segs[op.segs.clone()]);
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
                        self.note_op(class, op.bytes);
                    }
                }
            }
            {
                let sc = &mut self.nb.borrow_mut().scratch;
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
                g.executed_ops += wire_ops;
                g.sched_flushes += 1;
                g.sched_runs += wire_ops;
                g.sched_segs_in += segs_in;
                g.sched_segs_out += segs_out;
            });
            obs::batch(|b| {
                b.instant_at(
                    obs::EventKind::SchedFlush {
                        win: q.gmr.id,
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
                        win: q.gmr.id,
                        target: q.target as u32,
                    },
                    t3,
                );
            });
            self.note_stages(q.gmr.id, &[t0, t1, t2, t3]);
        }
        {
            let nb = &mut *self.nb.borrow_mut();
            for &id in &q.ids {
                // A multi-plan handle's id can reach several queues.
                if let Err(at) = nb.resolved.binary_search(&id) {
                    nb.resolved.insert(at, id);
                }
            }
            q.ids.clear();
            q.ops.clear();
            q.segs.clear();
            nb.scratch.spare.push(q);
        }
        end?;
        res
    }

    // ------------------------------------------------------------------
    // Complete — nonblocking path
    // ------------------------------------------------------------------

    /// Completes every open scheduler queue. Called by
    /// blocking transfers, direct local access, fences, barriers and
    /// collective memory operations: any synchronising call serialises
    /// against in-flight nonblocking operations instead of corrupting
    /// them.
    pub(crate) fn nb_quiesce(&self) -> ArmciResult<()> {
        self.nb_retire(|_| true)
    }

    /// Completes only the nonblocking work that touches `gmr`. Used by
    /// the mutex RMW protocol, whose atomicity guarantee is per-location:
    /// an RMW on the NXTVAL counter must not retire in-flight transfers on
    /// unrelated allocations (that would serialise the §VIII-B(3) overlap
    /// schedule).
    pub(crate) fn nb_quiesce_gmr(&self, gmr: GmrRef) -> ArmciResult<()> {
        self.nb_retire(|q| q.gmr == gmr)
    }

    /// Quiesce for a native atomic on bytes `[lo, hi)` of `(gmr,
    /// target)`: retires only the queued transfers on that pair whose
    /// target segments overlap the atomic (location consistency), and
    /// leaves everything else in flight — §VIII-B(4)'s point that atomics
    /// need not serialise the overlap schedule. Queues hold no lock until
    /// their flush, so a per-op backend's own atomic lock cannot collide
    /// with them.
    pub(crate) fn nb_quiesce_for_atomic(
        &self,
        gmr: GmrRef,
        target: usize,
        lo: usize,
        hi: usize,
    ) -> ArmciResult<()> {
        self.nb_retire(|q| q.gmr == gmr && q.target == target && q.touches(lo, hi))
    }

    /// Retires the scheduler queues selected by `pick` (flushing each),
    /// in open order; the rest stay in flight.
    fn nb_retire(&self, mut pick: impl FnMut(&SchedQueue) -> bool) -> ArmciResult<()> {
        let mut at = 0;
        loop {
            let q = {
                let mut nb = self.nb.borrow_mut();
                let Some(k) = nb.queues[at..].iter().position(&mut pick) else {
                    return Ok(());
                };
                at += k;
                nb.queues.remove(at)
            };
            self.sched_flush(q)?;
        }
    }

    /// `ARMCI_Wait`: completes the queues holding `handle`'s operations
    /// (a no-op for eagerly-completed or already-completed handles).
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
        let live = self.nb.borrow().queues.iter().any(|q| q.ids.contains(&id));
        self.nb_retire(|q| q.ids.contains(&id))?;
        let done = {
            let resolved = &mut self.nb.borrow_mut().resolved;
            resolved
                .binary_search(&id)
                .map(|at| resolved.remove(at))
                .is_ok()
        };
        if done || live {
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
    use mpisim::{AccOp, ElemType};
    use proptest::prelude::*;

    /// A queue as run formation sees it: its operations and their
    /// segment arena.
    type Queue = (Vec<QueuedOp>, Vec<(usize, usize)>);

    fn queue(specs: Vec<(RmaClass, Vec<(usize, usize)>)>) -> Queue {
        let mut segs = Vec::new();
        let ops = specs
            .into_iter()
            .map(|(kind, s)| {
                let start = segs.len();
                segs.extend(s);
                QueuedOp {
                    kind,
                    segs: start..segs.len(),
                    bytes: 0,
                }
            })
            .collect();
        (ops, segs)
    }

    /// Reference run formation: re-scans the run's accumulated segments
    /// plus the candidate's from scratch, pairwise, for every queued
    /// operation (independent of the incremental merge).
    fn form_runs_reference((ops, segs): &Queue) -> Vec<Vec<usize>> {
        let mut runs: Vec<Vec<usize>> = Vec::new();
        let mut run_segs: Vec<(usize, usize)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let own = &segs[op.segs.clone()];
            if let Some(run) = runs.last_mut() {
                if ops[run[0]].kind == op.kind {
                    let mut cand = run_segs.clone();
                    cand.extend_from_slice(own);
                    if ctree::scan_segments_naive(&cand).is_ok() {
                        run.push(i);
                        run_segs = cand;
                        continue;
                    }
                }
            }
            run_segs = own.to_vec();
            runs.push(vec![i]);
        }
        runs
    }

    /// Forms `q`'s runs and checks them, and each run's merged segments,
    /// against the reference and [`ctree::merge_in_place`] over the run.
    fn check_runs(runs: &mut Runs, q: &Queue) {
        let (ops, segs) = q;
        runs.form(ops, segs);
        let got: Vec<Vec<usize>> = runs.runs.iter().map(|r| r.clone().collect()).collect();
        assert_eq!(got, form_runs_reference(q));
        for (r, run) in runs.runs.iter().enumerate() {
            let mut want: Vec<(usize, usize)> = ops[run.clone()]
                .iter()
                .flat_map(|op| segs[op.segs.clone()].iter().copied())
                .collect();
            ctree::merge_in_place(&mut want);
            assert_eq!(runs.merged(r), &want[..], "run {r}");
        }
    }

    fn kind_of(k: usize) -> RmaClass {
        match k {
            0 => RmaClass::Get,
            1 => RmaClass::Put,
            2 => RmaClass::Acc(ElemType::F64, AccOp::Sum),
            _ => RmaClass::Acc(ElemType::I64, AccOp::Sum),
        }
    }

    /// Random queues: each op picks a kind (mostly the previous one, so
    /// runs can grow) and a few segments on a small address space, so
    /// overlapping, adjacent, zero-length and self-overlapping ops all
    /// occur.
    fn arb_queue() -> impl Strategy<Value = Queue> {
        proptest::collection::vec(
            (
                0usize..8,
                proptest::collection::vec((0usize..40, 0usize..6), 1..5),
            ),
            0..24,
        )
        .prop_map(|specs| {
            let mut kind = 0usize;
            queue(
                specs
                    .into_iter()
                    .map(|(k, segs)| {
                        if k < 4 {
                            kind = k;
                        }
                        let segs = segs.into_iter().map(|(w, len)| (w * 4, len * 4));
                        (kind_of(kind), segs.collect())
                    })
                    .collect(),
            )
        })
    }

    /// Tile-shaped queues: each op is an ascending strided segment list
    /// (a flattened tile) placed past the previous op's end, so runs grow
    /// by appending; an occasional op lands below (disjoint or
    /// overlapping), changes kind, carries a zero-length segment or
    /// overlaps itself.
    fn arb_tile_queue() -> impl Strategy<Value = Queue> {
        proptest::collection::vec(
            (0usize..20, 1usize..6, 1usize..5, 0usize..4, 0usize..400),
            0..16,
        )
        .prop_map(|specs| {
            let mut end = 0usize;
            queue(
                specs
                    .into_iter()
                    .map(|(pick, count, len, gap, low)| {
                        let (len, stride) = (len * 8, (len + gap) * 8);
                        let base = match pick {
                            0 | 1 => low,
                            _ => end + gap * 8,
                        };
                        let mut segs: Vec<(usize, usize)> =
                            (0..count).map(|i| (base + i * stride, len)).collect();
                        match pick {
                            3 => segs.insert(count / 2, (base + 4, 0)),
                            4 => segs.push((base, len)),
                            _ => {}
                        }
                        end = end.max(base + (count - 1) * stride + len);
                        (kind_of(usize::from(pick == 2)), segs)
                    })
                    .collect(),
            )
        })
    }

    /// Duplicated tiles, the CCSD T-tile pattern: `tasks` tasks each
    /// fetch the same `tiles` strided tiles in turn (task-major), so every
    /// tile recurs once per task and cuts a run at each task boundary.
    fn arb_dup_tile_queue() -> impl Strategy<Value = Queue> {
        (1usize..5, 1usize..8, 1usize..5, 0usize..3).prop_map(|(tasks, tiles, rows, gap)| {
            let (len, stride) = (16, 16 * (1 + gap));
            let tile = |t: usize| -> Vec<(usize, usize)> {
                (0..rows)
                    .map(|i| (t * rows * stride + i * stride, len))
                    .collect()
            };
            queue(
                (0..tasks)
                    .flat_map(|_| (0..tiles).map(|t| (RmaClass::Get, tile(t))))
                    .collect(),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The incremental run formation splits every queue exactly
        /// like the from-scratch reference, and merges each run's
        /// segments as `merge_in_place` does, on random queues, on
        /// tile-shaped ones and on duplicated tiles.
        #[test]
        fn form_runs_matches_reference(
            ops in arb_queue(),
            tiles in arb_tile_queue(),
            dups in arb_dup_tile_queue(),
        ) {
            let mut runs = Runs::default();
            for q in [&ops, &tiles, &dups] {
                check_runs(&mut runs, q);
            }
        }
    }

    /// 512 single-segment puts over 16-byte slots, every third one half
    /// full (so neighbours touch or leave a gap), arriving in `order`,
    /// with one op mid-queue straddling the two middle slots: ascending,
    /// it sits past the run and the next slot overlaps it from below;
    /// descending, it overlaps the run's lowest segment.
    fn single_segment_queue(order: impl Iterator<Item = usize>) -> Queue {
        let slot = |k: usize| (k * 16, if k.is_multiple_of(3) { 8 } else { 16 });
        let mut specs: Vec<_> = order.map(|k| (RmaClass::Put, vec![slot(k)])).collect();
        specs.insert(256, (RmaClass::Put, vec![(256 * 16 + 8, 16)]));
        queue(specs)
    }

    /// Deep queues, past the random generators' 24 operations: ascending
    /// ones append, descending ones splice at the front, shuffled ones in
    /// the middle.
    #[test]
    fn deep_single_segment_queues_match_reference() {
        let mut runs = Runs::default();
        check_runs(&mut runs, &single_segment_queue(0..512));
        assert_eq!(runs.runs, vec![0..257, 257..513]);
        check_runs(&mut runs, &single_segment_queue((0..512).rev()));
        assert_eq!(runs.runs, vec![0..256, 256..513]);
        // 173 is odd, so `k * 173 mod 512` visits every slot once.
        let shuffled = (0..512).map(|k| k * 173 % 512);
        check_runs(&mut runs, &single_segment_queue(shuffled));
    }

    /// A CCSD-shaped volley: 32 V tiles of 64 rows of 32 B interleaved
    /// across one 1 KiB row pitch, arriving out of column order, then four
    /// tasks fetching the same 4 T tiles past a one-row gap. The V tiles
    /// fuse into one segment, and the first T set joins their run; each
    /// later set repeats it and cuts a run.
    #[test]
    fn ccsd_shaped_volley_matches_reference() {
        const ROW: usize = 1024;
        let tile = |base: usize, t: usize| -> Vec<(usize, usize)> {
            (0..64).map(|r| (base + r * ROW + t * 32, 32)).collect()
        };
        let mut specs: Vec<_> = (0..32)
            .map(|j| (RmaClass::Get, tile(0, j * 13 % 32)))
            .collect();
        for _ in 0..4 {
            specs.extend((0..4).map(|t| (RmaClass::Get, tile(65 * ROW, t))));
        }
        let q = queue(specs);
        let mut runs = Runs::default();
        check_runs(&mut runs, &q);
        assert_eq!(runs.runs, vec![0..36, 36..40, 40..44, 44..48]);
        assert_eq!(runs.merged(0)[0], (0, 64 * ROW));
        assert_eq!(runs.merged(0).len(), 65);
        assert_eq!(runs.merged(1).len(), 64);
    }

    #[test]
    fn self_overlapping_seed_takes_no_followers() {
        let q = queue(vec![
            (RmaClass::Put, vec![(0, 8), (4, 8)]),
            (RmaClass::Put, vec![(64, 8)]),
            (RmaClass::Put, vec![(96, 8)]),
        ]);
        let mut runs = Runs::default();
        runs.form(&q.0, &q.1);
        assert_eq!(runs.runs, vec![0..1, 1..3]);
        assert_eq!(runs.merged(0), &[(0, 12)]);
        assert_eq!(runs.merged(1), &[(64, 8), (96, 8)]);
        assert_eq!(form_runs_reference(&q), vec![vec![0], vec![1, 2]]);
    }

    #[test]
    fn duplicated_tiles_cut_at_each_task() {
        // Two tasks fetch the same two 2-row tiles: one run per task,
        // each merging its two tiles' rows.
        let tile = |t: usize| vec![(t * 64, 16), (t * 64 + 32, 16)];
        let q = queue(
            (0..2)
                .flat_map(|_| (0..2).map(|t| (RmaClass::Get, tile(t))))
                .collect(),
        );
        let mut runs = Runs::default();
        runs.form(&q.0, &q.1);
        assert_eq!(runs.runs, vec![0..2, 2..4]);
        for r in 0..2 {
            assert_eq!(runs.merged(r), &[(0, 16), (32, 16), (64, 16), (96, 16)]);
        }
    }
}
