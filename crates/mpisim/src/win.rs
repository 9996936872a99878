//! Passive-target one-sided communication (MPI-2 §11 subset).
//!
//! Windows are created collectively over a communicator; each member
//! contributes a local slice. Origins open access epochs with
//! [`WinHandle::lock`] (shared or exclusive) and issue `put` / `get` /
//! `accumulate` operations with derived datatypes on both sides.
//!
//! Two layers of protection coexist:
//!
//! 1. **Real synchronisation** — epoch locks are actual reader–writer locks
//!    and each operation's byte movement additionally holds the I/O mutex
//!    of the slab backing the target's section, so the simulator itself is free of data races even when
//!    executing programs MPI would call erroneous.
//! 2. **Semantic checking** — when [`crate::RuntimeConfig::semantic_checks`]
//!    is on, the runtime reports (as `Err`) the patterns MPI-2 defines to be
//!    errors: conflicting operations within one epoch, operations outside an
//!    epoch, double locking. This is what forces ARMCI-MPI into its
//!    one-op-per-exclusive-epoch design (§V-C) — and our tests assert both
//!    the detection and the design's compliance.

use crate::comm::Comm;
use crate::dtype::{blocks_extent, flatten_blocks, Datatype, DtypeCache, Flat};
use crate::error::{MpiError, MpiResult};
use crate::progress::ProgressModel;
use crate::runtime::Shared;
use crate::sync;
use ctree::Sweep;
use parking_lot::{Condvar, Mutex};
use simnet::pool::{BufferPool, RegistrationPolicy};
use std::cell::{Cell, RefCell, UnsafeCell};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Passive-target lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    Shared,
    Exclusive,
}

/// Element type for accumulate operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemType {
    U8,
    I32,
    I64,
    F32,
    F64,
}

impl ElemType {
    /// Width in bytes.
    pub fn size(self) -> usize {
        match self {
            ElemType::U8 => 1,
            ElemType::I32 | ElemType::F32 => 4,
            ElemType::I64 | ElemType::F64 => 8,
        }
    }
}

/// Accumulate combine operator (subset of MPI predefined ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccOp {
    Sum,
    Replace,
    Min,
    Max,
}

/// Operation class of a window data operation: what a transfer does, and
/// what a scheduler-merged run (see [`WinHandle::issue_merged`]) is
/// priced as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmaClass {
    Get,
    Put,
    Acc(ElemType, AccOp),
}

impl RmaClass {
    /// The cost model's operation class.
    pub(crate) fn op(self) -> simnet::Op {
        match self {
            RmaClass::Get => simnet::Op::Get,
            RmaClass::Put => simnet::Op::Put,
            RmaClass::Acc(..) => simnet::Op::Acc,
        }
    }

    /// Element width of an accumulate; `None` for put and get.
    pub(crate) fn elem(self) -> Option<usize> {
        match self {
            RmaClass::Acc(elem, _) => Some(elem.size()),
            RmaClass::Get | RmaClass::Put => None,
        }
    }

    /// MPI-2 compatibility of two operations on overlapping bytes in one
    /// epoch: gets are fine, accumulates with the same type and op are
    /// fine, all else conflicts.
    pub fn compatible(self, other: RmaClass) -> bool {
        match (self, other) {
            (RmaClass::Get, RmaClass::Get) => true,
            (RmaClass::Acc(t1, o1), RmaClass::Acc(t2, o2)) => t1 == t2 && o1 == o2,
            _ => false,
        }
    }
}

/// The origin side of one window data operation: the caller's buffer and
/// what the operation does with it.
#[derive(Debug)]
pub enum Origin<'a> {
    /// Bytes to write into the target.
    Put(&'a [u8]),
    /// Buffer the target's bytes land in.
    Get(&'a mut [u8]),
    /// Elements to combine into the target with `AccOp`.
    Acc(&'a [u8], ElemType, AccOp),
}

impl Origin<'_> {
    /// The operation's class.
    pub fn class(&self) -> RmaClass {
        match *self {
            Origin::Put(_) => RmaClass::Put,
            Origin::Get(_) => RmaClass::Get,
            Origin::Acc(_, elem, op) => RmaClass::Acc(elem, op),
        }
    }

    /// The same origin, reborrowed for one operation, so that one caller
    /// buffer serves several operations in turn.
    pub fn reborrow(&mut self) -> Origin<'_> {
        match self {
            Origin::Put(b) => Origin::Put(b),
            Origin::Get(b) => Origin::Get(b),
            Origin::Acc(b, elem, op) => Origin::Acc(b, *elem, *op),
        }
    }

    /// Length of the caller's buffer.
    pub(crate) fn len(&self) -> usize {
        match self {
            Origin::Put(b) | Origin::Acc(b, ..) => b.len(),
            Origin::Get(b) => b.len(),
        }
    }
}

/// One epoch-recorded target range, for conflict detection.
#[derive(Debug, Clone, Copy)]
struct OpRecord {
    lo: usize,
    hi: usize,
    kind: RmaClass,
}

struct Epoch {
    mode: LockMode,
    ops: Vec<OpRecord>,
    /// Operations issued so far in this epoch (always tracked, unlike
    /// `ops` which is only populated when semantic checks are on). Used by
    /// the cost model: operations after the first in an epoch pipeline and
    /// skip the per-message latency, which is what makes the *batched* IOV
    /// method profitable (§VI-A).
    issued: usize,
}

/// A reader–writer lock with writer preference whose guards are explicit
/// (MPI lock/unlock calls rather than lexical scopes).
pub(crate) struct TargetLock {
    m: Mutex<LockSt>,
    cv: Condvar,
}

#[derive(Default)]
struct LockSt {
    readers: usize,
    writer: bool,
    waiting_writers: usize,
}

impl TargetLock {
    fn new() -> TargetLock {
        TargetLock {
            m: Mutex::new(LockSt::default()),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn acquire(&self, mode: LockMode) {
        let mut st = self.m.lock();
        match mode {
            LockMode::Shared => {
                sync::wait_for(&self.m, &self.cv, st, |st| {
                    (!st.writer && st.waiting_writers == 0).then(|| st.readers += 1)
                });
            }
            LockMode::Exclusive => {
                // Counted before the first check and kept through the
                // unlocked spin rounds, so new shared requests queue
                // behind a spinning writer as well as a parked one.
                st.waiting_writers += 1;
                sync::wait_for(&self.m, &self.cv, st, |st| {
                    (!st.writer && st.readers == 0).then(|| {
                        st.waiting_writers -= 1;
                        st.writer = true;
                    })
                });
            }
        }
    }

    pub(crate) fn release(&self, mode: LockMode) {
        let mut st = self.m.lock();
        match mode {
            LockMode::Shared => {
                debug_assert!(st.readers > 0);
                st.readers -= 1;
            }
            LockMode::Exclusive => {
                debug_assert!(st.writer);
                st.writer = false;
            }
        }
        drop(st);
        self.cv.notify_all();
    }
}

/// One zero-initialised allocation of window memory: a rank's own under
/// `MPI_Win_create`, or a node's under `MPI_Win_allocate_shared`, where
/// every rank on the node gets a section of it, so intra-node peers see
/// each other's window memory at real addresses.
struct Slab {
    buf: UnsafeCell<Box<[u8]>>,
    /// Serialises byte movement on the whole slab, so that even
    /// *erroneous* concurrent accesses cannot race at the machine level.
    io: Mutex<()>,
}

// SAFETY: `io` is a `Mutex`, itself `Send` and `Sync`. `buf` owns plain
// bytes, which any thread may drop; it is dereferenced only in
// `Section::with` and `Section::with_mut`, each while holding `io`, so no
// two threads ever reach the bytes at once.
unsafe impl Sync for Slab {}
unsafe impl Send for Slab {}

impl Slab {
    fn new(size: usize) -> Slab {
        Slab {
            buf: UnsafeCell::new(vec![0u8; size].into_boxed_slice()),
            io: Mutex::new(()),
        }
    }
}

/// Section alignment inside a node slab (cache-line).
const SHM_ALIGN: usize = 64;

/// A view of one rank's window section: the slab and the section's
/// extent within it. All byte movement — RMA, atomics, staging, local
/// access, and the shm fast path — goes through [`Section::with`] /
/// [`Section::with_mut`], which take the slab's lock before
/// dereferencing.
pub(crate) struct Section<'a> {
    slab: &'a Slab,
    off: usize,
    len: usize,
}

impl Section<'_> {
    pub(crate) fn with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        let _io = self.slab.io.lock();
        // SAFETY: the guard on `io` is held, and `io` serialises every
        // access to this slab's bytes.
        let buf = unsafe { &**self.slab.buf.get() };
        f(&buf[self.off..self.off + self.len])
    }

    pub(crate) fn with_mut<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let _io = self.slab.io.lock();
        // SAFETY: as in `with`: no other reference to the bytes exists
        // while the guard on `io` is held.
        let buf = unsafe { &mut **self.slab.buf.get() };
        f(&mut buf[self.off..self.off + self.len])
    }
}

/// Shared window state.
pub(crate) struct WinInner {
    pub id: u64,
    pub sizes: Vec<usize>,
    slabs: Vec<Slab>,
    /// Per window rank: `(slab index, byte offset)` of its section.
    place: Vec<(usize, usize)>,
    /// Per window rank: its node (from [`simnet::Platform::node_of`] of
    /// its world rank) on a shared-backed window; `None` per rank.
    node: Option<Vec<usize>>,
    pub(crate) locks: Vec<TargetLock>,
    freed: AtomicBool,
}

impl WinInner {
    /// Wakes every origin parked on one of this window's target locks.
    pub(crate) fn wake(&self) {
        for lock in &self.locks {
            sync::wake(&lock.m, &lock.cv);
        }
    }

    /// The section view of `target`'s window slice.
    pub(crate) fn section(&self, target: usize) -> Section<'_> {
        let (slab, off) = self.place[target];
        Section {
            slab: &self.slabs[slab],
            off,
            len: self.sizes[target],
        }
    }
}

/// One rank's handle on a window. Not `Send`: epoch state is origin-local,
/// exactly like MPI's per-process epoch bookkeeping.
pub struct WinHandle {
    pub(crate) shared: Arc<Shared>,
    pub(crate) inner: Arc<WinInner>,
    pub(crate) comm: Comm,
    /// The open passive-target epoch per target rank, indexed by rank
    /// and sized at creation, so an operation reaches its epoch without
    /// hashing.
    epochs: RefCell<Box<[Option<Epoch>]>>,
    /// How many entries of `epochs` are open (`win_sync` needs one, and
    /// `free` none).
    open_epochs: Cell<usize>,
    /// Scratch pool for datatype pack/unpack staging. Policy is
    /// `Unregistered`: these copies are simulator-internal (they never
    /// cross the modelled NIC), so only the allocator churn is saved —
    /// the cost model is untouched.
    pool: BufferPool,
    /// Committed-datatype cache (§VI-B): repeated non-contiguous shapes
    /// skip the pack-descriptor build cost. Origin-local, like MPI's
    /// committed handles.
    dtype_cache: RefCell<DtypeCache>,
    /// Flattening scratch: each transfer flattens its datatypes into these
    /// buffers once (see [`Flat`]), so steady-state transfers allocate
    /// nothing for their segment lists.
    flat: RefCell<Flat>,
    /// A drained epoch record list kept for the next `lock`, so recording
    /// an epoch's accesses reuses one allocation.
    spare_records: RefCell<Vec<OpRecord>>,
    /// The conflict check's overlap scan, kept across operations.
    sweep: RefCell<Sweep>,
    pub(crate) lock_all_active: Cell<bool>,
    /// How remote passive-target completion is priced on this handle
    /// (see [`crate::progress`]). Origin-local, like the epoch state.
    progress: Cell<ProgressModel>,
}

impl WinHandle {
    /// Collectively creates a window; this rank contributes `local_size`
    /// bytes (zero-initialised). Zero-size contributions are allowed.
    pub fn create(comm: &Comm, local_size: usize) -> WinHandle {
        Self::open(comm, local_size, false)
    }

    /// Collectively creates a **shared-memory** window
    /// (`MPI_Win_allocate_shared`): ranks on the same node carve sections
    /// out of one per-node slab, so intra-node peers can reach each
    /// other's window memory with plain loads and stores
    /// ([`WinHandle::shared_query`]) instead of RMA. Inter-node pairs fall
    /// back to the ordinary RMA path on the same window.
    ///
    /// The rank → node mapping comes from the platform's single
    /// authoritative [`simnet::Platform::node_of`]; the layout (slab order,
    /// section offsets, 64-byte alignment) is computed identically on
    /// every rank from the allgathered sizes, so the collective needs no
    /// extra exchange beyond `create`'s.
    pub fn allocate_shared(comm: &Comm, local_size: usize) -> WinHandle {
        Self::open(comm, local_size, true)
    }

    /// The body of [`WinHandle::create`] (`shared` false: one exact-size
    /// slab per rank) and [`WinHandle::allocate_shared`] (one slab per
    /// node, sections cache-line aligned).
    fn open(comm: &Comm, local_size: usize, shared: bool) -> WinHandle {
        // Leader allocates the id (recycled from freed windows when
        // available, so alloc/free cycles keep the id space bounded).
        let id = if comm.rank() == 0 {
            Some(comm.shared.alloc_win_id())
        } else {
            None
        };
        let id = comm.bcast_u64(0, id);
        let sizes: Vec<usize> = comm
            .allgather_u64(local_size as u64)
            .into_iter()
            .map(|s| s as usize)
            .collect();
        let plat = comm.platform();
        let node = shared.then(|| {
            (0..comm.size())
                .map(|r| plat.node_of(comm.world_rank_of(r)))
                .collect::<Vec<usize>>()
        });
        let align = if shared { SHM_ALIGN } else { 1 };
        // Deterministic carve: a slab per node (per rank when not shared)
        // in first-appearance order, sections appended in window-rank
        // order.
        let mut slab_sizes: Vec<(usize, usize)> = Vec::new(); // (key, bytes)
        let mut place = Vec::with_capacity(sizes.len());
        for (r, &sz) in sizes.iter().enumerate() {
            let key = node.as_ref().map_or(r, |n| n[r]);
            let si = match slab_sizes.iter().position(|&(k, _)| k == key) {
                Some(i) => i,
                None => {
                    slab_sizes.push((key, 0));
                    slab_sizes.len() - 1
                }
            };
            place.push((si, slab_sizes[si].1));
            slab_sizes[si].1 += sz.next_multiple_of(align);
        }
        let inner = {
            let mut wins = comm.shared.wins.write();
            Arc::clone(wins.entry(id).or_insert_with(|| {
                Arc::new(WinInner {
                    id,
                    slabs: slab_sizes.iter().map(|&(_, b)| Slab::new(b)).collect(),
                    place,
                    node,
                    locks: sizes.iter().map(|_| TargetLock::new()).collect(),
                    sizes,
                    freed: AtomicBool::new(false),
                })
            }))
        };
        Self::from_inner(comm, inner)
    }

    fn from_inner(comm: &Comm, inner: Arc<WinInner>) -> WinHandle {
        WinHandle {
            shared: Arc::clone(&comm.shared),
            epochs: RefCell::new(inner.sizes.iter().map(|_| None).collect()),
            inner,
            comm: comm.clone(),
            open_epochs: Cell::new(0),
            pool: BufferPool::new(
                RegistrationPolicy::Unregistered,
                comm.platform().reg.clone(),
            ),
            dtype_cache: RefCell::new(DtypeCache::new(64)),
            flat: RefCell::new(Flat::default()),
            sweep: RefCell::default(),
            spare_records: RefCell::new(Vec::new()),
            lock_all_active: Cell::new(false),
            progress: Cell::new(ProgressModel::Off),
        }
    }

    /// The communicator the window was created on.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// Window id (diagnostic).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Size in bytes of `rank`'s window slice.
    pub fn size_of(&self, rank: usize) -> usize {
        self.inner.sizes[rank]
    }

    fn check_alive(&self) -> MpiResult<()> {
        if self.inner.freed.load(Ordering::Acquire) {
            Err(MpiError::WinFreed)
        } else {
            Ok(())
        }
    }

    pub(crate) fn params(&self) -> &simnet::BackendParams {
        &self.shared.cfg.platform.mpi
    }

    /// RAMC-style channel parameters of the configured platform, for wire
    /// backends that price transfers themselves (doorbell + completion
    /// queue instead of MPI epochs).
    pub fn channel_params(&self) -> &simnet::ChannelParams {
        &self.shared.cfg.platform.channel
    }

    /// Whether a window-wide `lock_all` epoch is currently open from this
    /// rank. Transport backends use this to decide whether a byte-protocol
    /// access needs its own lock or is already covered.
    pub fn lock_all_is_active(&self) -> bool {
        self.lock_all_active.get()
    }

    /// This rank's current virtual time (trace-event stamps for backends
    /// that emit their own events).
    pub fn vnow(&self) -> f64 {
        self.comm.clock_now()
    }

    /// Advances this rank's virtual clock by `dt` (honouring
    /// `charge_time`). For transport backends that compute their own
    /// costs instead of going through the MPI-priced entry points.
    pub fn charge_virtual(&self, dt: f64) {
        self.comm.charge_time(dt);
    }

    /// Wire serialization time of `bytes` under the MPI link for `op` —
    /// the NIC occupancy a transfer holds regardless of which backend
    /// priced it.
    pub(crate) fn wire_ser(&self, op: simnet::Op, bytes: usize) -> f64 {
        let link = self.params().link(op);
        bytes as f64 / link.effective_peak(bytes)
    }

    /// Extra virtual-time delay the shared-NIC congestion model imposes on
    /// a transfer of `ser` seconds wire occupancy in `msgs` messages to
    /// `target` (a rank of this window's communicator). Zero when the
    /// congestion model is off or the peer is node-local.
    pub fn net_extra(&self, target: usize, ser: f64, msgs: u64) -> f64 {
        let Some(net) = &self.shared.net else {
            return 0.0;
        };
        let plat = &self.shared.cfg.platform;
        let src = plat.node_of(self.comm.my_world_rank());
        let dst = plat.node_of(self.comm.world_rank_of(target));
        let extra = net.admit(self.vnow(), src, dst, ser, msgs);
        if extra > 0.0 && obs::enabled() {
            let t0 = self.vnow();
            obs::span(
                obs::EventKind::Wait {
                    cat: obs::WaitCat::Congestion,
                    src: self.comm.world_rank_of(target) as u32,
                    obj: self.inner.id,
                },
                t0,
                t0 + extra,
            );
        }
        extra
    }

    /// Selects how remote passive-target completion is priced on this
    /// handle (see [`crate::progress`]). Layers above resolve their
    /// configured [`ProgressModel`] once per window; raw windows default
    /// to [`ProgressModel::Off`] (idealised instantaneous progress).
    pub fn set_progress_model(&self, model: ProgressModel) {
        self.progress.set(model);
    }

    /// The progress model active on this handle.
    pub fn progress_model(&self) -> ProgressModel {
        self.progress.get()
    }

    /// Extra virtual-time delay `rounds` target-serviced protocol rounds
    /// (lock grant, operation completion, unlock/flush acknowledgement,
    /// RMW) pay for the *target's* progress, under this handle's
    /// [`ProgressModel`]. Zero for self- and same-node targets (the shm
    /// tier and a co-located agent give effectively hardware progress),
    /// and zero until the progress board has a published profile for the
    /// pair. Under `Host` the expected stall is emitted as a
    /// `Wait{Progress}` span; under `Agent` the (much smaller) agent
    /// service time is emitted as an `AgentDrain` span carrying the stall
    /// it avoided.
    pub fn progress_extra(&self, target: usize, rounds: u32) -> f64 {
        let model = self.progress.get();
        if model == ProgressModel::Off || rounds == 0 {
            return 0.0;
        }
        let me = self.comm.my_world_rank();
        let tw = self.comm.world_rank_of(target);
        let plat = &self.shared.cfg.platform;
        if tw == me || plat.same_node(me, tw) {
            return 0.0;
        }
        let Some((busy, span)) = self.shared.progress.expected_busy(me, tw) else {
            return 0.0;
        };
        if busy <= 0.0 {
            return 0.0;
        }
        let stall = rounds as f64 * busy * 0.5 * span;
        match model {
            ProgressModel::Host => {
                if stall > 0.0 && obs::enabled() {
                    let t0 = self.vnow();
                    obs::span(
                        obs::EventKind::Wait {
                            cat: obs::WaitCat::Progress,
                            src: tw as u32,
                            obj: self.inner.id,
                        },
                        t0,
                        t0 + stall,
                    );
                }
                stall
            }
            ProgressModel::Agent => {
                let rpn = plat.cores_per_node().max(1) as usize;
                let extra = rounds as f64 * busy * plat.progress.round_cost(rpn);
                if obs::enabled() {
                    let t0 = self.vnow();
                    obs::span(
                        obs::EventKind::AgentDrain {
                            win: self.inner.id,
                            target: tw as u32,
                            ops: rounds,
                            avoided_s: (stall - extra).max(0.0),
                        },
                        t0,
                        t0 + extra,
                    );
                }
                extra
            }
            ProgressModel::Off => unreachable!(),
        }
    }

    // ------------------------------------------------------------------
    // Epochs
    // ------------------------------------------------------------------

    /// Begins a passive-target access epoch on `target`.
    pub fn lock(&self, mode: LockMode, target: usize) -> MpiResult<()> {
        self.check_alive()?;
        if target >= self.inner.sizes.len() {
            return Err(MpiError::BadRank {
                rank: target,
                size: self.inner.sizes.len(),
            });
        }
        if self.lock_all_active.get() {
            return Err(MpiError::EpochModeMixed { target });
        }
        if self.epochs.borrow()[target].is_some() {
            return Err(MpiError::AlreadyLocked { target });
        }
        self.inner.locks[target].acquire(mode);
        self.epochs.borrow_mut()[target] = Some(Epoch {
            mode,
            ops: self.spare_records.take(),
            issued: 0,
        });
        self.open_epochs.set(self.open_epochs.get() + 1);
        // The lock grant is a target-serviced protocol round.
        let prog = self.progress_extra(target, 1);
        self.charge_virtual(0.5 * self.params().epoch_overhead + prog);
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::LockAcquire {
                    win: self.inner.id,
                    target: target as u32,
                    exclusive: mode == LockMode::Exclusive,
                },
                self.vnow(),
            );
        }
        Ok(())
    }

    /// Ends the epoch on `target`, completing all its operations.
    pub fn unlock(&self, target: usize) -> MpiResult<()> {
        self.check_alive()?;
        let ep = self
            .epochs
            .borrow_mut()
            .get_mut(target)
            .and_then(Option::take)
            .ok_or(MpiError::NotLocked { target })?;
        self.open_epochs.set(self.open_epochs.get() - 1);
        self.inner.locks[target].release(ep.mode);
        let mut records = ep.ops;
        records.clear();
        *self.spare_records.borrow_mut() = records;
        // Unlock completes the epoch remotely: one more serviced round.
        let prog = self.progress_extra(target, 1);
        self.charge_virtual(0.5 * self.params().epoch_overhead + prog);
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::LockRelease {
                    win: self.inner.id,
                    target: target as u32,
                },
                self.vnow(),
            );
        }
        Ok(())
    }

    /// Is an epoch currently open on `target`?
    pub(crate) fn is_locked(&self, target: usize) -> bool {
        self.lock_mode(target).is_some() || self.lock_all_active.get()
    }

    /// Mode of the open epoch on `target`, if any.
    pub fn lock_mode(&self, target: usize) -> Option<LockMode> {
        self.epochs.borrow().get(target)?.as_ref().map(|e| e.mode)
    }

    /// Size of `target`'s window section, or `BadRank`.
    pub(crate) fn target_size(&self, target: usize) -> MpiResult<usize> {
        self.inner
            .sizes
            .get(target)
            .copied()
            .ok_or(MpiError::BadRank {
                rank: target,
                size: self.inner.sizes.len(),
            })
    }

    /// Validates epoch presence and (optionally) records + conflict-checks
    /// the operation's window-absolute target segments `segs`, which lie
    /// within `extent` bytes from `tdisp`.
    fn admit(
        &self,
        target: usize,
        tdisp: usize,
        extent: usize,
        segs: &[(usize, usize)],
        class: RmaClass,
    ) -> MpiResult<()> {
        let size = self.target_size(target)?;
        if tdisp.checked_add(extent).is_none_or(|end| end > size) {
            return Err(MpiError::OutOfBounds {
                target,
                disp: tdisp,
                len: extent,
                size,
            });
        }
        let mut epochs = self.epochs.borrow_mut();
        let ep = match &mut epochs[target] {
            Some(e) => e,
            // MPI-3 lock_all: conflicts undefined, not erroneous.
            None if self.lock_all_active.get() => return Ok(()),
            None => return Err(MpiError::NoEpoch { target }),
        };
        if self.shared.cfg.semantic_checks {
            let sweep = &mut self.sweep.borrow_mut();
            record_checked(sweep, &mut ep.ops, target, 0, segs, class)?;
        }
        Ok(())
    }

    /// Virtual-time price of one RMA operation.
    ///
    /// `issued_before` is the number of operations already issued in the
    /// same epoch: follow-on operations pipeline behind the first and skip
    /// the per-message latency, and — when the platform models the
    /// MVAPICH2 batched-operation bug — accrue growing queueing overhead
    /// instead (Figure 4b). `cached` means the committed-datatype cache
    /// held this shape's pack descriptor, waiving the one-time
    /// `dtype_setup` (per-segment walk and pack copies are still paid).
    fn op_cost(
        &self,
        op: simnet::Op,
        bytes: usize,
        nsegs: usize,
        issued_before: usize,
        cached: bool,
    ) -> f64 {
        let p = self.params();
        let link = p.link(op);
        let mut op_over = p.op_overhead;
        if issued_before > 0 {
            if let Some(scale) = p.batched_bug {
                op_over *= 1.0 + issued_before as f64 / scale;
            }
        }
        let mut t = op_over + bytes as f64 / link.effective_peak(bytes) + p.seg_overhead;
        if issued_before == 0 {
            t += link.alpha;
        }
        if nsegs > 1 {
            if !cached {
                t += p.dtype_setup;
            }
            t += nsegs as f64 * p.dtype_seg_overhead + 2.0 * bytes as f64 / p.pack_rate;
        }
        if op == simnet::Op::Acc {
            t += p.combine_cost(bytes);
        }
        t
    }

    /// Records a committed-datatype cache consultation as a `DtypeCommit`
    /// instant and passes its outcome through.
    fn note_dtype_commit(&self, hit: bool) -> bool {
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::DtypeCommit {
                    win: self.inner.id,
                    hit,
                },
                self.vnow(),
            );
        }
        hit
    }

    /// `(hits, misses, evictions)` of this handle's datatype cache.
    pub fn dtype_cache_stats(&self) -> (u64, u64, u64) {
        let c = self.dtype_cache.borrow();
        (c.hits, c.misses, c.evictions)
    }

    /// Records an MPI-level RMA event — plus a pack span when the datatype
    /// is non-contiguous, sized by the same pack model `op_cost` charges —
    /// at the current virtual time.
    fn note_rma(&self, op: simnet::Op, target: usize, bytes: usize, nsegs: usize, cached: bool) {
        if !obs::enabled() {
            return;
        }
        let kind = match op {
            simnet::Op::Get => obs::OpKind::Get,
            simnet::Op::Put => obs::OpKind::Put,
            simnet::Op::Acc => obs::OpKind::Acc,
        };
        let ts = self.vnow();
        obs::instant_at(
            obs::EventKind::Rma {
                win: self.inner.id,
                target: target as u32,
                kind,
                bytes: bytes as u64,
            },
            ts,
        );
        if nsegs > 1 {
            let p = self.params();
            let setup = if cached { 0.0 } else { p.dtype_setup };
            let pack =
                setup + nsegs as f64 * p.dtype_seg_overhead + 2.0 * bytes as f64 / p.pack_rate;
            obs::span(
                obs::EventKind::Pack {
                    win: self.inner.id,
                    bytes: bytes as u64,
                },
                ts,
                ts + pack,
            );
        }
    }

    /// Bumps and returns the prior per-epoch issue counter for `target`.
    fn bump_issued(&self, target: usize) -> usize {
        match &mut self.epochs.borrow_mut()[target] {
            Some(ep) => {
                let n = ep.issued;
                ep.issued += 1;
                n
            }
            // lock_all: treat every op as a fresh issue (no pipelining
            // credit; the MPI-3 backend charges flushes separately).
            None => 0,
        }
    }

    // ------------------------------------------------------------------
    // Data movement
    // ------------------------------------------------------------------
    //
    // Every window data operation has one shape. [`Flat::flatten`]
    // validates and flattens its datatype pair once; routes with epochs
    // then admit the target segments; the one mover, [`WinHandle::stage`],
    // moves the bytes; and the route prices the operation. The wire route
    // prices through `price_wire` (typed operations and scheduler-merged
    // runs), the shm route through its tier (`shm_transfer`), and the
    // channel backend through its channel model. The coalescing scheduler
    // stages at enqueue and prices at flush (`issue_merged`), so queued
    // operations hold no raw caller pointer: the caller's buffers are
    // consumed before enqueue returns.

    /// The one mover: moves a flattened operation's bytes between `origin`
    /// and `target`'s window section. Every piece is bounds-checked before
    /// any byte moves; then all of them copy (put, get) or combine
    /// (accumulate, element-atomic) under one I/O lock. An accumulate's
    /// origin selection is packed into pooled scratch first (steady state:
    /// no allocation), since its origin segments need not be
    /// element-aligned. Uncharged, eventless and epoch-free: callers admit
    /// and price separately. `flat` must come from [`Flat::flatten`] of the
    /// same origin.
    pub fn stage(&self, origin: Origin<'_>, target: usize, flat: &Flat) -> MpiResult<()> {
        self.check_alive()?;
        let size = self.target_size(target)?;
        for &(_, disp, len) in &flat.pieces {
            if disp.checked_add(len).is_none_or(|end| end > size) {
                return Err(MpiError::OutOfBounds {
                    target,
                    disp,
                    len,
                    size,
                });
            }
        }
        let packed = match &origin {
            Origin::Acc(b, ..) => {
                let mut packed = self.pool.take(flat.osegs.iter().map(|&(_, len)| len).sum());
                let mut w = 0usize;
                for &(off, len) in &flat.osegs {
                    packed[w..w + len].copy_from_slice(&b[off..off + len]);
                    w += len;
                }
                Some(packed)
            }
            Origin::Put(_) | Origin::Get(_) => None,
        };
        self.inner.section(target).with_mut(|win| match origin {
            Origin::Put(b) => {
                for &(o, t, len) in &flat.pieces {
                    win[t..t + len].copy_from_slice(&b[o..o + len]);
                }
            }
            Origin::Get(b) => {
                for &(o, t, len) in &flat.pieces {
                    b[o..o + len].copy_from_slice(&win[t..t + len]);
                }
            }
            Origin::Acc(_, elem, op) => {
                let src = packed.as_deref().unwrap_or_default();
                let mut s = 0usize;
                for &(t, len) in &flat.tsegs {
                    apply_acc(&mut win[t..t + len], &src[s..s + len], elem, op);
                    s += len;
                }
            }
        });
        Ok(())
    }

    /// Flattens, admits and moves one typed operation (wire and shm
    /// routes), through the handle's flattening scratch.
    fn flat_move(
        &self,
        origin: Origin<'_>,
        odt: &Datatype,
        target: usize,
        tdisp: usize,
        tdt: &Datatype,
    ) -> MpiResult<()> {
        let mut flat = self.flat.borrow_mut();
        flat.flatten(&origin, odt, tdisp, tdt)?;
        self.admit(target, tdisp, tdt.extent(), &flat.tsegs, origin.class())?;
        self.stage(origin, target, &flat)
    }

    /// Blocking one-sided operation on the wire route, inside an open
    /// epoch: `origin` selected by `odt`, `target`'s window by `tdt` at
    /// `tdisp`. An accumulate is element-atomic at the target, and every
    /// target segment must be element-aligned. Charged at the wire price.
    pub fn transfer(
        &self,
        origin: Origin<'_>,
        odt: &Datatype,
        target: usize,
        tdisp: usize,
        tdt: &Datatype,
    ) -> MpiResult<()> {
        self.check_alive()?;
        let op = origin.class().op();
        self.flat_move(origin, odt, target, tdisp, tdt)?;
        let nsegs = odt.num_segments().max(tdt.num_segments());
        let commit = |c: &mut DtypeCache| c.commit_pair(odt, tdt);
        self.charge_virtual(self.price_wire(op, target, odt.size(), nsegs, commit));
        Ok(())
    }

    /// One-sided put: origin bytes (selected by `odt` within `origin`) are
    /// written into `target`'s window (selected by `tdt` at `tdisp`).
    pub fn put(
        &self,
        origin: &[u8],
        odt: &Datatype,
        target: usize,
        tdisp: usize,
        tdt: &Datatype,
    ) -> MpiResult<()> {
        self.transfer(Origin::Put(origin), odt, target, tdisp, tdt)
    }

    /// One-sided get: bytes from `target`'s window into `origin`.
    pub fn get(
        &self,
        origin: &mut [u8],
        odt: &Datatype,
        target: usize,
        tdisp: usize,
        tdt: &Datatype,
    ) -> MpiResult<()> {
        self.transfer(Origin::Get(origin), odt, target, tdisp, tdt)
    }

    /// One-sided accumulate: `target[i] = target[i] ⊕ origin[i]` element
    /// wise for the given element type. Every target segment must be
    /// element-aligned.
    #[allow(clippy::too_many_arguments)] // mirrors MPI_Accumulate's signature
    pub fn accumulate(
        &self,
        origin: &[u8],
        odt: &Datatype,
        target: usize,
        tdisp: usize,
        tdt: &Datatype,
        elem: ElemType,
        op: AccOp,
    ) -> MpiResult<()> {
        self.transfer(Origin::Acc(origin, elem, op), odt, target, tdisp, tdt)
    }

    /// The wire price of one operation whose bytes moved: epoch
    /// accounting, the committed-datatype cache consultation (`commit`,
    /// only for multi-segment shapes), the RMA event, congestion and
    /// progress. Returns the virtual-time cost for the caller to charge or
    /// defer.
    fn price_wire(
        &self,
        op: simnet::Op,
        target: usize,
        bytes: usize,
        nsegs: usize,
        commit: impl FnOnce(&mut DtypeCache) -> bool,
    ) -> f64 {
        let issued = self.bump_issued(target);
        let cached =
            nsegs > 1 && self.note_dtype_commit(commit(&mut self.dtype_cache.borrow_mut()));
        self.note_rma(op, target, bytes, nsegs, cached);
        let extra = self.net_extra(target, self.wire_ser(op, bytes), 1);
        let prog = self.progress_extra(target, 1);
        self.op_cost(op, bytes, nsegs, issued, cached) + extra + prog
    }

    /// Prices and records one scheduler-merged RMA: a whole run of
    /// same-class queued operations issued as a single wire operation
    /// whose target datatype is the merged segment list (window-absolute
    /// `(offset, len)` pairs, disjoint and ascending — the scheduler's
    /// run formation guarantees this before calling). Bytes have already
    /// moved through [`WinHandle::stage`]; this admits the run into the
    /// epoch and returns its wire price (see `price_wire`). `segs` is
    /// priced exactly like an indexed target type with those blocks,
    /// without building one.
    pub fn issue_merged(
        &self,
        class: RmaClass,
        target: usize,
        segs: &[(usize, usize)],
    ) -> MpiResult<f64> {
        self.check_alive()?;
        {
            let mut flat = self.flat.borrow_mut();
            flat.tsegs.clear();
            flatten_blocks(segs, &mut flat.tsegs);
            self.admit(target, 0, blocks_extent(segs), &flat.tsegs, class)?;
        }
        let bytes: usize = segs.iter().map(|&(_, len)| len).sum();
        let nsegs = segs.iter().filter(|&&(_, len)| len > 0).count();
        let commit = |c: &mut DtypeCache| c.commit_merged(bytes, segs);
        Ok(self.price_wire(class.op(), target, bytes, nsegs, commit))
    }

    /// Contiguous-put convenience.
    pub fn put_bytes(&self, origin: &[u8], target: usize, tdisp: usize) -> MpiResult<()> {
        let dt = Datatype::contiguous(origin.len());
        self.put(origin, &dt, target, tdisp, &dt)
    }

    /// Contiguous-get convenience.
    pub fn get_bytes(&self, origin: &mut [u8], target: usize, tdisp: usize) -> MpiResult<()> {
        let dt = Datatype::contiguous(origin.len());
        self.get(origin, &dt, target, tdisp, &dt)
    }

    // ------------------------------------------------------------------
    // Shared-memory fast path
    // ------------------------------------------------------------------
    //
    // Windows created with `allocate_shared` expose intra-node peers'
    // sections directly: `shared_query` returns a load/store handle, and
    // `shm_transfer` runs whole RMA-shaped operations as node-local copies
    // priced by the platform's `ShmParams` tier instead of the NIC model.
    // Epoch discipline is unchanged — the same `admit` as the wire route —
    // but there is no per-message wire latency, no pipelining credit, and
    // no datatype pack cost: a non-contiguous shape is just more `memcpy`
    // segments.

    /// Intra-node shared-slab parameters of the configured platform.
    fn shm_params(&self) -> &simnet::ShmParams {
        &self.shared.cfg.platform.shm
    }

    /// Can `target` be reached through a node-local slab (shared-backed
    /// window *and* same node as the caller)? This is the route predicate
    /// the transfer engine consults at plan time.
    pub fn shm_reachable(&self, target: usize) -> bool {
        self.inner
            .node
            .as_ref()
            .is_some_and(|node| target < node.len() && node[target] == node[self.comm.rank()])
    }

    /// `MPI_Win_shared_query`: a load/store handle on `rank`'s section of
    /// the node slab. Errors with [`MpiError::ShmUnavailable`] when the
    /// window is not shared-backed or `rank` lives on another node.
    pub fn shared_query(&self, rank: usize) -> MpiResult<ShmSection> {
        self.check_alive()?;
        if rank >= self.inner.sizes.len() {
            return Err(MpiError::BadRank {
                rank,
                size: self.inner.sizes.len(),
            });
        }
        if !self.shm_reachable(rank) {
            return Err(MpiError::ShmUnavailable { target: rank });
        }
        Ok(ShmSection {
            inner: Arc::clone(&self.inner),
            rank,
        })
    }

    /// `MPI_Win_sync`: synchronises the private and public window copies
    /// under the separate-memory model. Load/store access to a peer's
    /// section is only well-defined between a `win_sync` and the close of
    /// the surrounding epoch — the epoch auditor enforces exactly this.
    /// Requires an open epoch (lock or lock_all) on the handle.
    pub fn win_sync(&self) -> MpiResult<()> {
        self.check_alive()?;
        if self.open_epochs.get() == 0 && !self.lock_all_active.get() {
            return Err(MpiError::NoEpoch { target: usize::MAX });
        }
        std::sync::atomic::fence(Ordering::SeqCst);
        let t0 = self.vnow();
        self.charge_virtual(self.shm_params().win_sync);
        if obs::enabled() {
            let t1 = self.vnow();
            obs::batch(|b| {
                b.instant_at(obs::EventKind::WinSync { win: self.inner.id }, t1);
                b.span(
                    obs::EventKind::Wait {
                        cat: obs::WaitCat::WinSync,
                        src: self.comm.my_world_rank() as u32,
                        obj: self.inner.id,
                    },
                    t0,
                    t1,
                );
            });
        }
        Ok(())
    }

    /// One operation on the shm route, inside an open epoch: the same
    /// validation, admission and mover as [`WinHandle::transfer`], but
    /// `target` must be a node peer and the returned (uncharged) cost
    /// comes from the platform's shm tier.
    pub fn shm_transfer(
        &self,
        origin: Origin<'_>,
        odt: &Datatype,
        target: usize,
        tdisp: usize,
        tdt: &Datatype,
    ) -> MpiResult<f64> {
        self.check_alive()?;
        if !self.shm_reachable(target) {
            return Err(MpiError::ShmUnavailable { target });
        }
        let class = origin.class();
        self.flat_move(origin, odt, target, tdisp, tdt)?;
        let nsegs = odt.num_segments().max(tdt.num_segments());
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::ShmAccess {
                    win: self.inner.id,
                    target: target as u32,
                    write: class != RmaClass::Get,
                    bytes: odt.size() as u64,
                },
                self.vnow(),
            );
        }
        Ok(self.shm_params().op_cost(class.op(), odt.size(), nsegs))
    }

    // ------------------------------------------------------------------
    // Local access
    // ------------------------------------------------------------------

    /// Read access to this rank's own window slice. Requires an open epoch
    /// on self (shared suffices), per the paper's DLA rules (§V-E).
    pub fn with_local<R>(&self, f: impl FnOnce(&[u8]) -> R) -> MpiResult<R> {
        self.check_alive()?;
        let me = self.comm.rank();
        if !self.is_locked(me) {
            return Err(MpiError::NoEpoch { target: me });
        }
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::LocalAccess {
                    win: self.inner.id,
                    write: false,
                },
                self.vnow(),
            );
        }
        Ok(self.inner.section(me).with(f))
    }

    /// Mutable access to this rank's own window slice. Requires an
    /// *exclusive* epoch on self (§V-E: "direct local access should be
    /// performed only while the window is locked for exclusive access") —
    /// or, under MPI-3 `lock_all`, the unified-memory-model rules apply:
    /// access is granted and serialised against remote operations by the
    /// slab's I/O lock (the `MPI_Win_sync` discipline).
    pub fn with_local_mut<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> MpiResult<R> {
        self.check_alive()?;
        let me = self.comm.rank();
        match self.lock_mode(me) {
            Some(LockMode::Exclusive) => {}
            _ if self.lock_all_active.get() => {}
            _ => return Err(MpiError::NoEpoch { target: me }),
        }
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::LocalAccess {
                    win: self.inner.id,
                    write: true,
                },
                self.vnow(),
            );
        }
        Ok(self.inner.section(me).with_mut(f))
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Collectively frees the window. All epochs must be closed.
    pub fn free(self) -> MpiResult<()> {
        self.check_alive()?;
        assert!(
            self.open_epochs.get() == 0 && !self.lock_all_active.get(),
            "window freed with open epochs"
        );
        // Every rank calls free; the first one to get here removes the
        // registry entry and recycles the id. Later ranks must compare
        // the stored `Arc` — the id may already name a *new* window
        // created from the free list (the registry is only consulted at
        // create time, so in-flight peers are unaffected). Recycling
        // before the barrier guarantees the slot is visible to the next
        // collective create on this communicator.
        {
            let mut wins = self.shared.wins.write();
            if let Some(cur) = wins.get(&self.inner.id) {
                if Arc::ptr_eq(cur, &self.inner) {
                    wins.remove(&self.inner.id);
                    self.shared.recycle_win_id(self.inner.id);
                }
            }
        }
        self.comm.barrier();
        self.inner.freed.store(true, Ordering::Release);
        Ok(())
    }
}

/// Load/store handle on a same-node peer's window section, returned by
/// [`WinHandle::shared_query`]. Models the base pointer
/// `MPI_Win_shared_query` hands back: accesses are plain memory operations
/// on the node slab (serialised by the slab's I/O lock so the simulator
/// stays race-free even for programs that skip `win_sync`).
///
/// The handle keeps the window's backing alive, but honours `free`: any
/// access after the window was collectively freed returns
/// [`MpiError::WinFreed`] instead of touching a stale section — teardown
/// never turns into a wild pointer dereference.
pub struct ShmSection {
    inner: Arc<WinInner>,
    rank: usize,
}

impl std::fmt::Debug for ShmSection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmSection")
            .field("win", &self.inner.id)
            .field("rank", &self.rank)
            .field("len", &self.len())
            .finish()
    }
}

impl ShmSection {
    /// The window rank whose section this is.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Section length in bytes.
    pub fn len(&self) -> usize {
        self.inner.sizes[self.rank]
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn check(&self, disp: usize, len: usize) -> MpiResult<()> {
        if self.inner.freed.load(Ordering::Acquire) {
            return Err(MpiError::WinFreed);
        }
        let size = self.inner.sizes[self.rank];
        if disp.checked_add(len).is_none_or(|end| end > size) {
            return Err(MpiError::OutOfBounds {
                target: self.rank,
                disp,
                len,
                size,
            });
        }
        Ok(())
    }

    /// Load `dst.len()` bytes from offset `disp` of the section.
    pub fn load(&self, disp: usize, dst: &mut [u8]) -> MpiResult<()> {
        self.check(disp, dst.len())?;
        self.inner
            .section(self.rank)
            .with(|src| dst.copy_from_slice(&src[disp..disp + dst.len()]));
        if obs::enabled() {
            obs::instant(obs::EventKind::ShmAccess {
                win: self.inner.id,
                target: self.rank as u32,
                write: false,
                bytes: dst.len() as u64,
            });
        }
        Ok(())
    }

    /// Store `src` at offset `disp` of the section.
    pub fn store(&self, disp: usize, src: &[u8]) -> MpiResult<()> {
        self.check(disp, src.len())?;
        self.inner
            .section(self.rank)
            .with_mut(|dst| dst[disp..disp + src.len()].copy_from_slice(src));
        if obs::enabled() {
            obs::instant(obs::EventKind::ShmAccess {
                win: self.inner.id,
                target: self.rank as u32,
                write: true,
                bytes: src.len() as u64,
            });
        }
        Ok(())
    }
}

/// Conflict-checks one operation's target segments (relative to `tdisp`)
/// against an epoch's records and appends them. The outcome is exactly
/// the all-pairs reference scan's (`record_naive`): the same Ok/Err, the
/// same reported pair, the same records left behind on error. An empty
/// record list, a lone segment and kinds compatible with every record and
/// with themselves need no scan.
fn record_checked(
    sweep: &mut Sweep,
    records: &mut Vec<OpRecord>,
    target: usize,
    tdisp: usize,
    segs: &[(usize, usize)],
    kind: RmaClass,
) -> MpiResult<()> {
    let new = segs.iter().map(|&(off, len)| OpRecord {
        lo: tdisp + off,
        hi: tdisp + off + len,
        kind,
    });
    let own = !kind.compatible(kind) && segs.len() > 1;
    let err = if own || records.iter().any(|r| !kind.compatible(r.kind)) {
        first_conflict(sweep, records, new.clone(), kind, own)
    } else {
        None
    };
    let keep = err.map_or(segs.len(), |(j, _)| j);
    records.extend(new.take(keep));
    match err {
        Some((j, r)) => Err(MpiError::ConflictingAccess {
            target,
            first: (r.lo, r.hi - r.lo),
            second: (tdisp + segs[j].0, segs[j].1),
        }),
        None => Ok(()),
    }
}

/// The conflict the all-pairs scan meets first, as `(j, record)`: new
/// record `j` (of `kind`) against the epoch's `records`, then, when
/// `own` (the kind conflicts with itself), against the earlier new ones.
/// One [`Sweep`] over the incompatible records (tag 0) and the new ones
/// (tag 1) decides in O(N·log N) whether any conflict exists; only then
/// (an error) is the first one looked up, in the all-pairs order.
fn first_conflict(
    sweep: &mut Sweep,
    records: &[OpRecord],
    new: impl Iterator<Item = OpRecord> + Clone,
    kind: RmaClass,
    own: bool,
) -> Option<(usize, OpRecord)> {
    sweep.clear();
    for r in records.iter().filter(|r| !kind.compatible(r.kind)) {
        sweep.push(r.lo, r.hi, 0);
    }
    for n in new.clone() {
        sweep.push(n.lo, n.hi, 1);
    }
    let found = sweep.overlaps(|a, b| {
        if b == 1 && (a == 0 || own) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    if found.is_continue() {
        return None;
    }
    new.clone().enumerate().find_map(|(j, n)| {
        let mut earlier = records.iter().copied().chain(new.clone().take(j));
        earlier
            .find(|r| n.lo < r.hi && r.lo < n.hi && !kind.compatible(r.kind))
            .map(|r| (j, r))
    })
}

/// Element-wise combine. Kept out of line: inlined into the mover's
/// closure, its loops stop vectorising (a 16 KiB `f64` sum took about
/// twice as long).
#[inline(never)]
fn apply_acc(dst: &mut [u8], src: &[u8], elem: ElemType, op: AccOp) {
    debug_assert_eq!(dst.len(), src.len());
    if op == AccOp::Replace {
        dst.copy_from_slice(src);
        return;
    }
    macro_rules! combine {
        ($ty:ty, $w:expr) => {{
            for (d, s) in dst.chunks_exact_mut($w).zip(src.chunks_exact($w)) {
                let a = <$ty>::from_le_bytes(d[..$w].try_into().unwrap());
                let b = <$ty>::from_le_bytes(s[..$w].try_into().unwrap());
                let r = match op {
                    AccOp::Sum => a + b,
                    AccOp::Min => {
                        if b < a {
                            b
                        } else {
                            a
                        }
                    }
                    AccOp::Max => {
                        if b > a {
                            b
                        } else {
                            a
                        }
                    }
                    AccOp::Replace => unreachable!(),
                };
                d.copy_from_slice(&r.to_le_bytes());
            }
        }};
    }
    match elem {
        ElemType::U8 => combine!(u8, 1),
        ElemType::I32 => combine!(i32, 4),
        ElemType::I64 => combine!(i64, 8),
        ElemType::F32 => combine!(f32, 4),
        ElemType::F64 => combine!(f64, 8),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_acc_sum_f64() {
        let mut dst = Vec::new();
        for x in [1.0f64, 2.0] {
            dst.extend_from_slice(&x.to_le_bytes());
        }
        let mut src = Vec::new();
        for x in [0.5f64, -2.0] {
            src.extend_from_slice(&x.to_le_bytes());
        }
        apply_acc(&mut dst, &src, ElemType::F64, AccOp::Sum);
        let out: Vec<f64> = dst
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(out, vec![1.5, 0.0]);
    }

    #[test]
    fn apply_acc_minmax_i32() {
        let mut dst = 5i32.to_le_bytes().to_vec();
        apply_acc(&mut dst, &3i32.to_le_bytes(), ElemType::I32, AccOp::Min);
        assert_eq!(i32::from_le_bytes(dst[..4].try_into().unwrap()), 3);
        apply_acc(&mut dst, &9i32.to_le_bytes(), ElemType::I32, AccOp::Max);
        assert_eq!(i32::from_le_bytes(dst[..4].try_into().unwrap()), 9);
    }

    #[test]
    fn apply_acc_replace() {
        let mut dst = vec![0u8; 4];
        apply_acc(&mut dst, &[1, 2, 3, 4], ElemType::U8, AccOp::Replace);
        assert_eq!(dst, vec![1, 2, 3, 4]);
    }

    #[test]
    fn rma_class_compatibility_matrix() {
        use RmaClass::*;
        assert!(Get.compatible(Get));
        assert!(!Get.compatible(Put));
        assert!(!Put.compatible(Put));
        assert!(Acc(ElemType::F64, AccOp::Sum).compatible(Acc(ElemType::F64, AccOp::Sum)));
        assert!(!Acc(ElemType::F64, AccOp::Sum).compatible(Acc(ElemType::I64, AccOp::Sum)));
        assert!(!Acc(ElemType::F64, AccOp::Sum).compatible(Acc(ElemType::F64, AccOp::Max)));
        assert!(!Acc(ElemType::F64, AccOp::Sum).compatible(Put));
    }

    /// The target-indexed epoch table on a 4-rank window: rank 0 locks
    /// and unlocks every target out of order, and after every step the
    /// per-target modes, `is_locked` and the open-epoch count agree with
    /// the set of epochs it opened. Misuse is refused without touching
    /// the count.
    #[test]
    fn epoch_table_tracks_every_target() {
        crate::Runtime::run(4, |p| {
            let win = WinHandle::create(&p.world(), 64);
            if p.rank() == 0 {
                let mut open: [Option<LockMode>; 4] = [None; 4];
                let agree = |open: &[Option<LockMode>; 4]| {
                    for (t, &mode) in open.iter().enumerate() {
                        assert_eq!(win.lock_mode(t), mode, "mode of target {t}");
                        assert_eq!(win.is_locked(t), mode.is_some(), "target {t}");
                    }
                    let n = open.iter().flatten().count();
                    assert_eq!(win.open_epochs.get(), n, "open-epoch count");
                };
                agree(&open);
                for (i, t) in [2, 0, 3, 1].into_iter().enumerate() {
                    let mode = [LockMode::Exclusive, LockMode::Shared][i % 2];
                    win.lock(mode, t).unwrap();
                    open[t] = Some(mode);
                    agree(&open);
                    assert!(matches!(
                        win.lock(LockMode::Exclusive, t),
                        Err(MpiError::AlreadyLocked { target }) if target == t
                    ));
                    agree(&open);
                }
                assert!(matches!(
                    win.lock(LockMode::Shared, 4),
                    Err(MpiError::BadRank { rank: 4, size: 4 })
                ));
                agree(&open);
                for t in [3, 1, 2, 0] {
                    win.win_sync().unwrap();
                    win.unlock(t).unwrap();
                    open[t] = None;
                    agree(&open);
                    assert!(matches!(
                        win.unlock(t),
                        Err(MpiError::NotLocked { target }) if target == t
                    ));
                    agree(&open);
                }
                assert!(matches!(win.win_sync(), Err(MpiError::NoEpoch { .. })));
            }
            win.free().unwrap();
        });
    }

    #[test]
    fn target_lock_shared_allows_concurrency() {
        let l = TargetLock::new();
        l.acquire(LockMode::Shared);
        l.acquire(LockMode::Shared);
        l.release(LockMode::Shared);
        l.release(LockMode::Shared);
    }

    #[test]
    fn target_lock_exclusive_blocks() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let l = Arc::new(TargetLock::new());
        l.acquire(LockMode::Exclusive);
        let flag = Arc::new(AtomicBool::new(false));
        let (l2, f2) = (Arc::clone(&l), Arc::clone(&flag));
        let h = std::thread::spawn(move || {
            l2.acquire(LockMode::Shared);
            f2.store(true, Ordering::SeqCst);
            l2.release(LockMode::Shared);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(
            !flag.load(Ordering::SeqCst),
            "reader entered during exclusive"
        );
        l.release(LockMode::Exclusive);
        h.join().unwrap();
        assert!(flag.load(Ordering::SeqCst));
    }

    /// Eight threads, more than the host's cores, loop over mixed shared
    /// and exclusive epochs, so waiters both spin and park. Counters
    /// kept inside the critical sections must never show a writer beside
    /// readers or two writers.
    #[test]
    fn target_lock_oversubscribed_stress_keeps_exclusion() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        const THREADS: usize = 8;
        const ITERS: usize = 2_000;
        let l = Arc::new(TargetLock::new());
        let readers = Arc::new(AtomicUsize::new(0));
        let writers = Arc::new(AtomicUsize::new(0));
        let hs: Vec<_> = (0..THREADS)
            .map(|t| {
                let (l, readers, writers) =
                    (Arc::clone(&l), Arc::clone(&readers), Arc::clone(&writers));
                std::thread::spawn(move || {
                    for i in 0..ITERS {
                        if (t + i) % 3 == 0 {
                            l.acquire(LockMode::Exclusive);
                            assert_eq!(writers.fetch_add(1, Ordering::SeqCst), 0, "two writers");
                            assert_eq!(readers.load(Ordering::SeqCst), 0, "writer beside readers");
                            std::hint::spin_loop();
                            writers.fetch_sub(1, Ordering::SeqCst);
                            l.release(LockMode::Exclusive);
                        } else {
                            l.acquire(LockMode::Shared);
                            readers.fetch_add(1, Ordering::SeqCst);
                            assert_eq!(writers.load(Ordering::SeqCst), 0, "reader beside writer");
                            std::hint::spin_loop();
                            readers.fetch_sub(1, Ordering::SeqCst);
                            l.release(LockMode::Shared);
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let st = l.m.lock();
        assert_eq!((st.readers, st.writer, st.waiting_writers), (0, false, 0));
    }

    /// A waiting exclusive requester keeps new shared requests out: once
    /// the current reader leaves, the writer enters before a reader that
    /// asked after it. The late reader arrives once while the writer is
    /// most likely still spinning, and once after it has most likely
    /// parked. The sleeps only pick the writer's phase; the asserted order
    /// must hold in either.
    #[test]
    fn target_lock_waiting_writer_blocks_new_readers() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        use std::sync::Arc;
        use std::time::Duration;
        for park_first in [false, true] {
            let l = Arc::new(TargetLock::new());
            let order = Arc::new(AtomicUsize::new(0));
            l.acquire(LockMode::Shared);
            let writer = {
                let (l, order) = (Arc::clone(&l), Arc::clone(&order));
                std::thread::spawn(move || {
                    l.acquire(LockMode::Exclusive);
                    let at = order.fetch_add(1, Ordering::SeqCst);
                    l.release(LockMode::Exclusive);
                    at
                })
            };
            while l.m.lock().waiting_writers == 0 {
                std::thread::yield_now();
            }
            if park_first {
                std::thread::sleep(Duration::from_millis(20));
            }
            let asked = Arc::new(AtomicBool::new(false));
            let reader = {
                let (l, order, asked) = (Arc::clone(&l), Arc::clone(&order), Arc::clone(&asked));
                std::thread::spawn(move || {
                    asked.store(true, Ordering::SeqCst);
                    l.acquire(LockMode::Shared);
                    let at = order.fetch_add(1, Ordering::SeqCst);
                    l.release(LockMode::Shared);
                    at
                })
            };
            while !asked.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(5));
            assert_eq!(order.load(Ordering::SeqCst), 0, "someone entered early");
            l.release(LockMode::Shared);
            let (w, r) = (writer.join().unwrap(), reader.join().unwrap());
            assert!(w < r, "late reader overtook the waiting writer");
        }
    }
}

/// Admission equivalence: [`record_checked`] against the all-pairs
/// reference scan it replaced.
#[cfg(test)]
mod admission_proptests {
    use super::*;
    use proptest::prelude::*;

    /// Reference all-pairs scan: each segment against every record in the
    /// epoch, the operation's own earlier segments included.
    fn record_naive(
        records: &mut Vec<OpRecord>,
        target: usize,
        tdisp: usize,
        segs: &[(usize, usize)],
        kind: RmaClass,
    ) -> MpiResult<()> {
        for &(off, len) in segs {
            let (lo, hi) = (tdisp + off, tdisp + off + len);
            for r in records.iter() {
                if lo < r.hi && r.lo < hi && !kind.compatible(r.kind) {
                    return Err(MpiError::ConflictingAccess {
                        target,
                        first: (r.lo, r.hi - r.lo),
                        second: (lo, hi - lo),
                    });
                }
            }
            records.push(OpRecord { lo, hi, kind });
        }
        Ok(())
    }

    /// Contiguous, vector, subarray, or unsorted (possibly overlapping
    /// or adjacent) indexed target types, picked by the first component.
    fn arb_datatype() -> impl Strategy<Value = Datatype> {
        (
            0usize..4,
            (1usize..64, 1usize..8, 1usize..8, 0usize..8),
            proptest::collection::vec((1usize..4, 0usize..3, 0usize..3), 1..4),
            proptest::collection::vec((0usize..96, 0usize..12), 1..12),
        )
            .prop_map(
                |(pick, (len, count, blocklen, pad), dims, blocks)| match pick {
                    0 => Datatype::contiguous(len),
                    1 => Datatype::Vector {
                        count,
                        blocklen,
                        stride: blocklen + pad,
                    },
                    2 => {
                        let sizes: Vec<usize> = dims.iter().map(|&(s, a, b)| s + a + b).collect();
                        let subsizes: Vec<usize> = dims.iter().map(|&(s, _, _)| s).collect();
                        let starts: Vec<usize> = dims.iter().map(|&(_, a, _)| a).collect();
                        Datatype::subarray(&sizes, &subsizes, &starts, 8).unwrap()
                    }
                    _ => Datatype::Indexed { blocks },
                },
            )
    }

    fn arb_kind() -> impl Strategy<Value = RmaClass> {
        (0usize..4).prop_map(|k| match k {
            0 => RmaClass::Get,
            1 => RmaClass::Put,
            2 => RmaClass::Acc(ElemType::F64, AccOp::Sum),
            _ => RmaClass::Acc(ElemType::I64, AccOp::Sum),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Over random multi-op epochs, every admission gives the same
        /// Ok/Err (with the same reported pair) and leaves the same
        /// records as the reference scan.
        #[test]
        fn admission_matches_all_pairs_reference(
            ops in proptest::collection::vec((arb_datatype(), 0usize..64, arb_kind()), 1..10)
        ) {
            let (mut fast, mut naive) = (Vec::new(), Vec::new());
            let mut sweep = Sweep::default();
            for (dt, tdisp, kind) in &ops {
                let segs = dt.segments();
                let got = record_checked(&mut sweep, &mut fast, 3, *tdisp, &segs, *kind);
                let want = record_naive(&mut naive, 3, *tdisp, &segs, *kind);
                prop_assert_eq!(got, want);
                let key = |r: &OpRecord| (r.lo, r.hi, format!("{:?}", r.kind));
                prop_assert_eq!(
                    fast.iter().map(key).collect::<Vec<_>>(),
                    naive.iter().map(key).collect::<Vec<_>>()
                );
            }
        }
    }
}
