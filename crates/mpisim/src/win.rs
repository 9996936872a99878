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
//!    and each operation's byte movement additionally holds a per-target
//!    I/O mutex, so the simulator itself is free of data races even when
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
use parking_lot::{Condvar, Mutex};
use simnet::pool::{BufferPool, RegistrationPolicy};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
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

/// Operation class of a scheduler-merged RMA issue (see
/// [`WinHandle::issue_merged`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmaClass {
    Get,
    Put,
    Acc(ElemType, AccOp),
}

/// What an epoch-recorded operation did, for conflict detection.
#[derive(Debug, Clone, Copy, PartialEq)]
enum OpKind {
    Read,
    Write,
    Acc(ElemType, AccOp),
}

impl OpKind {
    /// MPI-2 compatibility: overlapping reads are fine; overlapping
    /// accumulates with the same type and op are fine; all else conflicts.
    fn compatible(self, other: OpKind) -> bool {
        match (self, other) {
            (OpKind::Read, OpKind::Read) => true,
            (OpKind::Acc(t1, o1), OpKind::Acc(t2, o2)) => t1 == t2 && o1 == o2,
            _ => false,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct OpRecord {
    lo: usize,
    hi: usize,
    kind: OpKind,
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
struct TargetLock {
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

    fn acquire(&self, mode: LockMode) {
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

    fn release(&self, mode: LockMode) {
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

/// One rank's window backing store.
pub(crate) struct RankMem {
    buf: UnsafeCell<Box<[u8]>>,
    /// Serialises actual byte movement so that even *erroneous* concurrent
    /// accesses cannot race at the machine level.
    io: Mutex<()>,
}

// Safety: all access to `buf` goes through `io` (remote ops) or through the
// epoch locks guaranteeing exclusivity (local access).
unsafe impl Sync for RankMem {}
unsafe impl Send for RankMem {}

impl RankMem {
    fn new(size: usize) -> RankMem {
        RankMem {
            buf: UnsafeCell::new(vec![0u8; size].into_boxed_slice()),
            io: Mutex::new(()),
        }
    }
}

/// One node's shared slab (`MPI_Win_allocate_shared` backing): every rank
/// on the node gets a section of the same allocation, so intra-node peers
/// see each other's window memory at real addresses.
struct NodeSlab {
    buf: UnsafeCell<Box<[u8]>>,
    /// Serialises byte movement on the whole slab. Coarser than the
    /// per-rank `RankMem::io` (all node members share it) but the
    /// correctness argument is identical.
    io: Mutex<()>,
}

// Safety: all access to `buf` goes through `io`, as with `RankMem`.
unsafe impl Sync for NodeSlab {}
unsafe impl Send for NodeSlab {}

impl NodeSlab {
    fn new(size: usize) -> NodeSlab {
        NodeSlab {
            buf: UnsafeCell::new(vec![0u8; size].into_boxed_slice()),
            io: Mutex::new(()),
        }
    }
}

/// Section alignment inside a node slab (cache-line).
const SHM_ALIGN: usize = 64;

/// Node-carved backing for a shared window.
struct ShmBacking {
    /// One slab per node represented in the window, in node
    /// first-appearance order.
    slabs: Vec<NodeSlab>,
    /// Per window rank: `(slab index, byte offset)` of its section.
    place: Vec<(usize, usize)>,
    /// Per window rank: node id (from [`simnet::Platform::node_of`] of its
    /// world rank).
    node: Vec<usize>,
}

/// Where a window's bytes live.
enum Backing {
    /// `MPI_Win_create`: each rank owns a private allocation.
    PerRank(Vec<RankMem>),
    /// `MPI_Win_allocate_shared`: per-node slabs, sections carved per rank.
    Shared(ShmBacking),
}

/// A view of one rank's window section: the I/O mutex to hold, the backing
/// allocation, and the section's extent within it. All byte movement —
/// RMA, staging, local access, and the shm fast path — goes through
/// [`Section::with`] / [`Section::with_mut`], which take the lock before
/// dereferencing.
pub(crate) struct Section<'a> {
    io: &'a Mutex<()>,
    buf: *mut Box<[u8]>,
    off: usize,
    len: usize,
}

impl Section<'_> {
    pub(crate) fn with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        let _io = self.io.lock();
        // Safety: `io` serialises all byte movement on this backing.
        let buf = unsafe { &**self.buf };
        f(&buf[self.off..self.off + self.len])
    }

    pub(crate) fn with_mut<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let _io = self.io.lock();
        // Safety: `io` serialises all byte movement on this backing.
        let buf = unsafe { &mut **self.buf };
        f(&mut buf[self.off..self.off + self.len])
    }
}

use std::cell::UnsafeCell;

/// Shared window state.
pub(crate) struct WinInner {
    pub id: u64,
    pub sizes: Vec<usize>,
    backing: Backing,
    locks: Vec<TargetLock>,
    freed: AtomicBool,
}

impl WinInner {
    /// The section view of `target`'s window slice.
    fn section(&self, target: usize) -> Section<'_> {
        match &self.backing {
            Backing::PerRank(mem) => {
                let m = &mem[target];
                Section {
                    io: &m.io,
                    buf: m.buf.get(),
                    off: 0,
                    len: self.sizes[target],
                }
            }
            Backing::Shared(shm) => {
                let (slab, off) = shm.place[target];
                let s = &shm.slabs[slab];
                Section {
                    io: &s.io,
                    buf: s.buf.get(),
                    off,
                    len: self.sizes[target],
                }
            }
        }
    }
}

/// One rank's handle on a window. Not `Send`: epoch state is origin-local,
/// exactly like MPI's per-process epoch bookkeeping.
pub struct WinHandle {
    pub(crate) shared: Arc<Shared>,
    pub(crate) inner: Arc<WinInner>,
    pub(crate) comm: Comm,
    epochs: RefCell<HashMap<usize, Epoch>>,
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
    pub(crate) lock_all_active: Cell<bool>,
    /// Active-target (fence) epoch open on this handle (§III "active
    /// mode"). Between two `fence` calls every rank may be both origin
    /// and target without per-target locks.
    active_epoch: Cell<bool>,
    /// How remote passive-target completion is priced on this handle
    /// (see [`crate::progress`]). Origin-local, like the epoch state.
    progress: Cell<ProgressModel>,
}

impl WinHandle {
    /// Collectively creates a window; this rank contributes `local_size`
    /// bytes (zero-initialised). Zero-size contributions are allowed.
    pub fn create(comm: &Comm, local_size: usize) -> WinHandle {
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
        let inner = {
            let mut wins = comm.shared.wins.write();
            Arc::clone(wins.entry(id).or_insert_with(|| {
                Arc::new(WinInner {
                    id,
                    backing: Backing::PerRank(sizes.iter().map(|&s| RankMem::new(s)).collect()),
                    locks: sizes.iter().map(|_| TargetLock::new()).collect(),
                    sizes,
                    freed: AtomicBool::new(false),
                })
            }))
        };
        Self::from_inner(comm, inner)
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
        let node: Vec<usize> = (0..comm.size())
            .map(|r| plat.node_of(comm.world_rank_of(r)))
            .collect();
        // Deterministic carve: slabs in node first-appearance order,
        // sections appended in window-rank order, cache-line aligned.
        let mut slab_sizes: Vec<(usize, usize)> = Vec::new(); // (node, bytes)
        let mut place = Vec::with_capacity(sizes.len());
        for (r, &sz) in sizes.iter().enumerate() {
            let si = match slab_sizes.iter().position(|&(n, _)| n == node[r]) {
                Some(i) => i,
                None => {
                    slab_sizes.push((node[r], 0));
                    slab_sizes.len() - 1
                }
            };
            place.push((si, slab_sizes[si].1));
            slab_sizes[si].1 += sz.next_multiple_of(SHM_ALIGN);
        }
        let inner = {
            let mut wins = comm.shared.wins.write();
            Arc::clone(wins.entry(id).or_insert_with(|| {
                Arc::new(WinInner {
                    id,
                    backing: Backing::Shared(ShmBacking {
                        slabs: slab_sizes.iter().map(|&(_, b)| NodeSlab::new(b)).collect(),
                        place,
                        node,
                    }),
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
            inner,
            comm: comm.clone(),
            epochs: RefCell::new(HashMap::new()),
            pool: BufferPool::new(
                RegistrationPolicy::Unregistered,
                comm.platform().reg.clone(),
            ),
            dtype_cache: RefCell::new(DtypeCache::new(64)),
            flat: RefCell::new(Flat::default()),
            spare_records: RefCell::new(Vec::new()),
            lock_all_active: Cell::new(false),
            active_epoch: Cell::new(false),
            progress: Cell::new(ProgressModel::Off),
        }
    }

    /// Active-target synchronisation (`MPI_Win_fence`): collective; closes
    /// the previous active access/exposure epoch and opens a new one. The
    /// paper's §III notes active mode "requires synchronization among all
    /// parties", which is why ARMCI-MPI uses passive mode — this exists to
    /// complete the model (and for programs that *are* bulk-synchronous).
    ///
    /// Mixing fence epochs with open passive epochs on the same handle is
    /// rejected, like the standard's matching rules.
    pub fn fence(&self) -> MpiResult<()> {
        self.check_alive()?;
        if !self.epochs.borrow().is_empty() || self.lock_all_active.get() {
            return Err(MpiError::EpochModeMixed { target: usize::MAX });
        }
        self.comm.barrier();
        self.active_epoch.set(true);
        self.charge(0.5 * self.params().epoch_overhead);
        if obs::enabled() {
            obs::instant_at(obs::EventKind::FenceBegin { win: self.inner.id }, self.vt());
        }
        Ok(())
    }

    /// Ends active-target mode on this handle (an `MPI_Win_fence` with
    /// `MPI_MODE_NOSUCCEED`): completes outstanding operations and leaves
    /// no epoch open.
    pub fn fence_end(&self) -> MpiResult<()> {
        self.check_alive()?;
        if !self.active_epoch.get() {
            return Err(MpiError::NoEpoch { target: usize::MAX });
        }
        self.comm.barrier();
        self.active_epoch.set(false);
        self.charge(0.5 * self.params().epoch_overhead);
        if obs::enabled() {
            obs::instant_at(obs::EventKind::FenceEnd { win: self.inner.id }, self.vt());
        }
        Ok(())
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

    fn charge(&self, dt: f64) {
        if self.shared.cfg.charge_time {
            self.shared.clocks[self.comm.my_world_rank()].advance(dt);
        }
    }

    /// This rank's current virtual time (for trace event stamps).
    pub(crate) fn vt(&self) -> f64 {
        self.shared.clocks[self.comm.my_world_rank()].now()
    }

    fn params(&self) -> &simnet::BackendParams {
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
        self.vt()
    }

    /// Advances this rank's virtual clock by `dt` (honouring
    /// `charge_time`). For transport backends that compute their own
    /// costs instead of going through the MPI-priced entry points.
    pub fn charge_virtual(&self, dt: f64) {
        self.charge(dt);
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
        let extra = net.admit(self.vt(), src, dst, ser, msgs);
        if extra > 0.0 && obs::enabled() {
            let t0 = self.vt();
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
                    let t0 = self.vt();
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
                    let t0 = self.vt();
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
        if self.epochs.borrow().contains_key(&target) {
            return Err(MpiError::AlreadyLocked { target });
        }
        self.inner.locks[target].acquire(mode);
        self.epochs.borrow_mut().insert(
            target,
            Epoch {
                mode,
                ops: self.spare_records.take(),
                issued: 0,
            },
        );
        // The lock grant is a target-serviced protocol round.
        let prog = self.progress_extra(target, 1);
        self.charge(0.5 * self.params().epoch_overhead + prog);
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::LockAcquire {
                    win: self.inner.id,
                    target: target as u32,
                    exclusive: mode == LockMode::Exclusive,
                },
                self.vt(),
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
            .remove(&target)
            .ok_or(MpiError::NotLocked { target })?;
        self.inner.locks[target].release(ep.mode);
        let mut records = ep.ops;
        records.clear();
        *self.spare_records.borrow_mut() = records;
        // Unlock completes the epoch remotely: one more serviced round.
        let prog = self.progress_extra(target, 1);
        self.charge(0.5 * self.params().epoch_overhead + prog);
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::LockRelease {
                    win: self.inner.id,
                    target: target as u32,
                },
                self.vt(),
            );
        }
        Ok(())
    }

    /// Is an epoch currently open on `target`?
    pub fn is_locked(&self, target: usize) -> bool {
        self.epochs.borrow().contains_key(&target)
            || self.lock_all_active.get()
            || self.active_epoch.get()
    }

    /// Mode of the open epoch on `target`, if any.
    pub fn lock_mode(&self, target: usize) -> Option<LockMode> {
        self.epochs.borrow().get(&target).map(|e| e.mode)
    }

    /// Validates epoch presence and (optionally) records + conflict-checks
    /// the operation's target ranges: `segs` are the flattened target
    /// datatype (relative to `tdisp`) and `extent` its span.
    fn admit(
        &self,
        target: usize,
        tdisp: usize,
        extent: usize,
        segs: &[(usize, usize)],
        kind: OpKind,
    ) -> MpiResult<()> {
        let size = self.inner.sizes[target];
        if tdisp + extent > size {
            return Err(MpiError::OutOfBounds {
                target,
                disp: tdisp,
                len: extent,
                size,
            });
        }
        let mut epochs = self.epochs.borrow_mut();
        let ep = match epochs.get_mut(&target) {
            Some(e) => e,
            // MPI-3 lock_all: conflicts undefined, not erroneous.
            None if self.lock_all_active.get() => return Ok(()),
            // Active-target epoch: the fences provide the synchronisation;
            // conflicting access rules are the programmer's bulk-sync
            // discipline (not tracked per-target here).
            None if self.active_epoch.get() => return Ok(()),
            None => return Err(MpiError::NoEpoch { target }),
        };
        if self.shared.cfg.semantic_checks {
            record_checked(&mut ep.ops, target, tdisp, segs, kind)?;
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

    /// Consults the committed-datatype cache for the (origin, target)
    /// shape of a non-contiguous transfer. Returns `true` on hit; records
    /// the consultation as a `DtypeCommit` instant.
    fn dtype_commit(&self, odt: &Datatype, tdt: &Datatype) -> bool {
        let hit = self.dtype_cache.borrow_mut().commit_pair(odt, tdt);
        self.note_dtype_commit(hit)
    }

    fn note_dtype_commit(&self, hit: bool) -> bool {
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::DtypeCommit {
                    win: self.inner.id,
                    hit,
                },
                self.vt(),
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
    fn note_rma(&self, kind: obs::OpKind, target: usize, bytes: usize, nsegs: usize, cached: bool) {
        if !obs::enabled() {
            return;
        }
        let ts = self.vt();
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
        let mut epochs = self.epochs.borrow_mut();
        match epochs.get_mut(&target) {
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
    // Every mover flattens each datatype exactly once into the handle's
    // `Flat` scratch: admission borrows the target segments, and the copy
    // walks the zipped pieces under one I/O lock. The wire (`*_core`) and
    // shm entry points share these movers and differ only in pricing.

    /// The origin datatype must fit in the caller's buffer.
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

    /// Validates, admits and moves a put's bytes.
    fn put_move(
        &self,
        origin: &[u8],
        odt: &Datatype,
        target: usize,
        tdisp: usize,
        tdt: &Datatype,
    ) -> MpiResult<()> {
        Self::check_origin(origin.len(), odt)?;
        let mut flat = self.flat.borrow_mut();
        flat.flatten_target(tdt);
        self.admit(target, tdisp, tdt.extent(), &flat.tsegs, OpKind::Write)?;
        flat.zip_origin(odt, tdt.size())?;
        self.inner
            .section(target)
            .with_mut(|dst| copy_in(dst, tdisp, origin, &flat.pieces));
        Ok(())
    }

    /// Validates, admits and moves a get's bytes.
    fn get_move(
        &self,
        origin: &mut [u8],
        odt: &Datatype,
        target: usize,
        tdisp: usize,
        tdt: &Datatype,
    ) -> MpiResult<()> {
        Self::check_origin(origin.len(), odt)?;
        let mut flat = self.flat.borrow_mut();
        flat.flatten_target(tdt);
        self.admit(target, tdisp, tdt.extent(), &flat.tsegs, OpKind::Read)?;
        flat.zip_origin(odt, tdt.size())?;
        self.inner
            .section(target)
            .with(|src| copy_out(src, tdisp, origin, &flat.pieces));
        Ok(())
    }

    /// Validates, admits and applies an accumulate: the origin selection is
    /// packed into pooled scratch (steady state: no allocation), then
    /// combined per target segment. Every target segment must be
    /// element-aligned.
    #[allow(clippy::too_many_arguments)]
    fn acc_move(
        &self,
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
        let mut flat = self.flat.borrow_mut();
        flat.flatten_target(tdt);
        self.admit(
            target,
            tdisp,
            tdt.extent(),
            &flat.tsegs,
            OpKind::Acc(elem, op),
        )?;
        for &(_, len) in &flat.tsegs {
            if len % es != 0 {
                return Err(MpiError::BadDatatype(format!(
                    "target segment of {len} bytes not element-aligned (elem {es})"
                )));
            }
        }
        if odt.size() != tdt.size() {
            return Err(MpiError::TypeMismatch {
                origin_bytes: odt.size(),
                target_bytes: tdt.size(),
            });
        }
        odt.segments_into(&mut flat.osegs);
        let mut staged = self.pool.take(odt.size());
        let mut w = 0usize;
        for &(off, len) in &flat.osegs {
            staged[w..w + len].copy_from_slice(&origin[off..off + len]);
            w += len;
        }
        self.inner.section(target).with_mut(|dst| {
            let mut s = 0usize;
            for &(toff, len) in &flat.tsegs {
                apply_acc(
                    &mut dst[tdisp + toff..tdisp + toff + len],
                    &staged[s..s + len],
                    elem,
                    op,
                );
                s += len;
            }
        });
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
        self.check_alive()?;
        self.put_move(origin, odt, target, tdisp, tdt)?;
        let cost = self.wire_cost(simnet::Op::Put, obs::OpKind::Put, odt, target, tdt);
        let extra = self.net_extra(target, self.wire_ser(simnet::Op::Put, odt.size()), 1);
        let prog = self.progress_extra(target, 1);
        self.charge(cost + extra + prog);
        Ok(())
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
        self.check_alive()?;
        self.get_move(origin, odt, target, tdisp, tdt)?;
        let cost = self.wire_cost(simnet::Op::Get, obs::OpKind::Get, odt, target, tdt);
        let extra = self.net_extra(target, self.wire_ser(simnet::Op::Get, odt.size()), 1);
        let prog = self.progress_extra(target, 1);
        self.charge(cost + extra + prog);
        Ok(())
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
        self.check_alive()?;
        self.acc_move(origin, odt, target, tdisp, tdt, elem, op)?;
        let cost = self.wire_cost(simnet::Op::Acc, obs::OpKind::Acc, odt, target, tdt);
        let extra = self.net_extra(target, self.wire_ser(simnet::Op::Acc, odt.size()), 1);
        let prog = self.progress_extra(target, 1);
        self.charge(cost + extra + prog);
        Ok(())
    }

    /// Epoch accounting, datatype-cache consultation, the RMA event and
    /// the virtual-time price of one wire operation whose bytes moved.
    fn wire_cost(
        &self,
        op: simnet::Op,
        kind: obs::OpKind,
        odt: &Datatype,
        target: usize,
        tdt: &Datatype,
    ) -> f64 {
        let issued = self.bump_issued(target);
        let nsegs = odt.num_segments().max(tdt.num_segments());
        let cached = nsegs > 1 && self.dtype_commit(odt, tdt);
        self.note_rma(kind, target, odt.size(), nsegs, cached);
        self.op_cost(op, odt.size(), nsegs, issued, cached)
    }

    // ------------------------------------------------------------------
    // Coalescing-scheduler support
    // ------------------------------------------------------------------
    //
    // The transfer engine's coalescing scheduler moves bytes eagerly at
    // enqueue time (`stage_*`, below: bounds-checked and serialised but
    // uncharged, eventless, and epoch-free) and defers all pricing and
    // epoch accounting to flush time, where whole runs of same-class ops
    // are issued as one merged RMA (`issue_merged`). Splitting movement
    // from pricing this way keeps queued operations free of raw-pointer
    // lifetime hazards — the caller's buffers are consumed before enqueue
    // returns, exactly like the existing request-based (`rput`) path.

    /// Bounds check shared by the stage movers.
    fn stage_check(&self, target: usize, tdisp: usize, len: usize) -> MpiResult<()> {
        self.check_alive()?;
        if target >= self.inner.sizes.len() {
            return Err(MpiError::BadRank {
                rank: target,
                size: self.inner.sizes.len(),
            });
        }
        let size = self.inner.sizes[target];
        if tdisp + len > size {
            return Err(MpiError::OutOfBounds {
                target,
                disp: tdisp,
                len,
                size,
            });
        }
        Ok(())
    }

    /// Moves put bytes for a queued (scheduler-deferred) operation.
    /// `pieces` are `(origin_offset, target_disp, len)` triples: every
    /// piece is bounds-checked before any byte moves, then all of them
    /// copy under one I/O lock.
    pub fn stage_put_bytes(
        &self,
        origin: &[u8],
        target: usize,
        pieces: &[(usize, usize, usize)],
    ) -> MpiResult<()> {
        for &(_, tdisp, len) in pieces {
            self.stage_check(target, tdisp, len)?;
        }
        self.inner
            .section(target)
            .with_mut(|dst| copy_in(dst, 0, origin, pieces));
        Ok(())
    }

    /// Moves get bytes for a queued (scheduler-deferred) operation; see
    /// [`WinHandle::stage_put_bytes`].
    pub fn stage_get_bytes(
        &self,
        origin: &mut [u8],
        target: usize,
        pieces: &[(usize, usize, usize)],
    ) -> MpiResult<()> {
        for &(_, tdisp, len) in pieces {
            self.stage_check(target, tdisp, len)?;
        }
        self.inner
            .section(target)
            .with(|src| copy_out(src, 0, origin, pieces));
        Ok(())
    }

    /// Applies accumulate bytes for a queued (scheduler-deferred)
    /// operation; see [`WinHandle::stage_put_bytes`]. Every piece must be
    /// a whole number of elements; element alignment within the window is
    /// the caller's contract, as with [`WinHandle::accumulate`].
    pub fn stage_acc_bytes(
        &self,
        origin: &[u8],
        target: usize,
        pieces: &[(usize, usize, usize)],
        elem: ElemType,
        op: AccOp,
    ) -> MpiResult<()> {
        let es = elem.size();
        for &(_, tdisp, len) in pieces {
            if !len.is_multiple_of(es) {
                return Err(MpiError::BadDatatype(format!(
                    "accumulate of {len} bytes not a multiple of element size {es}"
                )));
            }
            self.stage_check(target, tdisp, len)?;
        }
        self.inner.section(target).with_mut(|dst| {
            for &(o, t, len) in pieces {
                apply_acc(&mut dst[t..t + len], &origin[o..o + len], elem, op);
            }
        });
        Ok(())
    }

    /// Prices and records one scheduler-merged RMA: a whole run of
    /// same-class queued operations issued as a single wire operation
    /// whose target datatype is the merged segment list (window-absolute
    /// `(offset, len)` pairs, disjoint and ascending — the scheduler
    /// proves this with the conflict tree before calling). Bytes have
    /// already moved via the `stage_*` movers; this performs the epoch
    /// admission, consults the committed-datatype cache, records the RMA
    /// (and pack) events, and returns the virtual-time cost for the
    /// caller to charge or defer. `segs` is priced exactly like an
    /// indexed target type with those blocks, without building one.
    pub fn issue_merged(
        &self,
        class: RmaClass,
        target: usize,
        segs: &[(usize, usize)],
    ) -> MpiResult<f64> {
        self.check_alive()?;
        let kind = match class {
            RmaClass::Get => OpKind::Read,
            RmaClass::Put => OpKind::Write,
            RmaClass::Acc(elem, op) => OpKind::Acc(elem, op),
        };
        {
            let mut flat = self.flat.borrow_mut();
            flat.tsegs.clear();
            flatten_blocks(segs, &mut flat.tsegs);
            self.admit(target, 0, blocks_extent(segs), &flat.tsegs, kind)?;
        }
        let bytes: usize = segs.iter().map(|&(_, len)| len).sum();
        let nsegs = segs.iter().filter(|&&(_, len)| len > 0).count();
        let issued = self.bump_issued(target);
        let cached = nsegs > 1
            && self.note_dtype_commit(self.dtype_cache.borrow_mut().commit_merged(bytes, segs));
        let (op, okind) = match class {
            RmaClass::Get => (simnet::Op::Get, obs::OpKind::Get),
            RmaClass::Put => (simnet::Op::Put, obs::OpKind::Put),
            RmaClass::Acc(..) => (simnet::Op::Acc, obs::OpKind::Acc),
        };
        self.note_rma(okind, target, bytes, nsegs, cached);
        let extra = self.net_extra(target, self.wire_ser(op, bytes), 1);
        let prog = self.progress_extra(target, 1);
        Ok(self.op_cost(op, bytes, nsegs, issued, cached) + extra + prog)
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
    // the `shm_*` movers run whole RMA-shaped operations as node-local
    // copies priced by the platform's `ShmParams` tier instead of the NIC
    // model. Epoch discipline is unchanged — the movers go through the
    // same `admit` as the wire path — but there is no per-message wire
    // latency, no pipelining credit, and no datatype pack cost: a
    // non-contiguous shape is just more `memcpy` segments.

    /// Intra-node shared-slab parameters of the configured platform.
    fn shm_params(&self) -> &simnet::ShmParams {
        &self.shared.cfg.platform.shm
    }

    /// Was this window created with [`WinHandle::allocate_shared`]?
    pub fn is_shared_backed(&self) -> bool {
        matches!(self.inner.backing, Backing::Shared(_))
    }

    /// Can `target` be reached through a node-local slab (shared-backed
    /// window *and* same node as the caller)? This is the route predicate
    /// the transfer engine consults at plan time.
    pub fn shm_reachable(&self, target: usize) -> bool {
        match &self.inner.backing {
            Backing::Shared(shm) => {
                target < shm.node.len() && shm.node[target] == shm.node[self.comm.rank()]
            }
            Backing::PerRank(_) => false,
        }
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
    /// Requires an open epoch (lock, lock_all, or fence) on the handle.
    pub fn win_sync(&self) -> MpiResult<()> {
        self.check_alive()?;
        if self.epochs.borrow().is_empty()
            && !self.lock_all_active.get()
            && !self.active_epoch.get()
        {
            return Err(MpiError::NoEpoch { target: usize::MAX });
        }
        std::sync::atomic::fence(Ordering::SeqCst);
        let t0 = self.vt();
        self.charge(self.shm_params().win_sync);
        if obs::enabled() {
            let t1 = self.vt();
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

    /// Records a shared-memory access event at the current virtual time.
    fn note_shm(&self, write: bool, target: usize, bytes: usize) {
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::ShmAccess {
                    win: self.inner.id,
                    target: target as u32,
                    write,
                    bytes: bytes as u64,
                },
                self.vt(),
            );
        }
    }

    /// Shared-memory put: same validation and epoch admission as
    /// [`WinHandle::put`], but the bytes move as a node-local copy and the
    /// returned (uncharged) cost comes from the platform's shm tier.
    pub fn shm_put(
        &self,
        origin: &[u8],
        odt: &Datatype,
        target: usize,
        tdisp: usize,
        tdt: &Datatype,
    ) -> MpiResult<f64> {
        self.check_shm(target)?;
        self.put_move(origin, odt, target, tdisp, tdt)?;
        Ok(self.shm_cost(simnet::Op::Put, true, odt, target, tdt))
    }

    /// Shared-memory get; see [`WinHandle::shm_put`].
    pub fn shm_get(
        &self,
        origin: &mut [u8],
        odt: &Datatype,
        target: usize,
        tdisp: usize,
        tdt: &Datatype,
    ) -> MpiResult<f64> {
        self.check_shm(target)?;
        self.get_move(origin, odt, target, tdisp, tdt)?;
        Ok(self.shm_cost(simnet::Op::Get, false, odt, target, tdt))
    }

    /// Shared-memory accumulate; see [`WinHandle::shm_put`]. The combine
    /// runs under the slab's I/O lock, so same-type-and-op concurrent
    /// accumulates from node peers remain element-atomic exactly like the
    /// wire path.
    #[allow(clippy::too_many_arguments)] // mirrors MPI_Accumulate's signature
    pub fn shm_acc(
        &self,
        origin: &[u8],
        odt: &Datatype,
        target: usize,
        tdisp: usize,
        tdt: &Datatype,
        elem: ElemType,
        op: AccOp,
    ) -> MpiResult<f64> {
        self.check_shm(target)?;
        self.acc_move(origin, odt, target, tdisp, tdt, elem, op)?;
        Ok(self.shm_cost(simnet::Op::Acc, true, odt, target, tdt))
    }

    /// The window is alive and `target` is a node peer.
    fn check_shm(&self, target: usize) -> MpiResult<()> {
        self.check_alive()?;
        if !self.shm_reachable(target) {
            return Err(MpiError::ShmUnavailable { target });
        }
        Ok(())
    }

    /// The shm event and shm-tier price of one node-local operation.
    fn shm_cost(
        &self,
        op: simnet::Op,
        write: bool,
        odt: &Datatype,
        target: usize,
        tdt: &Datatype,
    ) -> f64 {
        let nsegs = odt.num_segments().max(tdt.num_segments());
        self.note_shm(write, target, odt.size());
        self.shm_params().op_cost(op, odt.size(), nsegs)
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
                self.vt(),
            );
        }
        Ok(self.inner.section(me).with(f))
    }

    /// Mutable access to this rank's own window slice. Requires an
    /// *exclusive* epoch on self (§V-E: "direct local access should be
    /// performed only while the window is locked for exclusive access") —
    /// or, under MPI-3 `lock_all`, the unified-memory-model rules apply:
    /// access is granted and serialised against remote operations by the
    /// per-rank I/O lock (the `MPI_Win_sync` discipline).
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
                self.vt(),
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
            self.epochs.borrow().is_empty()
                && !self.lock_all_active.get()
                && !self.active_epoch.get(),
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

    /// Direct raw access for the MPI-3 extension module: the I/O mutex,
    /// the backing allocation, and the byte offset of `target`'s section
    /// within it (non-zero for shared-backed windows).
    pub(crate) fn raw_mem(&self, target: usize) -> (&Mutex<()>, *mut Box<[u8]>, usize) {
        let sec = self.inner.section(target);
        (sec.io, sec.buf, sec.off)
    }

    pub(crate) fn target_lock(&self, target: usize) -> &impl LockOps {
        &self.inner.locks[target]
    }
}

/// Internal trait so mpi3.rs can drive the target locks.
pub(crate) trait LockOps {
    fn acquire(&self, mode: LockMode);
    fn release(&self, mode: LockMode);
}

impl LockOps for TargetLock {
    fn acquire(&self, mode: LockMode) {
        TargetLock::acquire(self, mode)
    }
    fn release(&self, mode: LockMode) {
        TargetLock::release(self, mode)
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

    /// Byte offset of this section within its node slab — the simulated
    /// analogue of the base-pointer arithmetic real `shared_query` users
    /// do.
    pub fn slab_offset(&self) -> usize {
        match &self.inner.backing {
            Backing::Shared(shm) => shm.place[self.rank].1,
            Backing::PerRank(_) => unreachable!("ShmSection only exists for shared backings"),
        }
    }

    fn check(&self, disp: usize, len: usize) -> MpiResult<()> {
        if self.inner.freed.load(Ordering::Acquire) {
            return Err(MpiError::WinFreed);
        }
        let size = self.inner.sizes[self.rank];
        if disp + len > size {
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

/// Copies `(origin_offset, target_offset, len)` pieces from `origin` into
/// `dst` at `tdisp + target_offset`.
fn copy_in(dst: &mut [u8], tdisp: usize, origin: &[u8], pieces: &[(usize, usize, usize)]) {
    for &(o, t, len) in pieces {
        dst[tdisp + t..tdisp + t + len].copy_from_slice(&origin[o..o + len]);
    }
}

/// Copies pieces the other way: from `src` at `tdisp + target_offset`
/// into `origin`.
fn copy_out(src: &[u8], tdisp: usize, origin: &mut [u8], pieces: &[(usize, usize, usize)]) {
    for &(o, t, len) in pieces {
        origin[o..o + len].copy_from_slice(&src[tdisp + t..tdisp + t + len]);
    }
}

/// Conflict-checks one operation's target segments (relative to `tdisp`)
/// against an epoch's records and appends them. The outcome is exactly
/// the all-pairs reference scan's (`record_naive`): the same Ok/Err, the
/// same reported pair, the same records left behind on error. It just
/// never compares an operation's segments with each other pairwise. Only
/// a self-incompatible kind (a write) can conflict with itself; that gets
/// one O(n) sortedness pass, and an O(n log n) sort when the segments are
/// unsorted. The earlier operations' records are then scanned only when
/// one of them is incompatible with `kind`.
fn record_checked(
    records: &mut Vec<OpRecord>,
    target: usize,
    tdisp: usize,
    segs: &[(usize, usize)],
    kind: OpKind,
) -> MpiResult<()> {
    let own = if kind.compatible(kind) {
        None
    } else {
        first_self_overlap(segs)
    };
    // Segment j's conflicts with earlier operations precede (in record
    // order) its conflicts with its own operation, so only segments up to
    // the first self-conflict need the scan.
    let scan = own.map_or(segs.len(), |(j, _)| j + 1);
    let mut err = None;
    if !records.iter().all(|r| kind.compatible(r.kind)) {
        err = segs[..scan]
            .iter()
            .enumerate()
            .find_map(|(j, &(off, len))| {
                let (lo, hi) = (tdisp + off, tdisp + off + len);
                records
                    .iter()
                    .find(|r| lo < r.hi && r.lo < hi && !kind.compatible(r.kind))
                    .map(|r| (j, (r.lo, r.hi - r.lo)))
            });
    }
    let err = err.or(own.map(|(j, i)| (j, (tdisp + segs[i].0, segs[i].1))));
    let keep = err.map_or(segs.len(), |(j, _)| j);
    records.extend(segs[..keep].iter().map(|&(off, len)| OpRecord {
        lo: tdisp + off,
        hi: tdisp + off + len,
        kind,
    }));
    match err {
        Some((j, first)) => Err(MpiError::ConflictingAccess {
            target,
            first,
            second: (tdisp + segs[j].0, segs[j].1),
        }),
        None => Ok(()),
    }
}

/// The first `(j, i)`, `i < j`, with overlapping segments, in the order
/// the all-pairs scan meets them — or `None` when the segments are
/// pairwise disjoint. Ascending disjoint lists (every contiguous, vector
/// and subarray type) are proven clean in one pass; unsorted ones by a
/// sort. Only a list that really overlaps (an error) pays the pairwise
/// search.
fn first_self_overlap(segs: &[(usize, usize)]) -> Option<(usize, usize)> {
    let disjoint = |s: &[(usize, usize)]| s.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0);
    if disjoint(segs) {
        return None;
    }
    let mut sorted = segs.to_vec();
    sorted.sort_unstable();
    if disjoint(&sorted) {
        return None;
    }
    let overlap = |a: (usize, usize), b: (usize, usize)| a.0 < b.0 + b.1 && b.0 < a.0 + a.1;
    (1..segs.len()).find_map(|j| (0..j).find(|&i| overlap(segs[i], segs[j])).map(|i| (j, i)))
}

/// Element-wise combine.
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
    fn opkind_compatibility_matrix() {
        use OpKind::*;
        assert!(Read.compatible(Read));
        assert!(!Read.compatible(Write));
        assert!(!Write.compatible(Write));
        assert!(Acc(ElemType::F64, AccOp::Sum).compatible(Acc(ElemType::F64, AccOp::Sum)));
        assert!(!Acc(ElemType::F64, AccOp::Sum).compatible(Acc(ElemType::I64, AccOp::Sum)));
        assert!(!Acc(ElemType::F64, AccOp::Sum).compatible(Acc(ElemType::F64, AccOp::Max)));
        assert!(!Acc(ElemType::F64, AccOp::Sum).compatible(Write));
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
        kind: OpKind,
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

    fn arb_kind() -> impl Strategy<Value = OpKind> {
        (0usize..4).prop_map(|k| match k {
            0 => OpKind::Read,
            1 => OpKind::Write,
            2 => OpKind::Acc(ElemType::F64, AccOp::Sum),
            _ => OpKind::Acc(ElemType::I64, AccOp::Sum),
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
            for (dt, tdisp, kind) in &ops {
                let segs = dt.segments();
                let got = record_checked(&mut fast, 3, *tdisp, &segs, *kind);
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
