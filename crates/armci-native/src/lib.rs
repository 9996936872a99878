//! **ARMCI-Native** — the baseline the paper compares against: a "native"
//! ARMCI implementation using the platform's own communication machinery
//! rather than MPI RMA.
//!
//! Real native ports drive RDMA hardware directly, allocate from prepinned
//! segments, run a communication helper thread (CHT) for asynchronous
//! progress, and ship hand-tuned strided engines. In this workspace the
//! data path is direct shared memory (the [`mpisim`] shared-segment
//! registry standing in for XPMEM), and *performance* comes from the
//! platform's **native** cost model ([`simnet::Platform`]`::native`) —
//! calibrated per platform to the paper's measured native curves,
//! including the deliberately weak Cray XE6 development release.
//!
//! Semantics implemented to the same contract as `armci-mpi`
//! ([`armci::Armci`]):
//!
//! * eager one-sided get/put/accumulate with location consistency
//!   (per-target reader–writer locks; an origin observes its own
//!   operations in order);
//! * tuned strided/IOV engines (single lock acquisition, pipelined
//!   segments — the `Native` branch of
//!   [`simnet::BackendParams::strided_cost`]);
//! * hardware-latency RMW (the CHT services it without mutexes);
//! * host-side queueing mutexes with FIFO fairness;
//! * `ARMCI_Fence` charges a round trip (native puts complete remotely
//!   only at fence, unlike ARMCI-MPI where fence is a no-op).

use armci::stride::{extent, num_segments, StridedIter};
use armci::{
    AccessMode, AddressSpace, Armci, ArmciError, ArmciGroup, ArmciResult, GlobalAddr, Local,
    NbHandle, Remote, RmwOp,
};
use mpisim::{Comm, Proc};
use parking_lot::{Condvar, Mutex, RwLock};
use simnet::{BufferPool, Op, PoolStats, RegistrationPolicy, StridedMethodCost};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Shared segments
// ---------------------------------------------------------------------

/// One rank's slice of a native allocation.
struct Slice {
    buf: std::cell::UnsafeCell<Box<[u8]>>,
    /// Location-consistency lock: reads shared, writes exclusive.
    lock: RwLock<()>,
}

// Safety: all byte access is guarded by `lock`.
unsafe impl Sync for Slice {}
unsafe impl Send for Slice {}

/// A native allocation shared by a group (XPMEM-style mapping).
struct Segment {
    slices: Vec<Slice>,
    /// Queueing mutexes for the user-level `ARMCI_Lock` API (mutex sets
    /// are hosted in dedicated segments).
    mutexes: Vec<QueueMutex>,
}

/// A host-side queueing mutex with FIFO fairness (what the CHT provides
/// in real native ports).
struct QueueMutex {
    m: Mutex<QmState>,
    cv: Condvar,
}

#[derive(Default)]
struct QmState {
    held: bool,
    next_ticket: u64,
    serving: u64,
}

impl QueueMutex {
    fn new() -> QueueMutex {
        QueueMutex {
            m: Mutex::new(QmState::default()),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) {
        let mut st = self.m.lock();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        while st.held || st.serving != ticket {
            // Fails instead of waiting for ever if the holder's rank panicked.
            mpisim::park(&self.cv, &mut st);
        }
        st.held = true;
    }

    fn unlock(&self) {
        let mut st = self.m.lock();
        debug_assert!(st.held);
        st.held = false;
        st.serving += 1;
        self.cv.notify_all();
    }
}

struct Allocation {
    seg: Arc<Segment>,
    mode: Cell<AccessMode>,
}

/// A translated address: allocation id, slice owner's group rank and
/// displacement.
type Translation = armci::Translation<u64>;

// ---------------------------------------------------------------------
// Runtime handle
// ---------------------------------------------------------------------

/// Bytes of bounce-buffer space a native port registers with the NIC up
/// front (the prepinned segment real ports carve from `ARMCI_Init`).
const PREPIN_BYTES: usize = 4 << 20;

/// Per-process handle for the native ARMCI baseline.
pub struct ArmciNative {
    world: Comm,
    /// Address cursor and `(rank, address) → allocation id` translation,
    /// the same [`AddressSpace`] ARMCI-MPI files its GMRs in.
    space: AddressSpace<u64>,
    allocs: RefCell<HashMap<u64, Allocation>>,
    user_mutexes: RefCell<HashMap<usize, (Arc<Segment>, usize)>>,
    next_handle: Cell<usize>,
    /// Prepinned staging pool: registration is paid once at init, so
    /// bounce copies never pay first-touch pin cost (the native half of
    /// the paper's Fig-5 registration story).
    pool: BufferPool,
}

impl ArmciNative {
    /// Bootstraps the native runtime for this process. Registration of
    /// the prepinned staging slab is charged here, once, so per-op bounce
    /// copies run at full rate afterwards.
    pub fn new(proc: &Proc) -> ArmciNative {
        let world = proc.world();
        let pool = BufferPool::new(RegistrationPolicy::Prepinned, world.platform().reg.clone());
        let prepin_cost = pool.prepin(PREPIN_BYTES);
        if prepin_cost > 0.0 {
            world.charge_time(prepin_cost);
        }
        ArmciNative {
            world,
            space: AddressSpace::new(),
            allocs: RefCell::new(HashMap::new()),
            user_mutexes: RefCell::new(HashMap::new()),
            next_handle: Cell::new(1),
            pool,
        }
    }

    /// Buffer-pool statistics (hits, misses, registration cost). The
    /// init-time prepin of the slab is included in `reg_cost_s` until
    /// [`Self::reset_pool_stats`] is called.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Zeroes the pool counters (cached buffers stay pinned).
    pub fn reset_pool_stats(&self) {
        self.pool.reset_stats();
    }

    /// Pooled scratch: charges any registration cost the take incurred
    /// (only possible once the prepinned budget is exhausted).
    fn scratch(&self, len: usize) -> simnet::PoolBuf {
        let buf = self.pool.take(len);
        if buf.reg_cost() > 0.0 {
            self.charge(buf.reg_cost());
        }
        buf
    }

    fn params(&self) -> &simnet::BackendParams {
        &self.world.platform().native
    }

    fn charge(&self, dt: f64) {
        self.world.charge_time(dt);
    }

    /// Runs `f` with read access to the target slice bytes.
    fn with_read<R>(
        &self,
        tr: &Translation,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> ArmciResult<R> {
        let allocs = self.allocs.borrow();
        let alloc = allocs
            .get(&tr.alloc)
            .ok_or(ArmciError::GmrVanished { gmr: tr.alloc })?;
        let slice = &alloc.seg.slices[tr.group_rank];
        let _g = slice.lock.read();
        // Safety: `lock` guards all access to `buf`.
        let buf = unsafe { &*slice.buf.get() };
        Ok(f(&buf[tr.disp..tr.disp + len]))
    }

    /// Runs `f` with write access to the target slice bytes.
    fn with_write<R>(
        &self,
        tr: &Translation,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> ArmciResult<R> {
        let allocs = self.allocs.borrow();
        let alloc = allocs
            .get(&tr.alloc)
            .ok_or(ArmciError::GmrVanished { gmr: tr.alloc })?;
        let slice = &alloc.seg.slices[tr.group_rank];
        let _g = slice.lock.write();
        // Safety: `lock` guards all access to `buf`.
        let buf = unsafe { &mut *slice.buf.get() };
        Ok(f(&mut buf[tr.disp..tr.disp + len]))
    }

    /// Moves `seg`-byte segments between `local` and the `len` target
    /// bytes at `tr`, one per `(target, local)` displacement pair in
    /// `segs`, under one acquisition of the target slice's lock: shared
    /// for a get, exclusive for a put or an accumulate.
    fn move_segments(
        &self,
        tr: &Translation,
        len: usize,
        local: Local<'_>,
        segs: impl IntoIterator<Item = (usize, usize)>,
        seg: usize,
    ) -> ArmciResult<()> {
        match local {
            Local::Get(dst) => self.with_read(tr, len, |b| {
                for (r, l) in segs {
                    dst[l..l + seg].copy_from_slice(&b[r..r + seg]);
                }
            }),
            Local::Put(src) => self.with_write(tr, len, |b| {
                for (r, l) in segs {
                    b[r..r + seg].copy_from_slice(&src[l..l + seg]);
                }
            }),
            Local::Acc(kind, src) => self.with_write(tr, len, |b| {
                segs.into_iter()
                    .try_for_each(|(r, l)| kind.apply(&mut b[r..r + seg], &src[l..l + seg]))
            })?,
        }
    }

    fn strided_charge(&self, method: StridedMethodCost, op: Op, nsegs: usize, seg: usize) {
        self.charge(self.params().strided_cost(method, op, nsegs, seg));
    }
}

impl Armci for ArmciNative {
    fn rank(&self) -> usize {
        self.world.rank()
    }

    fn nprocs(&self) -> usize {
        self.world.size()
    }

    fn world_group(&self) -> ArmciGroup {
        ArmciGroup::from_comm(self.world.clone())
    }

    fn malloc_group(&self, bytes: usize, group: &ArmciGroup) -> ArmciResult<Vec<GlobalAddr>> {
        let comm = group.comm();
        // Agree on a segment id (leader allocates, broadcast).
        let id = comm.bcast_u64(0, (comm.rank() == 0).then(|| comm.alloc_uid()));
        self.space.malloc(group, bytes, |sizes| {
            // First registrant constructs the shared segment.
            let candidate: Arc<Segment> = Arc::new(Segment {
                slices: sizes
                    .iter()
                    .map(|&s| Slice {
                        buf: std::cell::UnsafeCell::new(vec![0u8; s].into_boxed_slice()),
                        lock: RwLock::new(()),
                    })
                    .collect(),
                mutexes: Vec::new(),
            });
            let seg = comm
                .shmem_register(id, candidate)
                .downcast::<Segment>()
                .expect("segment type");
            // Everyone must observe the registration before first use.
            comm.barrier();
            let mode = Cell::new(AccessMode::Standard);
            self.allocs
                .borrow_mut()
                .insert(id, Allocation { seg, mode });
            Ok(id)
        })
    }

    fn free_group(&self, addr: GlobalAddr, group: &ArmciGroup) -> ArmciResult<()> {
        let alloc_id = self.space.free(addr, group)?;
        self.allocs
            .borrow_mut()
            .remove(&alloc_id)
            .ok_or(ArmciError::BadAddress {
                rank: addr.rank,
                addr: addr.addr,
            })?;
        let comm = group.comm();
        comm.barrier();
        if comm.rank() == 0 {
            comm.shmem_remove(alloc_id);
        }
        comm.barrier();
        Ok(())
    }

    fn set_access_mode(
        &self,
        addr: GlobalAddr,
        group: &ArmciGroup,
        mode: AccessMode,
    ) -> ArmciResult<()> {
        // Native implementations can exploit these hints (§VIII-A, e.g.
        // enabling adaptive routing); here they quiesce and record.
        let alloc_id = self.space.elect(addr, group)?;
        group.barrier();
        if let Some(a) = self.allocs.borrow().get(&alloc_id) {
            a.mode.set(mode);
        }
        group.barrier();
        Ok(())
    }

    // Shared-memory transfers complete inside the call itself, so a
    // nonblocking transfer legitimately completes eagerly: the returned
    // handle says so (`completed_eagerly`), and `wait` on it is a no-op.
    // This is honest eager completion, not a blocking shim — there is no
    // deferred work a request could name.
    fn xfer(&self, remote: Remote<'_>, mut local: Local<'_>, _nb: bool) -> ArmciResult<NbHandle> {
        if !remote.check(&local)? {
            return Ok(NbHandle::eager());
        }
        let op = match local {
            Local::Get(_) => Op::Get,
            Local::Put(_) => Op::Put,
            Local::Acc(..) => Op::Acc,
        };
        match remote {
            Remote::Contig(addr) => {
                let len = local.len();
                let tr = self.space.translate(addr, len)?;
                self.move_segments(&tr, len, local, [(0, 0)], len)?;
                self.charge(self.params().contig_epoch_cost(op, len));
            }
            // The tuned strided engine: one lock acquisition per patch.
            Remote::Strided {
                addr,
                strides,
                local_strides,
                count,
            } => {
                let (len, seg) = (extent(strides, count), count[0]);
                let tr = self.space.translate(addr, len)?;
                let segs = StridedIter::new(strides, local_strides, count)?;
                self.move_segments(&tr, len, local, segs, seg)?;
                self.strided_charge(StridedMethodCost::Native, op, num_segments(count), seg);
            }
            Remote::Iov(desc) => {
                for (&loff, &raddr) in desc.local_offsets.iter().zip(&desc.remote_addrs) {
                    let tr = self
                        .space
                        .translate(GlobalAddr::new(desc.rank, raddr), desc.bytes)?;
                    let local = local.slice(loff..loff + desc.bytes);
                    self.move_segments(&tr, desc.bytes, local, [(0, 0)], desc.bytes)?;
                }
                self.strided_charge(StridedMethodCost::Native, op, desc.len(), desc.bytes);
            }
        }
        Ok(NbHandle::eager())
    }

    fn copy(&self, src: GlobalAddr, dst: GlobalAddr, bytes: usize) -> ArmciResult<()> {
        if bytes == 0 {
            return Ok(());
        }
        // Bounce through the prepinned staging pool.
        let mut tmp = self.scratch(bytes);
        self.get(src, &mut tmp)?;
        self.put(&tmp, dst)
    }

    fn fence(&self, _proc: usize) -> ArmciResult<()> {
        // Native puts are fire-and-forget; fence waits for remote
        // completion (one round trip).
        self.charge(2.0 * self.params().put.alpha);
        Ok(())
    }

    fn fence_all(&self) -> ArmciResult<()> {
        self.charge(2.0 * self.params().put.alpha);
        Ok(())
    }

    fn barrier(&self) {
        self.fence_all().expect("fence_all cannot fail");
        self.world.barrier();
    }

    fn rmw(&self, op: RmwOp, target: GlobalAddr) -> ArmciResult<i64> {
        let tr = self.space.translate(target, 8)?;
        let old = self.with_write(&tr, 8, |b| {
            let old = i64::from_le_bytes(b[..8].try_into().unwrap());
            let new = match op {
                RmwOp::FetchAdd(x) => old.wrapping_add(x),
                RmwOp::Swap(x) => x,
            };
            b.copy_from_slice(&new.to_le_bytes());
            old
        })?;
        // Hardware / CHT-serviced atomic: single network latency.
        self.charge(self.params().rmw_latency);
        Ok(old)
    }

    fn create_mutexes(&self, count: usize) -> ArmciResult<usize> {
        // Host the mutexes in a dedicated shared segment.
        let comm = &self.world;
        let id_payload = if comm.rank() == 0 {
            Some(comm.alloc_uid())
        } else {
            None
        };
        let id = comm.bcast_u64(0, id_payload);
        let candidate: Arc<Segment> = Arc::new(Segment {
            slices: Vec::new(),
            mutexes: (0..count * comm.size())
                .map(|_| QueueMutex::new())
                .collect(),
        });
        let seg = comm
            .shmem_register(id, candidate)
            .downcast::<Segment>()
            .expect("segment type");
        comm.barrier();
        let handle = self.next_handle.get();
        self.next_handle.set(handle + 1);
        self.user_mutexes.borrow_mut().insert(handle, (seg, count));
        Ok(handle)
    }

    fn lock_mutex(&self, handle: usize, mutex: usize, proc: usize) -> ArmciResult<()> {
        let sets = self.user_mutexes.borrow();
        let (seg, count) = sets
            .get(&handle)
            .ok_or_else(|| ArmciError::MutexMisuse(format!("unknown handle {handle}")))?;
        if mutex >= *count || proc >= self.world.size() {
            return Err(ArmciError::MutexMisuse(format!(
                "mutex {mutex}@{proc} out of range"
            )));
        }
        seg.mutexes[proc * count + mutex].lock();
        self.charge(self.params().rmw_latency);
        Ok(())
    }

    fn unlock_mutex(&self, handle: usize, mutex: usize, proc: usize) -> ArmciResult<()> {
        let sets = self.user_mutexes.borrow();
        let (seg, count) = sets
            .get(&handle)
            .ok_or_else(|| ArmciError::MutexMisuse(format!("unknown handle {handle}")))?;
        if mutex >= *count || proc >= self.world.size() {
            return Err(ArmciError::MutexMisuse(format!(
                "mutex {mutex}@{proc} out of range"
            )));
        }
        seg.mutexes[proc * count + mutex].unlock();
        self.charge(self.params().rmw_latency);
        Ok(())
    }

    fn destroy_mutexes(&self, handle: usize) -> ArmciResult<()> {
        self.user_mutexes
            .borrow_mut()
            .remove(&handle)
            .ok_or_else(|| ArmciError::MutexMisuse(format!("unknown handle {handle}")))?;
        self.world.barrier();
        Ok(())
    }

    fn access_mut(
        &self,
        addr: GlobalAddr,
        len: usize,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> ArmciResult<()> {
        if addr.rank != self.world.rank() {
            return Err(ArmciError::BadDescriptor(
                "direct access to a remote process".into(),
            ));
        }
        let tr = self.space.translate(addr, len)?;
        self.with_write(&tr, len, |b| f(b))
    }

    fn access(&self, addr: GlobalAddr, len: usize, f: &mut dyn FnMut(&[u8])) -> ArmciResult<()> {
        if addr.rank != self.world.rank() {
            return Err(ArmciError::BadDescriptor(
                "direct access to a remote process".into(),
            ));
        }
        let tr = self.space.translate(addr, len)?;
        self.with_read(&tr, len, |b| f(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_mutex_counts_correctly_under_contention() {
        let m = Arc::new(QueueMutex::new());
        let counter = Arc::new(Mutex::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = Arc::clone(&m);
                let c = Arc::clone(&counter);
                s.spawn(move || {
                    for _ in 0..100 {
                        m.lock();
                        {
                            let mut g = c.lock();
                            *g += 1;
                        }
                        m.unlock();
                    }
                });
            }
        });
        assert_eq!(*counter.lock(), 800);
    }

    #[test]
    fn queue_mutex_grants_in_ticket_order() {
        // Single-threaded sanity of the ticket machinery.
        let m = QueueMutex::new();
        m.lock();
        m.unlock();
        m.lock();
        m.unlock();
    }
}
