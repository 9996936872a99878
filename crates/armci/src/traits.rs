//! The `Armci` trait: the contract every runtime implements.

use crate::acc::AccKind;
use crate::error::ArmciResult;
use crate::group::ArmciGroup;
use crate::types::{GlobalAddr, IovDesc};
use crate::xfer::{Local, Remote};

/// Strided transfer methods implemented by ARMCI-MPI (§VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StridedMethod {
    /// One RMA operation per segment, each in its own epoch. Always safe
    /// (segments may overlap or span GMRs).
    IovConservative,
    /// Up to `batch` operations per epoch (`0` = unlimited). Requires
    /// non-overlapping segments within one GMR.
    IovBatched { batch: usize },
    /// Two MPI indexed datatypes, one RMA operation. Requires
    /// non-overlapping segments within one GMR.
    IovDatatype,
    /// Strided notation translated directly to MPI subarray datatypes,
    /// one RMA operation (§VI-C).
    Direct,
    /// Scan the descriptor for overlapping segments (§VI-B) and pick
    /// `IovDatatype` when clean, `IovConservative` otherwise.
    Auto,
}

/// Access-mode hints (paper §VIII-A extension). Not required for
/// correctness; they unlock shared-lock fast paths in ARMCI-MPI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Conflicts possible: exclusive epochs (the default).
    Standard,
    /// The region is only read in this phase: shared locks suffice.
    ReadOnly,
    /// The region is only target of accumulates: shared locks suffice
    /// (accumulates with the same op commute).
    AccumulateOnly,
}

/// Read-modify-write operations (`ARMCI_Rmw`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmwOp {
    /// `ARMCI_FETCH_AND_ADD_LONG`: returns the old value, adds the operand.
    FetchAdd(i64),
    /// `ARMCI_SWAP_LONG`: returns the old value, stores the operand.
    Swap(i64),
}

/// Handle for a nonblocking operation.
///
/// Implementations either defer the operation for real (the handle then
/// carries the runtime-assigned id that [`Armci::wait`] resolves) or
/// complete it at issue time and *say so* via `completed_eagerly` — a
/// handle is never silently synchronous.
#[derive(Debug)]
#[must_use = "nonblocking operations must be waited on"]
pub struct NbHandle {
    /// Runtime-assigned id of the deferred operation (`None` when the
    /// operation completed eagerly).
    pub id: Option<u64>,
    /// True when the implementation completed the operation at issue time
    /// (the honest answer for backends without deferred operations).
    pub completed_eagerly: bool,
}

impl NbHandle {
    /// Handle for an operation that completed at issue time.
    pub fn eager() -> NbHandle {
        NbHandle {
            id: None,
            completed_eagerly: true,
        }
    }

    /// Handle for a genuinely deferred operation.
    pub fn deferred(id: u64) -> NbHandle {
        NbHandle {
            id: Some(id),
            completed_eagerly: false,
        }
    }
}

/// The ARMCI runtime interface.
///
/// All addresses are absolute `⟨process, address⟩` pairs; group-rank
/// translation happens through [`ArmciGroup::absolute_id`] before any
/// communication call, exactly as in the C API.
///
/// An implementation moves data through one method, [`Armci::xfer`]:
/// the fifteen get/put/accumulate verbs — contiguous, strided and I/O
/// vector, blocking and nonblocking — are provided one-liners over it,
/// and so is the default global-to-global [`Armci::copy`].
pub trait Armci {
    // ---------------- identity -----------------------------------------

    /// Absolute process id of the caller.
    fn rank(&self) -> usize;

    /// Number of processes in the world group.
    fn nprocs(&self) -> usize;

    /// The world group.
    fn world_group(&self) -> ArmciGroup;

    /// The caller's current virtual time in seconds, for trace event
    /// stamps. Backends without a clock report 0.0 (events then fall back
    /// to the recording thread's last known time).
    fn vtime(&self) -> f64 {
        0.0
    }

    // ---------------- memory management ---------------------------------

    /// `ARMCI_Malloc`: collectively allocates `bytes` of globally
    /// accessible memory on every member of `group`; returns the base
    /// address vector indexed by **group rank** (NULL for zero-size
    /// slices).
    fn malloc_group(&self, bytes: usize, group: &ArmciGroup) -> ArmciResult<Vec<GlobalAddr>>;

    /// `ARMCI_Malloc` on the world group.
    fn malloc(&self, bytes: usize) -> ArmciResult<Vec<GlobalAddr>> {
        self.malloc_group(bytes, &self.world_group())
    }

    /// `ARMCI_Free` on a group allocation: collectively frees the
    /// allocation whose base on this process is `addr` (NULL if this
    /// process's slice was empty). The §V-B leader-election protocol
    /// resolves which allocation is meant when some callers hold NULL.
    fn free_group(&self, addr: GlobalAddr, group: &ArmciGroup) -> ArmciResult<()>;

    /// `ARMCI_Free` on the world group.
    fn free(&self, addr: GlobalAddr) -> ArmciResult<()> {
        self.free_group(addr, &self.world_group())
    }

    /// Applies an access-mode hint to the allocation whose base on this
    /// process is `addr` (§VIII-A). Collective over the allocation's
    /// group.
    fn set_access_mode(
        &self,
        addr: GlobalAddr,
        group: &ArmciGroup,
        mode: AccessMode,
    ) -> ArmciResult<()>;

    // ---------------- one-sided data movement ----------------------------

    /// Moves data between `local` and the remote shape `remote` — the one
    /// data method a backend implements. `local`'s variant is the
    /// operation (get, put or accumulate). With `nb` the transfer is
    /// nonblocking: a backend either defers it and returns
    /// [`NbHandle::deferred`], which [`Armci::wait`] completes, or
    /// completes it at issue and says so with [`NbHandle::eager`]. A
    /// blocking transfer has completed when the call returns.
    ///
    /// Every implementation first runs the shared shape check,
    /// [`Remote::check`], so a bad descriptor, a local buffer shorter
    /// than its origin shape or a partial accumulate element is a
    /// [`crate::ArmciError::BadDescriptor`] on every backend.
    fn xfer(&self, remote: Remote<'_>, local: Local<'_>, nb: bool) -> ArmciResult<NbHandle>;

    /// `ARMCI_Get`: contiguous read from global memory into `dst`.
    fn get(&self, src: GlobalAddr, dst: &mut [u8]) -> ArmciResult<()> {
        self.xfer(Remote::Contig(src), Local::Get(dst), false)
            .map(drop)
    }

    /// `ARMCI_Put`: contiguous write of `src` into global memory.
    fn put(&self, src: &[u8], dst: GlobalAddr) -> ArmciResult<()> {
        self.xfer(Remote::Contig(dst), Local::Put(src), false)
            .map(drop)
    }

    /// `ARMCI_Acc`: contiguous scaled accumulate into global memory.
    fn acc(&self, kind: AccKind, src: &[u8], dst: GlobalAddr) -> ArmciResult<()> {
        self.xfer(Remote::Contig(dst), Local::Acc(kind, src), false)
            .map(drop)
    }

    /// Global-to-global contiguous copy (the §V-E1 "communicating with
    /// global buffers" case). Implementations must stage through a local
    /// buffer when required to avoid double locking or deadlock; the
    /// default bounces through a fresh one: a get, then a put.
    fn copy(&self, src: GlobalAddr, dst: GlobalAddr, bytes: usize) -> ArmciResult<()> {
        let mut tmp = vec![0u8; bytes];
        self.get(src, &mut tmp)?;
        self.put(&tmp, dst)
    }

    /// `ARMCI_GetS`: strided read. `count[0]` is the contiguous byte run;
    /// `src_strides`/`dst_strides` have length `count.len() - 1`.
    fn get_strided(
        &self,
        src: GlobalAddr,
        src_strides: &[usize],
        dst: &mut [u8],
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<()> {
        let remote = Remote::Strided {
            addr: src,
            strides: src_strides,
            local_strides: dst_strides,
            count,
        };
        self.xfer(remote, Local::Get(dst), false).map(drop)
    }

    /// `ARMCI_PutS`: strided write.
    fn put_strided(
        &self,
        src: &[u8],
        src_strides: &[usize],
        dst: GlobalAddr,
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<()> {
        let remote = Remote::Strided {
            addr: dst,
            strides: dst_strides,
            local_strides: src_strides,
            count,
        };
        self.xfer(remote, Local::Put(src), false).map(drop)
    }

    /// `ARMCI_AccS`: strided scaled accumulate.
    fn acc_strided(
        &self,
        kind: AccKind,
        src: &[u8],
        src_strides: &[usize],
        dst: GlobalAddr,
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<()> {
        let remote = Remote::Strided {
            addr: dst,
            strides: dst_strides,
            local_strides: src_strides,
            count,
        };
        self.xfer(remote, Local::Acc(kind, src), false).map(drop)
    }

    /// `ARMCI_GetV`.
    fn get_iov(&self, desc: &IovDesc, local: &mut [u8]) -> ArmciResult<()> {
        self.xfer(Remote::Iov(desc), Local::Get(local), false)
            .map(drop)
    }

    /// `ARMCI_PutV`.
    fn put_iov(&self, desc: &IovDesc, local: &[u8]) -> ArmciResult<()> {
        self.xfer(Remote::Iov(desc), Local::Put(local), false)
            .map(drop)
    }

    /// `ARMCI_AccV`.
    fn acc_iov(&self, kind: AccKind, desc: &IovDesc, local: &[u8]) -> ArmciResult<()> {
        self.xfer(Remote::Iov(desc), Local::Acc(kind, local), false)
            .map(drop)
    }

    /// `ARMCI_NbGet`.
    fn nb_get(&self, src: GlobalAddr, dst: &mut [u8]) -> ArmciResult<NbHandle> {
        self.xfer(Remote::Contig(src), Local::Get(dst), true)
    }

    /// `ARMCI_NbPut`.
    fn nb_put(&self, src: &[u8], dst: GlobalAddr) -> ArmciResult<NbHandle> {
        self.xfer(Remote::Contig(dst), Local::Put(src), true)
    }

    /// `ARMCI_NbAcc`.
    fn nb_acc(&self, kind: AccKind, src: &[u8], dst: GlobalAddr) -> ArmciResult<NbHandle> {
        self.xfer(Remote::Contig(dst), Local::Acc(kind, src), true)
    }

    /// `ARMCI_NbGetS`: nonblocking strided read.
    fn nb_get_strided(
        &self,
        src: GlobalAddr,
        src_strides: &[usize],
        dst: &mut [u8],
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<NbHandle> {
        let remote = Remote::Strided {
            addr: src,
            strides: src_strides,
            local_strides: dst_strides,
            count,
        };
        self.xfer(remote, Local::Get(dst), true)
    }

    /// `ARMCI_NbPutS`: nonblocking strided write.
    fn nb_put_strided(
        &self,
        src: &[u8],
        src_strides: &[usize],
        dst: GlobalAddr,
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<NbHandle> {
        let remote = Remote::Strided {
            addr: dst,
            strides: dst_strides,
            local_strides: src_strides,
            count,
        };
        self.xfer(remote, Local::Put(src), true)
    }

    /// `ARMCI_NbAccS`: nonblocking strided accumulate.
    fn nb_acc_strided(
        &self,
        kind: AccKind,
        src: &[u8],
        src_strides: &[usize],
        dst: GlobalAddr,
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<NbHandle> {
        let remote = Remote::Strided {
            addr: dst,
            strides: dst_strides,
            local_strides: src_strides,
            count,
        };
        self.xfer(remote, Local::Acc(kind, src), true)
    }

    /// `ARMCI_Wait`: completes the operation behind `handle`. The default
    /// only understands eagerly-completed handles; backends with real
    /// deferred operations must override it.
    fn wait(&self, handle: NbHandle) -> ArmciResult<()> {
        if handle.completed_eagerly {
            Ok(())
        } else {
            Err(crate::ArmciError::Unsupported(
                "deferred nonblocking handles",
            ))
        }
    }

    /// `ARMCI_WaitAll` over an explicit handle list.
    fn wait_all(&self, handles: Vec<NbHandle>) -> ArmciResult<()> {
        for h in handles {
            self.wait(h)?;
        }
        Ok(())
    }

    // ---------------- ordering & synchronisation -------------------------

    /// `ARMCI_Fence`: ensures remote completion of this process's prior
    /// operations targeting `proc`.
    fn fence(&self, proc: usize) -> ArmciResult<()>;

    /// `ARMCI_AllFence`.
    fn fence_all(&self) -> ArmciResult<()>;

    /// `ARMCI_Barrier`: fence-all plus a world barrier.
    fn barrier(&self);

    // ---------------- RMW & mutexes --------------------------------------

    /// `ARMCI_Rmw` on an 8-byte integer in global memory. Atomic with
    /// respect to other ARMCI RMW operations (only — §V-D).
    fn rmw(&self, op: RmwOp, target: GlobalAddr) -> ArmciResult<i64>;

    /// `ARMCI_Create_mutexes`: collectively creates `count` mutexes on
    /// *each* process; returns a handle for the set. Only one set may be
    /// live at a time (as in ARMCI).
    fn create_mutexes(&self, count: usize) -> ArmciResult<usize>;

    /// `ARMCI_Lock(mutex, proc)`: locks mutex number `mutex` hosted on
    /// process `proc`. Blocks without network polling (§V-D).
    fn lock_mutex(&self, handle: usize, mutex: usize, proc: usize) -> ArmciResult<()>;

    /// `ARMCI_Unlock(mutex, proc)`.
    fn unlock_mutex(&self, handle: usize, mutex: usize, proc: usize) -> ArmciResult<()>;

    /// `ARMCI_Destroy_mutexes`: collective.
    fn destroy_mutexes(&self, handle: usize) -> ArmciResult<()>;

    // ---------------- direct local access (paper extension, §V-E) --------

    /// `ARMCI_Access_begin/end` pair as a closure: grants direct load/store
    /// access to `len` bytes of *this process's own* slice at `addr`.
    fn access_mut(
        &self,
        addr: GlobalAddr,
        len: usize,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> ArmciResult<()>;

    /// Read-only direct access.
    fn access(&self, addr: GlobalAddr, len: usize, f: &mut dyn FnMut(&[u8])) -> ArmciResult<()>;
}

/// Typed convenience helpers shared by all implementations.
pub trait ArmciExt: Armci {
    /// Reads `n` f64 values from global memory.
    fn get_f64s(&self, src: GlobalAddr, n: usize) -> ArmciResult<Vec<f64>> {
        let mut buf = vec![0u8; n * 8];
        self.get(src, &mut buf)?;
        Ok(crate::acc::bytes_to_f64s(&buf))
    }

    /// Writes f64 values to global memory.
    fn put_f64s(&self, src: &[f64], dst: GlobalAddr) -> ArmciResult<()> {
        self.put(&crate::acc::f64s_to_bytes(src), dst)
    }

    /// Scaled f64 accumulate.
    fn acc_f64s(&self, scale: f64, src: &[f64], dst: GlobalAddr) -> ArmciResult<()> {
        self.acc(AccKind::Double(scale), &crate::acc::f64s_to_bytes(src), dst)
    }

    /// Fetch-and-add convenience (the GA `NXTVAL` primitive).
    fn fetch_add(&self, target: GlobalAddr, inc: i64) -> ArmciResult<i64> {
        self.rmw(RmwOp::FetchAdd(inc), target)
    }
}

impl<T: Armci + ?Sized> ArmciExt for T {}
