//! **ARMCI-MPI** — the paper's primary contribution: a complete
//! implementation of the ARMCI one-sided runtime on top of MPI passive-
//! target RMA (here, the [`mpisim`] substrate).
//!
//! The design follows Section V of the paper:
//!
//! * **GMR** (global memory regions, [`gmr`]) translate ARMCI global
//!   addresses `⟨process, address⟩` to `(window, rank, displacement)`
//!   triples, and back out group ranks from absolute ids;
//! * every one-sided operation runs inside **its own exclusive passive
//!   epoch** (§V-C), which avoids MPI-2's erroneous conflicting-access
//!   patterns, gives ARMCI's location consistency for free, and makes
//!   `ARMCI_Fence` a no-op (§V-F);
//! * **access-mode hints** (§VIII-A, [`armci::AccessMode`]) relax the
//!   exclusive locks to shared ones for read-only and accumulate-only
//!   phases;
//! * noncontiguous transfers implement all four IOV methods —
//!   *conservative*, *batched*, *direct datatype* and *auto* with the
//!   [`ctree`] conflict scan (§VI-A/B) — and both strided translations:
//!   Algorithm 1 into IOV form, and the direct subarray-datatype method
//!   (§VI-C);
//! * **mutexes** use the Latham et al. RMA queueing algorithm (§V-D),
//!   blocked waiters sleeping in a wildcard receive;
//! * **RMW** (fetch-and-add, swap) runs via the MPI-3 `fetch_and_op`
//!   extension the paper advocates (§VIII-B) — or, with
//!   [`AtomicsMode::MutexFallback`], under a per-GMR mutex in two
//!   exclusive epochs (§V-D);
//! * **direct local access** (§V-E) and **global-buffer staging** (§V-E1)
//!   keep local load/stores and global↔global copies epoch-correct;
//! * **node-aware shared memory** ([`shm`], the §VIII-B outlook):
//!   allocations are backed by per-node `MPI_Win_allocate_shared` slabs,
//!   and plans whose target is a node peer bypass the wire entirely as
//!   direct load/store/accumulate under `win_sync` coherence.

pub mod dla;
pub mod engine;
pub mod gmr;
pub mod iov;
pub mod mutex;
pub mod nxtval;
pub mod ops;
pub mod rmw;
pub mod shm;
pub mod strided;
pub mod transport;

pub use engine::{CoalesceMode, StageStats};
pub use nxtval::NxtvalCounter;
pub use transport::{Transport, TransportKind, TransportStats};

use armci::{
    AccKind, AccessMode, Armci, ArmciError, ArmciGroup, ArmciResult, GlobalAddr, IovDesc, NbHandle,
    RmwOp, StridedMethod,
};
use gmr::{Gmr, GmrTable};
use mpisim::{Comm, Proc};
use mutex::MutexSet;
use simnet::pool::{BufferPool, PoolBuf, RegistrationPolicy};
use simnet::PoolStats;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// How `ARMCI_Rmw` (and the NXTVAL counters built on it) maps onto the
/// backend: native atomics (§VIII-B `fetch_and_op`/`compare_and_swap`)
/// or the paper's §V-D Latham mutex + two-epoch protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AtomicsMode {
    /// The wire backend's 8-byte atomics ([`Transport::fetch_and_op_i64`]
    /// and [`Transport::compare_and_swap_i64`]); every backend prices them.
    #[default]
    Native,
    /// The mutex + two-epoch protocol (the MPI-2 paper path, kept as the
    /// ablation baseline).
    MutexFallback,
}

/// How passive-target progress is made at ranks that are busy computing:
/// the host CPU (stalling origins until the target re-enters MPI) or a
/// per-node asynchronous progress agent that drains pending one-sided
/// traffic on the target's behalf.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgressMode {
    /// Host-CPU progress only (the measured MPI default): an origin's
    /// passive-target rounds stall while the target computes.
    #[default]
    None,
    /// Per-node progress agents, priced by the platform's
    /// [`simnet::ProgressParams`]. Both wire backends route their
    /// software-progressed rounds (lock grants, accumulates, MPI atomics,
    /// flush acknowledgements, the channel's software fallback) through
    /// the agent.
    Agent,
}

/// ARMCI-MPI configuration knobs (the environment variables of the real
/// implementation).
#[derive(Debug, Clone)]
pub struct Config {
    /// Method used by `*_strided` operations.
    pub strided: StridedMethod,
    /// Method used by `*_iov` operations (`Direct` acts as `IovDatatype`).
    pub iov: StridedMethod,
    /// RMW discipline; see [`AtomicsMode`].
    pub atomics: AtomicsMode,
    /// MPI-3 epochless passive mode (§VIII-B(2)): windows are opened with
    /// `lock_all` at allocation; operations are followed by `flush`
    /// instead of running in per-op exclusive epochs; conflicting accesses
    /// become undefined rather than erroneous; RMW uses `fetch_and_op`.
    pub epochless: bool,
    /// Nonblocking-operation coalescing discipline (the scheduler of
    /// [`engine`]): how queued same-target operations are issued at flush.
    pub coalesce: CoalesceMode,
    /// Node-aware shared-memory windows ([`shm`]): allocations are backed
    /// by per-node slabs (`MPI_Win_allocate_shared`) and intra-node plans
    /// bypass the RMA path as direct load/store under the shared window's
    /// `win_sync` discipline. `false` forces every transfer — including
    /// same-node — onto the wire path (the A/B baseline).
    pub shm: bool,
    /// Which wire backend carries inter-node traffic ([`transport`]):
    /// MPI passive-target RMA (the paper's implementation) or RAMC-style
    /// remote memory channels. [`Config::epochless`] only applies to the
    /// MPI backend; the channel backend has no epochs at all.
    pub transport: TransportKind,
    /// Asynchronous-progress discipline; see [`ProgressMode`]. `None`
    /// models host-CPU progress (origins stall behind computing targets),
    /// `Agent` routes passive-target rounds through a per-node agent.
    pub progress: ProgressMode,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            strided: StridedMethod::Direct,
            iov: StridedMethod::Auto,
            atomics: AtomicsMode::Native,
            epochless: false,
            coalesce: CoalesceMode::Auto,
            shm: true,
            transport: TransportKind::MpiRma,
            progress: ProgressMode::None,
        }
    }
}

/// Operation statistics (the real ARMCI-MPI's `ARMCII_Statistics`):
/// counters a user or test can read to see exactly how the runtime mapped
/// their calls onto MPI.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Passive-target epochs opened (lock…unlock pairs).
    pub epochs: u64,
    /// Flush operations (epochless mode).
    pub flushes: u64,
    /// MPI put operations issued.
    pub puts: u64,
    /// MPI get operations issued.
    pub gets: u64,
    /// MPI accumulate operations issued.
    pub accs: u64,
    /// Bytes written by puts.
    pub bytes_put: u64,
    /// Bytes read by gets.
    pub bytes_got: u64,
    /// Bytes combined by accumulates.
    pub bytes_acc: u64,
    /// Read-modify-write operations.
    pub rmws: u64,
    /// RMWs satisfied by a native backend atomic (fetch-and-op / CAS).
    pub rmw_native: u64,
    /// RMWs that took the Latham mutex fallback protocol.
    pub rmw_mutex_fallback: u64,
    /// Failed compare-and-swap attempts (CAS-loop retries).
    pub cas_retries: u64,
    /// Mutex lock operations (user sets and the internal RMW mutexes).
    pub mutex_locks: u64,
    /// Bytes staged through temporary buffers (§V-E1, accumulate
    /// pre-scaling, datatype gathers).
    pub bytes_staged: u64,
}

/// Per-process ARMCI-MPI runtime handle.
///
/// Create one per simulated process inside `Runtime::run`:
///
/// ```
/// use armci::{Armci, ArmciExt};
/// use mpisim::Runtime;
///
/// Runtime::run(2, |p| {
///     let rt = armci_mpi::ArmciMpi::new(p);
///     let bases = rt.malloc(64).unwrap();
///     rt.barrier();
///     if rt.rank() == 0 {
///         rt.put_f64s(&[1.0; 8], bases[1]).unwrap();
///     }
///     rt.barrier();
///     if rt.rank() == 1 {
///         let v = rt.get_f64s(bases[1], 8).unwrap();
///         assert_eq!(v, vec![1.0; 8]);
///     }
///     rt.barrier();
///     rt.free(bases[rt.rank()]).unwrap();
/// });
/// ```
pub struct ArmciMpi {
    pub(crate) world: Comm,
    pub(crate) cfg: Config,
    /// Address-range → GMR translation table (§V-A).
    pub(crate) table: RefCell<GmrTable>,
    /// Live GMRs by window id.
    pub(crate) gmrs: RefCell<HashMap<u64, Gmr>>,
    /// This process's global-address allocator cursor.
    pub(crate) next_addr: Cell<usize>,
    /// User-created mutex sets by handle.
    pub(crate) user_mutexes: RefCell<HashMap<usize, MutexSet>>,
    pub(crate) next_mutex_handle: Cell<usize>,
    pub(crate) stats: RefCell<OpStats>,
    /// Registration-aware scratch pool: every staging, gather and bounce
    /// buffer leases from here. Misses pin fresh pages at first-touch
    /// cost (the Fig-5 penalty); hits run at prepinned rates.
    pub(crate) pool: BufferPool,
    /// Transfer-engine pipeline counters and stage timings.
    pub(crate) stage_stats: RefCell<StageStats>,
    /// Scheduler queues, atomic batches and resolved nonblocking handles.
    pub(crate) nb: RefCell<engine::NbState>,
    /// Committed-datatype cache counters of already-freed windows; live
    /// windows are folded in at snapshot time (the caches themselves live
    /// on the window handles).
    pub(crate) dtype_retired: Cell<(u64, u64)>,
    /// Baseline subtracted from the folded datatype counters, so
    /// [`ArmciMpi::reset_stage_stats`] can zero them without touching the
    /// monotonic per-window counts.
    pub(crate) dtype_base: Cell<(u64, u64)>,
    /// The wire backend every inter-node transfer goes through.
    pub(crate) tx: Box<dyn Transport>,
}

impl ArmciMpi {
    /// The active wire backend.
    pub(crate) fn tx(&self) -> &dyn Transport {
        &*self.tx
    }

    /// Opens an access context on `target` through `tx`: a passive-target
    /// epoch for per-op backends, nothing for epochless or channel
    /// backends. Epoch statistics follow the backend's style.
    pub(crate) fn epoch_begin_via(
        &self,
        tx: &dyn Transport,
        gmr: &gmr::Gmr,
        target: usize,
        mode: mpisim::LockMode,
    ) -> ArmciResult<()> {
        if tx.epoch_style() == transport::EpochStyle::PerOp {
            self.stat(|s| s.epochs += 1);
        }
        tx.epoch_begin(&gmr.win, target, mode)
            .map_err(ArmciError::from)
    }

    /// Closes the access context through `tx`: `unlock`, `flush` (counted
    /// as a flush), or nothing per the backend's style.
    pub(crate) fn epoch_end_via(
        &self,
        tx: &dyn Transport,
        gmr: &gmr::Gmr,
        target: usize,
    ) -> ArmciResult<()> {
        if tx.epoch_style() == transport::EpochStyle::Flush {
            self.stat(|s| s.flushes += 1);
        }
        tx.epoch_end(&gmr.win, target).map_err(ArmciError::from)
    }

    /// [`ArmciMpi::epoch_begin_via`] on the wire backend.
    pub(crate) fn epoch_begin(
        &self,
        gmr: &gmr::Gmr,
        target: usize,
        mode: mpisim::LockMode,
    ) -> ArmciResult<()> {
        self.epoch_begin_via(self.tx(), gmr, target, mode)
    }

    /// [`ArmciMpi::epoch_end_via`] on the wire backend.
    pub(crate) fn epoch_end(&self, gmr: &gmr::Gmr, target: usize) -> ArmciResult<()> {
        self.epoch_end_via(self.tx(), gmr, target)
    }

    /// Bootstraps ARMCI-MPI for this process with the default config.
    pub fn new(proc: &Proc) -> ArmciMpi {
        Self::with_config(proc, Config::default())
    }

    /// Bootstraps with an explicit configuration.
    pub fn with_config(proc: &Proc, cfg: Config) -> ArmciMpi {
        let world = proc.world();
        // MPI has no prepinned segment of its own: scratch pages are
        // registered on demand at first touch and then cached, which is
        // what lets the pool amortize the Fig-5 registration penalty.
        let pool = BufferPool::new(RegistrationPolicy::OnDemand, world.platform().reg.clone());
        let tx = transport::for_kind(cfg.transport, cfg.epochless);
        ArmciMpi {
            tx,
            world,
            cfg,
            pool,
            table: RefCell::new(GmrTable::new()),
            gmrs: RefCell::new(HashMap::new()),
            // Base of this process's global address space; non-zero so
            // that 0 remains NULL.
            next_addr: Cell::new(0x1000),
            user_mutexes: RefCell::new(HashMap::new()),
            next_mutex_handle: Cell::new(1),
            stats: RefCell::new(OpStats::default()),
            stage_stats: RefCell::new(StageStats::default()),
            nb: RefCell::new(engine::NbState::default()),
            dtype_retired: Cell::new((0, 0)),
            dtype_base: Cell::new((0, 0)),
        }
    }

    /// A snapshot of this process's operation statistics.
    pub fn stats(&self) -> OpStats {
        *self.stats.borrow()
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&self) {
        *self.stats.borrow_mut() = OpStats::default();
    }

    /// A snapshot of the transfer engine's per-stage counters and timings.
    /// Committed-datatype cache hits/misses are folded in from every live
    /// window plus the retired total of freed windows, so the counters
    /// stay monotonic across `free` and the [`StageStats::delta`] phase
    /// arithmetic never underflows.
    pub fn stage_stats(&self) -> StageStats {
        let mut g = *self.stage_stats.borrow();
        let (hits, misses) = self.dtype_counts();
        let (bh, bm) = self.dtype_base.get();
        g.dtype_hits = hits - bh;
        g.dtype_misses = misses - bm;
        g
    }

    /// Resets the per-stage counters. Datatype-cache counters are rebased
    /// rather than zeroed (the underlying per-window counts are
    /// monotonic); cached committed shapes are kept.
    pub fn reset_stage_stats(&self) {
        self.dtype_base.set(self.dtype_counts());
        *self.stage_stats.borrow_mut() = StageStats::default();
    }

    /// Total committed-datatype cache consultations: live windows plus
    /// freed ones.
    fn dtype_counts(&self) -> (u64, u64) {
        let (mut hits, mut misses) = self.dtype_retired.get();
        for gmr in self.gmrs.borrow().values() {
            let (h, m, _) = gmr.win.dtype_cache_stats();
            hits += h;
            misses += m;
        }
        (hits, misses)
    }

    pub(crate) fn stat(&self, f: impl FnOnce(&mut OpStats)) {
        f(&mut self.stats.borrow_mut());
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Charges `dt` seconds of runtime-internal overhead (staging copies
    /// and similar) to this rank's virtual clock.
    pub(crate) fn charge(&self, dt: f64) {
        self.world.charge_time(dt);
    }

    /// Cost of a local memcpy of `bytes` (staging).
    pub(crate) fn copy_cost(&self, bytes: usize) -> f64 {
        bytes as f64 / self.world.platform().mpi.pack_rate
    }

    /// Leases `len` bytes of zeroed scratch from the registration-aware
    /// pool. A miss charges the first-touch pin cost to this rank's
    /// virtual clock; a hit reuses already-registered memory for free.
    /// Both outcomes are recorded in [`StageStats`].
    pub(crate) fn scratch(&self, len: usize) -> PoolBuf {
        let buf = self.pool.take(len);
        {
            let mut st = self.stage_stats.borrow_mut();
            if buf.was_hit() {
                st.pool_hits += 1;
            } else {
                st.pool_misses += 1;
                st.pool_reg_s += buf.reg_cost();
            }
        }
        if buf.reg_cost() > 0.0 {
            self.charge(buf.reg_cost());
        }
        buf
    }

    /// A snapshot of the scratch pool's counters (hits, misses, pinned
    /// high-water mark, accounted registration time).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// The wire backend's name (`"mpi-rma"` or `"channel"`).
    pub fn transport_name(&self) -> &'static str {
        self.tx.name()
    }

    /// The configured [`ProgressMode`] as the window-level progress model.
    pub(crate) fn progress_model(&self) -> mpisim::ProgressModel {
        match self.cfg.progress {
            ProgressMode::None => mpisim::ProgressModel::Host,
            ProgressMode::Agent => mpisim::ProgressModel::Agent,
        }
    }

    /// The progress mode as a provenance string for benchmarks and
    /// reports (`"none"` = host-CPU progress, `"agent"` = per-node
    /// agents).
    pub fn progress_mode_name(&self) -> &'static str {
        match self.cfg.progress {
            ProgressMode::None => "none",
            ProgressMode::Agent => "agent",
        }
    }

    /// The wire backend's offload counters (zero on backends without the
    /// offload distinction, i.e. MPI RMA).
    pub fn transport_stats(&self) -> TransportStats {
        self.tx.stats()
    }

    /// Resets the pool counters (cached registrations are kept — only
    /// the statistics are zeroed).
    pub fn reset_pool_stats(&self) {
        self.pool.reset_stats();
    }
}

impl Armci for ArmciMpi {
    fn rank(&self) -> usize {
        self.world.rank()
    }

    fn nprocs(&self) -> usize {
        self.world.size()
    }

    fn vtime(&self) -> f64 {
        self.vnow()
    }

    fn world_group(&self) -> ArmciGroup {
        ArmciGroup::from_comm(self.world.clone())
    }

    fn malloc_group(&self, bytes: usize, group: &ArmciGroup) -> ArmciResult<Vec<GlobalAddr>> {
        self.malloc_impl(bytes, group)
    }

    fn free_group(&self, addr: GlobalAddr, group: &ArmciGroup) -> ArmciResult<()> {
        // Nonblocking operations may still reference the GMR.
        self.nb_quiesce()?;
        self.free_impl(addr, group)
    }

    fn set_access_mode(
        &self,
        addr: GlobalAddr,
        group: &ArmciGroup,
        mode: AccessMode,
    ) -> ArmciResult<()> {
        // The mode switch must not reclassify in-flight operations.
        self.nb_quiesce()?;
        self.set_access_mode_impl(addr, group, mode)
    }

    fn get(&self, src: GlobalAddr, dst: &mut [u8]) -> ArmciResult<()> {
        self.get_impl(src, dst)
    }

    fn put(&self, src: &[u8], dst: GlobalAddr) -> ArmciResult<()> {
        self.put_impl(src, dst)
    }

    fn acc(&self, kind: AccKind, src: &[u8], dst: GlobalAddr) -> ArmciResult<()> {
        self.acc_impl(kind, src, dst)
    }

    fn copy(&self, src: GlobalAddr, dst: GlobalAddr, bytes: usize) -> ArmciResult<()> {
        self.copy_impl(src, dst, bytes)
    }

    fn get_strided(
        &self,
        src: GlobalAddr,
        src_strides: &[usize],
        dst: &mut [u8],
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<()> {
        self.get_strided_impl(src, src_strides, dst, dst_strides, count)
    }

    fn put_strided(
        &self,
        src: &[u8],
        src_strides: &[usize],
        dst: GlobalAddr,
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<()> {
        self.put_strided_impl(src, src_strides, dst, dst_strides, count)
    }

    fn acc_strided(
        &self,
        kind: AccKind,
        src: &[u8],
        src_strides: &[usize],
        dst: GlobalAddr,
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<()> {
        self.acc_strided_impl(kind, src, src_strides, dst, dst_strides, count)
    }

    fn get_iov(&self, desc: &IovDesc, local: &mut [u8]) -> ArmciResult<()> {
        self.get_iov_impl(desc, local, self.cfg.iov)
    }

    fn put_iov(&self, desc: &IovDesc, local: &[u8]) -> ArmciResult<()> {
        self.put_iov_impl(desc, local, self.cfg.iov)
    }

    fn acc_iov(&self, kind: AccKind, desc: &IovDesc, local: &[u8]) -> ArmciResult<()> {
        self.acc_iov_impl(kind, desc, local, self.cfg.iov)
    }

    fn nb_get(&self, src: GlobalAddr, dst: &mut [u8]) -> ArmciResult<NbHandle> {
        self.nb_get_impl(src, dst)
    }

    fn nb_put(&self, src: &[u8], dst: GlobalAddr) -> ArmciResult<NbHandle> {
        self.nb_put_impl(src, dst)
    }

    fn nb_acc(&self, kind: AccKind, src: &[u8], dst: GlobalAddr) -> ArmciResult<NbHandle> {
        self.nb_acc_impl(kind, src, dst)
    }

    fn nb_get_strided(
        &self,
        src: GlobalAddr,
        src_strides: &[usize],
        dst: &mut [u8],
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<NbHandle> {
        self.nb_get_strided_impl(src, src_strides, dst, dst_strides, count)
    }

    fn nb_put_strided(
        &self,
        src: &[u8],
        src_strides: &[usize],
        dst: GlobalAddr,
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<NbHandle> {
        self.nb_put_strided_impl(src, src_strides, dst, dst_strides, count)
    }

    fn nb_acc_strided(
        &self,
        kind: AccKind,
        src: &[u8],
        src_strides: &[usize],
        dst: GlobalAddr,
        dst_strides: &[usize],
        count: &[usize],
    ) -> ArmciResult<NbHandle> {
        self.nb_acc_strided_impl(kind, src, src_strides, dst, dst_strides, count)
    }

    fn wait(&self, handle: NbHandle) -> ArmciResult<()> {
        self.nb_wait(handle)
    }

    fn fence(&self, _proc: usize) -> ArmciResult<()> {
        // §V-F: blocking operations complete remotely before each epoch
        // closes, so fence only has to retire nonblocking aggregates.
        self.nb_quiesce()
    }

    fn fence_all(&self) -> ArmciResult<()> {
        self.nb_quiesce()
    }

    fn barrier(&self) {
        // fence-all + world barrier
        self.nb_quiesce()
            .expect("completing nonblocking operations at barrier");
        self.world.barrier();
    }

    fn rmw(&self, op: RmwOp, target: GlobalAddr) -> ArmciResult<i64> {
        self.rmw_impl(op, target)
    }

    fn create_mutexes(&self, count: usize) -> ArmciResult<usize> {
        self.create_mutexes_impl(count)
    }

    fn lock_mutex(&self, handle: usize, mutex: usize, proc: usize) -> ArmciResult<()> {
        self.lock_mutex_impl(handle, mutex, proc)
    }

    fn unlock_mutex(&self, handle: usize, mutex: usize, proc: usize) -> ArmciResult<()> {
        self.unlock_mutex_impl(handle, mutex, proc)
    }

    fn destroy_mutexes(&self, handle: usize) -> ArmciResult<()> {
        self.destroy_mutexes_impl(handle)
    }

    fn access_mut(
        &self,
        addr: GlobalAddr,
        len: usize,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> ArmciResult<()> {
        self.access_mut_impl(addr, len, f)
    }

    fn access(&self, addr: GlobalAddr, len: usize, f: &mut dyn FnMut(&[u8])) -> ArmciResult<()> {
        self.access_impl(addr, len, f)
    }
}

/// Shared error helper: the address was not found in the translation
/// table.
pub(crate) fn bad_address(addr: GlobalAddr) -> ArmciError {
    ArmciError::BadAddress {
        rank: addr.rank,
        addr: addr.addr,
    }
}
