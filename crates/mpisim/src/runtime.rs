//! Runtime bootstrap: one OS thread per simulated MPI process.

use crate::coll::CollectiveCell;
use crate::comm::{Comm, CommInner};
use crate::p2p::Mailbox;
use crate::progress::ProgressBoard;
use crate::sync::{self, Abort};
use crate::win::WinInner;
use parking_lot::{Mutex, RwLock};
use simnet::{CongestionParams, Network, Platform, PlatformId, VClock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Runtime-wide configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Platform whose cost model prices every operation. The MPI-side
    /// parameters (`platform.mpi`) are used by this crate.
    pub platform: Platform,
    /// When true, the runtime detects and reports access patterns that the
    /// MPI-2 standard declares erroneous (conflicting RMA operations within
    /// an epoch, double locking). Mirrors a debugging MPI build.
    pub semantic_checks: bool,
    /// When true, operations advance the per-rank virtual clocks.
    pub charge_time: bool,
    /// When set, inter-node RMA contends for shared per-node NICs (see
    /// [`simnet::net`]): concurrent transfers on one link queue behind
    /// each other instead of each seeing the full bandwidth. `None`
    /// (the default) keeps the classic independent-op pricing.
    pub congestion: Option<CongestionParams>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            platform: Platform::get(PlatformId::InfiniBandCluster),
            semantic_checks: true,
            charge_time: true,
            congestion: None,
        }
    }
}

impl RuntimeConfig {
    /// Config for a given platform with checks on.
    pub fn on_platform(id: PlatformId) -> Self {
        RuntimeConfig {
            platform: Platform::get(id),
            ..Default::default()
        }
    }
}

/// State shared by all ranks of one runtime instance.
pub(crate) struct Shared {
    pub nranks: usize,
    pub cfg: RuntimeConfig,
    pub clocks: Vec<VClock>,
    pub mailboxes: Vec<Mailbox>,
    pub comms: RwLock<HashMap<u64, Arc<CommInner>>>,
    pub next_comm_id: AtomicU64,
    pub wins: RwLock<HashMap<u64, Arc<WinInner>>>,
    pub next_win_id: AtomicU64,
    /// Ids of freed windows, reused by [`Shared::alloc_win_id`] so
    /// alloc/free cycles keep the id space (and every table keyed by
    /// window id) bounded instead of growing monotonically.
    pub free_win_ids: Mutex<Vec<u64>>,
    /// Generic shared-segment registry: lets higher layers (e.g. the
    /// native ARMCI baseline, which models XPMEM-style shared memory)
    /// publish cross-rank state without going through MPI windows.
    pub shmem: RwLock<HashMap<u64, Arc<dyn std::any::Any + Send + Sync>>>,
    pub next_uid: AtomicU64,
    /// Shared-NIC congestion model; populated iff `cfg.congestion` is set.
    pub net: Option<Network>,
    /// Passive-target progress board: per-rank compute meters plus the
    /// phase profiles published at world-collective entries (see
    /// [`crate::progress`]).
    pub progress: ProgressBoard,
    /// Which rank panicked first; set, it fails every parked wait.
    pub abort: Arc<Abort>,
}

pub(crate) const WORLD_COMM_ID: u64 = 0;

impl Shared {
    fn new(nranks: usize, cfg: RuntimeConfig) -> Arc<Shared> {
        let world = Arc::new(CommInner {
            id: WORLD_COMM_ID,
            members: (0..nranks).collect(),
            coll: CollectiveCell::new(nranks),
        });
        let mut comms = HashMap::new();
        comms.insert(WORLD_COMM_ID, world);
        let net = cfg.congestion.clone().map(|p| {
            let per_node = cfg.platform.cores_per_node().max(1) as usize;
            Network::new(nranks.div_ceil(per_node).max(1), p)
        });
        Arc::new(Shared {
            nranks,
            cfg,
            clocks: (0..nranks).map(|_| VClock::new()).collect(),
            mailboxes: (0..nranks).map(|_| Mailbox::new()).collect(),
            comms: RwLock::new(comms),
            next_comm_id: AtomicU64::new(1),
            wins: RwLock::new(HashMap::new()),
            next_win_id: AtomicU64::new(1),
            free_win_ids: Mutex::new(Vec::new()),
            shmem: RwLock::new(HashMap::new()),
            next_uid: AtomicU64::new(1),
            net,
            progress: ProgressBoard::new(nranks),
            abort: Abort::new(),
        })
    }

    /// Allocates a fresh communicator id.
    pub(crate) fn alloc_comm_id(&self) -> u64 {
        self.next_comm_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocates a window id, preferring ids recycled by
    /// [`Shared::recycle_win_id`] over growing the counter.
    pub(crate) fn alloc_win_id(&self) -> u64 {
        if let Some(id) = self.free_win_ids.lock().pop() {
            return id;
        }
        self.next_win_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns a window id to the free list. Called exactly once per
    /// freed window, after its `wins` entry has been removed.
    pub(crate) fn recycle_win_id(&self, id: u64) {
        self.free_win_ids.lock().push(id);
    }

    /// Wakes every waiter parked on the runtime's mailboxes, collective
    /// cells and window locks (see [`crate::sync`]).
    fn wake_all(&self) {
        for mailbox in &self.mailboxes {
            mailbox.wake();
        }
        for comm in self.comms.read().values() {
            comm.coll.wake();
        }
        for win in self.wins.read().values() {
            win.wake();
        }
    }

    /// Allocates a fresh generic uid (shared-segment registry keys).
    pub fn alloc_uid(&self) -> u64 {
        self.next_uid.fetch_add(1, Ordering::Relaxed)
    }

    /// The clock gate: advances world rank `rank`'s clock by `dt`, then to
    /// at least `floor`. Every clock moves only here, and only its own
    /// rank's thread moves it. This is the one reader of
    /// [`RuntimeConfig::charge_time`], so with charging off every clock
    /// reads 0.0.
    pub(crate) fn advance(&self, rank: usize, dt: f64, floor: f64) {
        if self.cfg.charge_time {
            let clock = &self.clocks[rank];
            clock.advance(dt);
            clock.advance_to(floor);
        }
    }
}

/// Handle held by each simulated process ("rank").
pub struct Proc {
    pub(crate) world_rank: usize,
    pub(crate) shared: Arc<Shared>,
}

impl Proc {
    /// This process's rank in the world communicator.
    pub fn rank(&self) -> usize {
        self.world_rank
    }

    /// Number of processes in the world.
    pub fn size(&self) -> usize {
        self.shared.nranks
    }

    /// The world communicator.
    pub fn world(&self) -> Comm {
        let inner = self.shared.comms.read()[&WORLD_COMM_ID].clone();
        Comm::from_inner(self, inner)
    }

    /// This rank's virtual clock.
    pub fn clock(&self) -> &VClock {
        &self.shared.clocks[self.world_rank]
    }

    /// The MPI-backend cost parameters of the configured platform.
    pub fn params(&self) -> &simnet::BackendParams {
        &self.shared.cfg.platform.mpi
    }

    /// Runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.shared.cfg
    }

    /// Models local computation taking `seconds` of virtual time. The
    /// span is also fed to this rank's compute meter on the progress
    /// board, from which peers price expected passive-target stalls.
    pub fn compute(&self, seconds: f64) {
        self.shared.progress.note_compute(self.world_rank, seconds);
        let t0 = self.clock().now();
        self.shared.advance(self.world_rank, seconds, 0.0);
        if obs::enabled() {
            obs::span(obs::EventKind::Compute, t0, self.clock().now());
        }
    }
}

/// Marks the calling thread as rank `rank` of `shared`'s runtime while
/// it lives. Dropped by a panic, it records the rank as the runtime's
/// first to panic, unless another one already is, and wakes every
/// parked waiter so that it fails too.
struct RankGuard {
    shared: Arc<Shared>,
    rank: usize,
}

impl RankGuard {
    fn enter(shared: &Arc<Shared>, rank: usize) -> RankGuard {
        sync::set_abort(Some(&shared.abort));
        RankGuard {
            shared: Arc::clone(shared),
            rank,
        }
    }
}

impl Drop for RankGuard {
    fn drop(&mut self) {
        if std::thread::panicking() && self.shared.abort.record(self.rank) {
            self.shared.wake_all();
        }
        sync::set_abort(None);
    }
}

/// Entry point: spawns `nranks` threads and runs `f` as each rank's main.
///
/// ```
/// use mpisim::coll::ReduceOp;
/// use mpisim::Runtime;
///
/// let sums = Runtime::run(4, |p| {
///     let world = p.world();
///     world.allreduce_i64(ReduceOp::Sum, &[p.rank() as i64])[0]
/// });
/// assert_eq!(sums, vec![6, 6, 6, 6]);
/// ```
pub struct Runtime;

impl Runtime {
    /// Runs an SPMD program on `nranks` simulated processes with the given
    /// configuration; returns each rank's result, indexed by rank.
    ///
    /// Panics in any rank propagate (the whole run aborts), matching an MPI
    /// job dying on error: a peer waiting on the panicking rank (for a
    /// lock, a message or a collective) panics in turn instead of waiting
    /// for ever, and once every rank has stopped, the first rank's panic
    /// is re-raised here.
    pub fn run_with<F, R>(nranks: usize, cfg: RuntimeConfig, f: F) -> Vec<R>
    where
        F: Fn(&Proc) -> R + Send + Sync,
        R: Send,
    {
        assert!(nranks > 0, "need at least one rank");
        let shared = Shared::new(nranks, cfg);
        let rec = obs::recorder();
        let results: Vec<_> = std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(nranks);
            for rank in 0..nranks {
                let shared = Arc::clone(&shared);
                let rec = rec.clone();
                let f = &f;
                handles.push(s.spawn(move || {
                    // Record into the spawning thread's recorder, tagged
                    // with this rank; the thread-local buffer flushes
                    // into it when the thread exits, i.e. before
                    // `run_with` returns.
                    obs::attach(rec, rank);
                    let _rank = RankGuard::enter(&shared, rank);
                    let proc = Proc {
                        world_rank: rank,
                        shared,
                    };
                    f(&proc)
                }));
            }
            // The explicit join is what makes the recorder's exit flush
            // visible to the caller: it returns only after the rank
            // thread's thread-locals are destroyed, whereas the scope's
            // implicit join may return before `obs`'s TLS drop has run.
            handles.into_iter().map(|h| h.join()).collect()
        });
        if let Some(first) = shared.abort.first() {
            // The other panics are peers that stopped waiting for it.
            let payload = results.into_iter().nth(first).and_then(Result::err);
            std::panic::resume_unwind(payload.expect("the first panic's payload"));
        }
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    }

    /// [`Runtime::run_with`] under the default (InfiniBand, checks-on)
    /// configuration.
    pub fn run<F, R>(nranks: usize, f: F) -> Vec<R>
    where
        F: Fn(&Proc) -> R + Send + Sync,
        R: Send,
    {
        Self::run_with(nranks, RuntimeConfig::default(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_distinct_and_complete() {
        let mut ranks = Runtime::run(8, |p| p.rank());
        ranks.sort_unstable();
        assert_eq!(ranks, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn size_is_visible_everywhere() {
        let sizes = Runtime::run(5, |p| p.size());
        assert!(sizes.iter().all(|&s| s == 5));
    }

    #[test]
    fn world_comm_has_identity_mapping() {
        Runtime::run(4, |p| {
            let w = p.world();
            assert_eq!(w.rank(), p.rank());
            assert_eq!(w.size(), 4);
        });
    }

    #[test]
    fn compute_advances_clock() {
        Runtime::run(2, |p| {
            p.compute(1.25);
            assert!((p.clock().now() - 1.25).abs() < 1e-12);
        });
    }

    /// Every path that charges time leaves every clock at exactly 0.0
    /// when charging is off: p2p, collectives, an MPI-2 epoch, an MPI-3
    /// epoch with its flush and atomic, and compute.
    #[test]
    fn charge_time_can_be_disabled() {
        use crate::coll::ReduceOp;
        use crate::mpi3::FetchOp;
        use crate::{LockMode, RecvSrc, WinHandle};
        let cfg = RuntimeConfig {
            charge_time: false,
            ..Default::default()
        };
        let clocks = Runtime::run_with(2, cfg, |p| {
            let w = p.world();
            let peer = 1 - p.rank();
            if p.rank() == 0 {
                w.send(peer, 0, &[1; 64]);
            } else {
                w.recv(RecvSrc::Rank(peer), 0);
            }
            w.barrier();
            w.allreduce_f64(ReduceOp::Sum, &[1.0]);
            let win = WinHandle::create(&w, 64);
            win.lock(LockMode::Exclusive, peer).unwrap();
            win.put_bytes(&[2; 8], peer, 0).unwrap();
            win.unlock(peer).unwrap();
            win.lock_all().unwrap();
            win.fetch_and_op_i64(1, peer, 8, FetchOp::Sum).unwrap();
            win.flush(peer).unwrap();
            win.unlock_all().unwrap();
            p.compute(1.0);
            w.barrier();
            win.free().unwrap();
            p.clock().now()
        });
        assert_eq!(clocks, vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        Runtime::run(0, |_| ());
    }
}
