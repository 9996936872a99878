//! Communicators, groups, and collective operations.
//!
//! A [`Comm`] value is one rank's view of a communicator. Collectives are
//! built on the allgather rendezvous of [`crate::coll`]; their virtual-time
//! cost follows a binomial-tree model. Communicator creation comes in the
//! two flavours ARMCI needs (§IV, §V-A):
//!
//! * **collective** — [`Comm::dup`] and [`Comm::split`], like
//!   `MPI_Comm_dup`/`MPI_Comm_split`;
//! * **noncollective** — [`Comm::create_noncollective`], in which only the
//!   members participate, implemented with the recursive
//!   intercommunicator-create-and-merge pattern of Dinan et al. \[9]
//!   (log₂ n rounds of leader exchanges, then the group leader distributes
//!   the new context id).

use crate::coll::{self, CollectiveCell, ReduceOp};
use crate::p2p::{Envelope, RecvSrc, Status};
use crate::runtime::{Proc, Shared};
use std::sync::Arc;

/// Reserved tag space for internal protocols (noncollective creation).
const TAG_NONCOLL_XCHG: i32 = i32::MIN + 10;
const TAG_NONCOLL_CTX: i32 = i32::MIN + 11;

/// Shared, immutable communicator state.
pub(crate) struct CommInner {
    pub id: u64,
    /// World ranks of the members; index = communicator rank.
    pub members: Vec<usize>,
    pub coll: CollectiveCell,
}

impl CommInner {
    fn comm_rank_of_world(&self, world: usize) -> Option<usize> {
        self.members.iter().position(|&w| w == world)
    }
}

/// One rank's handle on a communicator.
#[derive(Clone)]
pub struct Comm {
    pub(crate) shared: Arc<Shared>,
    pub(crate) inner: Arc<CommInner>,
    my_comm_rank: usize,
    my_world_rank: usize,
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("id", &self.inner.id)
            .field("rank", &self.my_comm_rank)
            .field("size", &self.inner.members.len())
            .finish()
    }
}

impl Comm {
    pub(crate) fn from_inner(proc: &Proc, inner: Arc<CommInner>) -> Comm {
        let my_comm_rank = inner
            .comm_rank_of_world(proc.world_rank)
            .expect("process is not a member of this communicator");
        Comm {
            shared: Arc::clone(&proc.shared),
            inner,
            my_comm_rank,
            my_world_rank: proc.world_rank,
        }
    }

    /// This rank within the communicator.
    pub fn rank(&self) -> usize {
        self.my_comm_rank
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.inner.members.len()
    }

    /// Communicator context id (diagnostic).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// World rank of communicator rank `r`.
    pub fn world_rank_of(&self, r: usize) -> usize {
        self.inner.members[r]
    }

    /// Communicator rank of a world rank, if a member.
    pub fn comm_rank_of_world(&self, world: usize) -> Option<usize> {
        self.inner.comm_rank_of_world(world)
    }

    /// This rank's world rank.
    pub(crate) fn my_world_rank(&self) -> usize {
        self.my_world_rank
    }

    /// Advances this rank's virtual clock by `dt` seconds. Public hook for
    /// layers built on the runtime (e.g. ARMCI staging copies) to model
    /// their own overheads in the same clock domain.
    pub fn charge_time(&self, dt: f64) {
        self.shared.advance(self.my_world_rank, dt, 0.0);
    }

    /// Current virtual time of this rank.
    pub fn clock_now(&self) -> f64 {
        self.shared.clocks[self.my_world_rank].now()
    }

    /// The configured platform (cost model).
    pub fn platform(&self) -> &simnet::Platform {
        &self.shared.cfg.platform
    }

    /// Allocates a runtime-unique id (for shared-segment registration).
    pub fn alloc_uid(&self) -> u64 {
        self.shared.alloc_uid()
    }

    /// Publishes a shared segment under `id` (first writer wins; returns
    /// the registered value). Models OS-level shared memory (XPMEM) used
    /// by native one-sided runtimes.
    pub fn shmem_register(
        &self,
        id: u64,
        value: std::sync::Arc<dyn std::any::Any + Send + Sync>,
    ) -> std::sync::Arc<dyn std::any::Any + Send + Sync> {
        let mut map = self.shared.shmem.write();
        std::sync::Arc::clone(map.entry(id).or_insert(value))
    }

    /// Removes a shared segment registration.
    pub fn shmem_remove(&self, id: u64) {
        self.shared.shmem.write().remove(&id);
    }

    /// Binomial-tree collective cost for per-rank payloads of `bytes`.
    fn coll_cost(&self, bytes: usize) -> f64 {
        let p = self.size() as f64;
        let stages = p.log2().ceil().max(1.0);
        let link = &self.shared.cfg.platform.mpi.put;
        stages * link.xfer_time(bytes.max(8))
    }

    /// Rendezvous with every member, stamping this rank's virtual arrival
    /// time into the exchange. Returns this rank's arrival time and the
    /// published outcome (round, latest arrival, straggler, contributions).
    ///
    /// World-sized collectives double as the progress board's phase
    /// boundaries: each rank publishes its compute profile *before* the
    /// rendezvous, so by the time anyone leaves, every rank's snapshot
    /// for this phase is readable (see [`crate::progress`]).
    fn coll_exchange(&self, data: Vec<u8>) -> (f64, coll::CollOutcome) {
        let now = self.clock_now();
        if self.inner.members.len() == self.shared.nranks {
            self.shared.progress.publish(self.my_world_rank, now);
        }
        (now, self.inner.coll.exchange(self.my_comm_rank, data, now))
    }

    /// Leaves a collective: every member departs at `max(arrival) + cost`,
    /// each advancing **its own** clock only. (Bumping peer clocks after
    /// the rendezvous releases would race with a member that has already
    /// resumed timed work and inflate its measurements.) Records the
    /// collective span and — for every rank that arrived before the
    /// straggler — the blocked share as a progress wait; recording charges
    /// nothing, so makespans are identical with the recorder on or off.
    fn coll_leave(&self, arrival: f64, out: &coll::CollOutcome, cost: f64) {
        self.shared
            .advance(self.my_world_rank, 0.0, out.t_max + cost);
        if obs::enabled() {
            let leave = self.clock_now();
            let src = self.inner.members[out.straggler] as u32;
            let comm = self.inner.id;
            let seq = out.seq;
            let wait = out.t_max - arrival;
            let t_max = out.t_max;
            obs::batch(|b| {
                if wait > 0.0 {
                    b.span(
                        obs::EventKind::Wait {
                            cat: obs::WaitCat::Straggler,
                            src,
                            obj: comm,
                        },
                        arrival,
                        t_max,
                    );
                }
                b.span(obs::EventKind::Coll { comm, seq, src }, arrival, leave);
            });
        }
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Eager buffered send to communicator rank `dest`.
    pub fn send(&self, dest: usize, tag: i32, data: &[u8]) {
        assert!(dest < self.size(), "send: bad rank {dest}");
        let params = &self.shared.cfg.platform.mpi;
        self.charge_time(params.op_overhead + params.put.xfer_time(data.len()));
        let arrives_at = self.clock_now();
        let world_dest = self.inner.members[dest];
        self.shared.mailboxes[world_dest].deliver(Envelope {
            comm: self.inner.id,
            src_comm_rank: self.my_comm_rank,
            tag,
            data: data.to_vec(),
            arrives_at,
        });
    }

    /// Blocking receive. `src` may be [`RecvSrc::Any`], `tag` may be
    /// [`crate::ANY_TAG`].
    pub fn recv(&self, src: RecvSrc, tag: i32) -> (Vec<u8>, Status) {
        let env = self.shared.mailboxes[self.my_world_rank].recv(self.inner.id, src, tag);
        let op_overhead = self.shared.cfg.platform.mpi.op_overhead;
        self.shared
            .advance(self.my_world_rank, op_overhead, env.arrives_at);
        let status = Status {
            source: env.src_comm_rank,
            tag: env.tag,
            len: env.data.len(),
        };
        (env.data, status)
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// Barrier over all members.
    pub fn barrier(&self) {
        let (arr, out) = self.coll_exchange(Vec::new());
        self.coll_leave(arr, &out, self.coll_cost(0));
    }

    /// Allgather of one `u64` per rank — the typed fast path for window
    /// and allocation metadata exchanges (no per-rank `Vec` decoding,
    /// no `try_into().unwrap()` at every call site).
    pub(crate) fn allgather_u64(&self, v: u64) -> Vec<u64> {
        self.allgather_u64s(&[v]).iter().map(|p| p[0]).collect()
    }

    /// Allgather of a fixed-length `u64` record per rank.
    pub fn allgather_u64s(&self, vals: &[u64]) -> Vec<Vec<u64>> {
        let mut buf = Vec::with_capacity(vals.len() * 8);
        coll::wire::put_u64s(&mut buf, vals);
        let (arr, out) = self.coll_exchange(buf);
        self.coll_leave(arr, &out, self.coll_cost(vals.len() * 8));
        out.data
            .iter()
            .map(|b| coll::wire::get_u64s(b, vals.len()).0)
            .collect()
    }

    /// Broadcast of one `u64` from `root` (id distribution).
    pub fn bcast_u64(&self, root: usize, v: Option<u64>) -> u64 {
        assert!(root < self.size(), "bcast: bad root {root}");
        let mine = match (self.my_comm_rank == root, v) {
            (true, Some(x)) => {
                let mut b = Vec::with_capacity(8);
                coll::wire::put_u64s(&mut b, &[x]);
                b
            }
            (true, None) => panic!("root must supply the broadcast payload"),
            (false, _) => Vec::new(),
        };
        let (arr, out) = self.coll_exchange(mine);
        self.coll_leave(arr, &out, self.coll_cost(8));
        coll::wire::get_u64s(&out.data[root], 1).0[0]
    }

    /// Broadcast from `root`: the root passes `Some(payload)`, everyone
    /// receives the payload.
    pub fn bcast_bytes(&self, root: usize, data: Option<Vec<u8>>) -> Vec<u8> {
        assert!(root < self.size(), "bcast: bad root {root}");
        let mine = if self.my_comm_rank == root {
            data.expect("root must supply the broadcast payload")
        } else {
            Vec::new()
        };
        let (arr, out) = self.coll_exchange(mine);
        self.coll_leave(arr, &out, self.coll_cost(out.data[root].len()));
        out.data[root].clone()
    }

    /// Element-wise allreduce over `f64` vectors.
    pub fn allreduce_f64(&self, op: ReduceOp, vals: &[f64]) -> Vec<f64> {
        let mut buf = Vec::with_capacity(vals.len() * 8);
        coll::wire::put_f64s(&mut buf, vals);
        let (arr, out) = self.coll_exchange(buf);
        self.coll_leave(arr, &out, self.coll_cost(vals.len() * 8));
        let vecs: Vec<Vec<f64>> = out.data.iter().map(|b| coll::wire::get_f64s(b)).collect();
        coll::reduce_f64(op, &vecs)
    }

    /// Element-wise allreduce over `i64` vectors.
    pub fn allreduce_i64(&self, op: ReduceOp, vals: &[i64]) -> Vec<i64> {
        let mut buf = Vec::with_capacity(vals.len() * 8);
        coll::wire::put_i64s(&mut buf, vals);
        let (arr, out) = self.coll_exchange(buf);
        self.coll_leave(arr, &out, self.coll_cost(vals.len() * 8));
        let vecs: Vec<Vec<i64>> = out.data.iter().map(|b| coll::wire::get_i64s(b)).collect();
        coll::reduce_i64(op, &vecs)
    }

    /// MAXLOC allreduce: returns the maximum contributed value and the
    /// lowest communicator rank that contributed it. Used for the
    /// leader-election step of `ARMCI_Free` (§V-B).
    pub fn maxloc_i64(&self, value: i64) -> (i64, usize) {
        let mut buf = Vec::with_capacity(8);
        coll::wire::put_i64s(&mut buf, &[value]);
        let (arr, out) = self.coll_exchange(buf);
        self.coll_leave(arr, &out, self.coll_cost(8));
        let pairs: Vec<(i64, usize)> = out
            .data
            .iter()
            .enumerate()
            .map(|(i, b)| (coll::wire::get_i64s(b)[0], i))
            .collect();
        coll::maxloc_i64(&pairs)
    }

    // ------------------------------------------------------------------
    // Communicator creation
    // ------------------------------------------------------------------

    fn register_comm(&self, id: u64, members: Vec<usize>) -> Arc<CommInner> {
        let mut comms = self.shared.comms.write();
        Arc::clone(comms.entry(id).or_insert_with(|| {
            Arc::new(CommInner {
                id,
                coll: CollectiveCell::new(members.len()),
                members,
            })
        }))
    }

    fn comm_from(&self, inner: Arc<CommInner>) -> Comm {
        let my_comm_rank = inner
            .comm_rank_of_world(self.my_world_rank)
            .expect("not a member of the created communicator");
        Comm {
            shared: Arc::clone(&self.shared),
            inner,
            my_comm_rank,
            my_world_rank: self.my_world_rank,
        }
    }

    /// Collective duplicate (`MPI_Comm_dup`).
    pub fn dup(&self) -> Comm {
        // Rank 0 allocates the context id and broadcasts it.
        let id = if self.my_comm_rank == 0 {
            Some(self.shared.alloc_comm_id())
        } else {
            None
        };
        let id = self.bcast_u64(0, id);
        let inner = self.register_comm(id, self.inner.members.clone());
        self.comm_from(inner)
    }

    /// Collective split (`MPI_Comm_split`). `color < 0` acts like
    /// `MPI_UNDEFINED`: the caller gets `None`. Members of each colour are
    /// ordered by `(key, old rank)`.
    pub fn split(&self, color: i64, key: i64) -> Option<Comm> {
        // Round 1: gather (color, key) from everyone.
        let all = self.allgather_u64s(&[color as u64, key as u64]);
        let entries: Vec<(i64, i64)> = all.iter().map(|v| (v[0] as i64, v[1] as i64)).collect();
        // Compute my group (world ranks ordered by (key, old comm rank)).
        let my_group: Vec<usize> = if color >= 0 {
            let mut g: Vec<(i64, usize)> = entries
                .iter()
                .enumerate()
                .filter(|&(_, &(c, _))| c == color)
                .map(|(r, &(_, k))| (k, r))
                .collect();
            g.sort_unstable();
            g.into_iter().map(|(_, r)| self.inner.members[r]).collect()
        } else {
            Vec::new()
        };
        // Round 2: each group's leader (its first member) allocates a
        // context id; gather them so every member learns its group's id.
        let leader_world = my_group.first().copied();
        let my_id = if color >= 0 && leader_world == Some(self.my_world_rank) {
            self.shared.alloc_comm_id()
        } else {
            u64::MAX
        };
        let ids = self.allgather_u64(my_id);
        if color < 0 {
            return None;
        }
        let leader_world = leader_world.expect("non-empty group");
        let leader_old_rank = self
            .inner
            .comm_rank_of_world(leader_world)
            .expect("leader is a member");
        let id = ids[leader_old_rank];
        let inner = self.register_comm(id, my_group);
        Some(self.comm_from(inner))
    }

    /// **Noncollective** communicator creation: only the listed members
    /// call this (with an identical, sorted list of ranks *in this
    /// communicator*). Implements the recursive merge of \[9]: in round
    /// `k`, chunks of `2^k` members pair up and their leaders exchange
    /// group information; finally the overall leader allocates the context
    /// id and distributes it.
    pub fn create_noncollective(&self, members: &[usize]) -> Comm {
        assert!(!members.is_empty(), "empty group");
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "member list must be strictly sorted"
        );
        let me = members
            .iter()
            .position(|&r| r == self.my_comm_rank)
            .expect("caller must be a member");
        let n = members.len();

        // Recursive doubling: leaders of sibling chunks exchange their
        // chunk extents. All members already know `members`, so the
        // payload is a formality that prices and exercises the pattern.
        let mut k = 1usize;
        let mut round = 0i32;
        while k < n {
            let chunk = me / (2 * k) * (2 * k);
            let is_left = me < chunk + k;
            let my_leader = if is_left { chunk } else { chunk + k };
            if me == my_leader {
                let sibling = if is_left { chunk + k } else { chunk };
                if sibling < n {
                    let payload = (members[chunk] as u64).to_le_bytes();
                    self.send(members[sibling], TAG_NONCOLL_XCHG + round, &payload);
                    let _ = self.recv(RecvSrc::Rank(members[sibling]), TAG_NONCOLL_XCHG + round);
                }
            }
            k *= 2;
            round += 1;
        }

        // Leader allocates the id and sends it to every other member.
        let id = if me == 0 {
            let id = self.shared.alloc_comm_id();
            for &m in &members[1..] {
                self.send(m, TAG_NONCOLL_CTX, &id.to_le_bytes());
            }
            id
        } else {
            let (bytes, _) = self.recv(RecvSrc::Rank(members[0]), TAG_NONCOLL_CTX);
            coll::wire::get_u64s(&bytes, 1).0[0]
        };
        let world_members: Vec<usize> = members.iter().map(|&r| self.inner.members[r]).collect();
        let inner = self.register_comm(id, world_members);
        self.comm_from(inner)
    }
}
