//! **ARMCI-DS** — ARMCI implemented over *two-sided* MPI messaging with
//! dedicated data-server processes.
//!
//! The paper's related-work section (§IX) describes this design — it had
//! shipped with ARMCI for years as the portable fallback: "a data server
//! process on each node … services requests to read from and write to
//! this data. However, this approach does not utilize MPI's one-sided
//! functionality and has several overheads, including consumption of a
//! core, bottlenecking on the data server, and two-sided messaging
//! overheads such as tag matching."
//!
//! This crate reproduces that design faithfully so the paper's comparison
//! can be made executable:
//!
//! * every *compute* process is paired with a *server* process that owns
//!   its global memory and loops on wildcard receives;
//! * all one-sided semantics are emulated with request/reply messages —
//!   even `ARMCI_Access` (direct local access) becomes a round trip,
//!   because the data lives in the server's address space;
//! * mutexes and RMW are serviced in the server's event loop (this is the
//!   CHT of native ports, promoted to a whole process);
//! * the **core consumption** overhead is structural: a job that would
//!   run on `2n` cores computes on only `n`.
//!
//! Use [`run_with_servers`] to launch: it spawns `2n` simulated processes,
//! runs the application closure on the `n` compute ranks, and runs server
//! loops on the other `n`.

#![forbid(unsafe_code)]

mod protocol;
mod server;

use armci::stride::extent;
use armci::{
    AccessMode, AddressSpace, Armci, ArmciError, ArmciGroup, ArmciResult, GlobalAddr, Local,
    NbHandle, Remote, RmwOp, StridedIter,
};
use mpisim::{Comm, Proc, RecvSrc, Runtime, RuntimeConfig};
use protocol::{Reply, Request, TAG_REPLY, TAG_REQUEST};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// Launches an SPMD program on `ncompute` compute processes, each paired
/// with a data-server process (so `2·ncompute` simulated processes in
/// total). The closure receives the compute-rank [`Proc`] and a ready
/// [`ArmciDs`] handle.
///
/// ```
/// use armci::{Armci, ArmciExt};
/// use armci_ds::run_with_servers;
/// use mpisim::RuntimeConfig;
///
/// let cfg = RuntimeConfig { charge_time: false, ..Default::default() };
/// run_with_servers(2, cfg, |_p, rt| {
///     let bases = rt.malloc(64).unwrap();
///     rt.barrier();
///     if rt.rank() == 0 {
///         rt.put_f64s(&[3.5], bases[1]).unwrap();
///         assert_eq!(rt.get_f64s(bases[1], 1).unwrap(), vec![3.5]);
///     }
///     rt.barrier();
///     rt.free(bases[rt.rank()]).unwrap();
/// });
/// ```
pub fn run_with_servers<F, R>(ncompute: usize, cfg: RuntimeConfig, f: F) -> Vec<R>
where
    F: Fn(&Proc, &ArmciDs) -> R + Send + Sync,
    R: Send + Default,
{
    let results = Runtime::run_with(2 * ncompute, cfg, move |p| {
        let world = p.world();
        if p.rank() < ncompute {
            let rt = ArmciDs::new(p, ncompute);
            let r = f(p, &rt);
            rt.shutdown();
            Some(r)
        } else {
            server::serve(p, &world, ncompute);
            None
        }
    });
    results
        .into_iter()
        .take(ncompute)
        .map(|r| r.expect("compute rank result"))
        .collect()
}

/// Packs the `seg`-byte runs of `src` at `offs` back to back.
fn pack(src: &[u8], offs: impl Iterator<Item = usize>, seg: usize) -> Vec<u8> {
    let mut data = Vec::new();
    for l in offs {
        data.extend_from_slice(&src[l..l + seg]);
    }
    data
}

/// The error a failed or mismatched data reply stands for.
fn bad_reply(reply: Reply) -> ArmciError {
    ArmciError::BadDescriptor(match reply {
        Reply::Err(e) => e,
        _ => "unexpected reply".into(),
    })
}

/// Per-compute-process handle for the data-server ARMCI.
pub struct ArmciDs {
    world: Comm,
    ncompute: usize,
    /// Cached compute-ranks group (created once, collectively, at
    /// construction — all compute ranks build their handle together).
    compute_group: ArmciGroup,
    /// Address cursor and `(compute rank, address) → allocation id`
    /// translation, the same [`AddressSpace`] the other backends use.
    space: AddressSpace<u64>,
    next_mutex_handle: Cell<usize>,
    mutex_counts: RefCell<HashMap<usize, usize>>,
}

impl ArmciDs {
    /// Builds the handle (compute ranks only; `run_with_servers` does
    /// this for you).
    pub fn new(proc: &Proc, ncompute: usize) -> ArmciDs {
        assert!(proc.rank() < ncompute, "ArmciDs is for compute ranks");
        assert_eq!(
            proc.size(),
            2 * ncompute,
            "need one server per compute rank"
        );
        let world = proc.world();
        let members: Vec<usize> = (0..ncompute).collect();
        let compute_group = ArmciGroup::from_comm(world.create_noncollective(&members));
        ArmciDs {
            world,
            ncompute,
            compute_group,
            space: AddressSpace::new(),
            next_mutex_handle: Cell::new(1),
            mutex_counts: RefCell::new(HashMap::new()),
        }
    }

    /// The server world-rank for compute rank `r`.
    fn server_of(&self, r: usize) -> usize {
        self.ncompute + r
    }

    /// The compute-only communicator view: ARMCI-DS addresses compute
    /// ranks; collective machinery runs on p2p + explicit leader logic.
    fn send_req(&self, target: usize, req: &Request) {
        self.world
            .send(self.server_of(target), TAG_REQUEST, &req.encode());
    }

    fn roundtrip(&self, target: usize, req: &Request) -> Reply {
        self.send_req(target, req);
        let (bytes, _) = self
            .world
            .recv(RecvSrc::Rank(self.server_of(target)), TAG_REPLY);
        Reply::decode(&bytes)
    }

    /// A nonempty contiguous transfer: a get is a round trip, a put or
    /// accumulate a fire-and-forget send (remote completion at fence).
    fn contig(&self, addr: GlobalAddr, local: Local<'_>) -> ArmciResult<()> {
        let tr = self.space.translate(addr, local.len())?;
        let (id, off) = (tr.alloc, tr.disp);
        let req = match local {
            Local::Get(dst) => {
                let req = Request::Get {
                    id,
                    off,
                    len: dst.len(),
                };
                return match self.roundtrip(addr.rank, &req) {
                    Reply::Data(d) => {
                        dst.copy_from_slice(&d);
                        Ok(())
                    }
                    reply => Err(bad_reply(reply)),
                };
            }
            Local::Put(src) => Request::Put {
                id,
                off,
                data: src.to_vec(),
            },
            Local::Acc(kind, src) => Request::Acc {
                id,
                off,
                elem: protocol::elem_code(&kind),
                data: kind.prescale(src)?,
            },
        };
        self.send_req(addr.rank, &req);
        Ok(())
    }

    /// A strided transfer. The two-sided design ships dense payloads: a
    /// get's reply is unpacked into the local layout, a put's or an
    /// accumulate's source is packed at the origin.
    fn strided(
        &self,
        addr: GlobalAddr,
        strides: &[usize],
        local_strides: &[usize],
        count: &[usize],
        local: Local<'_>,
    ) -> ArmciResult<()> {
        let tr = self.space.translate(addr, extent(strides, count))?;
        let (id, off) = (tr.alloc, tr.disp);
        let seg = count[0];
        let segs = StridedIter::new(strides, local_strides, count)?.map(|(_, l)| l);
        let (strides, count) = (strides.to_vec(), count.to_vec());
        let req = match local {
            Local::Get(dst) => {
                let req = Request::GetStrided {
                    id,
                    off,
                    strides,
                    count,
                };
                return match self.roundtrip(addr.rank, &req) {
                    Reply::Data(packed) => {
                        for (i, l) in segs.enumerate() {
                            dst[l..l + seg].copy_from_slice(&packed[i * seg..(i + 1) * seg]);
                        }
                        Ok(())
                    }
                    reply => Err(bad_reply(reply)),
                };
            }
            Local::Put(src) => Request::PutStrided {
                id,
                off,
                strides,
                count,
                data: pack(src, segs, seg),
            },
            Local::Acc(kind, src) => {
                let mut data = pack(src, segs, seg);
                kind.scale_in_place(&mut data)?;
                Request::AccStrided {
                    id,
                    off,
                    strides,
                    count,
                    elem: protocol::elem_code(&kind),
                    data,
                }
            }
        };
        self.send_req(addr.rank, &req);
        Ok(())
    }

    /// Tells this rank's server to exit (called by `run_with_servers`).
    pub fn shutdown(&self) {
        // quiesce compute ranks, then every one stops its own server
        self.compute_group.barrier();
        self.send_req(self.world.rank(), &Request::Shutdown);
    }
}

impl Armci for ArmciDs {
    fn rank(&self) -> usize {
        self.world.rank()
    }

    fn nprocs(&self) -> usize {
        self.ncompute
    }

    fn world_group(&self) -> ArmciGroup {
        self.compute_group.clone()
    }

    fn malloc_group(&self, bytes: usize, group: &ArmciGroup) -> ArmciResult<Vec<GlobalAddr>> {
        let comm = group.comm();
        // agree on an allocation id
        let id = comm.bcast_u64(0, (comm.rank() == 0).then(|| comm.alloc_uid()));
        // my server hosts my slice
        if bytes > 0 {
            let r = self.roundtrip(self.world.rank(), &Request::Malloc { id, size: bytes });
            debug_assert!(matches!(r, Reply::Ok));
        }
        self.space.malloc(group, bytes, |_| Ok(id))
    }

    fn free_group(&self, addr: GlobalAddr, group: &ArmciGroup) -> ArmciResult<()> {
        // drop every member's slice from the table, free mine at my server
        let id = self.space.free(addr, group)?;
        let r = self.roundtrip(self.world.rank(), &Request::Free { id });
        debug_assert!(matches!(r, Reply::Ok));
        group.barrier();
        Ok(())
    }

    fn set_access_mode(
        &self,
        _addr: GlobalAddr,
        group: &ArmciGroup,
        _mode: AccessMode,
    ) -> ArmciResult<()> {
        // the data server serialises everything anyway: hints are no-ops
        group.barrier();
        Ok(())
    }

    // Every data-server operation is a synchronous request/reply
    // roundtrip or an in-order send the next fence flushes: the transfer
    // needs nothing more from the origin when the call returns. A
    // nonblocking transfer therefore completes eagerly and says so via
    // the handle — honest eager completion, not a blocking shim.
    fn xfer(&self, remote: Remote<'_>, mut local: Local<'_>, _nb: bool) -> ArmciResult<NbHandle> {
        if !remote.check(&local)? {
            return Ok(NbHandle::eager());
        }
        match remote {
            Remote::Contig(addr) => self.contig(addr, local)?,
            Remote::Strided {
                addr,
                strides,
                local_strides,
                count,
            } => self.strided(addr, strides, local_strides, count, local)?,
            // one contiguous request per segment
            Remote::Iov(desc) => {
                for (&lo, &ra) in desc.local_offsets.iter().zip(&desc.remote_addrs) {
                    let at = GlobalAddr::new(desc.rank, ra);
                    self.contig(at, local.slice(lo..lo + desc.bytes))?;
                }
            }
        }
        Ok(NbHandle::eager())
    }

    fn fence(&self, proc: usize) -> ArmciResult<()> {
        // two-sided channels are FIFO per pair: a fence is a ping that
        // flushes everything ahead of it in the server's queue.
        match self.roundtrip(proc, &Request::Fence) {
            Reply::Ok => Ok(()),
            _ => Err(ArmciError::BadDescriptor("fence failed".into())),
        }
    }

    fn fence_all(&self) -> ArmciResult<()> {
        for r in 0..self.ncompute {
            self.fence(r)?;
        }
        Ok(())
    }

    fn barrier(&self) {
        self.fence_all().expect("fence_all");
        let g = self.world_group();
        g.barrier();
    }

    fn rmw(&self, op: RmwOp, target: GlobalAddr) -> ArmciResult<i64> {
        let tr = self.space.translate(target, 8)?;
        let (id, off) = (tr.alloc, tr.disp);
        let (code, operand) = match op {
            RmwOp::FetchAdd(x) => (0u8, x),
            RmwOp::Swap(x) => (1u8, x),
        };
        match self.roundtrip(
            target.rank,
            &Request::Rmw {
                id,
                off,
                code,
                operand,
            },
        ) {
            Reply::Value(v) => Ok(v),
            reply => Err(bad_reply(reply)),
        }
    }

    fn create_mutexes(&self, count: usize) -> ArmciResult<usize> {
        let g = self.world_group();
        g.barrier();
        let handle = self.next_mutex_handle.get();
        self.next_mutex_handle.set(handle + 1);
        self.mutex_counts.borrow_mut().insert(handle, count);
        let r = self.roundtrip(self.world.rank(), &Request::MutexCreate { handle, count });
        debug_assert!(matches!(r, Reply::Ok));
        g.barrier();
        Ok(handle)
    }

    fn lock_mutex(&self, handle: usize, mutex: usize, proc: usize) -> ArmciResult<()> {
        let counts = self.mutex_counts.borrow();
        let &count = counts
            .get(&handle)
            .ok_or_else(|| ArmciError::MutexMisuse(format!("unknown handle {handle}")))?;
        if mutex >= count || proc >= self.ncompute {
            return Err(ArmciError::MutexMisuse(format!(
                "mutex {mutex}@{proc} out of range"
            )));
        }
        match self.roundtrip(proc, &Request::MutexLock { handle, mutex }) {
            Reply::Ok => Ok(()),
            Reply::Err(e) => Err(ArmciError::MutexMisuse(e)),
            _ => Err(ArmciError::MutexMisuse("unexpected reply".into())),
        }
    }

    fn unlock_mutex(&self, handle: usize, mutex: usize, proc: usize) -> ArmciResult<()> {
        let counts = self.mutex_counts.borrow();
        let &count = counts
            .get(&handle)
            .ok_or_else(|| ArmciError::MutexMisuse(format!("unknown handle {handle}")))?;
        if mutex >= count || proc >= self.ncompute {
            return Err(ArmciError::MutexMisuse(format!(
                "mutex {mutex}@{proc} out of range"
            )));
        }
        match self.roundtrip(proc, &Request::MutexUnlock { handle, mutex }) {
            Reply::Ok => Ok(()),
            Reply::Err(e) => Err(ArmciError::MutexMisuse(e)),
            _ => Err(ArmciError::MutexMisuse("unexpected reply".into())),
        }
    }

    fn destroy_mutexes(&self, handle: usize) -> ArmciResult<()> {
        self.mutex_counts
            .borrow_mut()
            .remove(&handle)
            .ok_or_else(|| ArmciError::MutexMisuse(format!("unknown handle {handle}")))?;
        let r = self.roundtrip(self.world.rank(), &Request::MutexDestroy { handle });
        debug_assert!(matches!(r, Reply::Ok));
        let g = self.world_group();
        g.barrier();
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
        // "Direct" local access is impossible: the data lives in the
        // server process. Emulated as get → mutate → put + fence — one of
        // the §IX overheads of the data-server design.
        let mut buf = vec![0u8; len];
        self.get(addr, &mut buf)?;
        f(&mut buf);
        self.put(&buf, addr)?;
        self.fence(addr.rank)
    }

    fn access(&self, addr: GlobalAddr, len: usize, f: &mut dyn FnMut(&[u8])) -> ArmciResult<()> {
        if addr.rank != self.world.rank() {
            return Err(ArmciError::BadDescriptor(
                "direct access to a remote process".into(),
            ));
        }
        let mut buf = vec![0u8; len];
        self.get(addr, &mut buf)?;
        f(&buf);
        Ok(())
    }
}
