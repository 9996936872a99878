//! The intra-node shared-memory fast path (the §VIII-B outlook).
//!
//! With [`Config::shm`](crate::Config::shm) on, `ARMCI_Malloc` backs every
//! GMR with a per-node `MPI_Win_allocate_shared` slab instead of per-rank
//! window memory. At execute time the engine consults the window's
//! `shm_reachable` route predicate: plans whose target is a node peer run
//! here — the payload moves as a direct load/store/accumulate on the slab,
//! bracketed by `win_sync` under the ordinary epoch discipline — while
//! plans whose target lives on another node flow through the wire path
//! unchanged. The route is per-plan and invisible to callers: same epoch
//! accounting, same operation statistics, same error surface; only the
//! transport (and its two-tier cost) differs. [`StageStats`] records the
//! split as `shm_hits` / `shm_bypass_bytes`.
//!
//! Errors from the slab funnel through [`ArmciError::backing_lost`]: a
//! freed window under a live section surfaces as `ShmDetached` instead of
//! a stale-base-pointer dereference.

use crate::engine::{ExecBuf, PlannedOp, TransferPlan};
use crate::gmr::Gmr;
use crate::transport::Transport;
use crate::ArmciMpi;
use armci::{ArmciError, ArmciResult};
use mpisim::AccOp;

impl ArmciMpi {
    /// Plan-time route decision: does `plan` run on the node slab? True
    /// only when the shm subsystem is enabled, the GMR is slab-backed, and
    /// the target rank shares this rank's node.
    pub(crate) fn plan_shm_routable(&self, plan: &TransferPlan) -> bool {
        self.cfg.shm
            && self
                .gmrs
                .borrow()
                .get(&plan.gmr)
                .is_some_and(|g| g.win.shm_reachable(plan.target))
    }

    /// Maps a slab error through the single backing-lost funnel.
    pub(crate) fn shm_err(gmr: u64, e: mpisim::MpiError) -> ArmciError {
        ArmciError::backing_lost(gmr, Some(e))
    }

    /// Runs one plan over the node slab: acquire the plan's epoch, enter
    /// `win_sync` coherence, move every operation as node-local
    /// load/store, `win_sync` again, release. The cost charged is the
    /// platform's shm tier plus one lock overhead — the NIC model is never
    /// consulted, and the bypassed bytes are counted in [`StageStats`].
    pub(crate) fn run_plan_shm(&self, plan: &TransferPlan, buf: &ExecBuf) -> ArmciResult<()> {
        let gmrs = self.gmrs.borrow();
        let gmr = gmrs
            .get(&plan.gmr)
            .ok_or_else(|| crate::gmr::gmr_vanished(plan.gmr))?;
        // acquire: the plan's epoch plus entry into win_sync coherence
        let t0 = self.vnow();
        self.epoch_begin_via(&self.shm_tx, gmr, plan.target, plan.mode)?;
        let sync_in = gmr.win.win_sync().map_err(|e| Self::shm_err(plan.gmr, e));
        let t1 = self.vnow();
        // execute: node-local copies charged by the shm transport as they
        // issue, plus one lock overhead (the epoch is closed even when an
        // operation fails, as on the wire path)
        let mut issued = 0u64;
        let mut bytes = 0u64;
        self.charge(self.world.platform().shm.lock_overhead);
        let mut res = sync_in;
        if res.is_ok() {
            for op in &plan.ops {
                match self.shm_issue_op(gmr, plan.target, op, buf) {
                    Ok(()) => {
                        issued += 1;
                        bytes += op.bytes;
                    }
                    Err(e) => {
                        res = Err(e);
                        break;
                    }
                }
            }
        }
        let t2 = self.vnow();
        // complete: leave coherence, close the epoch
        let end = gmr
            .win
            .win_sync()
            .map_err(|e| Self::shm_err(plan.gmr, e))
            .and_then(|()| self.epoch_end_via(&self.shm_tx, gmr, plan.target));
        let t3 = self.vnow();
        self.stage(|g| {
            g.acquires += 1;
            g.completes += 1;
            g.shm_hits += issued;
            g.shm_bypass_bytes += bytes;
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

    /// Issues one planned operation through the shm transport (which
    /// charges its shm-tier cost as it moves). Operation statistics count
    /// exactly as on the wire path — the route changes the transport, not
    /// the op.
    fn shm_issue_op(
        &self,
        gmr: &Gmr,
        target: usize,
        op: &PlannedOp,
        buf: &ExecBuf,
    ) -> ArmciResult<()> {
        match *buf {
            ExecBuf::Get(ptr, len) => {
                // Safety: see `issue_op` — the pointer covers `len` bytes
                // for the duration of the call and the planner keeps every
                // datatype within bounds.
                let b = unsafe { std::slice::from_raw_parts_mut(ptr, len) };
                self.shm_tx
                    .get(&gmr.win, b, &op.odt, target, op.tdisp, &op.tdt)
                    .map_err(|e| Self::shm_err(gmr.id, e))?;
            }
            ExecBuf::Put(ptr, len) => {
                // Safety: as above, read-only.
                let b = unsafe { std::slice::from_raw_parts(ptr, len) };
                self.shm_tx
                    .put(&gmr.win, b, &op.odt, target, op.tdisp, &op.tdt)
                    .map_err(|e| Self::shm_err(gmr.id, e))?;
            }
            ExecBuf::Acc(staged, elem) => {
                self.shm_tx
                    .accumulate(
                        &gmr.win,
                        staged,
                        &op.odt,
                        target,
                        op.tdisp,
                        &op.tdt,
                        elem,
                        AccOp::Sum,
                    )
                    .map_err(|e| Self::shm_err(gmr.id, e))?;
            }
        };
        self.note_op(buf.kind(), op.bytes);
        Ok(())
    }

    /// `ARMCI_Access_begin/end` on a *node peer's* slice — the §V-E
    /// extension the slab makes legal. The peer's section is staged
    /// through a pooled scratch lease: loaded under `win_sync` coherence,
    /// exposed to the closure, and (for mutable access) stored back before
    /// coherence is left and the epoch closes. `write` selects the
    /// exclusive/shared lock exactly like local direct access.
    pub(crate) fn access_peer_impl(
        &self,
        addr: armci::GlobalAddr,
        len: usize,
        write: bool,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> ArmciResult<()> {
        use mpisim::LockMode;
        // Serialise behind outstanding nonblocking operations, like every
        // direct-access entry point.
        self.nb_quiesce()?;
        let tr = self.translate(addr, len)?;
        let gmrs = self.gmrs.borrow();
        let gmr = gmrs
            .get(&tr.gmr)
            .ok_or_else(|| crate::gmr::gmr_vanished(tr.gmr))?;
        if !self.cfg.shm || !gmr.win.shm_reachable(tr.group_rank) {
            return Err(ArmciError::BadDescriptor(format!(
                "direct access to remote process {} from {}",
                addr.rank,
                self.world.rank()
            )));
        }
        let sec = gmr
            .win
            .shared_query(tr.group_rank)
            .map_err(|e| Self::shm_err(tr.gmr, e))?;
        let shm = self.world.platform().shm.clone();
        // Mutual-exclusion bracketing belongs to the transport: a standing
        // lock_all epoch (MPI-3 epochless) already covers peer access;
        // otherwise the window is locked for the section's duration.
        let mode = if write {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        self.shm_tx
            .atomic_epoch_begin(&gmr.win, tr.group_rank, mode)?;
        gmr.win.win_sync().map_err(|e| Self::shm_err(tr.gmr, e))?;
        self.dla_begin(tr.gmr, write);
        let mut buf = self.scratch(len);
        let res = sec
            .load(tr.disp, &mut buf)
            .map_err(|e| Self::shm_err(tr.gmr, e))
            .and_then(|()| {
                self.charge(shm.op_cost(simnet::Op::Get, len, 1));
                f(&mut buf);
                if write {
                    sec.store(tr.disp, &buf)
                        .map_err(|e| Self::shm_err(tr.gmr, e))?;
                    self.charge(shm.op_cost(simnet::Op::Put, len, 1));
                }
                Ok(())
            });
        self.dla_end(tr.gmr);
        let end = gmr
            .win
            .win_sync()
            .map_err(|e| Self::shm_err(tr.gmr, e))
            .and_then(|()| {
                self.shm_tx
                    .atomic_epoch_end(&gmr.win, tr.group_rank)
                    .map_err(ArmciError::from)
            });
        end?;
        res
    }
}
