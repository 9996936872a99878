//! The intra-node shared-memory fast path (the §VIII-B outlook).
//!
//! With [`Config::shm`](crate::Config::shm) on, `ARMCI_Malloc` backs every
//! GMR with a per-node `MPI_Win_allocate_shared` slab instead of per-rank
//! window memory. At execute time the engine's one executor
//! (`engine::run_plan`) consults the window's `shm_reachable` route
//! predicate: plans whose target is a node peer take the shm route — the
//! payload moves as a direct load/store/accumulate on the slab, bracketed
//! by `win_sync` under the MPI backend's epoch discipline
//! (`ArmciMpi::shm_bracket`) — while plans whose target lives on another
//! node flow through the wire backend. The route is per-plan and
//! invisible to callers: same epoch accounting, same operation
//! statistics, same error surface; only the mover (and its two-tier cost)
//! differs. [`StageStats`](crate::StageStats) records the split as
//! `shm_hits` / `shm_bypass_bytes`.
//!
//! Errors from the slab funnel through [`ArmciError::backing_lost`]: a
//! freed window under a live section surfaces as `ShmDetached` instead of
//! a stale-base-pointer dereference.

use crate::engine::TransferPlan;
use crate::gmr::Gmr;
use crate::transport::{MpiRmaTransport, Transport, TransportKind};
use crate::ArmciMpi;
use armci::{ArmciError, ArmciResult};

impl ArmciMpi {
    /// The route decision: does traffic to `target` on `gmr` run on the
    /// node slab? True only when the shm subsystem is enabled, the GMR is
    /// slab-backed, and the target rank shares this rank's node.
    pub(crate) fn shm_routable(&self, gmr: &Gmr, target: usize) -> bool {
        self.cfg.shm && gmr.win.shm_reachable(target)
    }

    /// [`ArmciMpi::shm_routable`] for a plan (false once its GMR is gone).
    pub(crate) fn plan_shm_routable(&self, plan: &TransferPlan) -> bool {
        self.gmrs
            .borrow()
            .get(&plan.gmr)
            .is_some_and(|g| self.shm_routable(g, plan.target))
    }

    /// The epoch discipline of the shm route: the MPI backend's, epochless
    /// only when a standing `lock_all` covers the route's `win_sync`
    /// calls — i.e. epochless mode on the MPI backend. The channel backend
    /// never opens one, so its shm route always locks.
    pub(crate) fn shm_bracket(&self) -> MpiRmaTransport {
        MpiRmaTransport {
            epochless: self.cfg.epochless && self.cfg.transport == TransportKind::MpiRma,
        }
    }

    /// Maps a slab error through the single backing-lost funnel.
    pub(crate) fn shm_err(gmr: u64, e: mpisim::MpiError) -> ArmciError {
        ArmciError::backing_lost(gmr, Some(e))
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
        if !self.shm_routable(gmr, tr.group_rank) {
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
        let bracket = self.shm_bracket();
        bracket.atomic_epoch_begin(&gmr.win, tr.group_rank, mode)?;
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
                bracket
                    .atomic_epoch_end(&gmr.win, tr.group_rank)
                    .map_err(ArmciError::from)
            });
        end?;
        res
    }
}
