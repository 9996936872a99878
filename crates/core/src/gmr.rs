//! Global memory regions (§V-A, §V-B).
//!
//! A GMR records everything needed to access one `ARMCI_Malloc` allocation:
//! the MPI window, the group it was allocated on, its access mode and its
//! RMW mutexes. The address cursor, the base-address exchange, the
//! **translation table** from `⟨process, address⟩` to GMR handles and the
//! NULL-member leader election are the shared [`armci::AddressSpace`],
//! which files every slice under its GMR's `GmrRef`.

use crate::mutex::MutexSet;
use crate::{bad_address, ArmciMpi};
use armci::{AccessMode, ArmciError, ArmciGroup, ArmciResult, GlobalAddr};
use mpisim::WinHandle;
use std::cell::Cell;

/// One global allocation.
pub(crate) struct Gmr {
    /// Window id doubles as the GMR id (consistent across processes).
    pub id: u64,
    pub win: WinHandle,
    pub group: ArmciGroup,
    /// Current access-mode hint (§VIII-A).
    pub mode: Cell<AccessMode>,
    /// Per-GMR mutex set used by the RMW protocol (§V-D): one mutex per
    /// group member, hosted on that member.
    pub rmw_mutexes: MutexSet,
}

/// Builds a `GmrVanished` error, routing it through the recorder first:
/// release builds that swallow the `Result` (or lose it across an FFI-ish
/// boundary) still leave an `error` event carrying the offending GMR id
/// in the trace. The error itself comes from the single
/// [`ArmciError::backing_lost`] funnel shared with the shm fast path.
pub(crate) fn gmr_vanished(gmr: u64) -> ArmciError {
    obs::instant(obs::EventKind::Error {
        what: "gmr_vanished",
        gmr,
    });
    ArmciError::backing_lost(gmr, None)
}

/// A live GMR's handle: its id (the window id, consistent across
/// processes) and the slot of [`GmrSlab`] that holds it on this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GmrRef {
    pub id: u64,
    pub slot: usize,
}

/// A translated global address: its GMR, the target's rank within the
/// window's group, and the byte displacement within the target's slice.
pub(crate) type Translation = armci::Translation<GmrRef>;

/// This process's live GMRs, reached by the slot their [`GmrRef`] names;
/// a freed GMR's slot is reused by the next allocation.
#[derive(Default)]
pub(crate) struct GmrSlab {
    slots: Vec<Option<Gmr>>,
}

impl GmrSlab {
    /// Stores `gmr` in the first vacant slot.
    pub fn insert(&mut self, gmr: Gmr) -> GmrRef {
        let id = gmr.id;
        let slot = match self.slots.iter().position(Option::is_none) {
            Some(slot) => {
                self.slots[slot] = Some(gmr);
                slot
            }
            None => {
                self.slots.push(Some(gmr));
                self.slots.len() - 1
            }
        };
        GmrRef { id, slot }
    }

    /// The live GMR `r` names, or a `GmrVanished` error once it is freed.
    pub fn get(&self, r: GmrRef) -> ArmciResult<&Gmr> {
        match self.slots.get(r.slot) {
            Some(Some(g)) if g.id == r.id => Ok(g),
            _ => Err(gmr_vanished(r.id)),
        }
    }

    /// Takes the GMR `r` names out of its slot.
    pub fn remove(&mut self, r: GmrRef) -> Option<Gmr> {
        self.slots.get_mut(r.slot)?.take_if(|g| g.id == r.id)
    }

    /// Every live GMR.
    pub fn iter(&self) -> impl Iterator<Item = &Gmr> {
        self.slots.iter().flatten()
    }
}

impl ArmciMpi {
    /// `ARMCI_Malloc` (§V-B): creates the window, exchanges base
    /// addresses, and registers the GMR.
    pub(crate) fn malloc_impl(
        &self,
        bytes: usize,
        group: &ArmciGroup,
    ) -> ArmciResult<Vec<GlobalAddr>> {
        let comm = group.comm();
        // Node-aware allocation: with the shm subsystem on, the window is
        // backed by one slab per node (carved in window-rank order), which
        // is what gives node peers real base pointers. Off, each rank owns
        // private window memory and every target is wire-remote.
        let win = if self.cfg.shm {
            WinHandle::allocate_shared(comm, bytes)
        } else {
            WinHandle::create(comm, bytes)
        };
        win.set_progress_model(self.progress_model());
        self.space.malloc(group, bytes, |_| {
            // Window-lifetime transport setup (the epochless backend's
            // standing `lock_all`; a no-op elsewhere).
            self.tx.epoch_style().attach(&win)?;
            let rmw_mutexes = MutexSet::create(comm, 1, self.progress_model());
            let gmr = self.gmrs.borrow_mut().insert(Gmr {
                id: win.id(),
                win,
                group: group.clone(),
                mode: Cell::new(AccessMode::Standard),
                rmw_mutexes,
            });
            if obs::enabled() {
                obs::instant_at(
                    obs::EventKind::GmrCreate {
                        gmr: gmr.id,
                        bytes: bytes as u64,
                    },
                    self.vnow(),
                );
            }
            Ok(gmr)
        })
    }

    /// `ARMCI_Free` (§V-B).
    pub(crate) fn free_impl(&self, addr: GlobalAddr, group: &ArmciGroup) -> ArmciResult<()> {
        let gmr = self.space.free(addr, group)?;
        let gmr = self
            .gmrs
            .borrow_mut()
            .remove(gmr)
            .ok_or_else(|| bad_address(addr))?;
        gmr.rmw_mutexes.destroy()?;
        self.tx.epoch_style().detach(&gmr.win)?;
        // Preserve the window's committed-datatype cache counters past its
        // destruction: stage-stat snapshots fold live windows + retired.
        let (hits, misses, _) = gmr.win.dtype_cache_stats();
        let (rh, rm) = self.dtype_retired.get();
        self.dtype_retired.set((rh + hits, rm + misses));
        gmr.win.free()?;
        if obs::enabled() {
            obs::instant_at(obs::EventKind::GmrFree { gmr: gmr.id }, self.vnow());
        }
        Ok(())
    }

    /// Access-mode hint change (§VIII-A): collective over the group.
    pub(crate) fn set_access_mode_impl(
        &self,
        addr: GlobalAddr,
        group: &ArmciGroup,
        mode: AccessMode,
    ) -> ArmciResult<()> {
        let gmr = self.space.elect(addr, group)?;
        let gmrs = self.gmrs.borrow();
        let gmr = gmrs.get(gmr).map_err(|_| bad_address(addr))?;
        // Mode transitions must quiesce outstanding operations.
        gmr.group.barrier();
        gmr.mode.set(mode);
        gmr.group.barrier();
        Ok(())
    }
}
