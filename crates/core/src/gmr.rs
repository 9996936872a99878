//! Global memory regions (§V-A, §V-B).
//!
//! A GMR records everything needed to access one `ARMCI_Malloc` allocation:
//! the MPI window, the group it was allocated on, and the per-member base
//! addresses. The **translation table** maps `⟨process, address⟩` pairs to
//! GMR handles; it is consulted on every communication call.

use crate::mutex::MutexSet;
use crate::{bad_address, ArmciMpi};
use armci::{AccessMode, ArmciError, ArmciGroup, ArmciResult, GlobalAddr, IntervalMap};
use mpisim::WinHandle;
use std::cell::Cell;

/// One global allocation.
pub(crate) struct Gmr {
    /// Window id doubles as the GMR id (consistent across processes).
    pub id: u64,
    pub win: WinHandle,
    pub group: ArmciGroup,
    /// Base address per group rank (`0` = NULL for zero-size slices).
    pub bases: Vec<usize>,
    /// Slice size per group rank.
    #[allow(dead_code)]
    pub sizes: Vec<usize>,
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

/// Result of translating a global address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Translation {
    /// GMR (window) id.
    pub gmr: u64,
    /// Target's rank within the window's group.
    pub group_rank: usize,
    /// Byte displacement within the target's window slice.
    pub disp: usize,
}

/// Address-range index over the shared [`IntervalMap`]: per absolute
/// rank, a base-address ordered interval map of `base → (size, gmr id)`.
/// Every communication call consults this table, so containment lookup
/// is `O(log n)` in the number of live allocations on the target rank.
pub(crate) struct GmrTable {
    map: IntervalMap<u64>,
}

impl GmrTable {
    pub fn new() -> GmrTable {
        GmrTable {
            map: IntervalMap::new(),
        }
    }

    /// Registers an allocation slice.
    pub fn insert(&mut self, rank: usize, base: usize, size: usize, gmr: u64) {
        self.map.insert(rank, base, size, gmr);
    }

    /// Unregisters a slice.
    pub fn remove(&mut self, rank: usize, base: usize) {
        self.map.remove(rank, base);
    }

    /// Finds the allocation containing `[addr, addr+len)` on `rank`.
    pub fn lookup(&self, rank: usize, addr: usize, len: usize) -> Option<(u64, usize, usize)> {
        self.map
            .lookup(rank, addr, len)
            .map(|f| (f.value, f.base, f.size))
    }

    /// Number of registered slices (diagnostics).
    #[allow(dead_code)]
    pub fn len(&self) -> usize {
        self.map.len()
    }
}

impl ArmciMpi {
    /// Translates a global address to `(gmr, window rank, displacement)`;
    /// `len` bytes starting at the address must fit in the allocation.
    pub(crate) fn translate(&self, addr: GlobalAddr, len: usize) -> ArmciResult<Translation> {
        if addr.is_null() {
            return Err(bad_address(addr));
        }
        let table = self.table.borrow();
        let (gmr_id, base, size) = table.lookup(addr.rank, addr.addr, len).ok_or_else(|| {
            match table.lookup(addr.rank, addr.addr, 1) {
                // base found but range too long → precise bounds error
                Some((_, b, s)) => ArmciError::OutOfBounds {
                    rank: addr.rank,
                    addr: addr.addr,
                    len,
                    limit: b + s,
                },
                None => bad_address(addr),
            }
        })?;
        let _ = size;
        let gmrs = self.gmrs.borrow();
        let gmr = gmrs.get(&gmr_id).ok_or_else(|| bad_address(addr))?;
        let group_rank = gmr
            .group
            .group_rank_of(addr.rank)
            .ok_or(ArmciError::NotInGroup)?;
        Ok(Translation {
            gmr: gmr_id,
            group_rank,
            disp: addr.addr - base,
        })
    }

    /// `ARMCI_Malloc` (§V-B): creates the window, exchanges base
    /// addresses, and registers the GMR.
    pub(crate) fn malloc_impl(
        &self,
        bytes: usize,
        group: &ArmciGroup,
    ) -> ArmciResult<Vec<GlobalAddr>> {
        let comm = group.comm();
        // My base address: allocated from the local cursor; NULL for
        // zero-size requests.
        let base = if bytes > 0 {
            let b = self.next_addr.get();
            // keep allocations 64-byte aligned
            self.next_addr.set(b + bytes.div_ceil(64) * 64 + 64);
            b
        } else {
            0
        };
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
        let gmr_id = win.id();
        // All-to-all exchange of local base addresses (§V-B).
        let all = comm.allgather_u64s(&[base as u64, bytes as u64]);
        let mut bases = Vec::with_capacity(all.len());
        let mut sizes = Vec::with_capacity(all.len());
        for b in &all {
            bases.push(b[0] as usize);
            sizes.push(b[1] as usize);
        }
        // Register every non-NULL slice in the translation table.
        {
            let mut table = self.table.borrow_mut();
            for (gr, (&b, &s)) in bases.iter().zip(&sizes).enumerate() {
                if b != 0 {
                    let abs = group.absolute_id(gr)?;
                    table.insert(abs, b, s, gmr_id);
                }
            }
        }
        // Window-lifetime transport setup (the epochless backend's
        // standing `lock_all`; a no-op elsewhere).
        self.tx().attach(&win)?;
        let rmw_mutexes = MutexSet::create(comm, 1, self.progress_model());
        self.gmrs.borrow_mut().insert(
            gmr_id,
            Gmr {
                id: gmr_id,
                win,
                group: group.clone(),
                bases: bases.clone(),
                sizes,
                mode: Cell::new(AccessMode::Standard),
                rmw_mutexes,
            },
        );
        if obs::enabled() {
            obs::instant_at(
                obs::EventKind::GmrCreate {
                    gmr: gmr_id,
                    bytes: bytes as u64,
                },
                self.vnow(),
            );
        }
        // Base address vector indexed by group rank.
        let mut out = Vec::with_capacity(bases.len());
        for (gr, &b) in bases.iter().enumerate() {
            out.push(if b == 0 {
                GlobalAddr::NULL
            } else {
                GlobalAddr::new(group.absolute_id(gr)?, b)
            });
        }
        Ok(out)
    }

    /// Locates the GMR for a collective call where some members may hold
    /// NULL: leader election by MAXLOC reduction on group rank, then the
    /// leader broadcasts its base address (§V-B).
    pub(crate) fn locate_collective(
        &self,
        addr: GlobalAddr,
        group: &ArmciGroup,
    ) -> ArmciResult<u64> {
        let comm = group.comm();
        let my_vote = if addr.is_null() {
            -1
        } else {
            group.rank() as i64
        };
        let (winner_vote, leader) = comm.maxloc_i64(my_vote);
        if winner_vote < 0 {
            return Err(ArmciError::BadDescriptor(
                "collective free/mode-change with all-NULL addresses".into(),
            ));
        }
        let payload = if group.rank() == leader {
            Some(addr.addr as u64)
        } else {
            None
        };
        let leader_addr = comm.bcast_u64(leader, payload) as usize;
        let leader_abs = group.absolute_id(leader)?;
        let tr = self.translate(GlobalAddr::new(leader_abs, leader_addr), 1)?;
        Ok(tr.gmr)
    }

    /// `ARMCI_Free` (§V-B).
    pub(crate) fn free_impl(&self, addr: GlobalAddr, group: &ArmciGroup) -> ArmciResult<()> {
        let gmr_id = self.locate_collective(addr, group)?;
        let gmr = self
            .gmrs
            .borrow_mut()
            .remove(&gmr_id)
            .ok_or_else(|| bad_address(addr))?;
        {
            let mut table = self.table.borrow_mut();
            for (gr, &b) in gmr.bases.iter().enumerate() {
                if b != 0 {
                    let abs = gmr.group.absolute_id(gr)?;
                    table.remove(abs, b);
                }
            }
        }
        gmr.rmw_mutexes.destroy()?;
        self.tx().detach(&gmr.win)?;
        // Preserve the window's committed-datatype cache counters past its
        // destruction: stage-stat snapshots fold live windows + retired.
        let (hits, misses, _) = gmr.win.dtype_cache_stats();
        let (rh, rm) = self.dtype_retired.get();
        self.dtype_retired.set((rh + hits, rm + misses));
        gmr.win.free()?;
        if obs::enabled() {
            obs::instant_at(obs::EventKind::GmrFree { gmr: gmr_id }, self.vnow());
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
        let gmr_id = self.locate_collective(addr, group)?;
        let gmrs = self.gmrs.borrow();
        let gmr = gmrs.get(&gmr_id).ok_or_else(|| bad_address(addr))?;
        // Mode transitions must quiesce outstanding operations.
        gmr.group.barrier();
        gmr.mode.set(mode);
        gmr.group.barrier();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lookup_finds_containing_allocation() {
        let mut t = GmrTable::new();
        t.insert(2, 0x1000, 256, 7);
        t.insert(2, 0x2000, 128, 8);
        // inside the first allocation
        assert_eq!(t.lookup(2, 0x1000, 1), Some((7, 0x1000, 256)));
        assert_eq!(t.lookup(2, 0x10ff, 1), Some((7, 0x1000, 256)));
        // range crossing the end fails
        assert_eq!(t.lookup(2, 0x10f0, 32), None);
        // the second allocation
        assert_eq!(t.lookup(2, 0x2040, 64), Some((8, 0x2000, 128)));
        // gap between allocations
        assert_eq!(t.lookup(2, 0x1a00, 1), None);
        // unknown rank
        assert_eq!(t.lookup(3, 0x1000, 1), None);
    }

    #[test]
    fn table_zero_length_lookup_requires_one_byte() {
        let mut t = GmrTable::new();
        t.insert(0, 0x100, 16, 1);
        // len 0 is treated as len 1 (an address must be inside)
        assert_eq!(t.lookup(0, 0x10f, 0), Some((1, 0x100, 16)));
        assert_eq!(t.lookup(0, 0x110, 0), None);
    }

    #[test]
    fn table_remove_unregisters_only_that_slice() {
        let mut t = GmrTable::new();
        t.insert(1, 0x100, 16, 1);
        t.insert(1, 0x200, 16, 2);
        assert_eq!(t.len(), 2);
        t.remove(1, 0x100);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(1, 0x100, 1), None);
        assert_eq!(t.lookup(1, 0x200, 1), Some((2, 0x200, 16)));
        // removing a non-existent base is a no-op
        t.remove(9, 0xdead);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn table_adjacent_allocations_do_not_bleed() {
        let mut t = GmrTable::new();
        t.insert(0, 0x100, 0x100, 1);
        t.insert(0, 0x200, 0x100, 2);
        assert_eq!(t.lookup(0, 0x1ff, 1), Some((1, 0x100, 0x100)));
        assert_eq!(t.lookup(0, 0x200, 1), Some((2, 0x200, 0x100)));
        // a range spanning both fails (IOV "spans multiple GMRs")
        assert_eq!(t.lookup(0, 0x1f0, 0x20), None);
    }
}
