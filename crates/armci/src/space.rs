//! One process's view of the global address space (§V-A, §V-B).
//!
//! ARMCI-MPI, ARMCI-Native and ARMCI-DS run the same protocol around
//! their allocations, and [`AddressSpace`] is that protocol:
//!
//! * `ARMCI_Malloc` takes this process's base from a local cursor (from
//!   `0x1000` up, 64-byte aligned, NULL for an empty slice), exchanges
//!   every member's `(base, size)` all-to-all, and registers each
//!   non-NULL slice under the backend's allocation handle and the slice
//!   owner's group rank;
//! * every communication call translates `⟨process, address⟩` into that
//!   handle, group rank and displacement with one [`IntervalMap`] probe;
//! * `ARMCI_Free` and access-mode changes, whose members may pass NULL,
//!   elect a leader by MAXLOC over the group ranks of the members that
//!   hold an address, and the leader broadcasts it;
//! * `ARMCI_Free` then unregisters every slice of the allocation.
//!
//! A backend keeps only its own per-allocation state (an MPI window, a
//! shared segment, a data server's allocation id) under the handle `T`.

use crate::ivmap::IntervalMap;
use crate::{ArmciError, ArmciGroup, ArmciResult, GlobalAddr};
use std::cell::{Cell, RefCell};

/// Where a global address lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation<T> {
    /// The backend's handle of the owning allocation.
    pub alloc: T,
    /// The slice owner's rank within the allocation's group.
    pub group_rank: usize,
    /// Byte displacement within the slice.
    pub disp: usize,
}

/// This process's translation table and allocation cursor; `T` is the
/// backend's allocation handle.
pub struct AddressSpace<T> {
    /// Per absolute rank: slice base → (size, (handle, group rank)).
    slices: RefCell<IntervalMap<(T, usize)>>,
    /// The base this process's next non-empty slice gets.
    cursor: Cell<usize>,
}

impl<T: Copy + PartialEq> Default for AddressSpace<T> {
    fn default() -> AddressSpace<T> {
        AddressSpace {
            slices: RefCell::new(IntervalMap::new()),
            // Non-zero, so that 0 stays NULL.
            cursor: Cell::new(0x1000),
        }
    }
}

impl<T: Copy + PartialEq> AddressSpace<T> {
    pub fn new() -> AddressSpace<T> {
        AddressSpace::default()
    }

    /// `ARMCI_Malloc`'s exchange, collective over `group`: takes this
    /// process's base for `bytes` from the cursor, allgathers every
    /// member's `(base, size)`, and passes the slice sizes (by group rank)
    /// to `alloc`, which sets up the backend's state and returns its
    /// handle. Every non-NULL slice is then registered under that handle.
    /// Returns the base addresses by group rank, NULL for empty slices.
    pub fn malloc(
        &self,
        group: &ArmciGroup,
        bytes: usize,
        alloc: impl FnOnce(&[usize]) -> ArmciResult<T>,
    ) -> ArmciResult<Vec<GlobalAddr>> {
        let base = if bytes > 0 {
            let b = self.cursor.get();
            self.cursor.set(b + bytes.div_ceil(64) * 64 + 64);
            b
        } else {
            0
        };
        let all = group.comm().allgather_u64s(&[base as u64, bytes as u64]);
        let sizes: Vec<usize> = all.iter().map(|s| s[1] as usize).collect();
        let handle = alloc(&sizes)?;
        let mut slices = self.slices.borrow_mut();
        let mut out = Vec::with_capacity(all.len());
        for (gr, s) in all.iter().enumerate() {
            let (base, size) = (s[0] as usize, s[1] as usize);
            if base == 0 {
                out.push(GlobalAddr::NULL);
                continue;
            }
            let rank = group.absolute_id(gr)?;
            slices.insert(rank, base, size, (handle, gr));
            out.push(GlobalAddr::new(rank, base));
        }
        Ok(out)
    }

    /// Translates `[addr, addr + len)` (`len == 0` counts as one byte)
    /// with one probe: `BadAddress` unless `addr` lies in a registered
    /// slice (NULL never does), `OutOfBounds` if the range runs past that
    /// slice's end.
    #[inline]
    pub fn translate(&self, addr: GlobalAddr, len: usize) -> ArmciResult<Translation<T>> {
        let found = self.slices.borrow().lookup(addr.rank, addr.addr, 1);
        let found = found.ok_or(ArmciError::BadAddress {
            rank: addr.rank,
            addr: addr.addr,
        })?;
        let limit = found.base + found.size;
        let end = addr.addr.checked_add(len.max(1));
        if end.is_none_or(|end| end > limit) {
            return Err(ArmciError::OutOfBounds {
                rank: addr.rank,
                addr: addr.addr,
                len,
                limit,
            });
        }
        let (alloc, group_rank) = found.value;
        Ok(Translation {
            alloc,
            group_rank,
            disp: addr.addr - found.base,
        })
    }

    /// The leader election, collective over `group`, for calls whose
    /// members may pass NULL: MAXLOC over the group ranks of the members
    /// holding an address picks the leader, which broadcasts its address,
    /// and every member translates that. Returns the allocation's handle.
    pub fn elect(&self, addr: GlobalAddr, group: &ArmciGroup) -> ArmciResult<T> {
        let comm = group.comm();
        let vote = if addr.is_null() {
            -1
        } else {
            group.rank() as i64
        };
        let (winner, leader) = comm.maxloc_i64(vote);
        if winner < 0 {
            return Err(ArmciError::BadDescriptor(
                "collective free/mode-change with all-NULL addresses".into(),
            ));
        }
        let mine = (group.rank() == leader).then_some(addr.addr as u64);
        let leader_addr = comm.bcast_u64(leader, mine) as usize;
        let leader = GlobalAddr::new(group.absolute_id(leader)?, leader_addr);
        Ok(self.translate(leader, 1)?.alloc)
    }

    /// `ARMCI_Free`'s half of the protocol, collective over `group`:
    /// elects the allocation as [`Self::elect`] does and unregisters every
    /// slice of it. Returns its handle for the backend to release.
    pub fn free(&self, addr: GlobalAddr, group: &ArmciGroup) -> ArmciResult<T> {
        let alloc = self.elect(addr, group)?;
        self.slices.borrow_mut().retain(|&(a, _)| a != alloc);
        Ok(alloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{Runtime, RuntimeConfig};

    fn quiet() -> RuntimeConfig {
        RuntimeConfig {
            charge_time: false,
            ..Default::default()
        }
    }

    #[test]
    fn cursor_aligns_slices_and_skips_empty_ones() {
        Runtime::run_with(2, quiet(), |p| {
            let world = ArmciGroup::from_comm(p.world());
            let space = AddressSpace::new();
            let a = space.malloc(&world, 100, |_| Ok(1u64)).unwrap();
            let bytes = if p.rank() == 0 { 0 } else { 8 };
            let b = space.malloc(&world, bytes, |_| Ok(2)).unwrap();
            let c = space.malloc(&world, 1, |_| Ok(3)).unwrap();
            assert_eq!(a, [GlobalAddr::new(0, 0x1000), GlobalAddr::new(1, 0x1000)]);
            // rank 0's empty slice is NULL and does not move its cursor
            assert_eq!(b, [GlobalAddr::NULL, GlobalAddr::new(1, 0x10c0)]);
            assert_eq!(c[0], GlobalAddr::new(0, 0x10c0));
            assert_eq!(c[1], GlobalAddr::new(1, 0x1140));
        });
    }

    #[test]
    fn translation_answers_in_one_probe() {
        Runtime::run_with(2, quiet(), |p| {
            let world = ArmciGroup::from_comm(p.world());
            let space = AddressSpace::new();
            let bases = space.malloc(&world, 64, |_| Ok(7u64)).unwrap();
            let tr = space.translate(bases[1].offset(8), 56).unwrap();
            assert_eq!(
                tr,
                Translation {
                    alloc: 7,
                    group_rank: 1,
                    disp: 8
                }
            );
            let bad = |addr: usize, len: usize| space.translate(GlobalAddr::new(1, addr), len);
            assert!(matches!(bad(0, 1), Err(ArmciError::BadAddress { .. })));
            assert!(matches!(bad(0x1040, 1), Err(ArmciError::BadAddress { .. })));
            assert!(matches!(
                bad(usize::MAX - 2, 8),
                Err(ArmciError::BadAddress { .. })
            ));
            assert!(matches!(
                bad(0x1008, 57),
                Err(ArmciError::OutOfBounds { limit: 0x1040, .. })
            ));
            assert!(matches!(
                bad(0x1008, usize::MAX),
                Err(ArmciError::OutOfBounds { .. })
            ));
        });
    }

    #[test]
    fn free_elects_past_null_members_and_unregisters() {
        Runtime::run_with(3, quiet(), |p| {
            let world = ArmciGroup::from_comm(p.world());
            let space = AddressSpace::new();
            let keep = space.malloc(&world, 8, |_| Ok(1u64)).unwrap();
            // only rank 1 contributes memory; the sizes reach every member
            let bytes = if p.rank() == 1 { 32 } else { 0 };
            let bases = space
                .malloc(&world, bytes, |sizes| {
                    assert_eq!(sizes, [0, 32, 0]);
                    Ok(2)
                })
                .unwrap();
            assert_eq!(space.elect(bases[p.rank()], &world).unwrap(), 2);
            assert_eq!(space.free(bases[p.rank()], &world).unwrap(), 2);
            assert!(space.translate(bases[1], 1).is_err());
            assert_eq!(space.translate(keep[2], 8).unwrap().alloc, 1);
            let all_null = space.elect(GlobalAddr::NULL, &world);
            assert!(matches!(all_null, Err(ArmciError::BadDescriptor(_))));
        });
    }
}
