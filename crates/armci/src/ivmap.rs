//! Per-rank sorted interval map for address translation (§V-A).
//!
//! The index under [`crate::AddressSpace`], the one translation table
//! every ARMCI backend in this workspace shares: for every process, the
//! set of allocation slices living in its address space, queried on every
//! communication call with "which allocation contains `[addr, addr+len)`
//! on rank r?". Intervals are non-overlapping, so a base-address ordered
//! map answers containment with one `O(log n)` predecessor probe: the
//! candidate is the greatest base `<= addr`, and the range matches iff it
//! ends beyond `addr + len`.
//!
//! The per-rank maps sit in a vector indexed by rank, so reaching a
//! rank's map is an index, not a hash.

use std::collections::BTreeMap;

/// A located interval: the slice base/size plus the caller's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Found<T> {
    pub base: usize,
    pub size: usize,
    pub value: T,
}

/// Per-rank base-ordered interval index; `T` is the per-slice payload.
#[derive(Debug, Clone)]
pub struct IntervalMap<T> {
    /// Index = rank; grown on demand to the highest rank registered.
    by_rank: Vec<BTreeMap<usize, (usize, T)>>,
}

impl<T> Default for IntervalMap<T> {
    fn default() -> IntervalMap<T> {
        IntervalMap {
            by_rank: Vec::new(),
        }
    }
}

impl<T: Copy> IntervalMap<T> {
    pub fn new() -> IntervalMap<T> {
        IntervalMap::default()
    }

    /// Registers the slice `[base, base+size)` on `rank`. NULL bases and
    /// empty slices are never indexed.
    pub fn insert(&mut self, rank: usize, base: usize, size: usize, value: T) {
        debug_assert!(base != 0 && size > 0);
        if rank >= self.by_rank.len() {
            self.by_rank.resize_with(rank + 1, BTreeMap::new);
        }
        self.by_rank[rank].insert(base, (size, value));
    }

    /// Unregisters every slice, on every rank, whose payload fails `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        for m in &mut self.by_rank {
            m.retain(|_, (_, v)| keep(v));
        }
    }

    /// Finds the slice containing `[addr, addr+len)` on `rank`
    /// (`len == 0` is treated as 1: the address itself must be inside).
    /// A range that would run past `usize::MAX` is in no slice.
    pub fn lookup(&self, rank: usize, addr: usize, len: usize) -> Option<Found<T>> {
        let m = self.by_rank.get(rank)?;
        let (&base, &(size, value)) = m.range(..=addr).next_back()?;
        let end = addr.checked_add(len.max(1))?;
        (end <= base + size).then_some(Found { base, size, value })
    }

    /// Total registered slices across all ranks (diagnostics; the
    /// alloc/free-loop tests assert this stays bounded).
    pub fn len(&self) -> usize {
        self.by_rank.iter().map(BTreeMap::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of ranks with at least one registered slice.
    pub fn rank_count(&self) -> usize {
        self.by_rank.iter().filter(|m| !m.is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_finds_containing_interval() {
        let mut t = IntervalMap::new();
        t.insert(2, 0x1000, 256, 7u64);
        t.insert(2, 0x2000, 128, 8);
        assert_eq!(t.lookup(2, 0x10ff, 1).map(|f| f.value), Some(7));
        assert_eq!(t.lookup(2, 0x10f0, 32), None);
        assert_eq!(t.lookup(2, 0x2040, 64).map(|f| f.base), Some(0x2000));
        assert_eq!(t.lookup(2, 0x1a00, 1), None);
        assert_eq!(t.lookup(3, 0x1000, 1), None);
        // len 0 is treated as len 1 (the address must be inside)
        assert_eq!(t.lookup(2, 0x10ff, 0).map(|f| f.value), Some(7));
        assert_eq!(t.lookup(2, 0x1100, 0), None);
        // adjacent slices do not bleed into each other
        t.insert(2, 0x1100, 256, 9);
        assert_eq!(t.lookup(2, 0x1100, 1).map(|f| f.value), Some(9));
        assert_eq!(t.lookup(2, 0x10f0, 0x20), None);
    }

    #[test]
    fn retain_prunes_empty_ranks() {
        let mut t = IntervalMap::new();
        t.insert(1, 0x100, 16, 1u64);
        t.insert(2, 0x100, 16, 2u64);
        assert_eq!(t.rank_count(), 2);
        t.retain(|&v| v != 1);
        assert_eq!(t.rank_count(), 1);
        t.retain(|&v| v != 2);
        assert_eq!(t.rank_count(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn ranges_past_the_address_space_end_find_nothing() {
        let mut t = IntervalMap::new();
        t.insert(0, 0x1000, 64, 1u64);
        t.insert(0, usize::MAX - 16, 16, 2u64);
        // `addr + len` would wrap: no slice holds the range.
        assert_eq!(t.lookup(0, usize::MAX - 2, 8), None);
        assert_eq!(t.lookup(0, usize::MAX, 1), None);
        assert_eq!(t.lookup(0, usize::MAX - 2, 2).map(|f| f.value), Some(2));
    }

    #[test]
    fn unregistered_ranks_find_nothing() {
        let mut t = IntervalMap::new();
        t.insert(3, 0x100, 16, 1u64);
        // Below, between and above the registered rank.
        for rank in [0, 2, 4, 1000] {
            assert_eq!(t.lookup(rank, 0x100, 1), None, "rank {rank}");
        }
        assert_eq!(t.lookup(3, 0x100, 1).map(|f| f.value), Some(1));
        // Alloc/free cycles over several ranks leave only live ranks
        // counted.
        for round in 0..4u64 {
            for rank in [5, 0, 7] {
                t.insert(rank, 0x1000, 64, 10 + round);
            }
            assert_eq!(t.rank_count(), 4);
            t.retain(|&v| v != 10 + round);
            assert_eq!(t.rank_count(), 1);
        }
        t.retain(|&v| v != 1);
        assert_eq!(t.rank_count(), 0);
        assert!(t.is_empty());
        assert_eq!(t.lookup(7, 0x1000, 1), None);
    }
}
