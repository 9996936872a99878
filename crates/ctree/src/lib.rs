//! Overlap detection for half-open byte ranges: one sort-and-sweep.
//!
//! Section VI-B of the paper: the *batched* and *datatype* IOV methods
//! require that no two segments of a generalized I/O vector overlap. A
//! naive pairwise scan is O(N²), and NWChem routinely produces IOVs with
//! tens to hundreds of thousands of segments. The paper proves a vector
//! clean in O(N·log N) with a balanced conflict tree; [`Sweep`] keeps the
//! bound with one sort by start offset and a sweep over the sorted list,
//! where a range overlaps exactly the earlier-sorted ranges still open at
//! its start. The sort runs over one flat array: 4,096 shuffled segments
//! take ~40 ns each against ~250 ns for the AVL tree this replaced
//! (`ctree_bench`, 2-vCPU VM). Ranges that arrive ascending and disjoint,
//! as flattened strided transfers do, are proven clean while they load,
//! without sorting.
//!
//! The IOV method choice ([`scan_segments`]) and the simulated window's
//! MPI conflict check are each one [`Sweep`]. The coalescing scheduler's
//! run formation needs none: its queued operations' segments arrive
//! ascending, so it merges each one into its open run's fused segments.
//!
//! Ranges here are half-open byte intervals `[lo, hi)`; an empty range
//! overlaps nothing.

#![forbid(unsafe_code)]

use std::ops::ControlFlow;

/// A conflict was found: the probed range overlaps an existing one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict {
    /// The existing range that overlaps.
    pub existing: (usize, usize),
    /// The range being inserted.
    pub new: (usize, usize),
}

impl std::fmt::Display for Conflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "range [{}, {}) overlaps existing [{}, {})",
            self.new.0, self.new.1, self.existing.0, self.existing.1
        )
    }
}

impl std::error::Error for Conflict {}

/// Sort-and-sweep overlap finder over tagged ranges.
///
/// Load `(lo, hi, tag)` ranges with [`Sweep::push`], tags in program order
/// (nondecreasing, not necessarily distinct), then [`Sweep::overlaps`]
/// reports every overlapping pair as `(earlier tag, later tag)` until the
/// caller breaks. O(N·log N + P) for N ranges and P reported pairs. The
/// buffers are kept across [`Sweep::clear`], so a sweep held by its
/// caller allocates nothing in steady state.
///
/// ```
/// use std::ops::ControlFlow;
///
/// let mut s = ctree::Sweep::default();
/// s.push(0, 16, 0);
/// s.push(32, 48, 1);
/// s.push(8, 40, 2);
/// let mut pairs = Vec::new();
/// let _ = s.overlaps(|a, b| {
///     pairs.push((a, b));
///     ControlFlow::<()>::Continue(())
/// });
/// pairs.sort_unstable();
/// assert_eq!(pairs, [(0, 2), (1, 2)]);
/// assert_eq!(s.first_overlap(), Some((0, 2)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    /// `(lo, hi, tag)` of every nonempty range: in push order, then by
    /// `lo` once [`Sweep::overlaps`] has sorted them.
    ranges: Vec<(usize, usize, usize)>,
    /// The highest `hi` pushed.
    end: usize,
    /// Some push started below `end`: the ranges are not (yet) proven
    /// ascending and disjoint.
    unproven: bool,
    /// `(hi, tag)` of the sorted ranges still open at the sweep's offset.
    open: Vec<(usize, usize)>,
}

impl Sweep {
    /// Removes every range, keeping the buffers.
    pub fn clear(&mut self) {
        self.ranges.clear();
        self.end = 0;
        self.unproven = false;
    }

    /// Adds `[lo, hi)` under `tag`. Empty ranges are dropped.
    pub fn push(&mut self, lo: usize, hi: usize, tag: usize) {
        debug_assert!(lo <= hi, "inverted range [{lo}, {hi})");
        if lo < hi {
            self.unproven |= lo < self.end;
            self.end = self.end.max(hi);
            self.ranges.push((lo, hi, tag));
        }
    }

    /// Calls `each(earlier, later)` with the tags of every overlapping
    /// pair of ranges (a range overlapping another of its own tag gives
    /// `(tag, tag)`), in address order of the later-starting range, and
    /// stops at the first `Break`. Ranges pushed ascending and disjoint
    /// return at once: they are in address order and overlap nothing.
    pub fn overlaps<B>(
        &mut self,
        mut each: impl FnMut(usize, usize) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        if !self.unproven {
            return ControlFlow::Continue(());
        }
        // By offset alone: the sweep needs only ascending starts.
        self.ranges.sort_unstable_by_key(|&(lo, ..)| lo);
        self.open.clear();
        for &(lo, hi, tag) in &self.ranges {
            self.open.retain(|&(end, _)| end > lo);
            for &(_, other) in &self.open {
                each(other.min(tag), other.max(tag))?;
            }
            self.open.push((hi, tag));
        }
        ControlFlow::Continue(())
    }

    /// The first overlapping pair [`Sweep::overlaps`] meets, if any.
    pub fn first_overlap(&mut self) -> Option<(usize, usize)> {
        match self.overlaps(|a, b| ControlFlow::Break((a, b))) {
            ControlFlow::Break(pair) => Some(pair),
            ControlFlow::Continue(()) => None,
        }
    }
}

/// Checks an IOV segment list `(offset, len)` for pairwise disjointness:
/// `Ok(())` if disjoint, otherwise a pair that overlaps, the earlier
/// segment as `existing`. O(N·log N).
///
/// ```
/// let strided: Vec<(usize, usize)> = (0..1024).map(|i| (i * 64, 16)).collect();
/// assert!(ctree::scan_segments(&strided).is_ok());
/// assert!(ctree::scan_segments(&[(0, 8), (4, 8)]).is_err());
/// ```
pub fn scan_segments(segs: &[(usize, usize)]) -> Result<(), Conflict> {
    let mut sweep = Sweep::default();
    for (i, &(off, len)) in segs.iter().enumerate() {
        sweep.push(off, off + len, i);
    }
    let range = |i: usize| (segs[i].0, segs[i].0 + segs[i].1);
    match sweep.first_overlap() {
        Some((a, b)) => Err(Conflict {
            existing: range(a),
            new: range(b),
        }),
        None => Ok(()),
    }
}

/// Sorts and fuses a caller-owned segment list `(offset, len)` into the
/// minimal set of maximal ranges covering the same bytes, without
/// allocating: adjacent or overlapping segments merge, zero-length
/// segments vanish, output is ascending. O(N·log N). The coalescing
/// scheduler fuses only segments it has proven disjoint — merging
/// *overlapping* writes or accumulates would change semantics — but the
/// function itself is total and the merged cover is byte-equal for any
/// input.
pub fn merge_in_place(segs: &mut Vec<(usize, usize)>) {
    segs.retain(|&(_, len)| len > 0);
    segs.sort_unstable();
    let mut w = 0usize;
    for i in 0..segs.len() {
        let (lo, len) = segs[i];
        match w.checked_sub(1).map(|k| segs[k]) {
            Some((plo, plen)) if lo <= plo + plen => {
                segs[w - 1].1 = (plo + plen).max(lo + len) - plo;
            }
            _ => {
                segs[w] = (lo, len);
                w += 1;
            }
        }
    }
    segs.truncate(w);
}

/// Reference O(N²) pairwise scan (tests, ablation benchmarks).
pub fn scan_segments_naive(segs: &[(usize, usize)]) -> Result<(), Conflict> {
    for (i, &(o1, l1)) in segs.iter().enumerate() {
        if l1 == 0 {
            continue;
        }
        for &(o2, l2) in &segs[..i] {
            if l2 == 0 {
                continue;
            }
            if o2 < o1 + l1 && o1 < o2 + l2 {
                return Err(Conflict {
                    existing: (o2, o2 + l2),
                    new: (o1, o1 + l1),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every pair `s` reports, sorted.
    fn pairs(s: &mut Sweep) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let _ = s.overlaps(|a, b| {
            out.push((a, b));
            ControlFlow::<()>::Continue(())
        });
        out.sort_unstable();
        out
    }

    fn merged(segs: &[(usize, usize)]) -> Vec<(usize, usize)> {
        let mut v = segs.to_vec();
        merge_in_place(&mut v);
        v
    }

    #[test]
    fn empty_sweep_reports_nothing() {
        let mut s = Sweep::default();
        assert!(pairs(&mut s).is_empty());
        assert_eq!(s.first_overlap(), None);
    }

    #[test]
    fn adjacent_ranges_do_not_overlap() {
        let mut s = Sweep::default();
        for (i, lo) in [20usize, 0, 10].into_iter().enumerate() {
            s.push(lo, lo + 10, i);
        }
        assert!(pairs(&mut s).is_empty());
        // a range across a shared edge overlaps both sides of it
        s.push(15, 25, 3);
        assert_eq!(pairs(&mut s), [(0, 3), (2, 3)]);
    }

    #[test]
    fn one_byte_ranges_overlap_only_on_the_same_byte() {
        let mut s = Sweep::default();
        for (i, lo) in [7usize, 5, 6, 7].into_iter().enumerate() {
            s.push(lo, lo + 1, i);
        }
        assert_eq!(pairs(&mut s), [(0, 3)]);
    }

    #[test]
    fn containment_both_directions_and_duplicates_overlap() {
        let mut s = Sweep::default();
        s.push(10, 20, 0);
        s.push(12, 15, 1); // inside
        s.push(5, 25, 2); // around
        s.push(10, 20, 3); // duplicate
        assert_eq!(
            pairs(&mut s),
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        );
    }

    #[test]
    fn shared_tags_report_self_pairs() {
        let mut s = Sweep::default();
        s.push(0, 8, 0);
        s.push(4, 12, 0);
        s.push(100, 108, 1);
        s.push(104, 106, 1);
        s.push(6, 7, 1);
        assert_eq!(pairs(&mut s), [(0, 0), (0, 1), (0, 1), (1, 1)]);
    }

    #[test]
    fn zero_length_ranges_are_dropped() {
        let mut s = Sweep::default();
        s.push(0, 10, 0);
        s.push(5, 5, 1);
        s.push(10, 10, 2);
        // kept, `[5, 5)` would pair with `[0, 10)`, open at its start
        assert!(pairs(&mut s).is_empty());
        assert!(scan_segments(&[(0, 10), (5, 0)]).is_ok());
    }

    #[test]
    fn ascending_disjoint_input_stays_unsorted_and_unswept() {
        let mut s = Sweep::default();
        for i in 0..100 {
            s.push(i * 10, i * 10 + 5, i);
        }
        assert!(!s.unproven);
        assert_eq!(s.first_overlap(), None);
        // one range below the highest end needs the sort
        s.push(4, 6, 100);
        assert!(s.unproven);
        assert_eq!(s.first_overlap(), Some((0, 100)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "inverted range")]
    fn inverted_range_panics_in_debug() {
        Sweep::default().push(10, 5, 0);
    }

    #[test]
    fn break_stops_at_the_first_pair() {
        let mut s = Sweep::default();
        for i in 0..10 {
            s.push(0, 10, i);
        }
        let mut calls = 0;
        let out = s.overlaps(|a, b| {
            calls += 1;
            if calls == 3 {
                ControlFlow::Break((a, b))
            } else {
                ControlFlow::Continue(())
            }
        });
        assert!(out.is_break());
        assert_eq!(calls, 3);
    }

    #[test]
    fn clear_keeps_the_sweep_reusable() {
        let mut s = Sweep::default();
        s.push(0, 10, 0);
        s.push(5, 15, 1);
        assert_eq!(s.first_overlap(), Some((0, 1)));
        s.clear();
        assert!(!s.unproven);
        // either range left over would overlap this one
        s.push(5, 15, 0);
        assert_eq!(s.first_overlap(), None);
        s.push(0, 8, 1);
        assert_eq!(s.first_overlap(), Some((0, 1)));
    }

    #[test]
    fn scan_matches_naive_on_examples() {
        let disjoint = vec![(0usize, 8), (16, 8), (8, 8), (100, 1)];
        assert!(scan_segments(&disjoint).is_ok());
        assert!(scan_segments_naive(&disjoint).is_ok());
        let overlapping = vec![(0usize, 8), (16, 8), (4, 8)];
        let c = scan_segments(&overlapping).unwrap_err();
        assert_eq!((c.existing, c.new), ((0, 8), (4, 12)));
        assert!(scan_segments_naive(&overlapping).is_err());
    }

    #[test]
    fn merge_fuses_adjacent_and_overlapping() {
        // unsorted, with an adjacency (0..8 + 8..8), an overlap
        // (30..10 vs 35..10), and a zero-length segment
        let segs = vec![(8usize, 8usize), (0, 8), (35, 10), (30, 10), (100, 0)];
        assert_eq!(merged(&segs), vec![(0, 16), (30, 15)]);
    }

    #[test]
    fn merge_empty_and_singleton() {
        assert!(merged(&[]).is_empty());
        assert!(merged(&[(5, 0)]).is_empty());
        assert_eq!(merged(&[(7, 3)]), vec![(7, 3)]);
    }

    #[test]
    fn merge_strided_gap_preserved() {
        // stride 64, len 16: nothing adjacent, output == sorted input
        let segs: Vec<(usize, usize)> = (0..32).rev().map(|i| (i * 64, 16)).collect();
        let merged = merged(&segs);
        assert_eq!(merged.len(), 32);
        assert_eq!(merged[0], (0, 16));
        assert_eq!(merged[31], (31 * 64, 16));
    }

    #[test]
    fn typical_strided_iov_is_clean() {
        // 1024 segments of 16 bytes with stride 64 — the Figure 4 shape.
        let segs: Vec<(usize, usize)> = (0..1024).map(|i| (i * 64, 16)).collect();
        assert!(scan_segments(&segs).is_ok());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// `(offset, len)` lists: short ranges (zero-length and one-byte ones
    /// included) over a small space, so that overlaps are common.
    fn arb_segs() -> impl Strategy<Value = Vec<(usize, usize)>> {
        (
            0usize..2,
            proptest::collection::vec((0usize..500, 0usize..32), 0..200),
        )
            .prop_map(|(tiny, segs)| {
                if tiny == 1 {
                    segs.into_iter()
                        .take(64)
                        .map(|(o, l)| (o % 64, l % 2))
                        .collect()
                } else {
                    segs
                }
            })
    }

    proptest! {
        /// [`scan_segments`] agrees with the naive O(N²) oracle, and a
        /// reported conflict names two listed segments, the earlier one
        /// as `existing`, that really overlap.
        #[test]
        fn matches_naive_oracle(segs in arb_segs()) {
            let got = scan_segments(&segs);
            prop_assert_eq!(got.is_ok(), scan_segments_naive(&segs).is_ok());
            if let Err(c) = got {
                let range = |i: usize| (segs[i].0, segs[i].0 + segs[i].1);
                prop_assert!((0..segs.len())
                    .any(|j| range(j) == c.new && (0..j).any(|i| range(i) == c.existing)));
                prop_assert!(c.existing.0 < c.new.1 && c.new.0 < c.existing.1);
            }
        }

        /// Over tagged ranges (tags in program order, shared by runs of
        /// ranges), the sweep reports exactly the overlapping pairs the
        /// all-pairs scan finds among the nonempty ranges, each once, as
        /// `(earlier, later)` tags.
        #[test]
        fn reports_every_overlapping_pair_once(
            segs in arb_segs(),
            steps in proptest::collection::vec(0usize..3, 200)
        ) {
            let mut tag = 0usize;
            let tagged: Vec<(usize, usize, usize)> = segs
                .iter()
                .zip(&steps)
                .map(|(&(off, len), &step)| {
                    tag += usize::from(step == 0);
                    (off, off + len, tag)
                })
                .collect();
            let mut s = Sweep::default();
            for &(lo, hi, t) in &tagged {
                s.push(lo, hi, t);
            }
            let mut got = Vec::new();
            let _ = s.overlaps(|a, b| {
                got.push((a, b));
                ControlFlow::<()>::Continue(())
            });
            got.sort_unstable();
            let mut want = Vec::new();
            for (j, &(lo, hi, tj)) in tagged.iter().enumerate() {
                for &(plo, phi, ti) in &tagged[..j] {
                    if lo < hi && plo < phi && plo < hi && lo < phi {
                        want.push((ti, tj));
                    }
                }
            }
            want.sort_unstable();
            prop_assert_eq!(want.is_empty(), scan_segments_naive(&segs).is_ok());
            prop_assert_eq!(got, want);
        }

        /// An ascending prefix followed by an arbitrary tail: the scan
        /// agrees with the naive oracle whether or not the tail breaks
        /// the ascending proof.
        #[test]
        fn ascending_prefix_then_arbitrary_tail_matches_naive(
            gaps in proptest::collection::vec((0usize..8, 0usize..8), 0..120),
            tail in proptest::collection::vec((0usize..1200, 0usize..24), 0..60)
        ) {
            let mut segs = Vec::new();
            let mut end = 0usize;
            for &(gap, len) in &gaps {
                segs.push((end + gap, len));
                end += gap + len;
            }
            prop_assert!(scan_segments(&segs).is_ok());
            segs.extend(tail.iter().copied());
            prop_assert_eq!(scan_segments(&segs).is_ok(), scan_segments_naive(&segs).is_ok());
        }

        /// The merged segment list covers exactly the same bytes as a
        /// naive per-byte union, is itself conflict-free, and is minimal
        /// (no two output ranges touch or overlap).
        #[test]
        fn merge_matches_naive_coverage_oracle(
            segs in proptest::collection::vec((0usize..600, 0usize..48), 0..200)
        ) {
            let mut merged = segs.clone();
            merge_in_place(&mut merged);
            // naive oracle: mark every covered byte
            let mut cover = vec![false; 700];
            for &(off, len) in &segs {
                for c in cover.iter_mut().skip(off).take(len) {
                    *c = true;
                }
            }
            let mut merged_cover = vec![false; 700];
            for &(off, len) in &merged {
                for (b, c) in merged_cover.iter_mut().enumerate().skip(off).take(len) {
                    prop_assert!(!*c, "byte {} covered twice", b);
                    *c = true;
                }
            }
            prop_assert_eq!(cover, merged_cover);
            // conflict-free by construction
            prop_assert!(scan_segments(&merged).is_ok());
            // minimal: consecutive output ranges separated by a real gap
            for w in merged.windows(2) {
                prop_assert!(w[0].0 + w[0].1 < w[1].0);
            }
        }
    }
}
