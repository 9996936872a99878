//! Conflict tree: O(N·log N) overlap detection for IOV descriptors.
//!
//! Section VI-B of the paper: the *batched* and *datatype* IOV methods
//! require that no two segments of a generalized I/O vector overlap. A
//! naive pairwise scan is O(N²), and NWChem routinely produces IOVs with
//! tens to hundreds of thousands of segments. The paper's solution is a
//! self-balancing (AVL) binary tree of non-overlapping address ranges with
//! **merged check-and-insert**: each range is checked for conflicts during
//! its own insertion descent; if a conflict is found the insertion is
//! abandoned and the caller falls back to the *conservative* transfer
//! method. Ranges that arrive in ascending order, as flattened strided
//! transfers do, are appended to a sorted list instead and linked into the
//! tree only when the first out-of-order range arrives; the worst case
//! stays O(N·log N).
//!
//! Unlike an interval tree, this structure never stores overlapping
//! ranges — that is precisely the property being verified — which keeps
//! both the invariant and the search trivial: for any node, the entire left
//! subtree lies strictly below `lo` and the right subtree strictly above
//! `hi`.
//!
//! Ranges here are half-open byte intervals `[lo, hi)`.

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

/// Index of "no child" in the node arena.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    lo: usize,
    hi: usize,
    height: u32,
    left: u32,
    right: u32,
}

/// AVL tree of pairwise-disjoint half-open ranges with merged
/// check-and-insert.
///
/// Nodes live in one arena vector and link by index, so inserting costs no
/// per-node allocation, and [`ConflictTree::clear`] keeps the arena for
/// reuse: a tree held across scans allocates nothing in steady state.
///
/// Ordered input is appended, not linked. While every insert starts at or
/// above the end of the previous one, the arena is a sorted list that
/// already proves its ranges disjoint, and an insert is one comparison and
/// a push. The first out-of-order insert links the sorted arena into a
/// balanced AVL tree in O(n); from then on inserts take the AVL descent.
/// Flattened strided transfers arrive ascending, so most scans never link.
///
/// ```
/// use ctree::ConflictTree;
///
/// let mut t = ConflictTree::new();
/// t.try_insert(0, 16).unwrap();
/// t.try_insert(32, 48).unwrap();
/// // overlap detected before anything is inserted; tree unchanged
/// let conflict = t.try_insert(8, 40).unwrap_err();
/// assert_eq!(conflict.new, (8, 40));
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ConflictTree {
    nodes: Vec<Node>,
    /// Root of the linked tree; [`NIL`] while the arena is an unlinked
    /// ascending list (and when empty).
    root: u32,
}

impl Default for ConflictTree {
    fn default() -> Self {
        ConflictTree {
            nodes: Vec::new(),
            root: NIL,
        }
    }
}

impl ConflictTree {
    /// Empty tree.
    pub fn new() -> ConflictTree {
        ConflictTree::default()
    }

    /// Removes every range, keeping the arena's capacity. The tree
    /// returns to appending.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.root = NIL;
    }

    /// Number of stored ranges.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// No ranges stored?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Is the arena still an unlinked ascending list?
    fn appending(&self) -> bool {
        self.root == NIL
    }

    /// Tree height (0 for empty); exposed for balance tests and benches.
    /// An unlinked ascending list reports the height linking would give
    /// it, which is also the depth of its binary search.
    pub fn height(&self) -> u32 {
        if self.appending() {
            usize::BITS - self.nodes.len().leading_zeros()
        } else {
            self.h(self.root)
        }
    }

    fn h(&self, n: u32) -> u32 {
        if n == NIL {
            0
        } else {
            self.nodes[n as usize].height
        }
    }

    fn update(&mut self, n: u32) {
        let Node { left, right, .. } = self.nodes[n as usize];
        self.nodes[n as usize].height = 1 + self.h(left).max(self.h(right));
    }

    fn balance_factor(&self, n: u32) -> i64 {
        let Node { left, right, .. } = self.nodes[n as usize];
        self.h(left) as i64 - self.h(right) as i64
    }

    fn rotate_right(&mut self, n: u32) -> u32 {
        let l = self.nodes[n as usize].left;
        debug_assert!(l != NIL, "rotate_right without left child");
        self.nodes[n as usize].left = self.nodes[l as usize].right;
        self.update(n);
        self.nodes[l as usize].right = n;
        self.update(l);
        l
    }

    fn rotate_left(&mut self, n: u32) -> u32 {
        let r = self.nodes[n as usize].right;
        debug_assert!(r != NIL, "rotate_left without right child");
        self.nodes[n as usize].right = self.nodes[r as usize].left;
        self.update(n);
        self.nodes[r as usize].left = n;
        self.update(r);
        r
    }

    fn rebalance(&mut self, n: u32) -> u32 {
        self.update(n);
        let bf = self.balance_factor(n);
        if bf > 1 {
            let l = self.nodes[n as usize].left;
            if self.balance_factor(l) < 0 {
                self.nodes[n as usize].left = self.rotate_left(l);
            }
            self.rotate_right(n)
        } else if bf < -1 {
            let r = self.nodes[n as usize].right;
            if self.balance_factor(r) > 0 {
                self.nodes[n as usize].right = self.rotate_right(r);
            }
            self.rotate_left(n)
        } else {
            n
        }
    }

    /// Appends a node to the arena and returns its index.
    fn push(&mut self, lo: usize, hi: usize) -> u32 {
        let idx = u32::try_from(self.nodes.len()).expect("conflict tree node count");
        assert!(idx != NIL, "conflict tree node count");
        self.nodes.push(Node {
            lo,
            hi,
            height: 1,
            left: NIL,
            right: NIL,
        });
        idx
    }

    /// Links the ascending arena slice `lo..hi` into a balanced subtree
    /// and returns its root: the middle node, over the halves either side.
    /// Sibling subtrees differ in size by at most one, so in height by at
    /// most one.
    fn link(&mut self, lo: usize, hi: usize) -> u32 {
        if lo == hi {
            return NIL;
        }
        let mid = lo + (hi - lo) / 2;
        let left = self.link(lo, mid);
        let right = self.link(mid + 1, hi);
        let node = &mut self.nodes[mid];
        node.left = left;
        node.right = right;
        self.update(mid as u32);
        mid as u32
    }

    /// The lowest stored range of the unlinked ascending list that
    /// overlaps `[lo, hi)`, by binary search.
    fn search_sorted(&self, lo: usize, hi: usize) -> Option<(usize, usize)> {
        let i = self.nodes.partition_point(|n| n.hi <= lo);
        self.nodes
            .get(i)
            .filter(|n| n.lo < hi)
            .map(|n| (n.lo, n.hi))
    }

    /// Inserts below `n`, returning the subtree's new root. A conflict is
    /// found on the way down, before anything is linked, so an `Err`
    /// leaves the tree unchanged.
    fn insert(&mut self, n: u32, lo: usize, hi: usize) -> Result<u32, Conflict> {
        if n == NIL {
            return Ok(self.push(lo, hi));
        }
        let node = self.nodes[n as usize];
        // Half-open intervals intersect iff lo < n.hi && n.lo < hi.
        if lo < node.hi && node.lo < hi {
            return Err(Conflict {
                existing: (node.lo, node.hi),
                new: (lo, hi),
            });
        }
        if hi <= node.lo {
            let l = self.insert(node.left, lo, hi)?;
            self.nodes[n as usize].left = l;
        } else {
            debug_assert!(lo >= node.hi);
            let r = self.insert(node.right, lo, hi)?;
            self.nodes[n as usize].right = r;
        }
        Ok(self.rebalance(n))
    }

    /// Checks `[lo, hi)` against all stored ranges and inserts it when
    /// disjoint. On conflict the tree is unchanged and the overlapping
    /// range is reported. Zero-length ranges are accepted and ignored.
    pub fn try_insert(&mut self, lo: usize, hi: usize) -> Result<(), Conflict> {
        assert!(lo <= hi, "inverted range [{lo}, {hi})");
        if lo == hi {
            return Ok(());
        }
        if self.appending() {
            if self.nodes.last().is_none_or(|n| lo >= n.hi) {
                self.push(lo, hi);
                return Ok(());
            }
            // Reject a conflict before linking, so that an `Err` leaves
            // the tree exactly as it was, list or not.
            if let Some(existing) = self.search_sorted(lo, hi) {
                return Err(Conflict {
                    existing,
                    new: (lo, hi),
                });
            }
            self.root = self.link(0, self.nodes.len());
        }
        self.root = self.insert(self.root, lo, hi)?;
        Ok(())
    }

    /// Pure overlap query (no insertion).
    pub fn overlaps(&self, lo: usize, hi: usize) -> Option<(usize, usize)> {
        if lo >= hi {
            return None;
        }
        if self.appending() {
            return self.search_sorted(lo, hi);
        }
        let mut cur = self.root;
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            if lo < n.hi && n.lo < hi {
                return Some((n.lo, n.hi));
            }
            cur = if hi <= n.lo { n.left } else { n.right };
        }
        None
    }

    /// In-order range dump (ascending, for tests).
    pub fn ranges(&self) -> Vec<(usize, usize)> {
        fn walk(t: &ConflictTree, n: u32, out: &mut Vec<(usize, usize)>) {
            if n != NIL {
                let node = &t.nodes[n as usize];
                walk(t, node.left, out);
                out.push((node.lo, node.hi));
                walk(t, node.right, out);
            }
        }
        if self.appending() {
            return self.nodes.iter().map(|n| (n.lo, n.hi)).collect();
        }
        let mut out = Vec::with_capacity(self.len());
        walk(self, self.root, &mut out);
        out
    }

    /// Verifies the ordering invariants, and once linked the AVL ones
    /// and that every node is reachable (test support).
    pub fn check_invariants(&self) -> bool {
        fn check(t: &ConflictTree, n: u32, min: usize, max: usize) -> Option<(u32, usize)> {
            if n == NIL {
                return Some((0, 0));
            }
            let node = &t.nodes[n as usize];
            if node.lo < min || node.hi > max || node.lo >= node.hi {
                return None;
            }
            let (hl, nl) = check(t, node.left, min, node.lo)?;
            let (hr, nr) = check(t, node.right, node.hi, max)?;
            if (hl as i64 - hr as i64).abs() > 1 || node.height != 1 + hl.max(hr) {
                return None;
            }
            Some((node.height, 1 + nl + nr))
        }
        if self.appending() {
            return self.nodes.iter().all(|n| n.lo < n.hi)
                && self.nodes.windows(2).all(|w| w[0].hi <= w[1].lo);
        }
        check(self, self.root, 0, usize::MAX).is_some_and(|(_, n)| n == self.len())
    }
}

/// Checks an IOV segment list `(offset, len)` for pairwise disjointness
/// using the conflict tree: `Ok(())` if disjoint, the first conflict
/// otherwise. O(N·log N).
///
/// ```
/// let strided: Vec<(usize, usize)> = (0..1024).map(|i| (i * 64, 16)).collect();
/// assert!(ctree::scan_segments(&strided).is_ok());
/// assert!(ctree::scan_segments(&[(0, 8), (4, 8)]).is_err());
/// ```
pub fn scan_segments(segs: &[(usize, usize)]) -> Result<(), Conflict> {
    let mut tree = ConflictTree::new();
    for &(off, len) in segs {
        tree.try_insert(off, off + len)?;
    }
    Ok(())
}

/// Sorts and fuses a segment list `(offset, len)` into the minimal set of
/// maximal ranges covering the same bytes: adjacent or overlapping
/// segments merge, zero-length segments vanish, output is ascending.
/// O(N·log N). The coalescing scheduler calls this only after
/// [`scan_segments`] proves the input disjoint — merging *overlapping*
/// writes or accumulates would change semantics — but the function itself
/// is total and the merged cover is byte-equal for any input.
pub fn merge_segments(segs: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut v = segs.to_vec();
    merge_in_place(&mut v);
    v
}

/// [`merge_segments`] on a caller-owned list, replacing it with the merged
/// cover without allocating.
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

    #[test]
    fn empty_tree() {
        let t = ConflictTree::new();
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert_eq!(t.overlaps(0, 10), None);
        assert!(t.check_invariants());
    }

    #[test]
    fn disjoint_inserts_succeed() {
        let mut t = ConflictTree::new();
        for i in 0..100 {
            t.try_insert(i * 10, i * 10 + 5).unwrap();
        }
        assert_eq!(t.len(), 100);
        assert!(t.check_invariants());
    }

    #[test]
    fn adjacent_ranges_do_not_conflict() {
        let mut t = ConflictTree::new();
        t.try_insert(0, 10).unwrap();
        t.try_insert(10, 20).unwrap();
        t.try_insert(20, 30).unwrap();
        assert_eq!(t.ranges(), vec![(0, 10), (10, 20), (20, 30)]);
    }

    #[test]
    fn overlap_detected_and_tree_unchanged() {
        let mut t = ConflictTree::new();
        t.try_insert(0, 10).unwrap();
        t.try_insert(20, 30).unwrap();
        let c = t.try_insert(5, 25).unwrap_err();
        assert!(c.existing == (0, 10) || c.existing == (20, 30));
        assert_eq!(c.new, (5, 25));
        assert_eq!(t.len(), 2);
        assert!(t.check_invariants());
    }

    #[test]
    fn containment_both_directions_is_conflict() {
        let mut t = ConflictTree::new();
        t.try_insert(10, 20).unwrap();
        assert!(t.try_insert(12, 15).is_err()); // new inside existing
        assert!(t.try_insert(5, 25).is_err()); // new contains existing
        assert!(t.try_insert(10, 20).is_err()); // exact duplicate
    }

    #[test]
    fn zero_length_ranges_ignored() {
        let mut t = ConflictTree::new();
        t.try_insert(5, 5).unwrap();
        assert!(t.is_empty());
        t.try_insert(0, 10).unwrap();
        t.try_insert(5, 5).unwrap(); // zero length never conflicts
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "inverted range")]
    fn inverted_range_panics() {
        let _ = ConflictTree::new().try_insert(10, 5);
    }

    #[test]
    fn ascending_insert_stays_balanced() {
        let mut t = ConflictTree::new();
        let n = 1usize << 12;
        for i in 0..n {
            t.try_insert(i * 2, i * 2 + 1).unwrap();
        }
        assert!(t.check_invariants());
        // AVL height bound: 1.44·log2(n+2)
        let bound = (1.45 * ((n + 2) as f64).log2()).ceil() as u32;
        assert!(t.height() <= bound, "height {} > bound {bound}", t.height());
    }

    #[test]
    fn descending_insert_stays_balanced() {
        let mut t = ConflictTree::new();
        for i in (0..1000usize).rev() {
            t.try_insert(i * 2, i * 2 + 1).unwrap();
        }
        assert!(t.check_invariants());
        assert!(t.height() <= 15);
    }

    #[test]
    fn clear_empties_and_tree_is_reusable() {
        let mut t = ConflictTree::new();
        for i in 0..64 {
            t.try_insert(i * 4, i * 4 + 2).unwrap();
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert_eq!(t.overlaps(0, 1000), None);
        t.try_insert(1, 3).unwrap();
        assert!(t.try_insert(2, 5).is_err());
        assert_eq!(t.ranges(), vec![(1, 3)]);
        assert!(t.check_invariants());
    }

    #[test]
    fn ranges_are_sorted_in_order() {
        let mut t = ConflictTree::new();
        for &x in &[50usize, 10, 90, 30, 70] {
            t.try_insert(x, x + 5).unwrap();
        }
        assert_eq!(
            t.ranges(),
            vec![(10, 15), (30, 35), (50, 55), (70, 75), (90, 95)]
        );
    }

    #[test]
    fn overlaps_query_pure() {
        let mut t = ConflictTree::new();
        t.try_insert(100, 200).unwrap();
        assert_eq!(t.overlaps(150, 160), Some((100, 200)));
        assert_eq!(t.overlaps(0, 100), None);
        assert_eq!(t.overlaps(200, 300), None);
        assert_eq!(t.overlaps(199, 201), Some((100, 200)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn scan_matches_naive_on_examples() {
        let disjoint = vec![(0usize, 8), (16, 8), (8, 8), (100, 1)];
        assert!(scan_segments(&disjoint).is_ok());
        assert!(scan_segments_naive(&disjoint).is_ok());
        let overlapping = vec![(0usize, 8), (16, 8), (4, 8)];
        assert!(scan_segments(&overlapping).is_err());
        assert!(scan_segments_naive(&overlapping).is_err());
    }

    #[test]
    fn merge_fuses_adjacent_and_overlapping() {
        // unsorted, with an adjacency (0..8 + 8..8), an overlap
        // (30..10 vs 35..10), and a zero-length segment
        let segs = vec![(8usize, 8usize), (0, 8), (35, 10), (30, 10), (100, 0)];
        assert_eq!(merge_segments(&segs), vec![(0, 16), (30, 15)]);
    }

    #[test]
    fn merge_empty_and_singleton() {
        assert!(merge_segments(&[]).is_empty());
        assert!(merge_segments(&[(5, 0)]).is_empty());
        assert_eq!(merge_segments(&[(7, 3)]), vec![(7, 3)]);
    }

    #[test]
    fn merge_strided_gap_preserved() {
        // stride 64, len 16: nothing adjacent, output == sorted input
        let segs: Vec<(usize, usize)> = (0..32).rev().map(|i| (i * 64, 16)).collect();
        let merged = merge_segments(&segs);
        assert_eq!(merged.len(), 32);
        assert_eq!(merged[0], (0, 16));
        assert_eq!(merged[31], (31 * 64, 16));
    }

    #[test]
    fn ascending_inserts_append_without_linking() {
        let mut t = ConflictTree::new();
        for i in 0..100 {
            t.try_insert(i * 10, i * 10 + 10).unwrap();
        }
        assert!(t.appending());
        assert_eq!(t.height(), 7);
        assert_eq!(t.overlaps(95, 96), Some((90, 100)));
        assert_eq!(t.overlaps(1000, 1010), None);
        assert!(t.check_invariants());
        // an overlapping insert below the end is rejected by the search
        // and leaves the list unlinked
        let c = t.try_insert(5, 25).unwrap_err();
        assert_eq!((c.existing, c.new), ((0, 10), (5, 25)));
        assert!(t.appending());
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn first_out_of_order_insert_links_a_balanced_tree() {
        let mut t = ConflictTree::new();
        for i in 1..64usize {
            t.try_insert(i * 4, i * 4 + 2).unwrap();
        }
        t.try_insert(0, 2).unwrap();
        assert!(!t.appending());
        assert!(t.check_invariants());
        assert_eq!(t.height(), 7);
        assert_eq!(t.len(), 64);
        let expect: Vec<(usize, usize)> = (0..64).map(|i| (i * 4, i * 4 + 2)).collect();
        assert_eq!(t.ranges(), expect);
        // linked inserts keep checking, in any order
        assert!(t.try_insert(100, 103).is_err());
        t.try_insert(1000, 1001).unwrap();
        t.try_insert(2, 4).unwrap();
        assert!(t.check_invariants());
        t.clear();
        assert!(t.appending());
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

    proptest! {
        /// The tree agrees with the naive O(N²) oracle on arbitrary
        /// segment lists.
        #[test]
        fn matches_naive_oracle(
            segs in proptest::collection::vec((0usize..500, 0usize..32), 0..200)
        ) {
            let tree = scan_segments(&segs);
            let naive = scan_segments_naive(&segs);
            prop_assert_eq!(tree.is_ok(), naive.is_ok());
        }

        /// Invariants hold after any sequence of insert attempts, and the
        /// stored set equals the greedily-accepted prefix set.
        #[test]
        fn invariants_maintained(
            segs in proptest::collection::vec((0usize..10_000, 1usize..64), 0..300)
        ) {
            let mut t = ConflictTree::new();
            let mut stored: Vec<(usize, usize)> = Vec::new();
            for &(off, len) in &segs {
                if t.try_insert(off, off + len).is_ok() {
                    stored.push((off, off + len));
                }
                prop_assert!(t.check_invariants());
            }
            stored.sort_unstable();
            prop_assert_eq!(t.ranges(), stored);
        }

        /// The merged segment list covers exactly the same bytes as a
        /// naive per-byte union, is itself conflict-free, and is minimal
        /// (no two output ranges touch or overlap).
        #[test]
        fn merge_matches_naive_coverage_oracle(
            segs in proptest::collection::vec((0usize..600, 0usize..48), 0..200)
        ) {
            let merged = merge_segments(&segs);
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

        /// The graph-driver access shape — many tiny word-aligned
        /// intervals scattered non-adjacently across a big space, with
        /// hot duplicates from revisited vertices — gets the same
        /// per-op accept/reject verdict as a linear-scan oracle, and
        /// the final stored set matches.
        #[test]
        fn irregular_tiny_intervals_match_linear_scan_oracle(
            words in proptest::collection::vec((0usize..512, 1usize..9), 1..400)
        ) {
            let mut t = ConflictTree::new();
            let mut oracle: Vec<(usize, usize)> = Vec::new();
            for &(word, len) in &words {
                let (lo, hi) = (word * 8, word * 8 + len);
                let oracle_ok = oracle.iter().all(|&(slo, shi)| hi <= slo || shi <= lo);
                match t.try_insert(lo, hi) {
                    Ok(()) => prop_assert!(oracle_ok,
                        "tree accepted [{},{}) the linear scan rejects", lo, hi),
                    Err(c) => {
                        prop_assert!(!oracle_ok,
                            "tree rejected [{},{}) the linear scan accepts", lo, hi);
                        let (elo, ehi) = c.existing;
                        prop_assert!(lo < ehi && elo < hi);
                    }
                }
                if oracle_ok {
                    oracle.push((lo, hi));
                }
            }
            oracle.sort_unstable();
            prop_assert_eq!(t.ranges(), oracle);
            prop_assert!(t.check_invariants());
        }

        /// An ascending prefix (appended) followed by an arbitrary tail
        /// (linked on its first out-of-order insert) accepts and rejects
        /// exactly what the naive oracle does; once linked the tree is a
        /// valid AVL within the height bound, and queries agree with the
        /// oracle's stored set.
        #[test]
        fn ascending_prefix_then_arbitrary_tail_matches_naive(
            gaps in proptest::collection::vec((0usize..8, 1usize..8), 0..120),
            tail in proptest::collection::vec((0usize..1200, 1usize..24), 0..60),
            probes in proptest::collection::vec((0usize..1300, 1usize..24), 8)
        ) {
            let mut segs = Vec::new();
            let mut end = 0usize;
            for &(gap, len) in &gaps {
                segs.push((end + gap, len));
                end += gap + len;
            }
            segs.extend(tail.iter().copied());
            let mut t = ConflictTree::new();
            let mut stored: Vec<(usize, usize)> = Vec::new();
            for (i, &(off, len)) in segs.iter().enumerate() {
                let ok = scan_segments_naive(&[stored.as_slice(), &[(off, len)]].concat()).is_ok();
                prop_assert_eq!(t.try_insert(off, off + len).is_ok(), ok, "segment {}", i);
                if ok {
                    stored.push((off, len));
                }
                prop_assert!(t.check_invariants());
            }
            prop_assert_eq!(scan_segments(&segs).is_ok(), scan_segments_naive(&segs).is_ok());
            let n = t.len();
            let bound = (1.45 * ((n + 2) as f64).log2()).ceil() as u32;
            prop_assert!(t.height() <= bound, "height {} > bound {}", t.height(), bound);
            let mut want: Vec<(usize, usize)> = stored.iter().map(|&(o, l)| (o, o + l)).collect();
            want.sort_unstable();
            prop_assert_eq!(t.ranges(), want.clone());
            for &(off, len) in &probes {
                let (lo, hi) = (off, off + len);
                let hit = t.overlaps(lo, hi);
                prop_assert_eq!(hit.is_some(), want.iter().any(|&(a, b)| lo < b && a < hi));
                if let Some((a, b)) = hit {
                    prop_assert!(want.contains(&(a, b)) && lo < b && a < hi);
                }
            }
        }

        /// A reported conflict really overlaps something stored, and a
        /// successful insert really is disjoint from all stored ranges.
        #[test]
        fn conflict_reports_are_truthful(
            segs in proptest::collection::vec((0usize..300, 1usize..40), 1..150)
        ) {
            let mut t = ConflictTree::new();
            let mut stored: Vec<(usize, usize)> = Vec::new();
            for &(off, len) in &segs {
                let (lo, hi) = (off, off + len);
                match t.try_insert(lo, hi) {
                    Ok(()) => {
                        for &(slo, shi) in &stored {
                            prop_assert!(hi <= slo || shi <= lo,
                                "accepted [{},{}) overlapping [{},{})", lo, hi, slo, shi);
                        }
                        stored.push((lo, hi));
                    }
                    Err(c) => {
                        prop_assert!(c.new == (lo, hi));
                        prop_assert!(stored.contains(&c.existing));
                        let (elo, ehi) = c.existing;
                        prop_assert!(lo < ehi && elo < hi);
                    }
                }
            }
        }
    }
}
