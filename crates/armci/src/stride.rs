//! Strided notation (paper Table I) and its translations (§VI-C).
//!
//! A strided transfer is described by:
//!
//! | field        | meaning                                             |
//! |--------------|-----------------------------------------------------|
//! | `src`, `dst` | base pointers                                       |
//! | `sl`         | stride levels = dimensionality − 1                  |
//! | `count[]`    | units per dimension, length `sl+1`; `count[0]` is the contiguous byte run |
//! | `src_strd[]` | source stride array, length `sl` (bytes)            |
//! | `dst_strd[]` | destination stride array, length `sl` (bytes)       |
//!
//! Two translations are provided:
//!
//! * [`StridedIter`] — **Algorithm 1** from the paper, as an iterator (the
//!   paper notes ARMCI-MPI uses the algorithm "to construct an iterator and
//!   reduce space overheads"): yields the `(src_disp, dst_disp)` pair of
//!   every contiguous segment.
//! * [`strided_to_subarray`] — the *backwards* translation from strided
//!   notation to an MPI subarray datatype: array dimensions are regenerated
//!   from the stride and count arrays (possible only when consecutive
//!   strides divide evenly, which GA-generated patches always satisfy).

use crate::error::{ArmciError, ArmciResult};
use mpisim::Datatype;

/// Validates a (strides, count) pair; returns the stride level `sl`.
pub fn validate(strides: &[usize], count: &[usize]) -> ArmciResult<usize> {
    let sl = strides.len();
    if count.len() != sl + 1 {
        return Err(ArmciError::BadDescriptor(format!(
            "count length {} != stride levels {} + 1",
            count.len(),
            sl
        )));
    }
    if count.contains(&0) {
        return Err(ArmciError::BadDescriptor("zero count".into()));
    }
    // Each stride must cover at least the extent of the level below it,
    // otherwise segments self-overlap.
    let mut inner_extent = count[0];
    for i in 0..sl {
        if strides[i] < inner_extent {
            return Err(ArmciError::BadDescriptor(format!(
                "stride[{i}] = {} smaller than inner extent {inner_extent}",
                strides[i]
            )));
        }
        inner_extent = strides[i] * count[i + 1];
    }
    Ok(sl)
}

/// Total bytes moved by a strided transfer.
pub fn total_bytes(count: &[usize]) -> usize {
    count.iter().product()
}

/// Number of contiguous segments.
pub fn num_segments(count: &[usize]) -> usize {
    count[1..].iter().product()
}

/// Extent in bytes from the base pointer to one past the last byte.
pub fn extent(strides: &[usize], count: &[usize]) -> usize {
    let mut last = count[0];
    for i in 0..strides.len() {
        last += (count[i + 1] - 1) * strides[i];
    }
    last
}

/// Algorithm 1 as an iterator: yields `(src_disp, dst_disp)` for each
/// contiguous segment of `count[0]` bytes, in row-major order.
///
/// ```
/// use armci::StridedIter;
///
/// // 4 rows of 16 bytes: source rows every 64 bytes, destination dense
/// let segs: Vec<_> = StridedIter::new(&[64], &[16], &[16, 4]).unwrap().collect();
/// assert_eq!(segs, vec![(0, 0), (64, 16), (128, 32), (192, 48)]);
/// ```
pub struct StridedIter<'a> {
    src_strides: &'a [usize],
    dst_strides: &'a [usize],
    count: &'a [usize],
    idx: Vec<usize>,
    src_disp: usize,
    dst_disp: usize,
    done: bool,
}

impl<'a> StridedIter<'a> {
    /// Builds the iterator; both stride arrays must have length
    /// `count.len() - 1`.
    pub fn new(
        src_strides: &'a [usize],
        dst_strides: &'a [usize],
        count: &'a [usize],
    ) -> ArmciResult<StridedIter<'a>> {
        let sl = validate(src_strides, count)?;
        if dst_strides.len() != sl {
            return Err(ArmciError::BadDescriptor(format!(
                "dst stride levels {} != src {}",
                dst_strides.len(),
                sl
            )));
        }
        validate(dst_strides, count)?;
        Ok(StridedIter {
            src_strides,
            dst_strides,
            count,
            idx: vec![0; sl],
            src_disp: 0,
            dst_disp: 0,
            done: false,
        })
    }

    /// Remaining segment count is exact.
    fn remaining(&self) -> usize {
        if self.done {
            return 0;
        }
        // Number of index tuples not yet yielded (current included).
        let mut left = 0usize;
        let mut scale = 1usize;
        for (i, &ix) in self.idx.iter().enumerate() {
            left += ix * scale;
            scale *= self.count[i + 1];
        }
        scale - left
    }
}

impl Iterator for StridedIter<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.done {
            return None;
        }
        let out = (self.src_disp, self.dst_disp);
        // Increment innermost index and propagate the carry, maintaining
        // the displacements incrementally (Algorithm 1's inner loops).
        let sl = self.idx.len();
        if sl == 0 {
            self.done = true;
            return Some(out);
        }
        let mut i = 0;
        loop {
            self.idx[i] += 1;
            self.src_disp += self.src_strides[i];
            self.dst_disp += self.dst_strides[i];
            if self.idx[i] < self.count[i + 1] {
                break;
            }
            // carry: reset this level
            self.src_disp -= self.idx[i] * self.src_strides[i];
            self.dst_disp -= self.idx[i] * self.dst_strides[i];
            self.idx[i] = 0;
            i += 1;
            if i == sl {
                self.done = true;
                break;
            }
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

impl ExactSizeIterator for StridedIter<'_> {}

/// Backwards translation from strided notation to an MPI subarray datatype
/// (§VI-C). Returns `None` when the strides do not correspond to a dense
/// row-major array (non-divisible strides), in which case the caller falls
/// back to the IOV path.
///
/// With C dimension ordering, the reconstructed parent array has
/// `dim[sl] = count[0]` innermost bytes and `dim[i] = stride[i]/stride[i-1]`
/// for the interior dimensions; the subarray starts at index 0 in each
/// dimension with sizes `count[sl], …, count[0]`.
pub fn strided_to_subarray(strides: &[usize], count: &[usize]) -> Option<Datatype> {
    validate(strides, count).ok()?;
    let sl = strides.len();
    let n = sl + 1;
    // One packed buffer, `sizes ++ subsizes ++ starts` (all starts 0),
    // indexed d = 0 (outermost) .. n-1 (innermost, bytes): the datatype
    // takes it over without another allocation.
    let mut shape = vec![0usize; 3 * n];
    let (sizes, rest) = shape.split_at_mut(n);
    let subsizes = &mut rest[..n];
    sizes[n - 1] = if sl == 0 { count[0] } else { strides[0] };
    subsizes[n - 1] = count[0];
    for d in 1..sl {
        // dimension counting from the inside: sizes = ratio of strides
        if !strides[d].is_multiple_of(strides[d - 1]) {
            return None;
        }
        sizes[n - 1 - d] = strides[d] / strides[d - 1];
        subsizes[n - 1 - d] = count[d];
    }
    if sl >= 1 {
        sizes[0] = count[sl];
        subsizes[0] = count[sl];
    }
    if subsizes.iter().zip(sizes.iter()).any(|(&s, &z)| s > z) {
        return None;
    }
    Datatype::subarray_packed(shape, 1).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_checks_lengths_and_zero_counts() {
        assert!(validate(&[64], &[16, 4]).is_ok());
        assert!(validate(&[64], &[16]).is_err());
        assert!(validate(&[64], &[16, 0]).is_err());
        assert!(validate(&[8], &[16, 2]).is_err()); // stride < contiguous run
    }

    #[test]
    fn totals_and_extent() {
        // 4 rows of 16 bytes, row stride 64
        let strides = [64usize];
        let count = [16usize, 4];
        assert_eq!(total_bytes(&count), 64);
        assert_eq!(num_segments(&count), 4);
        assert_eq!(extent(&strides, &count), 3 * 64 + 16);
    }

    #[test]
    fn contiguous_transfer_single_segment() {
        let it = StridedIter::new(&[], &[], &[128]).unwrap();
        let v: Vec<_> = it.collect();
        assert_eq!(v, vec![(0, 0)]);
    }

    #[test]
    fn one_level_strided_displacements() {
        // src rows every 64 bytes, dst packs rows densely every 16 bytes
        let it = StridedIter::new(&[64], &[16], &[16, 4]).unwrap();
        let v: Vec<_> = it.collect();
        assert_eq!(v, vec![(0, 0), (64, 16), (128, 32), (192, 48)]);
    }

    #[test]
    fn two_level_strided_matches_reference_algorithm() {
        let src_strides = [32usize, 256];
        let dst_strides = [8usize, 24];
        let count = [8usize, 3, 5];
        let fast: Vec<_> = StridedIter::new(&src_strides, &dst_strides, &count)
            .unwrap()
            .collect();
        // Literal transcription of Algorithm 1 (non-incremental).
        let mut reference = Vec::new();
        let sl = 2;
        let mut idx = [0usize; 2];
        while idx[sl - 1] < count[sl] {
            let mut ds = 0;
            let mut dd = 0;
            for i in 0..sl {
                ds += src_strides[i] * idx[i];
                dd += dst_strides[i] * idx[i];
            }
            reference.push((ds, dd));
            idx[0] += 1;
            for i in 0..sl - 1 {
                if idx[i] >= count[i + 1] {
                    idx[i] = 0;
                    idx[i + 1] += 1;
                }
            }
        }
        assert_eq!(fast, reference);
        assert_eq!(fast.len(), 15);
    }

    #[test]
    fn exact_size_iterator_contract() {
        let mut it = StridedIter::new(&[64, 1024], &[64, 1024], &[16, 4, 3]).unwrap();
        assert_eq!(it.len(), 12);
        it.next();
        assert_eq!(it.len(), 11);
        let rest: Vec<_> = it.collect();
        assert_eq!(rest.len(), 11);
    }

    #[test]
    fn subarray_roundtrip_matches_iterator_segments() {
        // 2-D patch: rows of 24 bytes, 5 rows, row stride 100
        let strides = [100usize];
        let count = [24usize, 5];
        let dt = strided_to_subarray(&strides, &count).expect("dense");
        let from_dtype = dt.segments();
        let from_iter: Vec<(usize, usize)> = StridedIter::new(&strides, &strides, &count)
            .unwrap()
            .map(|(s, _)| (s, count[0]))
            .collect();
        assert_eq!(from_dtype, from_iter);
    }

    #[test]
    fn subarray_3d_roundtrip() {
        let strides = [32usize, 320];
        let count = [8usize, 4, 3];
        let dt = strided_to_subarray(&strides, &count).expect("dense");
        assert_eq!(dt.size(), 96);
        let from_dtype = dt.segments();
        let from_iter: Vec<(usize, usize)> = StridedIter::new(&strides, &strides, &count)
            .unwrap()
            .map(|(s, _)| (s, count[0]))
            .collect();
        assert_eq!(from_dtype, from_iter);
    }

    #[test]
    fn non_divisible_strides_fall_back() {
        // stride[1] not a multiple of stride[0]
        assert!(strided_to_subarray(&[32, 100], &[8, 2, 2]).is_none());
    }

    #[test]
    fn full_rows_coalesce_in_subarray() {
        // contiguous run equals the row stride: 1 segment
        let dt = strided_to_subarray(&[16], &[16, 4]).unwrap();
        assert_eq!(dt.segments(), vec![(0, 64)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_shape() -> impl Strategy<Value = (Vec<usize>, Vec<usize>)> {
        // up to 3 stride levels with dense, divisible strides
        (1usize..4).prop_flat_map(|sl| {
            let counts = proptest::collection::vec(1usize..6, sl + 1);
            counts.prop_flat_map(move |count| {
                // build strides: stride[0] >= count[0], stride[i] >= stride[i-1]*count[i]
                let pads = proptest::collection::vec(0usize..4, sl);
                (Just(count), pads).prop_map(|(count, pads)| {
                    let mut strides = Vec::with_capacity(count.len() - 1);
                    let mut inner = count[0];
                    for (i, pad) in pads.iter().enumerate() {
                        let s = inner + pad;
                        strides.push(s);
                        inner = s * count[i + 1];
                    }
                    (strides, count)
                })
            })
        })
    }

    proptest! {
        /// The incremental iterator matches brute-force displacement
        /// computation for arbitrary dense shapes.
        #[test]
        fn iterator_matches_bruteforce((strides, count) in arb_shape()) {
            let got: Vec<(usize, usize)> =
                StridedIter::new(&strides, &strides, &count).unwrap().collect();
            // brute force over all index tuples
            let sl = strides.len();
            let mut expect = Vec::new();
            let mut idx = vec![0usize; sl];
            'outer: loop {
                let disp: usize = idx.iter().zip(&strides).map(|(&i, &s)| i * s).sum();
                expect.push((disp, disp));
                let mut d = 0;
                loop {
                    if d == sl {
                        break 'outer;
                    }
                    idx[d] += 1;
                    if idx[d] < count[d + 1] {
                        break;
                    }
                    idx[d] = 0;
                    d += 1;
                }
            }
            prop_assert_eq!(got, expect);
        }

        /// Segments produced by a strided descriptor never overlap
        /// (validated strides guarantee disjointness).
        #[test]
        fn strided_segments_are_disjoint((strides, count) in arb_shape()) {
            let segs: Vec<(usize, usize)> =
                StridedIter::new(&strides, &strides, &count).unwrap()
                    .map(|(s, _)| (s, count[0]))
                    .collect();
            let mut sorted = segs.clone();
            sorted.sort_unstable();
            for w in sorted.windows(2) {
                prop_assert!(w[0].0 + w[0].1 <= w[1].0,
                    "segments {:?} and {:?} overlap", w[0], w[1]);
            }
        }

        /// When the subarray translation succeeds its segments equal the
        /// iterator's.
        #[test]
        fn subarray_equals_iterator((strides, count) in arb_shape()) {
            if let Some(dt) = strided_to_subarray(&strides, &count) {
                let mut from_iter: Vec<(usize, usize)> =
                    StridedIter::new(&strides, &strides, &count).unwrap()
                        .map(|(s, _)| (s, count[0]))
                        .collect();
                // the datatype coalesces adjacent runs; do the same
                from_iter.sort_unstable();
                let mut coalesced: Vec<(usize, usize)> = Vec::new();
                for (off, len) in from_iter {
                    match coalesced.last_mut() {
                        Some(last) if last.0 + last.1 == off => last.1 += len,
                        _ => coalesced.push((off, len)),
                    }
                }
                prop_assert_eq!(dt.segments(), coalesced);
                prop_assert_eq!(dt.size(), total_bytes(&count));
            }
        }
    }
}
