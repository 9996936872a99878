//! Derived datatypes.
//!
//! The subset of MPI's datatype machinery that ARMCI-MPI needs: contiguous
//! regions, indexed types (for the *IOV-direct* method of §VI-A) and
//! subarray types (for the *direct strided* method of §VI-C). All types are
//! expressed in **bytes** over a base buffer; the element width only matters
//! for accumulate, which carries its own [`crate::win::ElemType`].
//!
//! A datatype flattens to an ordered list of `(offset, len)` segments
//! relative to some base (the origin buffer start, or the window start plus
//! displacement on the target side).

use crate::error::{MpiError, MpiResult};
use crate::win::Origin;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A derived datatype (byte-granular).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Datatype {
    /// `len` contiguous bytes.
    Contiguous { len: usize },
    /// `count` blocks of `blocklen` bytes, the start of consecutive blocks
    /// separated by `stride` bytes (`stride >= blocklen`).
    Vector {
        count: usize,
        blocklen: usize,
        stride: usize,
    },
    /// Explicit `(displacement, len)` pairs. Displacements must be
    /// non-negative; blocks may be unsorted but must not overlap (checked at
    /// use when semantic checks are enabled).
    Indexed { blocks: Vec<(usize, usize)> },
    /// An n-dimensional subarray in C (row-major) order, built with
    /// [`Datatype::subarray`] or [`Datatype::subarray_packed`].
    ///
    /// `shape` packs three length-`n` arrays back to back: the full array
    /// dimensions **in elements** (`sizes`), the patch dimensions
    /// (`subsizes`) and the patch origin (`starts`). `elem` is the element
    /// width in bytes. One allocation holds all three arrays.
    Subarray { shape: Box<[usize]>, elem: usize },
}

/// Splits a packed subarray shape into `(sizes, subsizes, starts)`.
fn split_shape(shape: &[usize]) -> (&[usize], &[usize], &[usize]) {
    let n = shape.len() / 3;
    (&shape[..n], &shape[n..2 * n], &shape[2 * n..])
}

impl Datatype {
    /// Contiguous helper.
    pub fn contiguous(len: usize) -> Datatype {
        Datatype::Contiguous { len }
    }

    /// Builds a subarray datatype, validating the shape.
    pub fn subarray(
        sizes: &[usize],
        subsizes: &[usize],
        starts: &[usize],
        elem: usize,
    ) -> MpiResult<Datatype> {
        if sizes.len() != subsizes.len() || sizes.len() != starts.len() {
            return Err(MpiError::BadDatatype(format!(
                "rank mismatch: sizes {}, subsizes {}, starts {}",
                sizes.len(),
                subsizes.len(),
                starts.len()
            )));
        }
        let mut shape = Vec::with_capacity(3 * sizes.len());
        shape.extend_from_slice(sizes);
        shape.extend_from_slice(subsizes);
        shape.extend_from_slice(starts);
        Self::subarray_packed(shape, elem)
    }

    /// Builds a subarray datatype from an already-packed shape
    /// (`sizes ++ subsizes ++ starts`, see [`Datatype::Subarray`]),
    /// validating it: the patch must lie inside the array, and every
    /// dimension's byte stride and the selected span must fit in `usize`
    /// (the full array need not). Takes ownership so the type costs no
    /// further allocation.
    pub fn subarray_packed(shape: Vec<usize>, elem: usize) -> MpiResult<Datatype> {
        if !shape.len().is_multiple_of(3) {
            return Err(MpiError::BadDatatype(format!(
                "packed subarray shape of {} words is not three equal arrays",
                shape.len()
            )));
        }
        let (sizes, subsizes, starts) = split_shape(&shape);
        if sizes.is_empty() {
            return Err(MpiError::BadDatatype("zero-dimensional subarray".into()));
        }
        if elem == 0 {
            return Err(MpiError::BadDatatype("zero-size element".into()));
        }
        for i in 0..sizes.len() {
            if starts[i]
                .checked_add(subsizes[i])
                .is_none_or(|end| end > sizes[i])
            {
                return Err(MpiError::BadDatatype(format!(
                    "dim {i}: start {} + subsize {} exceeds size {}",
                    starts[i], subsizes[i], sizes[i]
                )));
            }
        }
        if subarray_span(sizes, subsizes, starts, elem).is_none() {
            return Err(MpiError::BadDatatype(format!(
                "subarray sizes {sizes:?} subsizes {subsizes:?} starts {starts:?} of \
                 {elem}-byte elements: a stride or the selected span exceeds usize::MAX bytes"
            )));
        }
        Ok(Datatype::Subarray {
            shape: shape.into_boxed_slice(),
            elem,
        })
    }

    /// Total number of bytes the type selects. A count past `usize::MAX`
    /// saturates; [`Flat::flatten`] refuses such a type.
    pub fn size(&self) -> usize {
        self.checked_size().unwrap_or(usize::MAX)
    }

    /// [`Datatype::size`], or `BadDatatype` for a count past `usize::MAX`,
    /// so that no segment list is ever sized from such a type.
    fn checked_size(&self) -> MpiResult<usize> {
        let size = match self {
            Datatype::Contiguous { len } => Some(*len),
            Datatype::Vector {
                count, blocklen, ..
            } => count.checked_mul(*blocklen),
            Datatype::Indexed { blocks } => blocks
                .iter()
                .try_fold(0usize, |sum, &(_, l)| sum.checked_add(l)),
            Datatype::Subarray { shape, elem } => {
                // An empty dimension selects nothing, however large the
                // others' product.
                let subsizes = split_shape(shape).1;
                if subsizes.contains(&0) {
                    Some(0)
                } else {
                    subsizes.iter().try_fold(*elem, |n, &d| n.checked_mul(d))
                }
            }
        };
        size.ok_or_else(|| {
            MpiError::BadDatatype("datatype selects more than usize::MAX bytes".into())
        })
    }

    /// Number of contiguous segments after coalescing along the innermost
    /// dimension.
    pub fn num_segments(&self) -> usize {
        match self {
            Datatype::Contiguous { len } => usize::from(*len > 0),
            Datatype::Vector {
                count,
                blocklen,
                stride,
            } => {
                if *blocklen == 0 || *count == 0 {
                    0
                } else if blocklen == stride {
                    1
                } else {
                    *count
                }
            }
            Datatype::Indexed { blocks } => blocks.iter().filter(|&&(_, l)| l > 0).count(),
            Datatype::Subarray { shape, .. } => {
                let (sizes, subsizes, _) = split_shape(shape);
                if subsizes.contains(&0) {
                    return 0;
                }
                // One segment per index combination of dims `0..m`.
                subsizes[..run_dim(sizes, subsizes)].iter().product()
            }
        }
    }

    /// The span in bytes from the first to one past the last selected byte
    /// (the buffer must be at least `extent()` long). A span past
    /// `usize::MAX` saturates, so bounds checks refuse it.
    pub fn extent(&self) -> usize {
        match self {
            Datatype::Contiguous { len } => *len,
            Datatype::Vector {
                count,
                blocklen,
                stride,
            } => {
                if *count == 0 || *blocklen == 0 {
                    0
                } else {
                    (count - 1)
                        .saturating_mul(*stride)
                        .saturating_add(*blocklen)
                }
            }
            Datatype::Indexed { blocks } => blocks_extent(blocks),
            Datatype::Subarray { shape, elem } => {
                // True span: one past the last selected byte, so that tight
                // window allocations (last row not spanning a full stride)
                // pass bounds checks.
                let (sizes, subsizes, starts) = split_shape(shape);
                subarray_span(sizes, subsizes, starts, *elem)
                    .expect("subarray span checked at construction")
            }
        }
    }

    /// Flattens to ordered `(offset, len)` segments, coalescing contiguous
    /// runs. Offsets past `usize::MAX` saturate, like [`Datatype::extent`].
    pub fn segments(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        self.segments_into(&mut out);
        out
    }

    /// [`Datatype::segments`] into a caller-owned buffer: `out` is cleared,
    /// sized once from [`Datatype::num_segments`], and filled. A buffer
    /// reused across calls makes flattening allocation-free.
    pub fn segments_into(&self, out: &mut Vec<(usize, usize)>) {
        out.clear();
        out.reserve(self.num_segments());
        match self {
            Datatype::Contiguous { len } => {
                if *len > 0 {
                    out.push((0, *len));
                }
            }
            Datatype::Vector {
                count,
                blocklen,
                stride,
            } => {
                if *blocklen > 0 {
                    out.extend((0..*count).map(|i| (i.saturating_mul(*stride), *blocklen)));
                }
                coalesce(out);
            }
            Datatype::Indexed { blocks } => flatten_blocks(blocks, out),
            Datatype::Subarray { shape, elem } => {
                let (sizes, subsizes, starts) = split_shape(shape);
                subarray_segments(sizes, subsizes, starts, *elem, out);
            }
        }
    }
}

/// One past the last byte an indexed block list touches, saturating at
/// `usize::MAX`.
pub(crate) fn blocks_extent(blocks: &[(usize, usize)]) -> usize {
    blocks
        .iter()
        .map(|&(d, l)| d.saturating_add(l))
        .max()
        .unwrap_or(0)
}

/// Flattens an indexed block list the way [`Datatype::Indexed`] does:
/// empty blocks dropped, adjacent ones coalesced. Appends to `out`.
pub(crate) fn flatten_blocks(blocks: &[(usize, usize)], out: &mut Vec<(usize, usize)>) {
    out.extend(blocks.iter().copied().filter(|&(_, l)| l > 0));
    coalesce(out);
}

/// One past the last byte a subarray selects (0 when it selects none),
/// or `None` when a dimension's byte stride or the span overflows `usize`.
/// The stride product stops at the outermost dimension: the full array may
/// be larger than the address space even when the selection is not.
fn subarray_span(
    sizes: &[usize],
    subsizes: &[usize],
    starts: &[usize],
    elem: usize,
) -> Option<usize> {
    if subsizes.contains(&0) {
        return Some(0);
    }
    let mut stride = elem;
    let mut last = 0usize;
    for d in (0..sizes.len()).rev() {
        last = (starts[d] + subsizes[d] - 1)
            .checked_mul(stride)?
            .checked_add(last)?;
        if d > 0 {
            stride = stride.checked_mul(sizes[d])?;
        }
    }
    last.checked_add(elem)
}

/// The dimension `m` a subarray's contiguous runs span: the outermost one
/// whose inner dimensions are all full. Fully covered inner dimensions
/// coalesce upward, so each run is `subsizes[m]` rows of dimension `m`.
fn run_dim(sizes: &[usize], subsizes: &[usize]) -> usize {
    let mut m = sizes.len() - 1;
    while m > 0 && subsizes[m] == sizes[m] {
        m -= 1;
    }
    m
}

/// Row-major subarray enumeration, emitting coalesced runs directly.
///
/// Each run covers `subsizes[m]` rows of dimension `m` ([`run_dim`]), and
/// no two runs touch because dimension `m` is partial (or `m == 0`). Starting from the first run, each dimension
/// from `m - 1` out to 0 replicates the runs emitted so far once per
/// further index, shifted by that dimension's byte stride, which yields
/// row-major order. Costs one add and one push per run, with no recursion,
/// division or index arrays, so the rank is unlimited. Appends to `out`.
fn subarray_segments(
    sizes: &[usize],
    subsizes: &[usize],
    starts: &[usize],
    elem: usize,
    out: &mut Vec<(usize, usize)>,
) {
    if subsizes.contains(&0) {
        return;
    }
    let m = run_dim(sizes, subsizes);
    // Byte stride of dimension m, and the first run's offset. Full inner
    // dimensions start at 0, so only dimensions 0..=m contribute.
    let stride_m = elem * sizes[m + 1..].iter().product::<usize>();
    let mut base = 0;
    let mut stride = stride_m;
    for d in (0..=m).rev() {
        base += starts[d] * stride;
        if d > 0 {
            stride *= sizes[d];
        }
    }
    let run = subsizes[m] * stride_m;
    let first = out.len();
    out.push((base, run));
    let mut stride = stride_m;
    for d in (0..m).rev() {
        stride *= sizes[d + 1];
        let len = out.len() - first;
        let mut shift = 0;
        for _ in 1..subsizes[d] {
            shift += stride;
            for j in first..first + len {
                let off = out[j].0 + shift;
                out.push((off, run));
            }
        }
    }
}

/// Merges adjacent `(offset, len)` pairs that are contiguous in memory.
/// Segments must already be in ascending offset order for full coalescing;
/// out-of-order inputs are left as-is apart from adjacent merges.
fn coalesce(segs: &mut Vec<(usize, usize)>) {
    let mut w = 0usize;
    for i in 0..segs.len() {
        if w > 0 && segs[w - 1].0.checked_add(segs[w - 1].1) == Some(segs[i].0) {
            segs[w - 1].1 += segs[i].1;
        } else {
            segs[w] = segs[i];
            w += 1;
        }
    }
    segs.truncate(w);
}

/// Splits two flattened segment lists into a common refinement so that
/// bytes can be copied pairwise: appends `(origin_piece, target_piece,
/// len)` triples to `out` until either list runs out.
fn zip_into(os: &[(usize, usize)], ts: &[(usize, usize)], out: &mut Vec<(usize, usize, usize)>) {
    out.reserve(os.len().max(ts.len()));
    let (mut oi, mut ti) = (0usize, 0usize);
    let (mut ooff, mut toff) = (0usize, 0usize);
    while oi < os.len() && ti < ts.len() {
        let orem = os[oi].1 - ooff;
        let trem = ts[ti].1 - toff;
        let n = orem.min(trem);
        out.push((os[oi].0 + ooff, ts[ti].0.saturating_add(toff), n));
        ooff += n;
        toff += n;
        if ooff == os[oi].1 {
            oi += 1;
            ooff = 0;
        }
        if toff == ts[ti].1 {
            ti += 1;
            toff = 0;
        }
    }
}

/// Reusable flattening buffers for one transfer: the target datatype's
/// window-absolute segments, the origin's segments, and their common
/// refinement (the copy pieces). [`Flat::flatten`] validates a datatype
/// pair and fills all three once; admission, the window's one mover
/// ([`crate::WinHandle::stage`]) and pricing then borrow the lists. Kept
/// by each caller across transfers, so steady-state transfers flatten
/// without allocating.
#[derive(Debug, Default)]
pub struct Flat {
    /// Target segments, window-absolute.
    pub(crate) tsegs: Vec<(usize, usize)>,
    /// Origin segments, relative to the origin buffer.
    pub(crate) osegs: Vec<(usize, usize)>,
    /// `(origin_offset, window_offset, len)` copy pieces.
    pub(crate) pieces: Vec<(usize, usize, usize)>,
}

impl Flat {
    /// Validates one transfer and flattens it into window-absolute pieces.
    /// The origin datatype must fit the caller's buffer and select as many
    /// bytes as the target datatype. An accumulate must move whole
    /// elements, and every target segment must be a whole number of
    /// elements; origin segments need not be, because the mover packs
    /// them. Window offsets past `usize::MAX` saturate, so the mover's
    /// bounds check refuses them.
    pub fn flatten(
        &mut self,
        origin: &Origin<'_>,
        odt: &Datatype,
        tdisp: usize,
        tdt: &Datatype,
    ) -> MpiResult<()> {
        let elem = origin.class().elem();
        let size = odt.checked_size()?;
        if let Some(es) = elem.filter(|&es| !size.is_multiple_of(es)) {
            return Err(MpiError::BadDatatype(format!(
                "accumulate of {size} bytes not a multiple of element size {es}"
            )));
        }
        if odt.extent() > origin.len() {
            return Err(MpiError::BadDatatype(format!(
                "origin datatype extent {} exceeds buffer {}",
                odt.extent(),
                origin.len()
            )));
        }
        same_size(size, tdt)?;
        tdt.segments_into(&mut self.tsegs);
        if let Some(es) = elem {
            if let Some(&(_, len)) = self.tsegs.iter().find(|&&(_, len)| len % es != 0) {
                return Err(MpiError::BadDatatype(format!(
                    "target segment of {len} bytes not element-aligned (elem {es})"
                )));
            }
        }
        odt.segments_into(&mut self.osegs);
        self.pieces.clear();
        zip_into(&self.osegs, &self.tsegs, &mut self.pieces);
        for seg in &mut self.tsegs {
            seg.0 = seg.0.saturating_add(tdisp);
        }
        for piece in &mut self.pieces {
            piece.1 = piece.1.saturating_add(tdisp);
        }
        Ok(())
    }

    /// The window-absolute target segments of the last [`Flat::flatten`].
    pub fn tsegs(&self) -> &[(usize, usize)] {
        &self.tsegs
    }
}

/// Splits the segment lists of two datatypes into a common refinement so
/// that bytes can be copied pairwise. Returns `(origin_piece, target_piece,
/// len)` triples. Errors if a size overflows `usize` or the sizes
/// differ. Allocates fresh buffers; transfers keep a [`Flat`] instead.
pub fn zip_segments(origin: &Datatype, target: &Datatype) -> MpiResult<Vec<(usize, usize, usize)>> {
    same_size(origin.checked_size()?, target)?;
    let mut pieces = Vec::new();
    zip_into(&origin.segments(), &target.segments(), &mut pieces);
    Ok(pieces)
}

/// `TypeMismatch` unless `target` selects the origin's `origin_bytes`.
fn same_size(origin_bytes: usize, target: &Datatype) -> MpiResult<()> {
    let target_bytes = target.checked_size()?;
    if origin_bytes != target_bytes {
        return Err(MpiError::TypeMismatch {
            origin_bytes,
            target_bytes,
        });
    }
    Ok(())
}

/// Structural signature of a datatype: a canonical `u64` encoding of
/// shape (kind tag, dims, counts, strides, element size). Every variant
/// starts with a distinct tag and variable-length parts carry an explicit
/// length prefix, so encodings of different shapes cannot collide.
/// Indexed blocks are normalised relative to their lowest displacement —
/// the same IOV shape issued at a different window displacement commits
/// to the same cached descriptor.
///
/// Hashes exactly like its word slice (it borrows as `[u64]`), so the
/// cache can look a signature up from a reusable key buffer without
/// building one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DtypeSig(Box<[u64]>);

impl Borrow<[u64]> for DtypeSig {
    fn borrow(&self) -> &[u64] {
        &self.0
    }
}

impl DtypeSig {
    /// Signature of one datatype.
    pub fn of(d: &Datatype) -> DtypeSig {
        let mut v = Vec::new();
        encode(d, &mut v);
        DtypeSig(v.into_boxed_slice())
    }

    /// Combined signature of an (origin, target) pair — one wire pack
    /// descriptor covers both sides.
    pub fn pair(origin: &Datatype, target: &Datatype) -> DtypeSig {
        let mut v = Vec::new();
        encode(origin, &mut v);
        encode(target, &mut v);
        DtypeSig(v.into_boxed_slice())
    }
}

fn encode(d: &Datatype, v: &mut Vec<u64>) {
    match d {
        Datatype::Contiguous { len } => {
            v.push(0);
            v.push(*len as u64);
        }
        Datatype::Vector {
            count,
            blocklen,
            stride,
        } => {
            v.push(1);
            v.push(*count as u64);
            v.push(*blocklen as u64);
            v.push(*stride as u64);
        }
        Datatype::Indexed { blocks } => encode_indexed(blocks, v),
        Datatype::Subarray { shape, elem } => {
            // The pack descriptor depends on dims/counts/strides, not
            // on where the patch sits — `starts` is excluded so every
            // same-shape patch hits one committed type.
            let (sizes, subsizes, _) = split_shape(shape);
            v.push(3);
            v.push(*elem as u64);
            v.push(sizes.len() as u64);
            v.extend(sizes.iter().map(|&s| s as u64));
            v.extend(subsizes.iter().map(|&s| s as u64));
        }
    }
}

/// Indexed encoding: live (non-empty) blocks relative to the lowest live
/// displacement, with a count prefix.
fn encode_indexed(blocks: &[(usize, usize)], v: &mut Vec<u64>) {
    let live = || blocks.iter().filter(|&&(_, l)| l > 0);
    let base = live().map(|&(o, _)| o).min().unwrap_or(0);
    v.push(2);
    v.push(live().count() as u64);
    for &(o, l) in live() {
        v.push((o - base) as u64);
        v.push(l as u64);
    }
}

/// FxHash-style word hasher for signature keys: deterministic, and far
/// cheaper than SipHash on ~100-word keys. Keys are internal shape
/// encodings, so SipHash's flooding resistance buys nothing here.
#[derive(Debug, Default, Clone, Copy)]
struct SigHasher(u64);

impl SigHasher {
    fn add(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for SigHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.add(w);
    }

    fn write_usize(&mut self, w: usize) {
        self.add(w as u64);
    }
}

/// Committed-datatype cache (§VI-B): remembers pack-descriptor shapes by
/// [`DtypeSig`] so repeated NWChem-style patch transfers skip the
/// descriptor build cost. Bounded, with least-recently-used eviction by a
/// monotonic use tick; hit/miss/eviction counters feed `StageStats` and
/// the obs `DtypeCommit` instants.
///
/// Lookups encode the signature into a reusable key buffer, so a hit
/// allocates nothing; only a miss stores a copy of the key.
#[derive(Debug)]
pub struct DtypeCache {
    cap: usize,
    tick: u64,
    map: HashMap<DtypeSig, u64, BuildHasherDefault<SigHasher>>,
    key: Vec<u64>,
    /// Consultations that found a committed descriptor.
    pub hits: u64,
    /// Consultations that had to build (and commit) a descriptor.
    pub misses: u64,
    /// Committed descriptors discarded to stay within capacity.
    pub evictions: u64,
}

impl DtypeCache {
    /// Cache holding at most `cap` committed descriptors (`cap >= 1`).
    pub fn new(cap: usize) -> DtypeCache {
        DtypeCache {
            cap: cap.max(1),
            tick: 0,
            map: HashMap::default(),
            key: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Consults the cache for the (origin, target) pack descriptor,
    /// committing it on miss. Returns `true` on hit (descriptor build
    /// skipped).
    pub(crate) fn commit_pair(&mut self, origin: &Datatype, target: &Datatype) -> bool {
        self.commit_with(|v| {
            encode(origin, v);
            encode(target, v);
        })
    }

    /// Consults the cache for one datatype's descriptor.
    pub fn commit(&mut self, d: &Datatype) -> bool {
        self.commit_with(|v| encode(d, v))
    }

    /// Consults the cache for a scheduler-merged transfer: a contiguous
    /// origin of `bytes` paired with the indexed target `blocks` — the
    /// same signature as [`DtypeCache::commit_pair`] on those two types,
    /// without building them.
    pub(crate) fn commit_merged(&mut self, bytes: usize, blocks: &[(usize, usize)]) -> bool {
        self.commit_with(|v| {
            encode(&Datatype::contiguous(bytes), v);
            encode_indexed(blocks, v);
        })
    }

    fn commit_with(&mut self, fill: impl FnOnce(&mut Vec<u64>)) -> bool {
        self.key.clear();
        fill(&mut self.key);
        self.tick += 1;
        if let Some(last) = self.map.get_mut(self.key.as_slice()) {
            *last = self.tick;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.map.len() >= self.cap {
            // cap is small (tens of shapes); a linear LRU scan beats
            // maintaining an ordered index. Ticks are unique, so the
            // scan's result does not depend on map order.
            if let Some(lru) = self.map.values().min().copied() {
                self.map.retain(|_, &mut last| last != lru);
                self.evictions += 1;
            }
        }
        self.map
            .insert(DtypeSig(self.key.as_slice().into()), self.tick);
        false
    }

    /// Committed descriptors currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Nothing committed yet?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Hit-rate in `[0, 1]`; zero before the first consultation.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference flattener: one segment per innermost row, outer
    /// dimensions walked recursively, then [`coalesce`].
    fn subarray_segments_reference(
        sizes: &[usize],
        subsizes: &[usize],
        starts: &[usize],
        elem: usize,
    ) -> Vec<(usize, usize)> {
        fn walk(
            d: usize,
            base: usize,
            stride: usize,
            dims: (&[usize], &[usize], &[usize]),
            run: usize,
            out: &mut Vec<(usize, usize)>,
        ) {
            let (sizes, subsizes, starts) = dims;
            let last = sizes.len() - 1;
            if d == last {
                out.push((base + starts[last] * stride, run));
                return;
            }
            // Byte stride of dimension d+1 (C order: last dim fastest).
            let inner = stride / sizes[d + 1];
            for i in 0..subsizes[d] {
                walk(
                    d + 1,
                    base + (starts[d] + i) * stride,
                    inner,
                    dims,
                    run,
                    out,
                );
            }
        }
        let mut out = Vec::new();
        if subsizes.contains(&0) {
            return out;
        }
        let stride0 = elem * sizes[1..].iter().product::<usize>();
        let run = subsizes[sizes.len() - 1] * elem;
        walk(0, 0, stride0, (sizes, subsizes, starts), run, &mut out);
        coalesce(&mut out);
        out
    }

    /// Subarray shapes of rank 1–7: each dimension is full, partial
    /// (with padding after the patch) or, rarely, empty.
    fn arb_subarray() -> impl Strategy<Value = (Vec<usize>, Vec<usize>, Vec<usize>, usize)> {
        (1usize..8).prop_flat_map(|rank| {
            let dims =
                proptest::collection::vec((0usize..24, 1usize..4, 0usize..3, 1usize..3), rank);
            (dims, 1usize..17).prop_map(|(specs, elem)| {
                let (mut sizes, mut subsizes, mut starts) = (Vec::new(), Vec::new(), Vec::new());
                for (kind, sub, start, pad) in specs {
                    let (sub, start, pad) = match kind {
                        0 => (0, start, pad),
                        1..10 => (sub, 0, 0),
                        _ => (sub, start, pad),
                    };
                    sizes.push(start + sub + pad);
                    subsizes.push(sub);
                    starts.push(start);
                }
                (sizes, subsizes, starts, elem)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The direct flattener emits exactly the reference's coalesced
        /// segments, sized exactly by `num_segments`.
        #[test]
        fn subarray_flattening_matches_reference(
            (sizes, subsizes, starts, elem) in arb_subarray()
        ) {
            let d = Datatype::subarray(&sizes, &subsizes, &starts, elem).unwrap();
            let mut segs = vec![(7, 7)];
            d.segments_into(&mut segs);
            prop_assert_eq!(&segs, &subarray_segments_reference(&sizes, &subsizes, &starts, elem));
            prop_assert_eq!(d.num_segments(), segs.len());
            prop_assert_eq!(d.size(), segs.iter().map(|s| s.1).sum::<usize>());
            let end = segs.last().map_or(0, |&(o, l)| o + l);
            prop_assert_eq!(d.extent(), end);
        }

        /// `num_segments` sizes a vector's segment list exactly.
        #[test]
        fn vector_num_segments_is_exact(
            count in 0usize..6, blocklen in 0usize..6, gap in 0usize..4
        ) {
            let d = Datatype::Vector { count, blocklen, stride: blocklen + gap };
            prop_assert_eq!(d.num_segments(), d.segments().len());
        }
    }

    #[test]
    fn extent_of_a_subarray_in_an_oversized_array() {
        // the full array (2^67 bytes) does not fit the address space, the
        // 64 selected bytes do
        let d = Datatype::subarray(&[1 << 61, 8], &[1, 8], &[0, 0], 8).unwrap();
        assert_eq!(d.size(), 64);
        assert_eq!(d.extent(), 64);
        assert_eq!(d.segments(), vec![(0, 64)]);
        let d = Datatype::subarray(&[1 << 61, 8], &[1, 4], &[(1 << 56) - 1, 2], 8).unwrap();
        assert_eq!(d.extent(), (1 << 62) - 64 + 48);
        assert_eq!(d.segments(), vec![((1 << 62) - 64 + 16, 32)]);
    }

    #[test]
    fn subarray_spanning_past_usize_is_rejected() {
        let too_far = [
            // selected span past usize::MAX
            Datatype::subarray(&[1 << 61, 8], &[2, 8], &[(1 << 58) - 1, 0], 8),
            // a dimension's byte stride past usize::MAX
            Datatype::subarray(&[2, 1 << 62, 8], &[1, 1, 8], &[0, 0, 0], 8),
            // start + subsize wraps
            Datatype::subarray(&[8], &[2], &[usize::MAX], 1),
        ];
        for r in too_far {
            assert!(matches!(r, Err(MpiError::BadDatatype(_))), "{r:?}");
        }
        // an empty selection spans nothing, whatever its other subsizes
        let empty = Datatype::subarray(&[1 << 40, 1 << 40, 0], &[1 << 40, 1 << 40, 0], &[0; 3], 8);
        let empty = empty.unwrap();
        assert_eq!(
            (empty.size(), empty.extent(), empty.num_segments()),
            (0, 0, 0)
        );
        assert!(empty.segments().is_empty());
    }

    #[test]
    fn contiguous_is_one_segment() {
        let d = Datatype::contiguous(64);
        assert_eq!(d.size(), 64);
        assert_eq!(d.extent(), 64);
        assert_eq!(d.segments(), vec![(0, 64)]);
    }

    #[test]
    fn vector_segments_and_extent() {
        let d = Datatype::Vector {
            count: 3,
            blocklen: 4,
            stride: 10,
        };
        assert_eq!(d.size(), 12);
        assert_eq!(d.extent(), 24);
        assert_eq!(d.segments(), vec![(0, 4), (10, 4), (20, 4)]);
    }

    #[test]
    fn dense_vector_coalesces() {
        let d = Datatype::Vector {
            count: 4,
            blocklen: 8,
            stride: 8,
        };
        assert_eq!(d.segments(), vec![(0, 32)]);
    }

    #[test]
    fn indexed_skips_empty_blocks() {
        let d = Datatype::Indexed {
            blocks: vec![(0, 4), (4, 0), (8, 4)],
        };
        assert_eq!(d.segments(), vec![(0, 4), (8, 4)]);
        assert_eq!(d.size(), 8);
    }

    #[test]
    fn indexed_adjacent_blocks_coalesce() {
        let d = Datatype::Indexed {
            blocks: vec![(0, 4), (4, 4), (16, 4)],
        };
        assert_eq!(d.segments(), vec![(0, 8), (16, 4)]);
    }

    #[test]
    fn subarray_2d_row_major() {
        // 4x6 array of f64, take the 2x3 patch starting at (1,2)
        let d = Datatype::subarray(&[4, 6], &[2, 3], &[1, 2], 8).unwrap();
        assert_eq!(d.size(), 2 * 3 * 8);
        let segs = d.segments();
        // row 1: offset (1*6+2)*8 = 64, 24 bytes; row 2: (2*6+2)*8 = 112
        assert_eq!(segs, vec![(64, 24), (112, 24)]);
    }

    #[test]
    fn subarray_full_rows_coalesce() {
        // patch spans full innermost dimension -> contiguous rows merge
        let d = Datatype::subarray(&[4, 6], &[2, 6], &[1, 0], 1).unwrap();
        assert_eq!(d.segments(), vec![(6, 12)]);
    }

    #[test]
    fn subarray_3d() {
        let d = Datatype::subarray(&[2, 3, 4], &[2, 2, 2], &[0, 1, 1], 1).unwrap();
        let segs = d.segments();
        assert_eq!(d.size(), 8);
        assert_eq!(segs.iter().map(|s| s.1).sum::<usize>(), 8);
        // offsets: z-plane 0 rows 1,2 col 1..3 → 5,9 ; plane 1 → 17,21
        assert_eq!(segs, vec![(5, 2), (9, 2), (17, 2), (21, 2)]);
    }

    #[test]
    fn subarray_validation() {
        assert!(Datatype::subarray(&[4], &[5], &[0], 8).is_err());
        assert!(Datatype::subarray(&[4, 4], &[1], &[0], 8).is_err());
        assert!(Datatype::subarray(&[4], &[2], &[3], 8).is_err());
        assert!(Datatype::subarray(&[], &[], &[], 8).is_err());
        assert!(Datatype::subarray(&[4], &[2], &[0], 0).is_err());
    }

    #[test]
    fn zip_equal_shapes() {
        let a = Datatype::Vector {
            count: 2,
            blocklen: 4,
            stride: 8,
        };
        let b = Datatype::contiguous(8);
        let z = zip_segments(&a, &b).unwrap();
        assert_eq!(z, vec![(0, 0, 4), (8, 4, 4)]);
    }

    #[test]
    fn zip_refines_mismatched_segmentation() {
        let a = Datatype::Indexed {
            blocks: vec![(0, 6), (10, 2)],
        };
        let b = Datatype::Indexed {
            blocks: vec![(0, 2), (4, 6)],
        };
        let z = zip_segments(&a, &b).unwrap();
        assert_eq!(z, vec![(0, 0, 2), (2, 4, 4), (10, 8, 2)]);
        let total: usize = z.iter().map(|t| t.2).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn zip_rejects_size_mismatch() {
        let a = Datatype::contiguous(8);
        let b = Datatype::contiguous(9);
        assert!(matches!(
            zip_segments(&a, &b),
            Err(MpiError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn num_segments_matches_segment_list() {
        let cases = vec![
            Datatype::contiguous(64),
            Datatype::Vector {
                count: 3,
                blocklen: 4,
                stride: 10,
            },
            Datatype::Vector {
                count: 4,
                blocklen: 8,
                stride: 8,
            },
            Datatype::subarray(&[4, 6], &[2, 3], &[1, 2], 8).unwrap(),
            Datatype::subarray(&[4, 6], &[2, 6], &[1, 0], 1).unwrap(),
            Datatype::subarray(&[2, 3, 4], &[2, 2, 2], &[0, 1, 1], 1).unwrap(),
            Datatype::subarray(&[5], &[3], &[1], 8).unwrap(),
            Datatype::subarray(&[2, 3], &[2, 3], &[0, 0], 4).unwrap(),
        ];
        for d in cases {
            assert_eq!(d.num_segments(), d.segments().len(), "{d:?}");
        }
    }

    #[test]
    fn dtype_cache_hits_on_repeated_shape() {
        let mut c = DtypeCache::new(8);
        let patch = Datatype::subarray(&[64, 64], &[8, 8], &[4, 4], 8).unwrap();
        assert!(!c.commit(&patch)); // cold miss builds the descriptor
        assert!(c.commit(&patch));
        // same patch shape at a different origin hits (starts excluded)
        let shifted = Datatype::subarray(&[64, 64], &[8, 8], &[20, 32], 8).unwrap();
        assert!(c.commit(&shifted));
        assert_eq!((c.hits, c.misses), (2, 1));
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn dtype_cache_normalises_indexed_displacement() {
        let mut c = DtypeCache::new(8);
        let a = Datatype::Indexed {
            blocks: vec![(0, 8), (16, 8)],
        };
        let b = Datatype::Indexed {
            blocks: vec![(100, 8), (116, 8)],
        };
        assert!(!c.commit(&a));
        assert!(c.commit(&b)); // same shape, different displacement
    }

    #[test]
    fn dtype_cache_lru_eviction() {
        let mut c = DtypeCache::new(2);
        let a = Datatype::contiguous(16);
        let b = Datatype::contiguous(32);
        let d = Datatype::contiguous(64);
        assert!(!c.commit(&a));
        assert!(!c.commit(&b));
        assert!(c.commit(&a)); // a now more recently used than b
        assert!(!c.commit(&d)); // evicts b (LRU), not a
        assert_eq!(c.evictions, 1);
        assert_eq!(c.len(), 2);
        assert!(c.commit(&a));
        assert!(c.commit(&d));
        assert!(!c.commit(&b)); // b really was evicted
    }

    #[test]
    fn dtype_signatures_do_not_collide_across_shapes() {
        // Same flattened byte pattern, structurally different types:
        // signatures must differ (kind tags keep the encoding injective).
        let vector = Datatype::Vector {
            count: 2,
            blocklen: 2,
            stride: 4,
        };
        let indexed = Datatype::Indexed {
            blocks: vec![(0, 2), (4, 2)],
        };
        assert_ne!(DtypeSig::of(&vector), DtypeSig::of(&indexed));
        // Raw number streams that would alias without length prefixes.
        let i1 = Datatype::Indexed {
            blocks: vec![(1, 2), (3, 4)],
        };
        let i2 = Datatype::Indexed {
            blocks: vec![(1, 2), (3, 4), (9, 1)],
        };
        assert_ne!(DtypeSig::of(&i1), DtypeSig::of(&i2));
        // Contiguous{4} vs Vector{count:4,...} share leading numbers.
        assert_ne!(
            DtypeSig::of(&Datatype::contiguous(4)),
            DtypeSig::of(&Datatype::Vector {
                count: 4,
                blocklen: 1,
                stride: 1
            })
        );
        // Pair signature is ordered: (a,b) != (b,a) for a != b.
        let a = Datatype::contiguous(8);
        assert_ne!(DtypeSig::pair(&a, &vector), DtypeSig::pair(&vector, &a));
    }

    #[test]
    fn zero_sized_types() {
        let d = Datatype::contiguous(0);
        assert!(d.segments().is_empty());
        let v = Datatype::Vector {
            count: 0,
            blocklen: 8,
            stride: 16,
        };
        assert_eq!(v.size(), 0);
        assert!(v.segments().is_empty());
    }
}
