//! Ghost-cell support (`GA_Create_ghosts` / `GA_Update_ghosts`).
//!
//! Stencil codes want each process's block surrounded by a halo of
//! neighbouring elements. GA materialises the halo in the local
//! allocation and refreshes it collectively; here the same functionality
//! is a *fetch*: [`GlobalArray::fetch_ghosted`] returns the caller's block
//! plus a `width`-deep margin, assembled from one-sided gets against the
//! owning processes (wrapping around for periodic boundaries —
//! `GA_PERIODIC` — or zero-filled outside the array for non-periodic
//! ones). [`GlobalArray::fetch_ghosted_into`] refreshes a block in place,
//! as `GA_Update_ghosts` refreshes the persistent ghosted allocation: each
//! piece of the halo lands directly in the block through a
//! leading-dimension get ([`GlobalArray::get_patch_strided`]).

use crate::array::{GaType, GlobalArray};
use crate::dist::MAX_DIM;
use crate::GaResult;
use armci::{Armci, ArmciError};

/// Most pieces one dimension's halo range splits into. The range is
/// `hi - lo + 2·width` long, less than three times the dimension (a block
/// spans at most the dimension and `width < dim`), so a periodic wrap
/// crosses at most three array boundaries.
const MAX_PIECES: usize = 4;

/// One dimension of a halo piece: the global range `[lo, hi)` and the
/// local index `at` where it lands in the block.
#[derive(Debug, Clone, Copy, Default)]
struct Piece {
    lo: usize,
    hi: usize,
    at: usize,
}

/// A local block with ghost margins. `Default` is an empty block for
/// [`GlobalArray::fetch_ghosted_into`] to fill.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GhostBlock {
    /// Global bounds of the interior (this process's block).
    pub lo: Vec<usize>,
    pub hi: Vec<usize>,
    /// Ghost width per dimension.
    pub width: Vec<usize>,
    /// Extents of `data` (interior + margins).
    pub dims: Vec<usize>,
    /// Row-major storage, ghosts included.
    pub data: Vec<f64>,
}

impl GhostBlock {
    /// Value at *global* index `idx`; `idx` may lie inside the ghost
    /// margin (including wrapped/periodic positions already fetched).
    /// Panics if outside the fetched region.
    pub fn at(&self, idx: &[usize]) -> f64 {
        let mut off = 0usize;
        for d in 0..self.dims.len() {
            // local coordinate of the global index, allowing the margin:
            // interior starts at width[d]
            let local = idx[d] + self.width[d] - self.lo[d];
            assert!(local < self.dims[d], "index {idx:?} outside ghost block");
            off = off * self.dims[d] + local;
        }
        self.data[off]
    }

    /// Value at a *signed offset* from a global interior index — the
    /// stencil-friendly accessor (`block.rel(&[i, j], &[-1, 0])`).
    pub fn rel(&self, idx: &[usize], delta: &[isize]) -> f64 {
        let mut off = 0usize;
        for d in 0..self.dims.len() {
            let local = (idx[d] + self.width[d] - self.lo[d]) as isize + delta[d];
            assert!(
                local >= 0 && (local as usize) < self.dims[d],
                "offset {delta:?} from {idx:?} outside ghost block"
            );
            off = off * self.dims[d] + local as usize;
        }
        self.data[off]
    }

    /// Number of interior (owned) elements.
    pub fn interior_len(&self) -> usize {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&l, &h)| h.saturating_sub(l))
            .product()
    }

    /// Copy of the interior, row-major over the interior extents.
    pub fn interior(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.interior_len());
        let row = self.hi.last().zip(self.lo.last()).map_or(0, |(h, l)| h - l);
        self.for_each_interior_row(|at| out.extend_from_slice(&self.data[at..at + row]));
        out
    }

    /// Calls `f` with the index in `data` of each interior row's first
    /// element, in row-major order. A row is the contiguous run of
    /// `hi[n-1] - lo[n-1]` elements along the last dimension. Nothing for
    /// an empty block.
    #[allow(clippy::needless_range_loop)] // indexes several parallel arrays
    pub fn for_each_interior_row(&self, mut f: impl FnMut(usize)) {
        let n = self.dims.len();
        if self.interior_len() == 0 {
            return;
        }
        let mut idx = [0usize; MAX_DIM];
        loop {
            let mut at = 0usize;
            for d in 0..n {
                at = at * self.dims[d] + self.width[d] + idx[d];
            }
            f(at);
            let mut d = n - 1;
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < self.hi[d] - self.lo[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
    }
}

impl<A: Armci + ?Sized> GlobalArray<'_, A> {
    /// Fetches this process's block plus a ghost margin of `width`
    /// elements per dimension (`GA_Update_ghosts` as a pull). With
    /// `periodic`, margins wrap around the array (GA's periodic ghosts);
    /// otherwise out-of-array ghost cells are zero.
    pub fn fetch_ghosted(&self, width: &[usize], periodic: bool) -> GaResult<GhostBlock> {
        let mut block = GhostBlock::default();
        self.fetch_ghosted_into(width, periodic, &mut block)?;
        Ok(block)
    }

    /// [`Self::fetch_ghosted`] into an existing block, reusing its
    /// storage: a sweep loop refreshes one block instead of allocating a
    /// new one per sweep. Whatever `block` held before (another array,
    /// width or periodicity) is replaced; out-of-array margins are zeroed
    /// again on every call.
    #[allow(clippy::needless_range_loop)] // indexes several parallel arrays
    pub fn fetch_ghosted_into(
        &self,
        width: &[usize],
        periodic: bool,
        block: &mut GhostBlock,
    ) -> GaResult<()> {
        if self.ty() != GaType::F64 {
            return Err(ArmciError::BadDescriptor("ghosts need an F64 array".into()));
        }
        let n = self.dims().len();
        if width.len() != n {
            return Err(ArmciError::BadDescriptor(format!(
                "ghost width rank {} vs array rank {n}",
                width.len()
            )));
        }
        for d in 0..n {
            if width[d] >= self.dims()[d] {
                return Err(ArmciError::BadDescriptor(format!(
                    "ghost width {} ≥ dim {} in dim {d}",
                    width[d],
                    self.dims()[d]
                )));
            }
        }
        let (lo, hi) = self.my_block();
        block.lo = lo;
        block.hi = hi;
        block.width.clear();
        block.width.extend_from_slice(width);
        block.dims.clear();
        block
            .dims
            .extend((0..n).map(|d| block.hi[d].saturating_sub(block.lo[d]) + 2 * width[d]));
        block
            .data
            .resize(block.dims.iter().product::<usize>().max(1), 0.0);
        if block.lo.iter().zip(&block.hi).any(|(&l, &h)| l >= h) {
            block.data.fill(0.0);
            return Ok(()); // empty block: nothing to fetch
        }
        // Per dimension: the pieces of the halo range, splitting at the
        // array boundary (periodic wrap) or clamping to the array
        // (non-periodic: exactly one piece).
        let mut pieces = [[Piece::default(); MAX_PIECES]; MAX_DIM];
        let mut npieces = [0usize; MAX_DIM];
        for d in 0..n {
            let nd = self.dims()[d];
            let start = block.lo[d] as isize - width[d] as isize;
            let len = block.dims[d];
            if periodic {
                let mut local = 0usize;
                while local < len {
                    let gm = (start + local as isize).rem_euclid(nd as isize) as usize;
                    // run until the array boundary or the halo end
                    let run = (nd - gm).min(len - local);
                    pieces[d][npieces[d]] = Piece {
                        lo: gm,
                        hi: gm + run,
                        at: local,
                    };
                    npieces[d] += 1;
                    local += run;
                }
            } else {
                let glo = start.max(0) as usize;
                pieces[d][0] = Piece {
                    lo: glo,
                    hi: (block.hi[d] + width[d]).min(nd),
                    at: (glo as isize - start) as usize,
                };
                npieces[d] = 1;
            }
        }
        if !periodic {
            let (mut flo, mut fhi) = ([0usize; MAX_DIM], [0usize; MAX_DIM]);
            for d in 0..n {
                flo[d] = pieces[d][0].at;
                fhi[d] = flo[d] + pieces[d][0].hi - pieces[d][0].lo;
            }
            zero_outside(&mut block.data, &block.dims, &flo[..n], &fhi[..n]);
        }
        // Cartesian product of per-dim pieces: one leading-dimension get
        // per piece, straight into the block.
        let mut choice = [0usize; MAX_DIM];
        let (mut glo, mut ghi, mut at) = ([0usize; MAX_DIM], [0usize; MAX_DIM], [0usize; MAX_DIM]);
        loop {
            for d in 0..n {
                let p = pieces[d][choice[d]];
                (glo[d], ghi[d], at[d]) = (p.lo, p.hi, p.at);
            }
            self.get_patch_strided(&glo[..n], &ghi[..n], &mut block.data, &block.dims, &at[..n])?;
            // next combination
            let mut d = n;
            loop {
                if d == 0 {
                    return Ok(());
                }
                d -= 1;
                choice[d] += 1;
                if choice[d] < npieces[d] {
                    break;
                }
                choice[d] = 0;
            }
        }
    }

    /// Writes a ghost block's interior back into the array
    /// (`NGA_Release_update` of the interior).
    pub fn put_interior(&self, block: &GhostBlock) -> GaResult<()> {
        if block.lo.iter().zip(&block.hi).any(|(&l, &h)| l >= h) {
            return Ok(());
        }
        self.put_patch(&block.lo, &block.hi, &block.interior())
    }
}

/// Zeroes every element of the row-major `data` (extents `dims`) outside
/// the box `[lo, hi)`, a row at a time.
fn zero_outside(data: &mut [f64], dims: &[usize], lo: &[usize], hi: &[usize]) {
    let n = dims.len();
    let row = dims[n - 1];
    for (r, chunk) in data.chunks_exact_mut(row).enumerate() {
        // the row's leading indices, last dimension first
        let mut rest = r;
        let mut inside = true;
        for d in (0..n - 1).rev() {
            let i = rest % dims[d];
            rest /= dims[d];
            inside &= lo[d] <= i && i < hi[d];
        }
        if inside {
            chunk[..lo[n - 1]].fill(0.0);
            chunk[hi[n - 1]..].fill(0.0);
        } else {
            chunk.fill(0.0);
        }
    }
}
