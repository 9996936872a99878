//! Block data distributions and process grids.
//!
//! GA's default distribution factors the process count into an
//! n-dimensional grid (larger array dimensions get more processes) and
//! splits each array dimension into near-equal blocks. Irregular
//! distributions with user-chosen block boundaries are also supported
//! (GA's `ga_create_irreg`).

/// Factors `nprocs` into an `ndim`-dimensional grid, biasing more
/// processes toward larger array dimensions.
pub fn proc_grid(nprocs: usize, dims: &[usize]) -> Vec<usize> {
    assert!(!dims.is_empty());
    let mut grid = vec![1usize; dims.len()];
    // Greedy: hand out prime factors (largest first) to the dimension
    // with the largest per-process extent.
    let mut factors = prime_factors(nprocs);
    factors.sort_unstable_by(|a, b| b.cmp(a));
    for f in factors {
        let (best, _) = grid
            .iter()
            .enumerate()
            .map(|(d, &g)| (d, dims[d] as f64 / g as f64))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty dims");
        grid[best] *= f;
    }
    grid
}

fn prime_factors(mut n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut d = 2;
    while d * d <= n {
        while n.is_multiple_of(d) {
            out.push(d);
            n /= d;
        }
        d += 1;
    }
    if n > 1 {
        out.push(n);
    }
    out
}

/// Most dimensions a patch fan-out handles (GA's `GA_MAX_DIM`).
pub const MAX_DIM: usize = 7;

/// One owner's share of a patch, as visited by
/// [`Distribution::for_each_region`]: the owning cell, the intersection
/// `[ilo, ihi)` of the patch with the cell's block, and the block
/// `[blo, bhi)` itself.
#[derive(Debug, Clone, Copy)]
pub struct Region {
    /// The owning cell (group rank).
    pub cell: usize,
    ndim: usize,
    ilo: [usize; MAX_DIM],
    ihi: [usize; MAX_DIM],
    blo: [usize; MAX_DIM],
    bhi: [usize; MAX_DIM],
}

impl Region {
    /// Intersection lower bounds.
    pub fn ilo(&self) -> &[usize] {
        &self.ilo[..self.ndim]
    }

    /// Intersection upper bounds (exclusive).
    pub fn ihi(&self) -> &[usize] {
        &self.ihi[..self.ndim]
    }

    /// The owning block's lower bounds.
    pub fn blo(&self) -> &[usize] {
        &self.blo[..self.ndim]
    }

    /// The owning block's upper bounds (exclusive).
    pub fn bhi(&self) -> &[usize] {
        &self.bhi[..self.ndim]
    }
}

/// A block distribution: per dimension, the block boundaries
/// (`bounds[d]` has `grid[d] + 1` entries, `bounds[d][0] == 0`,
/// `bounds[d].last() == dims[d]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Distribution {
    pub dims: Vec<usize>,
    pub grid: Vec<usize>,
    pub bounds: Vec<Vec<usize>>,
}

impl Distribution {
    /// GA-style regular block distribution over `nprocs` processes.
    pub fn regular(dims: &[usize], nprocs: usize) -> Distribution {
        let grid = proc_grid(nprocs, dims);
        let bounds = dims
            .iter()
            .zip(&grid)
            .map(|(&n, &g)| {
                // near-equal blocks: first (n % g) blocks get one extra
                let base = n / g;
                let extra = n % g;
                let mut b = Vec::with_capacity(g + 1);
                let mut acc = 0;
                b.push(0);
                for i in 0..g {
                    acc += base + usize::from(i < extra);
                    b.push(acc);
                }
                b
            })
            .collect();
        Distribution {
            dims: dims.to_vec(),
            grid,
            bounds,
        }
    }

    /// Irregular distribution with explicit boundaries.
    pub fn irregular(dims: &[usize], bounds: Vec<Vec<usize>>) -> Distribution {
        assert_eq!(bounds.len(), dims.len());
        for (d, b) in bounds.iter().enumerate() {
            assert!(b.len() >= 2, "dim {d}: need at least one block");
            assert_eq!(b[0], 0, "dim {d}: bounds must start at 0");
            assert_eq!(
                *b.last().unwrap(),
                dims[d],
                "dim {d}: bounds must end at dim"
            );
            assert!(
                b.windows(2).all(|w| w[0] <= w[1]),
                "dim {d}: bounds must ascend"
            );
        }
        let grid = bounds.iter().map(|b| b.len() - 1).collect();
        Distribution {
            dims: dims.to_vec(),
            grid,
            bounds,
        }
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Number of grid cells (≤ process count; processes beyond this hold
    /// no data).
    pub fn ncells(&self) -> usize {
        self.grid.iter().product()
    }

    /// Grid coordinates of cell `c` (row-major over the grid).
    pub fn cell_coords(&self, c: usize) -> Vec<usize> {
        let mut coords = vec![0usize; self.ndim()];
        let mut rem = c;
        for d in (0..self.ndim()).rev() {
            coords[d] = rem % self.grid[d];
            rem /= self.grid[d];
        }
        coords
    }

    /// Half-open index range `[lo, hi)` owned by cell `c`, per dimension.
    pub fn cell_block(&self, c: usize) -> (Vec<usize>, Vec<usize>) {
        let coords = self.cell_coords(c);
        let lo = coords
            .iter()
            .zip(&self.bounds)
            .map(|(&i, b)| b[i])
            .collect();
        let hi = coords
            .iter()
            .zip(&self.bounds)
            .map(|(&i, b)| b[i + 1])
            .collect();
        (lo, hi)
    }

    /// Elements owned by cell `c`.
    pub fn cell_len(&self, c: usize) -> usize {
        let (lo, hi) = self.cell_block(c);
        lo.iter().zip(&hi).map(|(&l, &h)| h - l).product()
    }

    /// The cell owning global index `idx`.
    #[allow(clippy::needless_range_loop)] // indexes three parallel arrays
    pub fn locate(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.ndim());
        let mut cell = 0usize;
        for d in 0..self.ndim() {
            assert!(
                idx[d] < self.dims[d],
                "index {} out of dim {}",
                idx[d],
                self.dims[d]
            );
            // last block index b with bounds[d][b] <= idx[d] and non-empty
            let b = match self.bounds[d].binary_search(&idx[d]) {
                Ok(mut i) => {
                    // land on a boundary: walk forward over empty blocks
                    while i + 1 < self.bounds[d].len() - 1 && self.bounds[d][i + 1] <= idx[d] {
                        i += 1;
                    }
                    i.min(self.grid[d] - 1)
                }
                Err(i) => i - 1,
            };
            cell = cell * self.grid[d] + b;
        }
        cell
    }

    /// Visits every cell whose block intersects the half-open patch
    /// `[lo, hi)`, with the intersection bounds — the fan-out of Figure 2
    /// — in row-major cell order, stopping at the first error `f`
    /// returns. Visiting allocates nothing: each [`Region`] holds its
    /// bounds in fixed-size arrays, so the array may have at most
    /// [`MAX_DIM`] dimensions.
    #[allow(clippy::needless_range_loop)] // indexes several parallel arrays
    pub fn for_each_region<E>(
        &self,
        lo: &[usize],
        hi: &[usize],
        mut f: impl FnMut(&Region) -> Result<(), E>,
    ) -> Result<(), E> {
        let n = self.ndim();
        assert!(n <= MAX_DIM, "{n} dimensions exceed MAX_DIM = {MAX_DIM}");
        assert_eq!(lo.len(), n);
        assert_eq!(hi.len(), n);
        for d in 0..n {
            assert!(lo[d] < hi[d], "empty patch in dim {d}");
            assert!(hi[d] <= self.dims[d], "patch exceeds dim {d}");
        }
        // Per dimension, the range of grid blocks the patch touches.
        let (mut first, mut last) = ([0usize; MAX_DIM], [0usize; MAX_DIM]);
        for d in 0..n {
            first[d] = self.block_of(d, lo[d]);
            last[d] = self.block_of(d, hi[d] - 1);
        }
        // Cartesian product of the per-dim block ranges.
        let mut coords = first;
        loop {
            // the cell, its block, and its intersection with the patch
            let mut r = Region {
                cell: 0,
                ndim: n,
                ilo: [0; MAX_DIM],
                ihi: [0; MAX_DIM],
                blo: [0; MAX_DIM],
                bhi: [0; MAX_DIM],
            };
            for d in 0..n {
                r.cell = r.cell * self.grid[d] + coords[d];
                r.blo[d] = self.bounds[d][coords[d]];
                r.bhi[d] = self.bounds[d][coords[d] + 1];
                r.ilo[d] = lo[d].max(r.blo[d]);
                r.ihi[d] = hi[d].min(r.bhi[d]);
            }
            if (0..n).all(|d| r.ilo[d] < r.ihi[d]) {
                f(&r)?;
            }
            // increment coords over the ranges (last dim fastest)
            let mut d = n;
            loop {
                if d == 0 {
                    return Ok(());
                }
                d -= 1;
                if coords[d] < last[d] {
                    coords[d] += 1;
                    break;
                }
                coords[d] = first[d];
            }
        }
    }

    /// Block index along dimension `d` containing index `i`.
    fn block_of(&self, d: usize, i: usize) -> usize {
        match self.bounds[d].binary_search(&i) {
            Ok(mut b) => {
                while b + 1 < self.bounds[d].len() - 1 && self.bounds[d][b + 1] <= i {
                    b += 1;
                }
                b.min(self.grid[d] - 1)
            }
            Err(b) => b - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(cell, ilo, ihi)` of every region, in visiting order.
    fn regions(
        d: &Distribution,
        lo: &[usize],
        hi: &[usize],
    ) -> Vec<(usize, Vec<usize>, Vec<usize>)> {
        let mut out = Vec::new();
        d.for_each_region(lo, hi, |r| {
            assert_eq!(d.cell_block(r.cell), (r.blo().to_vec(), r.bhi().to_vec()));
            out.push((r.cell, r.ilo().to_vec(), r.ihi().to_vec()));
            Ok::<(), ()>(())
        })
        .unwrap();
        out
    }

    #[test]
    fn proc_grid_covers_all_processes() {
        for p in 1..=64 {
            let g = proc_grid(p, &[100, 100]);
            assert_eq!(g.iter().product::<usize>(), p, "p={p}");
        }
    }

    #[test]
    fn proc_grid_biases_larger_dims() {
        let g = proc_grid(8, &[1000, 10]);
        assert!(g[0] >= g[1], "grid {g:?}");
    }

    #[test]
    fn regular_blocks_partition_exactly() {
        let d = Distribution::regular(&[10, 7], 6);
        let total: usize = (0..d.ncells()).map(|c| d.cell_len(c)).sum();
        assert_eq!(total, 70);
        // blocks are near-equal: max-min extent ≤ 1 per dim
        for dim in 0..2 {
            let extents: Vec<usize> = d.bounds[dim].windows(2).map(|w| w[1] - w[0]).collect();
            let mx = extents.iter().max().unwrap();
            let mn = extents.iter().min().unwrap();
            assert!(mx - mn <= 1, "dim {dim}: {extents:?}");
        }
    }

    #[test]
    fn locate_matches_cell_blocks() {
        let d = Distribution::regular(&[13, 9], 4);
        for i in 0..13 {
            for j in 0..9 {
                let c = d.locate(&[i, j]);
                let (lo, hi) = d.cell_block(c);
                assert!(lo[0] <= i && i < hi[0]);
                assert!(lo[1] <= j && j < hi[1]);
            }
        }
    }

    #[test]
    fn regions_cover_patch_disjointly() {
        let d = Distribution::regular(&[20, 20], 6);
        let lo = [3, 5];
        let hi = [17, 19];
        let parts = regions(&d, &lo, &hi);
        // total elements match and parts are disjoint
        let total: usize = parts
            .iter()
            .map(|(_, l, h)| (h[0] - l[0]) * (h[1] - l[1]))
            .sum();
        assert_eq!(total, (17 - 3) * (19 - 5));
        for (a, (_, la, ha)) in parts.iter().enumerate() {
            for (_, lb, hb) in parts.iter().skip(a + 1) {
                let overlap = (0..2).all(|d| la[d] < hb[d] && lb[d] < ha[d]);
                assert!(!overlap, "parts overlap");
            }
        }
    }

    #[test]
    fn single_cell_patch() {
        let d = Distribution::regular(&[16], 4);
        let parts = regions(&d, &[5], &[7]);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], (1, vec![5], vec![7]));
    }

    #[test]
    fn irregular_distribution() {
        let d = Distribution::irregular(&[10], vec![vec![0, 2, 9, 10]]);
        assert_eq!(d.grid, vec![3]);
        assert_eq!(d.locate(&[0]), 0);
        assert_eq!(d.locate(&[2]), 1);
        assert_eq!(d.locate(&[8]), 1);
        assert_eq!(d.locate(&[9]), 2);
        let parts = regions(&d, &[1], &[10]);
        assert_eq!(parts.len(), 3);
    }

    #[test]
    fn more_processes_than_elements() {
        // 3 processes, 2-element dimension: one block is empty
        let d = Distribution::regular(&[2], 3);
        let lens: Vec<usize> = (0..d.ncells()).map(|c| d.cell_len(c)).collect();
        assert_eq!(lens.iter().sum::<usize>(), 2);
        // empty blocks are never visited
        let parts = regions(&d, &[0], &[2]);
        assert!(parts.iter().all(|(_, l, h)| l[0] < h[0]));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn cell_coords_roundtrip() {
        let d = Distribution::regular(&[8, 8, 8], 8);
        for c in 0..d.ncells() {
            let coords = d.cell_coords(c);
            let mut back = 0;
            for dim in 0..3 {
                back = back * d.grid[dim] + coords[dim];
            }
            assert_eq!(back, c);
        }
    }

    #[test]
    #[should_panic(expected = "empty patch")]
    fn empty_patch_rejected() {
        let d = Distribution::regular(&[8], 2);
        regions(&d, &[3], &[3]);
    }
}
