//! Halo-exchange stencil driver: 2D/3D Jacobi iterations with
//! ghost-cell subarray exchange.
//!
//! Each iteration every rank refreshes its block plus a `radius`-deep
//! halo in place with [`GlobalArray::fetch_ghosted_into`] — a fan of
//! *strided* subarray gets that exercise the derived-datatype LRU cache,
//! the conflict-tree disjointness proofs, and (intra-node) the shm tier —
//! relaxes the interior with [`sweep`], writes it back, and folds a global
//! L1 residual through the allreduce.
//!
//! Determinism and the oracle: the per-cell update order is fixed
//! (centre first, then per dimension minus-neighbour before
//! plus-neighbour, dimensions ascending), each cell's inputs come from
//! the previous field only (Jacobi), and the residual allreduce folds
//! per-rank partials in rank order — so a serial reference that
//! replicates the block partition reproduces field *and* residuals
//! bit-exactly.

use crate::SplitMix64;
use armci::Armci;
use armci_mpi::{ArmciMpi, Config};
use ga::dist::MAX_DIM;
use ga::ghosts::GhostBlock;
use ga::{Distribution, GaType, GlobalArray};
use mpisim::{Proc, Runtime, RuntimeConfig};

/// Parameters of one stencil run; `Default` is the CI-sized 2D
/// instance. All knobs documented so sweeps are reproducible.
#[derive(Debug, Clone)]
pub struct StencilOpts {
    /// Grid extents (2 or 3 entries → 2D or 3D). Default `[24, 24]`.
    pub dims: Vec<usize>,
    /// Stencil radius = ghost width per dimension. Default 1 (the
    /// classic star stencil); 2 doubles the halo faces.
    pub radius: usize,
    /// Jacobi sweeps. Default 4.
    pub iters: usize,
    /// Periodic boundaries (GA_PERIODIC) instead of zero boundaries.
    pub periodic: bool,
    /// Seed of the deterministic initial field.
    pub seed: u64,
    /// Modelled compute per relaxed cell, seconds. Default 0.
    pub cell_compute_s: f64,
}

impl Default for StencilOpts {
    fn default() -> Self {
        StencilOpts {
            dims: vec![24, 24],
            radius: 1,
            iters: 4,
            periodic: false,
            seed: 0x57E4C11,
            cell_compute_s: 0.0,
        }
    }
}

impl StencilOpts {
    /// Total cell count.
    pub fn ncells(&self) -> usize {
        self.dims.iter().product()
    }
}

/// Per-rank outcome of [`run_stencil`]; every rank fetches the full
/// final field so the oracle can check cross-rank agreement.
#[derive(Debug, Clone)]
pub struct StencilResult {
    /// Final field, row-major over `dims`, after `iters` sweeps.
    pub field: Vec<f64>,
    /// Global L1 residual after each sweep (allreduce result).
    pub residuals: Vec<f64>,
    /// Virtual seconds this rank spent in the run.
    pub elapsed_s: f64,
    /// One-sided operations this rank issued.
    pub ops: u64,
}

/// Deterministic initial field value at flat row-major index `i`.
fn init_cell(seed: u64, i: usize) -> f64 {
    let mut r = SplitMix64::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    r.next_f64()
}

/// One Jacobi relaxation of `cell` given its neighbourhood reader.
/// The summation order here is THE contract between driver and oracle:
/// centre, then for each dimension ascending, radius 1..=R, the minus
/// neighbour before the plus neighbour.
fn relax(read: &dyn Fn(&[isize]) -> f64, nd: usize, radius: usize) -> f64 {
    let zero = vec![0isize; nd];
    let mut sum = read(&zero);
    let mut count = 1.0f64;
    for d in 0..nd {
        for r in 1..=radius {
            let mut delta = vec![0isize; nd];
            delta[d] = -(r as isize);
            sum += read(&delta);
            delta[d] = r as isize;
            sum += read(&delta);
            count += 2.0;
        }
    }
    sum / count
}

/// One Jacobi sweep of the radius-`radius` star stencil over the
/// interior of `gb`: writes the relaxed interior, row-major, into `new`
/// and returns this block's L1 change, summed in row-major order.
///
/// Each cell sums in `relax`'s contract order (centre, then dimensions
/// ascending, `r = 1..=radius`, minus before plus) and divides by the same
/// count, so the result is bit-equal to `relax`. The neighbours are a
/// table of flat offsets into `gb.data`, built once per sweep, and the
/// walk goes a whole interior row at a time: per row, `new` starts as the
/// centre row and each neighbour row is added to it in table order.
pub fn sweep(gb: &GhostBlock, radius: usize, new: &mut [f64]) -> f64 {
    let nd = gb.dims.len();
    assert!(
        gb.width.iter().all(|&w| w >= radius),
        "ghost width {:?} below the stencil radius {radius}",
        gb.width
    );
    assert_eq!(
        new.len(),
        gb.interior_len(),
        "output buffer vs interior size"
    );
    if new.is_empty() {
        return 0.0;
    }
    // Row-major strides of the ghosted block.
    let mut stride = [1usize; MAX_DIM];
    for d in (0..nd - 1).rev() {
        stride[d] = stride[d + 1] * gb.dims[d + 1];
    }
    let mut offsets = Vec::with_capacity(2 * nd * radius);
    for &s in &stride[..nd] {
        for r in 1..=radius {
            let step = (r * s) as isize;
            offsets.push(-step);
            offsets.push(step);
        }
    }
    // `1 + 2·nd·radius` is what relax's repeated `count += 2.0` reaches:
    // small integers are exact in f64.
    let count = (1 + 2 * nd * radius) as f64;
    let row = gb.hi[nd - 1] - gb.lo[nd - 1];
    let mut rows = new.chunks_exact_mut(row);
    let mut partial = 0.0f64;
    gb.for_each_interior_row(|c0| {
        let out = rows.next().expect("one output row per interior row");
        partial = relax_row(&gb.data, c0, &offsets, count, out, partial);
    });
    partial
}

/// Relaxes the interior row starting at `data[c0]` into `out` and
/// returns `partial` plus the row's L1 change, added cell by cell.
///
/// A function of its own rather than the body of `sweep`'s closure: as
/// arguments, `out` and `data` are known not to alias, and the row
/// loops ran ~40% slower when written inside the closure.
fn relax_row(
    data: &[f64],
    c0: usize,
    offsets: &[isize],
    count: f64,
    out: &mut [f64],
    mut partial: f64,
) -> f64 {
    let row = out.len();
    let centre = &data[c0..c0 + row];
    out.copy_from_slice(centre);
    for &off in offsets {
        let start = c0.wrapping_add_signed(off);
        for (o, &x) in out.iter_mut().zip(&data[start..start + row]) {
            *o += x;
        }
    }
    for (o, &old) in out.iter_mut().zip(centre) {
        *o /= count;
        partial += (*o - old).abs();
    }
    partial
}

/// Runs the Jacobi sweeps on an established runtime.
pub fn run_stencil<A: Armci + ?Sized>(p: &Proc, rt: &A, opts: &StencilOpts) -> StencilResult {
    let nd = opts.dims.len();
    let t0 = p.clock().now();
    let mut ops = 0u64;

    let a = GlobalArray::create(rt, "st-a", GaType::F64, &opts.dims).unwrap();
    let b = GlobalArray::create(rt, "st-b", GaType::F64, &opts.dims).unwrap();

    // Owners initialise their own block from the global seed, a row at
    // a time: consecutive cells of a row have consecutive flat indices.
    let (mlo, mhi) = a.my_block();
    let my_cells: usize = mlo
        .iter()
        .zip(&mhi)
        .map(|(&l, &h)| h.saturating_sub(l))
        .product();
    // The relaxed interior of each sweep; it first carries the initial
    // block.
    let mut new = vec![0.0f64; my_cells];
    if my_cells > 0 {
        let row = mhi[nd - 1] - mlo[nd - 1];
        let mut idx = mlo.clone();
        for out in new.chunks_exact_mut(row) {
            let mut flat = 0usize;
            for (&i, &dim) in idx.iter().zip(&opts.dims) {
                flat = flat * dim + i;
            }
            for (j, v) in out.iter_mut().enumerate() {
                *v = init_cell(opts.seed, flat + j);
            }
            for d in (0..nd - 1).rev() {
                idx[d] += 1;
                if idx[d] < mhi[d] {
                    break;
                }
                idx[d] = mlo[d];
            }
        }
        a.put_patch(&mlo, &mhi, &new).unwrap();
        b.put_patch(&mlo, &mhi, &new).unwrap();
        ops += 2;
    }
    a.sync();

    let width = vec![opts.radius; nd];
    let mut gb = GhostBlock::default();
    let mut residuals = Vec::with_capacity(opts.iters);
    for it in 0..opts.iters {
        let (src, dst) = if it % 2 == 0 { (&a, &b) } else { (&b, &a) };
        // The halo refresh: a fan of strided subarray gets, landing in
        // the block reused across sweeps.
        src.fetch_ghosted_into(&width, opts.periodic, &mut gb)
            .unwrap();
        ops += 1;
        let mut partial = 0.0f64;
        if my_cells > 0 {
            if opts.cell_compute_s > 0.0 {
                for _ in 0..my_cells {
                    p.compute(opts.cell_compute_s);
                }
            }
            partial = sweep(&gb, opts.radius, &mut new);
            dst.put_patch(&mlo, &mhi, &new).unwrap();
            ops += 1;
        }
        // Global residual: reduce_f64 folds the per-rank contributions
        // in rank order, so the serial oracle can replicate it exactly.
        let mut r = [partial];
        ga::gop::dgop(dst.group(), &mut r, ga::gop::GopOp::Sum);
        residuals.push(r[0]);
        dst.sync();
    }
    // Free the sweep buffers before the full-field gather, so the peak
    // holds the field but not them.
    drop(gb);
    drop(new);

    let last = if opts.iters.is_multiple_of(2) { &a } else { &b };
    let zero = vec![0usize; nd];
    let field = last.get_patch(&zero, &opts.dims).unwrap();
    ops += 1;
    last.sync();
    a.destroy().unwrap();
    b.destroy().unwrap();

    StencilResult {
        field,
        residuals,
        elapsed_s: p.clock().now() - t0,
        ops,
    }
}

/// Spins up a runtime and runs the driver on every rank.
pub fn execute(
    ranks: usize,
    rt_cfg: RuntimeConfig,
    cfg: Config,
    opts: &StencilOpts,
) -> Vec<StencilResult> {
    let opts = opts.clone();
    Runtime::run_with(ranks, rt_cfg, move |p| {
        let rt = ArmciMpi::with_config(p, cfg.clone());
        run_stencil(p, &rt, &opts)
    })
}

/// Serial reference replicating the driver bit-for-bit: same per-cell
/// summation order, same boundary semantics as `fetch_ghosted`
/// (zero-fill or periodic wrap), and residual partials folded over the
/// same `Distribution::regular` block partition in rank order.
pub fn reference(opts: &StencilOpts, ranks: usize) -> (Vec<f64>, Vec<f64>) {
    let nd = opts.dims.len();
    let total = opts.ncells();
    let mut cur: Vec<f64> = (0..total).map(|i| init_cell(opts.seed, i)).collect();
    let dist = Distribution::regular(&opts.dims, ranks);
    let flat_of = |idx: &[usize]| -> usize {
        let mut f = 0usize;
        for (&i, &dim) in idx.iter().zip(&opts.dims) {
            f = f * dim + i;
        }
        f
    };
    let mut residuals = Vec::with_capacity(opts.iters);
    for _ in 0..opts.iters {
        let mut next = vec![0.0f64; total];
        let mut partials = vec![0.0f64; ranks];
        for (cell, partial) in partials.iter_mut().enumerate().take(ranks) {
            let (lo, hi) = dist.cell_block(cell);
            if lo.iter().zip(&hi).any(|(&l, &h)| l >= h) {
                continue;
            }
            let mut idx = lo.clone();
            loop {
                let read = |delta: &[isize]| -> f64 {
                    let mut g = vec![0usize; nd];
                    for d in 0..nd {
                        let x = idx[d] as isize + delta[d];
                        if opts.periodic {
                            g[d] = x.rem_euclid(opts.dims[d] as isize) as usize;
                        } else if x < 0 || x >= opts.dims[d] as isize {
                            return 0.0;
                        } else {
                            g[d] = x as usize;
                        }
                    }
                    cur[flat_of(&g)]
                };
                let old = cur[flat_of(&idx)];
                let val = relax(&read, nd, opts.radius);
                *partial += (val - old).abs();
                next[flat_of(&idx)] = val;
                let mut d = nd;
                loop {
                    if d == 0 {
                        break;
                    }
                    d -= 1;
                    idx[d] += 1;
                    if idx[d] < hi[d] {
                        break;
                    }
                    idx[d] = lo[d];
                }
                if idx == lo {
                    break;
                }
            }
        }
        // reduce_f64's left fold, rank order.
        let mut acc = partials[0];
        for p in &partials[1..] {
            acc += p;
        }
        residuals.push(acc);
        cur = next;
    }
    (cur, residuals)
}

/// Bit-exact oracle: all ranks agree, the final field equals the serial
/// reference to the last bit, and every per-sweep residual matches.
pub fn verify(opts: &StencilOpts, ranks: usize, results: &[StencilResult]) -> Result<(), String> {
    let r0 = results.first().ok_or("no results")?;
    for (r, res) in results.iter().enumerate() {
        if res.field != r0.field || res.residuals != r0.residuals {
            return Err(format!("rank {r} disagrees with rank 0"));
        }
    }
    let (field_ref, res_ref) = reference(opts, ranks);
    for (i, (got, want)) in r0.field.iter().zip(&field_ref).enumerate() {
        if got.to_bits() != want.to_bits() {
            return Err(format!("field[{i}] = {got:e}, reference {want:e}"));
        }
    }
    if r0.residuals.len() != res_ref.len() {
        return Err("residual count mismatch".into());
    }
    for (i, (got, want)) in r0.residuals.iter().zip(&res_ref).enumerate() {
        if got.to_bits() != want.to_bits() {
            return Err(format!("residual[{i}] = {got:e}, reference {want:e}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> RuntimeConfig {
        RuntimeConfig {
            charge_time: false,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn driver_matches_reference_2d() {
        let opts = StencilOpts::default();
        let results = execute(4, quiet(), Config::default(), &opts);
        verify(&opts, 4, &results).unwrap();
    }

    #[test]
    fn driver_matches_reference_3d_periodic() {
        let opts = StencilOpts {
            dims: vec![6, 6, 6],
            periodic: true,
            iters: 2,
            ..StencilOpts::default()
        };
        let results = execute(3, quiet(), Config::default(), &opts);
        verify(&opts, 3, &results).unwrap();
    }

    #[test]
    fn driver_matches_reference_1d_periodic() {
        let opts = StencilOpts {
            dims: vec![29],
            radius: 2,
            periodic: true,
            ..StencilOpts::default()
        };
        let results = execute(3, quiet(), Config::default(), &opts);
        verify(&opts, 3, &results).unwrap();
    }

    #[test]
    fn driver_matches_reference_3d_radius2() {
        let opts = StencilOpts {
            dims: vec![7, 6, 9],
            radius: 2,
            iters: 3,
            ..StencilOpts::default()
        };
        let results = execute(4, quiet(), Config::default(), &opts);
        verify(&opts, 4, &results).unwrap();
    }

    /// The per-cell compute charge reaches every rank's clock: each sweep
    /// charges `cell_compute_s` once per owned cell.
    #[test]
    fn cell_compute_is_charged_per_cell() {
        let opts = StencilOpts {
            dims: vec![16, 16],
            cell_compute_s: 1e-6,
            ..StencilOpts::default()
        };
        let ranks = 2;
        let results = execute(ranks, RuntimeConfig::default(), Config::default(), &opts);
        verify(&opts, ranks, &results).unwrap();
        let dist = Distribution::regular(&opts.dims, ranks);
        for (rank, res) in results.iter().enumerate() {
            let (lo, hi) = dist.cell_block(rank);
            let my_cells: usize = lo.iter().zip(&hi).map(|(&l, &h)| h - l).product();
            let floor = opts.iters as f64 * my_cells as f64 * opts.cell_compute_s;
            assert!(
                res.elapsed_s >= floor,
                "rank {rank}: {} s elapsed, {floor} s of compute",
                res.elapsed_s
            );
        }
    }

    #[test]
    fn residuals_decay() {
        let (_, res) = reference(&StencilOpts::default(), 4);
        assert!(
            res.windows(2).all(|w| w[1] <= w[0] * 1.5),
            "residuals exploding: {res:?}"
        );
    }
}
