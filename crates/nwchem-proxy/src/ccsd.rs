//! Executable CCSD / (T) proxy over Global Arrays.
//!
//! The CCSD phase computes the particle–particle ladder contraction
//!
//! ```text
//! R[i,j,a,b] = Σ_{c,d} V[a,b,c,d] · T[i,j,c,d]
//! ```
//!
//! which dominates a CCSD iteration (`O(no² nv⁴)` flops) and has the
//! canonical NWChem runtime signature: claim a tile pair from the NXTVAL
//! counter, *get* the integral and amplitude tiles, DGEMM locally,
//! *accumulate* the result tile. The (T) phase sweeps the same tile space
//! with a higher flops-per-byte ratio and no accumulates (energy only),
//! mirroring the perturbative-triples character.

use crate::tensors::{fill_patch, t2_value, v2_value};
use armci::Armci;
use ga::{GaType, GlobalArray};
use mpisim::Proc;

/// Proxy problem configuration.
#[derive(Debug, Clone, Copy)]
pub struct CcsdConfig {
    /// Occupied orbitals (paper w5: 20).
    pub no: usize,
    /// Virtual orbitals (paper w5: 435).
    pub nv: usize,
    /// Occupied tile size (must divide `no`).
    pub tile_o: usize,
    /// Virtual tile size (must divide `nv`).
    pub tile_v: usize,
    /// CCSD iterations to run.
    pub iterations: usize,
}

impl CcsdConfig {
    /// A laptop-sized configuration for tests and examples.
    pub fn tiny() -> CcsdConfig {
        CcsdConfig {
            no: 4,
            nv: 8,
            tile_o: 2,
            tile_v: 4,
            iterations: 1,
        }
    }

    /// The paper's w5 problem (used analytically by `scalesim`; far too
    /// large to materialise in tests).
    pub fn w5() -> CcsdConfig {
        CcsdConfig {
            no: 20,
            nv: 435,
            tile_o: 10,
            tile_v: 29,
            iterations: 10,
        }
    }

    fn check(&self) {
        assert!(self.no.is_multiple_of(self.tile_o), "tile_o must divide no");
        assert!(self.nv.is_multiple_of(self.tile_v), "tile_v must divide nv");
    }

    /// Occupied tiles per dimension.
    pub fn ot(&self) -> usize {
        self.no / self.tile_o
    }

    /// Virtual tiles per dimension.
    pub fn vt(&self) -> usize {
        self.nv / self.tile_v
    }

    /// CCSD ladder tasks per iteration: one per (ij-tile, ab-tile) pair.
    pub fn ccsd_tasks(&self) -> usize {
        self.ot() * self.ot() * self.vt() * self.vt()
    }

    /// Flops of one CCSD ladder task (all `cd` tiles contracted).
    pub fn ccsd_task_flops(&self) -> f64 {
        let m = (self.tile_o * self.tile_o) as f64;
        let n = (self.tile_v * self.tile_v) as f64;
        let k = (self.nv * self.nv) as f64;
        2.0 * m * n * k
    }

    /// Bytes fetched by one CCSD ladder task.
    pub fn ccsd_task_get_bytes(&self) -> usize {
        let vtile = self.tile_v * self.tile_v;
        // per cd-tile: V tile (tv² × tv²) + T tile (to² × tv²)
        let per_cd = (vtile * vtile + self.tile_o * self.tile_o * vtile) * 8;
        per_cd * self.vt() * self.vt()
    }

    /// Bytes accumulated by one CCSD ladder task.
    pub fn ccsd_task_acc_bytes(&self) -> usize {
        self.tile_o * self.tile_o * self.tile_v * self.tile_v * 8
    }

    /// The `(lo, hi)` bounds of task `task`'s `[i, j, a, b]` tile, tasks
    /// numbered with `b` fastest.
    fn tile_of(&self, task: usize) -> ([usize; 4], [usize; 4]) {
        let (ot, vt, to, tv) = (self.ot(), self.vt(), self.tile_o, self.tile_v);
        let ti = task / (ot * vt * vt);
        let tj = (task / (vt * vt)) % ot;
        let ta = (task / vt) % vt;
        let tb = task % vt;
        (
            [ti * to, tj * to, ta * tv, tb * tv],
            [(ti + 1) * to, (tj + 1) * to, (ta + 1) * tv, (tb + 1) * tv],
        )
    }
}

/// Result of a proxy run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcsdResult {
    /// Synthetic correlation energy (bit-exact across backends/tilings).
    pub energy: f64,
    /// Virtual seconds elapsed on this rank.
    pub elapsed: f64,
    /// Tasks this rank executed.
    pub tasks_done: usize,
}

/// Runs `cfg.iterations` CCSD ladder iterations and returns the final
/// synthetic energy `R · T / (1 + |T|²)`. Collective over the world group.
pub fn run_ccsd<A: Armci + ?Sized>(p: &Proc, rt: &A, cfg: &CcsdConfig) -> CcsdResult {
    run_blocking(p, rt, cfg, true, 1.0)
}

/// Runs the same CCSD ladder as [`run_ccsd`] with a deterministic
/// imbalance knob, for exercising the wait-state attributor: tasks are
/// assigned **statically** (cyclic, `task % nprocs == rank` — no NXTVAL
/// race, so the schedule is identical on every run) and each rank's
/// compute charge is scaled by `1 + skew · rank / (nprocs − 1)`. With
/// `skew > 0` the high ranks run slower and every collective waits on
/// them; the stalls surface as `progress` waits whose critical path runs
/// through the skewed ranks. The arithmetic is unchanged — energy is
/// bit-exact equal to [`run_ccsd`] at `skew = 0` tilings aside — only
/// the virtual-time profile moves.
pub fn run_ccsd_skewed<A: Armci + ?Sized>(
    p: &Proc,
    rt: &A,
    cfg: &CcsdConfig,
    skew: f64,
) -> CcsdResult {
    let slow = 1.0 + skew * rt.rank() as f64 / (rt.nprocs() - 1).max(1) as f64;
    run_blocking(p, rt, cfg, false, slow)
}

/// Tasks claimed per NXTVAL RMW by [`run_ccsd_pipelined`].
pub const CCSD_CHUNK: usize = 4;

/// Runs the same CCSD ladder as [`run_ccsd`] with the chunked schedule
/// production GA codes use: NXTVAL claims [`CCSD_CHUNK`] tasks per RMW,
/// every claimed task's V and T tiles are prefetched in one nonblocking
/// volley, and the result accumulates are deferred to the iteration
/// fence, which ARMCI's location consistency permits because each r2
/// tile is written by exactly one task. The arithmetic (tile order, cd
/// reduction order, global reductions) is unchanged, so the energy is
/// bit-exact equal to the blocking path; only the communication
/// schedule differs.
pub fn run_ccsd_pipelined<A: Armci + ?Sized>(p: &Proc, rt: &A, cfg: &CcsdConfig) -> CcsdResult {
    let ntasks = cfg.ccsd_tasks();
    let npairs = cfg.vt() * cfg.vt();
    let (m, n) = (cfg.tile_o * cfg.tile_o, cfg.tile_v * cfg.tile_v);
    // Tile buffers for a whole claimed chunk's worth of cd pairs.
    let mut vbufs = vec![vec![0.0f64; n * n]; CCSD_CHUNK * npairs];
    let mut tbufs = vec![vec![0.0f64; m * n]; CCSD_CHUNK * npairs];
    let mut rblock = vec![0.0f64; m * n];
    let (mut gets, mut accs) = (Vec::new(), Vec::new());
    run_frame(p, rt, cfg, true, 1.0, |f| {
        let counter = f.counter.as_ref().expect("NXTVAL counter");
        let mut done = 0;
        loop {
            let first = counter.read_inc(&[0], CCSD_CHUNK as i64).expect("nxtval") as usize;
            if first >= ntasks {
                break;
            }
            let chunk = first..(first + CCSD_CHUNK).min(ntasks);
            done += chunk.len();
            // One prefetch volley for every (task, cd pair) tile in the
            // chunk. V and T gets alternate, so consecutive gets name
            // different arrays (GMRs); each remote (array, owner) pair
            // fills its own scheduler queue, flushed once at the first
            // wait on it, and a node peer's (or this rank's own) tile
            // completes eagerly without flushing the others. A queue's
            // disjoint tiles merge into one wire get; the four tasks of
            // a chunk fetch the same T tiles, so the T queue splits into
            // one run per task.
            for (t, task) in chunk.clone().enumerate() {
                let (lo, hi) = cfg.tile_of(task);
                for pair in 0..npairs {
                    let slot = t * npairs + pair;
                    let [(vlo, vhi), (tlo, thi)] = f.operands(&lo, &hi, pair);
                    let vbuf = &mut vbufs[slot];
                    gets.push(f.v2.nb_get_patch_into(&vlo, &vhi, vbuf).expect("nb get V"));
                    let tbuf = &mut tbufs[slot];
                    gets.push(f.t2.nb_get_patch_into(&tlo, &thi, tbuf).expect("nb get T"));
                }
            }
            for h in gets.drain(..) {
                f.t2.nb_wait(h).expect("wait tiles");
            }
            // Compute each task from its prefetched tiles. Each r2 tile
            // has exactly one writer, so its accumulate is retired at
            // the iteration fence, not per task.
            for (t, task) in chunk.enumerate() {
                let (lo, hi) = cfg.tile_of(task);
                rblock.fill(0.0);
                for slot in t * npairs..(t + 1) * npairs {
                    f.contract(&mut rblock, &vbufs[slot], &tbufs[slot]);
                }
                accs.push(f.r2.nb_acc_patch(1.0, &lo, &hi, &rblock).expect("nb acc R"));
            }
        }
        for h in accs.drain(..) {
            f.r2.nb_wait(h).expect("wait acc R");
        }
        done
    })
}

/// The blocking ladder: claim a task (one NXTVAL RMW when `nxtval`,
/// else the next of this rank's static cyclic share), get each cd pair's
/// V and T tiles, contract them with compute charged `slow` times the
/// flop time, accumulate the result tile.
fn run_blocking<A: Armci + ?Sized>(
    p: &Proc,
    rt: &A,
    cfg: &CcsdConfig,
    nxtval: bool,
    slow: f64,
) -> CcsdResult {
    let ntasks = cfg.ccsd_tasks();
    let npairs = cfg.vt() * cfg.vt();
    let (me, nprocs) = (rt.rank(), rt.nprocs());
    let mut rblock = vec![0.0f64; cfg.tile_o * cfg.tile_o * cfg.tile_v * cfg.tile_v];
    run_frame(p, rt, cfg, nxtval, slow, |f| {
        let mut cyclic = (me..ntasks).step_by(nprocs.max(1));
        let mut done = 0;
        loop {
            let task = match &f.counter {
                Some(counter) => counter.read_inc(&[0], 1).expect("nxtval") as usize,
                None => cyclic.next().unwrap_or(ntasks),
            };
            if task >= ntasks {
                return done;
            }
            done += 1;
            let (lo, hi) = cfg.tile_of(task);
            rblock.fill(0.0);
            for pair in 0..npairs {
                let [(vlo, vhi), (tlo, thi)] = f.operands(&lo, &hi, pair);
                let vblk = f.v2.get_patch(&vlo, &vhi).expect("get V");
                let tblk = f.t2.get_patch(&tlo, &thi).expect("get T");
                f.contract(&mut rblock, &vblk, &tblk);
            }
            f.r2.acc_patch(1.0, &lo, &hi, &rblock).expect("acc R");
        }
    })
}

/// What every ladder iteration works on: the amplitudes `t2`, integrals
/// `v2` and result `r2`, plus the NXTVAL counter when tasks are claimed
/// dynamically.
struct Frame<'a, A: Armci + ?Sized> {
    p: &'a Proc,
    cfg: CcsdConfig,
    t2: GlobalArray<'a, A>,
    v2: GlobalArray<'a, A>,
    r2: GlobalArray<'a, A>,
    counter: Option<GlobalArray<'a, A>>,
    /// Virtual seconds charged per cd-pair contraction.
    pair_s: f64,
}

impl<A: Armci + ?Sized> Frame<'_, A> {
    /// The `(lo, hi)` bounds of the V and T tiles that task tile
    /// `(lo, hi)` contracts at cd pair `pair`.
    fn operands(
        &self,
        lo: &[usize; 4],
        hi: &[usize; 4],
        pair: usize,
    ) -> [([usize; 4], [usize; 4]); 2] {
        let (tv, vt) = (self.cfg.tile_v, self.cfg.vt());
        let (c, d) = (pair / vt * tv, pair % vt * tv);
        [
            ([lo[2], lo[3], c, d], [hi[2], hi[3], c + tv, d + tv]),
            ([lo[0], lo[1], c, d], [hi[0], hi[1], c + tv, d + tv]),
        ]
    }

    /// Local DGEMM over one cd pair, `R[ij, ab] += Σ_cd V[ab, cd] · T[ij, cd]`,
    /// and its compute charge.
    fn contract(&self, rblock: &mut [f64], vblk: &[f64], tblk: &[f64]) {
        let k = self.cfg.tile_v * self.cfg.tile_v;
        let n = vblk.len() / k;
        for (trow, rrow) in tblk.chunks_exact(k).zip(rblock.chunks_exact_mut(n)) {
            for (vrow, r) in vblk.chunks_exact(k).zip(rrow) {
                *r += vrow.iter().zip(trow).fold(0.0, |acc, (v, t)| acc + v * t);
            }
        }
        self.p.compute(self.pair_s);
    }
}

/// Creates and initialises the ladder's arrays, runs `cfg.iterations`
/// iterations of `sweep` (which runs one iteration's tasks and returns
/// how many it ran) between the per-iteration reset and the energy
/// reduction, and tears the arrays down. Collective over the world group.
fn run_frame<'a, A: Armci + ?Sized>(
    p: &'a Proc,
    rt: &'a A,
    cfg: &CcsdConfig,
    nxtval: bool,
    slow: f64,
    mut sweep: impl FnMut(&Frame<'a, A>) -> usize,
) -> CcsdResult {
    cfg.check();
    let t0 = p.clock().now();
    let flop_rate = p.config().platform.compute.flops_per_core;
    let (m, n) = (cfg.tile_o * cfg.tile_o, cfg.tile_v * cfg.tile_v);

    let tdims = [cfg.no, cfg.no, cfg.nv, cfg.nv];
    let vdims = [cfg.nv, cfg.nv, cfg.nv, cfg.nv];
    let f = Frame {
        p,
        cfg: *cfg,
        t2: GlobalArray::create(rt, "t2", GaType::F64, &tdims).expect("create t2"),
        v2: GlobalArray::create(rt, "v2", GaType::F64, &vdims).expect("create v2"),
        r2: GlobalArray::create(rt, "r2", GaType::F64, &tdims).expect("create r2"),
        counter: nxtval
            .then(|| GlobalArray::create(rt, "nxtval", GaType::I64, &[1]).expect("create counter")),
        pair_s: slow * 2.0 * (m * n * n) as f64 / flop_rate,
    };

    // Initialise amplitudes and integrals: every rank fills its own block.
    init_4d(&f.t2, t2_value);
    init_4d(&f.v2, v2_value);
    f.t2.sync();

    let mut tasks_done = 0usize;
    let mut energy = 0.0;
    for _iter in 0..cfg.iterations {
        f.r2.zero().expect("zero r2");
        match &f.counter {
            Some(counter) => {
                if rt.rank() == 0 {
                    counter
                        .put_patch_i64(&[0], &[1], &[0])
                        .expect("reset counter");
                }
                counter.sync();
            }
            None => f.r2.sync(),
        }
        tasks_done += sweep(&f);
        f.r2.sync();
        // synthetic energy from global reductions
        let rt_dot = f.r2.dot(&f.t2).expect("dot");
        let tt = f.t2.dot(&f.t2).expect("dot");
        energy = rt_dot / (1.0 + tt);
    }

    f.t2.sync();
    if let Some(counter) = f.counter {
        counter.destroy().expect("destroy counter");
    }
    f.r2.destroy().expect("destroy r2");
    f.v2.destroy().expect("destroy v2");
    f.t2.destroy().expect("destroy t2");

    CcsdResult {
        energy,
        elapsed: p.clock().now() - t0,
        tasks_done,
    }
}

/// Runs the (T)-like triples sweep: energy-only, get-dominated, with a
/// triples-scale flop charge per task. Collective.
pub fn run_triples<A: Armci + ?Sized>(p: &Proc, rt: &A, cfg: &CcsdConfig) -> CcsdResult {
    cfg.check();
    let t0 = p.clock().now();
    let flop_rate = p.config().platform.compute.flops_per_core;

    let tdims = [cfg.no, cfg.no, cfg.nv, cfg.nv];
    let t2 = GlobalArray::create(rt, "t2_t", GaType::F64, &tdims).expect("create t2");
    let counter = GlobalArray::create(rt, "nxtval_t", GaType::I64, &[1]).expect("counter");
    init_4d(&t2, t2_value);
    if rt.rank() == 0 {
        counter.put_patch_i64(&[0], &[1], &[0]).expect("reset");
    }
    t2.sync();

    // tasks over (ij-tile, ab-tile); triples weight: no · nv extra flops
    // per amplitude pair (the O(no³nv⁴) / O(no²nv⁴) ratio times nv).
    let ntasks = cfg.ccsd_tasks();
    let mut partial = 0.0f64;
    let mut tasks_done = 0usize;
    loop {
        let task = counter.read_inc(&[0], 1).expect("nxtval") as usize;
        if task >= ntasks {
            break;
        }
        tasks_done += 1;
        let (lo, hi) = cfg.tile_of(task);
        let blk = t2.get_patch(&lo, &hi).expect("get T");
        // disconnected-triples-like combination: exactly representable
        let mut e = 0.0;
        for (idx, &x) in blk.iter().enumerate() {
            let w = ((idx % 4) + 1) as f64 / 4.0;
            e += x * x * w;
        }
        partial += e;
        let flops = blk.len() as f64 * 3.0 * (cfg.no * cfg.nv * cfg.nv) as f64;
        p.compute(flops / flop_rate);
    }
    // global energy reduction
    let energy = t2
        .group()
        .comm()
        .allreduce_f64(mpisim::coll::ReduceOp::Sum, &[partial])[0];
    t2.sync();
    counter.destroy().expect("destroy counter");
    t2.destroy().expect("destroy t2");
    CcsdResult {
        energy,
        elapsed: p.clock().now() - t0,
        tasks_done,
    }
}

/// Fills each rank's own block of a 4-D array from an index function.
fn init_4d<A: Armci + ?Sized>(
    ga: &GlobalArray<'_, A>,
    f: impl Fn(usize, usize, usize, usize) -> f64 + Copy,
) {
    let (lo, hi) = ga.my_block();
    if lo.iter().zip(&hi).all(|(&l, &h)| l < h) {
        let data = fill_patch(
            &[lo[0], lo[1], lo[2], lo[3]],
            &[hi[0], hi[1], hi[2], hi[3]],
            f,
        );
        ga.put_patch(&lo, &hi, &data).expect("init block");
    }
    ga.sync();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_arithmetic() {
        let c = CcsdConfig {
            no: 8,
            nv: 16,
            tile_o: 4,
            tile_v: 8,
            iterations: 1,
        };
        assert_eq!(c.ot(), 2);
        assert_eq!(c.vt(), 2);
        assert_eq!(c.ccsd_tasks(), 16);
        // flops: m=16, n=64, k=256 → 2·16·64·256
        assert_eq!(c.ccsd_task_flops(), 2.0 * 16.0 * 64.0 * 256.0);
        // gets per cd-tile: (64·64 + 16·64)·8 bytes over 4 cd tiles
        assert_eq!(c.ccsd_task_get_bytes(), (64 * 64 + 16 * 64) * 8 * 4);
        assert_eq!(c.ccsd_task_acc_bytes(), 16 * 64 * 8);
    }

    #[test]
    #[should_panic(expected = "tile_o must divide")]
    fn bad_tiling_rejected() {
        let c = CcsdConfig {
            no: 5,
            nv: 8,
            tile_o: 2,
            tile_v: 4,
            iterations: 1,
        };
        c.check();
    }

    #[test]
    fn w5_matches_paper_parameters() {
        let w5 = CcsdConfig::w5();
        assert_eq!(w5.no, 20);
        assert_eq!(w5.nv, 435);
        assert_eq!(w5.no % w5.tile_o, 0);
        assert_eq!(w5.nv % w5.tile_v, 0);
    }
}
