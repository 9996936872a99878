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
    cfg.check();
    let t0 = p.clock().now();
    let flop_rate = p.config().platform.compute.flops_per_core;

    let tdims = [cfg.no, cfg.no, cfg.nv, cfg.nv];
    let vdims = [cfg.nv, cfg.nv, cfg.nv, cfg.nv];
    let t2 = GlobalArray::create(rt, "t2", GaType::F64, &tdims).expect("create t2");
    let v2 = GlobalArray::create(rt, "v2", GaType::F64, &vdims).expect("create v2");
    let r2 = GlobalArray::create(rt, "r2", GaType::F64, &tdims).expect("create r2");
    let counter = GlobalArray::create(rt, "nxtval", GaType::I64, &[1]).expect("create counter");

    // Initialise amplitudes and integrals: every rank fills its own block.
    init_4d(&t2, t2_value);
    init_4d(&v2, v2_value);
    t2.sync();

    let (ot, vt, to, tv) = (cfg.ot(), cfg.vt(), cfg.tile_o, cfg.tile_v);
    let ntasks = cfg.ccsd_tasks();
    let mut tasks_done = 0usize;
    let mut energy = 0.0;

    for _iter in 0..cfg.iterations {
        r2.zero().expect("zero r2");
        if rt.rank() == 0 {
            counter
                .put_patch_i64(&[0], &[1], &[0])
                .expect("reset counter");
        }
        counter.sync();

        // Dynamic load balancing: claim tile-pair tasks from NXTVAL.
        loop {
            let task = counter.read_inc(&[0], 1).expect("nxtval") as usize;
            if task >= ntasks {
                break;
            }
            tasks_done += 1;
            // decode (ti, tj, ta, tb)
            let ti = task / (ot * vt * vt);
            let tj = (task / (vt * vt)) % ot;
            let ta = (task / vt) % vt;
            let tb = task % vt;
            let (ilo, ihi) = (ti * to, (ti + 1) * to);
            let (jlo, jhi) = (tj * to, (tj + 1) * to);
            let (alo, ahi) = (ta * tv, (ta + 1) * tv);
            let (blo, bhi) = (tb * tv, (tb + 1) * tv);

            let m = to * to; // ij pairs in tile
            let n = tv * tv; // ab pairs in tile
            let mut rblock = vec![0.0f64; m * n];

            for tc in 0..vt {
                for td in 0..vt {
                    let (clo, chi) = (tc * tv, (tc + 1) * tv);
                    let (dlo, dhi) = (td * tv, (td + 1) * tv);
                    // gets: V[a,b,c,d] and T[i,j,c,d]
                    let vblk = v2
                        .get_patch(&[alo, blo, clo, dlo], &[ahi, bhi, chi, dhi])
                        .expect("get V");
                    let tblk = t2
                        .get_patch(&[ilo, jlo, clo, dlo], &[ihi, jhi, chi, dhi])
                        .expect("get T");
                    // local DGEMM: R[ij, ab] += Σ_cd V[ab, cd] · T[ij, cd]
                    let k = tv * tv;
                    for ij in 0..m {
                        for ab in 0..n {
                            let mut acc = 0.0;
                            for cd in 0..k {
                                acc += vblk[ab * k + cd] * tblk[ij * k + cd];
                            }
                            rblock[ij * n + ab] += acc;
                        }
                    }
                    p.compute(2.0 * (m * n * k) as f64 / flop_rate);
                }
            }
            // accumulate the result tile
            r2.acc_patch(1.0, &[ilo, jlo, alo, blo], &[ihi, jhi, ahi, bhi], &rblock)
                .expect("acc R");
        }
        r2.sync();
        // synthetic energy from global reductions
        let rt_dot = r2.dot(&t2).expect("dot");
        let tt = t2.dot(&t2).expect("dot");
        energy = rt_dot / (1.0 + tt);
    }

    t2.sync();
    counter.destroy().expect("destroy counter");
    r2.destroy().expect("destroy r2");
    v2.destroy().expect("destroy v2");
    t2.destroy().expect("destroy t2");

    CcsdResult {
        energy,
        elapsed: p.clock().now() - t0,
        tasks_done,
    }
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
    cfg.check();
    let t0 = p.clock().now();
    let nprocs = rt.nprocs();
    let me = rt.rank();
    let slow = 1.0 + skew * me as f64 / (nprocs - 1).max(1) as f64;
    let flop_rate = p.config().platform.compute.flops_per_core;

    let tdims = [cfg.no, cfg.no, cfg.nv, cfg.nv];
    let vdims = [cfg.nv, cfg.nv, cfg.nv, cfg.nv];
    let t2 = GlobalArray::create(rt, "t2", GaType::F64, &tdims).expect("create t2");
    let v2 = GlobalArray::create(rt, "v2", GaType::F64, &vdims).expect("create v2");
    let r2 = GlobalArray::create(rt, "r2", GaType::F64, &tdims).expect("create r2");

    init_4d(&t2, t2_value);
    init_4d(&v2, v2_value);
    t2.sync();

    let (ot, vt, to, tv) = (cfg.ot(), cfg.vt(), cfg.tile_o, cfg.tile_v);
    let ntasks = cfg.ccsd_tasks();
    let mut tasks_done = 0usize;
    let mut energy = 0.0;

    for _iter in 0..cfg.iterations {
        r2.zero().expect("zero r2");
        r2.sync();

        for task in (me..ntasks).step_by(nprocs.max(1)) {
            tasks_done += 1;
            let ti = task / (ot * vt * vt);
            let tj = (task / (vt * vt)) % ot;
            let ta = (task / vt) % vt;
            let tb = task % vt;
            let (ilo, ihi) = (ti * to, (ti + 1) * to);
            let (jlo, jhi) = (tj * to, (tj + 1) * to);
            let (alo, ahi) = (ta * tv, (ta + 1) * tv);
            let (blo, bhi) = (tb * tv, (tb + 1) * tv);

            let m = to * to;
            let n = tv * tv;
            let mut rblock = vec![0.0f64; m * n];

            for tc in 0..vt {
                for td in 0..vt {
                    let (clo, chi) = (tc * tv, (tc + 1) * tv);
                    let (dlo, dhi) = (td * tv, (td + 1) * tv);
                    let vblk = v2
                        .get_patch(&[alo, blo, clo, dlo], &[ahi, bhi, chi, dhi])
                        .expect("get V");
                    let tblk = t2
                        .get_patch(&[ilo, jlo, clo, dlo], &[ihi, jhi, chi, dhi])
                        .expect("get T");
                    let k = tv * tv;
                    for ij in 0..m {
                        for ab in 0..n {
                            let mut acc = 0.0;
                            for cd in 0..k {
                                acc += vblk[ab * k + cd] * tblk[ij * k + cd];
                            }
                            rblock[ij * n + ab] += acc;
                        }
                    }
                    p.compute(slow * 2.0 * (m * n * k) as f64 / flop_rate);
                }
            }
            r2.acc_patch(1.0, &[ilo, jlo, alo, blo], &[ihi, jhi, ahi, bhi], &rblock)
                .expect("acc R");
        }
        r2.sync();
        let rt_dot = r2.dot(&t2).expect("dot");
        let tt = t2.dot(&t2).expect("dot");
        energy = rt_dot / (1.0 + tt);
    }

    t2.sync();
    r2.destroy().expect("destroy r2");
    v2.destroy().expect("destroy v2");
    t2.destroy().expect("destroy t2");

    CcsdResult {
        energy,
        elapsed: p.clock().now() - t0,
        tasks_done,
    }
}

/// Runs the same CCSD ladder as [`run_ccsd`] but with the NWChem-style
/// overlap schedule: the V/T tiles of the *next* `cd` pair are prefetched
/// with nonblocking gets while the current pair's DGEMM runs
/// (double-buffering), and each task's result accumulate is issued
/// nonblocking and retired while the next task's first tiles are fetched.
/// The arithmetic — tile order, contraction order, reductions — is
/// identical to the blocking path, so the returned energy is bit-exact
/// equal; only the virtual-time schedule differs.
pub fn run_ccsd_overlap<A: Armci + ?Sized>(p: &Proc, rt: &A, cfg: &CcsdConfig) -> CcsdResult {
    cfg.check();
    let t0 = p.clock().now();
    let flop_rate = p.config().platform.compute.flops_per_core;

    let tdims = [cfg.no, cfg.no, cfg.nv, cfg.nv];
    let vdims = [cfg.nv, cfg.nv, cfg.nv, cfg.nv];
    let t2 = GlobalArray::create(rt, "t2", GaType::F64, &tdims).expect("create t2");
    let v2 = GlobalArray::create(rt, "v2", GaType::F64, &vdims).expect("create v2");
    let r2 = GlobalArray::create(rt, "r2", GaType::F64, &tdims).expect("create r2");
    let counter = GlobalArray::create(rt, "nxtval", GaType::I64, &[1]).expect("create counter");

    init_4d(&t2, t2_value);
    init_4d(&v2, v2_value);
    t2.sync();

    let (ot, vt, to, tv) = (cfg.ot(), cfg.vt(), cfg.tile_o, cfg.tile_v);
    let ntasks = cfg.ccsd_tasks();
    let mut tasks_done = 0usize;
    let mut energy = 0.0;

    let m = to * to;
    let n = tv * tv;
    let k = tv * tv;
    // Double buffers for the V and T tiles of two consecutive cd pairs.
    let mut vcur = vec![0.0f64; n * k];
    let mut tcur = vec![0.0f64; m * k];
    let mut vnext = vec![0.0f64; n * k];
    let mut tnext = vec![0.0f64; m * k];

    for _iter in 0..cfg.iterations {
        r2.zero().expect("zero r2");
        if rt.rank() == 0 {
            counter
                .put_patch_i64(&[0], &[1], &[0])
                .expect("reset counter");
        }
        counter.sync();

        // Pending result accumulate from the previous task; retired while
        // the next task's first tiles are in flight.
        let mut pending_acc: Option<ga::GaNbHandle> = None;

        loop {
            let task = counter.read_inc(&[0], 1).expect("nxtval") as usize;
            if task >= ntasks {
                break;
            }
            tasks_done += 1;
            let ti = task / (ot * vt * vt);
            let tj = (task / (vt * vt)) % ot;
            let ta = (task / vt) % vt;
            let tb = task % vt;
            let (ilo, ihi) = (ti * to, (ti + 1) * to);
            let (jlo, jhi) = (tj * to, (tj + 1) * to);
            let (alo, ahi) = (ta * tv, (ta + 1) * tv);
            let (blo, bhi) = (tb * tv, (tb + 1) * tv);

            let mut rblock = vec![0.0f64; m * n];
            let bounds = |tc: usize, td: usize| {
                let (clo, chi) = (tc * tv, (tc + 1) * tv);
                let (dlo, dhi) = (td * tv, (td + 1) * tv);
                (
                    [alo, blo, clo, dlo],
                    [ahi, bhi, chi, dhi],
                    [ilo, jlo, clo, dlo],
                    [ihi, jhi, chi, dhi],
                )
            };

            // Prefetch the first cd pair, overlapping the still-pending
            // accumulate of the previous task's result tile.
            let (vlo0, vhi0, tlo0, thi0) = bounds(0, 0);
            let hv = v2
                .nb_get_patch_into(&vlo0, &vhi0, &mut vcur)
                .expect("nb get V");
            let ht = t2
                .nb_get_patch_into(&tlo0, &thi0, &mut tcur)
                .expect("nb get T");
            if let Some(h) = pending_acc.take() {
                r2.nb_wait(h).expect("wait acc R");
            }
            v2.nb_wait(hv).expect("wait V");
            t2.nb_wait(ht).expect("wait T");

            let npairs = vt * vt;
            for pair in 0..npairs {
                // Issue the next pair's gets before computing this one.
                let mut inflight = None;
                if pair + 1 < npairs {
                    let (tc, td) = ((pair + 1) / vt, (pair + 1) % vt);
                    let (vlo, vhi, tlo, thi) = bounds(tc, td);
                    let hv = v2
                        .nb_get_patch_into(&vlo, &vhi, &mut vnext)
                        .expect("nb get V");
                    let ht = t2
                        .nb_get_patch_into(&tlo, &thi, &mut tnext)
                        .expect("nb get T");
                    inflight = Some((hv, ht));
                }
                // local DGEMM on the current pair, overlapping the fetch
                for ij in 0..m {
                    for ab in 0..n {
                        let mut acc = 0.0;
                        for cd in 0..k {
                            acc += vcur[ab * k + cd] * tcur[ij * k + cd];
                        }
                        rblock[ij * n + ab] += acc;
                    }
                }
                p.compute(2.0 * (m * n * k) as f64 / flop_rate);
                if let Some((hv, ht)) = inflight {
                    v2.nb_wait(hv).expect("wait V");
                    t2.nb_wait(ht).expect("wait T");
                    std::mem::swap(&mut vcur, &mut vnext);
                    std::mem::swap(&mut tcur, &mut tnext);
                }
            }
            // Issue the result-tile accumulate nonblocking; it completes
            // while the next task fetches its first tiles.
            pending_acc = Some(
                r2.nb_acc_patch(1.0, &[ilo, jlo, alo, blo], &[ihi, jhi, ahi, bhi], &rblock)
                    .expect("nb acc R"),
            );
        }
        if let Some(h) = pending_acc.take() {
            r2.nb_wait(h).expect("wait acc R");
        }
        r2.sync();
        let rt_dot = r2.dot(&t2).expect("dot");
        let tt = t2.dot(&t2).expect("dot");
        energy = rt_dot / (1.0 + tt);
    }

    t2.sync();
    counter.destroy().expect("destroy counter");
    r2.destroy().expect("destroy r2");
    v2.destroy().expect("destroy v2");
    t2.destroy().expect("destroy t2");

    CcsdResult {
        energy,
        elapsed: p.clock().now() - t0,
        tasks_done,
    }
}

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
    cfg.check();
    let t0 = p.clock().now();
    let flop_rate = p.config().platform.compute.flops_per_core;

    let tdims = [cfg.no, cfg.no, cfg.nv, cfg.nv];
    let vdims = [cfg.nv, cfg.nv, cfg.nv, cfg.nv];
    let t2 = GlobalArray::create(rt, "t2", GaType::F64, &tdims).expect("create t2");
    let v2 = GlobalArray::create(rt, "v2", GaType::F64, &vdims).expect("create v2");
    let r2 = GlobalArray::create(rt, "r2", GaType::F64, &tdims).expect("create r2");
    let counter = GlobalArray::create(rt, "nxtval", GaType::I64, &[1]).expect("create counter");

    init_4d(&t2, t2_value);
    init_4d(&v2, v2_value);
    t2.sync();

    let (ot, vt, to, tv) = (cfg.ot(), cfg.vt(), cfg.tile_o, cfg.tile_v);
    let ntasks = cfg.ccsd_tasks();
    let mut tasks_done = 0usize;
    let mut energy = 0.0;

    let m = to * to;
    let n = tv * tv;
    let k = tv * tv;
    let npairs = vt * vt;
    // Tile buffers for a whole claimed chunk's worth of cd pairs.
    let mut vbufs = vec![vec![0.0f64; n * k]; CCSD_CHUNK * npairs];
    let mut tbufs = vec![vec![0.0f64; m * k]; CCSD_CHUNK * npairs];

    for _iter in 0..cfg.iterations {
        r2.zero().expect("zero r2");
        if rt.rank() == 0 {
            counter
                .put_patch_i64(&[0], &[1], &[0])
                .expect("reset counter");
        }
        counter.sync();

        // Result accumulates are retired at the iteration fence, not per
        // task: each r2 tile has exactly one writer, so deferral is safe.
        let mut pending_accs = Vec::new();

        loop {
            let first = counter.read_inc(&[0], CCSD_CHUNK as i64).expect("nxtval") as usize;
            if first >= ntasks {
                break;
            }
            let chunk: Vec<usize> = (first..(first + CCSD_CHUNK).min(ntasks)).collect();
            tasks_done += chunk.len();
            let tile_of = |task: usize| {
                let ti = task / (ot * vt * vt);
                let tj = (task / (vt * vt)) % ot;
                let ta = (task / vt) % vt;
                let tb = task % vt;
                (
                    [ti * to, tj * to, ta * tv, tb * tv],
                    [(ti + 1) * to, (tj + 1) * to, (ta + 1) * tv, (tb + 1) * tv],
                )
            };
            // One prefetch volley for every (task, cd pair) tile in the
            // chunk. V and T gets alternate, so consecutive gets name
            // different arrays (GMRs); each remote (array, owner) pair
            // fills its own scheduler queue, flushed once at the first
            // wait on it, and a node peer's (or this rank's own) tile
            // completes eagerly without flushing the others. A queue's
            // disjoint tiles merge into one wire get; the four tasks of
            // a chunk fetch the same T tiles, so the T queue splits into
            // one run per task.
            let mut gets = Vec::new();
            for (t, &task) in chunk.iter().enumerate() {
                let (lo, hi) = tile_of(task);
                for pair in 0..npairs {
                    let (tc, td) = (pair / vt, pair % vt);
                    let (clo, chi) = (tc * tv, (tc + 1) * tv);
                    let (dlo, dhi) = (td * tv, (td + 1) * tv);
                    let slot = t * npairs + pair;
                    gets.push(
                        v2.nb_get_patch_into(
                            &[lo[2], lo[3], clo, dlo],
                            &[hi[2], hi[3], chi, dhi],
                            &mut vbufs[slot],
                        )
                        .expect("nb get V"),
                    );
                    gets.push(
                        t2.nb_get_patch_into(
                            &[lo[0], lo[1], clo, dlo],
                            &[hi[0], hi[1], chi, dhi],
                            &mut tbufs[slot],
                        )
                        .expect("nb get T"),
                    );
                }
            }
            for h in gets {
                t2.nb_wait(h).expect("wait tiles");
            }
            // Compute each task from its prefetched tiles; same cd order
            // as the blocking path, so rblock is bit-identical.
            for (t, &task) in chunk.iter().enumerate() {
                let (lo, hi) = tile_of(task);
                let mut rblock = vec![0.0f64; m * n];
                for pair in 0..npairs {
                    let slot = t * npairs + pair;
                    let (vblk, tblk) = (&vbufs[slot], &tbufs[slot]);
                    for ij in 0..m {
                        for ab in 0..n {
                            let mut acc = 0.0;
                            for cd in 0..k {
                                acc += vblk[ab * k + cd] * tblk[ij * k + cd];
                            }
                            rblock[ij * n + ab] += acc;
                        }
                    }
                    p.compute(2.0 * (m * n * k) as f64 / flop_rate);
                }
                pending_accs.push(r2.nb_acc_patch(1.0, &lo, &hi, &rblock).expect("nb acc R"));
            }
        }
        for h in pending_accs {
            r2.nb_wait(h).expect("wait acc R");
        }
        r2.sync();
        let rt_dot = r2.dot(&t2).expect("dot");
        let tt = t2.dot(&t2).expect("dot");
        energy = rt_dot / (1.0 + tt);
    }

    t2.sync();
    counter.destroy().expect("destroy counter");
    r2.destroy().expect("destroy r2");
    v2.destroy().expect("destroy v2");
    t2.destroy().expect("destroy t2");

    CcsdResult {
        energy,
        elapsed: p.clock().now() - t0,
        tasks_done,
    }
}

/// Tasks claimed per NXTVAL RMW by [`run_ccsd_pipelined`].
pub const CCSD_CHUNK: usize = 4;

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

    let (ot, vt, to, tv) = (cfg.ot(), cfg.vt(), cfg.tile_o, cfg.tile_v);
    // tasks over (ij-tile, ab-tile); triples weight: no · nv extra flops
    // per amplitude pair (the O(no³nv⁴) / O(no²nv⁴) ratio times nv).
    let ntasks = ot * ot * vt * vt;
    let mut partial = 0.0f64;
    let mut tasks_done = 0usize;
    loop {
        let task = counter.read_inc(&[0], 1).expect("nxtval") as usize;
        if task >= ntasks {
            break;
        }
        tasks_done += 1;
        let ti = task / (ot * vt * vt);
        let tj = (task / (vt * vt)) % ot;
        let ta = (task / vt) % vt;
        let tb = task % vt;
        let lo = [ti * to, tj * to, ta * tv, tb * tv];
        let hi = [(ti + 1) * to, (tj + 1) * to, (ta + 1) * tv, (tb + 1) * tv];
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
