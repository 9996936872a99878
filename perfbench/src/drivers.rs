//! The three driver workloads: the existing drivers, called unchanged
//! once per rep on an established runtime.

use crate::harness::{Rep, Workload, RANKS};
use crate::stats::Digest;
use armci_mpi::ArmciMpi;
use mpisim::{Proc, Runtime, RuntimeConfig};
use nwchem_proxy::{run_ccsd, run_ccsd_pipelined, CcsdConfig, CcsdResult, CCSD_CHUNK};
use std::sync::OnceLock;
use workloads::kv::{self, KvOpts, KvResult};
use workloads::stencil::{self, StencilOpts, StencilResult};
use workloads::SplitMix64;

fn internode() -> RuntimeConfig {
    bench::internode(simnet::PlatformId::InfiniBandCluster)
}

/// `stencil-halo`: 2D Jacobi with periodic radius-2 halos on two ranks on
/// separate nodes. The grid has at least as many columns as rows, so it
/// is split by columns and every halo face is a column of short strided
/// fragments. The seed picks the initial field and widens the grid by 0,
/// 2, 4 or 6 columns.
pub struct StencilHalo {
    opts: StencilOpts,
    /// Set once `stencil::verify` has passed; later reps are held to the
    /// same payload by the harness.
    verified: OnceLock<()>,
}

impl StencilHalo {
    pub fn new(seed: u64, rows: usize, cols: usize, iters: usize) -> StencilHalo {
        let widen = 2 * SplitMix64::new(seed).below(4);
        StencilHalo {
            opts: StencilOpts {
                dims: vec![rows, cols.max(rows) + widen],
                radius: 2,
                iters,
                periodic: true,
                seed,
                cell_compute_s: 0.0,
            },
            verified: OnceLock::new(),
        }
    }
}

impl Workload for StencilHalo {
    type State = ();
    type Out = StencilResult;

    fn runtime(&self) -> RuntimeConfig {
        internode()
    }

    fn prepare(&self, _p: &Proc, _rt: &ArmciMpi) {}

    fn rep(&self, p: &Proc, rt: &ArmciMpi, _st: &mut ()) -> Rep<StencilResult> {
        let r = stencil::run_stencil(p, rt, &self.opts);
        Rep {
            ops: r.ops,
            failed: 0,
            virtual_s: r.elapsed_s,
            out: r,
        }
    }

    fn check(&self, outs: &[StencilResult]) -> Result<(), String> {
        if self.verified.get().is_none() {
            stencil::verify(&self.opts, RANKS, outs)?;
            let _ = self.verified.set(());
        }
        Ok(())
    }

    fn payload(&self, outs: &[StencilResult]) -> u64 {
        outs.iter()
            .fold(Digest::default(), |h, r| {
                h.f64s(&r.field).f64s(&r.residuals)
            })
            .0
    }

    /// Per cell update: `4·radius` neighbour adds and one divide for the
    /// 2D star, plus a subtract and an add for the residual.
    fn flops_per_rep(&self) -> f64 {
        let per_cell = 2 * self.opts.dims.len() * self.opts.radius + 3;
        (self.opts.ncells() * self.opts.iters * per_cell) as f64
    }
}

/// `ccsd-pipelined`: the CCSD proxy's chunked-NXTVAL, prefetching,
/// deferred-accumulate schedule on two ranks on separate nodes. Its
/// inputs are analytic, so the seed does not change them.
pub struct CcsdPipelined {
    cfg: CcsdConfig,
    /// Energy of the blocking `run_ccsd` at the same configuration.
    reference: f64,
}

impl CcsdPipelined {
    pub fn new(cfg: CcsdConfig) -> CcsdPipelined {
        let reference = Runtime::run_with(RANKS, internode(), |p| {
            run_ccsd(p, &ArmciMpi::new(p), &cfg).energy
        })[0];
        CcsdPipelined { cfg, reference }
    }

    /// NXTVAL claims per rep, over all ranks: every chunk claimed, plus
    /// one claim per rank that finds the counter exhausted, per iteration.
    fn claims(&self) -> u64 {
        (self.cfg.iterations * (self.cfg.ccsd_tasks().div_ceil(CCSD_CHUNK) + RANKS)) as u64
    }
}

impl Workload for CcsdPipelined {
    type State = ();
    type Out = CcsdResult;

    fn runtime(&self) -> RuntimeConfig {
        internode()
    }

    fn prepare(&self, _p: &Proc, _rt: &ArmciMpi) {}

    /// Counts the tile gets and result accumulates this rank issued; the
    /// NXTVAL claims are a per-rep constant booked on rank 0.
    fn rep(&self, p: &Proc, rt: &ArmciMpi, _st: &mut ()) -> Rep<CcsdResult> {
        let r = run_ccsd_pipelined(p, rt, &self.cfg);
        let per_task = 2 * self.cfg.vt() * self.cfg.vt() + 1;
        let claims = if p.rank() == 0 { self.claims() } else { 0 };
        Rep {
            ops: (r.tasks_done * per_task) as u64 + claims,
            failed: 0,
            virtual_s: r.elapsed,
            out: r,
        }
    }

    fn check(&self, outs: &[CcsdResult]) -> Result<(), String> {
        let want = self.cfg.iterations * self.cfg.ccsd_tasks();
        let done: usize = outs.iter().map(|r| r.tasks_done).sum();
        if done != want {
            return Err(format!("{done} tasks done, {want} expected"));
        }
        match outs
            .iter()
            .find(|r| r.energy.to_bits() != self.reference.to_bits())
        {
            Some(r) => Err(format!(
                "energy {:e} differs from run_ccsd's {:e}",
                r.energy, self.reference
            )),
            None => Ok(()),
        }
    }

    fn payload(&self, outs: &[CcsdResult]) -> u64 {
        outs.iter()
            .fold(Digest::default(), |h, r| h.u64(r.energy.to_bits()))
            .0
    }

    /// The NXTVAL race decides which rank runs which task, and with it
    /// the makespan.
    fn deterministic_virtual(&self) -> bool {
        false
    }

    fn flops_per_rep(&self) -> f64 {
        (self.cfg.iterations * self.cfg.ccsd_tasks()) as f64 * self.cfg.ccsd_task_flops()
    }
}

/// `kv-shm`: the parameter-server loop with both ranks on one node, so
/// every op takes the intra-node shm tier and both ranks contend on the
/// hot keys' atomics.
pub struct KvShm {
    opts: KvOpts,
}

impl KvShm {
    pub fn new(seed: u64, ops_per_rank: usize) -> KvShm {
        KvShm {
            opts: KvOpts {
                keys: 64,
                ops_per_rank,
                read_pct: 50,
                hot_pct: 60,
                hot_keys: 4,
                seed,
                think_s: 0.0,
            },
        }
    }
}

impl Workload for KvShm {
    type State = ();
    type Out = KvResult;

    /// The default topology places both ranks on node 0.
    fn runtime(&self) -> RuntimeConfig {
        RuntimeConfig::default()
    }

    fn prepare(&self, _p: &Proc, _rt: &ArmciMpi) {}

    fn rep(&self, p: &Proc, rt: &ArmciMpi, _st: &mut ()) -> Rep<KvResult> {
        let r = kv::run_kv(p, rt, &self.opts);
        Rep {
            ops: r.ops,
            failed: 0,
            virtual_s: r.elapsed_s,
            out: r,
        }
    }

    fn check(&self, outs: &[KvResult]) -> Result<(), String> {
        kv::verify(&self.opts, outs)
    }

    /// Final counts are fixed by the seeded streams; which rank drew
    /// which ticket is not.
    fn payload(&self, outs: &[KvResult]) -> u64 {
        outs.iter()
            .flat_map(|r| &r.finals)
            .fold(Digest::default(), |h, &v| h.u64(v as u64))
            .0
    }
}
