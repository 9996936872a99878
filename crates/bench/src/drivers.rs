//! The traffic the A/B arms replay, one [`Driver`] per workload.
//!
//! Every driver runs on every rank of a fresh runtime (see
//! [`crate::ab::run`]) and hands back a [`RankOut`]: the measured phase
//! as a [`Sample`] delta, the bytes that must agree across arms, named
//! outputs, and the raw result its oracle checks.

use std::any::Any;

use armci::{AccKind, Armci, RmwOp};
use armci_mpi::{ArmciMpi, NxtvalCounter};
use mpisim::Proc;
use nwchem_proxy::{run_ccsd, run_ccsd_pipelined, run_ccsd_skewed, CcsdConfig, CcsdResult};
use serde::{Serialize, Value};
use workloads::{graph, kv, stencil, GraphResult, KvResult, StencilResult};

use crate::ab::Sample;

/// The traffic of one arm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Driver {
    /// `fig3-strided-mix`: rank 0 writes adjacent 4 KiB blocks and
    /// interleaved strided columns to rank 1, then reads the blocks back;
    /// blocking, or one nonblocking burst per phase.
    StridedMix { nonblocking: bool },
    /// `fig3-mix`: rank 0 fans contiguous put/get/acc at 1 KiB, 16 KiB
    /// and 256 KiB out to every peer.
    FanoutMix,
    /// `fig3-mix` plus one 2-D strided put per peer, so the channel
    /// backend exercises its software fallback.
    FanoutStridedMix,
    /// `fig3-mix`: four rounds of put/get and one accumulate from rank 0
    /// to rank 1 with no modelled compute (nothing for an agent to drain).
    IdleTargetMix,
    /// `ccsd-proxy`: the blocking CCSD ladder (§V-C per-op shape).
    Ccsd,
    /// `ccsd-proxy`: the CCSD ladder on the chunked nonblocking schedule.
    CcsdPipelined,
    /// `ccsd-skewed`: the statically scheduled ladder where rank `r`
    /// computes `1 + skew·r/(P−1)` times slower.
    CcsdSkewed { skew: f64 },
    /// `graph`: R-MAT BFS + PageRank, checked by its oracle.
    Graph,
    /// `stencil`: periodic halo-exchange Jacobi, checked by its oracle.
    Stencil,
    /// `kv`: hot-key KV/parameter-server loop, checked by its oracle.
    Kv,
    /// `nxtval`: every rank takes [`crate::rmw::TICKETS_PER_RANK`]
    /// tickets from a flat counter at rank 0, or from the sharded
    /// per-node counter.
    Nxtval { sharded: bool },
}

/// What a driver hands back from one rank.
#[derive(Default)]
pub struct RankOut {
    /// The measured phase on this rank (`None` on ranks that only serve).
    pub sample: Option<Sample>,
    /// Bytes this rank adds to the arm's payload fingerprint.
    pub payload: Vec<u8>,
    /// Named outputs, summed over ranks.
    pub metrics: Vec<(&'static str, Value)>,
    /// The raw result the driver's oracle checks.
    pub result: Option<Box<dyn Any + Send>>,
}

/// CCSD shape of the `ccsd-proxy` drivers.
fn ccsd_cfg() -> CcsdConfig {
    CcsdConfig {
        iterations: 2,
        ..CcsdConfig::tiny()
    }
}

impl Driver {
    /// The workload name rows carry.
    pub fn name(&self) -> &'static str {
        match self {
            Driver::StridedMix { .. } => "fig3-strided-mix",
            Driver::FanoutMix | Driver::FanoutStridedMix | Driver::IdleTargetMix => "fig3-mix",
            Driver::Ccsd | Driver::CcsdPipelined => "ccsd-proxy",
            Driver::CcsdSkewed { .. } => "ccsd-skewed",
            Driver::Graph => "graph",
            Driver::Stencil => "stencil",
            Driver::Kv => "kv",
            Driver::Nxtval { .. } => "nxtval",
        }
    }

    /// The driver's parameters, as rows carry them.
    pub fn params(&self) -> Vec<(&'static str, Value)> {
        match *self {
            Driver::CcsdSkewed { skew } => vec![("skew", skew.to_value())],
            Driver::Nxtval { sharded } => {
                let block = if sharded { crate::rmw::BLOCK } else { 1 };
                vec![("block", block.to_value())]
            }
            _ => Vec::new(),
        }
    }

    /// Runs the traffic on one rank.
    pub fn run(&self, p: &Proc, rt: &ArmciMpi) -> RankOut {
        match *self {
            Driver::StridedMix { nonblocking } => strided_mix(p, rt, nonblocking),
            Driver::FanoutMix => fanout_mix(p, rt, false),
            Driver::FanoutStridedMix => fanout_mix(p, rt, true),
            Driver::IdleTargetMix => idle_target_mix(p, rt),
            Driver::Ccsd => ccsd(p, rt, || run_ccsd(p, rt, &ccsd_cfg())),
            Driver::CcsdPipelined => ccsd(p, rt, || run_ccsd_pipelined(p, rt, &ccsd_cfg())),
            Driver::CcsdSkewed { skew } => ccsd(p, rt, || {
                run_ccsd_skewed(p, rt, &crate::progress::ccsd_cfg(), skew)
            }),
            Driver::Graph => {
                let opts = crate::workloads::graph_opts();
                let (sample, r) = phase(p, rt, || graph::run_graph(p, rt, &opts), |r| r.elapsed_s);
                let payload = words(r.dist.iter().chain(&r.pagerank).map(|&v| v as u64));
                oracle_out(p, sample, r.ops, payload, r)
            }
            Driver::Stencil => {
                let opts = crate::workloads::stencil_opts();
                let run = || stencil::run_stencil(p, rt, &opts);
                let (sample, r) = phase(p, rt, run, |r| r.elapsed_s);
                let payload = words(r.field.iter().chain(&r.residuals).map(|v| v.to_bits()));
                oracle_out(p, sample, r.ops, payload, r)
            }
            Driver::Kv => {
                let opts = crate::workloads::kv_opts();
                let (sample, r) = phase(p, rt, || kv::run_kv(p, rt, &opts), |r| r.elapsed_s);
                let payload = words(r.finals.iter().map(|&v| v as u64));
                oracle_out(p, sample, r.ops, payload, r)
            }
            Driver::Nxtval { sharded } => nxtval(p, rt, sharded),
        }
    }

    /// The driver's bit-exact oracle over every rank's result (true for
    /// drivers without one).
    pub fn verify(&self, outs: &[RankOut]) -> bool {
        match self {
            Driver::Graph => graph::verify(
                &crate::workloads::graph_opts(),
                &results::<GraphResult>(outs),
            )
            .is_ok(),
            Driver::Stencil => stencil::verify(
                &crate::workloads::stencil_opts(),
                outs.len(),
                &results::<StencilResult>(outs),
            )
            .is_ok(),
            Driver::Kv => {
                kv::verify(&crate::workloads::kv_opts(), &results::<KvResult>(outs)).is_ok()
            }
            _ => true,
        }
    }
}

fn results<T: Clone + 'static>(outs: &[RankOut]) -> Vec<T> {
    outs.iter()
        .map(|o| {
            o.result
                .as_ref()
                .and_then(|r| r.downcast_ref::<T>())
                .expect("driver result")
                .clone()
        })
        .collect()
}

fn words(vals: impl Iterator<Item = u64>) -> Vec<u8> {
    vals.flat_map(u64::to_le_bytes).collect()
}

/// Runs `body` as the measured phase, timed by the workload's own
/// clock (`elapsed`).
fn phase<R>(
    p: &Proc,
    rt: &ArmciMpi,
    body: impl FnOnce() -> R,
    elapsed: impl Fn(&R) -> f64,
) -> (Sample, R) {
    let t0 = Sample::now(p, rt);
    let r = body();
    let mut sample = Sample::now(p, rt).since(&t0);
    sample.virtual_s = elapsed(&r);
    (sample, r)
}

/// A workload-suite rank: its operation count, rank 0's outputs as the
/// payload, and its result for the oracle.
fn oracle_out<T: Send + 'static>(
    p: &Proc,
    sample: Sample,
    ops: u64,
    payload: Vec<u8>,
    result: T,
) -> RankOut {
    RankOut {
        sample: Some(sample),
        payload: if p.rank() == 0 { payload } else { Vec::new() },
        metrics: vec![("ops", Value::UInt(ops))],
        result: Some(Box::new(result)),
    }
}

/// A CCSD rank: the ladder's own elapsed time; rank 0's energy is the
/// payload.
fn ccsd(p: &Proc, rt: &ArmciMpi, body: impl FnOnce() -> CcsdResult) -> RankOut {
    let (sample, r) = phase(p, rt, body, |r| r.elapsed);
    let mut out = RankOut {
        sample: Some(sample),
        ..RankOut::default()
    };
    if p.rank() == 0 {
        out.payload = r.energy.to_bits().to_le_bytes().to_vec();
        out.metrics.push(("energy", Value::Float(r.energy)));
    }
    out
}

/// Rounds of the strided mix (each round: writes, wait, reads).
const ROUNDS: usize = 4;
/// Contiguous puts per round (adjacent 4 KiB blocks — the merge case).
const CONTIG_OPS: usize = 8;
const CONTIG_BYTES: usize = 4096;
/// Interleaved strided puts per round (disjoint column blocks).
const STRIDED_OPS: usize = 4;
const SEG: usize = 16;
const ROWS: usize = 64;

fn strided_mix(p: &Proc, rt: &ArmciMpi, nonblocking: bool) -> RankOut {
    let strided_base = CONTIG_OPS * CONTIG_BYTES;
    let total = strided_base + ROWS * STRIDED_OPS * SEG;
    let bases = rt.malloc(total).expect("malloc");
    rt.barrier();
    let mut out = RankOut::default();
    if p.rank() == 0 {
        let t0 = Sample::now(p, rt);
        let contig: Vec<Vec<u8>> = (0..CONTIG_OPS)
            .map(|i| {
                (0..CONTIG_BYTES)
                    .map(|b| (b as u8).wrapping_mul(7).wrapping_add(i as u8))
                    .collect()
            })
            .collect();
        let rowstride = STRIDED_OPS * SEG;
        let col: Vec<Vec<u8>> = (0..STRIDED_OPS)
            .map(|k| vec![0x40 + k as u8; ROWS * SEG])
            .collect();
        let mut buf = vec![0u8; CONTIG_BYTES];
        for _ in 0..ROUNDS {
            // write phase: adjacent contiguous puts + interleaved
            // disjoint strided puts, all to rank 1; then the contiguous
            // region back in chunks
            let mut hs = Vec::new();
            for (i, payload) in contig.iter().enumerate() {
                let dst = bases[1].offset(i * CONTIG_BYTES);
                match nonblocking {
                    true => hs.push(rt.nb_put(payload, dst).unwrap()),
                    false => rt.put(payload, dst).unwrap(),
                }
            }
            for (k, payload) in col.iter().enumerate() {
                let dst = bases[1].offset(strided_base + k * SEG);
                let shape = (&[SEG][..], &[rowstride][..], &[SEG, ROWS][..]);
                match nonblocking {
                    true => hs.push(
                        rt.nb_put_strided(payload, shape.0, dst, shape.1, shape.2)
                            .unwrap(),
                    ),
                    false => rt
                        .put_strided(payload, shape.0, dst, shape.1, shape.2)
                        .unwrap(),
                }
            }
            if nonblocking {
                rt.wait_all(std::mem::take(&mut hs)).unwrap();
            }
            for i in 0..CONTIG_OPS {
                let src = bases[1].offset(i * CONTIG_BYTES);
                match nonblocking {
                    true => hs.push(rt.nb_get(src, &mut buf).unwrap()),
                    false => rt.get(src, &mut buf).unwrap(),
                }
            }
            if nonblocking {
                rt.wait_all(hs).unwrap();
            }
        }
        out.sample = Some(Sample::now(p, rt).since(&t0));
        out.payload = vec![0u8; total];
        rt.get(bases[1], &mut out.payload).unwrap();
    }
    rt.barrier();
    rt.free(bases[p.rank()]).unwrap();
    out
}

fn fanout_mix(p: &Proc, rt: &ArmciMpi, strided: bool) -> RankOut {
    const SIZES: [usize; 3] = [1 << 10, 1 << 14, 1 << 18];
    let max = *SIZES.iter().max().unwrap();
    let bases = rt.malloc(max).expect("malloc");
    rt.barrier();
    let mut out = RankOut::default();
    if p.rank() == 0 {
        let src: Vec<u8> = (0..max).map(|i| (i % 251) as u8).collect();
        let mut dst = vec![0u8; max];
        let t0 = Sample::now(p, rt);
        for &base in &bases[1..] {
            for &size in &SIZES {
                rt.put(&src[..size], base).unwrap();
                rt.get(base, &mut dst[..size]).unwrap();
                rt.acc(AccKind::Double(1.0), &src[..size], base).unwrap();
            }
            if strided {
                // 2-D strided put: 64-byte rows every 128 bytes.
                rt.put_strided(&src[..512], &[64], base, &[128], &[64, 8])
                    .unwrap();
            }
        }
        out.sample = Some(Sample::now(p, rt).since(&t0));
        for &base in &bases[1..] {
            let mut image = vec![0u8; max];
            rt.get(base, &mut image).unwrap();
            out.payload.extend(image);
        }
    }
    rt.barrier();
    rt.free(bases[p.rank()]).unwrap();
    out
}

fn idle_target_mix(p: &Proc, rt: &ArmciMpi) -> RankOut {
    const BYTES: usize = 1 << 16;
    let bases = rt.malloc(BYTES).expect("malloc");
    rt.barrier();
    let mut out = RankOut::default();
    if p.rank() == 0 {
        let t0 = Sample::now(p, rt);
        let src: Vec<u8> = (0..BYTES).map(|b| (b as u8).wrapping_mul(13)).collect();
        // Small i32 payload: 4 rounds of `dst += 3·src` stay far from
        // i32 overflow (debug builds check accumulate arithmetic).
        let acc_src: Vec<u8> = (0..128i32).flat_map(|i| (i % 7).to_le_bytes()).collect();
        let mut dst = vec![0u8; 1 << 12];
        for round in 0..4usize {
            for &size in &[256usize, 1 << 10, 1 << 12] {
                rt.put(&src[..size], bases[1].offset(round * (1 << 12)))
                    .unwrap();
                rt.get(bases[1].offset(round * (1 << 12)), &mut dst[..size])
                    .unwrap();
            }
            // Disjoint from every put region ([0, 16 KiB)).
            rt.acc(AccKind::Int(3), &acc_src, bases[1].offset(1 << 15))
                .unwrap();
        }
        out.sample = Some(Sample::now(p, rt).since(&t0));
        out.payload = vec![0u8; BYTES];
        rt.get(bases[1], &mut out.payload).unwrap();
    }
    rt.barrier();
    rt.free(bases[p.rank()]).unwrap();
    out
}

fn nxtval(p: &Proc, rt: &ArmciMpi, sharded: bool) -> RankOut {
    let counter = sharded.then(|| NxtvalCounter::create(rt, crate::rmw::BLOCK as u16).unwrap());
    let bases = rt.malloc(8).unwrap();
    rt.access_mut(bases[p.rank()], 8, &mut |b| b.fill(0))
        .unwrap();
    rt.barrier();
    let t0 = Sample::now(p, rt);
    for _ in 0..crate::rmw::TICKETS_PER_RANK {
        match &counter {
            Some(c) => c.next(rt).unwrap(),
            None => rt.rmw(RmwOp::FetchAdd(1), bases[0]).unwrap(),
        };
    }
    let sample = Sample::now(p, rt).since(&t0);
    rt.barrier();
    if let Some(c) = counter {
        c.drain(rt).unwrap();
        rt.barrier();
        c.destroy(rt).unwrap();
    }
    rt.free(bases[p.rank()]).unwrap();
    RankOut {
        sample: Some(sample),
        ..RankOut::default()
    }
}
