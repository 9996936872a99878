//! The differential oracle: one op language, one seeded generator of
//! phases, one serial host-side model and one runner over `&dyn Armci`.
//!
//! The paper's correctness claim is that its paths are interchangeable:
//! the §VI-A IOV and strided methods move the same bytes, and a program
//! relinked from ARMCI-native to ARMCI-MPI computes the same answer
//! (Fig. 1). Each case runs on [`ArmciNative`], [`ArmciDs`], and
//! [`ArmciMpi`] under fixed corners plus a seeded sample of the
//! 1,800-point `Config` lattice, every point at 1, 2 and 4 ranks per
//! node. Transfers move f64 words, i32 words (int accumulates) or single
//! bytes at any offset and length, and IOV segments overlap wherever the
//! implementation accepts overlapping descriptors. Every run must match
//! the model:
//!
//! * identical final memory and get payloads;
//! * RMW results (fetch-add, swap, flat NXTVAL tickets, mutex-guarded
//!   increments) as vectors in single-origin phases and as multisets in
//!   concurrent ones;
//! * sharded NXTVAL tickets unique and per-rank monotonic, and both
//!   counters' `issued()` exact after the drain;
//! * an auditor-clean capture, and no panics.
//!
//! A failure prints `(seed, implementation, ranks per node)` as a
//! `replay(..)` call, the `Config`, and the case's ops; `replay_one`
//! replays it.

use armci::{AccKind, Armci, ArmciResult, GlobalAddr, IovDesc, NbHandle, RmwOp, StridedMethod};
use armci_ds::run_with_servers;
use armci_mpi::{
    ArmciMpi, AtomicsMode, CoalesceMode, Config, NxtvalCounter, ProgressMode, TransportKind,
};
use armci_native::ArmciNative;
use mpisim::{Proc, Runtime, RuntimeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{Platform, PlatformId};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

/// Window bytes per rank. `[0, F)` holds f64 words: word transfers,
/// double accumulates and DLA. `[F, F + B)` holds bytes: byte transfers
/// at any offset and length, and int accumulates on 4-byte words. Then
/// come `NCELLS` fetch-add/swap cells and `NMCELLS` mutex-guarded cells
/// (i64).
const F: usize = 320;
const B: usize = 96;
const CELLS: usize = F + B;
const NCELLS: usize = 8;
const MCELLS: usize = CELLS + 8 * NCELLS;
const NMCELLS: usize = 4;
const WIN: usize = MCELLS + 8 * NMCELLS;
/// User mutexes per rank; mutex-guarded cell `c` uses mutex `c % NMUTEX`.
const NMUTEX: usize = 2;

// ---------------------------------------------------------------------
// The op language
// ---------------------------------------------------------------------

/// Direction of a data transfer. An accumulate carries its integer
/// scale and adds f64 (`Acc`) or i32 (`IntAcc`) elements.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Dir {
    Put,
    Get,
    Acc(i8),
    IntAcc(i8),
}

/// Remote and local layout of a transfer, in bytes from the window base
/// and the origin buffer. A strided shape has `count[0]` bytes per run
/// and `count[l]` runs at level `l`; IOV segment `j` of `k` bytes sits at
/// remote byte `remote[j]` and local byte `local[j]`.
#[derive(Clone, Debug)]
enum Shape {
    Contig {
        off: usize,
        n: usize,
    },
    Strided {
        off: usize,
        count: Vec<usize>,
        rstride: Vec<usize>,
        lstride: Vec<usize>,
    },
    Iov {
        k: usize,
        remote: Vec<usize>,
        local: Vec<usize>,
    },
}

/// One operation; targets are ranks. `Xfer` is a put, get or
/// accumulate of any shape in elements of `unit` bytes (8 for f64 words,
/// 4 for i32, 1 for bytes), nonblocking if `nb` (contiguous and strided
/// only: ARMCI has no nonblocking IOV). `Wait(pick)` completes pending
/// handle `pick % pending`. `FetchAdd`, `Swap` and `MutexInc` take
/// `(target, cell, operand)`; a mutex increment locks, gets, puts
/// `old + operand`, fences and unlocks. `Nxtval(sharded)` takes a ticket.
/// `Dla(word, n, delta)` adds `delta` to `n` f64 words of the caller's
/// own slice. `Barrier` only appears in concurrent phases, where every
/// rank runs it. `Compute(us)` is a compute span.
#[derive(Clone, Debug)]
enum Op {
    Xfer {
        dir: Dir,
        unit: usize,
        t: usize,
        shape: Shape,
        seed: u8,
        nb: bool,
    },
    Wait(usize),
    WaitAll,
    FetchAdd(usize, usize, i64),
    Swap(usize, usize, i64),
    MutexInc(usize, usize, i64),
    Nxtval(bool),
    Dla(usize, usize, i8),
    Fence(usize),
    FenceAll,
    Barrier,
    Compute(u32),
}

/// A phase runs on one origin (any op) or on every rank at once (only
/// ops whose result does not depend on host thread order). Barriers
/// separate phases.
#[derive(Clone, Debug)]
struct Phase {
    origin: Option<usize>,
    ops: Vec<Op>,
}

/// A case runs on `n` ranks; `block` is the sharded NXTVAL counter's
/// refill block.
#[derive(Clone, Debug)]
struct Case {
    n: usize,
    block: u16,
    phases: Vec<Phase>,
}

// ---------------------------------------------------------------------
// The generator
// ---------------------------------------------------------------------

/// Transfer flavours as `(direction, unit)`: put and get of f64 words,
/// put and get of bytes, double and int accumulates (scales drawn per
/// op). Kind `5 * f + form` is flavour `f` as a contiguous, nonblocking
/// contiguous, strided, nonblocking strided or IOV transfer.
const FLAVOURS: [(Dir, usize); 6] = [
    (Dir::Put, 8),
    (Dir::Get, 8),
    (Dir::Put, 1),
    (Dir::Get, 1),
    (Dir::Acc(1), 8),
    (Dir::IntAcc(1), 4),
];
const XFERS: usize = 5 * FLAVOURS.len();
/// The nonblocking word put, which anchors a phase's wait and wait-all.
const NB_PUT: usize = 1;
/// The first accumulate kind: concurrent phases move no put or get.
const ACCS: usize = 20;
const WAIT: usize = XFERS;
const WAIT_ALL: usize = XFERS + 1;
const FETCH_ADD: usize = XFERS + 2;
const SWAP: usize = XFERS + 3;
const NXTVAL: usize = XFERS + 4;
const NXTVAL_SHARDED: usize = XFERS + 5;
const MUTEX_INC: usize = XFERS + 6;
const DLA: usize = XFERS + 7;
const FENCE: usize = XFERS + 8;
const FENCE_ALL: usize = XFERS + 9;
const BARRIER: usize = XFERS + 10;
/// Kinds in all; the last, `XFERS + 11`, is a compute span.
const KINDS: usize = XFERS + 12;

/// Can kind `k` run on every rank at once (an accumulate or a non-data
/// op other than swap and DLA), or on a single origin (not a barrier)?
fn legal(k: usize, concurrent: bool) -> bool {
    if concurrent {
        k >= ACCS && k != SWAP && k != DLA
    } else {
        k != BARRIER
    }
}

/// The addend every concurrent fetch-add or mutex increment on `cell`
/// uses, so the multiset of returned old values is order-independent.
fn cell_add(cell: usize) -> i64 {
    1 + (cell % 3) as i64
}

fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// A shape of `unit`-byte elements inside the region `[lo, lo + len)`.
/// IOV segments are disjoint, or, if `overlap`, at any element offset;
/// both are drawn, so the two variants of a case differ only there.
fn gen_shape(
    rng: &mut StdRng,
    shape: usize,
    unit: usize,
    (lo, len): (usize, usize),
    overlap: bool,
) -> Shape {
    let (u, units) = (unit, len / unit);
    match shape {
        0 => {
            let n = rng.gen_range(1..=48 / u);
            let off = rng.gen_range(0..=units - n);
            Shape::Contig {
                off: lo + u * off,
                n: u * n,
            }
        }
        1 => loop {
            // ARMCI strides: each level at least spans the one inside it.
            let mut count = vec![rng.gen_range(1..4usize)];
            let (mut rstride, mut lstride) = (Vec::new(), Vec::new());
            let (mut rext, mut lext) = (count[0], count[0]);
            for _ in 0..rng.gen_range(1..3) {
                let c = rng.gen_range(2..4);
                rstride.push(rext + rng.gen_range(0..3usize));
                lstride.push(lext + rng.gen_range(0..3usize));
                (rext, lext) = (
                    rstride[rstride.len() - 1] * c,
                    lstride[lstride.len() - 1] * c,
                );
                count.push(c);
            }
            if rext <= units {
                let off = rng.gen_range(0..=units - rext);
                count[0] *= u;
                let bytes = |v: Vec<usize>| v.into_iter().map(|x| u * x).collect();
                return Shape::Strided {
                    off: lo + u * off,
                    count,
                    rstride: bytes(rstride),
                    lstride: bytes(lstride),
                };
            }
        },
        _ => {
            // Byte segments take 1 to 8 bytes, element segments 1 or 2
            // elements; issued in a shuffled order.
            let k = rng.gen_range(1usize..if u == 1 { 9 } else { 3 });
            let nseg = rng.gen_range(2..6);
            let mut slots: Vec<usize> = (0..units / k).collect();
            shuffle(rng, &mut slots);
            let anywhere: Vec<usize> = (0..nseg).map(|_| rng.gen_range(0..=units - k)).collect();
            let remote = if overlap {
                anywhere
            } else {
                slots[..nseg].iter().map(|s| s * k).collect()
            };
            let mut local: Vec<usize> = (0..nseg).collect();
            shuffle(rng, &mut local);
            Shape::Iov {
                k: u * k,
                remote: remote.iter().map(|r| lo + u * r).collect(),
                local: local.iter().map(|l| u * k * l).collect(),
            }
        }
    }
}

fn gen_op(rng: &mut StdRng, n: usize, k: usize, concurrent: bool, overlap: bool) -> Op {
    let t = rng.gen_range(0..n);
    let (cell, mcell) = (rng.gen_range(0..NCELLS), rng.gen_range(0..NMCELLS));
    match k {
        0..XFERS => {
            let (dir, unit) = FLAVOURS[k / 5];
            let scale = [-1, 1, 2, 3][rng.gen_range(0..4usize)];
            let region = if unit == 8 { (0, F) } else { (F, B) };
            Op::Xfer {
                dir: match dir {
                    Dir::Acc(_) => Dir::Acc(scale),
                    Dir::IntAcc(_) => Dir::IntAcc(scale),
                    dir => dir,
                },
                unit,
                t,
                shape: gen_shape(rng, k % 5 / 2, unit, region, overlap),
                seed: rng.gen_range(0..200),
                nb: k % 5 % 2 == 1,
            }
        }
        WAIT => Op::Wait(rng.gen_range(0..8)),
        WAIT_ALL => Op::WaitAll,
        FETCH_ADD if concurrent => Op::FetchAdd(t, cell, cell_add(cell)),
        FETCH_ADD => Op::FetchAdd(t, cell, rng.gen_range(-3..9)),
        SWAP => Op::Swap(t, cell, rng.gen_range(-50..50)),
        NXTVAL | NXTVAL_SHARDED => Op::Nxtval(k == NXTVAL_SHARDED),
        MUTEX_INC => Op::MutexInc(t, mcell, cell_add(mcell)),
        DLA => {
            let n = rng.gen_range(1..5);
            Op::Dla(rng.gen_range(0..=F / 8 - n), n, rng.gen_range(-2..4))
        }
        FENCE => Op::Fence(t),
        FENCE_ALL => Op::FenceAll,
        BARRIER => Op::Barrier,
        _ => Op::Compute(rng.gen_range(1..40)),
    }
}

/// A case on 2 to 5 ranks (by seed, so every run sees each count):
/// two single-origin and two concurrent phases. Every kind is
/// placed once in a random phase that admits it; wait and wait-all go
/// right after the phase's first nonblocking op, which the mandatory nb
/// put guarantees. Random extras follow, and each concurrent phase
/// hammers one fetch-add cell, one mutex-guarded cell and NXTVAL.
/// `overlap` lets IOV segments overlap (see [`gen_shape`]).
fn gen_case(seed: u64, overlap: bool) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 2 + seed as usize % 4;
    let mut phases: Vec<Phase> = [true, false, true, false]
        .map(|single| Phase {
            origin: single.then(|| rng.gen_range(0..n)),
            ops: Vec::new(),
        })
        .into();
    let mut anchor = 0;
    for k in (0..KINDS).filter(|&k| k != WAIT && k != WAIT_ALL) {
        let fits: Vec<usize> = (0..4)
            .filter(|&i| legal(k, phases[i].origin.is_none()))
            .collect();
        let i = fits[rng.gen_range(0..fits.len())];
        let op = gen_op(&mut rng, n, k, phases[i].origin.is_none(), overlap);
        phases[i].ops.push(op);
        if k == NB_PUT {
            anchor = i;
        }
    }
    for phase in &mut phases {
        let concurrent = phase.origin.is_none();
        for _ in 0..rng.gen_range(6..12) {
            let k = loop {
                let k = rng.gen_range(0..KINDS);
                if legal(k, concurrent) {
                    break k;
                }
            };
            phase.ops.push(gen_op(&mut rng, n, k, concurrent, overlap));
        }
        if concurrent {
            let (t, cell, mcell) = (
                rng.gen_range(0..n),
                rng.gen_range(0..NCELLS),
                rng.gen_range(0..NMCELLS),
            );
            phase
                .ops
                .extend((0..8).map(|_| Op::FetchAdd(t, cell, cell_add(cell))));
            for _ in 0..3 {
                phase.ops.push(Op::MutexInc(t, mcell, cell_add(mcell)));
                phase.ops.push(Op::Nxtval(rng.gen_bool(0.5)));
            }
        }
        shuffle(&mut rng, &mut phase.ops);
    }
    let ops = &mut phases[anchor].ops;
    let first_nb = ops
        .iter()
        .position(|op| matches!(op, Op::Xfer { nb: true, .. }));
    let at = first_nb.expect("the anchor phase holds the nonblocking put") + 1;
    ops.splice(at..at, [Op::Wait(0), Op::WaitAll]);
    let block = rng.gen_range(2..9);
    Case { n, block, phases }
}

// ---------------------------------------------------------------------
// Payloads and the run decomposition, shared by the model and runner
// ---------------------------------------------------------------------

/// Origin-side buffer of a transfer: small integers as f64 words, i32
/// or bytes below 0x40, so every f64 sum the model forms is exact and
/// no i32 sum comes near overflow; zeros for a get.
fn origin_buffer(dir: Dir, unit: usize, shape: &Shape, seed: u8) -> Vec<u8> {
    let len = runs(shape)
        .iter()
        .map(|&(_, l, w)| l + w)
        .max()
        .unwrap_or(0);
    let (s, elems) = (seed as usize, 0..len / unit);
    // Element `i` is `(seed + mul * i) % m`, centred on zero.
    let small = |mul: usize, m: usize, i: usize| ((s + mul * i) % m) as i32 - (m / 2) as i32;
    match (dir, unit) {
        (Dir::Get, _) => vec![0; len],
        (Dir::Put, 1) => elems.map(|i| ((s + 7 * i) % 64) as u8).collect(),
        (Dir::Put, _) => elems
            .flat_map(|i| f64::from(small(7, 23, i)).to_le_bytes())
            .collect(),
        (Dir::Acc(_), _) => elems
            .flat_map(|i| f64::from(small(5, 5, i)).to_le_bytes())
            .collect(),
        (Dir::IntAcc(_), _) => elems.flat_map(|i| small(5, 5, i).to_le_bytes()).collect(),
    }
}

/// Contiguous runs of a shape as `(remote byte, local byte, bytes)`.
fn runs(shape: &Shape) -> Vec<(usize, usize, usize)> {
    match shape {
        Shape::Contig { off, n } => vec![(*off, 0, *n)],
        Shape::Strided {
            off,
            count,
            rstride,
            lstride,
        } => {
            let mut out = vec![(*off, 0, count[0])];
            for l in 1..count.len() {
                let (rs, ls) = (rstride[l - 1], lstride[l - 1]);
                out = (0..count[l])
                    .flat_map(|i| {
                        out.iter()
                            .map(move |&(r, lo, w)| (r + i * rs, lo + i * ls, w))
                    })
                    .collect();
            }
            out
        }
        Shape::Iov { k, remote, local } => remote
            .iter()
            .zip(local)
            .map(|(&r, &l)| (r, l, *k))
            .collect(),
    }
}

// ---------------------------------------------------------------------
// The serial model
// ---------------------------------------------------------------------

/// What a run leaves behind that must match the model exactly.
#[derive(Debug, Default, PartialEq)]
struct Outcome {
    /// Final window image of every rank.
    images: Vec<Vec<u8>>,
    /// Per phase: the origin's get payloads in program order.
    gets: Vec<Vec<Vec<u8>>>,
    /// Per phase: RMW results in program order (single origin) or
    /// sorted (concurrent).
    rmws: Vec<Vec<i64>>,
    /// Tickets issued by the flat and the sharded NXTVAL counter.
    issued: (i64, i64),
}

/// `dst += scale * src` over f64 (`unit` 8) or wrapping i32 (`unit` 4)
/// elements.
fn add_scaled(dst: &mut [u8], src: &[u8], unit: usize, scale: i8) {
    for (d, x) in dst.chunks_exact_mut(unit).zip(src.chunks_exact(unit)) {
        if unit == 8 {
            let (a, b) = (f64_at(d, 0), f64_at(x, 0));
            d.copy_from_slice(&(a + f64::from(scale) * b).to_le_bytes());
        } else {
            let (a, b) = (
                i32::from_le_bytes(d.try_into().unwrap()),
                i32::from_le_bytes(x.try_into().unwrap()),
            );
            d.copy_from_slice(&a.wrapping_add(b.wrapping_mul(scale.into())).to_le_bytes());
        }
    }
}

fn f64_at(b: &[u8], at: usize) -> f64 {
    f64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// The model's outcome of a case, plus each rank's sharded-ticket count.
/// Memory is one byte vector per rank; the counters are integers.
fn model(case: &Case) -> (Outcome, Vec<usize>) {
    let n = case.n;
    let mut mem = vec![vec![0u8; WIN]; n];
    let (mut flat, mut sharded) = (0, vec![0; n]);
    let mut out = Outcome::default();
    for phase in &case.phases {
        let (mut gets, mut rmws) = (Vec::new(), Vec::new());
        for me in phase.origin.map_or(0..n, |o| o..o + 1) {
            for op in &phase.ops {
                let mut rmw = |t: usize, at: usize, new: &dyn Fn(i64) -> i64| {
                    let old = i64::from_le_bytes(mem[t][at..at + 8].try_into().unwrap());
                    mem[t][at..at + 8].copy_from_slice(&new(old).to_le_bytes());
                    rmws.push(old);
                };
                match *op {
                    Op::FetchAdd(t, c, add) => rmw(t, CELLS + 8 * c, &|old| old + add),
                    Op::Swap(t, c, val) => rmw(t, CELLS + 8 * c, &|_| val),
                    Op::MutexInc(t, c, add) => rmw(t, MCELLS + 8 * c, &|old| old + add),
                    Op::Xfer {
                        dir,
                        unit,
                        t,
                        ref shape,
                        seed,
                        ..
                    } => {
                        let mut local = origin_buffer(dir, unit, shape, seed);
                        for (r, l, w) in runs(shape) {
                            let (dst, src) = (&mut mem[t][r..r + w], &mut local[l..l + w]);
                            match dir {
                                Dir::Put => dst.copy_from_slice(src),
                                Dir::Get => src.copy_from_slice(dst),
                                Dir::Acc(s) | Dir::IntAcc(s) => add_scaled(dst, src, unit, s),
                            }
                        }
                        if dir == Dir::Get {
                            gets.push(local);
                        }
                    }
                    Op::Nxtval(false) => {
                        rmws.push(flat);
                        flat += 1;
                    }
                    Op::Nxtval(true) => sharded[me] += 1,
                    Op::Dla(word, n, delta) => {
                        for at in (8 * word..8 * (word + n)).step_by(8) {
                            let x = f64_at(&mem[me], at) + f64::from(delta);
                            mem[me][at..at + 8].copy_from_slice(&x.to_le_bytes());
                        }
                    }
                    _ => {}
                }
            }
        }
        if phase.origin.is_none() {
            rmws.sort_unstable();
        }
        out.gets.push(gets);
        out.rmws.push(rmws);
    }
    out.images = mem;
    out.issued = (flat, sharded.iter().sum::<usize>() as i64);
    (out, sharded)
}

// ---------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------

/// NXTVAL as each implementation offers it: ARMCI-MPI's two
/// [`NxtvalCounter`]s (block 1 and a sharded block), or two fetch-add
/// cells on rank 0 elsewhere. Indexed by `sharded`.
enum Tickets<'a> {
    Mpi(&'a ArmciMpi, [NxtvalCounter; 2]),
    Cells(Vec<GlobalAddr>),
}

impl Tickets<'_> {
    fn mpi(rt: &ArmciMpi, block: u16) -> Tickets<'_> {
        let c = |block| NxtvalCounter::create(rt, block).unwrap();
        Tickets::Mpi(rt, [c(1), c(block)])
    }

    fn cells(rt: &dyn Armci) -> Tickets<'static> {
        let bases = rt.malloc(16).unwrap();
        rt.access_mut(bases[rt.rank()], 16, &mut |b| b.fill(0))
            .unwrap();
        rt.barrier();
        Tickets::Cells(bases)
    }

    fn take(&self, rt: &dyn Armci, sharded: bool) -> ArmciResult<i64> {
        match self {
            Tickets::Mpi(mpi, c) => c[sharded as usize].next(mpi),
            Tickets::Cells(b) => rt.rmw(RmwOp::FetchAdd(1), b[0].offset(8 * sharded as usize)),
        }
    }

    /// Collective: drains, then reads `(flat, sharded)` tickets issued.
    fn issued(&self, rt: &dyn Armci) -> ArmciResult<(i64, i64)> {
        rt.barrier();
        match self {
            Tickets::Mpi(mpi, c) => {
                c[0].drain(mpi)?;
                c[1].drain(mpi)?;
                rt.barrier();
                Ok((c[0].issued(mpi)?, c[1].issued(mpi)?))
            }
            Tickets::Cells(b) => {
                let read = |at: GlobalAddr| rt.rmw(RmwOp::FetchAdd(0), at);
                Ok((read(b[0])?, read(b[0].offset(8))?))
            }
        }
    }

    /// Collective: frees the counters.
    fn destroy(self, rt: &dyn Armci) -> ArmciResult<()> {
        match self {
            Tickets::Mpi(mpi, [flat, sharded]) => {
                flat.destroy(mpi)?;
                sharded.destroy(mpi)
            }
            Tickets::Cells(b) => {
                rt.barrier();
                rt.free(b[rt.rank()])
            }
        }
    }
}

/// What one rank saw.
#[derive(Debug, Default)]
struct RankLog {
    gets: Vec<Vec<Vec<u8>>>,
    rmws: Vec<Vec<i64>>,
    /// Sharded NXTVAL tickets in take order.
    sharded: Vec<i64>,
    image: Vec<u8>,
    issued: (i64, i64),
    /// First error or panic, with its phase and op.
    err: Option<String>,
}

/// Issues one transfer; `Some` handle when nonblocking.
fn xfer(
    rt: &dyn Armci,
    dir: Dir,
    base: GlobalAddr,
    shape: &Shape,
    buf: &mut [u8],
    nb: bool,
) -> ArmciResult<Option<NbHandle>> {
    enum Verb {
        Put,
        Get,
        Acc(AccKind),
    }
    let verb = match dir {
        Dir::Put => Verb::Put,
        Dir::Get => Verb::Get,
        Dir::Acc(s) => Verb::Acc(AccKind::Double(f64::from(s))),
        Dir::IntAcc(s) => Verb::Acc(AccKind::Int(i32::from(s))),
    };
    let done = |r: ArmciResult<()>| r.map(|()| None);
    match shape {
        Shape::Contig { off, .. } => {
            let a = base.offset(*off);
            match (verb, nb) {
                (Verb::Put, false) => done(rt.put(buf, a)),
                (Verb::Put, true) => rt.nb_put(buf, a).map(Some),
                (Verb::Get, false) => done(rt.get(a, buf)),
                (Verb::Get, true) => rt.nb_get(a, buf).map(Some),
                (Verb::Acc(k), false) => done(rt.acc(k, buf, a)),
                (Verb::Acc(k), true) => rt.nb_acc(k, buf, a).map(Some),
            }
        }
        Shape::Strided {
            off,
            count: c,
            rstride: rs,
            lstride: ls,
        } => {
            let a = base.offset(*off);
            match (verb, nb) {
                (Verb::Put, false) => done(rt.put_strided(buf, ls, a, rs, c)),
                (Verb::Put, true) => rt.nb_put_strided(buf, ls, a, rs, c).map(Some),
                (Verb::Get, false) => done(rt.get_strided(a, rs, buf, ls, c)),
                (Verb::Get, true) => rt.nb_get_strided(a, rs, buf, ls, c).map(Some),
                (Verb::Acc(k), false) => done(rt.acc_strided(k, buf, ls, a, rs, c)),
                (Verb::Acc(k), true) => rt.nb_acc_strided(k, buf, ls, a, rs, c).map(Some),
            }
        }
        Shape::Iov { k, remote, local } => {
            let desc = IovDesc {
                rank: base.rank,
                bytes: *k,
                local_offsets: local.clone(),
                remote_addrs: remote.iter().map(|&r| base.addr + r).collect(),
            };
            done(match verb {
                Verb::Put => rt.put_iov(&desc, buf),
                Verb::Get => rt.get_iov(&desc, buf),
                Verb::Acc(k) => rt.acc_iov(k, &desc, buf),
            })
        }
    }
}

/// Runs a case on one rank of any implementation. Errors and panics are
/// logged, not raised, so the rank keeps meeting its collectives and no
/// peer is left waiting in a barrier.
fn run_rank(p: &Proc, rt: &dyn Armci, tickets: Tickets, case: &Case) -> RankLog {
    let me = rt.rank();
    let bases = rt.malloc(WIN).unwrap();
    rt.access_mut(bases[me], WIN, &mut |b| b.fill(0)).unwrap();
    let mutexes = rt.create_mutexes(NMUTEX).unwrap();
    let at = |t: usize, byte: usize| bases[t].offset(byte);
    rt.barrier();
    let mut log = RankLog::default();
    for (ph, phase) in case.phases.iter().enumerate() {
        rt.barrier();
        let (mut gets, mut rmws, mut pending) = (Vec::new(), Vec::new(), Vec::new());
        for (i, op) in phase.ops.iter().enumerate() {
            if phase.origin.is_some_and(|o| o != me)
                || log.err.is_some() && !matches!(op, Op::Barrier)
            {
                continue;
            }
            let mut exec = || -> ArmciResult<Option<i64>> {
                match *op {
                    Op::Xfer {
                        dir,
                        unit,
                        t,
                        ref shape,
                        seed,
                        nb,
                    } => {
                        let mut buf = origin_buffer(dir, unit, shape, seed);
                        pending.extend(xfer(rt, dir, bases[t], shape, &mut buf, nb)?);
                        if dir == Dir::Get {
                            gets.push(buf);
                        }
                    }
                    Op::Wait(pick) if !pending.is_empty() => {
                        rt.wait(pending.remove(pick % pending.len()))?
                    }
                    Op::Wait(_) => {}
                    Op::WaitAll => rt.wait_all(std::mem::take(&mut pending))?,
                    Op::FetchAdd(t, c, add) => {
                        return rt.rmw(RmwOp::FetchAdd(add), at(t, CELLS + 8 * c)).map(Some)
                    }
                    Op::Swap(t, c, val) => {
                        return rt.rmw(RmwOp::Swap(val), at(t, CELLS + 8 * c)).map(Some)
                    }
                    Op::MutexInc(t, c, add) => {
                        rt.lock_mutex(mutexes, c % NMUTEX, t)?;
                        let mut b = [0u8; 8];
                        rt.get(at(t, MCELLS + 8 * c), &mut b)?;
                        let old = i64::from_le_bytes(b);
                        rt.put(&(old + add).to_le_bytes(), at(t, MCELLS + 8 * c))?;
                        rt.fence(t)?;
                        rt.unlock_mutex(mutexes, c % NMUTEX, t)?;
                        return Ok(Some(old));
                    }
                    Op::Nxtval(false) => return tickets.take(rt, false).map(Some),
                    Op::Nxtval(true) => log.sharded.push(tickets.take(rt, true)?),
                    Op::Dla(word, n, delta) => {
                        rt.access_mut(at(me, 8 * word), 8 * n, &mut |b| {
                            for w in b.chunks_exact_mut(8) {
                                let x =
                                    f64::from_le_bytes(w.try_into().unwrap()) + f64::from(delta);
                                w.copy_from_slice(&x.to_le_bytes());
                            }
                        })?
                    }
                    Op::Fence(t) => rt.fence(t)?,
                    Op::FenceAll => rt.fence_all()?,
                    Op::Barrier => rt.barrier(),
                    Op::Compute(us) => p.compute(f64::from(us) * 1e-6),
                }
                Ok(None)
            };
            match catch_unwind(AssertUnwindSafe(&mut exec)) {
                Ok(Ok(r)) => rmws.extend(r),
                Ok(Err(e)) => log.err = Some(format!("phase {ph} op {i} {op:?}: {e}")),
                Err(_) => log.err = Some(format!("phase {ph} op {i} {op:?}: panicked")),
            }
        }
        if let Err(e) = rt.wait_all(pending) {
            log.err.get_or_insert(format!("phase {ph} wait_all: {e}"));
        }
        log.gets.push(gets);
        log.rmws.push(rmws);
        rt.barrier();
    }
    match tickets.issued(rt) {
        Ok(issued) => log.issued = issued,
        Err(e) => {
            log.err.get_or_insert(format!("issued: {e}"));
        }
    }
    rt.barrier();
    log.image = vec![0; WIN];
    rt.access(bases[me], WIN, &mut |b| log.image.copy_from_slice(b))
        .unwrap();
    tickets.destroy(rt).unwrap();
    rt.destroy_mutexes(mutexes).unwrap();
    rt.free(bases[me]).unwrap();
    log
}

/// Folds the rank logs into an outcome: single-origin phases take the
/// origin's record, concurrent ones the sorted union of every rank's.
fn outcome(case: &Case, logs: &[RankLog]) -> Outcome {
    let mut out = Outcome {
        images: logs.iter().map(|l| l.image.clone()).collect(),
        issued: logs[0].issued,
        ..Outcome::default()
    };
    for (ph, phase) in case.phases.iter().enumerate() {
        let ranks = &logs[phase.origin.map_or(0..case.n, |o| o..o + 1)];
        let mut rmws: Vec<i64> = ranks.iter().flat_map(|l| l.rmws[ph].clone()).collect();
        if phase.origin.is_none() {
            rmws.sort_unstable();
        }
        out.gets
            .push(ranks.iter().flat_map(|l| l.gets[ph].clone()).collect());
        out.rmws.push(rmws);
    }
    out
}

// ---------------------------------------------------------------------
// Implementations, layouts and the Config lattice
// ---------------------------------------------------------------------

/// Runtime with `ranks_per_node` cores per node and charged virtual
/// time, so compute spans and the progress agent are live.
fn layout(ranks_per_node: u32) -> RuntimeConfig {
    let mut platform = Platform::get(PlatformId::InfiniBandCluster).customized("differential");
    platform.sockets_per_node = 1;
    platform.cores_per_socket = ranks_per_node;
    RuntimeConfig {
        platform,
        ..Default::default()
    }
}

/// One implementation under test; ARMCI-MPI by lattice point.
#[derive(Clone, Copy, Debug)]
enum Imp {
    Native,
    Ds,
    Mpi(usize),
}

/// Runs a case on `imp` with the recorder on; returns the rank logs and
/// the capture.
fn run(case: &Case, imp: Imp, rpn: u32) -> (Vec<RankLog>, Vec<obs::Event>) {
    obs::capture(|| match imp {
        Imp::Native => Runtime::run_with(case.n, layout(rpn), |p| {
            let rt = ArmciNative::new(p);
            run_rank(p, &rt, Tickets::cells(&rt), case)
        }),
        Imp::Ds => run_with_servers(case.n, layout(rpn), |p, rt| {
            run_rank(p, rt, Tickets::cells(rt), case)
        }),
        Imp::Mpi(i) => Runtime::run_with(case.n, layout(rpn), |p| {
            let rt = ArmciMpi::with_config(p, point(i));
            run_rank(p, &rt, Tickets::mpi(&rt, case.block), case)
        }),
    })
}

const METHODS: [StridedMethod; 5] = [
    StridedMethod::IovConservative,
    StridedMethod::IovBatched { batch: 3 },
    StridedMethod::IovDatatype,
    StridedMethod::Direct,
    StridedMethod::Auto,
];

/// The wire disciplines: MPI-2 per-op epochs, MPI-3 epochless
/// (`lock_all` + flush), and the channel backend.
const WIRES: [(TransportKind, bool); 3] = [
    (TransportKind::MpiRma, false),
    (TransportKind::MpiRma, true),
    (TransportKind::Channel, false),
];

/// Axis sizes of the lattice: strided, iov, atomics, wire, coalesce,
/// shm, progress. A point's index reads one value index per axis as
/// mixed-radix digits, the first axis least significant.
const AXES: [usize; 7] = [5, 5, 2, 3, 3, 2, 2];
const LATTICE: usize = 5 * 5 * 2 * 3 * 3 * 2 * 2;
/// `Config::default()`'s value indices.
const DEFAULT: [usize; 7] = [3, 4, 0, 0, 2, 1, 0];

fn index(digits: [usize; 7]) -> usize {
    digits
        .iter()
        .zip(AXES)
        .rev()
        .fold(0, |i, (&d, size)| i * size + d)
}

/// The `Config` at lattice point `i`.
fn point(mut i: usize) -> Config {
    let d = AXES.map(|size| {
        let digit = i % size;
        i /= size;
        digit
    });
    let (transport, epochless) = WIRES[d[3]];
    Config {
        strided: METHODS[d[0]],
        iov: METHODS[d[1]],
        atomics: [AtomicsMode::Native, AtomicsMode::MutexFallback][d[2]],
        epochless,
        transport,
        coalesce: [
            CoalesceMode::Batched,
            CoalesceMode::Datatype,
            CoalesceMode::Auto,
        ][d[4]],
        shm: d[5] == 1,
        progress: [ProgressMode::None, ProgressMode::Agent][d[6]],
    }
}

/// Fixed corners: the default `Config` and a diagonal whose point `j`
/// takes value `(j + axis) % size` on every axis, so together they hold
/// every value of every axis.
fn corners() -> Vec<usize> {
    let diagonal = (0..5).map(|j| index(std::array::from_fn(|axis| (j + axis) % AXES[axis])));
    std::iter::once(index(DEFAULT)).chain(diagonal).collect()
}

// ---------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------

/// Runs one case on one implementation and layout; `Err` describes the
/// first divergence from the model.
fn check(
    case: &Case,
    (want, takes): &(Outcome, Vec<usize>),
    imp: Imp,
    rpn: u32,
) -> Result<(), String> {
    let (logs, events) = run(case, imp, rpn);
    if let Some((r, e)) = logs
        .iter()
        .enumerate()
        .find_map(|(r, l)| Some((r, l.err.as_ref()?)))
    {
        return Err(format!("rank {r} failed at {e}"));
    }
    if obs::COMPILED_IN && events.is_empty() && matches!(imp, Imp::Mpi(_)) {
        return Err("the recorder captured nothing".into());
    }
    let violations = obs::audit::audit(&events);
    if !violations.is_empty() {
        return Err(format!("auditor flagged the capture: {violations:?}"));
    }
    let got = outcome(case, &logs);
    for (r, (g, w)) in got.images.iter().zip(&want.images).enumerate() {
        if let Some(byte) = (0..WIN).find(|&i| g[i] != w[i]) {
            return Err(format!(
                "rank {r} final memory differs first at byte {byte}"
            ));
        }
    }
    for ph in 0..case.phases.len() {
        if got.gets[ph] != want.gets[ph] {
            return Err(format!("phase {ph} get payloads differ"));
        }
        if got.rmws[ph] != want.rmws[ph] {
            let (g, w) = (&got.rmws[ph], &want.rmws[ph]);
            return Err(format!("phase {ph} rmw results {g:?}, model {w:?}"));
        }
    }
    if got.issued != want.issued {
        return Err(format!("issued {:?}, model {:?}", got.issued, want.issued));
    }
    let mut all = Vec::new();
    for (r, l) in logs.iter().enumerate() {
        if l.sharded.len() != takes[r] || l.sharded.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!("rank {r} sharded tickets {:?}", l.sharded));
        }
        all.extend_from_slice(&l.sharded);
    }
    all.sort_unstable();
    match all.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(format!("sharded ticket {} issued twice", w[0])),
        None => Ok(()),
    }
}

/// May `imp` take IOV descriptors whose segments overlap? ARMCI-MPI's
/// batched and datatype methods require disjoint segments; its
/// conservative and auto methods and both reference implementations take
/// any descriptor, last writer winning.
fn overlap_ok(imp: Imp) -> bool {
    match imp {
        Imp::Mpi(i) => matches!(
            point(i).iov,
            StridedMethod::IovConservative | StridedMethod::Auto
        ),
        Imp::Native | Imp::Ds => true,
    }
}

/// Seconds one run may take before the oracle reports it as hung: a
/// rank that panics inside an epoch can leave its peers waiting forever.
const HANG_S: u64 = 60;

/// Runs case `seed` on every implementation at every layout, with
/// overlapping IOV segments where the implementation allows them;
/// panics with the replay triple, the `Config` and the ops at the first
/// divergence, and exits the process with the triple and the `Config`
/// if a run hangs.
fn oracle(seed: u64, imps: &[Imp], rpns: &[u32]) {
    let variants = [false, true].map(|overlap| {
        let case = gen_case(seed, overlap);
        let want = model(&case);
        (case, want)
    });
    for &imp in imps {
        let (case, want) = &variants[overlap_ok(imp) as usize];
        let cfg = if let Imp::Mpi(i) = imp {
            format!("{:?}", point(i))
        } else {
            "-".into()
        };
        for &rpn in rpns {
            let at = format!("replay({seed}, Imp::{imp:?}, {rpn})\n  config: {cfg}");
            let (done, finished) = mpsc::channel::<()>();
            let watchdog = thread::spawn({
                let at = at.clone();
                move || {
                    let limit = Duration::from_secs(HANG_S);
                    if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(limit) {
                        // Straight to the stream: the harness's output
                        // capture is lost when the process exits.
                        let msg = format!("divergence: the run hung for {HANG_S} s\n  {at}\n");
                        let _ = std::io::stderr().write_all(msg.as_bytes());
                        std::process::exit(1);
                    }
                }
            });
            let result = check(case, want, imp, rpn);
            drop(done);
            watchdog.join().unwrap();
            if let Err(e) = result {
                let ops = &case.phases;
                panic!("divergence: {e}\n  {at}\n  ops: {ops:#?}");
            }
        }
    }
}

/// Replays one printed `(seed, implementation, ranks per node)` triple.
fn replay(seed: u64, imp: Imp, rpn: u32) {
    oracle(seed, &[imp], &[rpn]);
}

/// Cases in the default run, and seeded lattice points per case on top
/// of the corners.
const CASES: u64 = 12;
const SAMPLED: usize = 4;

/// The default run: every case on both reference implementations and on
/// ARMCI-MPI under the corners plus a seeded lattice sample, each at 1, 2
/// and 4 ranks per node.
#[test]
fn every_config_and_backend_matches_the_model() {
    assert_eq!(
        format!("{:?}", point(index(DEFAULT))),
        format!("{:?}", Config::default())
    );
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(!seed);
        let sample = (0..SAMPLED).map(|_| rng.gen_range(0..LATTICE));
        let mut imps = vec![Imp::Native, Imp::Ds];
        imps.extend(corners().into_iter().chain(sample).map(Imp::Mpi));
        oracle(seed, &imps, &[1, 2, 4]);
    }
}

/// The default cases put through overlapping IOV segments, so the
/// last-writer-wins rule is exercised, not just allowed.
#[test]
fn default_cases_overlap_iov_puts() {
    let overlapping = |op: &Op| match op {
        Op::Xfer {
            dir: Dir::Put,
            shape: Shape::Iov { k, remote, .. },
            ..
        } => (1..remote.len()).any(|i| remote[..i].iter().any(|r| r.abs_diff(remote[i]) < *k)),
        _ => false,
    };
    let hits = (0..CASES)
        .flat_map(|seed| gen_case(seed, true).phases)
        .flat_map(|phase| phase.ops)
        .filter(overlapping)
        .count();
    assert!(hits > 0);
}

/// All 1,800 lattice points at every layout, one case each:
/// `cargo test -p armci-mpi --release --test differential -- --ignored full_lattice`.
#[test]
#[ignore = "exhaustive sweep; the default run samples the lattice"]
fn full_lattice_sweep() {
    for i in 0..LATTICE {
        oracle(i as u64 % 4, &[Imp::Mpi(i)], &[1, 2, 4]);
    }
}

/// Replays a failure: paste the `replay(..)` line it printed here and
/// run `cargo test -p armci-mpi --test differential -- --ignored replay_one`.
#[test]
#[ignore = "edit to replay a printed failure"]
fn replay_one() {
    replay(0, Imp::Mpi(index(DEFAULT)), 4);
}
