//! `rma-contig`: the paper's Figure 3 traffic. Rank 0 issues a seeded mix
//! of blocking contiguous put/get/acc/fetch-add of 8 B–16 KiB into rank
//! 1's window, one op after the other; rank 1 stays passive. The ranks
//! sit on separate nodes, so every op takes the wire path.
//!
//! The same op sequence drives the per-layer ladder: L0 the mpisim window
//! alone, L1 the `Transport`, L2 `ArmciMpi`, L3 a 1-D `GlobalArray`. Each
//! rung times every call on the host clock, so a rung's self-time is the
//! difference of two medians over identical traffic.

use crate::harness::{Rep, Workload, RANKS};
use crate::stats::Digest;
use armci::{AccKind, Armci, GlobalAddr, RmwOp};
use armci_mpi::{ArmciMpi, Config};
use ga::{GaType, GlobalArray};
use mpisim::mpi3::FetchOp;
use mpisim::{AccOp, Datatype, ElemType, LockMode, Proc, Runtime, RuntimeConfig, WinHandle};
use std::time::Instant;
use workloads::SplitMix64;

/// Target data region per window, bytes.
pub const DATA: usize = 64 << 10;
/// Window size: the data region plus the fetch-add counter cell.
pub const WIN: usize = DATA + 8;
/// Source pattern the puts and accumulates read from, bytes.
const PATTERN: usize = 32 << 10;
/// Op sizes are `8 << k` bytes for `k` in `0..SIZE_CLASSES`: 8 B–16 KiB.
const SIZE_CLASSES: usize = 12;
const MAX_OP: usize = 8 << (SIZE_CLASSES - 1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Put,
    Get,
    Acc,
    FetchAdd,
}

/// One op of the sequence: `len` bytes at `off` in the target's data
/// region, sourced from `src` in the pattern.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: Kind,
    pub off: usize,
    pub len: usize,
    pub src: usize,
}

/// The op mix: 30% put, 30% get, 30% acc, 10% fetch-add, each data
/// kind spread evenly over the size classes 8 B–16 KiB. One op in fifty
/// is drawn at random instead; the seed shuffles the order and places
/// every op at an 8-byte aligned offset. The fixed mix keeps the bytes
/// moved per rep, and so the metrics, close across seeds.
pub fn sequence(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    let kind_of = |k: usize| match k {
        0..=2 => Kind::Put,
        3..=5 => Kind::Get,
        6..=8 => Kind::Acc,
        _ => Kind::FetchAdd,
    };
    let fixed = n - n / 50;
    let mut shapes: Vec<(Kind, usize)> = (0..fixed)
        .map(|i| (kind_of(i % 10), (i / 10) % SIZE_CLASSES))
        .collect();
    while shapes.len() < n {
        shapes.push((kind_of(rng.below(10)), rng.below(SIZE_CLASSES)));
    }
    for i in (1..n).rev() {
        shapes.swap(i, rng.below(i + 1));
    }
    shapes
        .into_iter()
        .map(|(kind, class)| {
            if kind == Kind::FetchAdd {
                return Op {
                    kind,
                    off: DATA,
                    len: 8,
                    src: 0,
                };
            }
            let len = 8 << class;
            Op {
                kind,
                off: 8 * rng.below((DATA - len) / 8 + 1),
                len,
                src: 8 * rng.below((PATTERN - len) / 8 + 1),
            }
        })
        .collect()
}

/// Small integers as f64, so accumulated sums stay exact.
fn pattern() -> Vec<f64> {
    (0..PATTERN / 8).map(|i| ((i * 7) % 13) as f64).collect()
}

fn f64_bytes(xs: &[f64]) -> Vec<u8> {
    xs.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// What the target must hold after a serial replay of the sequence.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The whole window: data region, then the counter cell.
    pub window: Vec<u8>,
    /// Digest of every get's payload, in issue order.
    pub gets: Digest,
    /// Fetch-adds issued, hence the counter's final value.
    pub tickets: i64,
}

/// Serially replays `passes` runs of `ops` on a zeroed window.
pub fn replay(ops: &[Op], pattern: &[u8], passes: usize) -> Expected {
    let mut w = vec![0u8; WIN];
    let mut gets = Digest::default();
    let mut tickets = 0i64;
    for _ in 0..passes {
        for op in ops {
            let (lo, hi) = (op.off, op.off + op.len);
            let src = &pattern[op.src..op.src + op.len];
            match op.kind {
                Kind::Put => w[lo..hi].copy_from_slice(src),
                Kind::Get => gets = gets.bytes(&w[lo..hi]),
                Kind::Acc => {
                    for (d, s) in w[lo..hi].chunks_exact_mut(8).zip(src.chunks_exact(8)) {
                        let sum = f64::from_le_bytes((&*d).try_into().expect("8-byte cell"))
                            + f64::from_le_bytes(s.try_into().expect("8-byte cell"));
                        d.copy_from_slice(&sum.to_le_bytes());
                    }
                }
                Kind::FetchAdd => tickets += 1,
            }
        }
    }
    w[DATA..].copy_from_slice(&tickets.to_le_bytes());
    Expected {
        window: w,
        gets,
        tickets,
    }
}

/// The oracle: gap-free tickets, get payloads and final window equal to
/// the serial replay.
fn verify(exp: &Expected, gets: Digest, tickets: &[i64], window: &[u8]) -> Result<(), String> {
    let gap_free = tickets.iter().enumerate().all(|(i, &t)| t == i as i64);
    if !gap_free || tickets.len() as i64 != exp.tickets {
        return Err(format!(
            "fetch-add tickets are not exactly 0..{} ({} seen)",
            exp.tickets,
            tickets.len()
        ));
    }
    if gets != exp.gets {
        return Err("get payloads differ from the serial replay".into());
    }
    if let Some(i) = (0..WIN).find(|&i| window.get(i) != exp.window.get(i)) {
        return Err(format!("target window differs from the replay at byte {i}"));
    }
    Ok(())
}

pub struct RmaContig {
    ops: Vec<Op>,
    pattern: Vec<f64>,
    bytes: Vec<u8>,
    expected: Expected,
    get_bytes: usize,
}

impl RmaContig {
    pub fn new(seed: u64, nops: usize) -> RmaContig {
        let ops = sequence(seed, nops);
        let pattern = pattern();
        let bytes = f64_bytes(&pattern);
        let expected = replay(&ops, &bytes, 1);
        let get_bytes = ops
            .iter()
            .filter(|o| o.kind == Kind::Get)
            .map(|o| o.len)
            .sum();
        RmaContig {
            ops,
            pattern,
            bytes,
            expected,
            get_bytes,
        }
    }

    fn src(&self, op: &Op) -> &[u8] {
        &self.bytes[op.src..op.src + op.len]
    }
}

pub struct RmaState {
    bases: Vec<GlobalAddr>,
    /// Rank 0's get destinations, back to back in issue order.
    log: Vec<u8>,
}

#[derive(Default)]
pub struct RmaOut {
    gets: Digest,
    tickets: Vec<i64>,
    window: Vec<u8>,
}

impl Workload for RmaContig {
    type State = RmaState;
    type Out = RmaOut;

    fn runtime(&self) -> RuntimeConfig {
        bench::internode(simnet::PlatformId::InfiniBandCluster)
    }

    fn prepare(&self, p: &Proc, rt: &ArmciMpi) -> RmaState {
        RmaState {
            bases: rt.malloc(WIN).expect("allocate the target windows"),
            log: vec![0u8; if p.rank() == 0 { self.get_bytes } else { 0 }],
        }
    }

    fn reset(&self, p: &Proc, rt: &ArmciMpi, st: &mut RmaState) {
        if p.rank() == 1 {
            rt.access_mut(st.bases[1], WIN, &mut |b| b.fill(0))
                .expect("zero the target window");
        }
    }

    fn rep(&self, p: &Proc, rt: &ArmciMpi, st: &mut RmaState) -> Rep<RmaOut> {
        let t0 = p.clock().now();
        let mut out = RmaOut::default();
        let (mut ops, mut failed) = (0, 0);
        if p.rank() == 0 {
            let target = st.bases[1];
            let mut at = 0;
            for op in &self.ops {
                let dst = target.offset(op.off);
                let res = match op.kind {
                    Kind::Put => rt.put(self.src(op), dst),
                    Kind::Get => {
                        at += op.len;
                        rt.get(dst, &mut st.log[at - op.len..at])
                    }
                    Kind::Acc => rt.acc(AccKind::Double(1.0), self.src(op), dst),
                    Kind::FetchAdd => rt.rmw(RmwOp::FetchAdd(1), dst).map(|t| out.tickets.push(t)),
                };
                ops += 1;
                failed += u64::from(res.is_err());
            }
        }
        Rep {
            ops,
            failed,
            virtual_s: p.clock().now() - t0,
            out,
        }
    }

    fn finish(&self, p: &Proc, rt: &ArmciMpi, st: &mut RmaState, out: &mut RmaOut) {
        // Rank 1 returns from its (empty) rep at once; it may read its
        // window only after rank 0's last op.
        p.world().barrier();
        if p.rank() == 0 {
            out.gets = Digest::default().bytes(&st.log);
        } else {
            rt.access(st.bases[1], WIN, &mut |b| out.window = b.to_vec())
                .expect("read back the target window");
        }
    }

    fn check(&self, outs: &[RmaOut]) -> Result<(), String> {
        verify(
            &self.expected,
            outs[0].gets,
            &outs[0].tickets,
            &outs[1].window,
        )
    }

    fn payload(&self, outs: &[RmaOut]) -> u64 {
        Digest::default()
            .bytes(&outs[1].window)
            .u64(outs[0].gets.0)
            .0
    }
}

/// Host nanoseconds per call of the sequence at each ladder rung.
#[derive(Debug, Default)]
pub struct Ladder {
    /// L0: `WinHandle::lock` + put/get/accumulate/fetch_and_op + `unlock`.
    pub win: Vec<f64>,
    /// L1: `Transport::epoch_begin` + mover + `epoch_end`.
    pub transport: Vec<f64>,
    /// L2: one `ArmciMpi` call, with its op kind.
    pub core: Vec<(Kind, f64)>,
    /// L3: one `GlobalArray` verb.
    pub ga: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// One rung's timed passes.
struct Drive {
    samples: Vec<(Kind, f64)>,
    gets: Digest,
    tickets: Vec<i64>,
    failed: u64,
}

/// Runs `passes` passes of `ops` through `call`, timing each call. The
/// first pass warms caches and is not sampled. A get lands in the buffer
/// `call` is handed; `settle` runs after the timer stops, turning the
/// call's result into the fetch-add ticket (anything for other kinds) and
/// moving a get's payload into the buffer if `call` returned it instead.
fn drive<R, E>(
    ops: &[Op],
    passes: usize,
    mut call: impl FnMut(&Op, &mut [u8]) -> Result<R, E>,
    settle: impl Fn(R, &mut [u8]) -> i64,
) -> Drive {
    let mut buf = vec![0u8; MAX_OP];
    let mut d = Drive {
        samples: Vec::with_capacity(ops.len() * passes),
        gets: Digest::default(),
        tickets: Vec::new(),
        failed: 0,
    };
    for pass in 0..passes {
        for op in ops {
            let b = &mut buf[..op.len];
            let t0 = Instant::now();
            let res = call(op, b);
            let ns = t0.elapsed().as_nanos() as f64;
            match res.map(|r| settle(r, b)) {
                Ok(t) if op.kind == Kind::FetchAdd => d.tickets.push(t),
                Ok(_) if op.kind == Kind::Get => d.gets = d.gets.bytes(b),
                Ok(_) => {}
                Err(_) => d.failed += 1,
            }
            if pass > 0 {
                d.samples.push((op.kind, ns));
            }
        }
    }
    d
}

/// Passes per rung after the warm-up pass.
pub const LADDER_PASSES: usize = 3;

impl RmaContig {
    /// Runs the sequence down the ladder on a fresh two-rank runtime and
    /// checks every rung's payload against the serial replay.
    pub fn ladder(&self) -> Ladder {
        let passes = LADDER_PASSES + 1;
        let exp = replay(&self.ops, &self.bytes, passes);
        let per_rank = Runtime::run_with(RANKS, self.runtime(), |p| {
            let world = p.world();
            let me0 = p.rank() == 0;
            let mut lad = Ladder::default();
            let rung = |name: &str, d: Drive, window: Vec<u8>, lad: &mut Ladder| {
                lad.attempted += (self.ops.len() * passes) as u64;
                lad.failed += d.failed;
                if let Err(e) = verify(&exp, d.gets, &d.tickets, &window) {
                    lad.errors.push(format!("{name}: {e}"));
                }
                d.samples
            };

            // L0 and L1 share one window shape; each gets a fresh window.
            let dts: Vec<Datatype> = (0..SIZE_CLASSES)
                .map(|k| Datatype::contiguous(8 << k))
                .collect();
            let dt = |len: usize| &dts[(len / 8).trailing_zeros() as usize];
            let whole = Datatype::contiguous(WIN);
            let read_back = |win: &WinHandle| {
                let mut w = vec![0u8; WIN];
                win.lock(LockMode::Exclusive, 1)
                    .and_then(|_| win.get(&mut w, &whole, 1, 0, &whole))
                    .and_then(|_| win.unlock(1))
                    .expect("read back the L0/L1 window");
                w
            };

            let win = WinHandle::create(&world, WIN);
            if me0 {
                let call = |op: &Op, b: &mut [u8]| {
                    let mode = match op.kind {
                        Kind::FetchAdd => LockMode::Shared,
                        _ => LockMode::Exclusive,
                    };
                    win.lock(mode, 1)?;
                    let t = dt(op.len);
                    let res = match op.kind {
                        Kind::Put => win.put(self.src(op), t, 1, op.off, t).map(|_| 0),
                        Kind::Get => win.get(b, t, 1, op.off, t).map(|_| 0),
                        Kind::Acc => win
                            .accumulate(self.src(op), t, 1, op.off, t, ElemType::F64, AccOp::Sum)
                            .map(|_| 0),
                        Kind::FetchAdd => win.fetch_and_op_i64(1, 1, DATA, FetchOp::Sum),
                    };
                    let unlocked = win.unlock(1);
                    let v = res?;
                    unlocked.map(|_| v)
                };
                let d = drive(&self.ops, passes, call, |t, _| t);
                let w = read_back(&win);
                lad.win = rung("L0 window", d, w, &mut lad)
                    .into_iter()
                    .map(|s| s.1)
                    .collect();
            }
            world.barrier();
            win.free().expect("free the L0 window");

            let cfg = Config::default();
            let tx = armci_mpi::transport::for_kind(cfg.transport, cfg.epochless);
            let win = WinHandle::create(&world, WIN);
            tx.attach(&win).expect("attach the L1 window");
            if me0 {
                let call = |op: &Op, b: &mut [u8]| {
                    let t = dt(op.len);
                    if op.kind == Kind::FetchAdd {
                        return tx.fetch_and_op_i64(&win, 1, 1, DATA, FetchOp::Sum);
                    }
                    tx.epoch_begin(&win, 1, LockMode::Exclusive)?;
                    let res = match op.kind {
                        Kind::Put => tx.put(&win, self.src(op), t, 1, op.off, t),
                        Kind::Get => tx.get(&win, b, t, 1, op.off, t),
                        _ => tx.accumulate(
                            &win,
                            self.src(op),
                            t,
                            1,
                            op.off,
                            t,
                            ElemType::F64,
                            AccOp::Sum,
                        ),
                    };
                    let ended = tx.epoch_end(&win, 1);
                    res?;
                    ended.map(|_| 0)
                };
                let d = drive(&self.ops, passes, call, |t, _| t);
                let w = read_back(&win);
                lad.transport = rung("L1 transport", d, w, &mut lad)
                    .into_iter()
                    .map(|s| s.1)
                    .collect();
            }
            world.barrier();
            tx.detach(&win).expect("detach the L1 window");
            win.free().expect("free the L1 window");

            let rt = ArmciMpi::with_config(p, Config::default());
            let bases = rt.malloc(WIN).expect("allocate the L2 windows");
            if me0 {
                let target = bases[1];
                let call = |op: &Op, b: &mut [u8]| {
                    let dst = target.offset(op.off);
                    match op.kind {
                        Kind::Put => rt.put(self.src(op), dst).map(|_| 0),
                        Kind::Get => rt.get(dst, b).map(|_| 0),
                        Kind::Acc => rt.acc(AccKind::Double(1.0), self.src(op), dst).map(|_| 0),
                        Kind::FetchAdd => rt.rmw(RmwOp::FetchAdd(1), dst),
                    }
                };
                let d = drive(&self.ops, passes, call, |t, _| t);
                let mut w = vec![0u8; WIN];
                rt.get(target, &mut w).expect("read back the L2 window");
                lad.core = rung("L2 engine", d, w, &mut lad);
            }
            rt.barrier();

            // L3: the data region as rank 1's block of a 1-D f64 array, the
            // counter as rank 1's element of a 1-D i64 array.
            let n = DATA / 8;
            let data = GlobalArray::create(&rt, "ladder-data", GaType::F64, &[RANKS * n])
                .expect("create the L3 data array");
            let counter = GlobalArray::create(&rt, "ladder-counter", GaType::I64, &[RANKS])
                .expect("create the L3 counter");
            let base = data.distribution().cell_block(1).0[0];
            let cell = counter.distribution().cell_block(1).0[0];
            data.sync();
            if me0 {
                let d = drive(
                    &self.ops,
                    passes,
                    |op, _| {
                        let (lo, hi) = (base + op.off / 8, base + (op.off + op.len) / 8);
                        let src = &self.pattern[op.src / 8..(op.src + op.len) / 8];
                        match op.kind {
                            Kind::Put => data.put_patch(&[lo], &[hi], src).map(|_| (0, vec![])),
                            Kind::Get => data.get_patch(&[lo], &[hi]).map(|v| (0, v)),
                            Kind::Acc => {
                                data.acc_patch(1.0, &[lo], &[hi], src).map(|_| (0, vec![]))
                            }
                            Kind::FetchAdd => counter.read_inc(&[cell], 1).map(|t| (t, vec![])),
                        }
                    },
                    |(t, got), b| {
                        if !got.is_empty() {
                            b.copy_from_slice(&f64_bytes(&got));
                        }
                        t
                    },
                );
                let mut w = f64_bytes(&data.get_patch(&[base], &[base + n]).expect("read back L3"));
                let c = counter
                    .get_patch_i64(&[cell], &[cell + 1])
                    .expect("read back the L3 counter");
                w.extend_from_slice(&c[0].to_le_bytes());
                lad.ga = rung("L3 GA", d, w, &mut lad)
                    .into_iter()
                    .map(|s| s.1)
                    .collect();
            }
            data.sync();
            counter.destroy().expect("destroy the L3 counter");
            data.destroy().expect("destroy the L3 data array");
            rt.barrier();
            me0.then_some(lad)
        });
        per_rank
            .into_iter()
            .flatten()
            .next()
            .expect("rank 0 returns the ladder")
    }
}
