//! Mode equivalence of the async-progress engine (the optimisation's
//! semantic contract): the per-node progress agent reprices waits, it
//! must never change data. Over random op mixes (put / get / acc / rmw /
//! nonblocking pairs), rank counts and compute skews, and across both
//! wire backends and the shm route (MPI RMA, channel, shm), a run with
//! `ProgressMode::Agent` must produce bit-identical payloads to the
//! `ProgressMode::None` baseline:
//!
//! * every get observes the same bytes,
//! * every rmw returns the same ticket,
//! * every rank's final window image is identical.
//!
//! Time is charged for real (`charge_time: true`) and compute spans are
//! interleaved so the agent coupling is genuinely hot — profiles are
//! published at the fencing barriers and priced on the passive-target
//! paths — making this a test of "agent changes clocks only", not of a
//! dormant code path.

use armci::{AccKind, Armci, RmwOp};
use armci_mpi::{ArmciMpi, Config, ProgressMode, TransportKind};
use mpisim::{Runtime, RuntimeConfig};
use proptest::prelude::*;
use simnet::{Platform, PlatformId};

/// Bytes of window memory per rank: a data region the puts/gets hit, an
/// i32 acc region, and an rmw cell, all disjoint.
const WIN: usize = 512;
const ACC_AT: usize = 256;
const RMW_AT: usize = 384;

/// Runtime with `ranks_per_node` cores per node and real virtual-time
/// charging, so the agent model has nonzero busy profiles to price.
fn layout(ranks_per_node: u32) -> RuntimeConfig {
    let mut platform =
        Platform::get(PlatformId::InfiniBandCluster).customized("progress-equivalence-test");
    platform.sockets_per_node = 1;
    platform.cores_per_socket = ranks_per_node;
    RuntimeConfig {
        platform,
        charge_time: true,
        ..Default::default()
    }
}

/// The three routes the agent must be equivalent on.
#[derive(Clone, Copy, Debug)]
enum Wire {
    /// MPI-3 passive-target windows, one rank per node (internode).
    MpiRma,
    /// The RAMC-style channel backend, one rank per node (internode).
    Channel,
    /// The shared-memory tier: every rank on one node, shm slabs on.
    Shm,
}

impl Wire {
    fn config(self, progress: ProgressMode) -> Config {
        match self {
            Wire::MpiRma => Config {
                shm: false,
                progress,
                ..Default::default()
            },
            Wire::Channel => Config {
                shm: false,
                transport: TransportKind::Channel,
                progress,
                ..Default::default()
            },
            Wire::Shm => Config {
                shm: true,
                progress,
                ..Default::default()
            },
        }
    }

    fn ranks_per_node(self, nprocs: usize) -> u32 {
        match self {
            Wire::MpiRma | Wire::Channel => 1,
            Wire::Shm => nprocs as u32,
        }
    }
}

/// One step of a serialised schedule; the actor is `who % nprocs`, the
/// target is always the actor's right neighbour's window.
#[derive(Clone, Debug)]
enum Op {
    /// Blocking contiguous put of `len` bytes of `fill` at `off`.
    Put { fill: u8, off: usize, len: usize },
    /// Blocking get of `len` bytes at `off`; the bytes read are part of
    /// the compared transcript.
    Get { off: usize, len: usize },
    /// Scaled i32 accumulate of `n` small elements into the acc region.
    Acc { val: i32, scale: i32, n: usize },
    /// Fetch-and-add on the target's rmw cell; the ticket is compared.
    Rmw { add: i64 },
    /// Nonblocking put + wait (exercises the queued/flush path).
    NbPut { fill: u8, off: usize, len: usize },
    /// Local compute span in microseconds: feeds the progress board so
    /// peers price stalls against a genuinely busy target.
    Compute { us: u32 },
}

type Sched = Vec<(usize, Op)>;

fn arb_op() -> impl Strategy<Value = Op> {
    // The vendored proptest shim has no `prop_oneof`; a selector plus a
    // shared parameter word covers the same op space.
    (0usize..6, 0usize..4096, 0usize..192, 1usize..64, 1u32..200).prop_map(
        |(sel, a, off, len, us)| match sel {
            0 => Op::Put {
                fill: (a % 251) as u8,
                off,
                len,
            },
            1 => Op::Get { off, len },
            2 => Op::Acc {
                val: (a % 8) as i32,
                scale: 1 + (a % 3) as i32,
                n: 1 + a % 15,
            },
            3 => Op::Rmw {
                add: 1 + (a % 8) as i64,
            },
            4 => Op::NbPut {
                fill: (a % 251) as u8,
                off,
                len,
            },
            _ => Op::Compute { us },
        },
    )
}

fn arb_sched() -> impl Strategy<Value = Sched> {
    proptest::collection::vec((0usize..8, arb_op()), 1..12)
}

/// Everything data-bearing a run produces, gathered per rank: the bytes
/// every get observed, every rmw ticket, and the final window image.
type Transcript = Vec<(Vec<u8>, Vec<i64>, Vec<u8>)>;

/// Replays `sched` under one wire tier and progress mode. Steps are
/// fenced with barriers so the op order is deterministic — which also
/// publishes fresh busy profiles to the progress board each step.
fn run_mode(nprocs: usize, wire: Wire, progress: ProgressMode, sched: Sched) -> Transcript {
    Runtime::run_with(nprocs, layout(wire.ranks_per_node(nprocs)), move |p| {
        let rt = ArmciMpi::with_config(p, wire.config(progress));
        let bases = rt.malloc(WIN).unwrap();
        rt.access_mut(bases[p.rank()], WIN, &mut |b| b.fill(0))
            .unwrap();
        rt.barrier();
        let mut got = Vec::new();
        let mut tickets = Vec::new();
        for (who, op) in &sched {
            rt.barrier();
            if who % nprocs != p.rank() {
                continue;
            }
            let t = bases[(p.rank() + 1) % nprocs];
            match op {
                Op::Put { fill, off, len } => {
                    rt.put(&vec![*fill; *len], t.offset(*off)).unwrap();
                }
                Op::Get { off, len } => {
                    let mut buf = vec![0u8; *len];
                    rt.get(t.offset(*off), &mut buf).unwrap();
                    got.extend_from_slice(&buf);
                }
                Op::Acc { val, scale, n } => {
                    let src: Vec<u8> = (0..*n as i32)
                        .flat_map(|i| (val + i % 3).to_le_bytes())
                        .collect();
                    rt.acc(AccKind::Int(*scale), &src, t.offset(ACC_AT))
                        .unwrap();
                }
                Op::Rmw { add } => {
                    tickets.push(rt.rmw(RmwOp::FetchAdd(*add), t.offset(RMW_AT)).unwrap());
                }
                Op::NbPut { fill, off, len } => {
                    let h = rt.nb_put(&vec![*fill; *len], t.offset(*off)).unwrap();
                    rt.wait(h).unwrap();
                }
                Op::Compute { us } => p.compute(*us as f64 * 1e-6),
            }
        }
        rt.barrier();
        let mut image = vec![0u8; WIN];
        rt.access_mut(bases[p.rank()], WIN, &mut |b| image.copy_from_slice(b))
            .unwrap();
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
        (got, tickets, image)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Agent on vs off is bit-identical — same get'd bytes, same rmw
    /// tickets, same final images — for any op mix, on all three routes.
    #[test]
    fn agent_and_none_bit_identical(
        nprocs in 2usize..5,
        sched in arb_sched(),
    ) {
        for wire in [Wire::MpiRma, Wire::Channel, Wire::Shm] {
            let none = run_mode(nprocs, wire, ProgressMode::None, sched.clone());
            let agent = run_mode(nprocs, wire, ProgressMode::Agent, sched.clone());
            prop_assert_eq!(
                &none, &agent,
                "agent changed payloads on {:?} with {:?}", wire, sched
            );
        }
    }

}
