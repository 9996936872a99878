//! Wire-backend A/B (`BENCH_transport.json`): the same traffic replayed
//! over MPI passive-target RMA and the RAMC-style channel backend, with
//! and without the congestion-aware shared-NIC queueing model.
//!
//! Two workloads run at 1 and 8 ranks per node: a Figure 3-style
//! contiguous put/get/accumulate mix fanned out from rank 0 (plus one
//! strided put per peer), and the CCSD ladder proxy (§VII). Payloads and
//! synthetic energies must be bit-identical across every arm — the
//! backend may only change what the movement costs and how it is
//! bracketed (epochs vs doorbells), never what arrives. The channel
//! backend's offload/fallback split is recorded per arm. On the
//! single-driver mix (whose virtual makespan is deterministic)
//! congestion pricing must never be cheaper than the uncongested run of
//! the same backend; the proxy's makespan depends on dynamic NXTVAL task
//! claiming, so its timings are reported, not compared.

use armci_mpi::{AtomicsMode, Config, TransportKind};
use simnet::PlatformId;

use crate::ab::{run_table, Arm, Column, Driver, Row, Table};

/// Ranks-per-node sweep points: fully spread (every transfer crosses
/// the wire) and packed enough that NICs are shared under congestion.
pub const RANKS_PER_NODE: [u32; 2] = [1, 8];

/// Simulated processes per run.
const RANKS: usize = 8;

/// Both backends, uncongested then congested, for both workloads at
/// every layout. The uncongested MPI-RMA arm comes first: it is the
/// payload baseline of its workload and layout.
pub fn arms(platform: PlatformId) -> Vec<Arm> {
    let mut arms = Vec::new();
    for ranks_per_node in RANKS_PER_NODE {
        for driver in [Driver::FanoutStridedMix, Driver::Ccsd] {
            for (label, transport) in [
                ("mpi-rma", TransportKind::MpiRma),
                ("channel", TransportKind::Channel),
            ] {
                for congested in [false, true] {
                    let cfg = Config {
                        transport,
                        // This A/B isolates the wire backend: with the
                        // node slab on, packed layouts would route
                        // node-local traffic through the shm tier and
                        // measure the slab instead of the wire.
                        shm: false,
                        // Both wire arms carry the paper's MPI-2 RMW
                        // (mutex protocol); BENCH_rmw is where the
                        // disciplines are compared.
                        atomics: AtomicsMode::MutexFallback,
                        ..Default::default()
                    };
                    arms.push(Arm {
                        ranks_per_node,
                        congested,
                        ..Arm::new(label, driver, platform, RANKS, cfg)
                    });
                }
            }
        }
    }
    arms
}

/// Measures every arm on one platform.
pub fn generate(platform: PlatformId) -> Vec<Row> {
    run_table(arms(platform))
}

const COLUMNS: &[Column] = &[
    ("epochs", |r| r.ops.epochs as f64),
    ("flushes", |r| r.ops.flushes as f64),
    ("offload", |r| r.wire.offloaded as f64),
    ("fallback", |r| r.wire.fallback as f64),
];

/// The artifact for one platform; the headline compares the uncongested
/// backends at one rank per node.
pub fn table(platform: PlatformId) -> Table {
    let rows = generate(platform);
    let parts: Vec<String> = ["fig3-mix", "ccsd-proxy"]
        .iter()
        .filter_map(|&workload| {
            let get = |arm| {
                let at = |r: &&Row| {
                    r.workload == workload && r.arm == arm && !r.congested && r.ranks_per_node == 1
                };
                rows.iter().find(at)
            };
            let (mpi, chan) = (get("mpi-rma")?, get("channel")?);
            Some(format!(
                "{workload} {:.2}x ({} offloaded / {} fallback)",
                mpi.virtual_s / chan.virtual_s,
                chan.wire.offloaded,
                chan.wire.fallback
            ))
        })
        .collect();
    let headline = format!("channel vs MPI RMA @ 1 rank/node: {}\n", parts.join(", "));
    let title = "Wire-backend A/B — MPI RMA vs RAMC-style channels, +/- congestion";
    Table::new(title, COLUMNS, rows, headline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_agree_bitwise_and_congestion_never_helps() {
        let rows = generate(PlatformId::InfiniBandCluster);
        assert_eq!(rows.len(), RANKS_PER_NODE.len() * 8);
        for r in &rows {
            assert!(
                r.payload_ok,
                "{}/{} congested={} @ {} ranks/node: payload drifted",
                r.workload, r.transport, r.congested, r.ranks_per_node
            );
        }
        let get = |workload: &str, transport: &str, congested: bool, rpn: u32| {
            rows.iter()
                .find(|r| {
                    r.workload == workload
                        && r.transport == transport
                        && r.congested == congested
                        && r.ranks_per_node == rpn
                })
                .unwrap()
        };
        for workload in ["fig3-mix", "ccsd-proxy"] {
            for rpn in RANKS_PER_NODE {
                // The channel backend has no MPI epochs; MPI RMA opens one
                // per blocking access context.
                let mpi = get(workload, "mpi-rma", false, rpn);
                let chan = get(workload, "channel", false, rpn);
                assert!(
                    mpi.ops.epochs > 0,
                    "{workload} @ {rpn}: MPI arm opened no epochs"
                );
                assert_eq!(
                    (chan.ops.epochs, chan.ops.flushes),
                    (0, 0),
                    "{workload} @ {rpn}: channel arm used MPI epochs"
                );
                assert!(
                    chan.wire.offloaded > 0,
                    "{workload} @ {rpn}: channel arm never offloaded"
                );
                // Congestion pricing may only add time. Compared on the
                // mix only: its makespan is deterministic (one driver
                // rank), whereas the proxy's depends on which rank wins
                // each NXTVAL claim and jitters a few percent run to run.
                if workload == "fig3-mix" {
                    for transport in ["mpi-rma", "channel"] {
                        let free = get(workload, transport, false, rpn);
                        let cong = get(workload, transport, true, rpn);
                        assert!(
                            cong.virtual_s >= free.virtual_s,
                            "{workload}/{transport} @ {rpn}: congestion made it faster \
                             ({} < {})",
                            cong.virtual_s,
                            free.virtual_s
                        );
                    }
                }
            }
        }
        // The mix includes strided traffic: the channel backend must
        // report a software-fallback share.
        assert!(get("fig3-mix", "channel", false, 1).wire.fallback > 0);
    }
}
