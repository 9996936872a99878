//! Shared-memory tier A/B (`BENCH_shm.json`): the same traffic replayed
//! with the intra-node load/store fast path on (`shm` arm) and forced
//! onto the wire path (`wire` arm), swept over ranks-per-node layouts.
//!
//! Two workloads run at 1, 8 and 32 ranks per node: a Figure 3-style
//! contiguous put/get/accumulate mix fanned out from rank 0, and the
//! CCSD ladder proxy (§VII). Payloads and synthetic energies must be
//! bit-identical across arms — the route may only change where bytes
//! travel and what the movement costs, never what arrives. At one rank
//! per node only rank-local traffic (the proxy's own tiles) can bypass;
//! once the ranks share a node the `shm` arm must be strictly cheaper
//! in virtual time.

use armci_mpi::{AtomicsMode, Config};
use simnet::PlatformId;

use crate::ab::{run_table, Arm, Column, Driver, Row, Table};

/// Ranks-per-node sweep points (the paper's Table II systems span 4–24
/// cores per node; 32 covers the fat end of modern nodes).
pub const RANKS_PER_NODE: [u32; 3] = [1, 8, 32];

/// Simulated processes per run: at 1 rank/node this is 8 nodes, at 8+
/// ranks/node a single node.
const RANKS: usize = 8;

/// Wire baseline then shm arm, for both workloads at every layout.
pub fn arms(platform: PlatformId) -> Vec<Arm> {
    let mut arms = Vec::new();
    for ranks_per_node in RANKS_PER_NODE {
        for driver in [Driver::FanoutMix, Driver::Ccsd] {
            for (label, shm) in [("wire", false), ("shm", true)] {
                // This A/B measures the data-path tier, in the paper's
                // MPI-2 configuration; pin its mutex RMW so the arms stay
                // comparable to the seeded artifact now that native
                // atomics are the default.
                let cfg = Config {
                    shm,
                    atomics: AtomicsMode::MutexFallback,
                    ..Default::default()
                };
                arms.push(Arm {
                    ranks_per_node,
                    ..Arm::new(label, driver, platform, RANKS, cfg)
                });
            }
        }
    }
    arms
}

/// Measures both arms of both workloads across the ranks-per-node sweep.
pub fn generate(platform: PlatformId) -> Vec<Row> {
    run_table(arms(platform))
}

const COLUMNS: &[Column] = &[
    ("shm_hits", |r| r.stage.shm_hits as f64),
    ("bypass_B", |r| r.stage.shm_bypass_bytes as f64),
    ("wire_ops", |r| r.stage.executed_ops as f64),
    ("hit%", |r| r.stage.shm_hit_rate() * 100.0),
];

/// The artifact for one platform; the headline is the saving at the
/// densest layout.
pub fn table(platform: PlatformId) -> Table {
    let rows = generate(platform);
    let rpn = RANKS_PER_NODE[RANKS_PER_NODE.len() - 1];
    let parts: Vec<String> = ["fig3-mix", "ccsd-proxy"]
        .iter()
        .filter_map(|&workload| {
            let get = |arm| {
                let at =
                    |r: &&Row| r.workload == workload && r.arm == arm && r.ranks_per_node == rpn;
                rows.iter().find(at)
            };
            let (wire, shm) = (get("wire")?, get("shm")?);
            Some(format!(
                "{workload} {:.1}x cheaper ({} B bypassed the NIC)",
                wire.virtual_s / shm.virtual_s,
                shm.stage.shm_bypass_bytes
            ))
        })
        .collect();
    let headline = format!("shm tier @ {rpn} ranks/node: {}\n", parts.join(", "));
    let title = "Shared-memory tier A/B — intra-node fast path vs forced wire";
    Table::new(title, COLUMNS, rows, headline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shm_tier_strictly_cheaper_on_shared_nodes_with_identical_payloads() {
        let rows = generate(PlatformId::InfiniBandCluster);
        assert_eq!(rows.len(), RANKS_PER_NODE.len() * 4);
        for r in &rows {
            assert!(
                r.payload_ok,
                "{}/{} @ {} ranks/node: payload drifted",
                r.workload, r.arm, r.ranks_per_node
            );
        }
        let get = |workload: &str, arm: &str, rpn: u32| {
            rows.iter()
                .find(|r| r.workload == workload && r.arm == arm && r.ranks_per_node == rpn)
                .unwrap()
        };
        // Spread layout, peer-only traffic: no peers share a node, so the
        // mix rides the wire entirely even with the fast path armed.
        assert_eq!(get("fig3-mix", "shm", 1).stage.shm_hits, 0);
        // The proxy also touches its own tiles — those (and only those)
        // may bypass at 1 rank/node; the remote traffic stays on the wire.
        let spread = get("ccsd-proxy", "shm", 1);
        assert!(
            spread.stage.executed_ops > 0,
            "remote tiles must ride the wire"
        );
        for workload in ["fig3-mix", "ccsd-proxy"] {
            // Packed layouts: the fast path engages and wins outright.
            for rpn in [8, 32] {
                let wire = get(workload, "wire", rpn);
                let shm = get(workload, "shm", rpn);
                assert!(shm.stage.shm_hits > 0, "{workload} @ {rpn}: fast path idle");
                assert!(shm.stage.shm_bypass_bytes > 0);
                assert_eq!(
                    wire.stage.shm_hits, 0,
                    "{workload} @ {rpn}: forced-wire leak"
                );
                assert!(
                    shm.virtual_s < wire.virtual_s,
                    "{workload} @ {rpn} ranks/node: shm {} s not cheaper than wire {} s",
                    shm.virtual_s,
                    wire.virtual_s
                );
            }
        }
        // The mix is rank-0-driven onto one node at 8+ ranks/node: every
        // transfer bypasses, so the hit rate saturates.
        let mix = get("fig3-mix", "shm", 8);
        assert!(
            mix.stage.shm_hit_rate() > 0.99,
            "hit rate {}",
            mix.stage.shm_hit_rate()
        );
    }
}
