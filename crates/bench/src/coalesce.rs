//! Coalescing-scheduler A/B (`BENCH_coalesce.json`): the same traffic
//! replayed through three arms — the paper's per-op baseline (one
//! blocking exclusive epoch per operation, §V-C), the scheduler's
//! batched issue shape (coarsened epochs, one wire operation per queued
//! op), and the full coalescing scheduler (merged runs under coarsened
//! epochs, committed-datatype cache) — on a Figure 3/4-style strided mix
//! and the CCSD ladder proxy (§VII).
//!
//! Payloads and energies must be bit-identical across arms; the arms
//! differ only in epoch count, wire-operation count, and virtual time.

use armci_mpi::{AtomicsMode, CoalesceMode, Config};
use simnet::PlatformId;

use crate::ab::{run_table, Arm, Column, Driver, Row, Table};

/// The three arms of both workloads, per-op baseline first.
pub fn arms(platform: PlatformId) -> Vec<Arm> {
    // The mix runs every arm in the paper's MPI-2 configuration, whose
    // RMW is the mutex protocol, so the lock/unlock epoch shape this A/B
    // asserts on stays stable. Rank-local ops are always "same node", so
    // the shared-memory bypass would route them around the scheduler
    // under every arm and skew the epoch and wire-op counts; the shm
    // tier gets its own A/B in shm.rs.
    let mpi2 = Config {
        atomics: AtomicsMode::MutexFallback,
        shm: false,
        ..Default::default()
    };
    let mpi2_batched = Config {
        coalesce: CoalesceMode::Batched,
        ..mpi2.clone()
    };
    // Both nonblocking CCSD arms run the chunked §VII schedule on the
    // MPI-3 lock_all+flush path.
    let mpi3 = Config {
        epochless: true,
        shm: false,
        ..Default::default()
    };
    let mpi3_batched = Config {
        coalesce: CoalesceMode::Batched,
        ..mpi3.clone()
    };
    let arm = |label, driver, cfg| Arm::new(label, driver, platform, 2, cfg);
    vec![
        arm(
            "blocking-perop",
            Driver::StridedMix { nonblocking: false },
            mpi2.clone(),
        ),
        arm(
            "nb-batched",
            Driver::StridedMix { nonblocking: true },
            mpi2_batched,
        ),
        arm(
            "nb-coalesced",
            Driver::StridedMix { nonblocking: true },
            mpi2.clone(),
        ),
        arm("blocking-perop", Driver::Ccsd, mpi2),
        arm("nb-batched", Driver::CcsdPipelined, mpi3_batched),
        arm("nb-coalesced", Driver::CcsdPipelined, mpi3),
    ]
}

/// Measures all arms of both workloads on one platform.
pub fn generate(platform: PlatformId) -> Vec<Row> {
    run_table(arms(platform))
}

fn syncs(r: &Row) -> u64 {
    r.ops.epochs + r.ops.flushes
}

fn wire_ops(r: &Row) -> u64 {
    r.ops.puts + r.ops.gets + r.ops.accs
}

const COLUMNS: &[Column] = &[
    ("syncs", |r| syncs(r) as f64),
    ("wire_ops", |r| wire_ops(r) as f64),
    ("runs", |r| r.stage.sched_runs as f64),
    ("dtype%", |r| r.stage.dtype_hit_rate() * 100.0),
    ("segs", |r| r.stage.sched_segs_out as f64),
];

/// The artifact for one platform; the headline compares the coalescing
/// scheduler with the per-op baseline.
pub fn table(platform: PlatformId) -> Table {
    let rows = generate(platform);
    let parts: Vec<String> = ["fig3-strided-mix", "ccsd-proxy"]
        .iter()
        .filter_map(|&workload| {
            let get = |arm| rows.iter().find(|r| r.workload == workload && r.arm == arm);
            let (perop, coal) = (get("blocking-perop")?, get("nb-coalesced")?);
            Some(format!(
                "{workload} {:.1}x fewer sync epochs, {:.1}x fewer wire ops, {:+.1}% latency",
                syncs(perop) as f64 / syncs(coal).max(1) as f64,
                wire_ops(perop) as f64 / wire_ops(coal).max(1) as f64,
                (coal.virtual_s / perop.virtual_s - 1.0) * 100.0,
            ))
        })
        .collect();
    let headline = format!("nb-coalesced vs blocking-perop: {}\n", parts.join("; "));
    let title = "Coalescing scheduler A/B — epochs, wire ops, virtual time per arm";
    Table::new(title, COLUMNS, rows, headline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescing_cuts_epochs_and_latency_with_identical_payloads() {
        let rows = generate(PlatformId::InfiniBandCluster);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.payload_ok, "{}/{} payload drifted", r.workload, r.arm);
        }
        for workload in ["fig3-strided-mix", "ccsd-proxy"] {
            let get = |arm: &str| {
                rows.iter()
                    .find(|r| r.workload == workload && r.arm == arm)
                    .unwrap()
            };
            let perop = get("blocking-perop");
            let coal = get("nb-coalesced");
            let (coal_sync, perop_sync) = (syncs(coal), syncs(perop));
            assert!(
                coal_sync * 2 <= perop_sync,
                "{workload}: sync epochs {coal_sync} vs {perop_sync} — not a 2x reduction"
            );
            assert!(
                wire_ops(coal) < wire_ops(perop),
                "{workload}: merging did not reduce wire ops"
            );
            assert!(
                coal.virtual_s < perop.virtual_s,
                "{workload}: coalesced arm not faster ({} vs {})",
                coal.virtual_s,
                perop.virtual_s
            );
            // the scheduler actually ran on the coalesced arm only
            assert!(coal.stage.sched_enqueued > 0);
            assert_eq!(perop.stage.sched_enqueued, 0);
        }
        // steady-state CCSD tile shapes live in the committed-datatype cache
        let ccsd = rows
            .iter()
            .find(|r| r.workload == "ccsd-proxy" && r.arm == "nb-coalesced")
            .unwrap();
        assert!(
            ccsd.stage.dtype_hit_rate() > 0.9,
            "ccsd dtype hit rate {:.2} ≤ 0.9",
            ccsd.stage.dtype_hit_rate()
        );
    }
}
