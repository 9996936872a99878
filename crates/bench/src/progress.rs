//! Asynchronous-progress A/B (`BENCH_progress.json`): the skewed CCSD
//! ladder (every collective and passive-target round waits on the
//! slowest rank) and the fig3-style contiguous mix, each run twice —
//! host-CPU progress ([`armci_mpi::ProgressMode::None`], origins stall
//! while busy targets compute) and per-node progress agents
//! ([`armci_mpi::ProgressMode::Agent`], the agent drains passive-target
//! rounds at its priced service cost).
//!
//! Payloads and energies must be bit-identical across arms: the agent is
//! a *timing* model — it changes when remote rounds complete, never what
//! they do. The headline gate is the collapse of `progress.stall_s`
//! (passive-target service stalls; `progress.straggler_s` — load
//! imbalance at synchronisation points — is reported separately because
//! no agent can compute a straggler's work for it) at skew ≥ 1.0: a ≥3×
//! reduction, measured service-inclusively (`agent_drain_s` added) so
//! the agent pays for its own drain time. The fig3 mix is the control:
//! no compute means no stalls to collapse, so both arms must price
//! identically there.

use armci_mpi::{Config, ProgressMode};
use nwchem_proxy::CcsdConfig;
use simnet::PlatformId;

use crate::ab::{run_table, Arm, Column, Driver, Row, Table};

/// Compute-skew factors swept by the A/B (`run_ccsd_skewed`'s `skew`:
/// rank `r` computes `1 + skew·r/(P−1)` times slower).
pub const SKEWS: [f64; 4] = [0.0, 0.5, 1.0, 2.0];

/// Ranks of the skewed runs (one per node; see [`crate::internode`]).
pub const RANKS: usize = 4;

/// The skew level the stall-collapse acceptance gate reads
/// (`figures check` asserts the ≥3× reduction on this row).
pub const GATE_SKEW: f64 = 2.0;

/// Minimum `none/agent` stall ratio at skew ≥ 1.0.
pub const GATE_RATIO: f64 = 3.0;

/// CCSD shape for the A/B (shared with the `obs critpath ccsd-skewed`
/// capture): big enough tiles that one DGEMM span dwarfs the agent's
/// µs-scale service cost, and enough iterations that the warm-up
/// iteration (no published phase profile yet → no coupling) does not
/// dilute the measured collapse.
pub fn ccsd_cfg() -> CcsdConfig {
    CcsdConfig {
        no: 8,
        nv: 16,
        tile_o: 4,
        tile_v: 8,
        iterations: 4,
    }
}

/// Host-progress then agent arm of the skewed ladder at every skew, then
/// of the idle-target mix; every arm records its stall metrics.
pub fn arms(platform: PlatformId) -> Vec<Arm> {
    let drivers = SKEWS
        .iter()
        .map(|&skew| (Driver::CcsdSkewed { skew }, RANKS))
        .chain([(Driver::IdleTargetMix, 2)]);
    let mut arms = Vec::new();
    for (driver, ranks) in drivers {
        for (label, progress) in [("none", ProgressMode::None), ("agent", ProgressMode::Agent)] {
            let cfg = Config {
                progress,
                ..Default::default()
            };
            arms.push(Arm {
                record: true,
                ..Arm::new(label, driver, platform, ranks, cfg)
            });
        }
    }
    arms
}

/// Measures both arms of both workloads on one platform.
pub fn generate(platform: PlatformId) -> Vec<Row> {
    run_table(arms(platform))
}

/// The `none/agent` stall-collapse ratio for one workload/skew pair, if
/// both arms are present: host-arm service stalls over what the agent arm
/// pays instead (any residual stall *plus* the agent's own service time),
/// so the agent is never credited for stalls it merely re-priced.
pub fn collapse_ratio(rows: &[Row], workload: &str, skew: f64) -> Option<f64> {
    let get = |arm: &str| {
        rows.iter()
            .find(|r| r.workload == workload && r.progress == arm && r.param("skew") == skew)
    };
    let (none, agent) = (get("none")?, get("agent")?);
    let paid = agent.metric("progress.stall_s") + agent.metric("agent_drain_s");
    Some(none.metric("progress.stall_s") / paid.max(f64::MIN_POSITIVE))
}

const COLUMNS: &[Column] = &[
    ("skew", |r| r.param("skew")),
    ("stall_ms", |r| r.metric("progress.stall_s") * 1e3),
    ("stragl_ms", |r| r.metric("progress.straggler_s") * 1e3),
    ("agent_ms", |r| r.metric("agent_drain_s") * 1e3),
    ("agent_ops", |r| r.metric("progress.agent_ops")),
    ("offl_ms", |r| r.metric("progress.offloaded_s") * 1e3),
];

/// The artifact for one platform; the headline lists the collapse ratio
/// at every skew.
pub fn table(platform: PlatformId) -> Table {
    tabulate(generate(platform))
}

fn tabulate(rows: Vec<Row>) -> Table {
    let ratios: Vec<String> = SKEWS
        .iter()
        .filter_map(|&skew| {
            let ratio = collapse_ratio(&rows, "ccsd-skewed", skew)?;
            Some(format!("skew {skew} {ratio:.1}x"))
        })
        .collect();
    let headline = format!(
        "ccsd-skewed stall reduction with the agent: {}\n",
        ratios.join(", ")
    );
    Table::new(
        "Async-progress A/B — progress.stall_s per arm",
        COLUMNS,
        rows,
        headline,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agent_collapses_progress_stalls_with_identical_energies() {
        if !obs::COMPILED_IN {
            return; // stall metrics ride the recorder
        }
        let rows = generate(PlatformId::InfiniBandCluster);
        print!("{}", tabulate(rows.clone()).render()); // shown by libtest on failure
        assert_eq!(rows.len(), 2 * SKEWS.len() + 2);
        for r in &rows {
            assert!(
                r.payload_ok,
                "{}/{} skew {}: payload/energy drifted",
                r.workload,
                r.progress,
                r.param("skew")
            );
        }
        // The gate: ≥3× stall collapse wherever the imbalance is real
        // (skew ≥ 1.0) — both the raw metric across arms and the
        // service-inclusive ratio (agent charged for its own service
        // time) — and the agent never slows the run down.
        for &skew in &SKEWS {
            let get = |arm: &str| {
                rows.iter()
                    .find(|r| {
                        r.workload == "ccsd-skewed" && r.progress == arm && r.param("skew") == skew
                    })
                    .unwrap()
            };
            let (none, agent) = (get("none"), get("agent"));
            let stall = |r: &Row| r.metric("progress.stall_s");
            if skew >= 1.0 {
                assert!(
                    stall(none) > 0.0,
                    "skew {skew}: host arm recorded no progress stalls to collapse"
                );
                assert!(
                    stall(agent) * GATE_RATIO <= stall(none),
                    "skew {skew}: progress.stall_s {:.6} -> {:.6} below the {GATE_RATIO}x gate",
                    stall(none),
                    stall(agent),
                );
                let ratio = collapse_ratio(&rows, "ccsd-skewed", skew).unwrap();
                assert!(
                    ratio >= GATE_RATIO,
                    "skew {skew}: service-inclusive ratio {ratio:.2} below the {GATE_RATIO}x gate"
                );
            }
            assert!(
                agent.virtual_s <= none.virtual_s,
                "skew {skew}: agent arm slower than host arm"
            );
        }
        // Agent provenance: drains happen exactly on the agent arms of
        // the compute-skewed runs, never on the host arms.
        for r in &rows {
            let agent_ops = r.metric("progress.agent_ops");
            match (r.workload, r.progress) {
                ("ccsd-skewed", "agent") if r.param("skew") > 0.0 => {
                    assert!(
                        agent_ops > 0.0,
                        "skew {}: agent drained nothing",
                        r.param("skew")
                    )
                }
                ("fig3-mix", _) => assert_eq!(
                    agent_ops, 0.0,
                    "no-compute control must have nothing to drain"
                ),
                (_, "none") => assert_eq!(agent_ops, 0.0, "host arm recorded agent drains"),
                _ => {}
            }
        }
        // The no-compute control prices identically under both arms.
        let mix = |arm: &str| {
            rows.iter()
                .find(|r| r.workload == "fig3-mix" && r.progress == arm)
                .unwrap()
        };
        assert_eq!(
            mix("none").virtual_s.to_bits(),
            mix("agent").virtual_s.to_bits(),
            "agent changed the price of an idle-target workload"
        );
    }
}
