//! Workload-suite A/B (`BENCH_workloads.json`): the three drivers of
//! `crates/workloads` — graph kernel, halo stencil, KV/parameter-server
//! loop — measured across the runtime's config axes, plus each driver's
//! scalesim rank-scaling series.
//!
//! **Runtime rows** (the shared [`Row`]): every driver runs once per
//! arm — `baseline` (defaults), `transport` (RAMC-style channels),
//! `atomics` (forced mutex fallback), `progress` (per-node agents),
//! `coalesce` (batched scheduler issue) — at 4 ranks, one per node, on
//! the virtual-time runtime. Each arm's outputs are checked against the
//! driver's bit-exact oracle (`verified`) and against the baseline arm's
//! (`payload_ok`): the config axes are *timing* models and must never
//! change results.
//!
//! **DES series** ([`ScalePoint`], `"source": "des"`): `workloads::scale`
//! extends each driver's contended resource to 10⁵–10⁶ simulated
//! clients per contention discipline.

use armci_mpi::{AtomicsMode, CoalesceMode, Config, ProgressMode, TransportKind};
use serde::Serialize;
use simnet::{Platform, PlatformId};
use workloads::{scale, GraphOpts, KvOpts, StencilOpts};

use crate::ab::{run_table, Arm, Column, Driver, Row, Table};

/// Ranks of the runtime measurements (one per node; see
/// [`crate::internode`]).
pub const RANKS: usize = 4;

/// Minimum spread (slowest arm / fastest arm of virtual time) each
/// driver must show on at least one config axis (≥1.3×). Enforced by the
/// module test and `figures check`.
pub const GATE_SPREAD: f64 = 1.3;

/// The config axes compared against the baseline arm.
pub const AXES: [&str; 4] = ["transport", "atomics", "progress", "coalesce"];

/// One DES scaling point of one driver (a series outside the shared row).
#[derive(Debug, Clone, Serialize)]
pub struct ScalePoint {
    pub platform: PlatformId,
    /// `graph`, `stencil`, or `kv`.
    pub workload: &'static str,
    /// Always `"des"`.
    pub source: &'static str,
    /// Always `"scale"`.
    pub axis: &'static str,
    /// Wire transport of the discipline (`mpi-rma` / `channel`).
    pub transport: &'static str,
    /// Contention discipline (`native` / `mutex` / `sharded`).
    pub atomics: &'static str,
    pub progress: &'static str,
    pub coalesce: &'static str,
    /// Simulated clients.
    pub ranks: u64,
    pub ranks_per_node: u32,
    /// Operations modelled.
    pub ops: u64,
    /// Makespan.
    pub virtual_s: f64,
    /// Operations per virtual second.
    pub throughput_per_s: f64,
    /// Always true (nothing to verify).
    pub verified: bool,
}

/// Graph instance for the bench: hub-skewed R-MAT with modelled
/// per-vertex compute and rank skew, so the progress axis has stalls to
/// collapse and the wait analyzers see stragglers.
pub fn graph_opts() -> GraphOpts {
    GraphOpts {
        scale: 6,
        edge_factor: 8,
        vertex_compute_s: 30e-6,
        skew: 2.0,
        ..GraphOpts::default()
    }
}

/// Stencil instance for the bench: 2D Jacobi with a radius-2 halo and
/// periodic boundaries. Periodic wrap splits every halo face into
/// multiple small strided fragments, which is the shape that separates
/// the MPI per-op path from the channel backend's software
/// segmentation (measured ≈1.4× on InfiniBandCluster).
pub fn stencil_opts() -> StencilOpts {
    StencilOpts {
        dims: vec![48, 48],
        iters: 4,
        radius: 2,
        periodic: true,
        ..StencilOpts::default()
    }
}

/// KV instance for the bench: hot-key heavy RMW mix.
pub fn kv_opts() -> KvOpts {
    KvOpts {
        ops_per_rank: 192,
        ..KvOpts::default()
    }
}

/// The five config arms of every driver, baseline first.
pub fn arms(platform: PlatformId) -> Vec<Arm> {
    let axes = [
        ("baseline", Config::default()),
        (
            "transport",
            Config {
                transport: TransportKind::Channel,
                ..Default::default()
            },
        ),
        (
            "atomics",
            Config {
                atomics: AtomicsMode::MutexFallback,
                ..Default::default()
            },
        ),
        (
            "progress",
            Config {
                progress: ProgressMode::Agent,
                ..Default::default()
            },
        ),
        (
            "coalesce",
            Config {
                coalesce: CoalesceMode::Batched,
                ..Default::default()
            },
        ),
    ];
    let mut arms = Vec::new();
    for driver in [Driver::Graph, Driver::Stencil, Driver::Kv] {
        for (label, cfg) in axes.clone() {
            arms.push(Arm::new(label, driver, platform, RANKS, cfg));
        }
    }
    arms
}

/// Measures every arm of every driver, with its throughput.
pub fn generate(platform: PlatformId) -> Vec<Row> {
    let mut rows = run_table(arms(platform));
    for r in &mut rows {
        let throughput = r.metric("ops") / r.virtual_s.max(1e-12);
        r.metrics.push(("throughput_per_s", throughput.to_value()));
    }
    rows
}

/// Maps a DES contention discipline to the provenance columns.
fn des_provenance(discipline: &'static str) -> (&'static str, &'static str) {
    match discipline {
        "channel" => ("channel", "native"),
        other => ("mpi-rma", other),
    }
}

/// The scalesim series of every driver.
pub fn scale_series(platform: PlatformId) -> Vec<ScalePoint> {
    let p = Platform::get(platform);
    let shard_rpn = (p.sockets_per_node * p.cores_per_socket).max(1);
    scale::kv_scale(&p)
        .into_iter()
        .chain(scale::graph_scale(&p))
        .chain(scale::stencil_scale(&p))
        .map(|s| {
            let (transport, atomics) = des_provenance(s.discipline);
            ScalePoint {
                platform,
                workload: match s.driver {
                    "graph" => "graph",
                    "stencil" => "stencil",
                    _ => "kv",
                },
                source: "des",
                axis: "scale",
                transport,
                atomics,
                progress: "none",
                coalesce: "auto",
                ranks: s.clients as u64,
                ranks_per_node: if s.discipline == "sharded" {
                    shard_rpn
                } else {
                    1
                },
                ops: (s.throughput_per_s * s.makespan_s).round() as u64,
                virtual_s: s.makespan_s,
                throughput_per_s: s.throughput_per_s,
                verified: true,
            }
        })
        .collect()
}

/// Spread (slowest/fastest virtual time) of one driver between the
/// baseline arm and one axis arm.
pub fn axis_spread(rows: &[Row], workload: &str, axis: &str) -> Option<f64> {
    let of = |a: &str| {
        rows.iter()
            .find(|r| r.workload == workload && r.arm == a)
            .map(|r| r.virtual_s)
    };
    let (base, arm) = (of("baseline")?, of(axis)?);
    Some(arm.max(base) / arm.min(base).max(f64::MIN_POSITIVE))
}

/// The widest axis spread a driver shows (the ≥1.3× gate reads this).
pub fn best_spread(rows: &[Row], workload: &str) -> Option<(&'static str, f64)> {
    AXES.into_iter()
        .filter_map(|a| axis_spread(rows, workload, a).map(|s| (a, s)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

const COLUMNS: &[Column] = &[
    ("ops", |r| r.metric("ops")),
    ("ops/s", |r| r.metric("throughput_per_s").round()),
];

/// The artifact: runtime rows, the DES series, and the per-driver
/// headline spreads.
pub fn table(platform: PlatformId) -> Table {
    tabulate(generate(platform), scale_series(platform))
}

fn tabulate(rows: Vec<Row>, series: Vec<ScalePoint>) -> Table {
    let spreads: Vec<String> = ["graph", "stencil", "kv"]
        .iter()
        .filter_map(|w| {
            let (axis, spread) = best_spread(&rows, w)?;
            Some(format!("{w} {axis} {spread:.2}x"))
        })
        .collect();
    let headline = format!("widest config-axis spread: {}\n", spreads.join(", "));
    Table {
        series: series.iter().map(Serialize::to_value).collect(),
        ..Table::new("Workload suite — config-axis A/B", COLUMNS, rows, headline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_verifies_and_spreads() {
        let rows = generate(PlatformId::InfiniBandCluster);
        let series = scale_series(PlatformId::InfiniBandCluster);
        print!("{}", tabulate(rows.clone(), series.clone()).render()); // shown by libtest on failure
        assert_eq!(rows.len(), 3 * (AXES.len() + 1));
        for r in &rows {
            assert!(
                r.verified && r.payload_ok,
                "{}/{}: oracle or cross-arm payload check failed",
                r.workload,
                r.arm
            );
            assert!(!r.transport.is_empty() && !r.atomics.is_empty());
        }
        for w in ["graph", "stencil", "kv"] {
            let (axis, spread) = best_spread(&rows, w).expect("spread rows");
            assert!(
                spread >= GATE_SPREAD,
                "{w}: widest config-axis spread {spread:.2}x ({axis}) below the {GATE_SPREAD}x gate"
            );
        }
        // The DES series must reach 10^6 clients, and the mutex
        // discipline must be the one that hurts.
        let kv_max = series
            .iter()
            .filter(|d| d.workload == "kv")
            .map(|d| d.ranks)
            .max()
            .unwrap();
        assert_eq!(kv_max, 1_000_000);
        let des_kv = |atomics: &str| {
            series
                .iter()
                .find(|d| d.workload == "kv" && d.atomics == atomics && d.ranks == 1_000_000)
                .unwrap()
                .virtual_s
        };
        assert!(des_kv("mutex") > des_kv("native"));
        assert!(des_kv("sharded") < des_kv("native"));
    }
}
