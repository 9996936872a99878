//! Workload-suite A/B (`BENCH_workloads.json`): the three drivers of
//! `crates/workloads` — graph kernel, halo stencil, KV/parameter-server
//! loop — measured across the runtime's config axes, plus each driver's
//! scalesim rank-scaling series.
//!
//! **Runtime rows** (`source: "runtime"`): every driver runs once per
//! arm — `baseline` (defaults), `transport` (RAMC-style channels),
//! `atomics` (forced mutex fallback), `progress` (per-node agents),
//! `coalesce` (batched scheduler issue) — at 4 ranks, one per node, on the
//! virtual-time runtime. Each arm's payload is checked against the
//! driver's bit-exact oracle AND against the baseline arm's outputs
//! (`verified`): the config axes are *timing* models and must never
//! change results. Provenance columns carry the *resolved* transport /
//! atomics / progress names reported by the runtime, not the requested
//! enum.
//!
//! **DES rows** (`source: "des"`): `workloads::scale` extends each
//! driver's contended resource to 10⁵–10⁶ simulated clients per
//! contention discipline.

use armci_mpi::{ArmciMpi, AtomicsMode, CoalesceMode, Config, ProgressMode, TransportKind};
use mpisim::Runtime;
use serde::Serialize;
use simnet::{Platform, PlatformId};
use workloads::{graph, kv, scale, stencil, GraphOpts, KvOpts, StencilOpts};

/// Ranks of the runtime measurements (one per node; see
/// [`crate::internode`]).
pub const RANKS: usize = 4;

/// Minimum spread (slowest arm / fastest arm of virtual time) each
/// driver must show on at least one config axis — the ISSUE's ≥1.3×
/// acceptance gate. Enforced by the module test and `figures check`.
pub const GATE_SPREAD: f64 = 1.3;

/// One measured arm (or one DES scaling point) of one driver.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    pub platform: PlatformId,
    /// `graph`, `stencil`, or `kv`.
    pub workload: &'static str,
    /// `"runtime"` (measured on the simulated runtime) or `"des"`
    /// (scalesim discrete-event model).
    pub source: &'static str,
    /// Config axis this arm varies: `baseline`, `transport`, `atomics`,
    /// `progress`, `coalesce` — or `scale` for DES rows.
    pub axis: &'static str,
    /// Resolved wire transport (`mpi-rma` / `channel`).
    pub transport: &'static str,
    /// Resolved atomics discipline (`native` / `mutex`; DES rows also
    /// use `sharded`).
    pub atomics: &'static str,
    /// Resolved progress discipline (`none` / `agent`).
    pub progress: &'static str,
    /// Requested coalesce mode of the arm.
    pub coalesce: &'static str,
    /// Ranks of the runtime run, or simulated clients of the DES point.
    pub ranks: u64,
    pub ranks_per_node: u32,
    /// One-sided operations issued (runtime) or modelled (DES).
    pub ops: u64,
    /// Virtual seconds: max over ranks (runtime) / makespan (DES).
    pub virtual_s: f64,
    /// Operations per virtual second.
    pub throughput_per_s: f64,
    /// Oracle verdict: bit-exact oracle passed AND outputs identical to
    /// the baseline arm. Always true on DES rows (nothing to verify).
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

/// The five config arms swept per driver.
pub fn arms() -> Vec<(&'static str, Config)> {
    vec![
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
    ]
}

fn coalesce_name(c: CoalesceMode) -> &'static str {
    match c {
        CoalesceMode::Batched => "batched",
        CoalesceMode::Datatype => "datatype",
        CoalesceMode::Auto => "auto",
    }
}

/// Output fingerprint of one driver run, for the cross-arm
/// bit-identical check.
#[derive(PartialEq)]
enum Payload {
    Graph(Vec<i64>, Vec<i64>),
    Stencil(Vec<u64>, Vec<u64>),
    Kv(Vec<i64>),
}

struct ArmRun {
    transport: &'static str,
    atomics: &'static str,
    progress: &'static str,
    ops: u64,
    virtual_s: f64,
    verified: bool,
    payload: Payload,
}

fn run_driver(platform: PlatformId, workload: &'static str, cfg: Config) -> ArmRun {
    let rt_cfg = crate::internode(platform);
    match workload {
        "graph" => {
            let opts = graph_opts();
            let cfg2 = cfg.clone();
            let opts2 = opts.clone();
            let out = Runtime::run_with(RANKS, rt_cfg, move |p| {
                let rt = ArmciMpi::with_config(p, cfg2.clone());
                let r = graph::run_graph(p, &rt, &opts2);
                (
                    r,
                    rt.transport_name(),
                    rt.atomics_mode_name(),
                    rt.progress_mode_name(),
                )
            });
            let verified = graph::verify(
                &opts,
                &out.iter().map(|(r, ..)| r.clone()).collect::<Vec<_>>(),
            )
            .is_ok();
            let (r0, transport, atomics, progress) = {
                let (r, t, a, p) = &out[0];
                (r.clone(), *t, *a, *p)
            };
            ArmRun {
                transport,
                atomics,
                progress,
                ops: out.iter().map(|(r, ..)| r.ops).sum(),
                virtual_s: out.iter().map(|(r, ..)| r.elapsed_s).fold(0.0, f64::max),
                verified,
                payload: Payload::Graph(r0.dist, r0.pagerank),
            }
        }
        "stencil" => {
            let opts = stencil_opts();
            let cfg2 = cfg.clone();
            let opts2 = opts.clone();
            let out = Runtime::run_with(RANKS, rt_cfg, move |p| {
                let rt = ArmciMpi::with_config(p, cfg2.clone());
                let r = stencil::run_stencil(p, &rt, &opts2);
                (
                    r,
                    rt.transport_name(),
                    rt.atomics_mode_name(),
                    rt.progress_mode_name(),
                )
            });
            let verified = stencil::verify(
                &opts,
                RANKS,
                &out.iter().map(|(r, ..)| r.clone()).collect::<Vec<_>>(),
            )
            .is_ok();
            let (r0, transport, atomics, progress) = {
                let (r, t, a, p) = &out[0];
                (r.clone(), *t, *a, *p)
            };
            ArmRun {
                transport,
                atomics,
                progress,
                ops: out.iter().map(|(r, ..)| r.ops).sum(),
                virtual_s: out.iter().map(|(r, ..)| r.elapsed_s).fold(0.0, f64::max),
                verified,
                payload: Payload::Stencil(
                    r0.field.iter().map(|v| v.to_bits()).collect(),
                    r0.residuals.iter().map(|v| v.to_bits()).collect(),
                ),
            }
        }
        _ => {
            let opts = kv_opts();
            let cfg2 = cfg.clone();
            let opts2 = opts.clone();
            let out = Runtime::run_with(RANKS, rt_cfg, move |p| {
                let rt = ArmciMpi::with_config(p, cfg2.clone());
                let r = kv::run_kv(p, &rt, &opts2);
                (
                    r,
                    rt.transport_name(),
                    rt.atomics_mode_name(),
                    rt.progress_mode_name(),
                )
            });
            let verified = kv::verify(
                &opts,
                &out.iter().map(|(r, ..)| r.clone()).collect::<Vec<_>>(),
            )
            .is_ok();
            let (r0, transport, atomics, progress) = {
                let (r, t, a, p) = &out[0];
                (r.clone(), *t, *a, *p)
            };
            ArmRun {
                transport,
                atomics,
                progress,
                ops: out.iter().map(|(r, ..)| r.ops).sum(),
                virtual_s: out.iter().map(|(r, ..)| r.elapsed_s).fold(0.0, f64::max),
                verified,
                payload: Payload::Kv(r0.finals),
            }
        }
    }
}

/// Maps a DES contention discipline to the provenance columns.
fn des_provenance(discipline: &'static str) -> (&'static str, &'static str) {
    match discipline {
        "channel" => ("channel", "native"),
        other => ("mpi-rma", other),
    }
}

/// Measures every arm of every driver and appends the DES series.
pub fn generate(platform: PlatformId) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in ["graph", "stencil", "kv"] {
        let mut baseline_payload: Option<Payload> = None;
        for (axis, cfg) in arms() {
            let coalesce = coalesce_name(cfg.coalesce);
            let run = run_driver(platform, workload, cfg);
            // The config axes are timing models: every arm must produce
            // the baseline arm's bits.
            let identical = match &baseline_payload {
                None => {
                    baseline_payload = Some(run.payload);
                    true
                }
                Some(b) => *b == run.payload,
            };
            rows.push(Row {
                platform,
                workload,
                source: "runtime",
                axis,
                transport: run.transport,
                atomics: run.atomics,
                progress: run.progress,
                coalesce,
                ranks: RANKS as u64,
                ranks_per_node: 1,
                ops: run.ops,
                virtual_s: run.virtual_s,
                throughput_per_s: run.ops as f64 / run.virtual_s.max(1e-12),
                verified: run.verified && identical,
            });
        }
    }
    let p = Platform::get(platform);
    let shard_rpn = (p.sockets_per_node * p.cores_per_socket).max(1);
    for s in scale::kv_scale(&p)
        .into_iter()
        .chain(scale::graph_scale(&p))
        .chain(scale::stencil_scale(&p))
    {
        let (transport, atomics) = des_provenance(s.discipline);
        let driver: &'static str = match s.driver {
            "graph" => "graph",
            "stencil" => "stencil",
            _ => "kv",
        };
        rows.push(Row {
            platform,
            workload: driver,
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
        });
    }
    rows
}

/// Spread (slowest/fastest virtual time) of one driver across the
/// runtime arms of one axis vs baseline.
pub fn axis_spread(rows: &[Row], workload: &str, axis: &str) -> Option<f64> {
    let of = |a: &str| {
        rows.iter()
            .find(|r| r.source == "runtime" && r.workload == workload && r.axis == a)
            .map(|r| r.virtual_s)
    };
    let (base, arm) = (of("baseline")?, of(axis)?);
    Some(arm.max(base) / arm.min(base).max(f64::MIN_POSITIVE))
}

/// The widest axis spread a driver shows (the ≥1.3× gate reads this).
pub fn best_spread(rows: &[Row], workload: &str) -> Option<(&'static str, f64)> {
    ["transport", "atomics", "progress", "coalesce"]
        .into_iter()
        .filter_map(|a| axis_spread(rows, workload, a).map(|s| (a, s)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

/// Renders the sweep as aligned text with the per-driver headline
/// spreads.
pub fn render(rows: &[Row]) -> String {
    let mut s = String::new();
    s.push_str("# Workload suite — config-axis A/B + DES scaling\n");
    s.push_str(&format!(
        "{:<8} {:<8} {:<10} {:>9} {:>8} {:>8} {:>9} {:>9} {:>12} {:>12} {:>3}\n",
        "workload",
        "source",
        "axis",
        "transport",
        "atomics",
        "progress",
        "ranks",
        "ops",
        "virtual_ms",
        "ops/s",
        "ok"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<8} {:<8} {:<10} {:>9} {:>8} {:>8} {:>9} {:>9} {:>12.3} {:>12.0} {:>3}\n",
            r.workload,
            r.source,
            r.axis,
            r.transport,
            r.atomics,
            r.progress,
            r.ranks,
            r.ops,
            r.virtual_s * 1e3,
            r.throughput_per_s,
            if r.verified { "y" } else { "N" },
        ));
    }
    for w in ["graph", "stencil", "kv"] {
        if let Some((axis, spread)) = best_spread(rows, w) {
            s.push_str(&format!("{w}: widest axis {axis}, {spread:.2}x spread\n"));
        }
    }
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_verifies_and_spreads() {
        let rows = generate(PlatformId::InfiniBandCluster);
        print!("{}", render(&rows)); // shown by libtest on failure
        assert_eq!(
            rows.iter().filter(|r| r.source == "runtime").count(),
            3 * arms().len()
        );
        for r in &rows {
            assert!(
                r.verified,
                "{}/{}/{}: oracle or cross-arm payload check failed",
                r.workload, r.source, r.axis
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
        // The DES series must reach the 10^6-client scale the ISSUE
        // names, and the mutex discipline must be the one that hurts.
        let kv_max = rows
            .iter()
            .filter(|r| r.source == "des" && r.workload == "kv")
            .map(|r| r.ranks)
            .max()
            .unwrap();
        assert_eq!(kv_max, 1_000_000);
        let des_kv = |atomics: &str| {
            rows.iter()
                .find(|r| {
                    r.source == "des"
                        && r.workload == "kv"
                        && r.atomics == atomics
                        && r.ranks == 1_000_000
                })
                .unwrap()
                .virtual_s
        };
        assert!(des_kv("mutex") > des_kv("native"));
        assert!(des_kv("sharded") < des_kv("native"));
    }
}
