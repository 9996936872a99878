//! Buffer-pool behaviour over the paper's workloads
//! (`BENCH_pool.json`): hit/miss/registration-cost counters for the
//! registration-aware staging pool, measured on the Figure 3 contiguous
//! accumulate/copy and Figure 4 strided accumulate workloads.
//!
//! Every ARMCI-MPI temporary — accumulate pre-scale staging, the
//! global↔global bounce buffer, IOV gather scratch, strided pack
//! scratch — draws from one size-classed pool with on-demand
//! registration: the first take of a size class pays the pin cost, every
//! later take reuses pinned memory for free. The rows here show the
//! cold/steady split the paper's Figure 5 attributes to registration:
//! after one warm-up pass the steady-state hit rate exceeds 90%, which
//! is precisely why native ports bother with prepinned slabs (the
//! `armci-native` rows, whose pool registers its slab once at init).

use armci::{AccKind, Armci};
use armci_mpi::ArmciMpi;
use armci_native::ArmciNative;
use mpisim::{Proc, Runtime};
use serde::Serialize;
use simnet::{PlatformId, PoolStats};

use crate::ab::{Column, Row, Sample, Table};
use crate::pipeline::{contig_sizes, strided_shapes};

/// Steady-state passes per workload (the cold row is always one pass).
pub const STEADY_PASSES: usize = 8;

/// Runs every workload on `platform` for both backends, unrecorded.
pub fn generate(platform: PlatformId) -> Vec<Row> {
    let cfg = crate::internode(platform);
    Runtime::run_with(2, cfg, move |p| measure(p, platform)).swap_remove(0)
}

/// One phase's row: the pool counters as metrics (`pool.*`), plus the
/// engine deltas when the phase ran on ARMCI-MPI.
fn row(base: Row, phase: Sample, s: &PoolStats) -> Row {
    let mut row = base;
    row.add(&phase);
    row.metrics = vec![
        ("pool.hits", s.hits.to_value()),
        ("pool.misses", s.misses.to_value()),
        ("pool.hit_rate", s.hit_rate().to_value()),
        ("pool.reg_cost_s", s.reg_cost_s.to_value()),
        (
            "pool.high_water_bytes",
            (s.high_water_bytes as u64).to_value(),
        ),
    ];
    row
}

fn measure(p: &Proc, platform: PlatformId) -> Vec<Row> {
    let mut rows = Vec::new();

    // --- ARMCI-MPI: on-demand registration -----------------------------
    {
        let rt = ArmciMpi::new(p);
        let max = *contig_sizes().last().unwrap();
        let bases = rt.malloc(2 * max).expect("malloc");
        rt.barrier();
        let src = vec![1u8; 2 * max];
        let contig = |rt: &ArmciMpi| {
            if p.rank() == 0 {
                for &size in &contig_sizes() {
                    rt.acc(AccKind::Int(2), &src[..size], bases[1]).unwrap();
                    rt.copy(bases[1], bases[1].offset(max), size).unwrap();
                }
            }
        };
        let strided = |rt: &ArmciMpi| {
            if p.rank() == 0 {
                for &(seg, n) in &strided_shapes() {
                    let count = [seg, n];
                    rt.acc_strided(
                        AccKind::Int(1),
                        &src[..n * seg],
                        &[seg],
                        bases[1],
                        &[2 * seg],
                        &count,
                    )
                    .unwrap();
                }
            }
        };
        for (workload, run) in [
            ("fig3-contig", &contig as &dyn Fn(&ArmciMpi)),
            ("fig4-strided", &strided as &dyn Fn(&ArmciMpi)),
        ] {
            let base = |phase| Row::new(platform, workload, phase, 2, 1).resolved(&rt);
            rt.reset_pool_stats();
            let t0 = Sample::now(p, &rt);
            run(&rt);
            let cold = Sample::now(p, &rt).since(&t0);
            rows.push(row(base("cold"), cold, &rt.pool_stats()));
            rt.reset_pool_stats();
            let t0 = Sample::now(p, &rt);
            for _ in 0..STEADY_PASSES {
                run(&rt);
            }
            let steady = Sample::now(p, &rt).since(&t0);
            rows.push(row(base("steady"), steady, &rt.pool_stats()));
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    }

    // --- ARMCI-Native: prepinned slab ----------------------------------
    {
        let rt = ArmciNative::new(p);
        // Drop the init-time prepin from the counters: the rows report
        // per-operation behaviour.
        rt.reset_pool_stats();
        let max = *contig_sizes().last().unwrap();
        let bases = rt.malloc(2 * max).expect("malloc");
        rt.barrier();
        let run = |rt: &ArmciNative| {
            if p.rank() == 0 {
                for &size in &contig_sizes() {
                    // copy() is the native pool user (bounce staging).
                    rt.copy(bases[1], bases[1].offset(max), size).unwrap();
                }
            }
        };
        // The native runtime has no engine, wire backend or coalescer:
        // only the clock and the pool counters are measured.
        let base = |phase| Row {
            transport: "native",
            atomics: "native",
            progress: "none",
            coalesce: "none",
            ..Row::new(platform, "fig3-contig", phase, 2, 1)
        };
        let elapsed = |t0: f64| Sample {
            virtual_s: p.clock().now() - t0,
            ..Sample::default()
        };
        let t0 = p.clock().now();
        run(&rt);
        rows.push(row(base("cold"), elapsed(t0), &rt.pool_stats()));
        rt.reset_pool_stats();
        let t0 = p.clock().now();
        for _ in 0..STEADY_PASSES {
            run(&rt);
        }
        rows.push(row(base("steady"), elapsed(t0), &rt.pool_stats()));
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    }

    rows
}

const COLUMNS: &[Column] = &[
    ("hits", |r| r.metric("pool.hits")),
    ("misses", |r| r.metric("pool.misses")),
    ("hit%", |r| r.metric("pool.hit_rate") * 100.0),
    ("reg_µs", |r| r.metric("pool.reg_cost_s") * 1e6),
    ("high_water", |r| r.metric("pool.high_water_bytes")),
];

/// The artifact for one platform; the headline is the ARMCI-MPI
/// steady-state hit rate per workload.
pub fn table(platform: PlatformId) -> Table {
    let rows = generate(platform);
    let steady: Vec<String> = rows
        .iter()
        .filter(|r| r.transport == "mpi-rma" && r.arm == "steady")
        .map(|r| format!("{} {:.1}%", r.workload, r.metric("pool.hit_rate") * 100.0))
        .collect();
    let headline = format!("armci-mpi steady-state hit rate: {}\n", steady.join(", "));
    let title = "Buffer pool behaviour — registration-aware staging";
    Table::new(title, COLUMNS, rows, headline)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The row of one phase; `transport` tells the runtimes apart
    /// (`mpi-rma` for ARMCI-MPI, `native` for ARMCI-Native).
    fn find<'a>(rows: &'a [Row], transport: &str, workload: &str, phase: &str) -> &'a Row {
        rows.iter()
            .find(|r| r.transport == transport && r.workload == workload && r.arm == phase)
            .expect("row")
    }

    #[test]
    fn steady_state_hit_rate_exceeds_90_percent() {
        let rows = generate(PlatformId::InfiniBandCluster);
        for workload in ["fig3-contig", "fig4-strided"] {
            let steady = find(&rows, "mpi-rma", workload, "steady");
            assert!(
                steady.metric("pool.hit_rate") > 0.9,
                "{workload}: steady hit rate {} (hits {}, misses {})",
                steady.metric("pool.hit_rate"),
                steady.metric("pool.hits"),
                steady.metric("pool.misses")
            );
            // Warm classes pay no further registration.
            assert_eq!(
                steady.metric("pool.reg_cost_s"),
                0.0,
                "{workload}: steady reg cost"
            );
        }
    }

    #[test]
    fn cold_pass_pays_registration_once_per_class() {
        let rows = generate(PlatformId::InfiniBandCluster);
        let cold = find(&rows, "mpi-rma", "fig3-contig", "cold");
        assert!(cold.metric("pool.misses") > 0.0, "cold pass must miss");
        assert!(
            cold.metric("pool.reg_cost_s") > 0.0,
            "on-demand misses must pin"
        );
        let steady = find(&rows, "mpi-rma", "fig3-contig", "steady");
        assert!(steady.metric("pool.hits") > cold.metric("pool.hits"));
    }

    #[test]
    fn native_prepinned_pool_never_pays_per_op_registration() {
        let rows = generate(PlatformId::InfiniBandCluster);
        for phase in ["cold", "steady"] {
            let r = find(&rows, "native", "fig3-contig", phase);
            assert_eq!(
                r.metric("pool.reg_cost_s"),
                0.0,
                "{phase}: native slab is registered at init, not per take"
            );
        }
    }
}
