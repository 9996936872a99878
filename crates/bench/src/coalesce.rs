//! Coalescing-scheduler A/B: the same traffic replayed through three
//! arms — the paper's per-op baseline (one blocking exclusive epoch per
//! operation, §V-C), the scheduler's batched issue shape (coarsened
//! epochs, one wire operation per queued op), and the full coalescing
//! scheduler (merged runs under coarsened epochs, committed-datatype
//! cache) — on a Figure 3/4-style strided mix and the CCSD ladder proxy
//! (§VII).
//!
//! Payloads and energies must be bit-identical across arms; the arms
//! differ only in epoch count, wire-operation count, and virtual time.

use armci::Armci;
use armci_mpi::{ArmciMpi, AtomicsMode, CoalesceMode, Config};
use mpisim::{Proc, Runtime};
use nwchem_proxy::{run_ccsd, run_ccsd_pipelined, CcsdConfig};
use serde::Serialize;
use simnet::PlatformId;

/// Rounds of the strided-mix workload (each round: writes, wait, reads).
pub const ROUNDS: usize = 4;
/// Contiguous puts per round (adjacent 4 KiB blocks — the merge case).
const CONTIG_OPS: usize = 8;
const CONTIG_BYTES: usize = 4096;
/// Interleaved strided puts per round (disjoint column blocks).
const STRIDED_OPS: usize = 4;
const SEG: usize = 16;
const ROWS: usize = 64;

/// One measured arm of one workload.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    pub platform: PlatformId,
    /// Wire backend the measurement ran over (see `armci_mpi::transport`).
    pub transport: &'static str,
    /// `"fig3-strided-mix"` or `"ccsd-proxy"`.
    pub workload: &'static str,
    /// `"blocking-perop"`, `"nb-batched"` or `"nb-coalesced"`.
    pub arm: &'static str,
    /// Node layout of the measurement (one rank per node; see
    /// `crate::internode`).
    pub ranks_per_node: u32,
    /// Passive-target epochs opened during the phase.
    pub epochs: u64,
    /// Flush completions (the MPI-3 arms synchronise with `flush` under
    /// the standing `lock_all` instead of opening epochs).
    pub flushes: u64,
    /// Wire-level RMA operations (after merging, where it applies).
    pub wire_ops: u64,
    /// Operations enqueued on the scheduler (zero for non-scheduler arms).
    pub queued_ops: u64,
    /// Merged runs the scheduler issued.
    pub runs: u64,
    /// Datatype segments entering / leaving the segment merger.
    pub segs_in: u64,
    pub segs_out: u64,
    pub dtype_hits: u64,
    pub dtype_misses: u64,
    pub dtype_hit_rate: f64,
    /// Virtual seconds on rank 0 for the measured phase.
    pub virtual_s: f64,
    /// Final remote memory (or energy) bit-identical to the per-op arm.
    pub payload_ok: bool,
    /// CCSD synthetic energy (zero for the strided mix).
    pub energy: f64,
}

fn arm_cfg(arm: &str, epochless: bool) -> Config {
    Config {
        epochless,
        // Keep the lock/unlock epoch shape this A/B asserts on stable:
        // the non-epochless arms model the paper's MPI-2 configuration,
        // whose RMW is the mutex protocol, not native atomics.
        atomics: if epochless {
            AtomicsMode::Auto
        } else {
            AtomicsMode::MutexFallback
        },
        // Blocking calls never enqueue, so the blocking arm runs under
        // the default mode.
        coalesce: match arm {
            "nb-batched" => CoalesceMode::Batched,
            _ => CoalesceMode::Auto,
        },
        // This A/B isolates the wire scheduler: rank-local ops are
        // always "same node", so the shared-memory bypass would route
        // them around the scheduler under every arm and skew the epoch
        // and wire-op counts. The shm tier gets its own A/B in shm.rs.
        shm: false,
        ..Default::default()
    }
}

/// Runs the strided mix under one arm; returns the stats row (without
/// `payload_ok`, fixed up by the caller) and the final remote image.
fn run_mix(platform: PlatformId, arm: &'static str) -> (Row, Vec<u8>) {
    let cfg = crate::internode(platform);
    let mut out = Runtime::run_with(2, cfg, move |p| {
        let rt = ArmciMpi::with_config(p, arm_cfg(arm, false));
        let strided_base = CONTIG_OPS * CONTIG_BYTES;
        let total = strided_base + ROWS * STRIDED_OPS * SEG;
        let bases = rt.malloc(total).expect("malloc");
        rt.barrier();
        let mut row = None;
        let mut image = Vec::new();
        if p.rank() == 0 {
            let t0 = p.clock().now();
            let s0 = rt.stats();
            let g0 = rt.stage_stats();
            let contig: Vec<Vec<u8>> = (0..CONTIG_OPS)
                .map(|i| {
                    (0..CONTIG_BYTES)
                        .map(|b| (b as u8).wrapping_mul(7).wrapping_add(i as u8))
                        .collect()
                })
                .collect();
            let rowstride = STRIDED_OPS * SEG;
            let col: Vec<Vec<u8>> = (0..STRIDED_OPS)
                .map(|k| vec![0x40 + k as u8; ROWS * SEG])
                .collect();
            for _ in 0..ROUNDS {
                // write phase: adjacent contiguous puts + interleaved
                // disjoint strided puts, all to rank 1
                if arm == "blocking-perop" {
                    for (i, payload) in contig.iter().enumerate() {
                        rt.put(payload, bases[1].offset(i * CONTIG_BYTES)).unwrap();
                    }
                    for (k, payload) in col.iter().enumerate() {
                        rt.put_strided(
                            payload,
                            &[SEG],
                            bases[1].offset(strided_base + k * SEG),
                            &[rowstride],
                            &[SEG, ROWS],
                        )
                        .unwrap();
                    }
                } else {
                    let mut hs = Vec::new();
                    for (i, payload) in contig.iter().enumerate() {
                        hs.push(
                            rt.nb_put(payload, bases[1].offset(i * CONTIG_BYTES))
                                .unwrap(),
                        );
                    }
                    for (k, payload) in col.iter().enumerate() {
                        hs.push(
                            rt.nb_put_strided(
                                payload,
                                &[SEG],
                                bases[1].offset(strided_base + k * SEG),
                                &[rowstride],
                                &[SEG, ROWS],
                            )
                            .unwrap(),
                        );
                    }
                    rt.wait_all(hs).unwrap();
                }
                // read phase: the contiguous region back in chunks
                let mut buf = vec![0u8; CONTIG_BYTES];
                if arm == "blocking-perop" {
                    for i in 0..CONTIG_OPS {
                        rt.get(bases[1].offset(i * CONTIG_BYTES), &mut buf).unwrap();
                    }
                } else {
                    let mut hs = Vec::new();
                    for i in 0..CONTIG_OPS {
                        hs.push(
                            rt.nb_get(bases[1].offset(i * CONTIG_BYTES), &mut buf)
                                .unwrap(),
                        );
                    }
                    rt.wait_all(hs).unwrap();
                }
            }
            let s1 = rt.stats();
            let g1 = rt.stage_stats().delta(&g0);
            let t1 = p.clock().now();
            row = Some(Row {
                platform,
                transport: rt.transport_name(),
                workload: "fig3-strided-mix",
                arm,
                ranks_per_node: 1,
                epochs: s1.epochs - s0.epochs,
                flushes: s1.flushes - s0.flushes,
                wire_ops: (s1.puts - s0.puts) + (s1.gets - s0.gets) + (s1.accs - s0.accs),
                queued_ops: g1.sched_enqueued,
                runs: g1.sched_runs,
                segs_in: g1.sched_segs_in,
                segs_out: g1.sched_segs_out,
                dtype_hits: g1.dtype_hits,
                dtype_misses: g1.dtype_misses,
                dtype_hit_rate: g1.dtype_hit_rate(),
                virtual_s: t1 - t0,
                payload_ok: false,
                energy: 0.0,
            });
            let mut img = vec![0u8; total];
            rt.get(bases[1], &mut img).unwrap();
            image = img;
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
        (row, image)
    })
    .swap_remove(0);
    (out.0.take().expect("rank 0 row"), out.1)
}

/// Runs the CCSD ladder proxy under one arm; returns the row (the
/// caller fixes `payload_ok` against the per-op energy).
fn run_ccsd_arm(platform: PlatformId, arm: &'static str) -> Row {
    let cfg = crate::internode(platform);
    Runtime::run_with(2, cfg, move |p: &Proc| {
        // The per-op baseline is the paper's §V-C model (one exclusive
        // epoch per blocking op, MPI-2); both nonblocking arms run the
        // chunked §VII schedule on the MPI-3 lock_all+flush path.
        let rt = ArmciMpi::with_config(p, arm_cfg(arm, arm != "blocking-perop"));
        let ccsd = CcsdConfig {
            iterations: 2,
            ..CcsdConfig::tiny()
        };
        let s0 = rt.stats();
        let g0 = rt.stage_stats();
        let r = if arm == "blocking-perop" {
            run_ccsd(p, &rt, &ccsd)
        } else {
            run_ccsd_pipelined(p, &rt, &ccsd)
        };
        let s1 = rt.stats();
        let g1 = rt.stage_stats().delta(&g0);
        Row {
            platform,
            transport: rt.transport_name(),
            workload: "ccsd-proxy",
            arm,
            ranks_per_node: 1,
            epochs: s1.epochs - s0.epochs,
            flushes: s1.flushes - s0.flushes,
            wire_ops: (s1.puts - s0.puts) + (s1.gets - s0.gets) + (s1.accs - s0.accs),
            queued_ops: g1.sched_enqueued,
            runs: g1.sched_runs,
            segs_in: g1.sched_segs_in,
            segs_out: g1.sched_segs_out,
            dtype_hits: g1.dtype_hits,
            dtype_misses: g1.dtype_misses,
            dtype_hit_rate: g1.dtype_hit_rate(),
            virtual_s: r.elapsed,
            payload_ok: false,
            energy: r.energy,
        }
    })
    .swap_remove(0)
}

/// Measures all arms of both workloads on one platform.
pub fn generate(platform: PlatformId) -> Vec<Row> {
    const ARMS: [&str; 3] = ["blocking-perop", "nb-batched", "nb-coalesced"];
    let mut rows = Vec::new();
    let mut ref_image: Option<Vec<u8>> = None;
    for arm in ARMS {
        let (mut row, image) = run_mix(platform, arm);
        row.payload_ok = match &ref_image {
            None => {
                ref_image = Some(image);
                true
            }
            Some(r) => r == &image,
        };
        rows.push(row);
    }
    let mut ref_energy: Option<f64> = None;
    for arm in ARMS {
        let mut row = run_ccsd_arm(platform, arm);
        row.payload_ok = match ref_energy {
            None => {
                ref_energy = Some(row.energy);
                true
            }
            Some(e) => e.to_bits() == row.energy.to_bits(),
        };
        rows.push(row);
    }
    rows
}

/// Renders the A/B as aligned text, with the headline reductions.
pub fn render(rows: &[Row]) -> String {
    let mut s = String::new();
    s.push_str("# Coalescing scheduler A/B — epochs, wire ops, virtual time per arm\n");
    s.push_str(&format!(
        "{:<30} {:>7} {:>9} {:>7} {:>11} {:>8} {:>7} {:>3}\n",
        "workload/arm", "syncs", "wire_ops", "runs", "virtual_µs", "dtype%", "segs", "ok"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<30} {:>7} {:>9} {:>7} {:>11.1} {:>8.1} {:>7} {:>3}\n",
            format!("{}/{}", r.workload, r.arm),
            r.epochs + r.flushes,
            r.wire_ops,
            r.runs,
            r.virtual_s * 1e6,
            r.dtype_hit_rate * 100.0,
            r.segs_out,
            if r.payload_ok { "y" } else { "N" },
        ));
    }
    for workload in ["fig3-strided-mix", "ccsd-proxy"] {
        let get = |arm: &str| rows.iter().find(|r| r.workload == workload && r.arm == arm);
        if let (Some(perop), Some(coal)) = (get("blocking-perop"), get("nb-coalesced")) {
            s.push_str(&format!(
                "{workload}: {:.1}x fewer sync epochs, {:.1}x fewer wire ops, {:+.1}% latency vs per-op\n",
                (perop.epochs + perop.flushes) as f64 / (coal.epochs + coal.flushes).max(1) as f64,
                perop.wire_ops as f64 / coal.wire_ops.max(1) as f64,
                (coal.virtual_s / perop.virtual_s - 1.0) * 100.0,
            ));
        }
    }
    s.push('\n');
    s
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
            let (coal_sync, perop_sync) =
                (coal.epochs + coal.flushes, perop.epochs + perop.flushes);
            assert!(
                coal_sync * 2 <= perop_sync,
                "{workload}: sync epochs {coal_sync} vs {perop_sync} — not a 2x reduction"
            );
            assert!(
                coal.wire_ops < perop.wire_ops,
                "{workload}: merging did not reduce wire ops"
            );
            assert!(
                coal.virtual_s < perop.virtual_s,
                "{workload}: coalesced arm not faster ({} vs {})",
                coal.virtual_s,
                perop.virtual_s
            );
            // the scheduler actually ran on the coalesced arm only
            assert!(coal.queued_ops > 0);
            assert_eq!(perop.queued_ops, 0);
        }
        // steady-state CCSD tile shapes live in the committed-datatype cache
        let ccsd = rows
            .iter()
            .find(|r| r.workload == "ccsd-proxy" && r.arm == "nb-coalesced")
            .unwrap();
        assert!(
            ccsd.dtype_hit_rate > 0.9,
            "ccsd dtype hit rate {:.2} ≤ 0.9",
            ccsd.dtype_hit_rate
        );
    }
}
