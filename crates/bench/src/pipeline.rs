//! Transfer-engine pipeline breakdown: per-stage counters and virtual
//! time spent in plan / acquire / execute / complete, over the paper's
//! Figure 3 (contiguous) and Figure 4 (strided) workloads, comparing
//! blocking epochs against nonblocking aggregate epochs.
//!
//! Unlike the bandwidth figures this reports *where the time goes inside
//! the runtime*: translation and datatype construction (plan), epoch or
//! flush acquisition (acquire), RMA issue (execute), and completion
//! (complete). The nonblocking rows issue a burst of operations before
//! waiting, so they also show epoch aggregation at work.

use armci::{AccKind, Armci};
use armci_mpi::{ArmciMpi, Config};
use mpisim::{Proc, Runtime};
use serde::Serialize;
use simnet::PlatformId;

use crate::ab::{Column, Row, Sample, Table};

/// Operations issued back to back per measurement; the nonblocking path
/// aggregates them into one epoch, the blocking path pays one each.
pub const BURST: usize = 4;

/// Figure 3 contiguous sizes (a coarse subset: 1 KiB … 1 MiB).
pub fn contig_sizes() -> Vec<usize> {
    (10..=20).step_by(2).map(|k| 1usize << k).collect()
}

/// Figure 4 strided shapes: `(segment bytes, segment count)`.
pub fn strided_shapes() -> Vec<(usize, usize)> {
    vec![(16, 64), (1024, 64)]
}

/// Measures every workload on one platform (rank 0 → rank 1, epochless
/// mode so the nonblocking burst genuinely overlaps). Runs with the
/// recorder on; each row folds only its own phase's events (rank 0's),
/// and the rest is drained when the run returns.
pub fn generate(platform: PlatformId) -> Vec<Row> {
    let cfg = crate::internode(platform);
    let (mut per_rank, _) =
        obs::capture(|| Runtime::run_with(2, cfg, move |p| measure(p, platform)));
    per_rank.swap_remove(0)
}

/// Marks a phase boundary: snapshots the running stage counters and
/// drains this thread's recorder buffer so [`row`] sees only the
/// phase's own events. The counters themselves are never reset — the
/// cumulative totals stay available to the caller.
fn phase_start(p: &Proc, rt: &ArmciMpi) -> Sample {
    let _ = obs::take_local();
    Sample::now(p, rt)
}

fn measure(p: &Proc, platform: PlatformId) -> Vec<Row> {
    let rt = ArmciMpi::with_config(
        p,
        Config {
            epochless: true,
            ..Default::default()
        },
    );
    let max_contig = *contig_sizes().last().unwrap();
    let max_strided = strided_shapes()
        .iter()
        .map(|&(seg, n)| 2 * seg * n)
        .max()
        .unwrap();
    let bases = rt.malloc(max_contig.max(max_strided)).expect("malloc");
    rt.barrier();
    let mut rows = Vec::new();
    if p.rank() == 0 {
        let src = vec![1u8; max_contig.max(max_strided)];
        let contig = |workload| {
            contig_sizes()
                .into_iter()
                .map(move |size| (workload, size, 1))
        };
        let strided = strided_shapes()
            .into_iter()
            .map(|(seg, n)| ("strided-put", seg, n));
        for (workload, bytes, segments) in contig("contig-put")
            .chain(contig("contig-acc"))
            .chain(strided)
        {
            let (buf, dst) = (&src[..bytes * segments], bases[1]);
            // Strided: dense local, 50%-dense remote, as in Figure 4.
            let (count, lstr, rstr) = ([bytes, segments], [bytes], [2 * bytes]);
            for nonblocking in [false, true] {
                let s0 = phase_start(p, &rt);
                let mut hs = Vec::new();
                for _ in 0..BURST {
                    match (workload, nonblocking) {
                        ("contig-put", true) => hs.push(rt.nb_put(buf, dst).unwrap()),
                        ("contig-put", false) => rt.put(buf, dst).unwrap(),
                        // Accumulate: the pre-scale staging draws from the
                        // buffer pool, so these rows exercise its counters.
                        ("contig-acc", true) => {
                            hs.push(rt.nb_acc(AccKind::Int(2), buf, dst).unwrap())
                        }
                        ("contig-acc", false) => rt.acc(AccKind::Int(2), buf, dst).unwrap(),
                        (_, true) => {
                            hs.push(rt.nb_put_strided(buf, &lstr, dst, &rstr, &count).unwrap())
                        }
                        (_, false) => rt.put_strided(buf, &lstr, dst, &rstr, &count).unwrap(),
                    }
                }
                if nonblocking {
                    rt.wait_all(hs).unwrap();
                }
                let shape = (bytes, segments);
                rows.push(row(platform, workload, shape, nonblocking, p, &rt, &s0));
            }
        }
    }
    rt.barrier();
    rt.free(bases[p.rank()]).unwrap();
    rows
}

fn row(
    platform: PlatformId,
    workload: &'static str,
    (bytes, segments): (usize, usize),
    nonblocking: bool,
    p: &Proc,
    rt: &ArmciMpi,
    since: &Sample,
) -> Row {
    let arm = if nonblocking { "nb" } else { "blocking" };
    let mut row = Row::new(platform, workload, arm, 2, 1).resolved(rt);
    row.params = vec![
        ("bytes", bytes.to_value()),
        ("segments", segments.to_value()),
    ];
    row.add(&Sample::now(p, rt).since(since));
    row.record(&obs::metrics::Registry::from_events(&obs::take_local()));
    row
}

const COLUMNS: &[Column] = &[
    ("bytes", |r| r.param("bytes")),
    ("segs", |r| r.param("segments")),
    ("plan_µs", |r| r.stage.plan_s * 1e6),
    ("acquire_µs", |r| r.stage.acquire_s * 1e6),
    ("execute_µs", |r| r.stage.execute_s * 1e6),
    ("complete_µs", |r| r.stage.complete_s * 1e6),
    ("acq", |r| r.stage.acquires as f64),
    ("agg", |r| r.stage.nb_aggregated as f64),
];

/// The artifact for one platform; the headline counts the epochs the
/// nonblocking bursts paid against the blocking ones.
pub fn table(platform: PlatformId) -> Table {
    let rows = generate(platform);
    let acquires = |arm| -> u64 {
        let of_arm = rows.iter().filter(|r| r.arm == arm);
        of_arm.map(|r| r.stage.acquires).sum()
    };
    let headline = format!(
        "epochs over every burst: {} nonblocking vs {} blocking\n",
        acquires("nb"),
        acquires("blocking")
    );
    let title = "Engine pipeline breakdown — burst of 4 ops, virtual µs per stage";
    Table::new(title, COLUMNS, rows, headline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_rows_cover_both_modes() {
        let rows = generate(PlatformId::InfiniBandCluster);
        let expect = 2 * (2 * contig_sizes().len() + strided_shapes().len());
        assert_eq!(rows.len(), expect);
        for r in &rows {
            let g = &r.stage;
            assert!(g.plans >= BURST as u64);
            assert!(g.executed_ops > 0);
            if r.arm == "nb" {
                // The burst aggregates into a single flush epoch.
                assert_eq!(g.acquires, 1, "{}: burst not aggregated", r.workload);
                assert!(g.nb_aggregated > 0);
                assert_eq!(g.completes, 1);
            } else {
                // One epoch per blocking transfer.
                assert_eq!(g.acquires as usize, BURST);
                assert_eq!(g.completes as usize, BURST);
            }
        }
    }

    #[test]
    fn accumulate_rows_exercise_the_pool() {
        let rows = generate(PlatformId::InfiniBandCluster);
        for r in rows.iter().filter(|r| r.workload == "contig-acc") {
            // Every accumulate stages through the pool.
            assert_eq!(
                (r.stage.pool_hits + r.stage.pool_misses) as usize,
                BURST,
                "{}B {}: takes",
                r.param("bytes"),
                r.arm
            );
            // At most one miss per burst: the first take warms the size
            // class, the rest hit it.
            assert!(r.stage.pool_hits as usize >= BURST - 1);
        }
        // Put rows never touch the pool.
        for r in rows.iter().filter(|r| r.workload == "contig-put") {
            assert_eq!(r.stage.pool_hits + r.stage.pool_misses, 0);
        }
    }

    #[test]
    fn nonblocking_burst_completes_sooner() {
        // The aggregated burst should spend no more total virtual time
        // across stages than the blocking one for large transfers.
        let rows = generate(PlatformId::InfiniBandCluster);
        let total =
            |r: &Row| r.stage.plan_s + r.stage.acquire_s + r.stage.execute_s + r.stage.complete_s;
        let big = *contig_sizes().last().unwrap() as f64;
        let find = |arm: &str| {
            rows.iter()
                .find(|r| r.workload == "contig-put" && r.param("bytes") == big && r.arm == arm)
                .unwrap()
        };
        let (b, nb) = (find("blocking"), find("nb"));
        assert!(
            total(nb) <= total(b) * 1.05,
            "nonblocking {} s vs blocking {} s",
            total(nb),
            total(b)
        );
    }

    #[test]
    fn generator_leaves_recorder_disarmed() {
        generate(PlatformId::InfiniBandCluster);
        assert!(
            !obs::enabled(),
            "the pipeline generator left this thread's recorder armed"
        );
    }
}
