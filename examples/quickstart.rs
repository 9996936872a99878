//! Quickstart: create a distributed global array over ARMCI-MPI, use
//! one-sided put/get/accumulate, and read the result.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use armci::Armci;
use armci_mpi::{ArmciMpi, Config};
use ga::{GaType, GlobalArray};
use mpisim::{Runtime, RuntimeConfig};
use simnet::PlatformId;

fn main() {
    // Record every RMA event (epochs, ops, staging) for the closing
    // observability report.
    obs::enable();
    // Four simulated MPI processes on the InfiniBand cluster model.
    let cfg = RuntimeConfig::on_platform(PlatformId::InfiniBandCluster);
    Runtime::run_with(4, cfg, |p| {
        // Bootstrap ARMCI-MPI (the paper's runtime) on this process,
        // using the MPI-3 epochless passive mode so the coalescing
        // scheduler can keep one queue per target open at a time.
        // `ProgressMode::Agent` turns on the per-node asynchronous
        // progress agent — passive-target traffic aimed at busy ranks is
        // drained by the agent instead of stalling until the target
        // re-enters MPI.
        let rt = ArmciMpi::with_config(
            p,
            Config {
                epochless: true,
                progress: armci_mpi::ProgressMode::Agent,
                ..Config::default()
            },
        );

        // Collectively create an 8×8 shared array of f64, block
        // distributed across the four processes.
        let a = GlobalArray::create(&rt, "demo", GaType::F64, &[8, 8]).unwrap();
        a.zero().unwrap();

        // Rank 0 writes a patch spanning several owners with one call;
        // the GA layer fans it out into strided ARMCI operations
        // (Figure 2 of the paper).
        if rt.rank() == 0 {
            let patch: Vec<f64> = (0..36).map(|i| i as f64).collect();
            a.put_patch(&[1, 1], &[7, 7], &patch).unwrap();
        }
        a.sync();

        // Everyone accumulates 0.5 into the centre (atomic per element).
        a.acc_patch(0.5, &[3, 3], &[5, 5], &[1.0; 4]).unwrap();
        a.sync();

        // Rank 0 streams one row per nonblocking put; the coalescing
        // scheduler queues them per target, merges adjacent spans, and
        // issues each train under a single coarsened epoch.
        if rt.rank() == 0 {
            let mut pending = Vec::new();
            for row in 0..4 {
                let data = vec![row as f64; 8];
                pending.push(a.nb_put_patch(&[row, 0], &[row + 1, 8], &data).unwrap());
            }
            for h in pending {
                a.nb_wait(h).unwrap();
            }
        }
        a.sync();

        // Every rank claims task tickets from a shared NXTVAL counter —
        // the §V-D hot counter, served here by native MPI-3 fetch_and_op
        // (the default atomics mode) behind a per-node sharded cache.
        let counter = armci_mpi::NxtvalCounter::create(&rt, 8).unwrap();
        let mut tickets = Vec::new();
        for _ in 0..3 {
            tickets.push(counter.next(&rt).unwrap());
        }
        rt.barrier();
        counter.drain(&rt).unwrap();
        rt.barrier();
        if rt.rank() == 1 {
            println!("rank 1 claimed tickets {tickets:?}");
        }
        counter.destroy(&rt).unwrap();

        // Any process can read any patch, one-sided.
        if rt.rank() == 2 {
            let centre = a.get_patch(&[3, 3], &[5, 5]).unwrap();
            println!("centre patch as seen by rank 2: {centre:?}");
            let full_sum: f64 = a.get_patch(&[0, 0], &[8, 8]).unwrap().iter().sum();
            println!("sum of all elements: {full_sum}");
            println!("virtual time on rank 2: {:.3} µs", p.clock().now() * 1e6);
        }

        a.sync();

        // The runtime keeps per-stage counters for every transfer it
        // executed, including the registration-aware staging pool that
        // backs accumulate/strided scratch buffers.
        if rt.rank() == 0 {
            let s = rt.stage_stats();
            println!(
                "engine: {} plans, {} ops executed, {} epochs acquired",
                s.plans, s.executed_ops, s.acquires
            );
            let takes = s.pool_hits + s.pool_misses;
            let hit_rate = if takes > 0 {
                s.pool_hits as f64 / takes as f64
            } else {
                0.0
            };
            println!(
                "staging pool: {} takes, {:.0}% hit rate, {:.3} µs registering",
                takes,
                hit_rate * 100.0,
                s.pool_reg_s * 1e6
            );
            println!(
                "scheduler: {} ops coalesced away, {} epochs saved, {:.0}% dtype cache hits",
                s.sched_ops_merged(),
                s.sched_epochs_saved(),
                s.dtype_hit_rate() * 100.0
            );
            // Four ranks on the 8-core-node InfiniBand model share one
            // node, so node-local transfers take the shared-memory
            // load/store fast path instead of the NIC.
            println!(
                "shm tier: {} intra-node hits ({:.0}% of routed ops), {} B bypassed the NIC",
                s.shm_hits,
                s.shm_hit_rate() * 100.0,
                s.shm_bypass_bytes
            );
            // The synchronization stack: which RMW discipline served the
            // ticket claims, and how contended the shard CAS was.
            let o = rt.stats();
            let retry_rate = if o.rmws > 0 {
                o.cas_retries as f64 / o.rmws as f64
            } else {
                0.0
            };
            println!(
                "atomics: mode {} ({} native, {} mutex-fallback, {:.2} CAS retries/op)",
                rt.atomics_mode_name(),
                o.rmw_native,
                o.rmw_mutex_fallback,
                retry_rate
            );
            // Which progress discipline `Auto` resolved to on this
            // platform/backend combination.
            println!("progress: mode {}", rt.progress_mode_name());
        }

        a.sync();
        a.destroy().unwrap();
    });

    // Fold every rank's recorded events into the one-screen obs report
    // (ops and bytes per kind, epoch counts and hold time, pool
    // hit-rate), then check the trace against the epoch invariants.
    let events = obs::take();
    let reg = obs::metrics::Registry::from_events(&events);
    print!("{}", reg.render());
    // Where was blocked time spent, and what would speeding it up buy?
    let ws = obs::waitstate::analyze(&events);
    println!(
        "waits: top category `{}`, post-agent progress.stall_s={:.6} \
         ({} ops drained by the agent), {:.0}% of non-compute time attributed",
        ws.top_category().map(|(c, _)| c).unwrap_or("none"),
        reg.time("progress.stall_s"),
        reg.counter("progress.agent_ops"),
        ws.attributed_fraction() * 100.0
    );
    let violations = obs::audit::audit(&events);
    if violations.is_empty() {
        println!("epoch audit: clean ({} events)", events.len());
    } else {
        for v in &violations {
            eprintln!("epoch audit: {v}");
        }
    }

    // A taste of the workload suite (crates/workloads): the
    // KV/parameter-server driver on the same stack, checked against its
    // linearizable-counter oracle. `figures -- workloads` sweeps this
    // plus the graph and stencil drivers across every Config axis.
    let kv_opts = workloads::KvOpts::default();
    let kv = workloads::kv::execute(
        4,
        RuntimeConfig::on_platform(PlatformId::InfiniBandCluster),
        Config::default(),
        &kv_opts,
    );
    workloads::kv::verify(&kv_opts, &kv).expect("kv oracle");
    println!(
        "workload suite: kv driver linearized {} hot-key RMW/get ops over {} keys \
         in {:.3} ms virtual (oracle ok; graph + stencil drivers ride the same stack)",
        kv.iter().map(|r| r.ops).sum::<u64>(),
        kv_opts.keys,
        kv.iter().map(|r| r.elapsed_s).fold(0.0, f64::max) * 1e3,
    );
    println!("quickstart finished.");
}
