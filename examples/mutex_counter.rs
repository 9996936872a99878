//! Synchronisation showcase: the Latham queueing mutex (§V-D) protecting
//! a shared work log, and the mutex-based `ARMCI_Rmw` versus the MPI-3
//! `fetch_and_op` extension (§VIII-B).
//!
//! ```sh
//! cargo run --example mutex_counter
//! ```

use armci::{Armci, ArmciExt};
use armci_mpi::{ArmciMpi, Config};
use mpisim::{Runtime, RuntimeConfig};

fn main() {
    let n = 6;

    // --- Latham queueing mutexes protecting a critical section --------
    let cfg = RuntimeConfig::default();
    let times = Runtime::run_with(n, cfg, |p| {
        let rt = ArmciMpi::new(p);
        let bases = rt.malloc(16).unwrap();
        let h = rt.create_mutexes(1).unwrap();
        rt.barrier();
        for _ in 0..10 {
            rt.lock_mutex(h, 0, 0).unwrap();
            // read-modify-write that would be racy without the mutex
            let v = rt.get_f64s(bases[0], 1).unwrap()[0];
            rt.put_f64s(&[v + 1.0], bases[0]).unwrap();
            rt.unlock_mutex(h, 0, 0).unwrap();
        }
        rt.barrier();
        let total = rt.get_f64s(bases[0], 1).unwrap()[0];
        rt.barrier();
        rt.destroy_mutexes(h).unwrap();
        rt.free(bases[p.rank()]).unwrap();
        (total, p.clock().now())
    });
    println!(
        "mutex-protected counter: {} (expected {}), max virtual time {:.1} µs",
        times[0].0,
        n * 10,
        times.iter().map(|t| t.1).fold(0.0f64, f64::max) * 1e6
    );

    // --- RMW ablation: MPI-2 mutex protocol vs MPI-3 fetch_and_op -----
    for (label, mpi3) in [
        ("MPI-2 mutex-based RMW", false),
        ("MPI-3 fetch_and_op ", true),
    ] {
        let cfg = RuntimeConfig::default();
        let t = Runtime::run_with(n, cfg, move |p| {
            let rt = ArmciMpi::with_config(
                p,
                Config {
                    // Native atomics are the default now; the MPI-2 arm
                    // must pin the mutex protocol to stay an ablation.
                    atomics: if mpi3 {
                        armci_mpi::AtomicsMode::Native
                    } else {
                        armci_mpi::AtomicsMode::MutexFallback
                    },
                    ..Default::default()
                },
            );
            let bases = rt.malloc(8).unwrap();
            rt.barrier();
            let t0 = p.clock().now();
            for _ in 0..50 {
                rt.fetch_add(bases[0], 1).unwrap();
            }
            let dt = (p.clock().now() - t0) / 50.0;
            rt.barrier();
            rt.free(bases[p.rank()]).unwrap();
            dt
        });
        let avg: f64 = t.iter().sum::<f64>() / n as f64;
        println!(
            "{label}: {:.2} µs per NXTVAL under {n}-way contention",
            avg * 1e6
        );
    }
}
