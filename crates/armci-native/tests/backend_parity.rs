//! ARMCI-Native under contention and on the wire: fetch-add tickets and
//! mutex-guarded counters stay exact with many ranks hammering one cell,
//! and its tuned InfiniBand protocols beat ARMCI-MPI (Figure 3b). Payload
//! parity of the two backends is checked by the differential oracle
//! (`crates/core/tests/differential.rs`).

use armci::{Armci, ArmciExt};
use armci_mpi::ArmciMpi;
use armci_native::ArmciNative;
use mpisim::{Runtime, RuntimeConfig};

fn quiet() -> RuntimeConfig {
    RuntimeConfig {
        charge_time: false,
        ..Default::default()
    }
}

#[test]
fn native_rmw_unique_under_contention() {
    let n = 6;
    let iters = 40;
    let results = Runtime::run_with(n, quiet(), move |p| {
        let rt = ArmciNative::new(p);
        let bases = rt.malloc(8).unwrap();
        rt.barrier();
        let mut got = Vec::with_capacity(iters);
        for _ in 0..iters {
            got.push(rt.fetch_add(bases[0], 1).unwrap());
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
        got
    });
    let mut all: Vec<i64> = results.into_iter().flatten().collect();
    all.sort_unstable();
    assert_eq!(all, (0..(n * iters) as i64).collect::<Vec<_>>());
}

#[test]
fn native_mutex_protects_counter() {
    let n = 5;
    let iters = 20;
    Runtime::run_with(n, quiet(), move |p| {
        let rt = ArmciNative::new(p);
        let bases = rt.malloc(8).unwrap();
        let h = rt.create_mutexes(1).unwrap();
        rt.barrier();
        for _ in 0..iters {
            rt.lock_mutex(h, 0, 2).unwrap();
            let v = rt.get_f64s(bases[0], 1).unwrap()[0];
            rt.put_f64s(&[v + 1.0], bases[0]).unwrap();
            rt.unlock_mutex(h, 0, 2).unwrap();
        }
        rt.barrier();
        assert_eq!(rt.get_f64s(bases[0], 1).unwrap()[0], (n * iters) as f64);
        rt.barrier();
        rt.destroy_mutexes(h).unwrap();
        rt.free(bases[p.rank()]).unwrap();
    });
}

#[test]
fn native_strided_roundtrip() {
    Runtime::run_with(2, quiet(), |p| {
        let rt = ArmciNative::new(p);
        let bases = rt.malloc(8 * 24).unwrap();
        rt.barrier();
        if p.rank() == 0 {
            let mut local = vec![0u8; 8 * 16];
            for (i, x) in local.iter_mut().enumerate() {
                *x = (i % 251) as u8;
            }
            rt.put_strided(&local, &[16], bases[1], &[24], &[16, 8])
                .unwrap();
            let mut back = vec![0u8; 8 * 16];
            rt.get_strided(bases[1], &[24], &mut back, &[16], &[16, 8])
                .unwrap();
            assert_eq!(back, local);
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    });
}

#[test]
fn native_faster_than_mpi_on_infiniband_contig() {
    // Figure 3b: the aggressively tuned IB native beats ARMCI-MPI.
    let time_one = |native: bool| -> f64 {
        Runtime::run(2, move |p| {
            let mut t = 0.0;
            let size = 1 << 20;
            macro_rules! drive {
                ($rt:expr) => {{
                    let rt = $rt;
                    let bases = rt.malloc(size).unwrap();
                    rt.barrier();
                    if p.rank() == 0 {
                        let buf = vec![1u8; size];
                        let t0 = p.clock().now();
                        rt.put(&buf, bases[1]).unwrap();
                        t = p.clock().now() - t0;
                    }
                    rt.barrier();
                    rt.free(bases[p.rank()]).unwrap();
                }};
            }
            if native {
                drive!(ArmciNative::new(p));
            } else {
                // Figure 3b compares *wire* protocol tuning; with both
                // ranks on one node ARMCI-MPI would otherwise take the
                // shared-memory tier and the comparison dissolves.
                drive!(ArmciMpi::with_config(
                    p,
                    armci_mpi::Config {
                        shm: false,
                        ..Default::default()
                    }
                ));
            }
            t
        })[0]
    };
    let t_native = time_one(true);
    let t_mpi = time_one(false);
    assert!(
        t_native < t_mpi,
        "native {t_native} should beat MPI {t_mpi} on InfiniBand"
    );
}

/// Rank 0 panics while it holds a queueing mutex that rank 1 waits for.
/// The run must fail with rank 0's panic rather than hang; a watchdog
/// bounds it at 10 s.
#[test]
fn native_mutex_holder_panic_fails_the_run() {
    let (tx, rx) = std::sync::mpsc::channel();
    let run = std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(|| {
            Runtime::run_with(2, quiet(), |p| {
                let rt = ArmciNative::new(p);
                let h = rt.create_mutexes(1).unwrap();
                if rt.rank() == 0 {
                    rt.lock_mutex(h, 0, 1).unwrap();
                }
                rt.barrier();
                if rt.rank() == 0 {
                    panic!("rank 0 fails holding the mutex");
                }
                rt.lock_mutex(h, 0, 1).unwrap();
            })
        });
        tx.send(outcome.err()).unwrap();
    });
    let payload = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("the run hung after rank 0 panicked")
        .expect("the run returned although rank 0 panicked");
    run.join().unwrap();
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"rank 0 fails holding the mutex")
    );
}
