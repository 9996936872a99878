//! Criterion bench: RMW ablation (§V-D vs §VIII-B) and mutex throughput.
//!
//! The mutex-based MPI-2 RMW protocol is the paper's poster child for
//! what MPI-3 `fetch_and_op` fixes. Both paths run here under identical
//! contention; the virtual-time ratio is reported by the figure harness,
//! this bench tracks the wall-clock implementation cost.

use armci::{Armci, ArmciExt};
use armci_mpi::{ArmciMpi, Config};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpisim::{Runtime, RuntimeConfig};

fn quiet() -> RuntimeConfig {
    RuntimeConfig {
        charge_time: false,
        semantic_checks: false,
        ..Default::default()
    }
}

fn bench_rmw(c: &mut Criterion) {
    let mut g = c.benchmark_group("rmw_protocols");
    g.sample_size(20);
    for (label, mpi3) in [("mutex_mpi2", false), ("fetch_and_op_mpi3", true)] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &mpi3, |b, &mpi3| {
            b.iter(|| {
                let cfg = Config {
                    // The default resolves to native atomics; the MPI-2
                    // arm must really run the mutex protocol.
                    atomics: if mpi3 {
                        armci_mpi::AtomicsMode::Native
                    } else {
                        armci_mpi::AtomicsMode::MutexFallback
                    },
                    ..Default::default()
                };
                Runtime::run_with(4, quiet(), move |p| {
                    let rt = ArmciMpi::with_config(p, cfg.clone());
                    let bases = rt.malloc(8).unwrap();
                    rt.barrier();
                    for _ in 0..20 {
                        rt.fetch_add(bases[0], 1).unwrap();
                    }
                    rt.barrier();
                    rt.free(bases[p.rank()]).unwrap();
                });
            })
        });
    }
    g.finish();
}

fn bench_mutex_contention(c: &mut Criterion) {
    let mut g = c.benchmark_group("latham_mutex");
    g.sample_size(15);
    for &ranks in &[2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(ranks), &ranks, |b, &ranks| {
            b.iter(|| {
                Runtime::run_with(ranks, quiet(), |p| {
                    let rt = ArmciMpi::new(p);
                    let h = rt.create_mutexes(1).unwrap();
                    rt.barrier();
                    for _ in 0..10 {
                        rt.lock_mutex(h, 0, 0).unwrap();
                        rt.unlock_mutex(h, 0, 0).unwrap();
                    }
                    rt.barrier();
                    rt.destroy_mutexes(h).unwrap();
                    let _ = p;
                });
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_rmw, bench_mutex_contention);
criterion_main!(benches);
