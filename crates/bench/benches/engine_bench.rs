//! Criterion bench: the transfer engine's plan/issue/complete hot path.
//!
//! The virtual-time figures say what the *modelled* machines do; this
//! bench tracks what the harness itself costs in wall-clock to push one
//! operation through plan → acquire → execute → complete, so engine
//! refactors (and the progress-engine coupling on that path) show up as
//! regressions here rather than as mysteriously slow test suites.

use armci::Armci;
use armci_mpi::{ArmciMpi, Config, ProgressMode};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpisim::{Runtime, RuntimeConfig};

fn quiet() -> RuntimeConfig {
    RuntimeConfig {
        charge_time: false,
        semantic_checks: false,
        ..Default::default()
    }
}

/// Blocking contiguous ops through the full engine pipeline: per-op
/// epoch, plan, wire issue, completion at unlock.
fn bench_blocking_path(c: &mut Criterion) {
    const OPS: usize = 64;
    const BYTES: usize = 1 << 10;
    let mut g = c.benchmark_group("engine_blocking");
    g.sample_size(20);
    g.throughput(Throughput::Elements(OPS as u64 * 2));
    for (label, progress) in [
        ("progress_none", ProgressMode::None),
        ("progress_agent", ProgressMode::Agent),
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(label),
            &progress,
            |b, &progress| {
                b.iter(|| {
                    Runtime::run_with(2, quiet(), move |p| {
                        let rt = ArmciMpi::with_config(
                            p,
                            Config {
                                progress,
                                ..Default::default()
                            },
                        );
                        let bases = rt.malloc(BYTES).unwrap();
                        rt.barrier();
                        if p.rank() == 0 {
                            let src = vec![7u8; BYTES];
                            let mut dst = vec![0u8; BYTES];
                            for _ in 0..OPS {
                                rt.put(&src, bases[1]).unwrap();
                                rt.get(bases[1], &mut dst).unwrap();
                            }
                        }
                        rt.barrier();
                        rt.free(bases[p.rank()]).unwrap();
                    });
                });
            },
        );
    }
    g.finish();
}

/// Nonblocking aggregate path: plan + queue on issue, coalesced wire
/// runs and completion at wait.
fn bench_nonblocking_path(c: &mut Criterion) {
    const OPS: usize = 64;
    const BYTES: usize = 1 << 10;
    let mut g = c.benchmark_group("engine_nonblocking");
    g.sample_size(20);
    g.throughput(Throughput::Elements(OPS as u64));
    g.bench_function("nb_put_wait_all", |b| {
        b.iter(|| {
            Runtime::run_with(2, quiet(), move |p| {
                let rt = ArmciMpi::with_config(p, Config::default());
                let bases = rt.malloc(OPS * BYTES).unwrap();
                rt.barrier();
                if p.rank() == 0 {
                    let src = vec![7u8; BYTES];
                    let mut hs = Vec::with_capacity(OPS);
                    for i in 0..OPS {
                        hs.push(rt.nb_put(&src, bases[1].offset(i * BYTES)).unwrap());
                    }
                    rt.wait_all(hs).unwrap();
                }
                rt.barrier();
                rt.free(bases[p.rank()]).unwrap();
            });
        });
    });
    g.finish();
}

criterion_group!(benches, bench_blocking_path, bench_nonblocking_path);
criterion_main!(benches);
