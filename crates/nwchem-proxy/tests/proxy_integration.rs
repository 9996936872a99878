//! The proxy's correctness oracle: bit-exact energies across backends,
//! process counts, and tilings.

use armci_mpi::{ArmciMpi, OpStats};
use armci_native::ArmciNative;
use mpisim::{Runtime, RuntimeConfig};
use nwchem_proxy::{
    run_ccsd, run_ccsd_pipelined, run_ccsd_skewed, run_triples, CcsdConfig, CcsdResult,
};

fn quiet() -> RuntimeConfig {
    RuntimeConfig {
        charge_time: false,
        ..Default::default()
    }
}

fn ccsd_energy_mpi(n: usize, cfg: CcsdConfig) -> (f64, usize) {
    let res = Runtime::run_with(n, quiet(), move |p| {
        let rt = ArmciMpi::new(p);
        run_ccsd(p, &rt, &cfg)
    });
    let total_tasks = res.iter().map(|r| r.tasks_done).sum();
    (res[0].energy, total_tasks)
}

fn ccsd_energy_native(n: usize, cfg: CcsdConfig) -> (f64, usize) {
    let res = Runtime::run_with(n, quiet(), move |p| {
        let rt = ArmciNative::new(p);
        run_ccsd(p, &rt, &cfg)
    });
    let total_tasks = res.iter().map(|r| r.tasks_done).sum();
    (res[0].energy, total_tasks)
}

#[test]
fn ccsd_energy_identical_across_backends() {
    let cfg = CcsdConfig::tiny();
    let (e_mpi, t_mpi) = ccsd_energy_mpi(3, cfg);
    let (e_nat, t_nat) = ccsd_energy_native(3, cfg);
    assert!(e_mpi != 0.0, "energy unexpectedly zero");
    assert_eq!(e_mpi, e_nat, "backend energies differ");
    assert_eq!(t_mpi, cfg.ccsd_tasks() * cfg.iterations);
    assert_eq!(t_nat, cfg.ccsd_tasks() * cfg.iterations);
}

#[test]
fn ccsd_energy_independent_of_process_count() {
    let cfg = CcsdConfig::tiny();
    let (e1, _) = ccsd_energy_mpi(1, cfg);
    let (e2, _) = ccsd_energy_mpi(2, cfg);
    let (e5, _) = ccsd_energy_mpi(5, cfg);
    assert_eq!(e1, e2);
    assert_eq!(e2, e5);
}

#[test]
fn ccsd_energy_independent_of_tiling() {
    let a = CcsdConfig {
        no: 4,
        nv: 8,
        tile_o: 2,
        tile_v: 4,
        iterations: 1,
    };
    let b = CcsdConfig {
        no: 4,
        nv: 8,
        tile_o: 4,
        tile_v: 2,
        iterations: 1,
    };
    let c = CcsdConfig {
        no: 4,
        nv: 8,
        tile_o: 1,
        tile_v: 8,
        iterations: 1,
    };
    let (ea, _) = ccsd_energy_mpi(3, a);
    let (eb, _) = ccsd_energy_mpi(3, b);
    let (ec, _) = ccsd_energy_mpi(3, c);
    assert_eq!(ea, eb);
    assert_eq!(eb, ec);
}

#[test]
fn triples_energy_identical_across_backends_and_ranks() {
    let cfg = CcsdConfig::tiny();
    let e_m2 = Runtime::run_with(2, quiet(), move |p| {
        let rt = ArmciMpi::new(p);
        run_triples(p, &rt, &cfg).energy
    })[0];
    let e_m4 = Runtime::run_with(4, quiet(), move |p| {
        let rt = ArmciMpi::new(p);
        run_triples(p, &rt, &cfg).energy
    })[0];
    let e_n3 = Runtime::run_with(3, quiet(), move |p| {
        let rt = ArmciNative::new(p);
        run_triples(p, &rt, &cfg).energy
    })[0];
    assert!(e_m2 > 0.0);
    assert_eq!(e_m2, e_m4);
    assert_eq!(e_m2, e_n3);
}

#[test]
fn dynamic_load_balancing_splits_tasks() {
    // With several ranks, no rank should execute all tasks (NXTVAL works).
    let cfg = CcsdConfig {
        no: 4,
        nv: 8,
        tile_o: 1,
        tile_v: 2,
        iterations: 1,
    };
    let res = Runtime::run_with(4, quiet(), move |p| {
        let rt = ArmciMpi::new(p);
        run_ccsd(p, &rt, &cfg)
    });
    let total: usize = res.iter().map(|r| r.tasks_done).sum();
    assert_eq!(total, cfg.ccsd_tasks());
    let max = res.iter().map(|r| r.tasks_done).max().unwrap();
    assert!(max < total, "one rank hogged all {total} tasks");
}

#[test]
fn virtual_time_scales_down_with_ranks() {
    // More processes → less virtual time per rank (parallel speedup in
    // the simulated clock domain).
    let cfg = CcsdConfig {
        no: 4,
        nv: 16,
        tile_o: 2,
        tile_v: 4,
        iterations: 1,
    };
    let t1 = Runtime::run(1, move |p| {
        let rt = ArmciMpi::new(p);
        run_ccsd(p, &rt, &cfg).elapsed
    })[0];
    let t4: f64 = Runtime::run(4, move |p| {
        let rt = ArmciMpi::new(p);
        run_ccsd(p, &rt, &cfg).elapsed
    })
    .iter()
    .fold(0.0f64, |m, &t| m.max(t));
    assert!(
        t4 < 0.75 * t1,
        "no speedup: 1 rank {t1} vs 4 ranks {t4} virtual seconds"
    );
}

type Ladder<A> = fn(&mpisim::Proc, &A, &CcsdConfig) -> CcsdResult;

#[test]
fn overlap_schedule_reproduces_blocking_energy() {
    // The prefetch/deferred-accumulate pipeline, and the static cyclic
    // schedule, keep the arithmetic order of the blocking loop, so the
    // energy must be bit-exact — under both the MPI-2 epoch discipline
    // and epochless mode.
    let cfg = CcsdConfig::tiny();
    let skewed: Ladder<ArmciMpi> = |p, rt, cfg| run_ccsd_skewed(p, rt, cfg, 0.0);
    let ladders: [(&str, Ladder<ArmciMpi>); 2] =
        [("pipelined", run_ccsd_pipelined), ("skewed", skewed)];
    for epochless in [false, true] {
        let mk = move || armci_mpi::Config {
            epochless,
            ..Default::default()
        };
        let blocking = Runtime::run_with(3, quiet(), move |p| {
            let rt = ArmciMpi::with_config(p, mk());
            run_ccsd(p, &rt, &cfg)
        });
        assert!(blocking[0].energy != 0.0);
        let t_b: usize = blocking.iter().map(|r| r.tasks_done).sum();
        for &(name, ladder) in &ladders {
            let other = Runtime::run_with(3, quiet(), move |p| {
                let rt = ArmciMpi::with_config(p, mk());
                ladder(p, &rt, &cfg)
            });
            assert_eq!(
                blocking[0].energy, other[0].energy,
                "{name} energy diverged (epochless={epochless})"
            );
            let t_o: usize = other.iter().map(|r| r.tasks_done).sum();
            assert_eq!(t_b, t_o, "{name} task count (epochless={epochless})");
        }
    }
}

#[test]
fn overlap_schedule_saves_virtual_time_epochless() {
    // With real costs charged, the pipelined schedule should not be
    // slower than the blocking one (get→DGEMM→acc overlap hides
    // communication behind compute in the virtual clock).
    let cfg = CcsdConfig {
        no: 4,
        nv: 16,
        tile_o: 2,
        tile_v: 4,
        iterations: 1,
    };
    let mk = || armci_mpi::Config {
        epochless: true,
        // Overlap is a wire-path property: on a single node the shm
        // bypass completes every transfer eagerly and there is nothing
        // for the schedule to hide.
        shm: false,
        ..Default::default()
    };
    let makespan = |ladder: Ladder<ArmciMpi>| -> f64 {
        Runtime::run(2, move |p| {
            let rt = ArmciMpi::with_config(p, mk());
            ladder(p, &rt, &cfg).elapsed
        })
        .iter()
        .fold(0.0f64, |m, &t| m.max(t))
    };
    let t_block = makespan(run_ccsd);
    let t_overlap = makespan(run_ccsd_pipelined);
    assert!(
        t_overlap <= t_block * 1.05,
        "pipelined slower than blocking: {t_overlap} vs {t_block} virtual seconds"
    );
}

#[test]
fn overlap_schedule_runs_on_native_backend() {
    // Eager-completion backends run the same code path (handles complete
    // at issue); the energy is still bit-exact.
    let cfg = CcsdConfig::tiny();
    let energy = |ladder: Ladder<ArmciNative>| {
        Runtime::run_with(3, quiet(), move |p| {
            let rt = ArmciNative::new(p);
            ladder(p, &rt, &cfg).energy
        })[0]
    };
    assert_eq!(energy(run_ccsd), energy(run_ccsd_pipelined));
}

#[test]
fn ladders_are_pinned_bit_for_bit() {
    // Energy, every rank's virtual time and task count, and rank 0's
    // operation counters of each CCSD ladder under real cost charging.
    // A refactor of the ladders that moves a GA call, its order or its
    // arguments moves one of these.
    let cfg = CcsdConfig {
        no: 4,
        nv: 16,
        tile_o: 2,
        tile_v: 4,
        iterations: 1,
    };
    let skewed: Ladder<ArmciMpi> = |p, rt, cfg| run_ccsd_skewed(p, rt, cfg, 1.0);
    const ENERGY: u64 = 13810294860850141190;
    struct Pin {
        name: &'static str,
        ranks: usize,
        ladder: Ladder<ArmciMpi>,
        elapsed: u64,
        tasks: usize,
        rank0: OpStats,
    }
    let pins = [
        Pin {
            name: "blocking",
            ranks: 1,
            ladder: run_ccsd,
            elapsed: 4580063126041551573,
            tasks: 64,
            rank0: OpStats {
                epochs: 2117,
                puts: 3,
                gets: 2050,
                accs: 64,
                bytes_put: 557064,
                bytes_got: 2686976,
                bytes_acc: 32768,
                rmws: 65,
                rmw_native: 65,
                ..OpStats::default()
            },
        },
        Pin {
            name: "pipelined",
            ranks: 1,
            ladder: run_ccsd_pipelined,
            elapsed: 4579949678565498223,
            tasks: 64,
            rank0: OpStats {
                epochs: 2117,
                puts: 3,
                gets: 2050,
                accs: 64,
                bytes_put: 557064,
                bytes_got: 2686976,
                bytes_acc: 32768,
                rmws: 17,
                rmw_native: 17,
                ..OpStats::default()
            },
        },
        Pin {
            name: "skewed",
            ranks: 2,
            ladder: skewed,
            elapsed: 4575640161442256945,
            tasks: 32,
            rank0: OpStats {
                epochs: 1060,
                puts: 2,
                gets: 1026,
                accs: 32,
                bytes_put: 278528,
                bytes_got: 1343488,
                bytes_acc: 16384,
                rmws: 0,
                rmw_native: 0,
                ..OpStats::default()
            },
        },
    ];
    for Pin {
        name,
        ranks,
        ladder,
        elapsed,
        tasks,
        rank0,
    } in pins
    {
        let res = Runtime::run(ranks, move |p| {
            let rt = ArmciMpi::new(p);
            let r = ladder(p, &rt, &cfg);
            (r, rt.stats())
        });
        for (rank, (r, _)) in res.iter().enumerate() {
            assert_eq!(r.energy.to_bits(), ENERGY, "{name} rank {rank} energy");
            assert_eq!(r.elapsed.to_bits(), elapsed, "{name} rank {rank} elapsed");
            assert_eq!(r.tasks_done, tasks, "{name} rank {rank} tasks");
        }
        assert_eq!(res[0].1, rank0, "{name} rank 0 stats");
    }
}
