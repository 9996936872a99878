//! Structural tests via the OpStats counters: verify *how* each transfer
//! method maps onto MPI operations and epochs — one epoch per op for
//! conservative, one epoch for batched/datatype, flushes instead of
//! epochs in epochless mode, and the §V-D RMW protocol's mutex+2-epoch
//! shape.

use armci::{Armci, ArmciExt, IovDesc, StridedMethod};
use armci_mpi::{ArmciMpi, Config, OpStats};
use mpisim::{Proc, Runtime, RuntimeConfig};

fn quiet() -> RuntimeConfig {
    RuntimeConfig {
        charge_time: false,
        ..Default::default()
    }
}

/// Runs one 8-segment strided put under `cfg` and returns rank 0's
/// statistics delta.
fn strided_stats(cfg: Config) -> OpStats {
    Runtime::run_with(2, quiet(), move |p: &Proc| {
        let rt = ArmciMpi::with_config(p, cfg.clone());
        let bases = rt.malloc(8 * 32).unwrap();
        rt.barrier();
        let mut out = OpStats::default();
        if p.rank() == 0 {
            rt.reset_stats();
            let local = vec![1u8; 8 * 16];
            rt.put_strided(&local, &[16], bases[1], &[32], &[16, 8])
                .unwrap();
            out = rt.stats();
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
        out
    })
    .swap_remove(0)
}

#[test]
fn conservative_opens_one_epoch_per_segment() {
    let s = strided_stats(Config {
        strided: StridedMethod::IovConservative,
        ..Default::default()
    });
    assert_eq!(s.epochs, 8);
    assert_eq!(s.puts, 8);
    assert_eq!(s.bytes_put, 128);
}

#[test]
fn batched_opens_one_epoch_for_all_segments() {
    let s = strided_stats(Config {
        strided: StridedMethod::IovBatched { batch: 0 },
        ..Default::default()
    });
    assert_eq!(s.epochs, 1);
    assert_eq!(s.puts, 8);
}

#[test]
fn batched_respects_the_b_parameter() {
    let s = strided_stats(Config {
        strided: StridedMethod::IovBatched { batch: 3 },
        ..Default::default()
    });
    // 8 segments in chunks of 3 → 3 epochs
    assert_eq!(s.epochs, 3);
    assert_eq!(s.puts, 8);
}

#[test]
fn datatype_methods_issue_single_operation() {
    for m in [
        StridedMethod::IovDatatype,
        StridedMethod::Direct,
        StridedMethod::Auto,
    ] {
        let s = strided_stats(Config {
            strided: m,
            iov: m,
            ..Default::default()
        });
        assert_eq!(s.epochs, 1, "{m:?}");
        assert_eq!(s.puts, 1, "{m:?}");
        assert_eq!(s.bytes_put, 128, "{m:?}");
    }
}

#[test]
fn epochless_mode_flushes_instead_of_locking() {
    let s = strided_stats(Config {
        strided: StridedMethod::Direct,
        epochless: true,
        ..Default::default()
    });
    assert_eq!(s.epochs, 0);
    assert_eq!(s.flushes, 1);
    assert_eq!(s.puts, 1);
}

#[test]
fn rmw_protocol_shape_mpi2_vs_mpi3() {
    let shape = |cfg: Config| -> OpStats {
        Runtime::run_with(2, quiet(), move |p: &Proc| {
            let rt = ArmciMpi::with_config(p, cfg.clone());
            let bases = rt.malloc(8).unwrap();
            rt.barrier();
            let mut out = OpStats::default();
            if p.rank() == 0 {
                rt.reset_stats();
                rt.fetch_add(bases[1], 1).unwrap();
                out = rt.stats();
            }
            rt.barrier();
            rt.free(bases[p.rank()]).unwrap();
            out
        })
        .swap_remove(0)
    };
    // MPI-2: one mutex acquisition, two exclusive data epochs (read +
    // write) — plus the mutex's own internal epochs, counted inside the
    // MutexSet's window operations (not via epoch_begin), so `epochs`
    // counts exactly the two data epochs. Native atomics are the default
    // now, so the MPI-2 protocol shape requires the explicit fallback.
    let mpi2 = shape(Config {
        atomics: armci_mpi::AtomicsMode::MutexFallback,
        ..Default::default()
    });
    assert_eq!(mpi2.rmws, 1);
    assert_eq!(mpi2.mutex_locks, 1);
    assert_eq!(mpi2.rmw_mutex_fallback, 1);
    assert_eq!(mpi2.rmw_native, 0);
    assert_eq!(mpi2.gets, 1);
    assert_eq!(mpi2.puts, 1);
    assert_eq!(mpi2.epochs, 2);
    // MPI-3: a single atomic — no mutex, no extra data ops. This is the
    // default path (Config::atomics = Auto resolves to native here).
    let mpi3 = shape(Config::default());
    assert_eq!(mpi3.rmws, 1);
    assert_eq!(mpi3.mutex_locks, 0);
    assert_eq!(mpi3.rmw_native, 1);
    assert_eq!(mpi3.rmw_mutex_fallback, 0);
    assert_eq!(mpi3.gets, 0);
    assert_eq!(mpi3.puts, 0);
    // Forcing native atomics takes the same single-atomic shape.
    let native = shape(Config {
        atomics: armci_mpi::AtomicsMode::Native,
        ..Default::default()
    });
    assert_eq!(native.rmws, 1);
    assert_eq!(native.rmw_native, 1);
    assert_eq!(native.mutex_locks, 0);
}

#[test]
fn byte_accounting_matches_traffic() {
    Runtime::run_with(2, quiet(), |p: &Proc| {
        let rt = ArmciMpi::new(p);
        let bases = rt.malloc(1024).unwrap();
        rt.barrier();
        if p.rank() == 0 {
            rt.reset_stats();
            rt.put_f64s(&[0.0; 16], bases[1]).unwrap(); // 128 B
            let _ = rt.get_f64s(bases[1], 4).unwrap(); // 32 B
            rt.acc_f64s(2.0, &[1.0; 8], bases[1]).unwrap(); // 64 B
            let desc = IovDesc {
                rank: 1,
                bytes: 16,
                local_offsets: vec![0, 16],
                remote_addrs: vec![bases[1].addr + 256, bases[1].addr + 512],
            };
            rt.put_iov(&desc, &[7u8; 32]).unwrap(); // 32 B
            let s = rt.stats();
            assert_eq!(s.bytes_put, 128 + 32);
            assert_eq!(s.bytes_got, 32);
            assert_eq!(s.bytes_acc, 64);
            assert_eq!(s.rmws, 0);
        }
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
    });
}
