//! Structural tests via the OpStats counters: verify *how* each transfer
//! method maps onto MPI operations and epochs — one epoch per op for
//! conservative, one epoch for batched/datatype, flushes instead of
//! epochs in epochless mode, and the §V-D RMW protocol's mutex+2-epoch
//! shape.

use armci::{AccKind, Armci, ArmciExt, ArmciResult, GlobalAddr, IovDesc, RmwOp, StridedMethod};
use armci_ds::run_with_servers;
use armci_mpi::{ArmciMpi, AtomicsMode, Config, OpStats, TransportKind};
use armci_native::ArmciNative;
use mpisim::{Proc, Runtime, RuntimeConfig};
use simnet::{Platform, PlatformId};
use std::fmt::Write;

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

/// Bytes of rank 1's memory the verb matrix addresses.
const REGION: usize = 4096;
/// The matrix's strided shape: 3×2 rows of 16 bytes. The remote strides
/// describe a dense array; the local ones do not (80 is no multiple of
/// 24), so under `Direct` a put or get falls back to the IOV datatype
/// method while an accumulate, whose origin is its contiguous staging
/// buffer, stays a subarray transfer.
const COUNT: [usize; 3] = [16, 3, 2];
const REMOTE_STRIDES: [usize; 2] = [64, 256];
const LOCAL_STRIDES: [usize; 2] = [24, 80];

/// The matrix's contiguous target (64 bytes) and IOV descriptor (four
/// disjoint, unsorted 16-byte segments), both clear of the strided patch.
fn matrix_iov(remote: GlobalAddr) -> IovDesc {
    IovDesc {
        rank: remote.rank,
        bytes: 16,
        local_offsets: vec![0, 48, 16, 96],
        remote_addrs: [2048, 2200, 2100, 2400]
            .iter()
            .map(|&o| remote.addr + o)
            .collect(),
    }
}

type Verb = fn(&dyn Armci, GlobalAddr, &mut [u8], AccKind) -> ArmciResult<()>;

/// Every data verb of the `Armci` trait; the `bool` marks accumulates,
/// which run once per scale.
const VERBS: [(&str, bool, Verb); 15] = [
    ("get", false, |rt, r, l, _| {
        rt.get(r.offset(3072), &mut l[..64])
    }),
    ("put", false, |rt, r, l, _| rt.put(&l[..64], r.offset(3072))),
    ("acc", true, |rt, r, l, k| {
        rt.acc(k, &l[..64], r.offset(3072))
    }),
    ("get_strided", false, |rt, r, l, _| {
        rt.get_strided(r, &REMOTE_STRIDES, l, &LOCAL_STRIDES, &COUNT)
    }),
    ("put_strided", false, |rt, r, l, _| {
        rt.put_strided(l, &LOCAL_STRIDES, r, &REMOTE_STRIDES, &COUNT)
    }),
    ("acc_strided", true, |rt, r, l, k| {
        rt.acc_strided(k, l, &LOCAL_STRIDES, r, &REMOTE_STRIDES, &COUNT)
    }),
    ("get_iov", false, |rt, r, l, _| {
        rt.get_iov(&matrix_iov(r), l)
    }),
    ("put_iov", false, |rt, r, l, _| {
        rt.put_iov(&matrix_iov(r), l)
    }),
    ("acc_iov", true, |rt, r, l, k| {
        rt.acc_iov(k, &matrix_iov(r), l)
    }),
    ("nb_get", false, |rt, r, l, _| {
        let h = rt.nb_get(r.offset(3072), &mut l[..64])?;
        rt.wait(h)
    }),
    ("nb_put", false, |rt, r, l, _| {
        let h = rt.nb_put(&l[..64], r.offset(3072))?;
        rt.wait(h)
    }),
    ("nb_acc", true, |rt, r, l, k| {
        let h = rt.nb_acc(k, &l[..64], r.offset(3072))?;
        rt.wait(h)
    }),
    ("nb_get_strided", false, |rt, r, l, _| {
        let h = rt.nb_get_strided(r, &REMOTE_STRIDES, l, &LOCAL_STRIDES, &COUNT)?;
        rt.wait(h)
    }),
    ("nb_put_strided", false, |rt, r, l, _| {
        let h = rt.nb_put_strided(l, &LOCAL_STRIDES, r, &REMOTE_STRIDES, &COUNT)?;
        rt.wait(h)
    }),
    ("nb_acc_strided", true, |rt, r, l, k| {
        let h = rt.nb_acc_strided(k, l, &LOCAL_STRIDES, r, &REMOTE_STRIDES, &COUNT)?;
        rt.wait(h)
    }),
];

/// Runs every verb (accumulates at scales 1 and 2) from rank 0 against
/// rank 1 on a separate node with time charging on, under `cfg`. Returns
/// a transcript of rank 0's `OpStats`, engine counters and virtual time
/// after each call, then the payload of both sides, plus rank 0's final
/// virtual time.
fn verb_matrix(cfg: Config) -> (String, f64) {
    let rc = matrix_runtime();
    Runtime::run_with(2, rc, move |p: &Proc| {
        let rt = ArmciMpi::with_config(p, cfg.clone());
        let bases = rt.malloc(REGION).unwrap();
        let me = bases[rt.rank()];
        fill_words(&rt, me);
        rt.barrier();
        let mut out = (String::new(), 0.0);
        if p.rank() == 0 {
            let mut local: Vec<u8> = (0..32)
                .flat_map(|i| (i as f64 * 0.5 - 3.0).to_le_bytes())
                .collect();
            rt.reset_stats();
            rt.reset_stage_stats();
            let t = &mut out.0;
            for (name, acc, verb) in VERBS {
                let scales: &[f64] = if acc { &[1.0, 2.0] } else { &[1.0] };
                for &scale in scales {
                    verb(&rt, bases[1], &mut local, AccKind::Double(scale)).unwrap();
                    let g = rt.stage_stats();
                    writeln!(
                        t,
                        "{name} x{scale}: {:?} plans={} planned_ops={} acquires={} \
                         executed_ops={} vtime={:#x}",
                        rt.stats(),
                        g.plans,
                        g.planned_ops,
                        g.acquires,
                        g.executed_ops,
                        rt.vtime().to_bits()
                    )
                    .unwrap();
                }
            }
            out.1 = rt.vtime();
            let mut remote = vec![0u8; REGION];
            rt.get(bases[1], &mut remote).unwrap();
            writeln!(t, "remote {remote:?}\nlocal {local:?}").unwrap();
        }
        rt.barrier();
        rt.free(me).unwrap();
        out
    })
    .swap_remove(0)
}

/// The verb matrix's runtime: the InfiniBand cluster with one core per
/// node, so every rank sits on its own node.
fn matrix_runtime() -> RuntimeConfig {
    let mut platform = Platform::get(PlatformId::InfiniBandCluster).customized("verb-matrix");
    platform.sockets_per_node = 1;
    platform.cores_per_socket = 1;
    RuntimeConfig {
        platform,
        ..Default::default()
    }
}

/// Fills the caller's slice `me` with its f64 word indices.
fn fill_words(rt: &dyn Armci, me: GlobalAddr) {
    rt.access_mut(me, REGION, &mut |b| {
        for (i, c) in b.chunks_exact_mut(8).enumerate() {
            c.copy_from_slice(&(i as f64).to_le_bytes());
        }
    })
    .unwrap();
}

/// Runs every verb (accumulates at scales 1 and 2) from the calling rank
/// against `remote`. Returns a transcript of the caller's virtual time
/// after each call, then the payload of both sides, plus the final
/// virtual time.
fn backend_matrix(p: &Proc, rt: &dyn Armci, remote: GlobalAddr) -> (String, f64) {
    let mut local: Vec<u8> = (0..32)
        .flat_map(|i| (i as f64 * 0.5 - 3.0).to_le_bytes())
        .collect();
    let mut t = String::new();
    for (name, acc, verb) in VERBS {
        let scales: &[f64] = if acc { &[1.0, 2.0] } else { &[1.0] };
        for &scale in scales {
            verb(rt, remote, &mut local, AccKind::Double(scale)).unwrap();
            writeln!(t, "{name} x{scale}: vtime={:#x}", p.clock().now().to_bits()).unwrap();
        }
    }
    let end = p.clock().now();
    let mut bytes = vec![0u8; REGION];
    rt.get(remote, &mut bytes).unwrap();
    writeln!(t, "remote {bytes:?}\nlocal {local:?}").unwrap();
    (t, end)
}

/// Pins the payload and rank 0's virtual time of all 15 data verbs on
/// the two other backends: ARMCI-Native from rank 0 against rank 1, and
/// ARMCI-DS with one compute rank against its own slice (one client, so
/// its server sees the requests in program order).
#[test]
fn native_and_ds_verb_pricing_is_pinned() {
    let native = Runtime::run_with(2, matrix_runtime(), |p: &Proc| {
        let rt = ArmciNative::new(p);
        let bases = rt.malloc(REGION).unwrap();
        fill_words(&rt, bases[p.rank()]);
        rt.barrier();
        let out = if p.rank() == 0 {
            backend_matrix(p, &rt, bases[1])
        } else {
            (String::new(), 0.0)
        };
        rt.barrier();
        rt.free(bases[p.rank()]).unwrap();
        out
    })
    .swap_remove(0);
    let ds = run_with_servers(1, matrix_runtime(), |p, rt| {
        let bases = rt.malloc(REGION).unwrap();
        fill_words(rt, bases[0]);
        let out = backend_matrix(p, rt, bases[0]);
        rt.free(bases[0]).unwrap();
        out
    })
    .swap_remove(0);
    let pinned = [
        (
            "native",
            native,
            0x0f36_0b13_ef2e_b34d,
            0x3f42_7790_a6cb_7026,
        ),
        ("ds", ds, 0xde3d_e1cf_3e65_4f92, 0x3f26_f2cb_3923_e309),
    ];
    for (name, (transcript, t), digest, vtime) in pinned {
        println!(
            "{name}: digest {:#x}, vtime {:#x} ({t:e} s)",
            fnv1a(&transcript),
            t.to_bits()
        );
        assert_eq!(
            (fnv1a(&transcript), t.to_bits()),
            (digest, vtime),
            "{name} moved; transcript:\n{transcript}"
        );
    }
}

/// FNV-1a, so one `u64` pins a whole transcript.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins the payload, operation statistics, engine counters and rank 0's
/// virtual time of all 15 data verbs under each of the five strided/IOV
/// methods — one transcript digest and one final time per method.
#[test]
fn verb_matrix_is_pinned_under_every_method() {
    let pinned: [(StridedMethod, u64, u64); 5] = [
        (
            StridedMethod::IovConservative,
            0xc0cf_409c_79f5_c634,
            0x3f3c_7b34_7248_6807,
        ),
        (
            StridedMethod::IovBatched { batch: 4 },
            0x7e64_ca79_f06b_c265,
            0x3f33_1cc3_147e_cfcb,
        ),
        (
            StridedMethod::IovDatatype,
            0x209f_524a_f380_0d31,
            0x3f2f_5035_c5bb_b3b0,
        ),
        (
            StridedMethod::Direct,
            0xe9e0_88f4_bbb6_1a61,
            0x3f2f_8c9b_a797_dc3b,
        ),
        (
            StridedMethod::Auto,
            0xb833_4989_f000_9562,
            0x3f2f_6528_9419_75cc,
        ),
    ];
    for (method, digest, vtime) in pinned {
        let (transcript, t) = verb_matrix(Config {
            strided: method,
            iov: method,
            ..Default::default()
        });
        println!(
            "{method:?}: digest {:#x}, vtime {:#x} ({t:e} s)",
            fnv1a(&transcript),
            t.to_bits()
        );
        assert_eq!(
            (fnv1a(&transcript), t.to_bits()),
            (digest, vtime),
            "{method:?} moved; transcript:\n{transcript}"
        );
    }
}

/// The verb matrix under the two other wire disciplines: the channel
/// backend (offloaded contiguous transfers, software fallback for the
/// rest, no epochs) and MPI-3 epochless RMA (`lock_all` + `flush`), both
/// with the default strided and IOV methods.
#[test]
fn verb_matrix_is_pinned_per_wire_backend() {
    let pinned = [
        (
            "channel",
            Config {
                transport: TransportKind::Channel,
                ..Default::default()
            },
            0xbcb3_26d1_c6c8_2872,
            0x3f23_3ad1_9348_a8ec,
        ),
        (
            "epochless",
            Config {
                epochless: true,
                ..Default::default()
            },
            0xe61b_4f5d_611c_da9e,
            0x3f31_2c20_e3cb_3709,
        ),
    ];
    // Every digest is printed before the first mismatch fails.
    let runs: Vec<_> = pinned
        .into_iter()
        .map(|(name, cfg, digest, vtime)| {
            let (transcript, t) = verb_matrix(cfg);
            println!(
                "{name}: digest {:#x}, vtime {:#x} ({t:e} s)",
                fnv1a(&transcript),
                t.to_bits()
            );
            (name, transcript, t, digest, vtime)
        })
        .collect();
    for (name, transcript, t, digest, vtime) in runs {
        assert_eq!(
            (fnv1a(&transcript), t.to_bits()),
            (digest, vtime),
            "{name} moved; transcript:\n{transcript}"
        );
    }
}

/// Runs the atomic verbs from rank 0 against rank 1 on a separate node
/// with time charging on, under `cfg`: an `rmw` fetch-and-add and swap, a
/// compare-and-swap that hits and one that misses, and a lock/unlock of
/// a user mutex hosted on rank 1. Returns a transcript of each call's
/// result and rank 0's `OpStats`, `TransportStats` and virtual time after
/// it, plus rank 0's final virtual time.
fn atomics_transcript(cfg: Config) -> (String, f64) {
    Runtime::run_with(2, matrix_runtime(), move |p: &Proc| {
        let rt = ArmciMpi::with_config(p, cfg.clone());
        let bases = rt.malloc(64).unwrap();
        let mutexes = rt.create_mutexes(1).unwrap();
        rt.barrier();
        let mut out = (String::new(), 0.0);
        if p.rank() == 0 {
            let cell = bases[1].offset(8);
            rt.reset_stats();
            type Step<'a> = Box<dyn Fn() -> ArmciResult<i64> + 'a>;
            let steps: [(&str, Step); 6] = [
                ("fetch_add", Box::new(|| rt.rmw(RmwOp::FetchAdd(5), cell))),
                ("swap", Box::new(|| rt.rmw(RmwOp::Swap(42), cell))),
                ("cas_hit", Box::new(|| rt.compare_and_swap(42, 7, cell, 8))),
                ("cas_miss", Box::new(|| rt.compare_and_swap(42, 9, cell, 8))),
                (
                    "lock",
                    Box::new(|| rt.lock_mutex(mutexes, 0, 1).map(|()| 0)),
                ),
                (
                    "unlock",
                    Box::new(|| rt.unlock_mutex(mutexes, 0, 1).map(|()| 0)),
                ),
            ];
            let t = &mut out.0;
            for (name, step) in steps {
                let v = step().unwrap();
                writeln!(
                    t,
                    "{name}: {v} {:?} {:?} vtime={:#x}",
                    rt.stats(),
                    rt.transport_stats(),
                    rt.vtime().to_bits()
                )
                .unwrap();
            }
            out.1 = rt.vtime();
        }
        rt.barrier();
        rt.destroy_mutexes(mutexes).unwrap();
        rt.free(bases[p.rank()]).unwrap();
        out
    })
    .swap_remove(0)
}

/// Pins the atomics transcript under per-op MPI-2 epochs, MPI-3
/// epochless RMA, the channel backend (all with native atomics) and the
/// §V-D mutex fallback.
#[test]
fn atomics_are_pinned_per_discipline() {
    let pinned = [
        (
            "mpi2",
            Config::default(),
            0x2840_c57d_f359_f685,
            0x3f0e_6fd5_9db6_06d9,
        ),
        (
            "epochless",
            Config {
                epochless: true,
                ..Default::default()
            },
            0x460a_7028_4de4_9ef9,
            0x3f0b_8037_14c9_63ae,
        ),
        (
            "channel",
            Config {
                transport: TransportKind::Channel,
                ..Default::default()
            },
            0x4263_2610_ba64_b650,
            0x3f06_9a82_7de1_b975,
        ),
        (
            "mutex-fallback",
            Config {
                atomics: AtomicsMode::MutexFallback,
                ..Default::default()
            },
            0x82dd_f93b_f465_7bf4,
            0x3f21_3117_5755_537a,
        ),
    ];
    // Every digest is printed before the first mismatch fails.
    let runs: Vec<_> = pinned
        .into_iter()
        .map(|(name, cfg, digest, vtime)| {
            let (transcript, t) = atomics_transcript(cfg);
            println!(
                "{name}: digest {:#x}, vtime {:#x} ({t:e} s)",
                fnv1a(&transcript),
                t.to_bits()
            );
            (name, transcript, t, digest, vtime)
        })
        .collect();
    for (name, transcript, t, digest, vtime) in runs {
        assert_eq!(
            (fnv1a(&transcript), t.to_bits()),
            (digest, vtime),
            "{name} moved; transcript:\n{transcript}"
        );
    }
}
