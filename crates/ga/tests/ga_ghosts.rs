//! Ghost-cell tests on both backends.

use armci::{Armci, ArmciError};
use armci_mpi::ArmciMpi;
use armci_native::ArmciNative;
use ga::ghosts::GhostBlock;
use ga::{GaType, GlobalArray};
use mpisim::{Proc, Runtime, RuntimeConfig};
use proptest::prelude::*;

fn quiet() -> RuntimeConfig {
    RuntimeConfig {
        charge_time: false,
        ..Default::default()
    }
}

fn on_both(n: usize, f: impl Fn(&Proc, &dyn Armci) + Send + Sync) {
    Runtime::run_with(n, quiet(), |p| f(p, &ArmciMpi::new(p)));
    Runtime::run_with(n, quiet(), |p| f(p, &ArmciNative::new(p)));
}

fn init(a: &GlobalArray<'_, dyn Armci + '_>, dims: &[usize]) {
    let (lo, hi) = a.my_block();
    if lo.iter().zip(&hi).all(|(&l, &h)| l < h) {
        let mut d = Vec::new();
        let mut idx = lo.clone();
        let total: usize = lo.iter().zip(&hi).map(|(&l, &h)| h - l).product();
        for _ in 0..total {
            let mut v = 0usize;
            for (x, n) in idx.iter().zip(dims) {
                v = v * n + x;
            }
            d.push(v as f64);
            for k in (0..idx.len()).rev() {
                idx[k] += 1;
                if idx[k] < hi[k] {
                    break;
                }
                idx[k] = lo[k];
            }
        }
        a.put_patch(&lo, &hi, &d).unwrap();
    }
    a.sync();
}

#[test]
fn ghost_margin_matches_direct_reads_2d() {
    on_both(4, |_, rt| {
        let dims = [10usize, 8];
        let a = GlobalArray::create(rt, "gh", GaType::F64, &dims).unwrap();
        init(&a, &dims);
        let g = a.fetch_ghosted(&[1, 1], false).unwrap();
        let (lo, hi) = a.my_block();
        // every in-array position within the halo equals the element value
        for i in lo[0].saturating_sub(1)..(hi[0] + 1).min(dims[0]) {
            for j in lo[1].saturating_sub(1)..(hi[1] + 1).min(dims[1]) {
                assert_eq!(g.at(&[i, j]), (i * dims[1] + j) as f64, "({i},{j})");
            }
        }
        a.sync();
        a.destroy().unwrap();
    });
}

#[test]
fn periodic_ghosts_wrap_around() {
    on_both(3, |_, rt| {
        let dims = [9usize];
        let a = GlobalArray::create(rt, "per", GaType::F64, &dims).unwrap();
        init(&a, &dims);
        let g = a.fetch_ghosted(&[2], true).unwrap();
        let (lo, hi) = a.my_block();
        // the left margin holds wrapped values
        for k in 1..=2usize {
            let gidx = (lo[0] + dims[0] - k) % dims[0];
            assert_eq!(
                g.rel(&[lo[0]], &[-(k as isize)]),
                gidx as f64,
                "left margin {k}"
            );
            let gidx = (hi[0] - 1 + k) % dims[0];
            assert_eq!(
                g.rel(&[hi[0] - 1], &[k as isize]),
                gidx as f64,
                "right margin {k}"
            );
        }
        a.sync();
        a.destroy().unwrap();
    });
}

#[test]
fn nonperiodic_outside_cells_are_zero() {
    on_both(2, |_, rt| {
        let dims = [6usize];
        let a = GlobalArray::create(rt, "np", GaType::F64, &dims).unwrap();
        a.fill(5.0).unwrap();
        let g = a.fetch_ghosted(&[2], false).unwrap();
        let (lo, hi) = a.my_block();
        if lo[0] == 0 {
            assert_eq!(g.rel(&[0], &[-1]), 0.0);
            assert_eq!(g.rel(&[0], &[-2]), 0.0);
        }
        if hi[0] == dims[0] {
            assert_eq!(g.rel(&[dims[0] - 1], &[1]), 0.0);
        }
        a.sync();
        a.destroy().unwrap();
    });
}

#[test]
fn interior_roundtrip_via_put_interior() {
    on_both(4, |_, rt| {
        let dims = [7usize, 7];
        let a = GlobalArray::create(rt, "ir", GaType::F64, &dims).unwrap();
        init(&a, &dims);
        let mut g = a.fetch_ghosted(&[1, 1], false).unwrap();
        // double the interior locally and write back
        let interior = g.interior();
        let (lo, hi) = a.my_block();
        let idims = [hi[0] - lo[0], hi[1] - lo[1]];
        for (k, v) in interior.iter().enumerate() {
            let (i, j) = (k / idims[1], k % idims[1]);
            let off = (i + 1) * g.dims[1] + (j + 1);
            g.data[off] = v * 2.0;
        }
        a.put_interior(&g).unwrap();
        a.sync();
        let full = a.get_patch(&[0, 0], &dims).unwrap();
        for i in 0..dims[0] {
            for j in 0..dims[1] {
                assert_eq!(full[i * dims[1] + j], 2.0 * (i * dims[1] + j) as f64);
            }
        }
        a.sync();
        a.destroy().unwrap();
    });
}

#[test]
fn ghost_stencil_matches_manual_halo() {
    // A 5-point Laplacian computed via ghost blocks equals one computed
    // from the full array.
    on_both(6, |_, rt| {
        let dims = [12usize, 12];
        let a = GlobalArray::create(rt, "st", GaType::F64, &dims).unwrap();
        init(&a, &dims);
        let full = a.get_patch(&[0, 0], &dims).unwrap();
        let g = a.fetch_ghosted(&[1, 1], true).unwrap();
        let (lo, hi) = a.my_block();
        for i in lo[0]..hi[0] {
            for j in lo[1]..hi[1] {
                let lap = g.rel(&[i, j], &[-1, 0])
                    + g.rel(&[i, j], &[1, 0])
                    + g.rel(&[i, j], &[0, -1])
                    + g.rel(&[i, j], &[0, 1])
                    - 4.0 * g.at(&[i, j]);
                let wrap = |x: isize, n: usize| -> usize { x.rem_euclid(n as isize) as usize };
                let ref_lap = full[wrap(i as isize - 1, dims[0]) * dims[1] + j]
                    + full[wrap(i as isize + 1, dims[0]) * dims[1] + j]
                    + full[i * dims[1] + wrap(j as isize - 1, dims[1])]
                    + full[i * dims[1] + wrap(j as isize + 1, dims[1])]
                    - 4.0 * full[i * dims[1] + j];
                assert_eq!(lap, ref_lap, "({i},{j})");
            }
        }
        a.sync();
        a.destroy().unwrap();
    });
}

#[test]
fn bad_ghost_requests_rejected() {
    on_both(2, |_, rt| {
        let a = GlobalArray::create(rt, "bad", GaType::F64, &[4, 4]).unwrap();
        assert!(a.fetch_ghosted(&[1], false).is_err()); // wrong rank
        assert!(a.fetch_ghosted(&[4, 1], false).is_err()); // width ≥ dim
        let c = GlobalArray::create(rt, "i64", GaType::I64, &[4]).unwrap();
        assert!(c.fetch_ghosted(&[1], false).is_err()); // wrong type
        a.sync();
        a.destroy().unwrap();
        c.destroy().unwrap();
    });
}

/// One refresh of a reused block: array dims, ghost widths (each below
/// its dim) and periodicity.
#[derive(Debug, Clone)]
struct Refresh {
    dims: Vec<usize>,
    width: Vec<usize>,
    periodic: bool,
}

fn arb_refresh() -> impl Strategy<Value = Refresh> {
    (1usize..4)
        .prop_flat_map(|nd| {
            (
                proptest::collection::vec(2usize..8, nd),
                proptest::collection::vec(0usize..8, nd),
                0u8..2,
            )
        })
        .prop_map(|(dims, raw, periodic)| Refresh {
            width: raw.iter().zip(&dims).map(|(&w, &n)| w % n).collect(),
            dims,
            periodic: periodic == 1,
        })
}

/// The value refresh `round` stores at flat index `flat`: nonzero, and
/// distinct across rounds, so a stale or missing ghost cell shows.
fn value(round: usize, flat: usize) -> f64 {
    (1000 * (round + 1) + flat) as f64
}

/// What a refreshed block must hold, element by element, built from
/// global indices alone.
fn expected_block(r: &Refresh, round: usize, lo: &[usize], hi: &[usize]) -> Vec<f64> {
    let n = r.dims.len();
    let bdims: Vec<usize> = (0..n).map(|d| hi[d] - lo[d] + 2 * r.width[d]).collect();
    let total: usize = bdims.iter().product();
    if lo.iter().zip(hi).any(|(&l, &h)| l >= h) {
        return vec![0.0; total.max(1)];
    }
    (0..total)
        .map(|k| {
            // local index of element k, last dimension fastest
            let mut rest = k;
            let mut local = vec![0usize; n];
            for d in (0..n).rev() {
                local[d] = rest % bdims[d];
                rest /= bdims[d];
            }
            let mut flat = 0usize;
            for d in 0..n {
                let g = (lo[d] + local[d]) as isize - r.width[d] as isize;
                let dim = r.dims[d] as isize;
                let g = if r.periodic {
                    g.rem_euclid(dim)
                } else if g < 0 || g >= dim {
                    return 0.0;
                } else {
                    g
                };
                flat = flat * r.dims[d] + g as usize;
            }
            value(round, flat)
        })
        .collect()
}

/// Runs a sequence of refreshes of one reused block and checks each
/// against [`expected_block`] and a fresh `fetch_ghosted`.
fn check_refreshes(rt: &dyn Armci, refreshes: &[Refresh]) {
    let mut block = GhostBlock::default();
    for (round, r) in refreshes.iter().enumerate() {
        let a = GlobalArray::create(rt, "refresh", GaType::F64, &r.dims).unwrap();
        let (lo, hi) = a.my_block();
        if lo.iter().zip(&hi).all(|(&l, &h)| l < h) {
            let total: usize = lo.iter().zip(&hi).map(|(&l, &h)| h - l).product();
            let mut data = Vec::with_capacity(total);
            let mut idx = lo.clone();
            for _ in 0..total {
                let mut flat = 0usize;
                for (x, n) in idx.iter().zip(&r.dims) {
                    flat = flat * n + x;
                }
                data.push(value(round, flat));
                for k in (0..idx.len()).rev() {
                    idx[k] += 1;
                    if idx[k] < hi[k] {
                        break;
                    }
                    idx[k] = lo[k];
                }
            }
            a.put_patch(&lo, &hi, &data).unwrap();
        }
        a.sync();
        a.fetch_ghosted_into(&r.width, r.periodic, &mut block)
            .unwrap();
        assert_eq!(block.data, expected_block(r, round, &lo, &hi), "{r:?}");
        assert_eq!(block, a.fetch_ghosted(&r.width, r.periodic).unwrap());
        a.sync();
        a.destroy().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A block reused across refreshes that change the array, the width
    /// and the periodicity always equals the reference, including
    /// non-periodic margins after a periodic refresh filled them.
    #[test]
    fn reused_block_refresh_matches_reference(
        ranks in 1usize..5,
        refreshes in proptest::collection::vec(arb_refresh(), 2..5),
    ) {
        on_both(ranks, |_, rt| check_refreshes(rt, &refreshes));
    }
}

#[test]
fn strided_get_lands_patch_and_leaves_the_rest() {
    on_both(3, |_, rt| {
        let dims = [6usize, 5];
        let a = GlobalArray::create(rt, "ld", GaType::F64, &dims).unwrap();
        init(&a, &dims);
        // patch [1,4)×[2,5) at (2,1) of a 5×6 buffer
        let mut out = vec![-1.0; 30];
        a.get_patch_strided(&[1, 2], &[4, 5], &mut out, &[5, 6], &[2, 1])
            .unwrap();
        for i in 0..5 {
            for j in 0..6 {
                let want = if (2..5).contains(&i) && (1..4).contains(&j) {
                    ((i - 1) * dims[1] + (j + 1)) as f64
                } else {
                    -1.0
                };
                assert_eq!(out[i * 6 + j], want, "({i},{j})");
            }
        }
        a.sync();
        a.destroy().unwrap();
    });
}

#[test]
fn bad_strided_get_descriptors_rejected() {
    on_both(2, |_, rt| {
        let a = GlobalArray::create(rt, "bad-ld", GaType::F64, &[4, 4]).unwrap();
        let c = GlobalArray::create(rt, "bad-ld-i64", GaType::I64, &[4, 4]).unwrap();
        let mut out = vec![0.0; 16];
        let bad = |r: Result<(), ArmciError>, what: &str| {
            assert!(
                matches!(r, Err(ArmciError::BadDescriptor(_))),
                "{what}: {r:?}"
            );
        };
        let (lo, hi) = ([1usize, 1], [3usize, 3]);
        bad(
            a.get_patch_strided(&lo, &hi, &mut out, &[16], &[0, 0]),
            "ld rank",
        );
        bad(
            a.get_patch_strided(&lo, &hi, &mut out, &[4, 4], &[0]),
            "origin rank",
        );
        bad(
            a.get_patch_strided(&lo, &hi, &mut out, &[4, 4], &[3, 0]),
            "overflows ld",
        );
        bad(
            a.get_patch_strided(&lo, &hi, &mut out, &[4, 4], &[usize::MAX, 0]),
            "origin overflows usize",
        );
        bad(
            a.get_patch_strided(&lo, &hi, &mut out[..15], &[4, 4], &[0, 0]),
            "short buffer",
        );
        bad(
            a.get_patch_strided(&lo, &hi, &mut out, &[usize::MAX, 4], &[0, 0]),
            "ld product overflows",
        );
        bad(
            a.get_patch_strided(&[3, 1], &[1, 3], &mut out, &[4, 4], &[0, 0]),
            "lo > hi",
        );
        bad(
            a.get_patch_strided(&[1, 1], &[5, 3], &mut out, &[4, 4], &[0, 0]),
            "hi > dim",
        );
        bad(
            a.get_patch_strided(&[1], &[3], &mut out, &[4, 4], &[0, 0]),
            "patch rank",
        );
        bad(
            c.get_patch_strided(&lo, &hi, &mut out, &[4, 4], &[0, 0]),
            "I64 array",
        );
        a.sync();
        a.destroy().unwrap();
        c.destroy().unwrap();
    });
}
