//! Criterion bench: the §VI-B overlap scan (`ctree::scan_segments`, one
//! sort-and-sweep) versus the naive O(N²) pairwise scan.
//!
//! The paper motivates an O(N·log N) scan with NWChem IOVs of "tens to
//! hundreds of thousands of segments"; this bench shows the crossover and
//! the asymptotic win, and the ascending input the scan proves clean
//! without sorting against a shuffled one it must sort.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn disjoint_segments(n: usize) -> Vec<(usize, usize)> {
    // strided IOV: 16-byte segments every 64 bytes (a Figure 4 shape)
    (0..n).map(|i| (i * 64, 16)).collect()
}

fn shuffled_segments(n: usize) -> Vec<(usize, usize)> {
    // deterministic shuffle (LCG): the scan has to sort
    let mut segs = disjoint_segments(n);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..segs.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        segs.swap(i, j);
    }
    segs
}

fn bench_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("iov_overlap_scan");
    for &n in &[64usize, 256, 1024, 4096, 16384] {
        g.throughput(Throughput::Elements(n as u64));
        let segs = shuffled_segments(n);
        g.bench_with_input(BenchmarkId::new("ctree", n), &segs, |b, segs| {
            b.iter(|| ctree::scan_segments(black_box(segs)).is_ok())
        });
        // the naive scan is quadratic; skip the largest sizes
        if n <= 4096 {
            g.bench_with_input(BenchmarkId::new("naive", n), &segs, |b, segs| {
                b.iter(|| ctree::scan_segments_naive(black_box(segs)).is_ok())
            });
        }
    }
    g.finish();
}

fn bench_insert_orders(c: &mut Criterion) {
    let mut g = c.benchmark_group("ctree_insert_order");
    let n = 4096usize;
    let ascending = disjoint_segments(n);
    let shuffled = shuffled_segments(n);
    g.bench_function("ascending", |b| {
        b.iter(|| ctree::scan_segments(black_box(&ascending)).is_ok())
    });
    g.bench_function("shuffled", |b| {
        b.iter(|| ctree::scan_segments(black_box(&shuffled)).is_ok())
    });
    g.finish();
}

criterion_group!(benches, bench_scan, bench_insert_orders);
criterion_main!(benches);
