//! Criterion bench: derived-datatype flattening and pairing — the hot
//! path of the direct strided method (§VI-C).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpisim::dtype::zip_segments;
use mpisim::Datatype;
use std::hint::black_box;

fn bench_subarray_segments(c: &mut Criterion) {
    let mut g = c.benchmark_group("subarray_segments");
    for &rows in &[16usize, 128, 1024] {
        let dt = Datatype::subarray(&[rows * 2, 256], &[rows, 64], &[8, 32], 8).unwrap();
        g.throughput(Throughput::Elements(rows as u64));
        g.bench_with_input(BenchmarkId::from_parameter(rows), &dt, |b, dt| {
            b.iter(|| black_box(dt.segments()).len())
        });
    }
    g.finish();
}

/// The shapes a transfer flattens on the hot paths: CCSD V and T tile
/// patches of a rank's local block, a dense tile buffer, and a stencil
/// column halo. Flattened into a reused buffer, as a transfer does.
fn bench_subarray_shapes(c: &mut Criterion) {
    let mut g = c.benchmark_group("subarray_shapes");
    let shapes = [
        (
            "v_tile",
            Datatype::subarray(&[8, 16, 16, 16], &[4, 4, 4, 4], &[4, 8, 4, 12], 8),
        ),
        (
            "t_tile",
            Datatype::subarray(&[4, 8, 16, 16], &[2, 2, 4, 4], &[2, 2, 8, 4], 8),
        ),
        (
            "dense_4x4x4x4",
            Datatype::subarray(&[4; 4], &[4; 4], &[0; 4], 8),
        ),
        (
            "column_halo",
            Datatype::subarray(&[256, 131], &[256, 2], &[0, 129], 8),
        ),
    ];
    let mut out = Vec::new();
    for (name, dt) in shapes {
        let dt = dt.unwrap();
        g.throughput(Throughput::Elements(dt.num_segments() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(name), &dt, |b, dt| {
            b.iter(|| {
                black_box(dt).segments_into(&mut out);
                out.len()
            })
        });
    }
    g.finish();
}

fn bench_zip(c: &mut Criterion) {
    let mut g = c.benchmark_group("zip_segments");
    for &n in &[64usize, 1024] {
        let origin = Datatype::Indexed {
            blocks: (0..n).map(|i| (i * 32, 16)).collect(),
        };
        let target = Datatype::Vector {
            count: n,
            blocklen: 16,
            stride: 48,
        };
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(origin, target),
            |b, (o, t)| b.iter(|| zip_segments(black_box(o), black_box(t)).unwrap().len()),
        );
    }
    g.finish();
}

fn bench_strided_iter(c: &mut Criterion) {
    let mut g = c.benchmark_group("algorithm1_strided_iter");
    for &n in &[256usize, 4096] {
        let strides = [64usize, 64 * 64];
        let count = [16usize, 64, n / 64];
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &count, |b, count| {
            b.iter(|| {
                armci::StridedIter::new(black_box(&strides), &strides, count)
                    .unwrap()
                    .map(|(s, d)| s ^ d)
                    .fold(0usize, |a, x| a ^ x)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_subarray_segments,
    bench_subarray_shapes,
    bench_zip,
    bench_strided_iter
);
criterion_main!(benches);
