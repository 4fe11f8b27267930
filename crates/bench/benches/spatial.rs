//! Whole-feature operator benchmarks (§4): Buffer-Join and k-Nearest over
//! growing feature sets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cqa::num::Rat;
use cqa::spatial::ops::{buffer_join, k_nearest};
use cqa::spatial::{Feature, Geometry, Point, SpatialRelation};

fn grid_points(n: usize, offset: i64) -> SpatialRelation {
    SpatialRelation::from_features((0..n).map(|i| {
        let x = (i % 32) as i64 * 10 + offset;
        let y = (i / 32) as i64 * 10 + offset;
        Feature::new(format!("p{}", i), Geometry::Point(Point::from_ints(x, y)))
    }))
}

fn roads(n: usize) -> SpatialRelation {
    SpatialRelation::from_features((0..n).map(|i| {
        let y = i as i64 * 25;
        Feature::new(
            format!("r{}", i),
            Geometry::polyline(vec![Point::from_ints(0, y), Point::from_ints(320, y + 7)]).unwrap(),
        )
    }))
}

fn bench_buffer_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffer_join");
    for &n in &[64usize, 256] {
        let cities = grid_points(n, 3);
        let rds = roads(12);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| buffer_join(&rds, &cities, &Rat::from_int(5), 1))
        });
    }
    group.finish();
}

fn bench_k_nearest(c: &mut Criterion) {
    let mut group = c.benchmark_group("k_nearest");
    for &n in &[64usize, 256] {
        let cities = grid_points(n, 3);
        let rds = roads(12);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| k_nearest(&rds, &cities, 3, 1))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_buffer_join, bench_k_nearest);
criterion_main!(benches);
