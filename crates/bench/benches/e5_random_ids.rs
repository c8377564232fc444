//! E5 — the Section 4 question: both measures under uniformly random
//! identifier permutations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use avglocal::prelude::*;

fn bench_random_permutation_study(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_random_permutation_study");
    group.sample_size(10);
    for &n in &[256usize, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let study =
                    random_permutation_study_on(Problem::LargestId, &Topology::Cycle, n, 5, 1)
                        .unwrap();
                black_box(study.average_radius.mean)
            });
        });
    }
    group.finish();
}

fn bench_expected_radius_formula(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_expected_radius_formula");
    for &n in &[1usize << 12, 1 << 20] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(theory::largest_id_random_average(n)));
        });
    }
    group.finish();
}

fn bench_coloring_under_random_ids(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_coloring_random_ids");
    group.sample_size(10);
    for &n in &[1024usize, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let study = random_permutation_study_on(
                    Problem::LandmarkColoring,
                    &Topology::Cycle,
                    n,
                    3,
                    2,
                )
                .unwrap();
                black_box(study.average_radius.mean)
            });
        });
    }
    group.finish();
}

criterion_group!(
    e5,
    bench_random_permutation_study,
    bench_expected_radius_formula,
    bench_coloring_under_random_ids
);
criterion_main!(e5);
