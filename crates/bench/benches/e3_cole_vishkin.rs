//! E3 — Cole–Vishkin 3-colouring and the landmark colouring across ring
//! sizes: the upper-bound side of Theorem 1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use avglocal::prelude::*;

fn bench_cole_vishkin(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_cole_vishkin_pipeline");
    group.sample_size(10);
    for &n in &[1024usize, 4096, 16384] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let assignment = IdAssignment::Shuffled { seed: 3 };
            b.iter(|| {
                let profile =
                    run_on_topology(Problem::ThreeColoring, &Topology::Cycle, n, &assignment)
                        .unwrap();
                black_box(profile.max())
            });
        });
    }
    group.finish();
}

fn bench_landmark_coloring(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_landmark_coloring");
    group.sample_size(10);
    for &n in &[1024usize, 4096, 16384] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let assignment = IdAssignment::Shuffled { seed: 3 };
            b.iter(|| {
                let profile =
                    run_on_topology(Problem::LandmarkColoring, &Topology::Cycle, n, &assignment)
                        .unwrap();
                black_box(profile.average())
            });
        });
    }
    group.finish();
}

fn bench_mis_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_mis_pipeline");
    group.sample_size(10);
    for &n in &[1024usize, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let assignment = IdAssignment::Shuffled { seed: 3 };
            b.iter(|| {
                let profile =
                    run_on_topology(Problem::Mis, &Topology::Cycle, n, &assignment).unwrap();
                black_box(profile.max())
            });
        });
    }
    group.finish();
}

criterion_group!(e3, bench_cole_vishkin, bench_landmark_coloring, bench_mis_pipeline);
criterion_main!(e3);
