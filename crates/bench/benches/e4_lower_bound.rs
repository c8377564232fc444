//! E4 — the Theorem 1 lower-bound machinery: the Section 3 slice construction
//! and the hill-climbing adversary for colouring.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use avglocal::prelude::*;

fn bench_section3_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_section3_construction");
    group.sample_size(10);
    for &n in &[64usize, 128, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let assignment = section3_assignment(Problem::LandmarkColoring, n).unwrap();
                black_box(assignment)
            });
        });
    }
    group.finish();
}

fn bench_adversarial_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_adversarial_average");
    group.sample_size(10);
    for &n in &[128usize, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let assignment = section3_assignment(Problem::LandmarkColoring, n).unwrap();
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

fn bench_hill_climb_coloring(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_hill_climb_coloring");
    group.sample_size(10);
    group.bench_function("landmark_n128", |b| {
        b.iter(|| {
            let search = AdversarySearch::new(Problem::LandmarkColoring, Measure::NodeAveraged);
            black_box(search.hill_climb(128, 1, 20, 5).unwrap().objective)
        });
    });
    group.finish();
}

criterion_group!(
    e4,
    bench_section3_construction,
    bench_adversarial_evaluation,
    bench_hill_climb_coloring
);
criterion_main!(e4);
