//! E1 — largest-ID on the cycle: simulator throughput for the workload whose
//! *results* (average Θ(log n) vs worst case Θ(n)) are printed by the
//! `experiments` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use avglocal::prelude::*;

fn bench_largest_id_random(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_largest_id_random_ids");
    group.sample_size(10);
    for &n in &[256usize, 1024, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let assignment = IdAssignment::Shuffled { seed: 1 };
            b.iter(|| {
                let profile =
                    run_on_topology(Problem::LargestId, &Topology::Cycle, n, &assignment).unwrap();
                black_box(profile.average())
            });
        });
    }
    group.finish();
}

fn bench_largest_id_identity(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_largest_id_identity_ids");
    group.sample_size(10);
    for &n in &[256usize, 1024, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let profile = run_on_topology(
                    Problem::LargestId,
                    &Topology::Cycle,
                    n,
                    &IdAssignment::Identity,
                )
                .unwrap();
                black_box(profile.total())
            });
        });
    }
    group.finish();
}

fn bench_full_info_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_full_information_baseline");
    group.sample_size(10);
    for &n in &[64usize, 128, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let assignment = IdAssignment::Shuffled { seed: 1 };
            b.iter(|| {
                let profile =
                    run_on_topology(Problem::FullInfoLargestId, &Topology::Cycle, n, &assignment)
                        .unwrap();
                black_box(profile.max())
            });
        });
    }
    group.finish();
}

criterion_group!(e1, bench_largest_id_random, bench_largest_id_identity, bench_full_info_baseline);
criterion_main!(e1);
