//! E6 — the motivating applications: parallel replay scheduling and
//! dynamic-update cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use avglocal::prelude::*;

fn profile_for(n: usize) -> RadiusProfile {
    run_on_topology(Problem::LargestId, &Topology::Cycle, n, &IdAssignment::Shuffled { seed: 31 })
        .expect("largest ID runs on every cycle")
}

fn bench_list_scheduling(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_list_scheduling");
    for &workers in &[4usize, 16, 64] {
        let profile = profile_for(4096);
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| black_box(schedule_radii(&profile, w).makespan));
        });
    }
    group.finish();
}

fn bench_dynamic_update_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_dynamic_update_cost");
    for &n in &[1024usize, 4096] {
        let profile = profile_for(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(expected_invalidated_nodes(&profile)));
        });
    }
    group.finish();
}

fn bench_end_to_end_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_end_to_end_replay");
    group.sample_size(10);
    for &n in &[512usize, 2048] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let profile = run_on_topology(
                    Problem::LargestId,
                    &Topology::Cycle,
                    n,
                    &IdAssignment::Shuffled { seed: 7 },
                )
                .unwrap();
                black_box(schedule_radii(&profile, 16).makespan)
            });
        });
    }
    group.finish();
}

criterion_group!(e6, bench_list_scheduling, bench_dynamic_update_cost, bench_end_to_end_replay);
criterion_main!(e6);
