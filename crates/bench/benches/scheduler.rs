//! Criterion benchmark for the co-location scheduler's event loop: one
//! full L5 campaign (11 applications on 40 nodes) per iteration.

use colocate::harness::trained_system_for;
use colocate::scheduler::{run_schedule, PolicyKind, SchedulerConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use simkit::SimRng;
use std::hint::black_box;
use workloads::{Catalog, MixScenario};

fn bench_schedules(c: &mut Criterion) {
    let catalog = Catalog::paper();
    let config = SchedulerConfig::default();
    let run_config = colocate::harness::RunConfig::default();
    let mut rng = SimRng::seed_from(3);
    let mix = MixScenario::TABLE3[4].random_mix(&catalog, &mut rng); // L5
    let system = trained_system_for(PolicyKind::Moe, &catalog, &run_config, 3)
        .unwrap()
        .unwrap();

    c.bench_function("schedule_L5_oracle", |b| {
        b.iter(|| {
            black_box(run_schedule(PolicyKind::Oracle, &catalog, &mix, None, &config, 3).unwrap())
        })
    });

    c.bench_function("schedule_L5_moe", |b| {
        b.iter(|| {
            black_box(
                run_schedule(PolicyKind::Moe, &catalog, &mix, Some(&system), &config, 3).unwrap(),
            )
        })
    });
}

criterion_group!(benches, bench_schedules);
criterion_main!(benches);
