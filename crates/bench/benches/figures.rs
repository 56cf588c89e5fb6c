//! One criterion benchmark per `run_all` section (at reduced corpus scale):
//! regenerating each exhibit is itself a measured, repeatable operation.

#![forbid(unsafe_code)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vroom::experiment::{run_sections, RUN_ALL_SECTIONS};
use vroom::ExperimentConfig;

fn figure_benches(c: &mut Criterion) {
    let cfg = ExperimentConfig::quick(4);
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    for id in RUN_ALL_SECTIONS {
        group.bench_function(id, |b| b.iter(|| black_box(run_sections(&cfg, &[id]))));
    }
    group.finish();
}

criterion_group!(benches, figure_benches);
criterion_main!(benches);
