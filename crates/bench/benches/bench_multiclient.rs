//! Criterion bench for the multi-client ablation (`abl-multiclient`):
//! concurrent writer sessions against every backend (single-user ones
//! report unsupported and cost nothing).
//!
//! Measures the full prefill + N-client step-recording run at a
//! Criterion-friendly scale; the paper-shaped sweep (clients 1/2/4/8
//! across every version, with the group-commit table) comes from
//! `labflow-harness abl-multiclient`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use labflow_bench::support;
use labflow_core::exp::writers;

fn bench_multiclient(c: &mut Criterion) {
    let dir = support::scratch("multiclient");
    let mut group = support::group(c, "abl-multiclient/writer-clients");
    group.sample_size(10);
    for clients in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(clients),
            &clients,
            |b, &clients| {
                b.iter(|| {
                    let cfg = labflow_core::BenchConfig {
                        base_clones: 64,
                        buffer_pages: 128,
                        ..support::bench_config()
                    };
                    let points = writers::run_multiclient(&cfg, &[clients], &dir).unwrap();
                    assert!(points.iter().any(|p| p.supported && p.steps > 0));
                    points
                });
            },
        );
    }
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_multiclient);
criterion_main!(benches);
