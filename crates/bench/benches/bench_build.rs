//! Criterion bench for the Section-10 build tables (`tab-build-*`):
//! the database-build workload per server version.
//!
//! Measures the full graph-driven insert stream (steps + interleaved
//! queries) at a Criterion-friendly scale; the paper-shaped interval
//! tables come from `labflow-harness tab-build`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use labflow_bench::support;
use labflow_core::ServerVersion;

fn bench_build(c: &mut Criterion) {
    let dir = support::scratch("build");
    let mut group = support::group(c, "tab-build/database-build");
    group.sample_size(10);
    for version in ServerVersion::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(version.name()),
            &version,
            |b, &version| {
                b.iter_with_large_drop(|| {
                    let cfg = labflow_core::BenchConfig {
                        base_clones: 20,
                        buffer_pages: 128,
                        ..support::bench_config()
                    };
                    support::built_db(version, &cfg, &dir).1
                });
            },
        );
    }
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
