//! Criterion bench for the clustering ablation (`abl-clustering`):
//! cold history walks per storage personality under a small cache —
//! the paper's headline, "the critical importance of being able to
//! control locality of reference to persistent data".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use labflow_bench::support;
use labflow_core::ServerVersion;

fn bench_clustering(c: &mut Criterion) {
    let cfg = labflow_core::BenchConfig {
        buffer_pages: 96, // deliberately starved: DB >> cache
        ..support::bench_config()
    };
    let dir = support::scratch("clustering");

    let mut group = support::group(c, "abl-clustering/cold-history-walk");
    group.sample_size(10);
    for version in ServerVersion::PERSISTENT {
        let (mut sim, db, store) = support::built_db(version, &cfg, &dir);
        let mats = sim.sample_materials(64);
        group.bench_with_input(
            BenchmarkId::from_parameter(version.name()),
            &version,
            |b, _| {
                b.iter(|| {
                    store.drop_caches().unwrap();
                    let mut touched = 0usize;
                    for &m in &mats {
                        let _ = db.recent_all(m).unwrap();
                        for entry in db.history(m).unwrap() {
                            let _ = db.step(entry.step).unwrap();
                            touched += 1;
                        }
                    }
                    touched
                });
            },
        );
    }
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_clustering);
criterion_main!(benches);
