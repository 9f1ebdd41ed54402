//! Criterion micro-benches for the storage managers themselves:
//! allocate / read / update across the backends, hot and cold. These are
//! not a paper artifact — they calibrate the substrate underneath the
//! Section-10 numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use labflow_bench::support;
use labflow_core::runner::store_dir;
use labflow_core::ServerVersion;
use labflow_storage::{ClusterHint, Oid, SegmentId, StorageManager};

fn stores() -> Vec<(ServerVersion, std::sync::Arc<dyn StorageManager>, std::path::PathBuf)> {
    let dir = support::scratch("storage-micro");
    ServerVersion::ALL
        .iter()
        .map(|&v| {
            let vdir = store_dir(&dir, v.name()).unwrap();
            (v, v.make_store(&vdir, 512).unwrap(), vdir)
        })
        .collect()
}

fn bench_alloc(c: &mut Criterion) {
    let mut group = support::group(c, "storage/alloc-100B");
    group.throughput(Throughput::Bytes(100));
    for (version, store, _dir) in stores() {
        group.bench_with_input(
            BenchmarkId::from_parameter(version.name()),
            &store,
            |b, store| {
                let payload = [7u8; 100];
                b.iter(|| {
                    let t = store.begin().unwrap();
                    let oid = store
                        .allocate(t, SegmentId::DEFAULT, ClusterHint::NONE, &payload)
                        .unwrap();
                    store.commit(t).unwrap();
                    oid
                });
            },
        );
    }
    group.finish();
}

fn bench_read_hot(c: &mut Criterion) {
    let mut group = support::group(c, "storage/read-hot");
    for (version, store, _dir) in stores() {
        // Preload 1000 objects.
        let t = store.begin().unwrap();
        let oids: Vec<Oid> = (0..1000u32)
            .map(|i| {
                store
                    .allocate(t, SegmentId::DEFAULT, ClusterHint::NONE, &i.to_le_bytes())
                    .unwrap()
            })
            .collect();
        store.commit(t).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(version.name()),
            &(store, oids),
            |b, (store, oids)| {
                let mut i = 0usize;
                b.iter(|| {
                    let oid = oids[i % oids.len()];
                    i += 1;
                    store.read(oid).unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_update(c: &mut Criterion) {
    let mut group = support::group(c, "storage/update-in-place");
    for (version, store, _dir) in stores() {
        let t = store.begin().unwrap();
        let oid = store
            .allocate(t, SegmentId::DEFAULT, ClusterHint::NONE, &[0u8; 64])
            .unwrap();
        store.commit(t).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(version.name()),
            &(store, oid),
            |b, (store, oid)| {
                let mut v = 0u8;
                b.iter(|| {
                    v = v.wrapping_add(1);
                    let t = store.begin().unwrap();
                    store.update(t, *oid, &[v; 64]).unwrap();
                    store.commit(t).unwrap();
                });
            },
        );
    }
    group.finish();
}

fn bench_checkpoint(c: &mut Criterion) {
    let mut group = support::group(c, "storage/checkpoint-after-1k-allocs");
    group.sample_size(10);
    for (version, store, _dir) in stores() {
        group.bench_with_input(
            BenchmarkId::from_parameter(version.name()),
            &store,
            |b, store| {
                b.iter(|| {
                    let t = store.begin().unwrap();
                    for i in 0..1000u32 {
                        store
                            .allocate(t, SegmentId::DEFAULT, ClusterHint::NONE, &i.to_le_bytes())
                            .unwrap();
                    }
                    store.commit(t).unwrap();
                    store.checkpoint().unwrap();
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_alloc, bench_read_hot, bench_update, bench_checkpoint);
criterion_main!(benches);
