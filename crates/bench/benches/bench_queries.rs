//! Criterion bench for the query-mix table (`tab-query-mix`): the
//! Section-8 query families against a pre-built database, per version.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use labflow_bench::support;
use labflow_core::ServerVersion;
use labflow_workflow::genome;

fn bench_queries(c: &mut Criterion) {
    let cfg = support::bench_config();
    let dir = support::scratch("queries");

    for version in [ServerVersion::OStore, ServerVersion::Texas, ServerVersion::OStoreMm] {
        let (mut sim, db, store) = support::built_db(version, &cfg, &dir);
        let mats = sim.sample_materials(256);

        let mut group = support::group(c, format!("tab-query-mix/{}", version.name()));

        group.bench_function(BenchmarkId::from_parameter("recent-lookup"), |b| {
            let mut next = mats.iter().cycle();
            b.iter(|| db.recent(*next.next().unwrap(), "quality").unwrap());
        });

        group.bench_function(BenchmarkId::from_parameter("recent-lookup-cold"), |b| {
            let mut i = 0usize;
            b.iter(|| {
                if i.is_multiple_of(64) {
                    store.drop_caches().unwrap();
                }
                let m = mats[i % mats.len()];
                i += 1;
                db.recent(m, "quality").unwrap()
            });
        });

        group.bench_function(BenchmarkId::from_parameter("tracking"), |b| {
            let mut next = mats.iter().cycle();
            b.iter(|| {
                let m = *next.next().unwrap();
                (db.state_of(m).unwrap(), db.history_len(m).unwrap())
            });
        });

        group.bench_function(BenchmarkId::from_parameter("as-of"), |b| {
            let mut next = mats.iter().cycle();
            b.iter(|| db.as_of(*next.next().unwrap(), "quality", 50).unwrap());
        });

        group.bench_function(BenchmarkId::from_parameter("state-count"), |b| {
            b.iter(|| db.count_in_state(genome::WAITING_FOR_SEQUENCING).unwrap());
        });

        group.bench_function(BenchmarkId::from_parameter("report-sequences"), |b| {
            b.iter(|| db.collect_attr("clone", "sequence").unwrap());
        });

        group.bench_function(BenchmarkId::from_parameter("counting-scan"), |b| {
            b.iter(|| db.count_class_scan("tclone").unwrap());
        });

        group.finish();
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_lql(c: &mut Criterion) {
    let cfg = support::bench_config();
    let dir = support::scratch("lql");
    let (_sim, db, _store) = support::built_db(ServerVersion::OStoreMm, &cfg, &dir);
    let program = lql::stdlib::labflow_program();

    let mut group = support::group(c, "tab-query-mix/LQL");
    group.bench_function("count-in-state", |b| {
        let session = lql::Session::new(&db, &program);
        b.iter(|| session.query("count_in_state(clone, finished, N)").unwrap());
    });
    group.bench_function("good-quality-scan", |b| {
        let session = lql::Session::new(&db, &program);
        b.iter(|| session.query_limit("good_quality(M, Q)", 25).unwrap());
    });
    group.bench_function("parse-only", |b| {
        b.iter(|| {
            lql::parse_query(
                "state(M, waiting_for_sequencing), recent(M, quality, Q), Q >= 0.9",
            )
            .unwrap()
        });
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_queries, bench_lql);
criterion_main!(benches);
