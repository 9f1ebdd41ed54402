//! Criterion bench for the schema-evolution table (`tab-evolution`):
//! the cost of redefining a step class mid-stream, versus recording a
//! step — the paper's claim is that evolution is constant-time and never
//! migrates instances.

use criterion::{criterion_group, criterion_main, Criterion};

use labbase::schema::AttrDef;
use labbase::AttrType;
use labflow_bench::support;
use labflow_core::ServerVersion;

fn bench_evolution(c: &mut Criterion) {
    let cfg = support::bench_config();
    let dir = support::scratch("evolution");
    let (_sim, db, _store) = support::built_db(ServerVersion::OStoreMm, &cfg, &dir);

    let mut group = support::group(c, "tab-evolution");

    group.bench_function("redefine-step-class", |b| {
        let mut rev = 0u64;
        b.iter(|| {
            rev += 1;
            let attrs = vec![
                AttrDef { name: "sequence".into(), ty: AttrType::Dna },
                AttrDef { name: "quality".into(), ty: AttrType::Real },
                AttrDef { name: "read_length".into(), ty: AttrType::Int },
                AttrDef { name: "machine".into(), ty: AttrType::Str },
                AttrDef { name: "outcome".into(), ty: AttrType::Str },
                AttrDef { name: format!("rev_{rev}"), ty: AttrType::Str },
            ];
            let txn = db.begin().unwrap();
            db.redefine_step_class(txn, "determine_sequence", attrs).unwrap();
            db.commit(txn).unwrap();
        });
    });

    group.bench_function("record-step-baseline", |b| {
        // One fresh material so histories do not balloon across samples.
        let txn = db.begin().unwrap();
        let m = db.create_material(txn, "tclone", "bench-subject", 0).unwrap();
        db.commit(txn).unwrap();
        let mut t = 1i64;
        b.iter(|| {
            t += 1;
            let txn = db.begin().unwrap();
            db.record_step(
                txn,
                "prep_tclone",
                t,
                &[m],
                vec![
                    ("yield_ng".into(), labbase::Value::Real(300.0)),
                    ("gel_lane".into(), labbase::Value::Int(4)),
                ],
            )
            .unwrap();
            db.commit(txn).unwrap();
        });
    });

    group.bench_function("old-version-decode", |b| {
        // Reading a step recorded under an old class version must not be
        // slower than reading a current one: versions are just data.
        let txn = db.begin().unwrap();
        let m = db.create_material(txn, "tclone", "old-version-subject", 0).unwrap();
        let s = db
            .record_step(
                txn,
                "prep_tclone",
                1,
                &[m],
                vec![("gel_lane".into(), labbase::Value::Int(1))],
            )
            .unwrap();
        db.redefine_step_class(
            txn,
            "prep_tclone",
            vec![
                AttrDef { name: "yield_ng".into(), ty: AttrType::Real },
                AttrDef { name: "gel_lane".into(), ty: AttrType::Int },
                AttrDef { name: "outcome".into(), ty: AttrType::Str },
                AttrDef { name: "robot_id".into(), ty: AttrType::Str },
            ],
        )
        .unwrap();
        db.commit(txn).unwrap();
        b.iter(|| db.step_schema(s).unwrap());
    });

    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_evolution);
criterion_main!(benches);
