//! Snapshot-visibility edge cases for the MVCC read path:
//! read-your-own-writes inside a session, all-or-nothing visibility of
//! commits against pinned snapshots, and version GC honouring live
//! snapshot pins.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use labbase::schema::attrs;
use labbase::{AttrType, LabBase, Value};
use labflow_storage::{Engine, MemStore, Options, Profile, SimVfs, StorageManager, Vfs};

fn mem_db() -> LabBase {
    let store: Arc<dyn StorageManager> = Arc::new(MemStore::ostore_mm());
    seed_schema(LabBase::create(store).unwrap())
}

/// A full disk-backed engine on the simulated VFS, so checkpoints run
/// the real version-GC path.
fn engine_db() -> LabBase {
    let vfs: Arc<dyn Vfs> = Arc::new(SimVfs::new(7));
    let dir = "/sim/snapshots".as_ref();
    let store: Arc<dyn StorageManager> =
        Arc::new(Engine::create_with(vfs, dir, Profile::ostore(), Options::default()).unwrap());
    seed_schema(LabBase::create(store).unwrap())
}

fn seed_schema(db: LabBase) -> LabBase {
    let t = db.begin().unwrap();
    db.define_material_class(t, "clone", None).unwrap();
    db.define_step_class(
        t,
        "determine_sequence",
        attrs(&[("sequence", AttrType::Dna), ("quality", AttrType::Real)]),
    )
    .unwrap();
    db.commit(t).unwrap();
    db
}

fn q(v: f64) -> Vec<(String, Value)> {
    vec![("quality".into(), Value::Real(v))]
}

/// A session reads its own uncommitted writes through its transaction
/// view, while its pinned snapshot (and other readers) see none of them.
#[test]
fn session_reads_its_own_writes() {
    let db = mem_db();
    let mut s = db.session().unwrap();
    let m = s.create_material("clone", "m", 0).unwrap();
    s.record_step("determine_sequence", 10, &[m], q(0.5)).unwrap();
    s.set_state(m, "queued", 11).unwrap();

    // Own-writes path: everything the session did is visible to it.
    assert!(s.material_exists(m));
    assert_eq!(s.history(m).unwrap().len(), 1);
    assert_eq!(s.recent(m, "quality").unwrap().unwrap().value, Value::Real(0.5));
    assert_eq!(s.state_of(m).unwrap().as_deref(), Some("queued"));

    // The session's begin snapshot predates all of it. The view borrows
    // the session, so it must be gone before commit/abort can release
    // the snapshot pin — the borrow checker enforces it.
    let view = s.view().unwrap();
    assert!(!view.material_exists(m));
    drop(view);

    // And committed-state readers see nothing until commit.
    assert!(!db.material_exists(m));
    s.commit().unwrap();
    assert!(db.material_exists(m));
    assert_eq!(db.recent(m, "quality").unwrap().unwrap().value, Value::Real(0.5));
}

/// A snapshot opened while a multi-object commit races sees the whole
/// transaction or none of it — never a torn cut. The writer records
/// steps touching two materials per transaction; every reader snapshot
/// must see both materials' `quality` values equal.
#[test]
fn snapshots_are_all_or_nothing_against_racing_commits() {
    let db = Arc::new(mem_db());
    let t = db.begin().unwrap();
    let a = db.create_material(t, "clone", "a", 0).unwrap();
    let b = db.create_material(t, "clone", "b", 0).unwrap();
    db.record_step(t, "determine_sequence", 0, &[a, b], q(0.0)).unwrap();
    db.commit(t).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let writer = {
            let db = db.clone();
            let stop = stop.clone();
            scope.spawn(move || {
                // Each commit bumps both materials' quality to the same
                // value in one transaction.
                for round in 1..=400u32 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let t = db.begin().unwrap();
                    db.record_step(
                        t,
                        "determine_sequence",
                        round as i64,
                        &[a, b],
                        q(round as f64),
                    )
                    .unwrap();
                    db.commit(t).unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let db = db.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    let mut observed = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        let view = db.view().unwrap();
                        let qa = view.recent(a, "quality").unwrap().unwrap();
                        let qb = view.recent(b, "quality").unwrap().unwrap();
                        assert_eq!(
                            qa.value, qb.value,
                            "snapshot saw a torn multi-object commit"
                        );
                        assert_eq!(qa.valid_time, qb.valid_time);
                        observed += 1;
                    }
                    observed
                })
            })
            .collect();
        writer.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
    });

    // Final state: both at the writer's last round.
    let view = db.view().unwrap();
    assert_eq!(view.recent(a, "quality").unwrap().unwrap().value, Value::Real(400.0));
    assert_eq!(view.recent(b, "quality").unwrap().unwrap().value, Value::Real(400.0));
}

/// Version GC (run at checkpoint) must never reclaim versions a live
/// snapshot still pins: after many overwriting commits and checkpoints,
/// an old view still reads its original cut.
#[test]
fn gc_never_reclaims_pinned_versions() {
    let db = engine_db();
    let t = db.begin().unwrap();
    let m = db.create_material(t, "clone", "m", 0).unwrap();
    db.record_step(t, "determine_sequence", 1, &[m], q(1.0)).unwrap();
    db.commit(t).unwrap();

    let pinned = db.view().unwrap();
    let pinned_lsn = pinned.lsn().unwrap();

    // Many overwriting commits, with checkpoints (= version GC) mixed in.
    for round in 2..=40i64 {
        let t = db.begin().unwrap();
        db.record_step(t, "determine_sequence", round, &[m], q(round as f64)).unwrap();
        db.commit(t).unwrap();
        if round % 5 == 0 {
            db.checkpoint().unwrap();
        }
    }

    // The pinned view still reads the original versions.
    assert_eq!(pinned.recent(m, "quality").unwrap().unwrap().value, Value::Real(1.0));
    assert_eq!(pinned.history(m).unwrap().len(), 1);
    assert_eq!(pinned.lsn().unwrap(), pinned_lsn);

    // A fresh view (with a strictly newer LSN — staleness is observable)
    // sees the final state.
    let fresh = db.view().unwrap();
    assert!(fresh.lsn().unwrap() > pinned_lsn);
    assert_eq!(fresh.recent(m, "quality").unwrap().unwrap().value, Value::Real(40.0));
    assert_eq!(fresh.history(m).unwrap().len(), 40);

    // Once the pin is dropped, GC may advance; subsequent reads of the
    // latest state still work.
    drop(pinned);
    db.checkpoint().unwrap();
    assert_eq!(db.recent(m, "quality").unwrap().unwrap().value, Value::Real(40.0));
}
