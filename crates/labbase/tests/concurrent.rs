//! Multi-writer session tests: N concurrent sessions against one
//! OStore-profile LabBase, checked for invariants against a
//! single-threaded replay of the same logical work; plus a test that the
//! selective (footprint-based) abort leaves the shared caches in exactly
//! the state a full rebuild would produce.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use labbase::{schema::attrs, AttrType, LabBase, Value};
use labflow_storage::{MemStore, StorageManager};

fn concurrent_db() -> LabBase {
    let store: Arc<dyn StorageManager> = Arc::new(MemStore::ostore_mm());
    let db = LabBase::create(store).unwrap();
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

const WRITERS: u64 = 4;
const TXNS_PER_WRITER: u64 = 25;

/// One writer's logical work: each transaction creates a material,
/// records a step against it, and parks it in a state. Returns the
/// number of committed transactions.
fn writer_work(db: &LabBase, writer: u64, retries: &AtomicU64) -> u64 {
    let mut committed = 0;
    for i in 0..TXNS_PER_WRITER {
        // Retry the whole transaction on lock timeouts, like a real
        // client would; the selective abort keeps this cheap.
        loop {
            let mut s = db.session().unwrap();
            let name = format!("w{writer}-c{i}");
            let vt = (writer * TXNS_PER_WRITER + i) as i64;
            let result = s.create_material("clone", &name, vt).and_then(|m| {
                s.record_step(
                    "determine_sequence",
                    vt,
                    &[m],
                    vec![("quality".into(), Value::Real(0.5))],
                )?;
                s.set_state(m, if i % 2 == 0 { "waiting" } else { "done" }, vt)
            });
            match result {
                Ok(()) => {
                    s.commit().unwrap();
                    committed += 1;
                    break;
                }
                Err(_) => {
                    retries.fetch_add(1, Ordering::Relaxed);
                    s.abort().unwrap();
                }
            }
        }
    }
    committed
}

#[test]
fn concurrent_writers_match_single_threaded_replay() {
    // Concurrent run.
    let db = Arc::new(concurrent_db());
    // Warm the indexes so every session updates them incrementally.
    assert_eq!(db.count_in_state("waiting").unwrap(), 0);
    db.find_material("nobody").unwrap();
    let retries = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let db = db.clone();
        let retries = retries.clone();
        handles.push(std::thread::spawn(move || writer_work(&db, w, &retries)));
    }
    let committed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(committed, WRITERS * TXNS_PER_WRITER);

    // Single-threaded replay of the same logical work.
    let solo = concurrent_db();
    let solo_retries = AtomicU64::new(0);
    for w in 0..WRITERS {
        writer_work(&solo, w, &solo_retries);
    }
    assert_eq!(solo_retries.load(Ordering::Relaxed), 0, "no contention single-threaded");

    // Invariants: same materials, same states, same step counts —
    // regardless of commit interleaving.
    assert_eq!(
        db.count_class("clone", false).unwrap(),
        solo.count_class("clone", false).unwrap()
    );
    assert_eq!(db.state_census().unwrap(), solo.state_census().unwrap());
    assert_eq!(
        db.count_steps_scan("determine_sequence").unwrap(),
        solo.count_steps_scan("determine_sequence").unwrap()
    );
    // Every material is findable by name and carries its step's attr.
    for w in 0..WRITERS {
        for i in 0..TXNS_PER_WRITER {
            let name = format!("w{w}-c{i}");
            let m = db.find_material(&name).unwrap().expect("committed material");
            let recent = db.recent(m, "quality").unwrap().expect("step recorded");
            assert_eq!(recent.value, Value::Real(0.5));
        }
    }
    // The incrementally-maintained index agrees with a cold rebuild over
    // the same store.
    let reopened = LabBase::open(db.store().clone()).unwrap();
    assert_eq!(db.state_census().unwrap(), reopened.state_census().unwrap());
}

#[test]
fn selective_abort_matches_full_rebuild() {
    let db = concurrent_db();
    let mut s = db.session().unwrap();
    let a = s.create_material("clone", "a", 0).unwrap();
    let b = s.create_material("clone", "b", 0).unwrap();
    s.set_state(a, "waiting", 1).unwrap();
    s.set_state(b, "done", 1).unwrap();
    s.commit().unwrap();
    // Warm both indexes.
    assert_eq!(db.count_in_state("waiting").unwrap(), 1);
    db.find_material("a").unwrap().unwrap();

    // A transaction that touches every cache, then aborts selectively.
    let mut s = db.session().unwrap();
    let c = s.create_material("clone", "c", 2).unwrap();
    s.set_state(c, "waiting", 3).unwrap();
    s.set_state(a, "done", 3).unwrap();
    s.set_state(b, "waiting", 3).unwrap();
    s.set_state(b, "failed", 4).unwrap();
    s.define_material_class("gel", None).unwrap();
    s.create_set("queue").unwrap();
    s.abort().unwrap();

    // Reference: a fresh LabBase over the same store rebuilds every
    // cache from storage truth. Selective abort must agree with it.
    let rebuilt = LabBase::open(db.store().clone()).unwrap();
    assert_eq!(db.state_census().unwrap(), rebuilt.state_census().unwrap());
    for state in ["waiting", "done", "failed"] {
        assert_eq!(
            db.in_state(state, usize::MAX).unwrap(),
            rebuilt.in_state(state, usize::MAX).unwrap(),
            "state {state} diverged from rebuild"
        );
    }
    for name in ["a", "b", "c"] {
        assert_eq!(
            db.find_material(name).unwrap(),
            rebuilt.find_material(name).unwrap(),
            "name {name} diverged from rebuild"
        );
    }
    db.with_catalog(|c| assert!(c.material_class("gel").is_err()));
    assert!(db.set_names().is_empty());
    assert_eq!(db.state_of(a).unwrap().as_deref(), Some("waiting"));
    assert_eq!(db.state_of(b).unwrap().as_deref(), Some("done"));
}

// ---- per-class extent records ----------------------------------------------
//
// A creation locks and writes only its class's extent record, so the
// cached extent of one class can be in flight in one transaction while
// another transaction aborts. These pin what that split promises.

/// `concurrent_db` plus a second material class, `tube`.
fn two_class_db() -> LabBase {
    let db = concurrent_db();
    let t = db.begin().unwrap();
    db.define_material_class(t, "tube", None).unwrap();
    db.commit(t).unwrap();
    db
}

/// The cached `(extent head, count)` of `class`.
fn cached_extent(db: &LabBase, class: &str) -> (u64, u64) {
    db.with_catalog(|c| {
        let mc = c.material_class(class).unwrap();
        (mc.extent_head.raw(), mc.count)
    })
}

/// The integrity check is healthy and every class holds exactly its
/// committed creations, by cached count and by extent scan.
fn assert_extents(db: &LabBase, expected: &[(&str, u64)]) {
    let report = db.check_integrity().unwrap();
    assert!(report.is_healthy(), "{:?}", report.problems);
    for &(class, n) in expected {
        assert_eq!(db.count_class(class, false).unwrap(), n, "cached count of {class}");
        assert_eq!(db.count_class_scan(class).unwrap(), n, "extent length of {class}");
    }
    // A cold open rebuilds the same extents from storage.
    let reopened = LabBase::open(db.store().clone()).unwrap();
    for &(class, _) in expected {
        assert_eq!(cached_extent(&reopened, class), cached_extent(db, class), "{class}");
    }
}

#[test]
fn creators_in_different_classes_never_wait_on_each_other() {
    let db = two_class_db();
    let mut a = db.session().unwrap();
    a.create_material("clone", "a", 0).unwrap();
    // `a` holds the clone extent lock; a tube creator does not need it.
    let mut b = db.session().unwrap();
    b.create_material("tube", "b", 0).unwrap();
    assert_eq!(b.wait_profile().lock_condvar_waits, 0, "different classes must not wait");
    b.commit().unwrap();
    a.commit().unwrap();
    assert_extents(&db, &[("clone", 1), ("tube", 1)]);
}

#[test]
fn creators_in_one_class_still_serialize() {
    let db = two_class_db();
    let mut a = db.session().unwrap();
    let first = a.create_material("clone", "first", 0).unwrap();
    std::thread::scope(|scope| {
        let b = scope.spawn(|| {
            let mut b = db.session().unwrap();
            let second = b.create_material("clone", "second", 1).unwrap();
            let waits = b.wait_profile().lock_condvar_waits;
            b.commit().unwrap();
            (second, waits)
        });
        // Hold the clone extent lock long enough for `b` to queue on it.
        std::thread::sleep(std::time::Duration::from_millis(50));
        a.commit().unwrap();
        let (second, waits) = b.join().unwrap();
        assert!(waits > 0, "a same-class creator must wait for the lock holder");
        // The second creation chained onto the committed first.
        assert_eq!(db.class_extent("clone", false).unwrap(), vec![second, first]);
    });
    assert_extents(&db, &[("clone", 2), ("tube", 0)]);
}

#[test]
fn an_aborting_creator_restores_only_its_own_class_extent() {
    let db = two_class_db();
    // `a` has a creation and a schema change in flight.
    let mut a = db.session().unwrap();
    let kept = a.create_material("clone", "kept", 0).unwrap();
    a.define_material_class("gel", None).unwrap();
    let in_flight = cached_extent(&db, "clone");
    assert_eq!(in_flight, (kept.oid().raw(), 1));

    let mut b = db.session().unwrap();
    b.create_material("tube", "gone", 0).unwrap();
    b.abort().unwrap();
    assert_eq!(cached_extent(&db, "tube"), (0, 0), "the aborted creation is undone");
    assert_eq!(cached_extent(&db, "clone"), in_flight, "another class's in-flight head stays");
    db.with_catalog(|c| assert!(c.material_class("gel").is_ok(), "in-flight schema dropped"));

    // The raw abort path, which has no footprint, keeps both too.
    let t = db.begin().unwrap();
    db.create_material(t, "tube", "gone-again", 0).unwrap();
    db.abort(t).unwrap();
    assert_eq!(cached_extent(&db, "tube"), (0, 0));
    assert_eq!(cached_extent(&db, "clone"), in_flight);
    db.with_catalog(|c| assert!(c.material_class("gel").is_ok(), "in-flight schema dropped"));

    a.commit().unwrap();
    assert_extents(&db, &[("clone", 1), ("tube", 0), ("gel", 0)]);
}

#[test]
fn an_aborting_definer_keeps_other_sessions_in_flight_extents() {
    let db = two_class_db();
    let mut a = db.session().unwrap();
    let kept = a.create_material("clone", "kept", 0).unwrap();

    // The definer also creates in `tube`: that class, and only that
    // one, goes back to committed state alongside the schema.
    let mut d = db.session().unwrap();
    d.define_material_class("gel", None).unwrap();
    d.create_material("tube", "gone", 0).unwrap();
    d.abort().unwrap();
    db.with_catalog(|c| assert!(c.material_class("gel").is_err(), "aborted class must vanish"));
    assert_eq!(cached_extent(&db, "tube"), (0, 0));
    assert_eq!(cached_extent(&db, "clone"), (kept.oid().raw(), 1), "in-flight head clobbered");

    // The raw abort path keeps it too.
    let t = db.begin().unwrap();
    db.define_material_class(t, "gel", None).unwrap();
    db.create_material(t, "tube", "gone-again", 0).unwrap();
    db.abort(t).unwrap();
    assert_eq!(cached_extent(&db, "tube"), (0, 0));
    assert_eq!(cached_extent(&db, "clone"), (kept.oid().raw(), 1), "in-flight head clobbered");

    a.commit().unwrap();
    let mut s = db.session().unwrap();
    s.create_material("clone", "after", 1).unwrap();
    s.create_material("tube", "after-tube", 1).unwrap();
    s.commit().unwrap();
    assert_extents(&db, &[("clone", 2), ("tube", 1)]);
}
