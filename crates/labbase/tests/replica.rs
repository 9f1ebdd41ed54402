//! Follower-mode behaviour of the LabBase wrapper: read-only gating of
//! local write transactions, and cache refresh after transactions are
//! applied *underneath* the wrapper by the replication pipeline.

use std::collections::HashMap;
use std::sync::Arc;

use labbase::schema::attrs;
use labbase::{AttrType, LabBase, LabError};
use labflow_storage::{
    decode_shipped, Engine, MemStore, Options, Profile, SimVfs, StorageManager, Vfs, WalRecord,
};

fn mem_db() -> LabBase {
    let store: Arc<dyn StorageManager> = Arc::new(MemStore::ostore_mm());
    let db = LabBase::create(store).unwrap();
    let t = db.begin().unwrap();
    db.define_material_class(t, "clone", None).unwrap();
    db.commit(t).unwrap();
    db
}

/// Read-only mode refuses local write transactions (both the raw
/// transaction API and footprint-tracked sessions) with a typed error,
/// keeps serving reads, and lifts cleanly on promotion.
#[test]
fn read_only_gates_writes_but_not_reads() {
    let db = mem_db();
    let t = db.begin().unwrap();
    let m = db.create_material(t, "clone", "m-1", 5).unwrap();
    db.commit(t).unwrap();

    db.set_read_only(true);
    assert!(db.is_read_only());
    assert!(matches!(db.begin(), Err(LabError::ReadOnly)));
    assert!(matches!(db.session().err(), Some(LabError::ReadOnly)));
    assert_eq!(db.open_sessions(), 0, "refused session must not leak the gauge");

    // Reads are unaffected: views and queries still serve.
    let v = db.view().unwrap();
    assert!(v.material_exists(m));
    assert_eq!(db.find_material("m-1").unwrap(), Some(m));
    drop(v);

    // Promotion lifts the gate.
    db.set_read_only(false);
    let t = db.begin().unwrap();
    db.create_material(t, "clone", "m-2", 6).unwrap();
    db.commit(t).unwrap();
}

/// Ship every committed transaction past `from` from `primary`'s WAL
/// into `follower` — the same minimal pump the replication tests in
/// `labflow-storage` use.
fn ship(
    primary: &dyn StorageManager,
    follower: &dyn StorageManager,
    from: u64,
    pending: &mut HashMap<u64, Vec<WalRecord>>,
) -> u64 {
    let mut at = from;
    loop {
        let chunk = primary.wal_stream_from(at, 1 << 16).unwrap();
        if chunk.is_empty() {
            return at;
        }
        for (_, rec) in decode_shipped(chunk.start, &chunk.bytes).unwrap() {
            match rec {
                WalRecord::Begin(t) => {
                    pending.insert(t, Vec::new());
                }
                WalRecord::Commit(t) => {
                    let recs = pending.remove(&t).unwrap_or_default();
                    follower.replica_apply_commit(&recs).unwrap();
                }
                WalRecord::Abort(t) => {
                    pending.remove(&t);
                }
                WalRecord::Reset(_) => {}
                op => {
                    pending.entry(op.txn()).or_default().push(op);
                }
            }
        }
        at = chunk.end;
    }
}

/// Transactions applied underneath the wrapper (schema changes included)
/// become visible to the follower's LabBase after a cache refresh: the
/// catalog, name index, and state index all reload from storage truth.
#[test]
fn refresh_replica_caches_reveals_shipped_transactions() {
    let sim = SimVfs::new(19);
    let vfs: Arc<dyn Vfs> = Arc::new(sim);
    let store = |vfs, dir: &str| -> Arc<dyn StorageManager> {
        Arc::new(
            Engine::create_with(vfs, dir.as_ref(), Profile::ostore(), Options::default()).unwrap(),
        )
    };
    let pri_store = store(vfs.clone(), "/sim/pri");
    let fol_store = store(vfs, "/sim/fol");

    // Subscribe before the primary's LabBase bootstrap so the follower
    // replays the root/catalog creation too, then open the wrapper over
    // the replicated store.
    let mut from = pri_store.replication_lsn().unwrap();
    let mut pending = HashMap::new();
    let primary = LabBase::create(pri_store.clone()).unwrap();
    let t = primary.begin().unwrap();
    primary.define_material_class(t, "clone", None).unwrap();
    primary
        .define_step_class(t, "assay", attrs(&[("q", AttrType::Real)]))
        .unwrap();
    primary.commit(t).unwrap();

    from = ship(pri_store.as_ref(), fol_store.as_ref(), from, &mut pending);
    let follower = LabBase::open(fol_store.clone()).unwrap();
    follower.set_read_only(true);

    // Warm the follower's caches, then commit more work on the primary.
    assert_eq!(follower.find_material("m-1").unwrap(), None);
    let t = primary.begin().unwrap();
    let m = primary.create_material(t, "clone", "m-1", 9).unwrap();
    primary.set_state(t, m, "queued", 10).unwrap();
    primary.commit(t).unwrap();
    from = ship(pri_store.as_ref(), fol_store.as_ref(), from, &mut pending);
    assert!(pending.is_empty());

    // The storage layer has the new material; the wrapper's caches are
    // stale until refreshed.
    follower.refresh_replica_caches().unwrap();
    assert_eq!(follower.find_material("m-1").unwrap(), Some(m));
    let v = follower.view().unwrap();
    assert!(v.material_exists(m));
    assert_eq!(v.state_of(m).unwrap().as_deref(), Some("queued"));
    assert_eq!(v.material(m).unwrap().class, "clone");
    let _ = from;
}

/// Extents live in per-class records the follower receives as plain
/// object updates; a cache refresh and a cold open must overlay the same
/// ones — and match the primary's.
#[test]
fn refresh_and_open_see_the_same_extents() {
    let vfs: Arc<dyn Vfs> = Arc::new(SimVfs::new(23));
    let store = |vfs, dir: &str| -> Arc<dyn StorageManager> {
        Arc::new(
            Engine::create_with(vfs, dir.as_ref(), Profile::ostore(), Options::default()).unwrap(),
        )
    };
    let pri_store = store(vfs.clone(), "/sim/pri");
    let fol_store = store(vfs, "/sim/fol");
    let mut from = pri_store.replication_lsn().unwrap();
    let mut pending = HashMap::new();
    let primary = LabBase::create(pri_store.clone()).unwrap();
    let t = primary.begin().unwrap();
    primary.define_material_class(t, "clone", None).unwrap();
    primary.define_material_class(t, "tube", None).unwrap();
    primary.commit(t).unwrap();
    from = ship(pri_store.as_ref(), fol_store.as_ref(), from, &mut pending);
    let follower = LabBase::open(fol_store.clone()).unwrap();
    follower.set_read_only(true);

    for i in 0..5 {
        let t = primary.begin().unwrap();
        primary.create_material(t, "clone", &format!("c-{i}"), i).unwrap();
        if i % 2 == 0 {
            primary.create_material(t, "tube", &format!("t-{i}"), i).unwrap();
        }
        primary.commit(t).unwrap();
    }
    from = ship(pri_store.as_ref(), fol_store.as_ref(), from, &mut pending);
    follower.refresh_replica_caches().unwrap();
    let opened = LabBase::open(fol_store.clone()).unwrap();

    let extents = |db: &LabBase| -> Vec<(String, u64, u64)> {
        db.with_catalog(|c| {
            c.material_classes()
                .iter()
                .map(|mc| (mc.name.clone(), mc.extent_head.raw(), mc.count))
                .collect()
        })
    };
    assert_eq!(extents(&follower), extents(&opened));
    assert_eq!(extents(&follower), extents(&primary));
    assert_eq!(follower.count_class("clone", false).unwrap(), 5);
    assert_eq!(follower.count_class("tube", false).unwrap(), 3);
    assert_eq!(follower.class_extent("clone", false).unwrap().len(), 5);
    assert!(follower.check_integrity().unwrap().is_healthy());
    let _ = from;
}
