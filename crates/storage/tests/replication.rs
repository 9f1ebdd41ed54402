//! Directed tests for the storage-level replication primitives: WAL
//! streaming on the primary, grouped re-apply on a follower, follower
//! crash-durability, and epoch promotion. The networked pipeline and
//! the crash-tortured failover sweep live in `crates/repl` and
//! `cargo xtask failover`; these pin the engine contract they build on.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use labflow_storage::{
    decode_shipped, ClusterHint, Engine, Oid, Options, Profile, SegmentId, SimVfs, StorageManager,
    Visibility, Vfs, WalRecord,
};

fn opts() -> Options {
    Options {
        buffer_pages: 16,
        sync_commit: true,
        lock_timeout: Duration::from_millis(200),
    }
}

/// Ship everything past `from` on `primary` to `follower`, grouping
/// records by transaction and applying each transaction whose commit
/// frame arrived — the minimal correct follower pump.
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

fn state_of(store: &labflow_storage::Engine) -> Vec<(u64, Vec<u8>)> {
    let mut out: Vec<(u64, Vec<u8>)> = store
        .live_oids()
        .into_iter()
        .map(|oid| (oid.raw(), store.read(oid).unwrap()))
        .collect();
    out.sort();
    out
}

#[test]
fn shipped_commits_reproduce_primary_state_and_survive_follower_crash() {
    let sim = SimVfs::new(7);
    let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
    let primary =
        Engine::create_with(vfs.clone(), &PathBuf::from("/sim/pri"), Profile::ostore(), opts())
            .unwrap();
    let follower =
        Engine::create_with(vfs.clone(), &PathBuf::from("/sim/fol"), Profile::ostore(), opts())
            .unwrap();

    // Subscribe at the current tail (just past create's reset frame).
    let mut from = primary.replication_lsn().unwrap();
    let mut pending = HashMap::new();

    // A mix of alloc / update / free / abort across several txns.
    let t = primary.begin().unwrap();
    let a = primary.allocate(t, SegmentId(0), ClusterHint::NONE, b"alpha").unwrap();
    let b = primary.allocate(t, SegmentId(1), ClusterHint::NONE, b"beta").unwrap();
    primary.commit(t).unwrap();
    from = ship(&primary, &follower, from, &mut pending);

    let t = primary.begin().unwrap();
    primary.update(t, a, b"alpha-2").unwrap();
    primary.free(t, b).unwrap();
    let c = primary.allocate(t, SegmentId(0), ClusterHint::NONE, b"gamma").unwrap();
    primary.commit(t).unwrap();

    let t = primary.begin().unwrap();
    primary.update(t, a, b"never-lands").unwrap();
    primary.abort(t).unwrap();
    from = ship(&primary, &follower, from, &mut pending);
    assert!(pending.is_empty(), "every shipped txn resolved");

    // The follower's committed state mirrors the primary's.
    assert_eq!(follower.read(a).unwrap(), b"alpha-2");
    assert!(!follower.exists_vis(Visibility::Latest, b));
    assert_eq!(follower.read(c).unwrap(), b"gamma");

    // Snapshot reads on the follower see a stable LSN.
    let snap = follower.begin_snapshot().unwrap();
    assert_eq!(follower.read_vis(Visibility::At(snap), a).unwrap(), b"alpha-2");
    follower.release_snapshot(snap);

    // Applied transactions are durable on the follower in their own
    // right: cut power and recover from its WAL + checkpoint.
    let follower_state = state_of(&follower);
    drop(follower);
    let survivor = sim.clone_durable();
    survivor.power_loss();
    let reopened = Engine::open_with(
        Arc::new(survivor) as Arc<dyn Vfs>,
        &PathBuf::from("/sim/fol"),
        Profile::ostore(),
        opts(),
    )
    .unwrap();
    assert_eq!(state_of(&reopened), follower_state);

    // A promoted follower's allocator never re-issues a shipped oid.
    let t = reopened.begin().unwrap();
    let fresh = reopened.allocate(t, SegmentId(0), ClusterHint::NONE, b"post").unwrap();
    reopened.commit(t).unwrap();
    assert!(fresh.raw() > c.raw(), "fresh oid {fresh} must be above shipped {c}");
    let _ = from;
}

#[test]
fn duplicate_replica_alloc_is_refused_not_clobbered() {
    let sim = SimVfs::new(11);
    let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
    let follower =
        Engine::create_with(vfs, &PathBuf::from("/sim/dup"), Profile::ostore(), opts()).unwrap();
    let recs = vec![WalRecord::Alloc {
        txn: 1,
        oid: Oid::from_raw(42),
        seg: SegmentId(0),
        hint: ClusterHint::NONE,
        data: b"first".to_vec(),
    }];
    follower.replica_apply_commit(&recs).unwrap();
    // Re-applying the same alloc (a replayed chunk) must fail typed and
    // leave the original binding intact.
    assert!(follower.replica_apply_commit(&recs).is_err());
    assert_eq!(follower.read(Oid::from_raw(42)).unwrap(), b"first");
}

#[test]
fn promote_epoch_raises_the_sealed_epoch_to_the_floor() {
    let sim = SimVfs::new(13);
    let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
    let store =
        Engine::create_with(vfs.clone(), &PathBuf::from("/sim/promo"), Profile::ostore(), opts())
            .unwrap();
    let before = store.store_epoch();
    store.promote_epoch(before + 100).unwrap();
    assert_eq!(store.store_epoch(), before + 100);
    // A floor at or below the current epoch still advances by one.
    store.promote_epoch(0).unwrap();
    assert_eq!(store.store_epoch(), before + 101);
    // The promoted epoch is sealed: it survives a crash + reopen.
    drop(store);
    let survivor = sim.clone_durable();
    survivor.power_loss();
    let reopened = Engine::open_with(
        Arc::new(survivor) as Arc<dyn Vfs>,
        &PathBuf::from("/sim/promo"),
        Profile::ostore(),
        opts(),
    )
    .unwrap();
    // Reopen folds recovery into a fresh checkpoint (epoch + 1).
    assert!(reopened.store_epoch() > before + 100);
}
