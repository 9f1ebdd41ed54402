//! Crash-recovery integration tests on the simulated file system.
//!
//! The in-crate unit tests cover the recovery algorithm's pieces; these
//! exercise the whole stack — engine, WAL, buffer pool, checkpointing —
//! through the public API against [`SimVfs`] power-loss semantics. The
//! randomized many-seed version of this lives in
//! `cargo xtask crashtest`; here are the directed cases.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use labflow_storage::{
    ClusterHint, FaultPlan, OStore, Options, Oid, SegmentId, SimVfs, StorageManager, Texas, Vfs,
};

fn opts() -> Options {
    Options {
        buffer_pages: 16,
        sync_commit: true,
        lock_timeout: Duration::from_millis(200),
    }
}

fn seg() -> SegmentId {
    SegmentId(0)
}

/// Allocate `n` objects in one committed transaction; return their oids.
fn commit_objects(store: &dyn StorageManager, n: usize, tag: u8) -> Vec<Oid> {
    let txn = store.begin().unwrap();
    let oids: Vec<Oid> = (0..n)
        .map(|i| store.allocate(txn, seg(), ClusterHint::NONE, &[tag, i as u8, 7]).unwrap())
        .collect();
    store.commit(txn).unwrap();
    oids
}

/// Read the full object map of a store.
fn state_of(store: &labflow_storage::Engine) -> Vec<(u64, Vec<u8>)> {
    let mut out: Vec<(u64, Vec<u8>)> = store
        .live_oids()
        .into_iter()
        .map(|oid| (oid.raw(), store.read(oid).unwrap()))
        .collect();
    out.sort();
    out
}

/// Recovery is idempotent: recovering the same crashed image twice —
/// and re-opening an already-recovered image — always lands on the same
/// logical state.
#[test]
fn recovery_is_idempotent_and_deterministic() {
    let sim = SimVfs::new(41);
    let dir = PathBuf::from("/sim/idem");
    let store = OStore::create_with(Arc::new(sim.clone()) as Arc<dyn Vfs>, &dir, opts()).unwrap();

    // Committed work, a checkpoint, more committed work, then an
    // uncommitted in-flight transaction at the moment of power loss.
    let first = commit_objects(&store, 8, 1);
    store.checkpoint().unwrap();
    commit_objects(&store, 8, 2);
    let txn = store.begin().unwrap();
    store.update(txn, first[0], b"UNCOMMITTED").unwrap();
    store.allocate(txn, seg(), ClusterHint::NONE, b"loser").unwrap();
    // Power loss with the transaction still open; the store object is
    // abandoned the way a killed process would abandon it.
    drop(store);
    sim.power_loss();

    let crashed_a = sim.clone_durable();
    let crashed_b = sim.clone_durable();

    // First recovery.
    let a = OStore::open_with(Arc::new(crashed_a.clone()) as Arc<dyn Vfs>, &dir, opts()).unwrap();
    let state_a = state_of(&a);
    drop(a);
    assert_eq!(state_a.len(), 16, "16 committed objects, loser effects rolled back");
    assert!(
        state_a.iter().all(|(_, data)| data != b"UNCOMMITTED" && data != b"loser"),
        "uncommitted effects must not survive"
    );

    // Determinism: an independent recovery of a copy of the same image.
    let b = OStore::open_with(Arc::new(crashed_b) as Arc<dyn Vfs>, &dir, opts()).unwrap();
    assert_eq!(state_of(&b), state_a, "recovery must be deterministic");
    drop(b);

    // Idempotence: the image `a` recovered (and re-checkpointed) opens
    // to the identical state, twice.
    for _ in 0..2 {
        let again =
            OStore::open_with(Arc::new(crashed_a.clone()) as Arc<dyn Vfs>, &dir, opts()).unwrap();
        assert_eq!(state_of(&again), state_a, "re-opening a recovered store must be a no-op");
    }
}

/// A crash between a checkpoint's metadata flip and its log truncation
/// leaves a stale log (its reset epoch behind the metadata's); recovery
/// must skip it rather than re-apply operations the checkpoint already
/// folded in.
#[test]
fn recovery_survives_power_loss_during_later_work() {
    let sim = SimVfs::new(977);
    let dir = PathBuf::from("/sim/late");
    let store = OStore::create_with(Arc::new(sim.clone()) as Arc<dyn Vfs>, &dir, opts()).unwrap();

    let keep = commit_objects(&store, 4, 3);
    let txn = store.begin().unwrap();
    store.free(txn, keep[3]).unwrap();
    store.commit(txn).unwrap();
    store.checkpoint().unwrap();

    // Post-checkpoint committed work that only the WAL knows about.
    commit_objects(&store, 5, 4);
    drop(store);
    sim.power_loss();

    let store =
        OStore::open_with(Arc::new(sim.clone_durable()) as Arc<dyn Vfs>, &dir, opts()).unwrap();
    assert_eq!(store.object_count(), 3 + 5, "checkpointed and WAL-replayed work both present");
    assert!(!store.exists(keep[3]), "checkpointed free must not be resurrected by the log");
}

/// Texas has no WAL: a crash rolls the store back to its last
/// checkpoint, no further and no less.
#[test]
fn texas_crash_rolls_back_to_last_checkpoint() {
    let sim = SimVfs::new(5150);
    let dir = PathBuf::from("/sim/texas");
    let store = Texas::create_with(Arc::new(sim.clone()) as Arc<dyn Vfs>, &dir, opts()).unwrap();

    let oids = commit_objects(&store, 6, 5);
    store.checkpoint().unwrap();
    // Work after the checkpoint: allocations only (Texas updates are
    // in-place and unlogged, so a crash can tear them; allocations of
    // fresh objects are the paper's append-mostly workflow shape).
    commit_objects(&store, 9, 6);
    drop(store);
    sim.power_loss();

    let store =
        Texas::open_with(Arc::new(sim.clone_durable()) as Arc<dyn Vfs>, &dir, opts()).unwrap();
    assert_eq!(store.object_count(), 6, "Texas recovers exactly the last checkpoint");
    for (i, oid) in oids.iter().enumerate() {
        assert_eq!(store.read(*oid).unwrap(), vec![5, i as u8, 7]);
    }
}

/// A power loss around a checkpoint's meta-file flip, with the
/// *namespace itself volatile*: the tmp-file create and the rename onto
/// `store.meta` journal in the directory and only become durable at the
/// directory sync, so the crash can land the namespace on either side
/// of the flip (or lose the rename entirely). Whatever prefix survives,
/// recovery must land on a consistent epoch — old meta plus intact log,
/// or new meta plus a stale log it skips — with every committed object
/// present and byte-exact. Sweeping the crash point over the whole
/// checkpoint window exercises every ordering, including the
/// rename-durable-but-log-truncated hazard the directory sync closes.
#[test]
fn meta_rename_reordering_lands_on_a_consistent_epoch() {
    for k in 0..30u64 {
        let sim = SimVfs::new(9000 + k);
        let dir = PathBuf::from("/sim/nsvolatile");
        let store =
            OStore::create_with(Arc::new(sim.clone()) as Arc<dyn Vfs>, &dir, opts()).unwrap();
        let oids = commit_objects(&store, 6, 7);
        store.checkpoint().unwrap();
        let more = commit_objects(&store, 5, 9);
        sim.set_plan(FaultPlan {
            crash_at_op: Some(sim.op_count() + k),
            writeback: true,
            volatile_namespace: true,
            ..FaultPlan::default()
        });
        let _ = store.checkpoint(); // dies k ops in (or survives for large k)
        drop(store);
        sim.power_loss();
        let store = OStore::open_with(Arc::new(sim.clone_durable()) as Arc<dyn Vfs>, &dir, opts())
            .unwrap_or_else(|e| panic!("crash {k} ops into the checkpoint: recovery failed: {e}"));
        assert_eq!(store.object_count(), 11, "crash {k} ops into the checkpoint");
        for (i, oid) in oids.iter().enumerate() {
            assert_eq!(store.read(*oid).unwrap(), vec![7, i as u8, 7], "pre-checkpoint, k={k}");
        }
        for (i, oid) in more.iter().enumerate() {
            assert_eq!(store.read(*oid).unwrap(), vec![9, i as u8, 7], "post-checkpoint, k={k}");
        }
    }
}

/// A *single* transient write error is absorbed by the storage layer's
/// bounded retry: no transaction fails, and the retry is visible in the
/// stats rather than in any client's face.
#[test]
fn single_transient_write_error_is_retried_away() {
    let sim = SimVfs::new(303);
    let dir = PathBuf::from("/sim/transient");
    let store = OStore::create_with(Arc::new(sim.clone()) as Arc<dyn Vfs>, &dir, opts()).unwrap();

    // Fail one upcoming file operation; the WAL force makes every
    // commit touch the disk, so some transaction will run into it.
    sim.set_plan(FaultPlan {
        crash_at_op: None,
        fail_ops: vec![sim.op_count() + 40],
        writeback: false,
        ..FaultPlan::default()
    });
    for i in 0..40 {
        let txn = store.begin().unwrap();
        store.allocate(txn, seg(), ClusterHint::NONE, &[9, i]).unwrap();
        store.commit(txn).unwrap();
    }
    assert!(
        store.stats().io_retries >= 1,
        "the planned fault should have been absorbed by a retry"
    );
}

/// A write error that *persists* across the whole retry budget wounds at
/// most the affected transaction; after reopening, the store is healthy
/// and the committed prefix intact.
#[test]
fn persistent_write_error_is_contained() {
    let sim = SimVfs::new(313);
    let dir = PathBuf::from("/sim/persistent");
    let store = OStore::create_with(Arc::new(sim.clone()) as Arc<dyn Vfs>, &dir, opts()).unwrap();
    let safe = commit_objects(&store, 3, 8);

    // Fail enough *consecutive* operations to exhaust the retry budget
    // (each retry issues a fresh operation), so the error surfaces.
    let base = sim.op_count() + 40;
    sim.set_plan(FaultPlan {
        crash_at_op: None,
        fail_ops: (0..labflow_storage::retry::ATTEMPTS as u64).map(|i| base + i).collect(),
        writeback: false,
        ..FaultPlan::default()
    });
    let mut saw_error = false;
    for i in 0..40 {
        let Ok(txn) = store.begin() else {
            saw_error = true;
            break;
        };
        let alloc = store.allocate(txn, seg(), ClusterHint::NONE, &[9, i]);
        let outcome = match alloc {
            Ok(_) => store.commit(txn),
            Err(e) => {
                let _ = store.abort(txn);
                Err(e)
            }
        };
        if outcome.is_err() {
            saw_error = true;
            break;
        }
    }
    assert!(saw_error, "the planned fault should surface as exactly one failed operation");
    drop(store);

    // No crash happened; reopen heals whatever the failed operation left.
    let store = OStore::open_with(Arc::new(sim) as Arc<dyn Vfs>, &dir, opts()).unwrap();
    for (i, oid) in safe.iter().enumerate() {
        assert_eq!(store.read(*oid).unwrap(), vec![8, i as u8, 7], "pre-fault commits survive");
    }
    store.checkpoint().expect("reopened store must not be wounded");
}

/// Durability precedes visibility: a commit whose WAL force fails must
/// not leave the transaction's versions visible to readers or later
/// snapshots. (Regression: `last_visible` used to advance before the
/// force, so a failed force left visible-but-not-durable state that
/// crash recovery would undo.)
#[test]
fn failed_commit_force_publishes_nothing() {
    let sim = SimVfs::new(777);
    let dir = PathBuf::from("/sim/visdur");
    let store = OStore::create_with(Arc::new(sim.clone()) as Arc<dyn Vfs>, &dir, opts()).unwrap();
    let oid = commit_objects(&store, 1, 8)[0];
    let before = store.read(oid).unwrap();

    let txn = store.begin().unwrap();
    store.update(txn, oid, b"PHANTOM").unwrap();
    // Fail every upcoming mutating operation long enough to exhaust the
    // retry budget on whatever the commit force touches.
    let base = sim.op_count();
    sim.set_plan(FaultPlan {
        fail_ops: (0..8 * labflow_storage::retry::ATTEMPTS as u64).map(|i| base + i).collect(),
        ..FaultPlan::default()
    });
    assert!(store.commit(txn).is_err(), "the planned faults must surface in the force");
    sim.set_plan(FaultPlan::default());

    // Nothing was published: plain reads and fresh snapshots both see
    // the pre-transaction state.
    assert_eq!(store.read(oid).unwrap(), before, "failed commit must not be visible");
    let snap = store.begin_snapshot().unwrap();
    assert_eq!(store.read_at(&snap, oid).unwrap(), before);
    store.release_snapshot(snap);

    // The engine is not stuck: a later transaction on the same object
    // commits and becomes visible.
    let txn = store.begin().unwrap();
    store.update(txn, oid, b"durable").unwrap();
    store.commit(txn).unwrap();
    assert_eq!(store.read(oid).unwrap(), b"durable");
}
