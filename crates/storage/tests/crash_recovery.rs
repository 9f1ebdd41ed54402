//! Crash-recovery integration tests on the simulated file system.
//!
//! The in-crate unit tests cover the recovery algorithm's pieces; these
//! exercise the whole stack — engine, WAL, buffer pool, checkpointing —
//! through the public API against [`SimVfs`] power-loss semantics. The
//! randomized many-seed version of this lives in
//! `cargo xtask crashtest`; here are the directed cases.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use labflow_storage::{
    ClusterHint, Engine, FaultPlan, Oid, Options, Profile, Result, SegmentId, SimVfs,
    StorageError, StorageManager, Visibility,
};

fn opts() -> Options {
    Options {
        buffer_pages: 16,
        sync_commit: true,
        lock_timeout: Duration::from_millis(200),
    }
}

/// Create a `profile` store at `dir` on `sim`.
fn create(sim: &SimVfs, dir: &Path, profile: Profile) -> Engine {
    Engine::create_with(Arc::new(sim.clone()), dir, profile, opts()).unwrap()
}

/// Open the `profile` store at `dir` on the disk image `image`, running
/// recovery.
fn open(image: SimVfs, dir: &Path, profile: Profile) -> Result<Engine> {
    Engine::open_with(Arc::new(image), dir, profile, opts())
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
fn state_of(store: &Engine) -> Vec<(u64, Vec<u8>)> {
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
    let store = create(&sim, &dir, Profile::ostore());

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
    let a = open(crashed_a.clone(), &dir, Profile::ostore()).unwrap();
    let state_a = state_of(&a);
    drop(a);
    assert_eq!(state_a.len(), 16, "16 committed objects, loser effects rolled back");
    assert!(
        state_a.iter().all(|(_, data)| data != b"UNCOMMITTED" && data != b"loser"),
        "uncommitted effects must not survive"
    );

    // Determinism: an independent recovery of a copy of the same image.
    let b = open(crashed_b, &dir, Profile::ostore()).unwrap();
    assert_eq!(state_of(&b), state_a, "recovery must be deterministic");
    drop(b);

    // Idempotence: the image `a` recovered (and re-checkpointed) opens
    // to the identical state, twice.
    for _ in 0..2 {
        let again = open(crashed_a.clone(), &dir, Profile::ostore()).unwrap();
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
    let store = create(&sim, &dir, Profile::ostore());

    let keep = commit_objects(&store, 4, 3);
    let txn = store.begin().unwrap();
    store.free(txn, keep[3]).unwrap();
    store.commit(txn).unwrap();
    store.checkpoint().unwrap();

    // Post-checkpoint committed work that only the WAL knows about.
    commit_objects(&store, 5, 4);
    drop(store);
    sim.power_loss();

    let store = open(sim.clone_durable(), &dir, Profile::ostore()).unwrap();
    assert_eq!(store.object_count(), 3 + 5, "checkpointed and WAL-replayed work both present");
    assert!(
        !store.exists_vis(Visibility::Latest, keep[3]),
        "checkpointed free must not be resurrected by the log"
    );
}

/// Texas has no WAL: a crash rolls the store back to its last
/// checkpoint, no further and no less.
#[test]
fn texas_crash_rolls_back_to_last_checkpoint() {
    let sim = SimVfs::new(5150);
    let dir = PathBuf::from("/sim/texas");
    let store = create(&sim, &dir, Profile::texas());

    let oids = commit_objects(&store, 6, 5);
    store.checkpoint().unwrap();
    // Work after the checkpoint: allocations only (Texas updates are
    // in-place and unlogged, so a crash can tear them; allocations of
    // fresh objects are the paper's append-mostly workflow shape).
    commit_objects(&store, 9, 6);
    drop(store);
    sim.power_loss();

    let store = open(sim.clone_durable(), &dir, Profile::texas()).unwrap();
    assert_eq!(store.object_count(), 6, "Texas recovers exactly the last checkpoint");
    for (i, oid) in oids.iter().enumerate() {
        assert_eq!(store.read(*oid).unwrap(), vec![5, i as u8, 7]);
    }
}

/// A log-less (Texas) checkpoint that fails after its GC leaves the
/// meta file on disk contradicting the pages: the engine is wounded and
/// refuses `begin` with the typed error instead of working on, and a
/// reopen goes back to that meta file, after which work goes on.
#[test]
fn texas_checkpoint_failing_after_gc_refuses_work_until_reopened() {
    let dir = PathBuf::from("/sim/texas-wound");
    // A checkpointed base, then objects that are allocated and updated
    // after it, so the next checkpoint's GC has versions to free.
    let run_up = |sim: &SimVfs| {
        let store = create(sim, &dir, Profile::texas());
        commit_objects(&store, 6, 5);
        store.checkpoint().unwrap();
        let base = state_of(&store);
        let fresh = commit_objects(&store, 4, 6);
        for round in 0..3u8 {
            let txn = store.begin().unwrap();
            for &oid in &fresh {
                store.update(txn, oid, &[6, round]).unwrap();
            }
            store.commit(txn).unwrap();
        }
        (store, base)
    };
    // A fault-free twin measures where the page file's sync falls: the
    // next file operation after the flush's page writes.
    let twin = SimVfs::new(4242);
    let (store, _) = run_up(&twin);
    let (ops, writes) = (twin.op_count(), store.stats().page_writes);
    store.checkpoint().unwrap();
    let flushed = store.stats().page_writes - writes;
    drop(store);

    let sim = SimVfs::new(4242);
    let (store, base) = run_up(&sim);
    assert_eq!(sim.op_count(), ops, "the twin ran the same file operations");
    let (sync, gced) = (ops + flushed, store.stats().versions_gced);
    sim.set_plan(FaultPlan {
        fail_ops: (sync..sync + labflow_storage::retry::ATTEMPTS as u64).collect(),
        ..FaultPlan::default()
    });
    assert!(store.checkpoint().is_err(), "the planned faults must fail the page file's sync");
    sim.set_plan(FaultPlan::default());
    assert_eq!(store.stats().page_writes - writes, flushed, "the flush itself completed");
    assert!(store.stats().versions_gced > gced, "the failure came after the GC");
    assert!(matches!(store.begin(), Err(StorageError::Wounded(_))), "begin must be refused");
    assert!(matches!(store.checkpoint(), Err(StorageError::Wounded(_))));
    drop(store);

    let store = open(sim, &dir, Profile::texas()).unwrap();
    assert_eq!(state_of(&store), base, "a reopen recovers the last meta file");
    let more = commit_objects(&store, 3, 7);
    store.checkpoint().unwrap();
    assert_eq!(store.read(more[2]).unwrap(), vec![7, 2, 7]);
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
        let store = create(&sim, &dir, Profile::ostore());
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
        let store = open(sim.clone_durable(), &dir, Profile::ostore())
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
    let store = create(&sim, &dir, Profile::ostore());

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
    let store = create(&sim, &dir, Profile::ostore());
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
    let store = open(sim, &dir, Profile::ostore()).unwrap();
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
    let store = create(&sim, &dir, Profile::ostore());
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
    assert_eq!(store.read_vis(Visibility::At(snap), oid).unwrap(), before);
    store.release_snapshot(snap);

    // The engine is not stuck: a later transaction on the same object
    // commits and becomes visible.
    let txn = store.begin().unwrap();
    store.update(txn, oid, b"durable").unwrap();
    store.commit(txn).unwrap();
    assert_eq!(store.read(oid).unwrap(), b"durable");
}

/// Only a transaction's first touch of an oid logs a before-image:
/// recovery undoes a loser from that one, so a repeat `update` or
/// `free` appends its record with an empty `old`.
#[test]
fn a_repeat_touch_logs_no_before_image() {
    let sim = SimVfs::new(4242);
    let store = create(&sim, &PathBuf::from("/sim/first-touch"), Profile::ostore());
    let big = [b'x'; 1000];
    let txn = store.begin().unwrap();
    let a = store.allocate(txn, seg(), ClusterHint::NONE, &big).unwrap();
    let b = store.allocate(txn, seg(), ClusterHint::NONE, &big).unwrap();
    store.commit(txn).unwrap();

    let logged = |op: &dyn Fn()| {
        let before = store.stats().wal_bytes;
        op();
        store.stats().wal_bytes - before
    };
    let txn = store.begin().unwrap();
    let first = logged(&|| store.update(txn, a, b"small").unwrap());
    let repeat = logged(&|| store.update(txn, a, b"small").unwrap());
    let free_after_update = logged(&|| store.free(txn, a).unwrap());
    let first_free = logged(&|| store.free(txn, b).unwrap());
    assert!(first >= 1000, "the first touch logs the 1000-byte image: {first}");
    assert!(first_free >= 1000, "a first-touch free logs its image: {first_free}");
    assert!(repeat < 100, "a repeat update logged {repeat} bytes");
    assert!(free_after_update < 100, "a repeat free logged {free_after_update} bytes");
    // A write after the transaction's own free still fails, unlogged.
    let refused = logged(&|| assert!(store.update(txn, a, b"late").is_err()));
    assert_eq!(refused, 0);
    store.commit(txn).unwrap();
    assert!(!store.exists_vis(Visibility::Latest, a) && !store.exists_vis(Visibility::Latest, b));
}

/// A loser that updates an oid twice and then frees it, with its dirty
/// pages stolen to disk before a power loss, recovers to the committed
/// image its first touch logged.
#[test]
fn a_twice_updated_then_freed_loser_recovers_its_first_image() {
    let sim = SimVfs::new(4243);
    let dir = PathBuf::from("/sim/first-touch-loser");
    let opts = Options { buffer_pages: 2, ..opts() };
    let store = Engine::create_with(Arc::new(sim.clone()), &dir, Profile::ostore(), opts.clone())
        .unwrap();
    let oid = commit_objects(&store, 1, 9)[0];
    let committed = store.read(oid).unwrap();

    let loser = store.begin().unwrap();
    store.update(loser, oid, b"DIRTY-1").unwrap();
    store.update(loser, oid, b"DIRTY-2").unwrap();
    store.free(loser, oid).unwrap();
    // Churn enough pages through the 2-page pool that the loser's dirty
    // pages are stolen to the data file.
    let writes = store.stats().page_writes;
    for i in 0..200u32 {
        store.allocate(loser, seg(), ClusterHint::NONE, &[(i % 251) as u8; 64]).unwrap();
    }
    assert!(store.stats().page_writes > writes, "the churn must steal dirty pages");
    // A committed bystander forces the log, the loser's records with it.
    commit_objects(&store, 1, 10);
    drop(store);
    sim.power_loss();

    let store = Engine::open_with(Arc::new(sim.clone_durable()), &dir, Profile::ostore(), opts)
        .unwrap();
    assert_eq!(store.read(oid).unwrap(), committed, "the loser's first image is restored");
}

/// The data file's size in pages on `sim`'s current view.
fn file_pages(sim: &SimVfs, dir: &Path) -> u64 {
    let vfs: Arc<dyn labflow_storage::Vfs> = Arc::new(sim.clone());
    vfs.size(&dir.join("data.pg")).unwrap().unwrap() / labflow_storage::PAGE_SIZE as u64
}

/// Recover the store at `dir`, then open it once more: the second open
/// must change nothing — not the data file's size, not a byte of any
/// object. Returns the recovered store's page count.
fn recover_twice(sim: &SimVfs, dir: &Path) -> u32 {
    let store = open(sim.clone(), dir, Profile::ostore()).unwrap();
    let (pages, state) = (store.data_pages(), state_of(&store));
    drop(store);
    let size = file_pages(sim, dir);
    let store = open(sim.clone(), dir, Profile::ostore()).unwrap();
    assert_eq!(state_of(&store), state, "a second open changed the contents");
    assert_eq!(store.data_pages(), pages, "a second open changed the page count");
    drop(store);
    assert_eq!(file_pages(sim, dir), size, "a second open changed the data file");
    pages
}

/// A process that dies after its 16-page pool stole post-checkpoint
/// pages to the data file leaves those pages in no segment and on no
/// free list; recovery gives them back, and redo keeps one version per
/// object, so the recovered file is the checkpoint's plus the final
/// image.
#[test]
fn recovery_gives_back_the_pages_allocated_after_the_checkpoint() {
    let sim = SimVfs::new(4321);
    let dir = PathBuf::from("/sim/steals");
    let store = create(&sim, &dir, Profile::ostore());
    let txn = store.begin().unwrap();
    let oids: Vec<Oid> = (0..40)
        .map(|_| store.allocate(txn, seg(), ClusterHint::NONE, &[0; 700]).unwrap())
        .collect();
    store.commit(txn).unwrap();
    store.checkpoint().unwrap();
    let checkpointed = store.data_pages();
    for i in 1..=20u8 {
        let txn = store.begin().unwrap();
        for &oid in &oids {
            store.update(txn, oid, &[i; 700]).unwrap();
        }
        store.commit(txn).unwrap();
    }
    assert!(store.stats().page_writes > 100, "the pool must steal: {:?}", store.stats());
    // The process dies; the machine, and every stolen image, stays.
    drop(store);
    assert!(file_pages(&sim, &dir) > u64::from(checkpointed) + 100);

    let pages = recover_twice(&sim, &dir);
    // Forty 700-byte records, five to a page, are an eight-page image.
    // Redo writes each generation beside the one it frees, so the file
    // holds at most two of them past the checkpoint's pages, whose
    // superseded records it leaves alone. Without giving back the
    // stolen pages, and freeing what redo supersedes, it was ~330.
    assert!(pages <= checkpointed + 16, "{pages} pages after recovery, {checkpointed} before");
    let store = open(sim, &dir, Profile::ostore()).unwrap();
    assert!(oids.iter().all(|&o| store.read(o).unwrap() == [20; 700]));
}

/// Redo of a thousand committed updates of one object frees each
/// version it supersedes: the file stays within a page or two of the
/// checkpoint's.
#[test]
fn a_thousand_redone_updates_of_one_object_leave_a_bounded_file() {
    let sim = SimVfs::new(4322);
    let dir = PathBuf::from("/sim/redo-one");
    let store = create(&sim, &dir, Profile::ostore());
    let oid = commit_objects(&store, 1, 1)[0];
    store.checkpoint().unwrap();
    let checkpointed = store.data_pages();
    for i in 0..1_000u32 {
        let txn = store.begin().unwrap();
        store.update(txn, oid, &[(i % 251) as u8; 700]).unwrap();
        store.commit(txn).unwrap();
    }
    drop(store);
    sim.power_loss();

    let pages = recover_twice(&sim, &dir);
    assert!(pages <= checkpointed + 2, "{pages} pages after recovery, {checkpointed} before");
    let store = open(sim, &dir, Profile::ostore()).unwrap();
    assert_eq!(store.read(oid).unwrap(), [(999 % 251) as u8; 700]);
    assert_eq!(store.object_count(), 1);
}
