//! Trait-level behaviour shared by all five backends: the contract
//! LabBase programs against, exercised uniformly.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use labflow_storage::{
    ClusterHint, Engine, MemStore, Options, Profile, SegmentId, StorageError, StorageManager,
    Visibility,
};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lfs-trait-{}-{}-{}",
        std::process::id(),
        tag,
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn all_backends(tag: &str) -> Vec<Arc<dyn StorageManager>> {
    let base = scratch(tag);
    let opts = Options { buffer_pages: 32, ..Options::default() };
    vec![
        Arc::new(Engine::create(&base.join("o"), Profile::ostore(), opts.clone()).unwrap()),
        Arc::new(Engine::create(&base.join("tc"), Profile::texas_tc(), opts.clone()).unwrap()),
        Arc::new(Engine::create(&base.join("t"), Profile::texas(), opts).unwrap()),
        Arc::new(MemStore::ostore_mm()),
        Arc::new(MemStore::texas_mm()),
    ]
}

#[test]
fn empty_and_huge_payloads_round_trip_everywhere() {
    for store in all_backends("payloads") {
        let t = store.begin().unwrap();
        let empty = store.allocate(t, SegmentId(0), ClusterHint::NONE, &[]).unwrap();
        let huge_data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let huge = store.allocate(t, SegmentId(0), ClusterHint::NONE, &huge_data).unwrap();
        store.commit(t).unwrap();
        assert_eq!(store.read(empty).unwrap(), Vec::<u8>::new(), "{}", store.name());
        assert_eq!(store.read(huge).unwrap(), huge_data, "{}", store.name());
    }
}

/// A read that must stay valid to commit takes `lock_exclusive` before
/// its read at `Visibility::In`: the lock, not the read, is what a rival writer waits on,
/// and it is held until the reader commits.
#[test]
fn read_in_holds_a_shared_lock_until_commit() {
    let base = scratch("readin");
    let opts = Options { lock_timeout: Duration::from_millis(60), ..Options::default() };
    let store = Engine::create(&base, Profile::ostore(), opts).unwrap();
    let t = store.begin().unwrap();
    let oid = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"locked").unwrap();
    store.commit(t).unwrap();

    let reader = store.begin().unwrap();
    store.lock_exclusive(reader, oid).unwrap();
    assert_eq!(store.read_vis(Visibility::In(reader), oid).unwrap(), b"locked");
    // A writer cannot update while the reader's lock is held.
    let writer = store.begin().unwrap();
    let err = store.update(writer, oid, b"nope").unwrap_err();
    assert!(matches!(err, StorageError::LockTimeout(_)));
    store.commit(reader).unwrap();
    // Now it can.
    store.update(writer, oid, b"yes").unwrap();
    store.commit(writer).unwrap();
    assert_eq!(store.read(oid).unwrap(), b"yes");
}

/// `lock_exclusive` blocks a second writer — one that locks, or one
/// that just writes — until the holder commits or aborts, while
/// committed reads stay lock-free; single-user flavours refuse the
/// second `begin` instead. A resolved transaction cannot lock.
#[test]
fn lock_exclusive_blocks_a_second_writer_until_resolution() {
    for store in all_backends("lockx") {
        let name = store.name();
        let t = store.begin().unwrap();
        let oid = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"hot").unwrap();
        store.commit(t).unwrap();

        if !store.supports_concurrency() {
            let holder = store.begin().unwrap();
            store.lock_exclusive(holder, oid).unwrap();
            assert!(matches!(store.begin(), Err(StorageError::SingleUser)), "{name}");
            store.commit(holder).unwrap();
            let dead = store.lock_exclusive(holder, oid);
            assert!(matches!(dead, Err(StorageError::UnknownTxn(_))), "{name}");
            continue;
        }
        for (commit, rival_writes) in [(true, false), (false, true)] {
            let holder = store.begin().unwrap();
            store.lock_exclusive(holder, oid).unwrap();
            store.lock_exclusive(holder, oid).unwrap(); // re-entrant
            let (tx, rx) = std::sync::mpsc::channel();
            let rival = {
                let store = store.clone();
                std::thread::spawn(move || {
                    let t = store.begin().unwrap();
                    if rival_writes {
                        store.update(t, oid, b"rival").unwrap();
                    } else {
                        store.lock_exclusive(t, oid).unwrap();
                    }
                    tx.send(()).unwrap();
                    store.commit(t).unwrap();
                })
            };
            assert!(rx.recv_timeout(Duration::from_millis(50)).is_err(), "{name}: rival ran");
            assert_eq!(store.read(oid).unwrap(), b"hot", "{name}: reads take no lock");
            if commit {
                store.commit(holder).unwrap();
            } else {
                store.abort(holder).unwrap();
            }
            rx.recv_timeout(Duration::from_secs(5)).expect("rival granted after release");
            rival.join().unwrap();
            let dead = store.lock_exclusive(holder, oid);
            assert!(matches!(dead, Err(StorageError::UnknownTxn(_))), "{name}");
        }
        assert_eq!(store.read(oid).unwrap(), b"rival", "{name}");
    }
}

/// Reads at `Visibility::In` see the transaction's own pending writes;
/// reads at `Visibility::Latest` see committed state only.
#[test]
fn own_pending_writes_are_seen_only_through_the_txn_view() {
    for store in all_backends("ownview") {
        let name = store.name();
        let t = store.begin().unwrap();
        let kept = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"v1").unwrap();
        let doomed = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"d").unwrap();
        store.commit(t).unwrap();

        let t = store.begin().unwrap();
        store.update(t, kept, b"v2").unwrap();
        store.free(t, doomed).unwrap();
        let fresh = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"new").unwrap();
        assert_eq!(store.read_vis(Visibility::In(t), kept).unwrap(), b"v2", "{name}");
        assert_eq!(store.read(kept).unwrap(), b"v1", "{name}");
        assert!(!store.exists_vis(Visibility::In(t), doomed), "{name}");
        assert!(store.exists_vis(Visibility::Latest, doomed), "{name}");
        assert_eq!(store.read_vis(Visibility::In(t), fresh).unwrap(), b"new", "{name}");
        assert!(store.exists_vis(Visibility::In(t), fresh), "{name}");
        assert!(!store.exists_vis(Visibility::Latest, fresh), "{name}");
        assert!(matches!(store.read(fresh), Err(StorageError::UnknownObject(_))), "{name}");
        store.commit(t).unwrap();
        assert_eq!(store.read(kept).unwrap(), b"v2", "{name}");
        assert!(!store.exists_vis(Visibility::Latest, doomed), "{name}");
        assert!(store.exists_vis(Visibility::Latest, fresh), "{name}");
    }
}

/// A read at an open snapshot reads a stable cut across a later
/// commit, and `open_snapshots` drains to 0 once every snapshot is
/// released.
#[test]
fn snapshots_read_a_stable_cut_and_drain_on_release() {
    for store in all_backends("snapcut") {
        let name = store.name();
        let t = store.begin().unwrap();
        let a = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"a1").unwrap();
        let b = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"b1").unwrap();
        store.commit(t).unwrap();

        assert_eq!(store.open_snapshots(), 0, "{name}");
        let snap = store.begin_snapshot().unwrap();
        let t = store.begin().unwrap();
        store.update(t, a, b"a2").unwrap();
        store.free(t, b).unwrap();
        let c = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"c1").unwrap();
        store.commit(t).unwrap();
        let later = store.begin_snapshot().unwrap();
        assert_eq!(store.open_snapshots(), 2, "{name}");

        assert_eq!(store.read_vis(Visibility::At(snap), a).unwrap(), b"a1", "{name}");
        assert_eq!(store.read_vis(Visibility::At(snap), b).unwrap(), b"b1", "{name}");
        assert!(store.exists_vis(Visibility::At(snap), b), "{name}");
        assert!(!store.exists_vis(Visibility::At(snap), c), "{name}");
        assert_eq!(store.read_vis(Visibility::At(later), a).unwrap(), b"a2", "{name}");
        assert!(!store.exists_vis(Visibility::At(later), b), "{name}");
        assert!(store.exists_vis(Visibility::At(later), c), "{name}");
        // Checkpoint GC honours the pin.
        store.checkpoint().unwrap();
        let pinned = store.read_vis(Visibility::At(snap), b).unwrap();
        assert_eq!(pinned, b"b1", "{name} after checkpoint");

        store.release_snapshot(snap);
        assert_eq!(store.open_snapshots(), 1, "{name}");
        store.release_snapshot(later);
        assert_eq!(store.open_snapshots(), 0, "{name}");
    }
}

/// `read_vis` and `exists_vis` agree under every visibility rule along
/// one history: a committed object, a snapshot taken before the next
/// commit, an update pending in an open transaction, a free in that
/// transaction, and its commit. Only reads at a snapshot count as
/// snapshot reads.
#[test]
fn every_visibility_rule_reads_and_tests_existence_alike() {
    for store in all_backends("visrules") {
        let name = store.name();
        let t = store.begin().unwrap();
        let o = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"v1").unwrap();
        let d = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"d1").unwrap();
        store.commit(t).unwrap();
        let snap = store.begin_snapshot().unwrap();
        let before = store.stats();
        let mut at_reads = 0;
        let mut check = |vis: Visibility, oid, want: Option<&[u8]>| {
            let got = store.read_vis(vis, oid);
            assert_eq!(got.is_ok(), store.exists_vis(vis, oid), "{name} {vis:?} {oid}");
            match want {
                Some(bytes) => assert_eq!(got.unwrap(), bytes, "{name} {vis:?} {oid}"),
                None => assert!(
                    matches!(got, Err(StorageError::UnknownObject(_))),
                    "{name} {vis:?} {oid}"
                ),
            }
            at_reads += matches!(vis, Visibility::At(_)) as u64;
        };
        let (latest, at) = (Visibility::Latest, Visibility::At(snap));

        for vis in [latest, at] {
            check(vis, o, Some(b"v1"));
            check(vis, d, Some(b"d1"));
        }
        let t = store.begin().unwrap();
        let own = Visibility::In(t);
        store.update(t, o, b"v2").unwrap();
        check(own, o, Some(b"v2"));
        for vis in [latest, at] {
            check(vis, o, Some(b"v1"));
        }
        store.free(t, d).unwrap();
        check(own, d, None);
        check(own, o, Some(b"v2"));
        for vis in [latest, at] {
            check(vis, d, Some(b"d1"));
        }
        store.commit(t).unwrap();
        check(latest, o, Some(b"v2"));
        check(latest, d, None);
        check(at, o, Some(b"v1"));
        check(at, d, Some(b"d1"));

        let snapshot_reads = store.stats().delta(&before).snapshot_reads;
        assert_eq!(snapshot_reads, at_reads, "{name}");
        store.release_snapshot(snap);
    }
}

#[test]
fn drop_caches_never_changes_contents() {
    for store in all_backends("dropcache") {
        let t = store.begin().unwrap();
        let oids: Vec<_> = (0..300u32)
            .map(|i| {
                store
                    .allocate(
                        t,
                        SegmentId((i % 4) as u8),
                        ClusterHint::NONE,
                        &i.to_le_bytes(),
                    )
                    .unwrap()
            })
            .collect();
        store.commit(t).unwrap();
        store.drop_caches().unwrap();
        for (i, &oid) in oids.iter().enumerate() {
            assert_eq!(
                store.read(oid).unwrap(),
                (i as u32).to_le_bytes(),
                "{} after drop_caches",
                store.name()
            );
        }
    }
}

#[test]
fn stats_deltas_are_consistent_everywhere() {
    for store in all_backends("stats") {
        let before = store.stats();
        let t = store.begin().unwrap();
        for i in 0..50u32 {
            let oid = store.allocate(t, SegmentId(0), ClusterHint::NONE, &i.to_le_bytes()).unwrap();
            // The allocation is pending until commit: committed-state
            // `read` cannot see it, the transaction's own view can.
            store.read_vis(Visibility::In(t), oid).unwrap();
        }
        store.commit(t).unwrap();
        let d = store.stats().delta(&before);
        assert_eq!(d.allocs, 50, "{}", store.name());
        assert_eq!(d.reads, 50, "{}", store.name());
        assert_eq!(d.commits, 1, "{}", store.name());
        assert_eq!(d.bytes_allocated, 200, "{}", store.name());
    }
}

#[test]
fn segments_report_matches_placement_policy() {
    for store in all_backends("segrep") {
        let t = store.begin().unwrap();
        for i in 0..40u32 {
            store
                .allocate(t, SegmentId((i % 4) as u8), ClusterHint::NONE, &[1u8; 200])
                .unwrap();
        }
        store.commit(t).unwrap();
        let segs = store.segments();
        match store.name() {
            "OStore" => {
                assert_eq!(segs.len(), 4);
                assert!(segs.iter().all(|s| s.pages >= 1), "every segment got pages");
            }
            "Texas" | "Texas+TC" => {
                // One physical segment regardless of what the client asked.
                assert_eq!(segs.len(), 1);
                assert!(segs[0].pages >= 1);
            }
            _ => assert!(segs.is_empty(), "-mm versions have no segments"),
        }
    }
}

#[test]
fn interleaved_transactions_on_concurrent_backends() {
    for store in all_backends("interleave") {
        if !store.supports_concurrency() {
            continue;
        }
        // Two open transactions mutate disjoint objects, commit in
        // reverse order; both survive.
        let t1 = store.begin().unwrap();
        let a = store.allocate(t1, SegmentId(0), ClusterHint::NONE, b"from-t1").unwrap();
        let t2 = store.begin().unwrap();
        let b = store.allocate(t2, SegmentId(0), ClusterHint::NONE, b"from-t2").unwrap();
        store.commit(t2).unwrap();
        store.commit(t1).unwrap();
        assert_eq!(store.read(a).unwrap(), b"from-t1", "{}", store.name());
        assert_eq!(store.read(b).unwrap(), b"from-t2", "{}", store.name());
    }
}

#[test]
fn update_grow_shrink_cycles_survive_checkpoints() {
    for store in all_backends("growshrink") {
        let t = store.begin().unwrap();
        let oid = store.allocate(t, SegmentId(0), ClusterHint::NONE, &[0u8; 8]).unwrap();
        store.commit(t).unwrap();
        for round in 1..=6u32 {
            let size = if round % 2 == 0 { 16 } else { 3000 * round as usize };
            let data = vec![round as u8; size];
            let t = store.begin().unwrap();
            store.update(t, oid, &data).unwrap();
            store.commit(t).unwrap();
            if round % 2 == 0 {
                store.checkpoint().unwrap();
            }
            assert_eq!(store.read(oid).unwrap(), data, "{} round {round}", store.name());
        }
    }
}

#[test]
fn unknown_object_errors_are_uniform() {
    for store in all_backends("unknown") {
        let ghost = labflow_storage::Oid::from_raw(123_456);
        assert!(matches!(
            store.read(ghost),
            Err(StorageError::UnknownObject(_))
        ));
        assert!(!store.exists_vis(Visibility::Latest, ghost));
        let t = store.begin().unwrap();
        assert!(matches!(
            store.update(t, ghost, b"x"),
            Err(StorageError::UnknownObject(_))
        ));
        let r = store.free(t, ghost);
        assert!(
            matches!(r, Err(StorageError::UnknownObject(_))),
            "{}: free(ghost) returned {r:?}",
            store.name()
        );
        store.commit(t).unwrap();
    }
}

/// A latest-committed reader never sees a transaction half-committed.
/// The writer touches a committed `head` object, allocates fillers and a
/// `target`, then points `head` at the target — the shape of a LabBase
/// step that links history onto a material and then creates its
/// most-recent cache record. A reader that follows the new pointer
/// must find the target.
#[test]
fn latest_reads_never_see_a_half_committed_transaction() {
    use labflow_storage::Oid;
    use std::sync::atomic::{AtomicBool, Ordering};
    for store in all_backends("halfcommit") {
        if !store.supports_concurrency() {
            continue;
        }
        let t = store.begin().unwrap();
        let head = store.allocate(t, SegmentId(0), ClusterHint::NONE, &0u64.to_le_bytes()).unwrap();
        store.commit(t).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let (store, stop) = (store.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut followed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let ptr = u64::from_le_bytes(store.read(head).unwrap().try_into().unwrap());
                    if ptr != 0 {
                        let target = Oid::from_raw(ptr);
                        store.read(target).map_err(|e| format!("{target}: {e}"))?;
                        followed += 1;
                    }
                }
                Ok::<u64, String>(followed)
            })
        };
        for i in 0..400u32 {
            let t = store.begin().unwrap();
            let old = store.read_vis(Visibility::In(t), head).unwrap();
            store.update(t, head, &old).unwrap();
            for _ in 0..16 {
                store.allocate(t, SegmentId(1), ClusterHint::NONE, &i.to_le_bytes()).unwrap();
            }
            let target = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"target").unwrap();
            store.update(t, head, &target.raw().to_le_bytes()).unwrap();
            store.commit(t).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let followed = reader.join().unwrap();
        assert!(followed.is_ok(), "{}: reader followed a pointer to {followed:?}", store.name());
    }
}
