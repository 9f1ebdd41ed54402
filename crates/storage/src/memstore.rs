//! The `-mm` server versions: storage management compiled out.
//!
//! The paper's `OStore-mm` and `Texas-mm` run the same LabBase code with
//! everything in main memory and nothing persistent, isolating pure CPU
//! cost. [`MemStore`] provides both under the common trait; the only
//! behavioural differences preserved are the names and the Texas flavor's
//! single-user restriction and missing abort, so the workload driver can
//! treat all five versions identically.
//!
//! Like the page-based engine, objects are kept as newest-first version
//! chains: writes stay pending (visible only to their transaction) until
//! commit stamps them with one LSN, snapshots read a stable cut, and the
//! chain is trimmed against the open-snapshot low-water mark. One mutex
//! guards everything, which makes the commit flip trivially atomic.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::error::{Result, StorageError};
use crate::ids::{ClusterHint, Oid, SegmentId, TxnId};
use crate::lock::LockManager;
use crate::stats::{StatsSnapshot, StorageStats};
use crate::traits::{SegmentInfo, Snapshot, StorageManager, Visibility};

/// Soft bound on committed versions kept per chain (matching the heap).
const MAX_CHAIN: usize = 8;

/// Deadlock-avoidance timeout for explicit object locks (matches the
/// page engine's default).
const LOCK_TIMEOUT: Duration = Duration::from_millis(500);

/// One version of an object: `data` of `None` is a tombstone, `txn != 0`
/// marks a pending (uncommitted) version — always at the chain head.
struct MemVersion {
    data: Option<Vec<u8>>,
    lsn: u64,
    txn: u64,
}

struct Inner {
    /// Object table: oid → newest-first version chain.
    chains: HashMap<u64, Vec<MemVersion>>,
    /// Active transactions: txn → oids it wrote (commit flips, abort discards).
    active: HashMap<u64, Vec<u64>>,
    next_oid: u64,
    /// Newest fully published commit LSN; snapshots read at this point.
    last_visible: u64,
    /// Open snapshots: token → pinned LSN (the GC low-water mark).
    snapshots: HashMap<u64, u64>,
    next_snap: u64,
}

impl Inner {
    /// The version of `chain` visible under `vis` (newest-first scan);
    /// it may be a tombstone.
    fn resolve(chain: &[MemVersion], vis: Visibility) -> Option<&MemVersion> {
        chain.iter().find(|v| match vis {
            Visibility::Latest => v.txn == 0,
            Visibility::In(txn) => v.txn == txn.raw() || v.txn == 0,
            Visibility::At(snap) => v.txn == 0 && v.lsn <= snap.lsn,
        })
    }

    fn snapshot_floor(&self) -> u64 {
        self.snapshots.values().copied().min().unwrap_or(u64::MAX)
    }

    /// Drop every version older than the newest committed one at or
    /// below `floor`; returns how many were trimmed. A chain reduced to
    /// a single committed tombstone is equivalent to no chain at all.
    fn trim(chain: &mut Vec<MemVersion>, floor: u64) -> u64 {
        let Some(keep) = chain.iter().position(|v| v.txn == 0 && v.lsn <= floor) else {
            return 0;
        };
        let trimmed = (chain.len() - keep - 1) as u64;
        chain.truncate(keep + 1);
        if chain.len() == 1 && chain.first().is_some_and(|v| v.txn == 0 && v.data.is_none()) {
            chain.clear();
            return trimmed + 1;
        }
        trimmed
    }
}

/// A main-memory storage manager.
pub struct MemStore {
    name: &'static str,
    single_user: bool,
    can_abort: bool,
    inner: Mutex<Inner>,
    next_txn: AtomicU64,
    /// Object locks, taken by every write and by `lock_exclusive` and
    /// held to commit/abort.
    /// Versioning alone cannot serialize read-modify-write cycles on
    /// shared objects like the LabBase catalog: a transaction that read
    /// the head, lost the race, and committed anyway would chain onto an
    /// aborted sibling. The `-mm` stores honour the same lock-first
    /// discipline as the page engine.
    locks: LockManager,
    stats: StorageStats,
}

impl MemStore {
    /// The `OStore-mm` version: multi-user, abortable, in memory.
    pub fn ostore_mm() -> Self {
        MemStore {
            name: "OStore-mm",
            single_user: false,
            can_abort: true,
            inner: Mutex::new(Inner {
                chains: HashMap::new(),
                active: HashMap::new(),
                next_oid: 1,
                last_visible: 0,
                snapshots: HashMap::new(),
                next_snap: 1,
            }),
            next_txn: AtomicU64::new(1),
            locks: LockManager::new(LOCK_TIMEOUT),
            stats: StorageStats::default(),
        }
    }

    /// The `Texas-mm` version: single-user, no abort, in memory.
    pub fn texas_mm() -> Self {
        MemStore {
            name: "Texas-mm",
            single_user: true,
            can_abort: false,
            ..MemStore::ostore_mm()
        }
    }

    /// Total payload bytes held by latest-committed versions (the `-mm`
    /// analogue of database size; reported separately because the paper
    /// prints "—" in the size row).
    pub fn resident_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner
            .chains
            .values()
            .filter_map(|c| Inner::resolve(c, Visibility::Latest))
            .filter_map(|v| v.data.as_ref())
            .map(|d| d.len() as u64)
            .sum()
    }
}

impl StorageManager for MemStore {
    fn name(&self) -> &'static str {
        self.name
    }

    fn begin(&self) -> Result<TxnId> {
        let mut inner = self.inner.lock();
        if self.single_user && !inner.active.is_empty() {
            return Err(StorageError::SingleUser);
        }
        let id = self.next_txn.fetch_add(1, Ordering::Relaxed);
        inner.active.insert(id, Vec::new());
        Ok(TxnId::from_raw(id))
    }

    fn commit(&self, txn: TxnId) -> Result<()> {
        let mut inner = self.inner.lock();
        let touched =
            inner.active.remove(&txn.raw()).ok_or(StorageError::UnknownTxn(txn))?;
        if !touched.is_empty() {
            // The one mutex makes the flip atomic: no reader can observe
            // some of this transaction's versions committed and others
            // pending.
            let lsn = inner.last_visible + 1;
            let floor = inner.snapshot_floor();
            let mut trimmed = 0;
            for oid in touched {
                let Some(chain) = inner.chains.get_mut(&oid) else { continue };
                if let Some(head) = chain.first_mut() {
                    if head.txn == txn.raw() {
                        head.txn = 0;
                        head.lsn = lsn;
                    }
                }
                if chain.len() > MAX_CHAIN {
                    trimmed += Inner::trim(chain, floor);
                }
                if chain.is_empty() {
                    inner.chains.remove(&oid);
                }
            }
            inner.last_visible = lsn;
            StorageStats::bump(&self.stats.versions_gced, trimmed);
        }
        // Strict two-phase: locks release only after the flip is visible,
        // so a woken waiter reads this transaction's committed state.
        drop(inner);
        self.locks.release_all(txn);
        StorageStats::bump(&self.stats.commits, 1);
        Ok(())
    }

    fn abort(&self, txn: TxnId) -> Result<()> {
        if !self.can_abort {
            return Err(StorageError::Unsupported("abort: Texas-mm has no undo capability"));
        }
        let mut inner = self.inner.lock();
        let touched =
            inner.active.remove(&txn.raw()).ok_or(StorageError::UnknownTxn(txn))?;
        // Pending versions were never visible to anyone else; dropping
        // them is the whole rollback.
        for oid in touched.into_iter().rev() {
            let Some(chain) = inner.chains.get_mut(&oid) else { continue };
            if chain.first().is_some_and(|v| v.txn == txn.raw()) {
                chain.remove(0);
            }
            if chain.is_empty() {
                inner.chains.remove(&oid);
            }
        }
        drop(inner);
        self.locks.release_all(txn);
        StorageStats::bump(&self.stats.aborts, 1);
        Ok(())
    }

    fn lock_exclusive(&self, txn: TxnId, oid: Oid) -> Result<()> {
        if !self.inner.lock().active.contains_key(&txn.raw()) {
            return Err(StorageError::UnknownTxn(txn));
        }
        self.locks.acquire(txn, oid)
    }

    fn allocate(
        &self,
        txn: TxnId,
        _seg: SegmentId,
        _hint: ClusterHint,
        data: &[u8],
    ) -> Result<Oid> {
        let mut inner = self.inner.lock();
        if !inner.active.contains_key(&txn.raw()) {
            return Err(StorageError::UnknownTxn(txn));
        }
        let oid = Oid::from_raw(inner.next_oid);
        inner.next_oid += 1;
        inner
            .chains
            .insert(oid.raw(), vec![MemVersion { data: Some(data.to_vec()), lsn: 0, txn: txn.raw() }]);
        if let Some(touched) = inner.active.get_mut(&txn.raw()) {
            touched.push(oid.raw());
        }
        StorageStats::bump(&self.stats.allocs, 1);
        StorageStats::bump(&self.stats.bytes_allocated, data.len() as u64);
        Ok(oid)
    }

    fn read_vis(&self, vis: Visibility, oid: Oid) -> Result<Vec<u8>> {
        if let Visibility::At(_) = vis {
            StorageStats::bump(&self.stats.snapshot_reads, 1);
        }
        StorageStats::bump(&self.stats.reads, 1);
        let inner = self.inner.lock();
        inner
            .chains
            .get(&oid.raw())
            .and_then(|c| Inner::resolve(c, vis))
            .and_then(|v| v.data.clone())
            .ok_or(StorageError::UnknownObject(oid))
    }

    fn exists_vis(&self, vis: Visibility, oid: Oid) -> bool {
        let inner = self.inner.lock();
        inner
            .chains
            .get(&oid.raw())
            .and_then(|c| Inner::resolve(c, vis))
            .is_some_and(|v| v.data.is_some())
    }

    fn update(&self, txn: TxnId, oid: Oid, data: &[u8]) -> Result<()> {
        // Every write locks its object to commit/abort, as in the page
        // engine: a second writer waits instead of stacking a pending
        // version on another transaction's.
        self.lock_exclusive(txn, oid)?;
        let mut inner = self.inner.lock();
        let chain = inner
            .chains
            .get_mut(&oid.raw())
            .filter(|c| Inner::resolve(c, Visibility::In(txn)).is_some_and(|v| v.data.is_some()))
            .ok_or(StorageError::UnknownObject(oid))?;
        match chain.first_mut() {
            Some(head) if head.txn == txn.raw() => head.data = Some(data.to_vec()),
            _ => chain.insert(0, MemVersion { data: Some(data.to_vec()), lsn: 0, txn: txn.raw() }),
        }
        if let Some(touched) = inner.active.get_mut(&txn.raw()) {
            touched.push(oid.raw());
        }
        StorageStats::bump(&self.stats.updates, 1);
        Ok(())
    }

    fn free(&self, txn: TxnId, oid: Oid) -> Result<()> {
        // Every write locks its object to commit/abort, as in the page
        // engine: a second writer waits instead of stacking a pending
        // version on another transaction's.
        self.lock_exclusive(txn, oid)?;
        let mut inner = self.inner.lock();
        let chain = inner
            .chains
            .get_mut(&oid.raw())
            .filter(|c| Inner::resolve(c, Visibility::In(txn)).is_some_and(|v| v.data.is_some()))
            .ok_or(StorageError::UnknownObject(oid))?;
        match chain.first_mut() {
            Some(head) if head.txn == txn.raw() => head.data = None,
            _ => chain.insert(0, MemVersion { data: None, lsn: 0, txn: txn.raw() }),
        }
        // A freshly allocated-and-freed chain is a lone pending
        // tombstone; commit or abort resolves it either way.
        if let Some(touched) = inner.active.get_mut(&txn.raw()) {
            touched.push(oid.raw());
        }
        Ok(())
    }

    fn begin_snapshot(&self) -> Result<Snapshot> {
        let mut inner = self.inner.lock();
        let lsn = inner.last_visible;
        let token = inner.next_snap;
        inner.next_snap += 1;
        inner.snapshots.insert(token, lsn);
        StorageStats::bump(&self.stats.snapshots_opened, 1);
        Ok(Snapshot { lsn, token })
    }

    fn release_snapshot(&self, snap: Snapshot) {
        self.inner.lock().snapshots.remove(&snap.token);
    }

    fn open_snapshots(&self) -> usize {
        self.inner.lock().snapshots.len()
    }

    fn checkpoint(&self) -> Result<()> {
        // Nothing to persist, but version GC runs here like the engine's:
        // trim every chain against the open-snapshot low-water mark.
        let mut inner = self.inner.lock();
        let floor = inner.snapshot_floor();
        let mut trimmed = 0;
        inner.chains.retain(|_, chain| {
            trimmed += Inner::trim(chain, floor);
            !chain.is_empty()
        });
        StorageStats::bump(&self.stats.versions_gced, trimmed);
        StorageStats::bump(&self.stats.checkpoints, 1);
        Ok(())
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn db_size_bytes(&self) -> Result<Option<u64>> {
        Ok(None) // "—" in the paper's size row
    }

    fn object_count(&self) -> usize {
        let inner = self.inner.lock();
        inner
            .chains
            .values()
            .filter_map(|c| Inner::resolve(c, Visibility::Latest))
            .filter(|v| v.data.is_some())
            .count()
    }

    fn segments(&self) -> Vec<SegmentInfo> {
        Vec::new()
    }

    fn is_persistent(&self) -> bool {
        false
    }

    fn supports_concurrency(&self) -> bool {
        !self.single_user
    }

    fn drop_caches(&self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_capabilities() {
        let o = MemStore::ostore_mm();
        let t = MemStore::texas_mm();
        assert_eq!(o.name(), "OStore-mm");
        assert_eq!(t.name(), "Texas-mm");
        assert!(o.supports_concurrency());
        assert!(!t.supports_concurrency());
        assert!(!o.is_persistent());
        assert_eq!(o.db_size_bytes().unwrap(), None);
    }

    #[test]
    fn basic_cycle() {
        let s = MemStore::ostore_mm();
        let t = s.begin().unwrap();
        let oid = s.allocate(t, SegmentId(0), ClusterHint::NONE, b"data").unwrap();
        s.update(t, oid, b"data2").unwrap();
        s.commit(t).unwrap();
        assert_eq!(s.read(oid).unwrap(), b"data2");
        assert_eq!(s.object_count(), 1);
        assert!(s.resident_bytes() > 0);
        let t2 = s.begin().unwrap();
        s.free(t2, oid).unwrap();
        s.commit(t2).unwrap();
        assert!(!s.exists_vis(Visibility::Latest, oid));
    }

    #[test]
    fn writes_stay_pending_until_commit() {
        let s = MemStore::ostore_mm();
        let t = s.begin().unwrap();
        let oid = s.allocate(t, SegmentId(0), ClusterHint::NONE, b"pending").unwrap();
        assert!(
            !s.exists_vis(Visibility::Latest, oid),
            "pending alloc must not be committed-visible"
        );
        assert!(s.exists_vis(Visibility::In(t), oid));
        assert_eq!(s.read_vis(Visibility::In(t), oid).unwrap(), b"pending");
        s.commit(t).unwrap();
        assert_eq!(s.read(oid).unwrap(), b"pending");
    }

    #[test]
    fn abort_restores_state_on_ostore_mm() {
        let s = MemStore::ostore_mm();
        let t0 = s.begin().unwrap();
        let keep = s.allocate(t0, SegmentId(0), ClusterHint::NONE, b"keep").unwrap();
        s.commit(t0).unwrap();
        let t = s.begin().unwrap();
        let tmp = s.allocate(t, SegmentId(0), ClusterHint::NONE, b"tmp").unwrap();
        s.update(t, keep, b"mutated").unwrap();
        s.free(t, keep).unwrap();
        s.abort(t).unwrap();
        assert!(!s.exists_vis(Visibility::Latest, tmp));
        assert_eq!(s.read(keep).unwrap(), b"keep");
    }

    /// The stable cut itself is checked on every backend in
    /// `tests/trait_level.rs`; here, that checkpoint GC keeps what an
    /// open snapshot pins and reclaims it once the snapshot is released.
    #[test]
    fn snapshots_read_a_stable_cut() {
        let s = MemStore::ostore_mm();
        let t = s.begin().unwrap();
        let b = s.allocate(t, SegmentId(0), ClusterHint::NONE, b"b1").unwrap();
        s.commit(t).unwrap();

        let snap = s.begin_snapshot().unwrap();
        let t2 = s.begin().unwrap();
        s.free(t2, b).unwrap();
        s.commit(t2).unwrap();

        s.checkpoint().unwrap();
        assert_eq!(s.read_vis(Visibility::At(snap), b).unwrap(), b"b1");
        s.release_snapshot(snap);
        s.checkpoint().unwrap();
        assert!(!s.exists_vis(Visibility::Latest, b));
        assert!(s.stats().versions_gced > 0);
    }

    #[test]
    fn texas_mm_single_user_and_no_abort() {
        let s = MemStore::texas_mm();
        let t = s.begin().unwrap();
        assert!(matches!(s.begin(), Err(StorageError::SingleUser)));
        assert!(matches!(s.abort(t), Err(StorageError::Unsupported(_))));
        s.commit(t).unwrap();
    }

    #[test]
    fn dead_txn_is_rejected() {
        let s = MemStore::ostore_mm();
        let t = s.begin().unwrap();
        s.commit(t).unwrap();
        assert!(matches!(
            s.allocate(t, SegmentId(0), ClusterHint::NONE, b"x"),
            Err(StorageError::UnknownTxn(_))
        ));
        assert!(matches!(s.commit(t), Err(StorageError::UnknownTxn(_))));
    }

    /// Release on commit and abort is checked on every backend in
    /// `tests/trait_level.rs`; here, that a rival writer gives up with
    /// a typed `LockTimeout` naming the object, and writes nothing.
    #[test]
    fn lock_exclusive_serializes_and_releases_on_resolution() {
        let s = MemStore::ostore_mm();
        let t0 = s.begin().unwrap();
        let oid = s.allocate(t0, SegmentId(0), ClusterHint::NONE, b"hot").unwrap();
        s.commit(t0).unwrap();

        let holder = s.begin().unwrap();
        s.lock_exclusive(holder, oid).unwrap();
        let rival = s.begin().unwrap();
        assert!(matches!(
            s.update(rival, oid, b"blocked"),
            Err(StorageError::LockTimeout(o)) if o == oid
        ));
        s.abort(rival).unwrap();
        s.commit(holder).unwrap();
        assert_eq!(s.read(oid).unwrap(), b"hot");
    }

    /// Regression for the race `lock_exclusive` exists to prevent on the
    /// `-mm` stores: without a real lock, two read-modify-write
    /// transactions on a shared object can both read the same base
    /// version, and the one that chains onto an aborted sibling commits
    /// a lost (or dangling) update. With the lock-first discipline —
    /// `lock_exclusive`, then `read_vis` at `In`, then `update`, exactly what
    /// `LabBase::create_material` does to the catalog — every increment
    /// must survive, aborts included.
    #[test]
    fn locked_read_modify_write_is_serialized_across_threads() {
        use std::sync::Arc;
        let s = Arc::new(MemStore::ostore_mm());
        let t0 = s.begin().unwrap();
        let oid = s.allocate(t0, SegmentId(0), ClusterHint::NONE, &0u64.to_le_bytes()).unwrap();
        s.commit(t0).unwrap();

        let threads: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..50u32 {
                        loop {
                            let t = s.begin().unwrap();
                            if s.lock_exclusive(t, oid).is_err() {
                                s.abort(t).unwrap();
                                continue;
                            }
                            let v = u64::from_le_bytes(
                                s.read_vis(Visibility::In(t), oid).unwrap().try_into().unwrap(),
                            );
                            s.update(t, oid, &(v + 1).to_le_bytes()).unwrap();
                            // A third of the attempts abort after writing;
                            // their increment must vanish cleanly.
                            if i % 3 == 0 {
                                s.abort(t).unwrap();
                                let t2 = s.begin().unwrap();
                                s.lock_exclusive(t2, oid).unwrap();
                                let w = u64::from_le_bytes(
                                    s.read_vis(Visibility::In(t2), oid).unwrap().try_into().unwrap(),
                                );
                                s.update(t2, oid, &(w + 1).to_le_bytes()).unwrap();
                                s.commit(t2).unwrap();
                            } else {
                                s.commit(t).unwrap();
                            }
                            break;
                        }
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let v = u64::from_le_bytes(s.read(oid).unwrap().try_into().unwrap());
        assert_eq!(v, 4 * 50, "every committed increment must survive");
    }

    #[test]
    fn stats_never_report_faults() {
        let s = MemStore::ostore_mm();
        let t = s.begin().unwrap();
        for i in 0..100u32 {
            let oid = s.allocate(t, SegmentId(0), ClusterHint::NONE, &i.to_le_bytes()).unwrap();
            s.read_vis(Visibility::In(t), oid).unwrap();
        }
        s.commit(t).unwrap();
        let snap = s.stats();
        assert_eq!(snap.faults, 0);
        assert_eq!(snap.allocs, 100);
        assert_eq!(snap.reads, 100);
    }
}
