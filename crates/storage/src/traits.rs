//! The [`StorageManager`] trait: the narrow interface between LabBase and
//! the storage managers — the Rust analogue of the "persistent C++"
//! boundary in the paper, which made it possible to run virtually the
//! same LabBase implementation over ObjectStore and Texas.

use crate::error::{Result, StorageError};
use crate::ids::{ClusterHint, Oid, SegmentId, TxnId};
use crate::stats::StatsSnapshot;
use crate::wal::{WalChunk, WalRecord};

/// Per-segment size information for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Segment id.
    pub seg: SegmentId,
    /// Pages owned by the segment.
    pub pages: usize,
    /// Bytes owned by the segment (pages × page size).
    pub bytes: u64,
}

/// A stable read timestamp: everything committed at or before `lsn` is
/// visible, nothing after. Obtained from
/// [`StorageManager::begin_snapshot`]; the `token` identifies the
/// snapshot in the backend's registry so version GC can honour it as a
/// low-water mark until [`StorageManager::release_snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Commit LSN this snapshot reads at (inclusive).
    pub lsn: u64,
    /// Registry handle; meaningless to callers, needed by `release`.
    pub token: u64,
}

/// The visibility rule a read resolves an object's versions under. Every
/// read on the trait takes one, so the same traversal code in the layers
/// above serves the live committed state, an open transaction and a
/// pinned snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// The latest committed state. No lock is held afterwards.
    Latest,
    /// Through an open transaction: its own uncommitted write if it has
    /// one, else the latest committed state. It acquires no lock — it is
    /// the read-your-own-writes path for traversals inside a
    /// transaction; a read-modify-write takes
    /// [`lock_exclusive`](StorageManager::lock_exclusive) first.
    In(TxnId),
    /// As of a snapshot: the newest version committed at or before the
    /// snapshot's LSN, whatever commits concurrently.
    At(Snapshot),
}

/// The uniform storage-manager interface.
///
/// All object data is opaque bytes; LabBase performs its own encoding.
/// Reads outside transactions see committed state; mutation requires an
/// open transaction.
pub trait StorageManager: Send + Sync {
    /// Human-readable server-version name as used in the paper's tables
    /// ("OStore", "Texas", "Texas+TC", "OStore-mm", "Texas-mm").
    fn name(&self) -> &'static str;

    /// Begin a transaction. Single-user backends refuse a second
    /// concurrent transaction with
    /// [`StorageError::SingleUser`](crate::StorageError::SingleUser).
    fn begin(&self) -> Result<TxnId>;

    /// Commit a transaction, releasing its locks.
    fn commit(&self, txn: TxnId) -> Result<()>;

    /// Abort a transaction, rolling back its effects. Backends without an
    /// undo capability (Texas) return `Unsupported`.
    fn abort(&self, txn: TxnId) -> Result<()>;

    /// Allocate a new object in `seg` with clustering hint `hint`.
    fn allocate(&self, txn: TxnId, seg: SegmentId, hint: ClusterHint, data: &[u8])
        -> Result<Oid>;

    /// Read an object under `vis`. `UnknownObject` if no version is
    /// visible, or the visible one is a deletion.
    fn read_vis(&self, vis: Visibility, oid: Oid) -> Result<Vec<u8>>;

    /// Whether [`read_vis`](Self::read_vis) under `vis` would find the
    /// object.
    fn exists_vis(&self, vis: Visibility, oid: Oid) -> bool;

    /// Read an object's latest committed state.
    fn read(&self, oid: Oid) -> Result<Vec<u8>> {
        self.read_vis(Visibility::Latest, oid)
    }

    /// Acquire `txn`'s exclusive lock on `oid` without reading or
    /// writing it, blocking up to the backend's lock timeout. Callers
    /// use this to serialize on a hot shared object *before* taking any
    /// in-process latch that a later [`update`](Self::update) would
    /// otherwise hold across the lock wait (a cross-lock convoy: the
    /// latch holder blocks on the storage lock while the storage-lock
    /// holder blocks on the latch). The lock is held until the
    /// transaction commits or aborts; it is the only object lock the
    /// contract offers (reads take none). Single-user backends grant it
    /// at once: no second transaction can be open to contend for it.
    fn lock_exclusive(&self, txn: TxnId, oid: Oid) -> Result<()>;

    /// Overwrite an object.
    fn update(&self, txn: TxnId, oid: Oid, data: &[u8]) -> Result<()>;

    /// Delete an object.
    fn free(&self, txn: TxnId, oid: Oid) -> Result<()>;

    /// Open a stable snapshot of the committed state. Every read at
    /// [`Visibility::At`] of it sees exactly the transactions committed
    /// when it was opened — concurrent writers neither block it nor
    /// appear in it.
    fn begin_snapshot(&self) -> Result<Snapshot>;

    /// Release a snapshot, allowing version GC to reclaim the versions
    /// it pinned. Dropping a snapshot without releasing it pins the GC
    /// low-water mark forever.
    fn release_snapshot(&self, snap: Snapshot);

    /// Number of snapshots currently registered (opened and not yet
    /// released). The network front end asserts this drains to zero on
    /// graceful shutdown.
    fn open_snapshots(&self) -> usize;

    /// Flush all state to stable storage and truncate the log.
    fn checkpoint(&self) -> Result<()>;

    /// Point-in-time counters.
    fn stats(&self) -> StatsSnapshot;

    /// On-disk footprint in bytes; `None` for main-memory backends
    /// (rendered as "—" in the paper's tables).
    fn db_size_bytes(&self) -> Result<Option<u64>>;

    /// Number of live objects.
    fn object_count(&self) -> usize;

    /// Per-segment sizes (empty for backends without segments).
    fn segments(&self) -> Vec<SegmentInfo>;

    /// Whether data survives a restart.
    fn is_persistent(&self) -> bool;

    /// Whether concurrent transactions are supported.
    fn supports_concurrency(&self) -> bool;

    /// Flush and empty the cache so the next accesses are cold. No-op for
    /// main-memory backends. Used by the clustering ablation.
    fn drop_caches(&self) -> Result<()>;

    // ---- replication (WAL shipping) -----------------------------------
    //
    // A primary streams its WAL to follower stores that re-apply each
    // committed transaction; a follower can be promoted after primary
    // loss. Only WAL-backed backends participate — the defaults report
    // `Unsupported` so MemStore and the Texas profiles stay honest.

    /// The checkpoint epoch stamped in the store's sealed metadata.
    /// Shipped chunks are tagged with it; a promoted follower re-seals
    /// at a higher epoch ([`promote_epoch`](Self::promote_epoch)), so a
    /// deposed primary's chunks are refused by the epoch fence.
    /// Backends without durable metadata report 0.
    fn store_epoch(&self) -> u64 {
        0
    }

    /// The flushed byte offset of the write-ahead log: the point up to
    /// which [`wal_stream_from`](Self::wal_stream_from) can serve, and
    /// the durability horizon a follower acks once it has applied and
    /// forced everything below it.
    fn replication_lsn(&self) -> Result<u64> {
        Err(StorageError::Unsupported("replication_lsn: backend has no write-ahead log"))
    }

    /// Read a chunk of whole, checksum-verified WAL frames starting at
    /// byte `from`, for shipping to a replication follower. The chunk
    /// ends at the last whole frame within `max_bytes` (always at least
    /// one frame when any is available past `from`).
    fn wal_stream_from(&self, from: u64, max_bytes: usize) -> Result<WalChunk> {
        let _ = (from, max_bytes);
        Err(StorageError::Unsupported("wal_stream_from: backend has no write-ahead log"))
    }

    /// Apply one committed, shipped transaction's operations to this
    /// (follower) store, atomically and durably: after `Ok`, a snapshot
    /// reader sees all of the transaction, and a crash of the follower
    /// preserves it. The caller groups shipped records by transaction
    /// and calls this only for transactions whose commit frame arrived.
    fn replica_apply_commit(&self, recs: &[WalRecord]) -> Result<()> {
        let _ = recs;
        Err(StorageError::Unsupported("replica_apply_commit: backend has no write-ahead log"))
    }

    /// Promote this (follower) store: checkpoint it with its sealed
    /// epoch raised to at least `floor` — one above every epoch the
    /// deposed primary could have stamped — so stale chunks from the
    /// old epoch are refused from now on.
    fn promote_epoch(&self, floor: u64) -> Result<()> {
        let _ = floor;
        Err(StorageError::Unsupported("promote_epoch: backend has no durable epoch"))
    }
}
