//! Uniform operation counters reported by every backend.
//!
//! The benchmark's "(sim-)majflt" column is [`StorageStats::faults`]: the
//! number of object references that missed the buffer pool and had to
//! touch the backing file — the same event the paper observed as an OS
//! major page fault on memory-mapped stores.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared, thread-safe counters. Cheap to bump from hot paths.
#[derive(Debug, Default)]
pub struct StorageStats {
    /// Buffer-pool misses that performed a read from the data file.
    pub faults: AtomicU64,
    /// Buffer-pool hits.
    pub hits: AtomicU64,
    /// Physical page reads from the data file.
    pub page_reads: AtomicU64,
    /// Physical page writes to the data file.
    pub page_writes: AtomicU64,
    /// Pages "swizzled": first-touch conversions charged by Texas-style
    /// backends when a non-resident page enters the resident set.
    pub swizzles: AtomicU64,
    /// Objects allocated.
    pub allocs: AtomicU64,
    /// Logical bytes allocated (payload only, before per-object overhead).
    pub bytes_allocated: AtomicU64,
    /// Object reads served.
    pub reads: AtomicU64,
    /// Object updates performed.
    pub updates: AtomicU64,
    /// Transactions committed.
    pub commits: AtomicU64,
    /// Transactions aborted.
    pub aborts: AtomicU64,
    /// Bytes appended to the write-ahead log.
    pub wal_bytes: AtomicU64,
    /// Physical log write-outs: a log-writer batch, or a no-sync commit
    /// writing the tail out itself. Each carries one or more commits to
    /// the file, so under concurrency this stays below `commits`.
    pub wal_syncs: AtomicU64,
    /// Nanoseconds spent inside physical log forces (write-out plus
    /// sync), summed across all forcing threads — the log-writer's
    /// working time, distinct from committers' queue waits.
    pub wal_force_nanos: AtomicU64,
    /// Checkpoints taken.
    pub checkpoints: AtomicU64,
    /// Nanoseconds spent inside checkpoints, quiesce wait included.
    pub checkpoint_nanos: AtomicU64,
    /// Bytes written to the meta file, base and delta segments alike.
    pub meta_bytes_written: AtomicU64,
    /// Meta base segments written: the first checkpoint after a create
    /// or open, and every compaction of outgrown deltas.
    pub meta_compactions: AtomicU64,
    /// WAL frames replayed during the most recent recovery.
    pub wal_frames_replayed: AtomicU64,
    /// Bytes discarded from a torn WAL tail during the most recent
    /// recovery (zero on a clean shutdown).
    pub wal_bytes_truncated: AtomicU64,
    /// Transient I/O errors absorbed by the bounded retry helper.
    pub io_retries: AtomicU64,
    /// Page reads whose first image failed verification but whose
    /// immediate re-read verified (transient read corruption repaired).
    pub read_repairs: AtomicU64,
    /// Pages quarantined for persistent damage.
    pub pages_quarantined: AtomicU64,
    /// Quarantined pages healed by a full overwrite.
    pub pages_healed: AtomicU64,
    /// Contended acquisitions of heap metadata locks (object-table
    /// shards and segment placement state): the acquiring thread found
    /// the lock held and had to block.
    pub heap_shard_waits: AtomicU64,
    /// Nanoseconds threads spent blocked on contended heap metadata
    /// locks, summed across all threads.
    pub heap_wait_nanos: AtomicU64,
    /// Snapshots opened via `begin_snapshot`.
    pub snapshots_opened: AtomicU64,
    /// Object reads served at a snapshot timestamp (a subset of `reads`).
    pub snapshot_reads: AtomicU64,
    /// Committed object versions reclaimed by version GC (chain trims at
    /// commit plus the checkpoint low-water sweep).
    pub versions_gced: AtomicU64,
    /// Slotted pages whose last live record was freed and which went
    /// back to a segment free list, to be rewritten wholesale.
    pub pages_recycled: AtomicU64,
    /// Roomy pages (a quarter or more reclaimable) reopened for
    /// placement instead of extending the file.
    pub pages_refilled: AtomicU64,
}

impl StorageStats {
    /// Add `n` to a counter.
    #[inline]
    pub fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Take a point-in-time copy of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            faults: self.faults.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            page_reads: self.page_reads.load(Ordering::Relaxed),
            page_writes: self.page_writes.load(Ordering::Relaxed),
            swizzles: self.swizzles.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            bytes_allocated: self.bytes_allocated.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            wal_syncs: self.wal_syncs.load(Ordering::Relaxed),
            wal_force_nanos: self.wal_force_nanos.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            checkpoint_nanos: self.checkpoint_nanos.load(Ordering::Relaxed),
            meta_bytes_written: self.meta_bytes_written.load(Ordering::Relaxed),
            meta_compactions: self.meta_compactions.load(Ordering::Relaxed),
            wal_frames_replayed: self.wal_frames_replayed.load(Ordering::Relaxed),
            wal_bytes_truncated: self.wal_bytes_truncated.load(Ordering::Relaxed),
            io_retries: self.io_retries.load(Ordering::Relaxed),
            read_repairs: self.read_repairs.load(Ordering::Relaxed),
            pages_quarantined: self.pages_quarantined.load(Ordering::Relaxed),
            pages_healed: self.pages_healed.load(Ordering::Relaxed),
            heap_shard_waits: self.heap_shard_waits.load(Ordering::Relaxed),
            heap_wait_nanos: self.heap_wait_nanos.load(Ordering::Relaxed),
            snapshots_opened: self.snapshots_opened.load(Ordering::Relaxed),
            snapshot_reads: self.snapshot_reads.load(Ordering::Relaxed),
            versions_gced: self.versions_gced.load(Ordering::Relaxed),
            pages_recycled: self.pages_recycled.load(Ordering::Relaxed),
            pages_refilled: self.pages_refilled.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`StorageStats`], supporting interval deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// See [`StorageStats::faults`].
    pub faults: u64,
    /// See [`StorageStats::hits`].
    pub hits: u64,
    /// See [`StorageStats::page_reads`].
    pub page_reads: u64,
    /// See [`StorageStats::page_writes`].
    pub page_writes: u64,
    /// See [`StorageStats::swizzles`].
    pub swizzles: u64,
    /// See [`StorageStats::allocs`].
    pub allocs: u64,
    /// See [`StorageStats::bytes_allocated`].
    pub bytes_allocated: u64,
    /// See [`StorageStats::reads`].
    pub reads: u64,
    /// See [`StorageStats::updates`].
    pub updates: u64,
    /// See [`StorageStats::commits`].
    pub commits: u64,
    /// See [`StorageStats::aborts`].
    pub aborts: u64,
    /// See [`StorageStats::wal_bytes`].
    pub wal_bytes: u64,
    /// See [`StorageStats::wal_syncs`].
    pub wal_syncs: u64,
    /// See [`StorageStats::wal_force_nanos`].
    pub wal_force_nanos: u64,
    /// See [`StorageStats::checkpoints`].
    pub checkpoints: u64,
    /// See [`StorageStats::checkpoint_nanos`].
    pub checkpoint_nanos: u64,
    /// See [`StorageStats::meta_bytes_written`].
    pub meta_bytes_written: u64,
    /// See [`StorageStats::meta_compactions`].
    pub meta_compactions: u64,
    /// See [`StorageStats::wal_frames_replayed`].
    pub wal_frames_replayed: u64,
    /// See [`StorageStats::wal_bytes_truncated`].
    pub wal_bytes_truncated: u64,
    /// See [`StorageStats::io_retries`].
    pub io_retries: u64,
    /// See [`StorageStats::read_repairs`].
    pub read_repairs: u64,
    /// See [`StorageStats::pages_quarantined`].
    pub pages_quarantined: u64,
    /// See [`StorageStats::pages_healed`].
    pub pages_healed: u64,
    /// See [`StorageStats::heap_shard_waits`].
    pub heap_shard_waits: u64,
    /// See [`StorageStats::heap_wait_nanos`].
    pub heap_wait_nanos: u64,
    /// See [`StorageStats::snapshots_opened`].
    pub snapshots_opened: u64,
    /// See [`StorageStats::snapshot_reads`].
    pub snapshot_reads: u64,
    /// See [`StorageStats::versions_gced`].
    pub versions_gced: u64,
    /// See [`StorageStats::pages_recycled`].
    pub pages_recycled: u64,
    /// See [`StorageStats::pages_refilled`].
    pub pages_refilled: u64,
}

impl StatsSnapshot {
    /// Counter-wise difference `self - earlier` (saturating).
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            faults: self.faults.saturating_sub(earlier.faults),
            hits: self.hits.saturating_sub(earlier.hits),
            page_reads: self.page_reads.saturating_sub(earlier.page_reads),
            page_writes: self.page_writes.saturating_sub(earlier.page_writes),
            swizzles: self.swizzles.saturating_sub(earlier.swizzles),
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes_allocated: self.bytes_allocated.saturating_sub(earlier.bytes_allocated),
            reads: self.reads.saturating_sub(earlier.reads),
            updates: self.updates.saturating_sub(earlier.updates),
            commits: self.commits.saturating_sub(earlier.commits),
            aborts: self.aborts.saturating_sub(earlier.aborts),
            wal_bytes: self.wal_bytes.saturating_sub(earlier.wal_bytes),
            wal_syncs: self.wal_syncs.saturating_sub(earlier.wal_syncs),
            wal_force_nanos: self.wal_force_nanos.saturating_sub(earlier.wal_force_nanos),
            checkpoints: self.checkpoints.saturating_sub(earlier.checkpoints),
            checkpoint_nanos: self.checkpoint_nanos.saturating_sub(earlier.checkpoint_nanos),
            meta_bytes_written: self.meta_bytes_written.saturating_sub(earlier.meta_bytes_written),
            meta_compactions: self.meta_compactions.saturating_sub(earlier.meta_compactions),
            wal_frames_replayed: self
                .wal_frames_replayed
                .saturating_sub(earlier.wal_frames_replayed),
            wal_bytes_truncated: self
                .wal_bytes_truncated
                .saturating_sub(earlier.wal_bytes_truncated),
            io_retries: self.io_retries.saturating_sub(earlier.io_retries),
            read_repairs: self.read_repairs.saturating_sub(earlier.read_repairs),
            pages_quarantined: self.pages_quarantined.saturating_sub(earlier.pages_quarantined),
            pages_healed: self.pages_healed.saturating_sub(earlier.pages_healed),
            heap_shard_waits: self.heap_shard_waits.saturating_sub(earlier.heap_shard_waits),
            heap_wait_nanos: self.heap_wait_nanos.saturating_sub(earlier.heap_wait_nanos),
            snapshots_opened: self.snapshots_opened.saturating_sub(earlier.snapshots_opened),
            snapshot_reads: self.snapshot_reads.saturating_sub(earlier.snapshot_reads),
            versions_gced: self.versions_gced.saturating_sub(earlier.versions_gced),
            pages_recycled: self.pages_recycled.saturating_sub(earlier.pages_recycled),
            pages_refilled: self.pages_refilled.saturating_sub(earlier.pages_refilled),
        }
    }

    /// Hit ratio of the buffer pool over the interval, in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.faults;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_delta() {
        let s = StorageStats::default();
        StorageStats::bump(&s.faults, 5);
        StorageStats::bump(&s.hits, 15);
        let a = s.snapshot();
        StorageStats::bump(&s.faults, 2);
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.faults, 2);
        assert_eq!(d.hits, 0);
        assert_eq!(b.faults, 7);
    }

    #[test]
    fn hit_ratio_edges() {
        let empty = StatsSnapshot::default();
        assert_eq!(empty.hit_ratio(), 1.0);
        let s = StatsSnapshot { hits: 3, faults: 1, ..Default::default() };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn delta_saturates() {
        let a = StatsSnapshot { faults: 10, ..Default::default() };
        let b = StatsSnapshot { faults: 4, ..Default::default() };
        assert_eq!(b.delta(&a).faults, 0);
    }
}
