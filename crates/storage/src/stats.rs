//! Uniform operation counters reported by every backend.
//!
//! The benchmark's "(sim-)majflt" column is [`StorageStats::faults`]: the
//! number of object references that missed the buffer pool and had to
//! touch the backing file — the same event the paper observed as an OS
//! major page fault on memory-mapped stores.

use std::sync::atomic::{AtomicU64, Ordering};

/// Declares every counter once, as a doc comment and a name, and
/// generates from that one list the atomics ([`StorageStats`]), their
/// copy ([`StatsSnapshot`]), [`StorageStats::snapshot`] and
/// [`StatsSnapshot::delta`]. Adding a counter is one entry here.
macro_rules! counters {
    ($($(#[doc = $doc:literal])+ $name:ident,)+) => {
        /// Shared, thread-safe counters. Cheap to bump from hot paths.
        #[derive(Debug, Default)]
        pub struct StorageStats {
            $($(#[doc = $doc])+ pub $name: AtomicU64,)+
        }

        impl StorageStats {
            /// Take a point-in-time copy of all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot { $($name: self.$name.load(Ordering::Relaxed),)+ }
            }
        }

        /// A point-in-time copy of [`StorageStats`], supporting interval deltas.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $(#[doc = concat!("See [`StorageStats::", stringify!($name), "`].")] pub $name: u64,)+
        }

        impl StatsSnapshot {
            /// Counter-wise difference `self - earlier` (saturating).
            pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot { $($name: self.$name.saturating_sub(earlier.$name),)+ }
            }
        }
    };
}

counters! {
    /// Buffer-pool misses that performed a read from the data file.
    faults,
    /// Buffer-pool hits.
    hits,
    /// Physical page reads from the data file.
    page_reads,
    /// Physical page writes to the data file.
    page_writes,
    /// Pages "swizzled": first-touch conversions charged by Texas-style
    /// backends when a non-resident page enters the resident set.
    swizzles,
    /// Objects allocated.
    allocs,
    /// Logical bytes allocated (payload only, before per-object overhead).
    bytes_allocated,
    /// Object reads served.
    reads,
    /// Object updates performed.
    updates,
    /// Transactions committed.
    commits,
    /// Transactions aborted.
    aborts,
    /// Bytes appended to the write-ahead log.
    wal_bytes,
    /// Physical log write-outs: a log-writer batch, or a no-sync commit
    /// writing the tail out itself. Each carries one or more commits to
    /// the file, so under concurrency this stays below `commits`.
    wal_syncs,
    /// Nanoseconds spent inside physical log forces (write-out plus
    /// sync), summed across all forcing threads — the log-writer's
    /// working time, distinct from committers' queue waits.
    wal_force_nanos,
    /// Checkpoints taken.
    checkpoints,
    /// Nanoseconds spent inside checkpoints, quiesce wait included.
    checkpoint_nanos,
    /// Bytes written to the meta file, base and delta segments alike.
    meta_bytes_written,
    /// Meta base segments written: the first checkpoint after a create
    /// or open, and every compaction of outgrown deltas.
    meta_compactions,
    /// WAL frames replayed during the most recent recovery.
    wal_frames_replayed,
    /// Bytes discarded from a torn WAL tail during the most recent
    /// recovery (zero on a clean shutdown).
    wal_bytes_truncated,
    /// Transient I/O errors absorbed by the bounded retry helper.
    io_retries,
    /// Page reads whose first image failed verification but whose
    /// immediate re-read verified (transient read corruption repaired).
    read_repairs,
    /// Pages quarantined for persistent damage.
    pages_quarantined,
    /// Quarantined pages healed by a full overwrite.
    pages_healed,
    /// Contended acquisitions of heap metadata locks (object-table
    /// shards and segment placement state): the acquiring thread found
    /// the lock held and had to block.
    heap_shard_waits,
    /// Nanoseconds threads spent blocked on contended heap metadata
    /// locks, summed across all threads.
    heap_wait_nanos,
    /// Snapshots opened via `begin_snapshot`.
    snapshots_opened,
    /// Object reads served at a snapshot timestamp (a subset of `reads`).
    snapshot_reads,
    /// Committed object versions reclaimed by version GC (chain trims at
    /// commit plus the checkpoint low-water sweep).
    versions_gced,
    /// Slotted pages whose last live record was freed and which went
    /// back to a segment free list, to be rewritten wholesale.
    pages_recycled,
    /// Roomy pages (a quarter or more reclaimable) reopened for
    /// placement instead of extending the file.
    pages_refilled,
}

impl StorageStats {
    /// Add `n` to a counter.
    #[inline]
    pub fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
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
