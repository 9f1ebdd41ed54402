//! Runtime lock-rank enforcement for debug builds.
//!
//! The storage engine's deadlock freedom rests on a total acquisition
//! order over its internal locks (see `DESIGN.md`, "Lock discipline"):
//! a thread may only acquire a lock whose rank is *strictly greater*
//! than every rank it already holds. This module tracks the ranks each
//! thread currently holds and panics — in debug builds only — the
//! moment an acquisition would invert that order, turning a latent
//! deadlock into a deterministic, immediately-diagnosable failure in
//! tests and debug benchmark runs.
//!
//! In release builds every type here is a zero-sized no-op and the
//! whole mechanism compiles away; the static companion check
//! (`cargo xtask analyze`) enforces the same table at CI time.
//!
//! The rank table (shared with `xtask/src/ranks.rs` — keep in sync):
//!
//! | rank | lock                                   |
//! |------|----------------------------------------|
//! | 10   | `Engine::active` (txn table / quiesce) |
//! | 12   | `Engine::vis` (commit-visibility flip) |
//! | 14   | `Engine::snapshots` (snapshot registry)|
//! | 16   | `Engine::meta` (meta file writer)      |
//! | 20   | `LockManager` shard `states`           |
//! | 25   | `LockManager::held`                    |
//! | 28   | `Heap::global` (quiesce / seg roster)  |
//! | 30   | `Heap` object-table shard              |
//! | 32   | `Heap` segment placement state         |
//! | 40   | `BufferPool::table` (page table)       |
//! | 42   | `BufferPool` frame latch               |
//! | 45   | `PageFile::file`                       |
//! | 50   | `Wal::writer`                          |
//! | 52   | `Wal::log_file` (the log's file handle)|
//! | 55   | `Wal::queue` (log-writer request queue)|
//! | 60   | `SimVfs` state (simulated disk)        |
//! | 70   | server tenant registry                 |
//! | 72   | server connection table                |
//! | 74   | server drain latch                     |
//! | 76   | replication ack table (primary)        |
//! | 78   | replication follower state             |
//!
//! The three `SRV_*` ranks belong to the network front end
//! (`labflow-server`): its locks are short leaf sections that must never
//! be held across a database call, so they rank *above* every storage
//! lock — any accidental hold across an engine call then shows up as a
//! rank inversion instead of a latent deadlock. The two `REPL_*` ranks
//! extend the same rule to `labflow-repl`: ack bookkeeping and follower
//! buffers are leaf latches, never held across a storage or socket call.

use std::ops::{Deref, DerefMut};

/// A named rank in the storage lock order. Lower ranks must be acquired
/// first; acquiring a rank while holding an equal or greater one is a
/// discipline violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockRank {
    /// Position in the total order (strictly increasing inward).
    pub rank: u16,
    /// Human-readable lock name for diagnostics.
    pub name: &'static str,
}

/// `Engine::active`: the active-transaction table and quiesce flag.
pub const ENGINE_ACTIVE: LockRank = LockRank { rank: 10, name: "engine.active" };
/// `Engine::vis`: serialises the commit-time version flip with the
/// visibility-watermark publish, so a snapshot never observes half of a
/// transaction's versions.
pub const ENGINE_COMMIT_VIS: LockRank = LockRank { rank: 12, name: "engine.visibility" };
/// `Engine::snapshots`: the registry of open snapshot read timestamps
/// that feeds the version-GC low-water mark.
pub const ENGINE_SNAPSHOTS: LockRank = LockRank { rank: 14, name: "engine.snapshots" };
/// `Engine::meta`: the meta file's write side. Taken by a checkpoint,
/// holding nothing, twice: across the heap reads that encode a segment's
/// object-table part, and across the file I/O that makes it durable.
pub const ENGINE_META: LockRank = LockRank { rank: 16, name: "engine.meta" };
/// One `LockManager` shard's lock-state map.
pub const LOCK_SHARD: LockRank = LockRank { rank: 20, name: "lock_manager.shard" };
/// The `LockManager` per-transaction held-locks map.
pub const LOCK_HELD: LockRank = LockRank { rank: 25, name: "lock_manager.held" };
/// The heap's global shard: shared-held by every heap operation for its
/// duration, exclusive-held only by the checkpoint quiesce
/// (`places`/`load`) and segment-roster changes.
pub const HEAP_GLOBAL: LockRank = LockRank { rank: 28, name: "heap.global" };
/// One of the heap's object-table shards (oid-hashed): its version
/// chains, changed list and condemned list. A read holds it shared
/// across the page copy, so it ranks below the buffer pool and the
/// page file.
pub const HEAP_TABLE: LockRank = LockRank { rank: 30, name: "heap.object_table" };
/// One segment's placement state (open page, page list, free list,
/// chunk map).
pub const HEAP_SEGMENT: LockRank = LockRank { rank: 32, name: "heap.segment" };
/// The buffer pool's page table: which page lives in which frame, the
/// free list and the clock hand. A short leaf-style section — it is
/// never held across a page-file call or a WAL wait (the analyzer's
/// blocking rule checks that), only across taking a frame latch that is
/// known to be free.
pub const BUFFER_POOL: LockRank = LockRank { rank: 40, name: "buffer_pool.table" };
/// One buffer-pool frame's latch: guards the frame's bytes and dirty
/// state, and is what page-file I/O for that frame runs under. Ranked
/// above the page table (a frame is latched under the table only when
/// unpinned, hence free) and below the page file it reads and writes.
/// At most one is held per thread.
pub const BUFFER_FRAME: LockRank = LockRank { rank: 42, name: "buffer_pool.frame" };
/// The page file handle.
pub const PAGE_FILE: LockRank = LockRank { rank: 45, name: "page_file.file" };
/// The WAL append buffer / writer.
pub const WAL_WRITER: LockRank = LockRank { rank: 50, name: "wal.writer" };
/// The log's file handle. Taken under the writer lock for a write-out,
/// a truncation or a stream read, so frames reach the file in tail
/// order; taken alone for a sync, so appends go on while the disk works.
pub const WAL_FILE: LockRank = LockRank { rank: 52, name: "wal.log_file" };
/// The log-writer's request queue: group-commit tickets, durability
/// watermarks, and failure slots. Ranked *above* the writer mutex so
/// a committer parked on the queue can never be holding the append
/// buffer; the log-writer thread takes the two strictly in turn
/// (claim under the queue, then force under the writer), never nested.
pub const WAL_QUEUE: LockRank = LockRank { rank: 55, name: "wal.queue" };
/// The simulated-VFS state: the innermost lock of all — every simulated
/// disk operation ends here, under whichever file lock drives it.
pub const SIM_VFS: LockRank = LockRank { rank: 60, name: "sim_vfs.state" };
/// The network front end's tenant registry (quota accounting). Server
/// locks are leaf latches: they rank above every storage lock so that
/// holding one across any database call is itself a rank inversion.
pub const SRV_TENANTS: LockRank = LockRank { rank: 70, name: "server.tenants" };
/// The network front end's connection table (drain signalling, stats).
pub const SRV_CONNS: LockRank = LockRank { rank: 72, name: "server.connections" };
/// The network front end's drain latch: shutdown waits on it until the
/// last connection handler has deregistered.
pub const SRV_DRAIN: LockRank = LockRank { rank: 74, name: "server.drain" };
/// The replication primary's per-follower ack table (acked LSNs plus
/// the quorum condvar's state). A leaf latch: commit-side quorum waits
/// release it (condvar) before blocking, and the ship loop never holds
/// it across a storage or socket call.
pub const REPL_ACKS: LockRank = LockRank { rank: 76, name: "repl.acks" };
/// A replication follower's stream state (pending per-transaction
/// record buffers, applied/durable LSN bookkeeping, fence epoch).
/// A leaf latch, never held across the engine apply itself.
pub const REPL_FOLLOWER: LockRank = LockRank { rank: 78, name: "repl.follower" };

#[cfg(debug_assertions)]
mod imp {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        /// Ranks this thread currently holds, in acquisition order.
        static HELD: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
    }

    /// Debug-build token proving a rank was acquired in order. Dropping
    /// it releases the rank.
    #[must_use = "the rank is released as soon as the token is dropped"]
    pub struct RankToken {
        rank: LockRank,
    }

    /// Record the acquisition of `rank`, panicking on rank inversion.
    #[track_caller]
    pub fn acquire(rank: LockRank) -> RankToken {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(top) = held.iter().max_by_key(|r| r.rank) {
                if top.rank >= rank.rank {
                    // analyzer: allow(panic, "rank inversion is a programming error; fail fast in debug builds")
                    panic!(
                        "lock-rank inversion: acquiring {} (rank {}) while holding {} (rank {})",
                        rank.name, rank.rank, top.name, top.rank
                    );
                }
            }
            held.push(rank);
        });
        RankToken { rank }
    }

    impl Drop for RankToken {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                // Tokens usually die LIFO, but explicit `drop(guard)`
                // calls can release out of order; remove the newest
                // entry with this rank.
                if let Some(at) = held.iter().rposition(|r| r.rank == self.rank.rank) {
                    held.remove(at);
                }
            });
        }
    }

    /// Highest rank currently held by this thread (diagnostics/tests).
    pub fn current_max_rank() -> Option<u16> {
        HELD.with(|held| held.borrow().iter().map(|r| r.rank).max())
    }
}

#[cfg(not(debug_assertions))]
mod imp {
    use super::LockRank;

    /// Release-build token: zero-sized, no tracking, fully inlined away.
    pub struct RankToken;

    /// Release-build acquisition: a no-op.
    #[inline(always)]
    pub fn acquire(_rank: LockRank) -> RankToken {
        RankToken
    }

    /// Release builds track nothing.
    #[inline(always)]
    pub fn current_max_rank() -> Option<u16> {
        None
    }
}

pub use imp::{acquire, current_max_rank, RankToken};

/// A lock guard paired with its rank token. The token is checked (and
/// the rank recorded) *before* the guard is acquired, so a would-be
/// inversion panics instead of deadlocking; the guard drops before the
/// token (field order), so the rank is held exactly as long as the lock.
pub struct Ranked<G> {
    guard: G,
    _token: RankToken,
}

/// Acquire `rank`, then the guard produced by `acquire_guard`, pairing
/// their lifetimes.
#[track_caller]
pub fn ranked<G>(rank: LockRank, acquire_guard: impl FnOnce() -> G) -> Ranked<G> {
    let token = acquire(rank);
    Ranked { guard: acquire_guard(), _token: token }
}

impl<G: Deref> Deref for Ranked<G> {
    type Target = G::Target;
    fn deref(&self) -> &Self::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Ranked<G> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_acquisition_is_clean() {
        let _a = acquire(LOCK_SHARD);
        let _b = acquire(HEAP_TABLE);
        let _c = acquire(WAL_WRITER);
        #[cfg(debug_assertions)]
        assert_eq!(current_max_rank(), Some(WAL_WRITER.rank));
    }

    #[test]
    fn tokens_release_on_drop() {
        {
            let _a = acquire(BUFFER_POOL);
        }
        // BUFFER_POOL released: a lower rank is acquirable again.
        let _b = acquire(HEAP_TABLE);
    }

    #[test]
    fn out_of_order_release_is_tolerated() {
        let a = acquire(LOCK_SHARD);
        let b = acquire(HEAP_TABLE);
        drop(a); // explicit early release of the outer rank
        drop(b);
        let _fresh = acquire(LOCK_SHARD);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-rank inversion")]
    fn inversion_panics_in_debug() {
        let _wal = acquire(WAL_WRITER);
        let _heap = acquire(HEAP_TABLE); // inner rank while holding outer
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-rank inversion")]
    fn same_rank_reacquisition_panics_in_debug() {
        let _a = acquire(BUFFER_POOL);
        let _b = acquire(BUFFER_POOL); // self-deadlock on a non-reentrant lock
    }
}
