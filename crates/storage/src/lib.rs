//! # labflow-storage
//!
//! Object storage manager substrates for the LabFlow-1 benchmark.
//!
//! The LabFlow-1 paper (Bonner, Shrufi & Rozen, EDBT 1996) evaluates the
//! benchmark through LabBase, a workflow DBMS implemented on top of an
//! *object storage manager*. The paper compares five storage-manager
//! configurations; this crate reproduces all five behind a single
//! [`StorageManager`] trait. The three persistent ones are one page-based
//! [`Engine`] run with a different [`Profile`] — the difference between
//! server versions is data, not code:
//!
//! * [`Profile::ostore`] — modelled on ObjectStore v3.0: a page-based
//!   store with a buffer pool, an exclusive-only object lock manager
//!   (concurrent transactions allowed; readers never lock, they read
//!   version chains), write-ahead logging with checkpoints, and —
//!   critically for the paper's conclusions — **placement segments** that
//!   let the client control locality of reference (three small hot
//!   segments plus one large cold segment, per the paper's Section 5.1).
//! * [`Profile::texas`] — modelled on the Texas persistent store v0.3: a
//!   persistent heap with pointer swizzling at page-fault time. Allocation
//!   proceeds strictly in address order, so the client has **no control
//!   over locality**; the store is single-user and accesses its file
//!   directly (no log, durability at explicit checkpoints only).
//! * [`Profile::texas_tc`] — the same Texas storage manager plus
//!   *client-implemented* object clustering: allocations carrying the same
//!   [`ClusterHint`] are grouped into shared chunks, approximating what the
//!   paper calls the "Texas+TC" server version.
//! * [`MemStore`] (×2, via [`MemStore::ostore_mm`] / [`MemStore::texas_mm`])
//!   — the `-mm` versions: the same API with storage management compiled
//!   out; everything lives in main memory and nothing is persistent.
//!
//! All backends report uniform [`StorageStats`], including the number of
//! buffer-pool misses that had to touch the backing file. On the paper's
//! mid-90s hardware these were literal major page faults (`majflt`); on
//! modern machines the identical phenomenon — an object reference leaving
//! the resident set — is observed at the buffer pool, which the benchmark
//! sizes deliberately small.
//!
//! ## Example
//!
//! ```
//! use labflow_storage::{ClusterHint, Engine, Options, Profile, SegmentId, StorageManager};
//!
//! let dir = std::env::temp_dir().join(format!("lfs-doc-{}", std::process::id()));
//! let store = Engine::create(&dir, Profile::ostore(), Options::default()).unwrap();
//! let txn = store.begin().unwrap();
//! let oid = store
//!     .allocate(txn, SegmentId::DEFAULT, ClusterHint::NONE, b"hello workflow")
//!     .unwrap();
//! store.commit(txn).unwrap();
//! assert_eq!(store.read(oid).unwrap(), b"hello workflow");
//! # drop(store); std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]

mod buffer;
mod checksum;
mod engine;
mod error;
mod heap;
mod ids;
mod lock;
pub mod lock_order;
mod memstore;
mod meta;
mod page;
mod pagefile;
pub mod retry;
pub mod scrub;
mod stats;
mod traits;
pub mod vfs;
mod waits;
mod wal;

pub use checksum::{fnv1a, fnv1a_multi};
pub use engine::{Engine, Options, Profile};
pub use heap::{HeapContention, SegmentSpace};
pub use error::{RecoveryError, Result, StorageError};
pub use ids::{ClusterHint, Oid, PageId, SegmentId, Slot, TxnId};
pub use memstore::MemStore;
pub use pagefile::{PageRead, PAGE_HDR};
pub use scrub::{scrub_store, space_report, ScrubReport, SpaceReport};
pub use stats::{StatsSnapshot, StorageStats};
pub use traits::{SegmentInfo, Snapshot, StorageManager, Visibility};
pub use vfs::{FaultPlan, OpenMode, RealVfs, SimVfs, Vfs, VfsFile};
pub use wal::{decode_shipped, WalChunk, WalRecord};
pub use waits::{add_name_index_wait, snapshot as wait_snapshot, WaitSnapshot};

/// The page size used by all page-based backends, in bytes. This is the
/// *physical* unit of I/O; every page begins with a [`PAGE_HDR`]-byte
/// verification header, leaving [`PAGE_PAYLOAD`] bytes to the layers
/// above the page file.
pub const PAGE_SIZE: usize = 4096;

/// Bytes of each page available to the slotted-page/heap layers: the
/// physical page minus the verification header the page file owns.
pub const PAGE_PAYLOAD: usize = PAGE_SIZE - PAGE_HDR;

/// Test-only access to WAL replay, so the crash harness can print log
/// diagnostics when a durability invariant fails. Not part of the
/// supported API.
#[doc(hidden)]
pub mod wal_testing {
    pub use crate::wal::{Wal, WalRecord, WalReplay, FILL};
}

/// Test-only access to the slotted-page primitives, so external
/// property suites can drive the layout directly. Not part of the
/// supported API.
#[doc(hidden)]
pub mod page_testing {
    pub use crate::page::{
        compact, dead_bytes, fits, init, insert, live_bytes, read, reclaimable, remove, update,
    };

    /// Construct a slot id from its raw index.
    pub fn slot(raw: u16) -> crate::Slot {
        crate::Slot(raw)
    }
}
