//! # labflow-repl
//!
//! WAL-shipping replication for LabBase. The primary is any store with
//! a write-ahead log (it needs no replication-specific state beyond the
//! server's ack table); each follower is a second store that replays
//! the primary's log continuously:
//!
//! 1. **Ship** — the follower pulls chunks of whole, checksummed WAL
//!    frames (`wal_stream_from` on the primary, `ReplSubscribe` over
//!    the wire) from its durable offset.
//! 2. **Verify** — every frame's position-bound checksum is re-checked
//!    against its absolute log offset before anything is applied; a
//!    torn, rotted, or reordered chunk is a typed
//!    [`ReplError::Corrupt`] and the follower re-requests the range —
//!    self-healing, because the primary re-reads it from disk.
//! 3. **Apply** — operations are buffered per transaction and applied
//!    atomically and durably when the commit frame arrives
//!    (`replica_apply_commit`); aborted transactions are dropped. The
//!    follower's LabBase serves MVCC snapshot reads the whole time
//!    (read-only mode; see `LabBase::set_read_only`).
//! 4. **Ack** — the follower reports its durable offset; the primary's
//!    server can hold commit responses for an ack quorum
//!    (`ServerConfig::ack_quorum`).
//! 5. **Promote** — after primary loss, a follower re-seals its store
//!    at a fenced-off epoch ([`Follower::promote`]); chunks from the
//!    deposed primary's epoch are refused everywhere from then on.
//!
//! Offsets are raw WAL byte positions, so a primary-side checkpoint
//! (which truncates the log) rewinds the stream: followers get a typed
//! [`ReplError::Rewound`] and must re-seed. The pipeline therefore
//! suppresses primary checkpoints while followers are attached; lifting
//! that by shipping checkpoint images is future work (see DESIGN.md).

#![warn(missing_docs)]

mod error;
mod follower;
mod pump;

pub use error::{ReplError, Result};
pub use follower::{Follower, EPOCH_FENCE_MARGIN};
pub use pump::{pump_once, run_pump, PumpConfig};
