//! Error type shared by every storage backend.

use std::fmt;
use std::io;

use crate::ids::{Oid, TxnId};

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Crash recovery found something it cannot explain as a torn tail.
///
/// A torn WAL *tail* is the expected signature of power loss mid-append
/// and is silently truncated; this error is reserved for damage replay
/// must not paper over — a bad checksum on an interior frame, an
/// undecodable record body, or a log whose epoch is newer than the
/// checkpoint that supposedly produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryError {
    /// Byte offset of the offending frame in the log.
    pub offset: u64,
    /// Zero-based index of the offending frame.
    pub frame: u64,
    /// What was wrong with it.
    pub detail: String,
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WAL frame {} at byte {}: {}", self.frame, self.offset, self.detail)
    }
}

/// Errors produced by storage managers.
#[derive(Debug)]
pub enum StorageError {
    /// An I/O error from the backing files.
    Io(io::Error),
    /// The object id is not present in the store.
    UnknownObject(Oid),
    /// The transaction id is not active.
    UnknownTxn(TxnId),
    /// The backend does not support the requested operation
    /// (e.g. `abort` on the Texas store, which has no undo log).
    Unsupported(&'static str),
    /// A second transaction was started on a single-user backend.
    SingleUser,
    /// A lock could not be acquired within the deadlock-avoidance timeout.
    LockTimeout(Oid),
    /// An object larger than the store can represent was allocated.
    ObjectTooLarge(usize),
    /// The on-disk metadata or log is corrupt.
    Corrupt(String),
    /// The store directory already exists (on `create`) or is missing
    /// (on `open`).
    BadPath(String),
    /// The requested segment id is outside the configured segment count.
    UnknownSegment(u8),
    /// Crash recovery hit interior log corruption (not a torn tail).
    Recovery(RecoveryError),
    /// A failed rollback left in-memory state unreliable, or a log-less
    /// store's checkpoint failed after its GC; checkpoints (and, log-less,
    /// transactions) are refused until the store is reopened (which
    /// re-runs recovery from the last durable state).
    Wounded(&'static str),
    /// A page failed checksum/header verification (bit rot, a lost
    /// write, truncation damage, or a quarantined page).
    PageChecksum {
        /// The page that failed verification.
        page: u32,
        /// What was wrong with it.
        detail: String,
    },
    /// A page carried a valid header and checksum — for a *different*
    /// page id: the signature of a misdirected write that landed at the
    /// wrong offset.
    MisdirectedPage {
        /// The page that was asked for.
        expected: u32,
        /// The page id the on-disk header claims.
        found: u32,
    },
    /// A WAL streaming read asked for an offset past the flushed tail:
    /// the log was truncated (by a checkpoint) since the reader's last
    /// chunk, so the stream cannot resume — the follower must re-seed
    /// from a fresh base copy of the store.
    WalRewound {
        /// The offset the stream reader asked to resume from.
        requested: u64,
        /// The current flushed tail of the (restarted) log.
        tail: u64,
    },
    /// A shipped replication chunk was refused because it carries an
    /// epoch older than the follower's fence — the signature of a
    /// deposed ("zombie") primary still shipping after a promotion.
    EpochFenced {
        /// The epoch the chunk claims.
        got: u64,
        /// The minimum epoch the receiver accepts.
        fence: u64,
    },
    /// The log-writer's force failed for the batch covering this
    /// commit. The underlying error is shared (`Arc`) by every
    /// committer the batch covered — one bounded-retry force produced
    /// it, not one retry storm per waiter.
    ForceFailed(std::sync::Arc<StorageError>),
    /// The dedicated log-writer thread is down (orderly shutdown or
    /// panic), so the enqueued commit can never be forced.
    WalWriterDown(&'static str),
}

impl StorageError {
    /// True for errors that mean "the bytes on disk are damaged" (as
    /// opposed to transient I/O, contention, or caller mistakes).
    /// The corruption harness uses this to distinguish *detected*
    /// damage from silent acceptance.
    pub fn is_corruption(&self) -> bool {
        match self {
            StorageError::Corrupt(_)
            | StorageError::Recovery(_)
            | StorageError::PageChecksum { .. }
            | StorageError::MisdirectedPage { .. } => true,
            // A failed force is as corrupt as whatever made it fail.
            StorageError::ForceFailed(inner) => inner.is_corruption(),
            _ => false,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::UnknownObject(oid) => write!(f, "unknown object {oid}"),
            StorageError::UnknownTxn(t) => write!(f, "unknown or inactive transaction {t}"),
            StorageError::Unsupported(what) => write!(f, "operation not supported: {what}"),
            StorageError::SingleUser => {
                write!(f, "backend is single-user and a transaction is already active")
            }
            StorageError::LockTimeout(oid) => write!(f, "lock timeout on object {oid}"),
            StorageError::ObjectTooLarge(n) => write!(f, "object of {n} bytes is too large"),
            StorageError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
            StorageError::BadPath(msg) => write!(f, "bad store path: {msg}"),
            StorageError::UnknownSegment(s) => write!(f, "unknown segment {s}"),
            StorageError::Recovery(e) => write!(f, "unrecoverable log corruption: {e}"),
            StorageError::Wounded(what) => {
                write!(f, "store is wounded ({what}); reopen to recover")
            }
            StorageError::PageChecksum { page, detail } => {
                write!(f, "page {page} failed verification: {detail}")
            }
            StorageError::MisdirectedPage { expected, found } => {
                write!(f, "misdirected write: page {expected} holds a valid image of page {found}")
            }
            StorageError::WalRewound { requested, tail } => {
                write!(
                    f,
                    "wal stream rewound: offset {requested} requested but the log was \
                     truncated to {tail} bytes (follower must re-seed)"
                )
            }
            StorageError::EpochFenced { got, fence } => {
                write!(
                    f,
                    "replication chunk fenced: epoch {got} is older than the fence epoch \
                     {fence} (deposed primary)"
                )
            }
            StorageError::ForceFailed(inner) => {
                write!(f, "log force failed for this commit's batch: {inner}")
            }
            StorageError::WalWriterDown(why) => {
                write!(f, "log-writer thread is down ({why}); commit cannot be forced")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::ForceFailed(inner) => Some(inner.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let cases: Vec<StorageError> = vec![
            StorageError::Io(io::Error::other("boom")),
            StorageError::UnknownObject(Oid::from_raw(7)),
            StorageError::UnknownTxn(TxnId::from_raw(3)),
            StorageError::Unsupported("abort"),
            StorageError::SingleUser,
            StorageError::LockTimeout(Oid::from_raw(1)),
            StorageError::ObjectTooLarge(1 << 30),
            StorageError::Corrupt("bad magic".into()),
            StorageError::BadPath("/nope".into()),
            StorageError::UnknownSegment(9),
            StorageError::Recovery(RecoveryError {
                offset: 4096,
                frame: 3,
                detail: "checksum mismatch".into(),
            }),
            StorageError::Wounded("abort undo failed"),
            StorageError::PageChecksum { page: 12, detail: "crc mismatch".into() },
            StorageError::MisdirectedPage { expected: 4, found: 9 },
            StorageError::WalRewound { requested: 512, tail: 17 },
            StorageError::EpochFenced { got: 3, fence: 5 },
            StorageError::ForceFailed(std::sync::Arc::new(StorageError::Io(io::Error::other(
                "disk gone",
            )))),
            StorageError::WalWriterDown("log shut down"),
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn corruption_classifier_matches_damage_variants() {
        assert!(StorageError::Corrupt("x".into()).is_corruption());
        assert!(StorageError::PageChecksum { page: 1, detail: "x".into() }.is_corruption());
        assert!(StorageError::MisdirectedPage { expected: 1, found: 2 }.is_corruption());
        assert!(StorageError::Recovery(RecoveryError {
            offset: 0,
            frame: 0,
            detail: "x".into(),
        })
        .is_corruption());
        assert!(!StorageError::Io(io::Error::other("boom")).is_corruption());
        assert!(!StorageError::SingleUser.is_corruption());
        // ForceFailed classifies by its cause, not by itself.
        let io_force =
            StorageError::ForceFailed(std::sync::Arc::new(io::Error::other("boom").into()));
        assert!(!io_force.is_corruption());
        let corrupt_force =
            StorageError::ForceFailed(std::sync::Arc::new(StorageError::Corrupt("rot".into())));
        assert!(corrupt_force.is_corruption());
        assert!(!StorageError::WalWriterDown("down").is_corruption());
    }

    #[test]
    fn io_source_is_preserved() {
        let e = StorageError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(matches!(e, StorageError::Io(_)));
    }
}
