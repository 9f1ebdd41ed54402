//! Write-ahead log for the ObjectStore-like backend.
//!
//! Logical (operation-level) logging: each record describes one object
//! operation inside a transaction. Recovery replays the committed suffix
//! since the last checkpoint; the log is truncated at each checkpoint and
//! restarted with a [`WalRecord::Reset`] frame carrying the checkpoint
//! epoch, so replay can tell a stale pre-checkpoint log (crash between
//! the metadata flip and the log truncation) from a current one.
//!
//! Records are framed as `[len u32][crc u32][body]`, where the crc is
//! `fnv1a(frame offset ‖ body)` — *position-aware*, so a perfectly valid
//! frame that a misdirected write landed at the wrong offset fails its
//! checksum instead of replaying someone else's history.
//!
//! The file is zero-filled ahead of the log's tail in [`FILL`]-byte
//! granules, so a durable commit's force writes into space the file
//! already has and syncs data only, not a new file size. The log
//! therefore ends at the first position that is not an intact frame,
//! not at the end of the file. What follows that position decides what
//! it means ([`Wal::replay`]): zeros only is a clean end; a failing
//! frame with nothing intact after it and only zeros past its extent is
//! the signature of a crash mid-append, dropped and reported via
//! [`WalReplay`]; anything else is damage and surfaces as
//! [`StorageError::Recovery`] — replay must not silently drop committed
//! work.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard};

use crate::checksum::fnv1a_multi;
use crate::error::{RecoveryError, Result, StorageError};
use crate::ids::{ClusterHint, Oid, SegmentId};
use crate::lock_order::{self, Ranked};
use crate::retry::with_retries;
use crate::stats::StorageStats;
use crate::vfs::{OpenMode, Vfs, VfsFile};
use crate::waits;

/// One logical log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A transaction began.
    Begin(u64),
    /// An object was allocated.
    Alloc {
        /// Owning transaction.
        txn: u64,
        /// The oid assigned.
        oid: Oid,
        /// Placement segment.
        seg: SegmentId,
        /// Clustering hint (replayed so recovered placement matches).
        hint: ClusterHint,
        /// Object payload.
        data: Vec<u8>,
    },
    /// An object was overwritten.
    Update {
        /// Owning transaction.
        txn: u64,
        /// The object updated.
        oid: Oid,
        /// New payload.
        data: Vec<u8>,
        /// Payload before the update — the undo image recovery restores
        /// if this transaction turns out to be a loser. Required because
        /// the buffer pool steals (evicts dirty pages of uncommitted
        /// transactions to the data file). Only the transaction's first
        /// touch of the oid carries one; recovery ignores later images,
        /// so those are empty.
        old: Vec<u8>,
    },
    /// An object was freed.
    Free {
        /// Owning transaction.
        txn: u64,
        /// The object freed.
        oid: Oid,
        /// Payload before the free (undo image; see [`WalRecord::Update`]).
        old: Vec<u8>,
    },
    /// The transaction committed.
    Commit(u64),
    /// The transaction aborted (its records must not be replayed).
    Abort(u64),
    /// The log was truncated by a checkpoint with this epoch. Always the
    /// first frame of a post-checkpoint log; lets replay detect a stale
    /// log left behind when a crash lands between the metadata flip and
    /// the log truncation.
    Reset(u64),
}

impl WalRecord {
    /// Transaction id the record belongs to (0 for [`WalRecord::Reset`],
    /// which belongs to no transaction).
    pub fn txn(&self) -> u64 {
        match self {
            WalRecord::Begin(t) | WalRecord::Commit(t) | WalRecord::Abort(t) => *t,
            WalRecord::Alloc { txn, .. }
            | WalRecord::Update { txn, .. }
            | WalRecord::Free { txn, .. } => *txn,
            WalRecord::Reset(_) => 0,
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Begin(t) => {
                out.push(1);
                out.extend_from_slice(&t.to_le_bytes());
            }
            WalRecord::Alloc { txn, oid, seg, hint, data } => {
                out.push(2);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&oid.raw().to_le_bytes());
                out.push(seg.0);
                out.extend_from_slice(&hint.0.to_le_bytes());
                out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                out.extend_from_slice(data);
            }
            WalRecord::Update { txn, oid, data, old } => {
                out.push(3);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&oid.raw().to_le_bytes());
                out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                out.extend_from_slice(data);
                out.extend_from_slice(&(old.len() as u32).to_le_bytes());
                out.extend_from_slice(old);
            }
            WalRecord::Free { txn, oid, old } => {
                out.push(4);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&oid.raw().to_le_bytes());
                out.extend_from_slice(&(old.len() as u32).to_le_bytes());
                out.extend_from_slice(old);
            }
            WalRecord::Commit(t) => {
                out.push(5);
                out.extend_from_slice(&t.to_le_bytes());
            }
            WalRecord::Abort(t) => {
                out.push(6);
                out.extend_from_slice(&t.to_le_bytes());
            }
            WalRecord::Reset(epoch) => {
                out.push(7);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
        }
    }

    fn decode(body: &[u8]) -> Result<WalRecord> {
        let corrupt = || StorageError::Corrupt("short WAL record body".into());
        let tag = *body.first().ok_or_else(corrupt)?;
        let rest = body.get(1..).ok_or_else(corrupt)?;
        let u64_at = |at: usize| -> Result<u64> {
            rest.get(at..at + 8)
                .and_then(|s| s.try_into().ok())
                .map(u64::from_le_bytes)
                .ok_or_else(corrupt)
        };
        let u32_at = |at: usize| -> Result<u32> {
            rest.get(at..at + 4)
                .and_then(|s| s.try_into().ok())
                .map(u32::from_le_bytes)
                .ok_or_else(corrupt)
        };
        match tag {
            1 => Ok(WalRecord::Begin(u64_at(0)?)),
            2 => {
                let txn = u64_at(0)?;
                let oid = Oid::from_raw(u64_at(8)?);
                let seg = SegmentId(*rest.get(16).ok_or_else(corrupt)?);
                let hint = ClusterHint(u64_at(17)?);
                let len = u32_at(25)? as usize;
                let data = rest.get(29..29 + len).ok_or_else(corrupt)?.to_vec();
                Ok(WalRecord::Alloc { txn, oid, seg, hint, data })
            }
            3 => {
                let txn = u64_at(0)?;
                let oid = Oid::from_raw(u64_at(8)?);
                let len = u32_at(16)? as usize;
                let data = rest.get(20..20 + len).ok_or_else(corrupt)?.to_vec();
                let old_len = u32_at(20 + len)? as usize;
                let old = rest.get(24 + len..24 + len + old_len).ok_or_else(corrupt)?.to_vec();
                Ok(WalRecord::Update { txn, oid, data, old })
            }
            4 => {
                let txn = u64_at(0)?;
                let oid = Oid::from_raw(u64_at(8)?);
                let old_len = u32_at(16)? as usize;
                let old = rest.get(20..20 + old_len).ok_or_else(corrupt)?.to_vec();
                Ok(WalRecord::Free { txn, oid, old })
            }
            5 => Ok(WalRecord::Commit(u64_at(0)?)),
            6 => Ok(WalRecord::Abort(u64_at(0)?)),
            7 => Ok(WalRecord::Reset(u64_at(0)?)),
            t => Err(StorageError::Corrupt(format!("unknown WAL tag {t}"))),
        }
    }
}

/// Frame checksum, bound to the frame's byte offset in the log: the
/// same body at a different position has a different crc, so replay
/// rejects misdirected log writes instead of accepting them as history.
fn frame_crc(offset: u64, body: &[u8]) -> u32 {
    fnv1a_multi(&[&offset.to_le_bytes(), body])
}

/// Append to `out` the on-disk frame of `rec` for a frame that will be
/// written at `offset`; returns the frame's length.
fn push_frame(out: &mut Vec<u8>, offset: u64, rec: &WalRecord) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; 8]);
    rec.encode(out);
    let (header, body) = out.split_at_mut(start + 8);
    let len = (body.len() as u32).to_le_bytes();
    let crc = frame_crc(offset, body).to_le_bytes();
    for (dst, b) in header.iter_mut().skip(start).zip(len.into_iter().chain(crc)) {
        *dst = b;
    }
    out.len() - start
}

/// Length of a [`WalRecord::Reset`] frame: header, tag, epoch.
const RESET_FRAME_LEN: u64 = 8 + 1 + 8;

/// Granule of the zero-filled region kept ahead of the log's tail. A
/// flush that would end past the filled region first writes zeros up to
/// the next multiple of this, so only one force per granule persists a
/// new file size; every other force is a pure data flush.
pub const FILL: u64 = 256 << 10;

/// How far past an apparent tear replay searches for a later intact
/// frame before trusting the tear. Bounds the rescue scan's cost; any
/// realistic frame (bodies are object-sized) starts well inside it.
const TEAR_SCAN_WINDOW: usize = 4 << 20;

/// Look for an intact frame at some offset after `cut`. A genuine crash
/// tear is always the *last* thing in a log, so an intact frame behind
/// the cut proves the "tear" is really interior damage wearing a tear's
/// clothes — e.g. a rotted length field that makes a mid-log frame
/// claim to run past EOF.
fn intact_frame_after(data: &[u8], cut: usize) -> Option<u64> {
    let end = data.len().min(cut.saturating_add(TEAR_SCAN_WINDOW));
    (cut + 1..end).find(|&at| frame_at(data, 0, at).is_ok()).map(|at| at as u64)
}

/// The frame at position `at` of `data`, whose first byte sits at log
/// offset `base`, if it is intact: its record and the position one past
/// it. If not, why not, and where the failing frame's extent ends (the
/// end of `data` when its header or body is cut off there). A frame
/// with an empty body never decodes, so a checksum that covers nothing
/// but the offset is never trusted.
fn frame_at(
    data: &[u8],
    base: u64,
    at: usize,
) -> std::result::Result<(WalRecord, usize), (&'static str, usize)> {
    let header = data
        .get(at..)
        .and_then(|r| r.split_first_chunk::<4>())
        .and_then(|(len, r)| r.split_first_chunk::<4>().map(|(crc, rest)| (len, crc, rest)));
    let Some((len_bytes, crc_bytes, rest)) = header else {
        return Err(("frame header cut off", data.len()));
    };
    let len = u32::from_le_bytes(*len_bytes) as usize;
    let Some(body) = rest.get(..len) else {
        return Err(("frame body cut off", data.len()));
    };
    let extent = at + 8 + len;
    if frame_crc(base + at as u64, body) != u32::from_le_bytes(*crc_bytes) {
        return Err(("checksum mismatch (damaged or misdirected)", extent));
    }
    match WalRecord::decode(body) {
        Ok(rec) => Ok((rec, extent)),
        Err(_) => Err(("undecodable record", extent)),
    }
}

/// A contiguous run of whole, checksum-verified WAL frames read from
/// the flushed portion of the log, ready to ship to a replication
/// follower. `bytes` holds the frames exactly as they sit on disk, so
/// the follower re-verifies each position-bound checksum against the
/// absolute offsets `[start, end)` — a torn, rotted, or reordered
/// chunk fails verification instead of replaying as history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalChunk {
    /// Absolute byte offset of the first frame in this chunk.
    pub start: u64,
    /// Offset one past the last byte: the next stream request point.
    pub end: u64,
    /// The raw frame bytes, as written (and checksummed) on disk.
    pub bytes: Vec<u8>,
}

impl WalChunk {
    /// True when the stream had nothing new past `start`.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Decode a shipped chunk's frames, verifying each position-bound
/// checksum against its absolute log offset (`start` + position in
/// `bytes`). Unlike [`Wal::replay`], *nothing* is forgiven: a shipped
/// chunk is a complete artifact, so a truncated final frame is damage
/// (a network-level tear), not an expected crash tail. Returns each
/// record with the absolute offset of the frame that carried it.
pub fn decode_shipped(start: u64, bytes: &[u8]) -> Result<Vec<(u64, WalRecord)>> {
    let mut out = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let (rec, next) = frame_at(bytes, start, at).map_err(|(why, _)| {
            StorageError::Recovery(RecoveryError {
                offset: start + at as u64,
                frame: out.len() as u64,
                detail: format!("shipped chunk: {why}"),
            })
        })?;
        out.push((start + at as u64, rec));
        at = next;
    }
    Ok(out)
}

/// Everything replay learned from the log.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// The intact records, in append order (including any leading
    /// [`WalRecord::Reset`]).
    pub records: Vec<WalRecord>,
    /// Number of intact frames decoded.
    pub frames: u64,
    /// Bytes of torn tail discarded, up to the last non-zero byte (0
    /// after a clean shutdown).
    pub bytes_truncated: u64,
    /// Offset one past the last intact frame: where appends resume.
    pub end: u64,
}

/// The append side of the log: the file handle plus an in-memory tail of
/// frames not yet written out. Unflushed frames belong to transactions
/// whose commit has not been forced, so losing them on a crash is exactly
/// the contract.
struct WalWriter {
    /// Offset where the next flush writes (bytes already in the file).
    flushed: u64,
    /// Frames awaiting the next flush, assembled by [`Wal::append`] under
    /// the writer lock — where each frame's file offset is known, and the
    /// frame crc covers that offset (see [`frame_crc`]): `flushed` plus
    /// the tail before it, or, while a truncation is pending, the reset
    /// frame's length plus the tail. A truncation empties the tail, so no
    /// frame outlives the offset space it was framed for.
    tail: Vec<u8>,
    /// Shared counters (for the transient-retry stat).
    stats: Arc<StorageStats>,
    /// A truncation failed partway: the log head (empty file + reset
    /// frame for this epoch) must be re-established before any frame may
    /// be written. Without this, a transient I/O error during
    /// [`Wal::truncate`] would let later flushes append either to the
    /// stale pre-checkpoint log (recovery skips it as stale — silently
    /// dropping acknowledged commits) or at offset zero with no reset
    /// frame (recovery rejects the log as corrupt).
    pending_reset: Option<u64>,
    /// The append mark ([`WalShared::appended`]) every byte below which
    /// has been written out to the file (or discarded by a truncation
    /// that made it redundant).
    flushed_mark: u64,
    /// The file holds zeros (or frames) up to this offset: a multiple
    /// of [`FILL`], or the log's end right after an open or truncation.
    zeroed_to: u64,
}

impl WalWriter {
    /// File offset of the next frame [`Wal::append`] assembles.
    fn next_offset(&self) -> u64 {
        let base = if self.pending_reset.is_some() { RESET_FRAME_LEN } else { self.flushed };
        base + self.tail.len() as u64
    }

    /// Re-establish the log head if a truncation is still pending. The
    /// write ordering (set_len, then the reset frame, then any frames
    /// behind it) is what keeps every possible crash image well-formed;
    /// durability is the caller's business.
    fn repair_head(&mut self, file: &mut dyn VfsFile) -> Result<()> {
        if let Some(epoch) = self.pending_reset {
            let stats = self.stats.clone();
            with_retries(|| file.set_len(0), || StorageStats::bump(&stats.io_retries, 1))?;
            self.flushed = 0;
            self.zeroed_to = 0;
            let mut frame = Vec::with_capacity(RESET_FRAME_LEN as usize);
            push_frame(&mut frame, 0, &WalRecord::Reset(epoch));
            with_retries(
                || file.write_at(0, &frame),
                || StorageStats::bump(&stats.io_retries, 1),
            )?;
            self.flushed = frame.len() as u64;
            self.pending_reset = None;
        }
        Ok(())
    }

    /// Write the tail out: one `write_at` of frames that are already
    /// assembled, preceded — when they would end past the zero-filled
    /// region — by one `write_at` of zeros up to the next [`FILL`]
    /// boundary. The zeros are written first, so every crash image that
    /// holds any of the frames holds the zeros behind them too.
    /// `appended` is the append mark, read by the caller under the
    /// writer lock it holds: the tail is written whole, so on success
    /// everything below it is in the file. Returns whether there was a
    /// tail to write.
    fn flush(&mut self, file: &mut dyn VfsFile, appended: u64) -> Result<bool> {
        self.repair_head(file)?;
        let wrote = !self.tail.is_empty();
        if wrote {
            let stats = self.stats.clone();
            let end = self.flushed + self.tail.len() as u64;
            if end > self.zeroed_to {
                let from = self.zeroed_to.max(self.flushed);
                let to = end.div_ceil(FILL) * FILL;
                let zeros = vec![0u8; (to - from) as usize];
                with_retries(
                    || file.write_at(from, &zeros),
                    || StorageStats::bump(&stats.io_retries, 1),
                )?;
                self.zeroed_to = to;
            }
            with_retries(
                || file.write_at(self.flushed, &self.tail),
                || StorageStats::bump(&stats.io_retries, 1),
            )?;
            self.flushed += self.tail.len() as u64;
            self.tail.clear();
        }
        self.flushed_mark = appended;
        Ok(wrote)
    }
}

/// A force failure published by the log-writer thread. Every ticket
/// below `through` not already covered by a successful force observes
/// the same shared error — one typed failure per batch, instead of each
/// covered committer re-forcing a possibly-dead disk in turn.
struct FailedRange {
    /// One past the last ticket the failed batch would have covered.
    through: u64,
    /// The force error, shared by every covered waiter.
    error: Arc<StorageError>,
}

/// The log-writer's request queue. Durable committers take a ticket
/// (after their records are in the append buffer) and park on the
/// `done` condvar until the synced watermark passes it; the dedicated
/// writer thread claims the queue in batches and forces — write-out
/// plus sync — once per batch. A commit that needs no sync never comes
/// here: it writes the tail out itself ([`Wal::group_commit`]).
#[derive(Default)]
struct LogQueue {
    /// Next ticket to hand out.
    next_ticket: u64,
    /// Tickets below this bound have had their records synced.
    synced_ticket: u64,
    /// A sync was requested — by a ticket, or by [`Wal::request_sync`] —
    /// since the writer's last claim: what the writer wakes for.
    sync_requested: bool,
    /// The last failed force, if none has succeeded since. A later
    /// successful force covers the same tickets (the tail keeps
    /// unflushed frames across failures) and clears this.
    failure: Option<FailedRange>,
    /// Set when the writer thread exits — orderly shutdown or panic —
    /// so waiters fail typed instead of parking forever.
    writer_down: Option<&'static str>,
    /// Tells the writer thread to drain its queue and exit.
    shutdown: bool,
}

/// What the log-writer found when it drained its queue.
enum Claim {
    /// Tickets below `end` (possibly none: a bare sync request) need a
    /// force.
    Batch {
        /// One past the last ticket covered by this batch.
        end: u64,
    },
    /// Shut down (the queue is fully drained).
    Exit,
}

/// State shared between [`Wal`] handles and the log-writer thread.
struct WalShared {
    writer: Mutex<WalWriter>,
    /// The log file. Writes to it happen under the writer lock as well —
    /// the file lock is taken inside it, so frames reach the file in
    /// tail order — but a sync holds this lock alone: appends go on
    /// while the log-writer waits for the disk, and the committers a
    /// force releases together keep finishing their next transactions
    /// together, into one batch.
    log_file: Mutex<Box<dyn VfsFile>>,
    queue: StdMutex<LogQueue>,
    /// Wakes the log-writer: new tickets, sync requests, or shutdown.
    work: Condvar,
    /// Wakes committers: a watermark advanced or a failure published.
    done: Condvar,
    stats: Arc<StorageStats>,
    /// The append mark: bytes ever appended through this handle. Unlike
    /// the file offsets it never rewinds at a truncation, so a value
    /// read once (a buffer-pool frame's stamp) stays comparable for the
    /// life of the log. Advanced only under the writer lock (Release),
    /// in buffer order; loaded lock-free (Acquire) by the buffer pool
    /// when it stamps a frame.
    appended: AtomicU64,
    /// The synced watermark, in append marks: every record appended
    /// below it is durable. Advanced by a completed sync, to the mark
    /// that was flushed before the sync began, and by a truncation;
    /// loaded lock-free (Acquire) by the buffer pool's write gate.
    synced: AtomicU64,
    /// Test hook: make the writer thread panic at its next claim, to
    /// prove committers get a typed error instead of a hang.
    #[cfg(test)]
    panic_next_claim: std::sync::atomic::AtomicBool,
}

/// Armed by the log-writer for its whole life: on drop — orderly exit
/// or unwind — publishes `writer_down` and wakes every waiter, so a
/// dead writer surfaces as [`StorageError::WalWriterDown`], never a
/// hang.
struct WriterFailsafe<'a>(&'a WalShared);

impl Drop for WriterFailsafe<'_> {
    fn drop(&mut self) {
        let why = if std::thread::panicking() {
            "log-writer thread panicked"
        } else {
            "log shut down"
        };
        {
            let _rank = lock_order::acquire(lock_order::WAL_QUEUE);
            let mut q = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.writer_down = Some(why);
        }
        self.0.done.notify_all();
    }
}

impl WalShared {
    /// Lock the append buffer with rank tracking. Held across a
    /// write-out, and never while acquiring any lock other than the log
    /// file's and the simulated disk's.
    fn writer_lock(&self) -> Ranked<MutexGuard<'_, WalWriter>> {
        lock_order::ranked(lock_order::WAL_WRITER, || self.writer.lock())
    }

    /// Lock the log file with rank tracking: under the writer lock for a
    /// write, alone for a sync.
    fn log_file_lock(&self) -> Ranked<MutexGuard<'_, Box<dyn VfsFile>>> {
        lock_order::ranked(lock_order::WAL_FILE, || self.log_file.lock())
    }

    /// The log-writer thread: claim a batch of tickets, force once for
    /// all of them, publish the outcome, repeat. The next batch
    /// accumulates behind the in-flight force instead of behind a
    /// sleeping leader.
    fn writer_loop(&self) {
        let failsafe = WriterFailsafe(self);
        loop {
            match self.claim() {
                Claim::Exit => break,
                Claim::Batch { end } => {
                    let forced = self.flush_batch().and_then(|()| self.sync_batch());
                    self.publish(end, forced);
                }
            }
        }
        drop(failsafe);
    }

    /// Wait for work and claim all of it. The rank token is explicit
    /// because the condvar wait consumes and re-produces the guard;
    /// both are released before any I/O.
    fn claim(&self) -> Claim {
        #[cfg(test)]
        if self.panic_next_claim.load(Ordering::Relaxed) {
            // analyzer: allow(panic, "test hook: simulated log-writer death")
            panic!("injected log-writer panic");
        }
        let _rank = lock_order::acquire(lock_order::WAL_QUEUE);
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if std::mem::take(&mut q.sync_requested) {
                return Claim::Batch { end: q.next_ticket };
            }
            if q.shutdown {
                return Claim::Exit;
            }
            q = self.work.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Publish a force outcome and wake the covered waiters.
    fn publish(&self, end: u64, result: Result<()>) {
        {
            let _rank = lock_order::acquire(lock_order::WAL_QUEUE);
            let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            match result {
                Ok(()) => {
                    q.synced_ticket = q.synced_ticket.max(end);
                    q.failure = None;
                }
                Err(e) => {
                    q.failure = Some(FailedRange { through: end, error: Arc::new(e) });
                }
            }
        }
        self.done.notify_all();
    }

    /// Enqueue a sync request and block until the log-writer has
    /// covered it (or failed trying).
    fn wait_covered(&self) -> Result<()> {
        let _rank = lock_order::acquire(lock_order::WAL_QUEUE);
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        let ticket = q.next_ticket;
        q.next_ticket += 1;
        q.sync_requested = true;
        self.work.notify_one();
        loop {
            // Success is checked first: a batch that failed but whose
            // bytes a later force carried out (the tail keeps unflushed
            // frames across failures) counts as covered.
            if q.synced_ticket > ticket {
                return Ok(());
            }
            if let Some(f) = &q.failure {
                if ticket < f.through {
                    return Err(StorageError::ForceFailed(f.error.clone()));
                }
            }
            if let Some(why) = q.writer_down {
                return Err(StorageError::WalWriterDown(why));
            }
            q = self.done.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// A commit's write-out of the tail, under the writer lock — the
    /// log-writer's for a batch, or a no-sync committer's own — counted
    /// if there was something to write.
    fn commit_write_out(&self) -> Result<()> {
        let mut w = self.writer_lock();
        let mut file = self.log_file_lock();
        // analyzer: allow(blocking, "the log-file lock is the log's I/O lock: a write-out runs under it by design")
        if w.flush(&mut **file, self.appended.load(Ordering::Acquire))? {
            StorageStats::bump(&self.stats.wal_syncs, 1);
        }
        Ok(())
    }

    /// One batch's write-out, charged to the force profile rather than
    /// any committer's wait.
    fn flush_batch(&self) -> Result<()> {
        let started = Instant::now();
        let result = self.commit_write_out();
        self.note_force(started);
        result
    }

    /// Sync the file. Runs after (and apart from) the batch's
    /// write-out, without the writer lock; everything flushed before it
    /// began becomes durable.
    fn sync_batch(&self) -> Result<()> {
        let started = Instant::now();
        let covered = self.writer_lock().flushed_mark;
        let result = {
            let mut file = self.log_file_lock();
            with_retries(|| file.sync(), || StorageStats::bump(&self.stats.io_retries, 1))
        };
        if result.is_ok() {
            self.synced.fetch_max(covered, Ordering::Release);
        }
        self.note_force(started);
        result
    }

    /// Attribute time spent inside a physical force: to the calling
    /// thread's profile (only the log-writer forces, so client threads
    /// always read zero) and to the store-wide counter.
    fn note_force(&self, started: Instant) {
        let nanos = started.elapsed().as_nanos() as u64;
        waits::add_commit_force(nanos);
        StorageStats::bump(&self.stats.wal_force_nanos, nanos);
    }
}

/// The write-ahead log file: append-only and write-buffered. Records
/// accumulate, already framed, in an in-memory tail; a committing
/// transaction calls [`Wal::group_commit`]. A commit that needs no sync
/// writes the tail out itself and returns. A durable commit enqueues a
/// sync request and parks until the dedicated log-writer thread covers
/// it: the writer coalesces every request that arrives while a force is
/// in flight into the next batch — so one physical write-out plus one
/// sync serves many commits, and no committer ever burns its own thread
/// on the fsync.
pub struct Wal {
    shared: Arc<WalShared>,
    written: AtomicU64,
    /// The dedicated log-writer thread; joined on drop.
    writer_thread: Option<JoinHandle<()>>,
}

impl Wal {
    fn writer_lock(&self) -> Ranked<MutexGuard<'_, WalWriter>> {
        self.shared.writer_lock()
    }

    /// Create a fresh (empty) log at `path`.
    pub fn create(vfs: &Arc<dyn Vfs>, path: &Path, stats: Arc<StorageStats>) -> Result<Self> {
        let file = vfs.open(path, OpenMode::Create)?;
        Self::start(file, 0, stats)
    }

    /// Open an existing log for appending at `end`, the
    /// [`WalReplay::end`] its replay found. Anything past it — zeros, or
    /// the fragment of a torn frame — is cut off first, so no fragment
    /// can follow a later append. Creates an empty log if none exists,
    /// matching the pre-VFS behavior.
    pub fn open(
        vfs: &Arc<dyn Vfs>,
        path: &Path,
        end: u64,
        stats: Arc<StorageStats>,
    ) -> Result<Self> {
        let mode = if vfs.exists(path) { OpenMode::Open } else { OpenMode::Create };
        let mut file = vfs.open(path, mode)?;
        if file.len()? > end {
            with_retries(|| file.set_len(end), || StorageStats::bump(&stats.io_retries, 1))?;
        }
        Self::start(file, end, stats)
    }

    /// Wrap an opened log file and spawn its log-writer thread.
    fn start(file: Box<dyn VfsFile>, flushed: u64, stats: Arc<StorageStats>) -> Result<Self> {
        let shared = Arc::new(WalShared {
            writer: Mutex::new(WalWriter {
                flushed,
                tail: Vec::new(),
                stats: stats.clone(),
                pending_reset: None,
                flushed_mark: 0,
                zeroed_to: flushed,
            }),
            log_file: Mutex::new(file),
            queue: StdMutex::new(LogQueue::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            stats,
            appended: AtomicU64::new(0),
            synced: AtomicU64::new(0),
            #[cfg(test)]
            panic_next_claim: std::sync::atomic::AtomicBool::new(false),
        });
        let writer_shared = shared.clone();
        let writer_thread = std::thread::Builder::new()
            .name("labflow-wal".into())
            .spawn(move || writer_shared.writer_loop())
            .map_err(StorageError::Io)?;
        Ok(Wal { shared, written: AtomicU64::new(flushed), writer_thread: Some(writer_thread) })
    }

    /// Append a record to the log (buffered).
    pub fn append(&self, rec: &WalRecord) -> Result<()> {
        let frame_len = {
            // The frame is assembled under the lock that orders the
            // tail, where its offset is known. The mark moves under the
            // same lock, so a thread that reads it after its own append
            // reads a value covering that record and every record
            // queued before it.
            let mut w = self.writer_lock();
            let offset = w.next_offset();
            let frame_len = push_frame(&mut w.tail, offset, rec) as u64;
            self.shared.appended.fetch_add(frame_len, Ordering::Release);
            frame_len
        };
        self.written.fetch_add(frame_len, Ordering::Relaxed);
        StorageStats::bump(&self.shared.stats.wal_bytes, frame_len);
        Ok(())
    }

    /// Group commit: ensure every record appended by the caller (up to
    /// and including its commit record) has reached the log.
    ///
    /// The caller must have finished appending before calling. Without
    /// `durable` the promise is "written out to the OS page cache" (the
    /// benchmark's default, matching checkpoint-based durability), and
    /// the caller keeps it itself: it takes the writer lock, writes the
    /// tail out — its own records and whatever else is queued — and
    /// returns, with no ticket and no thread hand-off. With `durable`
    /// the call enqueues a sync request for the dedicated log-writer and
    /// parks; the writer coalesces every request that arrived since its
    /// last claim into one physical force.
    ///
    /// Time spent here is charged to the calling thread's commit-wait
    /// counter; a physical force is charged to the log-writer, which
    /// performs it (see [`crate::WaitSnapshot`]).
    pub fn group_commit(&self, durable: bool) -> Result<()> {
        let started = Instant::now();
        let result = if durable {
            self.shared.wait_covered()
        } else {
            self.shared.commit_write_out()
        };
        waits::add_commit_wait(started.elapsed().as_nanos() as u64);
        result
    }

    /// The append mark: bytes ever appended through this handle,
    /// buffered or not. The buffer pool stamps a frame with it whenever
    /// the frame is dirtied; because `update`/`free` append their record
    /// (with its undo image) before the heap mutates, the stamp covers
    /// every record describing the frame's contents. Monotone — it does
    /// not rewind at [`Wal::truncate`].
    pub(crate) fn appended(&self) -> u64 {
        self.shared.appended.load(Ordering::Acquire)
    }

    /// The synced watermark: every record appended below this mark is
    /// durable. The buffer pool may write a dirty frame to the data
    /// file iff the frame's stamp is at or below it (the write-ahead
    /// rule).
    pub(crate) fn synced(&self) -> u64 {
        self.shared.synced.load(Ordering::Acquire)
    }

    /// Ask the log-writer for a sync without waiting for it: the next
    /// batch it claims writes out and syncs, advancing [`Wal::synced`]
    /// past everything appended so far. Takes no ticket — a durable
    /// commit that arrives before the claim shares the batch.
    pub(crate) fn request_sync(&self) {
        {
            let _rank = lock_order::acquire(lock_order::WAL_QUEUE);
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.sync_requested = true;
        }
        self.shared.work.notify_one();
    }

    /// Block until [`Wal::synced`] has reached `mark` (which must have
    /// been read from [`Wal::appended`]). The sync itself runs on the
    /// log-writer; the caller parks on the ticket queue like a durable
    /// committer and is charged commit *wait*, not force time.
    pub(crate) fn wait_synced(&self, mark: u64) -> Result<()> {
        if self.synced() >= mark {
            return Ok(());
        }
        // A durable ticket taken now is covered by a batch that writes
        // out everything appended so far — `mark` included — and syncs.
        self.group_commit(true)
    }

    /// Read every intact record from the start of the log.
    ///
    /// The log ends at the first position that is not an intact frame:
    /// a torn or all-zero header, a body past the end of the file, a
    /// checksum mismatch, or a body that does not decode. If only zeros
    /// follow that position, the log ended cleanly. If a crash tore the
    /// last append — nothing intact after it, and only zeros past the
    /// failing frame's extent — replay stops there and reports the
    /// discarded bytes. Anything else means the durable log is damaged,
    /// which recovery must not paper over: [`StorageError::Recovery`].
    /// Rot in the final frame, with only zeros behind it, reads as a
    /// tear: the one case no rule can tell apart, and reported as one.
    pub fn replay(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<WalReplay> {
        let Some(data) = vfs.read_all(path)? else {
            return Ok(WalReplay::default());
        };
        let mut out = WalReplay::default();
        let mut at = 0usize;
        let (why, extent) = loop {
            match frame_at(&data, 0, at) {
                Ok((rec, next)) => {
                    out.records.push(rec);
                    out.frames += 1;
                    at = next;
                }
                Err(failed) => break failed,
            }
        };
        out.end = at as u64;
        // Past the last non-zero byte is fill, or nothing.
        let used = data.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        if used <= at {
            return Ok(out);
        }
        // A crash tear is the last thing in a log: nothing intact, and
        // nothing but zeros, may follow it.
        let detail = match intact_frame_after(&data, at) {
            Some(next) => Some(format!(
                "{why}, but an intact frame follows at byte {next} \
                 (interior damage, not a crash tail)"
            )),
            None if used > extent => Some(format!(
                "{why}, and non-zero bytes follow it up to byte {used} \
                 (damage, not a crash tail)"
            )),
            None => None,
        };
        if let Some(detail) = detail {
            return Err(StorageError::Recovery(RecoveryError {
                offset: at as u64,
                frame: out.frames,
                detail,
            }));
        }
        out.bytes_truncated = (used - at) as u64;
        Ok(out)
    }

    /// Discard the log contents (after a checkpoint made them redundant)
    /// and restart it with a durable [`WalRecord::Reset`] frame carrying
    /// the checkpoint `epoch`. Any buffered-but-unflushed frames are
    /// dropped: the checkpoint that triggered this truncation has already
    /// persisted their effects.
    pub fn truncate(&self, epoch: u64) -> Result<()> {
        let mut w = self.writer_lock();
        let mut file = self.shared.log_file_lock();
        w.tail.clear();
        // Mark the truncation before attempting it: if any step fails,
        // the next flush retries the whole head rewrite before it may
        // append a frame (see [`WalWriter::pending_reset`]).
        w.pending_reset = Some(epoch);
        w.repair_head(&mut **file)?;
        let stats = self.shared.stats.clone();
        with_retries(|| file.sync(), || StorageStats::bump(&stats.io_retries, 1))?;
        self.written.store(w.flushed, Ordering::Relaxed);
        // The checkpoint behind this truncation wrote every dirty page
        // through the gate, so nothing below the current append mark is
        // still owed to the log: the three marks move together.
        let appended = self.shared.appended.load(Ordering::Acquire);
        w.flushed_mark = appended;
        self.shared.synced.fetch_max(appended, Ordering::Release);
        Ok(())
    }

    /// Bytes appended so far (including any still buffered).
    pub fn len_bytes(&self) -> Result<u64> {
        Ok(self.written.load(Ordering::Relaxed))
    }

    /// The flushed tail of the log: every byte below this offset is a
    /// whole frame in the file, servable by [`Wal::stream_from`].
    /// (Buffered-but-unflushed records belong to commits not yet
    /// forced; they are not yet history and are never shipped.)
    pub fn flushed_lsn(&self) -> u64 {
        self.writer_lock().flushed
    }

    /// Read a chunk of whole frames starting at byte `from`, for
    /// shipping to a replication follower.
    ///
    /// Runs under the writer lock, after re-establishing the log head
    /// if a truncation is pending — a stream reader therefore sees
    /// either the pre-truncation tail or the fully repaired head,
    /// never the limbo between them. Frames are returned exactly as
    /// they sit on disk; the chunk ends at the last whole frame within
    /// `max_bytes` (always at least one frame when any is available).
    ///
    /// Typed failures: [`StorageError::WalRewound`] when `from` is past
    /// the flushed tail (the log restarted at a checkpoint — the
    /// follower must re-seed), and [`StorageError::Recovery`] when the
    /// durable bytes at `from` do not verify as frames (interior
    /// damage, or a resume offset that is not a frame boundary).
    pub fn stream_from(&self, from: u64, max_bytes: usize) -> Result<WalChunk> {
        let mut w = self.writer_lock();
        let mut file = self.shared.log_file_lock();
        w.repair_head(&mut **file)?;
        let flushed = w.flushed;
        if from > flushed {
            return Err(StorageError::WalRewound { requested: from, tail: flushed });
        }
        if from == flushed {
            return Ok(WalChunk { start: from, end: from, bytes: Vec::new() });
        }
        let avail = flushed - from;
        let mut window = avail.min(max_bytes.max(16) as u64) as usize;
        let stats = self.shared.stats.clone();
        loop {
            let mut buf = vec![0u8; window];
            with_retries(
                || file.read_at(from, &mut buf),
                || StorageStats::bump(&stats.io_retries, 1),
            )?;
            // Trim to whole frames, verifying each checksum against its
            // absolute offset as we go.
            let mut at = 0usize;
            let mut frames = 0u64;
            while at < buf.len() {
                let header = buf.get(at..).and_then(|r| r.split_first_chunk::<4>()).and_then(
                    |(len, r)| r.split_first_chunk::<4>().map(|(crc, rest)| (len, crc, rest)),
                );
                let Some((len_bytes, crc_bytes, rest)) = header else { break };
                let len = u32::from_le_bytes(*len_bytes) as usize;
                let frame_end = at.saturating_add(8).saturating_add(len);
                if frame_end as u64 > avail {
                    // The frame claims to run past the flushed tail;
                    // the writer only flushes whole frames, so this is
                    // durable damage, not an artifact of the window.
                    return Err(StorageError::Recovery(RecoveryError {
                        offset: from + at as u64,
                        frame: frames,
                        detail: "streamed frame runs past the flushed tail".into(),
                    }));
                }
                let Some(body) = rest.get(..len) else {
                    // Whole frame exists but the window cut it; widen to
                    // cover at least this frame and re-read. Only the
                    // first frame can force this (later cuts just end
                    // the chunk early).
                    if at == 0 {
                        window = frame_end;
                        break;
                    }
                    break;
                };
                if frame_crc(from + at as u64, body) != u32::from_le_bytes(*crc_bytes) {
                    return Err(StorageError::Recovery(RecoveryError {
                        offset: from + at as u64,
                        frame: frames,
                        detail: "streamed frame failed its position-bound checksum".into(),
                    }));
                }
                frames += 1;
                at = frame_end;
            }
            if at == 0 {
                // First frame did not fit the window: go around with the
                // widened window. A window that failed to grow means the
                // durable tail holds less than one whole frame, which
                // the writer's whole-frame flushes make impossible —
                // report it rather than spin.
                if window <= buf.len() {
                    return Err(StorageError::Recovery(RecoveryError {
                        offset: from,
                        frame: 0,
                        detail: "flushed tail holds no whole frame".into(),
                    }));
                }
                continue;
            }
            buf.truncate(at);
            return Ok(WalChunk { start: from, end: from + at as u64, bytes: buf });
        }
    }
}

impl Drop for Wal {
    /// Orderly shutdown: tell the log-writer to drain and exit, then
    /// join it. Any committer still parked when the writer goes down is
    /// woken with [`StorageError::WalWriterDown`] by the failsafe.
    fn drop(&mut self) {
        {
            let _rank = lock_order::acquire(lock_order::WAL_QUEUE);
            self.shared.queue.lock().unwrap_or_else(|e| e.into_inner()).shutdown = true;
        }
        self.shared.work.notify_all();
        if let Some(handle) = self.writer_thread.take() {
            // A panicked writer already published its death via the
            // failsafe; nothing further to surface here.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::RealVfs;
    use std::fs::OpenOptions;
    use std::path::PathBuf;
    use std::time::Duration;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lfs-wal-{}-{}", std::process::id(), name));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Begin(1),
            WalRecord::Alloc {
                txn: 1,
                oid: Oid::from_raw(10),
                seg: SegmentId(2),
                hint: ClusterHint(99),
                data: b"payload".to_vec(),
            },
            WalRecord::Update {
                txn: 1,
                oid: Oid::from_raw(10),
                data: b"updated".to_vec(),
                old: b"payload".to_vec(),
            },
            WalRecord::Free { txn: 1, oid: Oid::from_raw(4), old: b"gone".to_vec() },
            WalRecord::Commit(1),
            WalRecord::Begin(2),
            WalRecord::Abort(2),
        ]
    }

    #[test]
    fn append_replay_round_trip() {
        let path = tmp("rt");
        let vfs = RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let wal = Wal::create(&vfs, &path, stats.clone()).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.group_commit(true).unwrap();
        let replayed = Wal::replay(&vfs, &path).unwrap();
        assert_eq!(replayed.records, sample_records());
        assert_eq!(replayed.frames, sample_records().len() as u64);
        assert_eq!(replayed.bytes_truncated, 0);
        assert!(stats.snapshot().wal_bytes > 0);
    }

    #[test]
    fn replay_missing_file_is_empty() {
        let path = tmp("missing").join("never-created.log");
        let vfs = RealVfs::arc();
        let replayed = Wal::replay(&vfs, &path).unwrap();
        assert!(replayed.records.is_empty());
        assert_eq!(replayed.bytes_truncated, 0);
    }

    #[test]
    fn torn_tail_is_dropped_and_counted() {
        let path = tmp("torn");
        let vfs = RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let wal = Wal::create(&vfs, &path, stats).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.group_commit(true).unwrap();
        let len = wal.flushed_lsn();
        drop(wal);
        // Chop a few bytes off the log's end, and the zeros behind it:
        // the last frame is torn.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        let replayed = Wal::replay(&vfs, &path).unwrap();
        assert_eq!(replayed.records.len(), sample_records().len() - 1);
        assert!(replayed.bytes_truncated > 0, "the torn frame's bytes are accounted");
    }

    #[test]
    fn interior_corruption_is_a_typed_error() {
        let path = tmp("corrupt");
        let vfs = RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let wal = Wal::create(&vfs, &path, stats).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.group_commit(true).unwrap();
        drop(wal);
        let mut data = std::fs::read(&path).unwrap();
        // Flip a byte inside the second frame's body.
        let first_len = u32::from_le_bytes(data[0..4].try_into().unwrap()) as usize;
        let second_body_start = 8 + first_len + 8;
        data[second_body_start + 2] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        match Wal::replay(&vfs, &path) {
            Err(StorageError::Recovery(e)) => {
                assert_eq!(e.frame, 1, "the second frame is the damaged one");
                assert_eq!(e.offset, (8 + first_len) as u64);
            }
            other => panic!("expected a Recovery error, got {other:?}"),
        }
    }

    #[test]
    fn misdirected_frame_fails_its_position_bound_checksum() {
        // Two frames of identical length, swapped on disk: every byte is
        // a valid frame image, but each now sits at the wrong offset. A
        // position-blind crc would replay them happily (silently
        // reordering history); the offset-bound crc must reject the log.
        let path = tmp("swap");
        let vfs = RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let wal = Wal::create(&vfs, &path, stats).unwrap();
        wal.append(&WalRecord::Begin(1)).unwrap();
        wal.append(&WalRecord::Commit(1)).unwrap();
        wal.group_commit(true).unwrap();
        drop(wal);
        let mut data = std::fs::read(&path).unwrap();
        let flen = 8 + 9; // header + (tag byte ‖ txn u64): same for both
        assert!(data[2 * flen..].iter().all(|&b| b == 0), "two frames, then the fill");
        let (a, b) = data[..2 * flen].split_at_mut(flen);
        a.swap_with_slice(b);
        std::fs::write(&path, &data).unwrap();
        match Wal::replay(&vfs, &path) {
            Err(StorageError::Recovery(e)) => assert_eq!(e.frame, 0),
            other => panic!("expected a Recovery error, got {other:?}"),
        }
    }

    #[test]
    fn rotted_length_field_is_not_mistaken_for_a_crash_tail() {
        // Blow up an interior frame's length field so the frame claims
        // to run past EOF. Naive replay would treat everything from that
        // frame on as a torn tail and silently drop the committed frames
        // behind it; the tear-rescue scan finds those intact frames and
        // turns the "tail" into a typed recovery error.
        let path = tmp("rotlen");
        let vfs = RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let wal = Wal::create(&vfs, &path, stats).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.group_commit(true).unwrap();
        drop(wal);
        let mut data = std::fs::read(&path).unwrap();
        data[0] = 0xFF; // first frame's len: 17 -> huge
        data[1] = 0xFF;
        std::fs::write(&path, &data).unwrap();
        match Wal::replay(&vfs, &path) {
            Err(StorageError::Recovery(e)) => {
                assert_eq!(e.offset, 0);
                assert!(e.detail.contains("intact frame follows"), "got detail {:?}", e.detail);
            }
            other => panic!("expected a Recovery error, got {other:?}"),
        }
    }

    /// `sample_records` written durably through a fresh log at `name`,
    /// ending in a frame whose last byte is not zero; returns the path
    /// and the final frame's offset.
    fn filled_log(name: &str) -> (PathBuf, usize) {
        let path = tmp(name);
        let vfs = RealVfs::arc();
        let wal = Wal::create(&vfs, &path, Arc::new(StorageStats::default())).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        let last = wal.flushed_lsn() as usize + wal.writer_lock().tail.len();
        wal.append(&tail_record()).unwrap();
        wal.group_commit(true).unwrap();
        (path, last)
    }

    fn tail_record() -> WalRecord {
        WalRecord::Update { txn: 2, oid: Oid::from_raw(3), data: vec![0x5A; 40], old: vec![0xA5; 9] }
    }

    /// Header, tag, txn, oid, and the two length-prefixed images.
    const TAIL_FRAME_LEN: usize = 8 + 1 + 8 + 8 + 4 + 40 + 4 + 9;

    fn all_records() -> Vec<WalRecord> {
        let mut all = sample_records();
        all.push(tail_record());
        all
    }

    #[test]
    fn a_clean_log_with_a_zero_filled_tail_replays_with_nothing_truncated() {
        let (path, last) = filled_log("fill-clean");
        let log_len = last + TAIL_FRAME_LEN;
        assert_eq!(std::fs::metadata(&path).unwrap().len(), FILL, "the tail is zero-filled");
        let replayed = Wal::replay(&RealVfs::arc(), &path).unwrap();
        assert_eq!(replayed.records, all_records());
        assert_eq!(replayed.bytes_truncated, 0, "fill is not a tear");
        assert_eq!(replayed.end, log_len as u64);
    }

    #[test]
    fn a_frame_torn_into_the_zero_region_is_a_reported_tear() {
        // A crash mid-append into filled space leaves a complete frame
        // whose body ends in zeros: its checksum fails, and only zeros
        // follow it.
        let (path, last) = filled_log("fill-torn");
        let mut data = std::fs::read(&path).unwrap();
        // Only the first 40 bytes landed; the rest of the frame's
        // extent is the fill it was written over.
        data[last + 40..last + TAIL_FRAME_LEN].fill(0);
        std::fs::write(&path, &data).unwrap();
        let replayed = Wal::replay(&RealVfs::arc(), &path).unwrap();
        assert_eq!(replayed.records, sample_records());
        assert_eq!(replayed.end, last as u64);
        assert_eq!(replayed.bytes_truncated, 40, "up to its last non-zero byte");
    }

    #[test]
    fn a_rotted_final_frame_followed_by_zeros_is_a_reported_tear() {
        let (path, last) = filled_log("fill-rot");
        let mut data = std::fs::read(&path).unwrap();
        data[last + 30] ^= 0x08;
        std::fs::write(&path, &data).unwrap();
        let replayed = Wal::replay(&RealVfs::arc(), &path).unwrap();
        assert_eq!(replayed.records, sample_records());
        assert_eq!(replayed.bytes_truncated, TAIL_FRAME_LEN as u64, "its bytes are reported");
    }

    #[test]
    fn rot_in_any_earlier_frame_stays_an_error_in_a_filled_log() {
        // The tear rule forgives only the final frame: a flipped bit in
        // any byte of an earlier one — length, checksum or body — has
        // an intact frame behind it.
        let (path, last) = filled_log("fill-interior");
        let vfs = RealVfs::arc();
        let clean = std::fs::read(&path).unwrap();
        for at in 0..last {
            let mut data = clean.clone();
            data[at] ^= 0x01;
            std::fs::write(&path, &data).unwrap();
            match Wal::replay(&vfs, &path) {
                Err(StorageError::Recovery(e)) => assert!(e.offset <= at as u64, "byte {at}"),
                other => panic!("a flip at byte {at} replayed as {other:?}"),
            }
        }
        // Bytes behind the final frame's extent are not a tear either.
        let mut data = clean;
        data[last + 200] = 1;
        std::fs::write(&path, &data).unwrap();
        match Wal::replay(&vfs, &path) {
            Err(StorageError::Recovery(e)) => {
                assert!(e.detail.contains("non-zero bytes follow"), "{}", e.detail);
            }
            other => panic!("a stray byte in the fill replayed as {other:?}"),
        }
    }

    #[test]
    fn open_resumes_at_the_replayed_end_and_appends_replay_intact() {
        // A torn frame that runs into the second fill granule, longer
        // than what is appended next: the appends' own fill covers only
        // the first granule, so the fragment beyond it must be cut.
        let path = tmp("fill-resume");
        let vfs = RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let wal = Wal::create(&vfs, &path, stats.clone()).unwrap();
        let update = |txn, len| WalRecord::Update {
            txn,
            oid: Oid::from_raw(9),
            data: vec![0xEE; len],
            old: vec![0xDD; 3000],
        };
        wal.append(&update(1, FILL as usize - 5000)).unwrap();
        wal.append(&WalRecord::Commit(1)).unwrap();
        wal.group_commit(true).unwrap();
        let end = wal.flushed_lsn();
        wal.append(&update(2, 3000)).unwrap();
        wal.group_commit(true).unwrap();
        assert!(wal.flushed_lsn() > FILL, "the torn frame must cross the first granule");
        drop(wal);
        let mut data = std::fs::read(&path).unwrap();
        data[end as usize + 100..end as usize + 200].fill(0);
        std::fs::write(&path, &data).unwrap();

        let replayed = Wal::replay(&vfs, &path).unwrap();
        assert_eq!((replayed.end, replayed.records.len()), (end, 2));
        assert!(replayed.bytes_truncated > 5000);
        let wal = Wal::open(&vfs, &path, replayed.end, stats).unwrap();
        wal.append(&WalRecord::Begin(3)).unwrap();
        wal.append(&WalRecord::Commit(3)).unwrap();
        wal.group_commit(true).unwrap();
        let replayed = Wal::replay(&vfs, &path).unwrap();
        assert_eq!(replayed.records.len(), 4);
        assert_eq!(replayed.records[2..], [WalRecord::Begin(3), WalRecord::Commit(3)]);
        assert_eq!((replayed.bytes_truncated, replayed.end), (0, wal.flushed_lsn()));
    }

    #[test]
    fn crash_at_every_op_across_the_first_fill_boundary_recovers_committed_exactly() {
        // Durable commits of ~3 KB each: a clean prefix ends just short
        // of the first granule, then the phase below crosses it. The
        // plug is pulled at each of the phase's file operations, with
        // writeback and torn writes armed: every acknowledged commit
        // replays, and what replays is a prefix of what was appended.
        use crate::vfs::{FaultPlan, SimVfs};
        let path = PathBuf::from("/sim/wal.log");
        let txn = |t: u64| {
            let data = vec![(t % 251) as u8 + 1; 3000];
            [WalRecord::Begin(t), WalRecord::Update { txn: t, oid: Oid::from_raw(t), data, old: vec![] }, WalRecord::Commit(t)]
        };
        let commit = |wal: &Wal, t: u64| -> Result<()> {
            for rec in txn(t) {
                wal.append(&rec)?;
            }
            wal.group_commit(true)
        };
        let build = |seed: u64| {
            let sim = SimVfs::new(seed);
            let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
            let wal = Wal::create(&vfs, &path, Arc::new(StorageStats::default())).unwrap();
            let mut t = 0;
            while wal.flushed_lsn() + 4 * 3100 < FILL {
                commit(&wal, t).unwrap();
                t += 1;
            }
            (sim, wal, t)
        };
        const PHASE: u64 = 8;
        let (sim, wal, first) = build(0);
        let before = sim.op_count();
        for t in first..first + PHASE {
            commit(&wal, t).unwrap();
        }
        assert!(wal.flushed_lsn() > FILL, "the phase must cross the first granule");
        let ops = sim.op_count() - before;
        drop(wal);
        let mut tears = 0;
        for seed in 0..4 {
            for k in 0..ops {
                let (sim, wal, first) = build(seed);
                sim.set_plan(FaultPlan {
                    crash_at_op: Some(sim.op_count() + k),
                    writeback: true,
                    ..FaultPlan::default()
                });
                let acked = (first..first + PHASE).take_while(|&t| commit(&wal, t).is_ok()).count();
                drop(wal);
                sim.power_loss();
                let durable: Arc<dyn Vfs> = Arc::new(sim.clone_durable());
                let replayed = Wal::replay(&durable, &path)
                    .unwrap_or_else(|e| panic!("seed {seed}, op {k}: replay failed: {e}"));
                tears += u64::from(replayed.bytes_truncated > 0);
                let appended: Vec<WalRecord> = (0..first + PHASE).flat_map(txn).collect();
                let n = replayed.records.len();
                assert!(
                    n <= appended.len() && replayed.records[..] == appended[..n],
                    "seed {seed}, op {k}: the replayed log is not a prefix of the appended one"
                );
                let commits = replayed.records.iter().filter(|r| matches!(r, WalRecord::Commit(_)));
                assert!(
                    commits.count() as u64 >= first + acked as u64,
                    "seed {seed}, op {k}: an acknowledged commit was lost"
                );
            }
        }
        assert!(tears > 0, "no plug-pull tore a frame");
    }

    #[test]
    fn truncate_restarts_log_with_reset_epoch() {
        let path = tmp("trunc");
        let vfs = RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let wal = Wal::create(&vfs, &path, stats).unwrap();
        wal.append(&WalRecord::Begin(5)).unwrap();
        wal.group_commit(true).unwrap();
        assert!(wal.len_bytes().unwrap() > 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), FILL);
        wal.truncate(3).unwrap();
        // The truncation drops the fill with the log: a checkpointed log
        // is its reset frame and nothing else.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), RESET_FRAME_LEN);
        let replayed = Wal::replay(&vfs, &path).unwrap();
        assert_eq!(replayed.records, vec![WalRecord::Reset(3)]);
        // Appends after a truncation land after the reset frame.
        wal.append(&WalRecord::Begin(6)).unwrap();
        wal.group_commit(true).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), FILL, "filled again");
        let replayed = Wal::replay(&vfs, &path).unwrap();
        assert_eq!(replayed.records, vec![WalRecord::Reset(3), WalRecord::Begin(6)]);
    }

    #[test]
    fn failed_truncation_is_repaired_before_the_next_flush() {
        // A transient I/O error mid-truncate must not let later flushes
        // append to the stale pre-checkpoint log (recovery would skip
        // those frames as stale) or write frames with no leading reset
        // frame (recovery would reject the log). The writer repairs the
        // log head before the next flush instead.
        use crate::vfs::{FaultPlan, SimVfs};
        let sim = SimVfs::new(1);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let path = PathBuf::from("/sim/wal.log");
        let stats = Arc::new(StorageStats::default());
        let wal = Wal::create(&vfs, &path, stats).unwrap();
        wal.append(&WalRecord::Begin(5)).unwrap();
        wal.group_commit(true).unwrap();

        // Fail every file operation a truncation performs, one run per
        // op (set_len, frame write, sync), and check the repair each way.
        // Each step is retried up to `retry::ATTEMPTS` times, so the
        // fault must persist across all of them to make the step fail.
        for failing_op in 0..3 {
            let base = sim.op_count() + failing_op;
            let fail_ops: Vec<u64> = (0..crate::retry::ATTEMPTS as u64).map(|i| base + i).collect();
            sim.set_plan(FaultPlan { fail_ops, ..FaultPlan::default() });
            let result = wal.truncate(9);
            sim.set_plan(FaultPlan::default());
            if result.is_ok() {
                // The fault landed after the last fallible step; the
                // truncation stands. (Does not happen with the current
                // three-op truncate, but keep the loop robust.)
                continue;
            }
            wal.append(&WalRecord::Begin(6)).unwrap();
            wal.group_commit(true).unwrap();
            let replayed = Wal::replay(&vfs, &path).unwrap();
            assert_eq!(
                replayed.records,
                vec![WalRecord::Reset(9), WalRecord::Begin(6)],
                "after a truncate failure at relative op {failing_op}, the next flush \
                 must re-establish the reset head before appending"
            );
        }
    }

    #[test]
    fn group_commit_batches_concurrent_committers() {
        // Many concurrent durable committers should share far fewer
        // physical forces than there are commits.
        let path = tmp("group");
        let vfs = RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let wal = Arc::new(
            Wal::create(&vfs, &path, stats.clone()).unwrap(),
        );
        const THREADS: u64 = 8;
        const COMMITS_PER_THREAD: u64 = 10;
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let wal = wal.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..COMMITS_PER_THREAD {
                    let txn = t * 1000 + i;
                    wal.append(&WalRecord::Begin(txn)).unwrap();
                    wal.append(&WalRecord::Commit(txn)).unwrap();
                    wal.group_commit(true).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let syncs = stats.snapshot().wal_syncs;
        assert!(syncs >= 1, "at least one force must happen");
        assert!(
            syncs < THREADS * COMMITS_PER_THREAD,
            "group commit should batch: {syncs} forces for {} commits",
            THREADS * COMMITS_PER_THREAD
        );
        // Every commit record must be on disk after group_commit returned.
        let committed = Wal::replay(&vfs, &path)
            .unwrap()
            .records
            .iter()
            .filter(|r| matches!(r, WalRecord::Commit(_)))
            .count();
        assert_eq!(committed as u64, THREADS * COMMITS_PER_THREAD);
    }

    #[test]
    fn no_sync_commit_writes_its_own_tail_and_takes_no_ticket() {
        let path = tmp("nosync");
        let vfs = RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let wal = Wal::create(&vfs, &path, stats.clone()).unwrap();
        let commits = |vfs: &Arc<dyn Vfs>| -> Vec<u64> {
            let replayed = Wal::replay(vfs, &path).unwrap();
            assert_eq!(replayed.bytes_truncated, 0);
            replayed
                .records
                .iter()
                .filter_map(|r| if let WalRecord::Commit(t) = r { Some(*t) } else { None })
                .collect()
        };
        for txn in 0..50u64 {
            wal.append(&WalRecord::Begin(txn)).unwrap();
            wal.append(&WalRecord::Update {
                txn,
                oid: Oid::from_raw(7),
                data: vec![txn as u8; 300],
                old: vec![0; 300],
            })
            .unwrap();
            wal.append(&WalRecord::Commit(txn)).unwrap();
            wal.group_commit(false).unwrap();
            // Acknowledged: written out, by this thread, now.
            assert_eq!(commits(&vfs).last(), Some(&txn));
        }
        {
            let q = wal.shared.queue.lock().unwrap();
            assert_eq!(q.next_ticket, 0, "a no-sync committer was handed a ticket");
            assert!(!q.sync_requested, "a no-sync commit asked the log-writer for something");
        }
        assert_eq!(stats.snapshot().wal_syncs, 50, "one write-out per commit");
        assert_eq!(wal.synced(), 0, "nothing asked for a sync");
        // Frames assembled at append time carry the offsets they were
        // written at: the file replays after a drop with no checkpoint,
        // and a truncation restarts the offsets under the reset frame.
        wal.truncate(3).unwrap();
        wal.append(&WalRecord::Begin(99)).unwrap();
        wal.append(&WalRecord::Commit(99)).unwrap();
        wal.group_commit(false).unwrap();
        drop(wal);
        assert_eq!(commits(&vfs), vec![99]);
        let end = Wal::replay(&vfs, &path).unwrap().end;
        let wal = Wal::open(&vfs, &path, end, stats).unwrap();
        wal.append(&WalRecord::Commit(100)).unwrap();
        wal.group_commit(false).unwrap();
        assert_eq!(commits(&vfs), vec![99, 100]);
    }

    #[test]
    fn group_commit_charges_commit_wait() {
        let path = tmp("waits");
        let vfs = RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let wal = Wal::create(&vfs, &path, stats).unwrap();
        let before = crate::waits::snapshot();
        wal.append(&WalRecord::Begin(1)).unwrap();
        wal.group_commit(true).unwrap();
        let d = crate::waits::snapshot().delta(&before);
        assert!(d.commit_wait_nanos > 0, "a durable force takes measurable time");
        // The physical force ran on the log-writer thread, not here:
        // this thread only queued.
        assert_eq!(d.commit_force_nanos, 0, "committers no longer force on their own thread");
    }

    #[test]
    fn gate_wait_is_queue_wait_not_force_time() {
        // A page write blocked on the write-ahead gate parks on the
        // ticket queue like a durable committer. The physical force runs
        // on the log-writer, so the blocked thread is charged wait time
        // and no force time.
        let path = tmp("gate-attr");
        let vfs = RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let wal = Wal::create(&vfs, &path, stats.clone()).unwrap();
        wal.append(&WalRecord::Begin(1)).unwrap();
        let mark = wal.appended();
        assert!(wal.synced() < mark, "an appended record is not durable until a sync");
        let before = crate::waits::snapshot();
        wal.wait_synced(mark).unwrap();
        let d = crate::waits::snapshot().delta(&before);
        assert!(wal.synced() >= mark, "the wait returns only once the mark is covered");
        assert!(d.commit_wait_nanos > 0, "a blocked gate is queue wait");
        assert_eq!(d.commit_force_nanos, 0, "the force ran on the log-writer, not here");
        assert!(stats.snapshot().wal_force_nanos > 0);
        // A mark already covered costs nothing: no ticket, no wait.
        let forces = stats.snapshot().wal_syncs;
        let before = crate::waits::snapshot();
        wal.wait_synced(mark).unwrap();
        assert_eq!(crate::waits::snapshot().delta(&before).commit_wait_nanos, 0);
        assert_eq!(stats.snapshot().wal_syncs, forces);
    }

    #[test]
    fn requested_sync_advances_the_watermark_without_a_waiter() {
        let path = tmp("gate-async");
        let vfs = RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let wal = Wal::create(&vfs, &path, stats).unwrap();
        wal.append(&WalRecord::Begin(1)).unwrap();
        wal.append(&WalRecord::Commit(1)).unwrap();
        let mark = wal.appended();
        wal.request_sync();
        // Nobody parks on this request; the only way to observe it is
        // the watermark itself.
        let deadline = Instant::now() + Duration::from_secs(20);
        while wal.synced() < mark {
            assert!(Instant::now() < deadline, "the log-writer never served the request");
            std::thread::yield_now();
        }
        let replayed = Wal::replay(&vfs, &path).unwrap();
        assert_eq!(replayed.records, vec![WalRecord::Begin(1), WalRecord::Commit(1)]);
    }

    #[test]
    fn append_marks_survive_a_truncation() {
        // File offsets rewind at a checkpoint; append marks must not —
        // a frame stamp read before the truncation has to stay
        // comparable with the watermark after it.
        let path = tmp("gate-trunc");
        let vfs = RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let wal = Wal::create(&vfs, &path, stats).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        let before = wal.appended();
        assert!(wal.synced() < before);
        wal.truncate(4).unwrap();
        assert_eq!(wal.appended(), before, "truncation appends nothing and rewinds nothing");
        assert_eq!(wal.synced(), before, "a checkpoint leaves nothing owed to the log");
        assert!(wal.flushed_lsn() < before, "the file offset space did rewind");
        wal.append(&WalRecord::Begin(9)).unwrap();
        assert!(wal.appended() > wal.synced());
        wal.wait_synced(wal.appended()).unwrap();
        assert_eq!(wal.synced(), wal.appended());
    }

    #[test]
    fn any_single_bit_flip_in_a_frame_changes_its_checksum() {
        let mut body = Vec::new();
        WalRecord::Update {
            txn: 3,
            oid: Oid::from_raw(77),
            data: (0..200u8).collect(),
            old: (0..=255u8).rev().collect(),
        }
        .encode(&mut body);
        let offset = 12_345u64;
        let clean = frame_crc(offset, &body);
        let mut rotted = body.clone();
        for bit in 0..rotted.len() * 8 {
            rotted[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(frame_crc(offset, &rotted), clean, "body bit {bit}");
            rotted[bit / 8] ^= 1 << (bit % 8);
        }
        // The offset is part of the sum: the same body one byte along
        // (or one bit away) is a different frame.
        for bit in 0..64 {
            assert_ne!(frame_crc(offset ^ (1 << bit), &body), clean, "offset bit {bit}");
        }
    }

    #[test]
    fn mixed_durability_batch_syncs_before_durable_caller_returns() {
        // Regression: a durable=true committer whose batch also holds
        // durable=false members must not be downgraded — its commit
        // record must be in the *durable* image (not just the OS cache)
        // by the time its group_commit returns. Non-durable committers
        // hammer the log, writing the tail out themselves, so the durable
        // caller's records are often in the file before its batch runs.
        use crate::vfs::SimVfs;
        let sim = SimVfs::new(7);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let path = PathBuf::from("/sim/wal.log");
        let stats = Arc::new(StorageStats::default());
        let wal = Arc::new(Wal::create(&vfs, &path, stats).unwrap());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut noisy = Vec::new();
        for t in 0..3u64 {
            let wal = wal.clone();
            let stop = stop.clone();
            noisy.push(std::thread::spawn(move || {
                let mut i = 0;
                while !stop.load(Ordering::Relaxed) {
                    let txn = 1_000 * (t + 1) + i;
                    wal.append(&WalRecord::Begin(txn)).unwrap();
                    wal.append(&WalRecord::Commit(txn)).unwrap();
                    wal.group_commit(false).unwrap();
                    i += 1;
                }
            }));
        }
        for round in 0..20u64 {
            wal.append(&WalRecord::Begin(round)).unwrap();
            wal.append(&WalRecord::Commit(round)).unwrap();
            wal.group_commit(true).unwrap();
            // Only synced bytes survive in the durable image; the
            // durable caller's commit must already be there.
            let durable: Arc<dyn Vfs> = Arc::new(sim.clone_durable());
            let replayed = Wal::replay(&durable, &path).unwrap();
            assert!(
                replayed.records.contains(&WalRecord::Commit(round)),
                "durable group_commit returned before its batch was synced (round {round})"
            );
        }
        stop.store(true, Ordering::Relaxed);
        for h in noisy {
            h.join().unwrap();
        }
    }

    #[test]
    fn failed_force_propagates_one_typed_error_to_the_whole_batch() {
        // Regression: when the force for a batch fails, every covered
        // committer must get the same typed error instead of each
        // self-promoting and re-forcing a dead disk in turn.
        use crate::vfs::{FaultPlan, SimVfs};
        let sim = SimVfs::new(3);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let path = PathBuf::from("/sim/wal.log");
        let stats = Arc::new(StorageStats::default());
        let wal = Arc::new(Wal::create(&vfs, &path, stats.clone()).unwrap());
        // Kill the disk: every operation from here on fails, well past
        // any retry budget.
        let base = sim.op_count();
        sim.set_plan(FaultPlan { fail_ops: (base..base + 100_000).collect(), ..Default::default() });
        let mut committers = Vec::new();
        for t in 0..4u64 {
            let wal = wal.clone();
            committers.push(std::thread::spawn(move || {
                wal.append(&WalRecord::Begin(t)).unwrap();
                wal.append(&WalRecord::Commit(t)).unwrap();
                wal.group_commit(true)
            }));
        }
        for h in committers {
            match h.join().unwrap() {
                Err(StorageError::ForceFailed(inner)) => {
                    assert!(matches!(*inner, StorageError::Io(_)), "cause is the disk error");
                }
                other => panic!("expected ForceFailed for every covered committer, got {other:?}"),
            }
        }
        sim.set_plan(FaultPlan::default());
    }

    #[test]
    fn crash_mid_async_force_recovers_committed_exactly() {
        // Plug-pull while the log-writer holds an in-flight batch:
        // every commit whose group_commit(true) returned Ok before the
        // crash must replay from the durable image; torn in-flight
        // writes may lose commits that never acknowledged, never ones
        // that did.
        use crate::vfs::{FaultPlan, SimVfs};
        for seed in 0..8u64 {
            let sim = SimVfs::new(seed);
            let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
            let path = PathBuf::from("/sim/wal.log");
            let stats = Arc::new(StorageStats::default());
            let wal = Arc::new(Wal::create(&vfs, &path, stats).unwrap());
            // Let a little clean history build, then pull the plug a
            // few operations into the concurrent run.
            sim.set_plan(FaultPlan {
                crash_at_op: Some(sim.op_count() + 4 + seed),
                ..Default::default()
            });
            let acked = Arc::new(StdMutex::new(Vec::new()));
            let mut committers = Vec::new();
            for t in 0..4u64 {
                let wal = wal.clone();
                let acked = acked.clone();
                committers.push(std::thread::spawn(move || {
                    for i in 0..5u64 {
                        let txn = 100 * (t + 1) + i;
                        if wal.append(&WalRecord::Begin(txn)).is_err() {
                            return;
                        }
                        if wal.append(&WalRecord::Commit(txn)).is_err() {
                            return;
                        }
                        if wal.group_commit(true).is_ok() {
                            acked.lock().unwrap().push(txn);
                        }
                    }
                }));
            }
            for h in committers {
                h.join().unwrap();
            }
            sim.power_loss();
            let durable: Arc<dyn Vfs> = Arc::new(sim.clone_durable());
            let replayed = Wal::replay(&durable, &path).unwrap();
            let on_disk: Vec<u64> = replayed
                .records
                .iter()
                .filter_map(|r| match r {
                    WalRecord::Commit(t) => Some(*t),
                    _ => None,
                })
                .collect();
            for txn in acked.lock().unwrap().iter() {
                assert!(
                    on_disk.contains(txn),
                    "seed {seed}: commit {txn} acknowledged durable before the crash \
                     but missing after recovery"
                );
            }
        }
    }

    #[test]
    fn writer_thread_death_is_a_typed_error_not_a_hang() {
        let path = tmp("writer-panic");
        let vfs = RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let wal = Wal::create(&vfs, &path, stats).unwrap();
        wal.shared.panic_next_claim.store(true, Ordering::Relaxed);
        // The writer dies at its next claim. Depending on where it was
        // parked when the flag landed, the first commit may still be
        // served by an already-started claim; the one after it must
        // observe the death. Neither may hang.
        wal.append(&WalRecord::Begin(1)).unwrap();
        let first = wal.group_commit(true);
        wal.append(&WalRecord::Begin(2)).unwrap();
        let second = wal.group_commit(true);
        let died = [&first, &second]
            .iter()
            .any(|r| matches!(r, Err(StorageError::WalWriterDown(_))));
        assert!(died, "a dead log-writer must surface as WalWriterDown: {first:?} / {second:?}");
        // Dropping the Wal joins the panicked thread without hanging.
        drop(wal);
    }

    #[test]
    fn txn_accessor() {
        for rec in sample_records() {
            assert!(rec.txn() == 1 || rec.txn() == 2);
        }
        assert_eq!(WalRecord::Reset(9).txn(), 0);
    }

    #[test]
    fn stream_round_trips_through_decode_shipped() {
        let path = tmp("stream-rt");
        let vfs = RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let wal = Wal::create(&vfs, &path, stats).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.group_commit(true).unwrap();
        let chunk = wal.stream_from(0, 1 << 20).unwrap();
        assert_eq!(chunk.start, 0);
        assert_eq!(chunk.end, wal.flushed_lsn());
        let recs: Vec<WalRecord> =
            decode_shipped(0, &chunk.bytes).unwrap().into_iter().map(|(_, r)| r).collect();
        assert_eq!(recs, sample_records());
        // Resuming at the end yields an empty chunk, not an error.
        let tail = wal.stream_from(chunk.end, 1 << 20).unwrap();
        assert!(tail.is_empty());
        assert_eq!(tail.end, chunk.end);
    }

    #[test]
    fn stream_respects_max_bytes_but_always_ships_a_whole_frame() {
        let path = tmp("stream-max");
        let vfs = RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let wal = Wal::create(&vfs, &path, stats).unwrap();
        let big = WalRecord::Update {
            txn: 1,
            oid: Oid::from_raw(7),
            data: vec![0xAB; 4096],
            old: vec![0xCD; 4096],
        };
        wal.append(&WalRecord::Begin(1)).unwrap();
        wal.append(&big).unwrap();
        wal.append(&WalRecord::Commit(1)).unwrap();
        wal.group_commit(true).unwrap();
        // A tiny budget still ships the first frame whole.
        let first = wal.stream_from(0, 4).unwrap();
        let recs = decode_shipped(first.start, &first.bytes).unwrap();
        assert_eq!(recs.len(), 1);
        assert!(matches!(recs.first(), Some((0, WalRecord::Begin(1)))));
        // The big frame ships whole even though it alone exceeds the cap.
        let second = wal.stream_from(first.end, 64).unwrap();
        let recs = decode_shipped(second.start, &second.bytes).unwrap();
        assert_eq!(recs.len(), 1, "one whole frame, not a torn prefix");
        assert!(matches!(recs.first(), Some((_, WalRecord::Update { .. }))));
        // A roomy budget drains the rest.
        let third = wal.stream_from(second.end, 1 << 20).unwrap();
        assert_eq!(third.end, wal.flushed_lsn());
        let recs = decode_shipped(third.start, &third.bytes).unwrap();
        assert!(matches!(recs.first(), Some((_, WalRecord::Commit(1)))));
    }

    #[test]
    fn stream_past_truncated_tail_is_a_typed_rewind() {
        let path = tmp("stream-rewind");
        let vfs = RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let wal = Wal::create(&vfs, &path, stats).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.group_commit(true).unwrap();
        let tail = wal.flushed_lsn();
        wal.truncate(2).unwrap();
        match wal.stream_from(tail, 1 << 20) {
            Err(StorageError::WalRewound { requested, tail: now }) => {
                assert_eq!(requested, tail);
                assert!(now < tail, "the restarted log is shorter than the old tail");
            }
            other => panic!("expected WalRewound, got {other:?}"),
        }
    }

    #[test]
    fn stream_off_frame_boundary_is_typed_corruption() {
        let path = tmp("stream-offset");
        let vfs = RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let wal = Wal::create(&vfs, &path, stats).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.group_commit(true).unwrap();
        // One byte into the log: the "frame" there fails its
        // position-bound checksum (or claims to overrun the tail).
        match wal.stream_from(1, 1 << 20) {
            Err(StorageError::Recovery(_)) => {}
            other => panic!("expected a Recovery error, got {other:?}"),
        }
    }

    #[test]
    fn shipped_chunk_damage_is_detected() {
        let path = tmp("shipped-damage");
        let vfs = RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let wal = Wal::create(&vfs, &path, stats).unwrap();
        wal.append(&WalRecord::Begin(1)).unwrap();
        wal.append(&WalRecord::Commit(1)).unwrap();
        wal.group_commit(true).unwrap();
        let chunk = wal.stream_from(0, 1 << 20).unwrap();

        // Bit rot inside a frame body.
        let mut rotted = chunk.bytes.clone();
        if let Some(b) = rotted.get_mut(10) {
            *b ^= 0x40;
        }
        assert!(matches!(decode_shipped(0, &rotted), Err(StorageError::Recovery(_))));

        // A torn (truncated) chunk: the network tore the last frame.
        let torn = chunk.bytes.get(..chunk.bytes.len() - 3).unwrap().to_vec();
        assert!(matches!(decode_shipped(0, &torn), Err(StorageError::Recovery(_))));

        // Reordered delivery: the right bytes applied at the wrong base
        // offset fail every position-bound checksum.
        assert!(matches!(decode_shipped(64, &chunk.bytes), Err(StorageError::Recovery(_))));

        // And the untouched chunk still verifies.
        assert_eq!(decode_shipped(0, &chunk.bytes).unwrap().len(), 2);
    }
}
