//! The page-based storage engine behind the three persistent
//! storage-manager personalities, each of them a [`Profile`]:
//! [`Profile::ostore`], [`Profile::texas`] and [`Profile::texas_tc`].
//!
//! One engine, three profiles — mirroring the paper's methodology of
//! running "virtually the same LabBase implementation" over different
//! storage managers so that only the storage architecture varies.
//!
//! Every persisted byte flows through a [`Vfs`]: production stores use
//! [`RealVfs`] (plain `std::fs`), while the crash-recovery torture
//! harness drives the same engine over a seeded `SimVfs` and pulls the
//! plug at arbitrary points. See `DESIGN.md` ("Fault model") for the
//! recovery invariants this module maintains.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::buffer::BufferPool;
use crate::error::{RecoveryError, Result, StorageError};
use crate::heap::{Heap, HeapContention, Placement, Vis};
use crate::ids::{ClusterHint, Oid, PageId, SegmentId, TxnId};
use crate::lock::LockManager;
use crate::lock_order;
use crate::meta;
use crate::pagefile::PageFile;
use crate::stats::{StatsSnapshot, StorageStats};
use crate::traits::{SegmentInfo, Snapshot, StorageManager, Visibility};
use crate::vfs::{RealVfs, Vfs};
use crate::wal::{Wal, WalChunk, WalRecord};
use crate::{PAGE_PAYLOAD, PAGE_SIZE};

/// Tuning options shared by all backends.
#[derive(Debug, Clone)]
pub struct Options {
    /// Buffer-pool capacity in pages. The benchmark sizes this small
    /// relative to the database so that locality effects are visible,
    /// just as the paper's 64 MB machines were small relative to their
    /// databases.
    pub buffer_pages: usize,
    /// Deadlock-avoidance lock timeout (OStore only).
    pub lock_timeout: Duration,
    /// Whether `commit` forces the log to disk (OStore only). The
    /// benchmark leaves this off and relies on checkpoints, keeping the
    /// comparison about locality rather than fsync latency. The crash
    /// harness turns it on: with it, a commit that returns `Ok` is
    /// guaranteed to survive power loss.
    pub sync_commit: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            buffer_pages: 2048, // 8 MiB at 4 KiB pages
            lock_timeout: Duration::from_millis(500),
            sync_commit: false,
        }
    }
}

/// A storage-manager personality.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Table name ("OStore", "Texas", "Texas+TC").
    pub name: &'static str,
    /// Page placement policy.
    pub placement: Placement,
    /// Number of placement segments.
    pub segments: u8,
    /// Whether a write-ahead log provides transaction durability and undo.
    pub wal: bool,
    /// Whether only one transaction may be active at a time.
    pub single_user: bool,
    /// Simulated per-object header bytes (swizzle-table entry etc.).
    pub extra_header: usize,
    /// Object alignment in the heap.
    pub align: usize,
    /// Whether first-touch page faults are charged as swizzles.
    pub count_swizzles: bool,
}

impl Profile {
    /// ObjectStore v3.0-like: four placement segments, lock-based
    /// concurrency, WAL durability, compact records.
    pub fn ostore() -> Self {
        Profile {
            name: "OStore",
            placement: Placement::Segments,
            segments: 4,
            wal: true,
            single_user: false,
            extra_header: 0,
            align: 1,
            count_swizzles: false,
        }
    }

    /// Texas v0.3-like: one address-ordered heap, pointer swizzling at
    /// page-fault time, single-user, checkpoint-only durability, fat
    /// per-object overhead (the paper's Texas databases were ~48% larger).
    pub fn texas() -> Self {
        Profile {
            name: "Texas",
            placement: Placement::AddressOrder,
            segments: 1,
            wal: false,
            single_user: true,
            extra_header: 88,
            align: 16,
            count_swizzles: true,
        }
    }

    /// Texas plus client-implemented clustering ("Texas+TC").
    pub fn texas_tc() -> Self {
        Profile { name: "Texas+TC", placement: Placement::ClientChunks, ..Profile::texas() }
    }
}

#[derive(Default)]
struct TxnState {
    /// Oids this transaction wrote (alloc/update/free), each once.
    /// Commit flips their pending versions to committed at one LSN;
    /// abort discards them. Membership is also what makes a write the
    /// transaction's first touch of an oid, the only one that logs a
    /// before-image (see [`Engine::before_image`]).
    touched: HashSet<Oid>,
}

/// Active-transaction table plus the checkpoint quiesce flag, guarded by
/// one mutex so "no transactions active" can be awaited atomically.
#[derive(Default)]
struct ActiveState {
    txns: HashMap<u64, TxnState>,
    /// A checkpoint is draining active transactions; new `begin`s wait.
    quiescing: bool,
    /// Transactions mid-`commit`/`abort`: already removed from `txns`
    /// but their log record (and, for abort, the in-memory rollback) is
    /// still being applied. A checkpoint that snapshots inside that
    /// window would fold unresolved effects into the durable image and
    /// then truncate the before-images that could undo them, so the
    /// quiesce waits for this to reach zero as well.
    resolving: usize,
}

/// What recovery must do to erase a loser transaction's first touch of
/// an object (the touch whose before-image is the last committed state).
enum LoserUndo {
    /// The loser allocated the object: it must not exist.
    Remove,
    /// The loser updated or freed it: restore the before-image.
    Restore(Vec<u8>),
}

/// A persistent storage manager: the common engine behind the
/// [`Profile::ostore`], [`Profile::texas`] and [`Profile::texas_tc`]
/// personalities. [`Engine::create`] and [`Engine::open`] take the
/// profile as data.
pub struct Engine {
    profile: Profile,
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    heap: Heap,
    pool: Arc<BufferPool>,
    file: Arc<PageFile>,
    wal: Option<Arc<Wal>>,
    locks: Option<LockManager>,
    stats: Arc<StorageStats>,
    active: StdMutex<ActiveState>,
    /// Signalled when the active-transaction table drains or a
    /// checkpoint finishes quiescing.
    active_changed: Condvar,
    next_txn: AtomicU64,
    /// Checkpoint epoch: stamped into the metadata header and the WAL's
    /// reset frame so recovery can tell whether the log on disk belongs
    /// to the metadata on disk (a crash can separate the two).
    epoch: AtomicU64,
    /// Set when a logged operation failed mid-apply: the in-memory state
    /// may disagree with what the log promises. A wounded engine refuses
    /// to checkpoint (which would persist the disagreement); reopening
    /// runs recovery from the log and heals it. A log-less engine is
    /// wounded by a checkpoint that fails after its GC and then refuses
    /// `begin` too: the meta file on disk still points records at slots
    /// that GC cleared and at pages it parked, and a reopen goes back to
    /// that meta file.
    wounded: AtomicBool,
    sync_commit: bool,
    /// Serialises commit visibility flips so each commit's versions
    /// appear atomically at one LSN (rank
    /// [`lock_order::ENGINE_COMMIT_VIS`]).
    vis: StdMutex<()>,
    /// Newest commit LSN whose versions are fully published. Snapshots
    /// read this (Acquire) and therefore see all-or-nothing of every
    /// transaction.
    last_visible: AtomicU64,
    /// Open snapshots: token → pinned LSN. The minimum pinned LSN is
    /// the version-GC low-water mark (rank
    /// [`lock_order::ENGINE_SNAPSHOTS`]).
    snapshots: StdMutex<HashMap<u64, u64>>,
    next_snap: AtomicU64,
    /// The meta file's write side (rank [`lock_order::ENGINE_META`]).
    /// Checkpoints are serialised by the quiesce flag; the lock is the
    /// data's formal owner.
    meta: StdMutex<meta::MetaLog>,
}

impl Engine {
    fn paths(dir: &Path) -> (PathBuf, PathBuf, PathBuf) {
        (dir.join("data.pg"), dir.join("store.meta"), dir.join("wal.log"))
    }

    /// Create a fresh store at `dir` with the given profile, on the real
    /// filesystem.
    pub fn create(dir: &Path, profile: Profile, opts: Options) -> Result<Engine> {
        Self::create_with(RealVfs::arc(), dir, profile, opts)
    }

    /// Create a fresh store at `dir` on an arbitrary [`Vfs`].
    pub fn create_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        profile: Profile,
        opts: Options,
    ) -> Result<Engine> {
        vfs.create_dir_all(dir)?;
        let (data_path, meta_path, wal_path) = Self::paths(dir);
        if vfs.exists(&meta_path) {
            return Err(StorageError::BadPath(format!(
                "store already exists at {}",
                dir.display()
            )));
        }
        let stats = Arc::new(StorageStats::default());
        let file = Arc::new(PageFile::create(&vfs, &data_path, stats.clone())?);
        let wal = if profile.wal {
            Some(Arc::new(Wal::create(&vfs, &wal_path, stats.clone())?))
        } else {
            None
        };
        // The pool gets the log at construction: every page write it
        // ever makes passes the write-ahead gate.
        let pool = Arc::new(BufferPool::new(
            file.clone(),
            stats.clone(),
            opts.buffer_pages,
            profile.count_swizzles,
            wal.clone(),
        ));
        let heap = Heap::new(
            pool.clone(),
            file.clone(),
            stats.clone(),
            profile.placement,
            profile.segments,
            profile.extra_header,
            profile.align,
        );
        let locks = if profile.single_user {
            None
        } else {
            Some(LockManager::new(opts.lock_timeout))
        };
        let engine = Engine {
            profile,
            vfs,
            dir: dir.to_path_buf(),
            heap,
            pool,
            file,
            wal,
            locks,
            stats,
            active: StdMutex::new(ActiveState::default()),
            active_changed: Condvar::new(),
            next_txn: AtomicU64::new(1),
            epoch: AtomicU64::new(0),
            wounded: AtomicBool::new(false),
            sync_commit: opts.sync_commit,
            vis: StdMutex::new(()),
            last_visible: AtomicU64::new(0),
            snapshots: StdMutex::new(HashMap::new()),
            next_snap: AtomicU64::new(1),
            meta: StdMutex::new(meta::MetaLog::new(meta_path)),
        };
        // Establish a valid empty checkpoint so reopen works immediately.
        engine.checkpoint()?;
        Ok(engine)
    }

    /// Open an existing store on the real filesystem, running crash
    /// recovery if the profile has a write-ahead log. Backends without a
    /// log recover to their last checkpoint — the Texas durability
    /// contract.
    pub fn open(dir: &Path, profile: Profile, opts: Options) -> Result<Engine> {
        Self::open_with(RealVfs::arc(), dir, profile, opts)
    }

    /// Open an existing store on an arbitrary [`Vfs`], running crash
    /// recovery if the profile has a write-ahead log: redo every
    /// committed operation since the checkpoint, then undo the first
    /// touch of every object whose last toucher did not commit (a stolen
    /// dirty page may have carried uncommitted bytes to disk). Before
    /// anything is read, the data file is cut back to the pages the
    /// checkpoint recorded: later ones belong to nothing it describes.
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        profile: Profile,
        opts: Options,
    ) -> Result<Engine> {
        let (data_path, meta_path, wal_path) = Self::paths(dir);
        let stats = Arc::new(StorageStats::default());
        let image = meta::read_meta(&vfs, &meta_path)?
            .ok_or_else(|| StorageError::BadPath(format!("no store at {}", dir.display())))?;
        let file = Arc::new(PageFile::open(&vfs, &data_path, stats.clone())?);
        file.truncate_to(image.state.pages)?;
        // Read the log before opening it for append, and open it before
        // building the pool, which takes it at construction. Recovery's
        // own page writes pass the gate freely: the handle's marks start
        // at zero, and redo appends nothing.
        let (replayed, wal) = if profile.wal {
            let replayed = Wal::replay(&vfs, &wal_path)?;
            let wal = Wal::open(&vfs, &wal_path, replayed.end, stats.clone())?;
            (Some(replayed), Some(Arc::new(wal)))
        } else {
            (None, None)
        };
        let pool = Arc::new(BufferPool::new(
            file.clone(),
            stats.clone(),
            opts.buffer_pages,
            profile.count_swizzles,
            wal.clone(),
        ));
        let heap = Heap::new(
            pool.clone(),
            file.clone(),
            stats.clone(),
            profile.placement,
            profile.segments,
            profile.extra_header,
            profile.align,
        );
        let meta_epoch = image.state.epoch;
        file.set_version_floors(image.state.versions);
        file.set_quarantined(&image.state.quarantined);
        heap.load(image.state.places, image.table)?;
        // Startup verify pass: every page image is read and checked
        // against its header and LSN floor *before* any of it is
        // trusted. Damage is quarantined and demoted out of allocation
        // placement; WAL redo below rebuilds the affected objects at
        // fresh pages where the log has them, and everything else on a
        // quarantined page stays reachable only as a typed corruption
        // error — degraded, never silently wrong.
        Self::verify_pages(&file, &heap)?;

        if let Some(replayed) = replayed {
            StorageStats::bump(&stats.wal_bytes_truncated, replayed.bytes_truncated);
            if Self::log_matches_checkpoint(&replayed.records, meta_epoch)? {
                Self::recover(&heap, &replayed.records)?;
                StorageStats::bump(&stats.wal_frames_replayed, replayed.frames);
            }
        }
        let locks = if profile.single_user {
            None
        } else {
            Some(LockManager::new(opts.lock_timeout))
        };
        let engine = Engine {
            profile,
            vfs,
            dir: dir.to_path_buf(),
            heap,
            pool,
            file,
            wal,
            locks,
            stats,
            active: StdMutex::new(ActiveState::default()),
            active_changed: Condvar::new(),
            next_txn: AtomicU64::new(1),
            epoch: AtomicU64::new(meta_epoch),
            wounded: AtomicBool::new(false),
            sync_commit: opts.sync_commit,
            vis: StdMutex::new(()),
            last_visible: AtomicU64::new(0),
            snapshots: StdMutex::new(HashMap::new()),
            next_snap: AtomicU64::new(1),
            meta: StdMutex::new(meta::MetaLog::new(meta_path)),
        };
        if engine.profile.wal {
            // Fold the recovered state into a fresh checkpoint; this also
            // truncates the log, making recovery's effects durable.
            engine.checkpoint()?;
        }
        Ok(engine)
    }

    /// Startup scrub: read and verify every page of the data file.
    /// Persistently damaged pages are quarantined (reads fail typed,
    /// a full overwrite heals) and demoted out of allocation placement
    /// so no new object lands on them. Transient read corruption is
    /// absorbed by the page file's re-read layer; real I/O errors
    /// propagate.
    fn verify_pages(file: &Arc<PageFile>, heap: &Heap) -> Result<Vec<PageId>> {
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        let mut bad = Vec::new();
        for raw in 0..file.page_count() {
            let pid = PageId(raw);
            match file.read_page(pid, &mut buf) {
                Ok(_) => {}
                Err(e) if e.is_corruption() => {
                    file.quarantine(pid);
                    bad.push(pid);
                }
                Err(e) => return Err(e),
            }
        }
        if !bad.is_empty() {
            heap.demote_pages(&bad);
        }
        Ok(bad)
    }

    /// Decide whether the log on disk describes the checkpoint on disk.
    ///
    /// A crash can separate the metadata flip from the log truncation:
    /// if the metadata's epoch is already ahead of the log's reset
    /// frame, every logged operation is folded into the checkpoint and
    /// must be skipped (replaying would resurrect freed objects). A log
    /// *ahead* of the metadata, or one that does not begin with a reset
    /// frame, cannot be produced by any crash of this engine and is
    /// reported as corruption.
    fn log_matches_checkpoint(records: &[WalRecord], meta_epoch: u64) -> Result<bool> {
        let Some(first) = records.first() else {
            return Ok(false); // empty log: nothing to replay
        };
        let WalRecord::Reset(log_epoch) = first else {
            return Err(StorageError::Recovery(RecoveryError {
                offset: 0,
                frame: 0,
                detail: "log does not begin with a reset frame".into(),
            }));
        };
        if *log_epoch > meta_epoch {
            return Err(StorageError::Recovery(RecoveryError {
                offset: 0,
                frame: 0,
                detail: format!(
                    "log reset epoch {log_epoch} is ahead of checkpoint epoch {meta_epoch}"
                ),
            }));
        }
        Ok(*log_epoch == meta_epoch)
    }

    /// Apply a replayed log to a freshly checkpoint-loaded heap.
    ///
    /// Pass 1 (redo): re-apply every operation of every committed
    /// transaction, in log order, through the recovery-safe heap entry
    /// points (fresh slots; page images on disk may be any mix of
    /// vintages after a crash).
    ///
    /// Pass 2 (undo): stolen dirty pages can carry *uncommitted* bytes
    /// to disk, so for every object whose last logged toucher did not
    /// commit, restore that toucher's first before-image (under strict
    /// two-phase locking the first before-image is the last committed
    /// value). Aborted transactions are treated identically: their
    /// in-memory rollback was never logged, and re-deriving it from
    /// before-images is equivalent.
    ///
    /// Finally the oid allocator is raised past every oid in the log —
    /// even losers' — so a recovered store never recycles an oid the
    /// crashed run already handed out.
    fn recover(heap: &Heap, records: &[WalRecord]) -> Result<()> {
        let committed: HashSet<u64> = records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Commit(t) => Some(*t),
                _ => None,
            })
            .collect();

        let mut last_touch: HashMap<u64, u64> = HashMap::new();
        let mut first_image: HashMap<(u64, u64), LoserUndo> = HashMap::new();
        let mut max_oid = None;
        // The oids whose current version this recovery placed: only
        // those supersede a location the heap may free. Keyed on the
        // oid, never the location (see `Heap::recover_upsert`).
        let mut placed: HashSet<u64> = HashSet::new();

        for rec in records {
            let (oid, image) = match rec {
                WalRecord::Alloc { oid, seg, hint, data, .. } => {
                    if committed.contains(&rec.txn()) {
                        let redone = !placed.insert(oid.raw());
                        heap.recover_upsert(*oid, Some(*seg), *hint, data, redone)?;
                    }
                    (*oid, LoserUndo::Remove)
                }
                WalRecord::Update { oid, data, old, .. } => {
                    if committed.contains(&rec.txn()) {
                        let redone = !placed.insert(oid.raw());
                        heap.recover_upsert(*oid, None, ClusterHint::NONE, data, redone)?;
                    }
                    (*oid, LoserUndo::Restore(old.clone()))
                }
                WalRecord::Free { oid, old, .. } => {
                    if committed.contains(&rec.txn()) {
                        heap.recover_free(*oid, placed.remove(&oid.raw()));
                    }
                    (*oid, LoserUndo::Restore(old.clone()))
                }
                WalRecord::Begin(_)
                | WalRecord::Commit(_)
                | WalRecord::Abort(_)
                | WalRecord::Reset(_) => continue,
            };
            max_oid = max_oid.max(Some(oid.raw()));
            last_touch.insert(oid.raw(), rec.txn());
            if !committed.contains(&rec.txn()) {
                first_image.entry((rec.txn(), oid.raw())).or_insert(image);
            }
        }

        for ((txn, oid_raw), image) in first_image {
            // Only the *last* toucher's state can be on disk; if a later
            // (necessarily committed, already redone) transaction touched
            // the object, the loser's undo must not clobber it.
            if last_touch.get(&oid_raw) != Some(&txn) {
                continue;
            }
            let oid = Oid::from_raw(oid_raw);
            match image {
                LoserUndo::Remove => heap.recover_free(oid, placed.remove(&oid_raw)),
                LoserUndo::Restore(data) => {
                    let redone = !placed.insert(oid_raw);
                    heap.recover_upsert(oid, None, ClusterHint::NONE, &data, redone)?
                }
            }
        }

        if let Some(max) = max_oid {
            heap.reserve_oid_floor(max + 1);
        }
        Ok(())
    }

    /// Directory the store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The profile this engine runs.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Buffer-pool capacity in pages (the knob the clustering ablation
    /// sweeps).
    pub fn buffer_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Pages currently resident in the buffer pool.
    pub fn resident_pages(&self) -> usize {
        self.pool.resident()
    }

    /// Total pages in the data file.
    pub fn data_pages(&self) -> u32 {
        self.file.page_count()
    }

    /// Objects currently holding locks (0 when idle; OStore only).
    pub fn locked_objects(&self) -> usize {
        self.locks.as_ref().map_or(0, |l| l.locked_objects())
    }

    /// Live oids in ascending order (diagnostics / scans).
    pub fn live_oids(&self) -> Vec<Oid> {
        self.heap.oids()
    }

    /// Live oids whose home page is quarantined, in ascending oid order
    /// (stable across shard iteration order, so scrub logs diff
    /// cleanly): still listed in the
    /// object table, but reads fail typed until the page is rebuilt.
    /// This is the "known casualties" list an operator (or the crash
    /// harness) checks after a recovery that quarantined pages.
    pub fn damaged_oids(&self) -> Vec<Oid> {
        let bad: Vec<PageId> = self.file.quarantined_pages().into_iter().map(PageId).collect();
        self.heap.oids_on_pages(&bad)
    }

    /// Contended-acquisition counts for the heap's metadata shards
    /// (global, per object-table shard, per segment): which shard a
    /// workload is hot on, independent of the aggregate wait totals in
    /// [`StorageStats`].
    pub fn heap_contention(&self) -> HeapContention {
        self.heap.contention()
    }

    /// Whether a logged operation failed mid-apply or, log-less, a
    /// checkpoint failed after its GC (see [`Engine::checkpoint_with_floor`]).
    pub fn is_wounded(&self) -> bool {
        self.wounded.load(Ordering::Acquire)
    }

    fn wound(&self) {
        self.wounded.store(true, Ordering::Release);
    }

    fn active(&self) -> MutexGuard<'_, ActiveState> {
        self.active.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A `commit`/`abort` finished resolving its transaction; wake a
    /// quiescing checkpoint if the system is now fully drained.
    fn resolved(&self) {
        let mut active = self.active();
        active.resolving -= 1;
        if active.txns.is_empty() && active.resolving == 0 {
            self.active_changed.notify_all();
        }
    }

    fn require_txn(&self, txn: TxnId) -> Result<()> {
        if self.active().txns.contains_key(&txn.raw()) {
            Ok(())
        } else {
            Err(StorageError::UnknownTxn(txn))
        }
    }

    fn lock(&self, txn: TxnId, oid: Oid) -> Result<()> {
        if let Some(locks) = &self.locks {
            locks.acquire(txn, oid)?;
        }
        Ok(())
    }

    fn log(&self, rec: WalRecord) -> Result<()> {
        if let Some(wal) = &self.wal {
            wal.append(&rec)?;
        }
        Ok(())
    }

    /// Commit-visibility flip lock (rank [`lock_order::ENGINE_COMMIT_VIS`]).
    fn vis_lock(&self) -> lock_order::Ranked<MutexGuard<'_, ()>> {
        lock_order::ranked(lock_order::ENGINE_COMMIT_VIS, || {
            self.vis.lock().unwrap_or_else(|e| e.into_inner())
        })
    }

    /// The newest published commit LSN: the bound every committed-state
    /// read resolves under. A commit flips its versions one oid at a
    /// time and publishes its LSN only after the last one, so a read
    /// bounded here sees a transaction whole or not at all — without
    /// it, a reader could follow a just-flipped record to an object the
    /// same transaction allocated and find it still pending.
    fn published(&self) -> u64 {
        self.last_visible.load(Ordering::Acquire)
    }

    /// Run a committed-state read at the published LSN. A miss is final
    /// only if nothing was published meanwhile: a plain read pins no
    /// snapshot, so a commit published after the bound was loaded may
    /// have trimmed the version the bound resolves to, leaving only newer
    /// (and already published) ones — then the read resolves again at
    /// the new bound.
    fn at_published<T>(&self, read: impl Fn(u64) -> Result<T>) -> Result<T> {
        let mut lsn = self.published();
        loop {
            match read(lsn) {
                Err(StorageError::UnknownObject(oid)) => {
                    let now = self.published();
                    if now == lsn {
                        return Err(StorageError::UnknownObject(oid));
                    }
                    lsn = now;
                }
                done => return done,
            }
        }
    }

    /// Run `read` under the heap rule `vis` maps to. `Latest` and `In`
    /// resolve at the published LSN; `At` reads at the snapshot's own
    /// LSN, whose versions its registration keeps from being trimmed.
    fn resolve<T>(&self, vis: Visibility, read: impl Fn(Vis) -> Result<T>) -> Result<T> {
        match vis {
            Visibility::Latest => self.at_published(|lsn| read(Vis::At(lsn))),
            Visibility::In(txn) => self.at_published(|lsn| read(Vis::For(txn.raw(), lsn))),
            Visibility::At(snap) => read(Vis::At(snap.lsn)),
        }
    }

    /// Open-snapshot registry lock (rank [`lock_order::ENGINE_SNAPSHOTS`]).
    fn snaps_lock(&self) -> lock_order::Ranked<MutexGuard<'_, HashMap<u64, u64>>> {
        lock_order::ranked(lock_order::ENGINE_SNAPSHOTS, || {
            self.snapshots.lock().unwrap_or_else(|e| e.into_inner())
        })
    }

    /// The version-GC low-water mark: the minimum LSN pinned by an open
    /// snapshot, or `u64::MAX` when none is open.
    fn snapshot_floor(&self) -> u64 {
        self.snaps_lock().values().copied().min().unwrap_or(u64::MAX)
    }

    /// Record that `txn` wrote `oid`, for the commit flip / abort discard.
    fn touch(&self, txn: TxnId, oid: Oid) {
        if let Some(state) = self.active().txns.get_mut(&txn.raw()) {
            state.touched.insert(oid);
        }
    }

    /// [`require_txn`](Self::require_txn), also telling whether `txn`
    /// has already written `oid` — and so holds its lock and has logged
    /// its before-image.
    fn touched_before(&self, txn: TxnId, oid: Oid) -> Result<bool> {
        match self.active().txns.get(&txn.raw()) {
            Some(state) => Ok(state.touched.contains(&oid)),
            None => Err(StorageError::UnknownTxn(txn)),
        }
    }

    /// The before-image an `update`/`free` of `oid` logs. Recovery undoes
    /// a loser from its *first* logged image per (txn, oid), so only the
    /// first touch reads one — `Vis::For` then resolves the last
    /// committed value — and a repeat logs none. A repeat still checks
    /// that `txn` can see the object, so a write after its own free fails
    /// before anything is logged.
    fn before_image(&self, txn: TxnId, oid: Oid, repeat: bool) -> Result<Vec<u8>> {
        if !repeat {
            self.heap.read_vis(oid, Vis::For(txn.raw(), u64::MAX))
        } else if self.heap.exists_vis(oid, Vis::For(txn.raw(), u64::MAX)) {
            Ok(Vec::new())
        } else {
            Err(StorageError::UnknownObject(oid))
        }
    }

    /// `allocate` with the oid chosen by a shipped log record rather
    /// than the local allocator (see [`Heap::replica_alloc`]): the
    /// replication-apply path's one departure from the normal write
    /// pipeline. Lock, touch, and write-ahead logging are identical.
    fn replica_allocate(
        &self,
        txn: TxnId,
        oid: Oid,
        seg: SegmentId,
        hint: ClusterHint,
        data: &[u8],
    ) -> Result<()> {
        self.require_txn(txn)?;
        self.heap.replica_alloc(oid, seg, hint, data, txn.raw())?;
        self.lock(txn, oid)?;
        self.touch(txn, oid);
        self.log(WalRecord::Alloc { txn: txn.raw(), oid, seg, hint, data: data.to_vec() })?;
        Ok(())
    }

    /// The meta file's write side (rank [`lock_order::ENGINE_META`]).
    fn meta_lock(&self) -> lock_order::Ranked<MutexGuard<'_, meta::MetaLog>> {
        lock_order::ranked(lock_order::ENGINE_META, || {
            self.meta.lock().unwrap_or_else(|e| e.into_inner())
        })
    }

    /// Checkpoint with an epoch floor: the sealed meta file's epoch
    /// advances to at least `floor` (normally it just increments). The
    /// promotion path uses this to fence a deposed primary — the
    /// promoted follower re-seals at an epoch above every epoch the old
    /// primary could have stamped, and its replication endpoints refuse
    /// chunks tagged with anything older.
    ///
    /// Every phase but the page flush costs what changed since the last
    /// checkpoint, not what exists (DESIGN.md, "Checkpoint").
    pub fn checkpoint_with_floor(&self, floor: u64) -> Result<()> {
        // A wounded engine's in-memory state may disagree with its log
        // (or, log-less, with its meta file); persisting it as a
        // checkpoint would make the disagreement durable and
        // unrecoverable. Reopening the store heals it.
        self.refuse_if_wounded()?;
        let started = Instant::now();
        // Quiesce: block new transactions and drain the active ones so
        // the snapshot and the WAL truncation are transaction-consistent.
        // Callers must not hold an open transaction on this thread.
        {
            let mut active = self.active();
            while active.quiescing {
                active =
                    self.active_changed.wait(active).unwrap_or_else(|e| e.into_inner());
            }
            active.quiescing = true;
            while !active.txns.is_empty() || active.resolving > 0 {
                active =
                    self.active_changed.wait(active).unwrap_or_else(|e| e.into_inner());
            }
        }
        let result = (|| {
            // The flush below waits for the log to be durable up to the
            // newest dirty frame's stamp. Ask for that sync now: the
            // log-writer runs it while this thread collects and encodes.
            if let Some(wal) = &self.wal {
                wal.request_sync();
            }
            // Version GC: the system is quiesced, so no pending flip
            // races it; versions pinned by open snapshots are protected
            // by the low-water mark. The oids it drains are the ones the
            // meta segment must record, so nothing fallible may come
            // between the two calls: `begin` takes the file handle, and
            // only a durable segment puts it back — a checkpoint that
            // fails from here on is followed by a full base.
            let changed = self.heap.collect_garbage(self.snapshot_floor());
            let segment = {
                let mut meta = self.meta_lock();
                meta.begin(&self.heap, &changed)
            };
            // The flush passes the write-ahead gate like every page
            // write: it first has the log synced up to the newest dirty
            // frame's stamp, so a crash in the middle of it leaves no
            // page image (GC-freed slots included) ahead of the durable
            // log — under `sync_commit: false` too.
            self.pool.flush_all()?;
            // Writers are quiesced, so the flush left nothing dirty. A
            // frame dirtied since would lose its log records to the
            // truncation below.
            if self.pool.dirty_frames() != 0 {
                return Err(StorageError::Corrupt(
                    "a page was dirtied during a quiesced checkpoint".into(),
                ));
            }
            self.file.sync()?;
            let next_epoch = (self.epoch.load(Ordering::Acquire) + 1).max(floor);
            // The meta flip records, alongside the object table, each
            // page's LSN as of the image just synced (so a later lost or
            // misdirected write is detectable as a stale page), the
            // quarantine set and the placement state. The segment is
            // durable when `finish` returns — a base through its rename
            // and directory sync, a delta through its own sync — so by
            // the time the WAL is truncated no crash window can pair the
            // old meta with the truncated log.
            let state = meta::MetaState {
                epoch: next_epoch,
                quarantined: self.file.quarantined_pages(),
                versions: self.file.version_table(),
                pages: self.file.page_count(),
                places: self.heap.places(),
            };
            self.meta_lock().finish(&self.vfs, &state, segment, &self.stats)?;
            if cfg!(debug_assertions) {
                self.check_meta_fold(&state)?;
            }
            // Only now does no meta on disk name an emptied page slotted.
            self.heap.release_parked();
            if let Some(wal) = &self.wal {
                wal.truncate(next_epoch)?;
            }
            self.epoch.store(next_epoch, Ordering::Release);
            StorageStats::bump(&self.stats.checkpoints, 1);
            StorageStats::bump(&self.stats.checkpoint_nanos, started.elapsed().as_nanos() as u64);
            Ok(())
        })();
        // Everything fallible above comes after the GC. Wound before the
        // quiesce ends, so no `begin` waiting on it gets through.
        if result.is_err() && self.wal.is_none() {
            self.wound();
        }
        self.active().quiescing = false;
        self.active_changed.notify_all();
        result
    }

    /// `Err(Wounded)` once the engine is wounded (see the field).
    fn refuse_if_wounded(&self) -> Result<()> {
        if !self.is_wounded() {
            return Ok(());
        }
        Err(StorageError::Wounded(if self.wal.is_some() {
            "a logged operation failed mid-apply"
        } else {
            "a checkpoint failed after its GC"
        }))
    }

    /// The checkpoint oracle (debug builds): the meta file as recovery
    /// would read it — base and deltas folded — must be, byte for byte,
    /// the base a full dump of the heap seals to.
    fn check_meta_fold(&self, state: &meta::MetaState) -> Result<()> {
        let (_, meta_path, _) = Self::paths(&self.dir);
        let folded = meta::read_meta(&self.vfs, &meta_path)?.unwrap_or_default();
        let fresh = meta::base_of(state, self.heap.table().into_iter());
        debug_assert!(
            meta::base_of(&folded.state, folded.table.into_iter()) == fresh,
            "the meta file's {} segments do not fold to the heap's table",
            folded.segments
        );
        Ok(())
    }
}

impl StorageManager for Engine {
    fn name(&self) -> &'static str {
        self.profile.name
    }

    fn begin(&self) -> Result<TxnId> {
        let mut active = self.active();
        // A checkpoint is draining the system: wait for it to finish so
        // the snapshot it writes contains no transaction mid-flight.
        while active.quiescing {
            active = self.active_changed.wait(active).unwrap_or_else(|e| e.into_inner());
        }
        if self.wal.is_none() {
            self.refuse_if_wounded()?;
        }
        if self.profile.single_user && !active.txns.is_empty() {
            return Err(StorageError::SingleUser);
        }
        let id = self.next_txn.fetch_add(1, Ordering::Relaxed);
        active.txns.insert(id, TxnState::default());
        drop(active);
        self.log(WalRecord::Begin(id))?;
        Ok(TxnId::from_raw(id))
    }

    fn commit(&self, txn: TxnId) -> Result<()> {
        let state = {
            let mut active = self.active();
            let state = active.txns.remove(&txn.raw()).ok_or(StorageError::UnknownTxn(txn))?;
            active.resolving += 1;
            state
        };
        // Durability before visibility: the commit record is appended
        // and group-force shared with concurrent committers (sync_commit
        // additionally makes the force durable, so an Ok means the
        // transaction survives power loss) *before* any of its versions
        // become visible. A reader can therefore never observe state
        // that crash recovery would undo.
        let forced = self.log(WalRecord::Commit(txn.raw())).and_then(|()| {
            if let Some(wal) = &self.wal {
                wal.group_commit(self.sync_commit)
            } else {
                Ok(())
            }
        });
        if forced.is_ok() {
            // Visibility flip: every version this transaction wrote
            // becomes committed at one fresh LSN, and only then is the
            // LSN published. A snapshot opened at any instant reads the
            // published LSN, so it sees all of this transaction's
            // versions or none of them — never a partial commit. The
            // floor passed to the trim may be stale the moment it is
            // read (begin_snapshot takes only the registry lock);
            // commit_version clamps it to lsn - 1 so a snapshot pinned
            // at the pre-flip LSN keeps its version.
            if !state.touched.is_empty() {
                let _vis = self.vis_lock();
                // analyzer: allow(ordering, "last_visible is only stored under vis_lock, which is held here — the lock orders the read-modify-write; Release on the store publishes to lock-free snapshot readers")
                let lsn = self.last_visible.load(Ordering::Relaxed) + 1;
                let floor = self.snapshot_floor();
                for &oid in &state.touched {
                    self.heap.commit_version(oid, txn.raw(), lsn, floor);
                }
                self.last_visible.store(lsn, Ordering::Release);
            }
        } else {
            // A failed force leaves the commit's durability unknown
            // (the record may or may not reach the platter; recovery
            // decides), but this process reports the commit failed — so
            // its versions, never yet published, are discarded like an
            // abort's rather than left visible-but-not-durable. Locks
            // are released either way: the engine is not stuck.
            for &oid in &state.touched {
                self.heap.discard_txn(oid, txn.raw());
            }
        }
        if let Some(locks) = &self.locks {
            locks.release_all(txn);
        }
        self.resolved();
        forced?;
        StorageStats::bump(&self.stats.commits, 1);
        Ok(())
    }

    fn abort(&self, txn: TxnId) -> Result<()> {
        if !self.profile.wal {
            return Err(StorageError::Unsupported(
                "abort: the Texas store has no undo capability",
            ));
        }
        let state = {
            let mut active = self.active();
            let state = active.txns.remove(&txn.raw()).ok_or(StorageError::UnknownTxn(txn))?;
            active.resolving += 1;
            state
        };
        // Rollback is just dropping the pending versions: they were
        // never visible to any other transaction or snapshot, and the
        // committed chain beneath them was never touched. This cannot
        // half-fail the way the old restore-in-place rollback could.
        for &oid in &state.touched {
            self.heap.discard_txn(oid, txn.raw());
        }
        let logged = self.log(WalRecord::Abort(txn.raw()));
        if let Some(locks) = &self.locks {
            locks.release_all(txn);
        }
        self.resolved();
        logged?;
        StorageStats::bump(&self.stats.aborts, 1);
        Ok(())
    }

    fn allocate(
        &self,
        txn: TxnId,
        seg: SegmentId,
        hint: ClusterHint,
        data: &[u8],
    ) -> Result<Oid> {
        self.require_txn(txn)?;
        // Unlike `update`/`free`, the heap mutates *before* the record is
        // appended (the record carries the oid the heap assigns), so the
        // page's stamp does not cover the `Alloc` record and its image
        // may reach the data file first. That is harmless: an allocation
        // only fills a slot no committed object occupies, and recovery
        // starts from the checkpoint's object table and redoes into
        // fresh slots — at worst the image leaves an unreferenced slot
        // (`unlogged_allocation_image_is_harmless`).
        let oid = self.heap.alloc(seg, hint, data, txn.raw())?;
        self.lock(txn, oid)?;
        self.touch(txn, oid);
        self.log(WalRecord::Alloc { txn: txn.raw(), oid, seg, hint, data: data.to_vec() })?;
        Ok(oid)
    }

    fn read_vis(&self, vis: Visibility, oid: Oid) -> Result<Vec<u8>> {
        if let Visibility::At(_) = vis {
            StorageStats::bump(&self.stats.snapshot_reads, 1);
        }
        self.resolve(vis, |v| self.heap.read_vis(oid, v))
    }

    fn exists_vis(&self, vis: Visibility, oid: Oid) -> bool {
        let visible = |v| self.heap.exists_vis(oid, v);
        self.resolve(vis, |v| visible(v).then_some(()).ok_or(StorageError::UnknownObject(oid)))
            .is_ok()
    }

    fn lock_exclusive(&self, txn: TxnId, oid: Oid) -> Result<()> {
        self.require_txn(txn)?;
        self.lock(txn, oid)
    }

    fn update(&self, txn: TxnId, oid: Oid, data: &[u8]) -> Result<()> {
        let repeat = self.touched_before(txn, oid)?;
        if !repeat {
            self.lock(txn, oid)?;
        }
        if self.profile.wal {
            // Write-ahead: the record (with its before-image) enters the
            // log buffer before the heap mutates, so the stamp the pool
            // puts on the mutated page covers it and the page can never
            // reach the data file ahead of its undo information.
            let old = self.before_image(txn, oid, repeat)?;
            self.log(WalRecord::Update { txn: txn.raw(), oid, data: data.to_vec(), old })?;
            if let Err(e) = self.heap.update(oid, data, txn.raw()) {
                self.wound();
                return Err(e);
            }
        } else {
            self.heap.update(oid, data, txn.raw())?;
        }
        self.touch(txn, oid);
        Ok(())
    }

    fn free(&self, txn: TxnId, oid: Oid) -> Result<()> {
        let repeat = self.touched_before(txn, oid)?;
        if !repeat {
            self.lock(txn, oid)?;
        }
        if self.profile.wal {
            // The logged before-image serves recovery; an in-memory
            // abort just discards the pending tombstone, leaving the
            // committed chain (and the object's placement) untouched.
            let old = self.before_image(txn, oid, repeat)?;
            self.log(WalRecord::Free { txn: txn.raw(), oid, old })?;
            if let Err(e) = self.heap.free(oid, txn.raw()) {
                self.wound();
                return Err(e);
            }
        } else {
            self.heap.free(oid, txn.raw())?;
        }
        self.touch(txn, oid);
        Ok(())
    }

    fn begin_snapshot(&self) -> Result<Snapshot> {
        // Registration and the LSN read happen under one lock, so any
        // trim that samples the registry after us sees this snapshot.
        // A trim that sampled the registry *before* us cannot hurt
        // either: checkpoint GC always keeps the newest committed
        // version of a chain — exactly what a read at the current
        // `last_visible` resolves — and a concurrently flipping commit
        // trims with its floor clamped to the pre-flip LSN
        // (`Heap::commit_version`), so the head this snapshot can pin
        // survives that trim too.
        let mut snaps = self.snaps_lock();
        let lsn = self.last_visible.load(Ordering::Acquire);
        let token = self.next_snap.fetch_add(1, Ordering::Relaxed);
        snaps.insert(token, lsn);
        StorageStats::bump(&self.stats.snapshots_opened, 1);
        Ok(Snapshot { lsn, token })
    }

    fn release_snapshot(&self, snap: Snapshot) {
        self.snaps_lock().remove(&snap.token);
    }

    fn open_snapshots(&self) -> usize {
        self.snaps_lock().len()
    }

    fn checkpoint(&self) -> Result<()> {
        self.checkpoint_with_floor(0)
    }

    fn store_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn replication_lsn(&self) -> Result<u64> {
        match &self.wal {
            Some(wal) => Ok(wal.flushed_lsn()),
            None => {
                Err(StorageError::Unsupported("replication_lsn: profile has no write-ahead log"))
            }
        }
    }

    fn wal_stream_from(&self, from: u64, max_bytes: usize) -> Result<WalChunk> {
        match &self.wal {
            Some(wal) => wal.stream_from(from, max_bytes),
            None => {
                Err(StorageError::Unsupported("wal_stream_from: profile has no write-ahead log"))
            }
        }
    }

    fn replica_apply_commit(&self, recs: &[WalRecord]) -> Result<()> {
        // The shipped records run through the engine's normal
        // transactional path — a local `begin`, the same
        // lock/log/touch pipeline as a primary-side writer, then
        // `commit` — so the follower inherits every invariant the
        // primary enforces: write-ahead logging into the follower's
        // *own* WAL (a follower is independently crash-safe),
        // durability-before-visibility on the commit force, and the
        // one-LSN MVCC flip (a snapshot reader on the follower sees
        // all of a shipped transaction or none of it). The caller
        // groups records by transaction and ships only transactions
        // whose commit frame arrived; marker records are skipped here.
        let txn = self.begin()?;
        let applied = (|| -> Result<()> {
            for rec in recs {
                match rec {
                    WalRecord::Alloc { oid, seg, hint, data, .. } => {
                        self.replica_allocate(txn, *oid, *seg, *hint, data)?;
                    }
                    WalRecord::Update { oid, data, .. } => {
                        self.update(txn, *oid, data)?;
                    }
                    WalRecord::Free { oid, .. } => {
                        self.free(txn, *oid)?;
                    }
                    WalRecord::Begin(_)
                    | WalRecord::Commit(_)
                    | WalRecord::Abort(_)
                    | WalRecord::Reset(_) => {}
                }
            }
            Ok(())
        })();
        match applied {
            Ok(()) => self.commit(txn),
            Err(e) => {
                let _ = self.abort(txn);
                Err(e)
            }
        }
    }

    fn promote_epoch(&self, floor: u64) -> Result<()> {
        self.checkpoint_with_floor(floor)
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn db_size_bytes(&self) -> Result<Option<u64>> {
        let (_, meta_path, _) = Self::paths(&self.dir);
        let mut total = self.file.len_bytes()?;
        if let Some(meta_len) = self.vfs.size(&meta_path)? {
            total += meta_len;
        }
        if let Some(wal) = &self.wal {
            total += wal.len_bytes()?;
        }
        Ok(Some(total))
    }

    fn object_count(&self) -> usize {
        self.heap.object_count()
    }

    fn segments(&self) -> Vec<SegmentInfo> {
        self.heap
            .segment_pages()
            .into_iter()
            .enumerate()
            .map(|(i, pages)| SegmentInfo {
                seg: SegmentId(i as u8),
                pages,
                bytes: (pages * PAGE_SIZE) as u64,
            })
            .collect()
    }

    fn is_persistent(&self) -> bool {
        true
    }

    fn supports_concurrency(&self) -> bool {
        !self.profile.single_user
    }

    fn drop_caches(&self) -> Result<()> {
        self.pool.clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultPlan, SimVfs};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lfs-eng-{}-{}-{}",
            std::process::id(),
            name,
            std::time::SystemTime::now().elapsed().map(|d| d.as_nanos()).unwrap_or(0)
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn ostore_basic_txn_cycle() {
        let dir = tmpdir("ost-basic");
        let store = Engine::create(&dir, Profile::ostore(), Options::default()).unwrap();
        assert_eq!(store.name(), "OStore");
        assert!(store.supports_concurrency());
        let t = store.begin().unwrap();
        let a = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"alpha").unwrap();
        let b = store.allocate(t, SegmentId(3), ClusterHint::NONE, b"beta").unwrap();
        store.update(t, a, b"alpha2").unwrap();
        store.commit(t).unwrap();
        assert_eq!(store.read(a).unwrap(), b"alpha2");
        assert_eq!(store.read(b).unwrap(), b"beta");
        assert_eq!(store.object_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ostore_abort_rolls_back() {
        let dir = tmpdir("ost-abort");
        let store = Engine::create(&dir, Profile::ostore(), Options::default()).unwrap();
        let t0 = store.begin().unwrap();
        let keep = store.allocate(t0, SegmentId(0), ClusterHint::NONE, b"keep").unwrap();
        store.commit(t0).unwrap();

        let t = store.begin().unwrap();
        let temp = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"temp").unwrap();
        store.update(t, keep, b"mutated").unwrap();
        store.free(t, keep).unwrap();
        store.abort(t).unwrap();

        assert!(!store.exists_vis(Visibility::Latest, temp), "aborted alloc must vanish");
        assert_eq!(store.read(keep).unwrap(), b"keep", "aborted update+free must roll back");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Blocking until commit or abort is checked on every backend in
    /// `tests/trait_level.rs`; here, that a lock taken without writing
    /// makes a rival's update give up with a typed `LockTimeout`.
    #[test]
    fn lock_exclusive_serializes_without_touching_the_object() {
        let dir = tmpdir("ost-lockx");
        let opts = Options { lock_timeout: Duration::from_millis(50), ..Options::default() };
        let store = Engine::create(&dir, Profile::ostore(), opts).unwrap();
        let t0 = store.begin().unwrap();
        let oid = store.allocate(t0, SegmentId(0), ClusterHint::NONE, b"hot").unwrap();
        store.commit(t0).unwrap();

        let holder = store.begin().unwrap();
        store.lock_exclusive(holder, oid).unwrap();
        let rival = store.begin().unwrap();
        assert!(matches!(
            store.update(rival, oid, b"blocked"),
            Err(StorageError::LockTimeout(o)) if o == oid
        ));
        store.abort(rival).unwrap();
        store.abort(holder).unwrap();
        assert_eq!(store.read(oid).unwrap(), b"hot");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ostore_crash_recovery_replays_committed_only() {
        let dir = tmpdir("ost-crash");
        let committed_oid;
        let uncommitted_oid;
        {
            let store = Engine::create(&dir, Profile::ostore(), Options::default()).unwrap();
            let t1 = store.begin().unwrap();
            committed_oid =
                store.allocate(t1, SegmentId(1), ClusterHint::NONE, b"durable").unwrap();
            store.commit(t1).unwrap();
            let t2 = store.begin().unwrap();
            uncommitted_oid =
                store.allocate(t2, SegmentId(1), ClusterHint::NONE, b"lost").unwrap();
            // No commit, no checkpoint: simulate a crash by dropping.
        }
        let store = Engine::open(&dir, Profile::ostore(), Options::default()).unwrap();
        assert_eq!(store.read(committed_oid).unwrap(), b"durable");
        assert!(!store.exists_vis(Visibility::Latest, uncommitted_oid));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ostore_recovery_undoes_stolen_uncommitted_updates() {
        // A tiny pool forces dirty-page steals, so the data file holds
        // uncommitted bytes when the "crash" happens; only the logged
        // before-images can roll them back.
        let vfs: Arc<dyn Vfs> = Arc::new(SimVfs::new(7));
        let dir = PathBuf::from("/sim/steal");
        let opts = Options { buffer_pages: 2, sync_commit: true, ..Options::default() };
        let committed;
        {
            let store =
                Engine::create_with(vfs.clone(), &dir, Profile::ostore(), opts.clone()).unwrap();
            let t = store.begin().unwrap();
            committed = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"stable").unwrap();
            store.commit(t).unwrap();
            let t2 = store.begin().unwrap();
            store.update(t2, committed, b"DIRTY!").unwrap();
            // Churn enough pages that the dirty page is stolen to disk.
            for i in 0..200u32 {
                store
                    .allocate(t2, SegmentId(0), ClusterHint::NONE, &[(i % 251) as u8; 64])
                    .unwrap();
            }
            // Crash with t2 uncommitted.
        }
        let store = Engine::open_with(vfs, &dir, Profile::ostore(), opts).unwrap();
        assert_eq!(store.read(committed).unwrap(), b"stable");
    }

    #[test]
    fn texas_recovers_to_checkpoint_only() {
        let dir = tmpdir("tex-ckpt");
        let before;
        let after;
        {
            let store = Engine::create(&dir, Profile::texas(), Options::default()).unwrap();
            let t = store.begin().unwrap();
            before = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"checkpointed").unwrap();
            store.commit(t).unwrap();
            store.checkpoint().unwrap();
            let t = store.begin().unwrap();
            after = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"post-ckpt").unwrap();
            store.commit(t).unwrap();
            // Crash without checkpoint.
        }
        let store = Engine::open(&dir, Profile::texas(), Options::default()).unwrap();
        assert_eq!(store.read(before).unwrap(), b"checkpointed");
        assert!(
            !store.exists_vis(Visibility::Latest, after),
            "Texas loses post-checkpoint work by contract"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn texas_is_single_user_and_cannot_abort() {
        let dir = tmpdir("tex-single");
        let store = Engine::create(&dir, Profile::texas(), Options::default()).unwrap();
        assert!(!store.supports_concurrency());
        let t1 = store.begin().unwrap();
        assert!(matches!(store.begin(), Err(StorageError::SingleUser)));
        assert!(matches!(store.abort(t1), Err(StorageError::Unsupported(_))));
        store.commit(t1).unwrap();
        let t2 = store.begin().unwrap();
        store.commit(t2).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn texas_databases_are_fatter_than_ostore() {
        let dir_o = tmpdir("size-o");
        let dir_t = tmpdir("size-t");
        let o = Engine::create(&dir_o, Profile::ostore(), Options::default()).unwrap();
        let x = Engine::create(&dir_t, Profile::texas(), Options::default()).unwrap();
        for store in [&o, &x] {
            let t = store.begin().unwrap();
            for i in 0..2000u32 {
                store
                    .allocate(t, SegmentId(0), ClusterHint::NONE, &[(i % 251) as u8; 100])
                    .unwrap();
            }
            store.commit(t).unwrap();
            store.checkpoint().unwrap();
        }
        let so = o.db_size_bytes().unwrap().unwrap();
        let st = x.db_size_bytes().unwrap().unwrap();
        let ratio = st as f64 / so as f64;
        assert!(
            ratio > 1.2 && ratio < 2.0,
            "expected Texas ~1.5x OStore size (paper: 24.6MB vs 16.6MB), got {ratio:.2}"
        );
        std::fs::remove_dir_all(&dir_o).ok();
        std::fs::remove_dir_all(&dir_t).ok();
    }

    #[test]
    fn reopen_after_checkpoint_round_trips_everything() {
        for profile in [Profile::ostore(), Profile::texas(), Profile::texas_tc()] {
            let dir = tmpdir(&format!("reopen-{}", profile.name.replace('+', "p")));
            let mut oids = Vec::new();
            {
                let store = Engine::create(&dir, profile.clone(), Options::default()).unwrap();
                let t = store.begin().unwrap();
                for i in 0..100u32 {
                    let seg = SegmentId((i % store.profile().segments as u32) as u8);
                    oids.push(
                        store
                            .allocate(t, seg, ClusterHint(1 + (i % 7) as u64), &i.to_le_bytes())
                            .unwrap(),
                    );
                }
                store.commit(t).unwrap();
                store.checkpoint().unwrap();
            }
            let store = Engine::open(&dir, profile, Options::default()).unwrap();
            for (i, &oid) in oids.iter().enumerate() {
                assert_eq!(store.read(oid).unwrap(), (i as u32).to_le_bytes());
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn create_twice_fails_open_missing_fails() {
        let dir = tmpdir("dupes");
        let _s = Engine::create(&dir, Profile::ostore(), Options::default()).unwrap();
        assert!(matches!(
            Engine::create(&dir, Profile::ostore(), Options::default()),
            Err(StorageError::BadPath(_))
        ));
        let missing = tmpdir("missing");
        assert!(matches!(
            Engine::open(&missing, Profile::ostore(), Options::default()),
            Err(StorageError::BadPath(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn operations_require_live_txn() {
        let dir = tmpdir("livetxn");
        let store = Engine::create(&dir, Profile::ostore(), Options::default()).unwrap();
        let t = store.begin().unwrap();
        let oid = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"x").unwrap();
        store.commit(t).unwrap();
        // t is gone now.
        assert!(matches!(
            store.allocate(t, SegmentId(0), ClusterHint::NONE, b"y"),
            Err(StorageError::UnknownTxn(_))
        ));
        assert!(matches!(store.update(t, oid, b"z"), Err(StorageError::UnknownTxn(_))));
        assert!(matches!(store.commit(t), Err(StorageError::UnknownTxn(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Readers in open transactions run side by side: a read at
    /// `Visibility::In` takes no lock, so four concurrent scans of the
    /// same objects all see the committed values.
    #[test]
    fn concurrent_readers_on_ostore() {
        let dir = tmpdir("conc");
        let store = Arc::new(Engine::create(&dir, Profile::ostore(), Options::default()).unwrap());
        let t = store.begin().unwrap();
        let mut oids = Vec::new();
        for i in 0..200u32 {
            oids.push(store.allocate(t, SegmentId(0), ClusterHint::NONE, &i.to_le_bytes()).unwrap());
        }
        store.commit(t).unwrap();
        let oids = Arc::new(oids);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let store = store.clone();
            let oids = oids.clone();
            handles.push(std::thread::spawn(move || {
                let t = store.begin().unwrap();
                let mut sum = 0u64;
                for &oid in oids.iter() {
                    let v = store.read_vis(Visibility::In(t), oid).unwrap();
                    sum += u32::from_le_bytes(v.try_into().unwrap()) as u64;
                }
                store.commit(t).unwrap();
                sum
            }));
        }
        let expected: u64 = (0..200u64).sum();
        for h in handles {
            assert_eq!(h.join().unwrap(), expected);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn whole_store_runs_on_sim_vfs_and_survives_power_loss() {
        let sim = SimVfs::new(99);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let dir = PathBuf::from("/sim/store");
        let opts = Options { sync_commit: true, ..Options::default() };
        let store = Engine::create_with(vfs, &dir, Profile::ostore(), opts.clone()).unwrap();
        let t = store.begin().unwrap();
        let oid = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"survives").unwrap();
        store.commit(t).unwrap();
        // Pull the plug: everything unsynced is gone; the synced commit
        // must be reconstructible from the durable image alone.
        let after = sim.clone_durable();
        after.power_loss();
        let vfs2: Arc<dyn Vfs> = Arc::new(after);
        let store2 = Engine::open_with(vfs2, &dir, Profile::ostore(), opts).unwrap();
        assert_eq!(store2.read(oid).unwrap(), b"survives");
    }
    #[test]
    fn durable_commits_on_a_small_pool_never_force_on_a_client_thread() {
        // Two clients, durable commits, a 64-page pool, well over four
        // pools' worth of data: most faults need a dirty frame written,
        // and every one of those writes waits on the log. None of that
        // waiting may be a force on the client's own thread — the
        // log-writer does every physical force — and nothing may be lost.
        const TXNS: u32 = 320;
        let dir = tmpdir("gate-2c");
        let opts = Options { buffer_pages: 64, sync_commit: true, ..Options::default() };
        let store = Arc::new(Engine::create(&dir, Profile::ostore(), opts).unwrap());
        let payload = |t: u8, i: u32, rev: u8| -> Vec<u8> {
            (0..1800u32).map(|b| (b as u8) ^ t ^ (i as u8) ^ rev.wrapping_mul(31)).collect()
        };
        let start = Arc::new(std::sync::Barrier::new(2));
        let mut clients = Vec::new();
        for t in 0..2u8 {
            let (store, start) = (store.clone(), start.clone());
            clients.push(std::thread::spawn(move || {
                start.wait();
                let before = crate::waits::snapshot();
                let mut oids = Vec::new();
                for i in 0..TXNS {
                    let txn = store.begin().unwrap();
                    oids.push(
                        store
                            .allocate(txn, SegmentId(t), ClusterHint::NONE, &payload(t, i, 0))
                            .unwrap(),
                    );
                    // Rewrite an old object too, so old pages come back
                    // through the pool and get dirtied again.
                    if i >= 100 {
                        let old = i - 100;
                        store.update(txn, oids[old as usize], &payload(t, old, 1)).unwrap();
                    }
                    store.commit(txn).unwrap();
                }
                (oids, crate::waits::snapshot().delta(&before))
            }));
        }
        let written: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        let s = store.stats();
        assert!(
            s.bytes_allocated >= 4 * 64 * PAGE_SIZE as u64,
            "the run must write at least four pools' worth"
        );
        assert!(s.page_writes > 64, "dirty frames must have been written to make room");
        // The serial reference: what each object must hold, computed
        // here from the same deterministic rule the clients followed.
        for (t, (oids, waits)) in written.iter().enumerate() {
            assert_eq!(
                waits.commit_force_nanos, 0,
                "client {t} performed a physical log force on its own thread"
            );
            assert!(waits.commit_wait_nanos > 0, "durable commits wait on the log-writer");
            for (i, &oid) in oids.iter().enumerate() {
                let rev = u8::from(i as u32 + 100 < TXNS);
                assert_eq!(
                    store.read(oid).unwrap(),
                    payload(t as u8, i as u32, rev),
                    "client {t}, object {i}"
                );
            }
        }
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn acknowledged_no_sync_commits_survive_a_drop_without_checkpoint() {
        // `sync_commit: false`: a commit is acknowledged once its
        // records are written out, by the committing thread itself. Two
        // of them race; the process then dies with no checkpoint, the
        // machine stays up, and recovery must find every commit.
        const TXNS: u8 = 200;
        let dir = tmpdir("nosync");
        let store = Arc::new(Engine::create(&dir, Profile::ostore(), Options::default()).unwrap());
        let clients: Vec<_> = (0..2u8)
            .map(|t| {
                let store = store.clone();
                std::thread::spawn(move || {
                    let mut oids = Vec::new();
                    for i in 0..TXNS {
                        let txn = store.begin().unwrap();
                        let data = [t, i, 0];
                        oids.push(
                            store.allocate(txn, SegmentId(t), ClusterHint::NONE, &data).unwrap(),
                        );
                        if let Some(&prev) = oids.iter().rev().nth(1) {
                            store.update(txn, prev, &[t, i, 1]).unwrap();
                        }
                        store.commit(txn).unwrap();
                    }
                    oids
                })
            })
            .collect();
        let written: Vec<Vec<Oid>> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        assert_eq!(store.stats().commits, 2 * u64::from(TXNS));
        drop(store);

        let store = Engine::open(&dir, Profile::ostore(), Options::default()).unwrap();
        assert!(store.stats().wal_frames_replayed > 0);
        for (t, oids) in written.iter().enumerate() {
            for (i, &oid) in oids.iter().enumerate() {
                let rewritten = i + 1 < oids.len();
                let want = [t as u8, i as u8 + u8::from(rewritten), u8::from(rewritten)];
                assert_eq!(store.read(oid).unwrap(), want, "client {t}, object {i}");
            }
        }
        assert_eq!(store.object_count(), 2 * usize::from(TXNS));
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `txns` transactions, each rewriting every one of `oids` to its own
    /// number; commits are not synced.
    fn rewrite_all(store: &Engine, oids: &[Oid], txns: std::ops::Range<u8>) -> Result<()> {
        for i in txns {
            let txn = store.begin()?;
            for &oid in oids {
                store.update(txn, oid, &[i; 700])?;
            }
            store.commit(txn)?;
        }
        Ok(())
    }

    /// What a crash sweep runs against: forty 700-byte objects committed
    /// and checkpointed, then whatever `more` adds.
    type Built = (SimVfs, Arc<dyn Vfs>, Engine, Vec<Oid>);

    fn build_forty(dir: &Path, opts: &Options, seed: u64, more: impl Fn(&Engine, &[Oid])) -> Built {
        let sim = SimVfs::new(seed);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let store = Engine::create_with(vfs.clone(), dir, Profile::ostore(), opts.clone()).unwrap();
        let txn = store.begin().unwrap();
        let oids: Vec<Oid> = (0..40)
            .map(|_| store.allocate(txn, SegmentId(0), ClusterHint::NONE, &[0; 700]).unwrap())
            .collect();
        store.commit(txn).unwrap();
        store.checkpoint().unwrap();
        more(&store, &oids);
        (sim, vfs, store, oids)
    }

    /// Pull the plug at every file operation of `phase`, on a fresh
    /// `build` each time, and recover. Each recovered image must be
    /// some committed prefix, whole — every object holds the same
    /// transaction's bytes, one of `values`, the last of them if `phase`
    /// finished — read the same when opened a second time, and scrub
    /// clean.
    fn crash_sweep(
        seeds: std::ops::Range<u64>,
        dir: &Path,
        opts: &Options,
        build: impl Fn(u64) -> Built,
        phase: impl Fn(&Engine, &[Oid]) -> Result<()>,
        values: std::ops::RangeInclusive<u8>,
    ) {
        for seed in seeds {
            let (sim, _vfs, store, oids) = build(seed);
            let first = sim.op_count();
            phase(&store, &oids).unwrap();
            let ops = sim.op_count() - first;
            drop(store);
            assert!(ops > 10, "the phase must have pages to write");
            for k in 0..ops {
                let (sim, vfs, store, oids) = build(seed);
                sim.set_plan(FaultPlan {
                    crash_at_op: Some(sim.op_count() + k),
                    writeback: true,
                    ..FaultPlan::default()
                });
                let finished = phase(&store, &oids).is_ok();
                drop(store);
                sim.power_loss();
                let ctx = format!("seed {seed}, op {k}");
                let store = Engine::open_with(vfs.clone(), dir, Profile::ostore(), opts.clone())
                    .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
                let seen: Vec<Vec<u8>> = oids.iter().map(|&o| store.read(o).unwrap()).collect();
                let v = seen[0][0];
                assert!(values.contains(&v), "{ctx}: object holds a value nobody committed");
                assert!(
                    seen.iter().all(|d| d == &vec![v; 700]),
                    "{ctx}: recovered objects disagree about the last committed transaction"
                );
                if finished {
                    assert_eq!(v, *values.end(), "{ctx}: a finished phase lost commits");
                }
                assert_eq!(store.object_count(), oids.len(), "{ctx}");
                drop(store);
                // Recovery checkpointed what it found: opening again
                // finds the same.
                let store = Engine::open_with(vfs.clone(), dir, Profile::ostore(), opts.clone())
                    .unwrap_or_else(|e| panic!("{ctx}: second open failed: {e}"));
                let again: Vec<Vec<u8>> = oids.iter().map(|&o| store.read(o).unwrap()).collect();
                assert!(again == seen, "{ctx}: reopening the recovered store changed it");
                assert_eq!(store.object_count(), oids.len(), "{ctx}");
                drop(store);
                let report = crate::scrub::scrub_store(&vfs, dir).unwrap();
                assert!(report.clean(), "{ctx}: scrub found damage: {:?}", report.corrupt);
            }
        }
    }

    #[test]
    fn crash_inside_checkpoint_flush_leaves_no_page_ahead_of_the_log() {
        // `sync_commit: false`: commits are written out, not synced. A
        // checkpoint flush that went to the data file without first
        // having the log synced could, on a crash inside it, leave page
        // images — GC-freed slots included — whose log records never
        // became durable. Sweep the plug-pull across every file
        // operation of the checkpoint.
        const LAST: u8 = 6;
        let dir = PathBuf::from("/sim/ckpt-gate");
        let opts = Options { buffer_pages: 16, ..Options::default() };
        let build = |seed| {
            build_forty(&dir, &opts, seed, |store, oids| {
                rewrite_all(store, oids, 1..LAST + 1).unwrap()
            })
        };
        crash_sweep(0..2, &dir, &opts, build, |store, _| store.checkpoint(), 0..=LAST);
    }

    /// Sweep the plug-pull across a checkpoint whose meta segment is a
    /// delta (`compacts == 0`) or a base replacing outgrown deltas
    /// (`compacts == 1`), taken while a snapshot pins the versions the
    /// transaction before it replaced.
    fn crash_sweep_across_a_meta_segment(dir: &str, compacts: u64) {
        let dir = PathBuf::from(dir);
        let opts = Options { buffer_pages: 16, ..Options::default() };
        // The forty objects, rewritten and checkpointed until the file
        // is a base (their allocation made the first delta, which
        // outgrew the empty store's base) with `compacts` deltas behind.
        let last = 2 + compacts as u8;
        let build = |seed| {
            build_forty(&dir, &opts, seed, |store, oids| {
                for i in 1..last {
                    rewrite_all(store, oids, i..i + 1).unwrap();
                    store.checkpoint().unwrap();
                }
                assert_eq!(store.stats().checkpoints, 2 + u64::from(last - 1));
                assert_eq!(store.stats().meta_compactions, 2, "create, then once outgrown");
            })
        };
        let phase = |store: &Engine, oids: &[Oid]| {
            let before = store.stats();
            let snap = store.begin_snapshot()?;
            rewrite_all(store, oids, last..last + 1)?;
            store.checkpoint()?;
            let d = store.stats().delta(&before);
            assert_eq!(d.meta_compactions, compacts, "the sweep is across the wrong segment kind");
            assert!(d.meta_bytes_written > 0 && d.checkpoint_nanos > 0);
            // The collection kept what the snapshot pins.
            assert_eq!(store.read_vis(Visibility::At(snap), oids[0])?, vec![last - 1; 700]);
            store.release_snapshot(snap);
            Ok(())
        };
        crash_sweep(0..8, &dir, &opts, build, phase, last - 1..=last);
    }

    #[test]
    fn crash_at_every_op_across_a_delta_append_recovers_exactly() {
        crash_sweep_across_a_meta_segment("/sim/meta-delta", 0);
    }

    #[test]
    fn crash_at_every_op_across_a_meta_compaction_recovers_exactly() {
        crash_sweep_across_a_meta_segment("/sim/meta-compact", 1);
    }

    #[test]
    fn torn_final_delta_opens_as_the_previous_checkpoint_plus_its_log() {
        // A delta long enough to cross sector boundaries, so that a
        // plug-pull inside its write leaves a proper prefix of it on
        // disk. The file must then read as the checkpoint before — the
        // one whose log the crashed checkpoint had not yet truncated —
        // and recovery must land on the last commit all the same.
        const N: usize = 1_500;
        let dir = PathBuf::from("/sim/meta-torn");
        let meta_path = dir.join("store.meta");
        let opts = Options::default();
        let build = |seed| {
            let sim = SimVfs::new(seed);
            let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
            let store =
                Engine::create_with(vfs.clone(), &dir, Profile::ostore(), opts.clone()).unwrap();
            let txn = store.begin().unwrap();
            let oids: Vec<Oid> = (0..N)
                .map(|_| store.allocate(txn, SegmentId(0), ClusterHint::NONE, &[0; 40]).unwrap())
                .collect();
            store.commit(txn).unwrap();
            store.checkpoint().unwrap();
            store.checkpoint().unwrap(); // the allocations' delta outgrew the empty base
            assert_eq!(store.stats().meta_compactions, 2);
            let txn = store.begin().unwrap();
            for &oid in &oids {
                store.update(txn, oid, &[1; 40]).unwrap();
            }
            store.commit(txn).unwrap();
            (sim, vfs, store, oids)
        };
        let mut torn = 0;
        for seed in 0..4 {
            let (sim, _vfs, store, _) = build(seed);
            let first = sim.op_count();
            store.checkpoint().unwrap();
            let ops = sim.op_count() - first;
            let epoch = store.store_epoch();
            assert_eq!(store.stats().meta_compactions, 2, "the checkpoint appended a delta");
            drop(store);
            // The last operations: the delta's write and sync, then the
            // log's truncation.
            for k in ops - 6..ops {
                let (sim, vfs, store, oids) = build(seed);
                sim.set_plan(FaultPlan {
                    crash_at_op: Some(sim.op_count() + k),
                    writeback: true,
                    ..FaultPlan::default()
                });
                let finished = store.checkpoint().is_ok();
                drop(store);
                sim.power_loss();
                let ctx = format!("seed {seed}, op {k}");
                let image = meta::read_meta(&vfs, &meta_path).unwrap().unwrap();
                let size = vfs.size(&meta_path).unwrap().unwrap();
                if size > image.base_bytes + image.delta_bytes {
                    torn += 1;
                    assert!(!finished, "{ctx}");
                    assert_eq!((image.segments, image.state.epoch), (1, epoch - 1), "{ctx}");
                }
                let store = Engine::open_with(vfs.clone(), &dir, Profile::ostore(), opts.clone())
                    .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
                assert!(oids.iter().all(|&o| store.read(o).unwrap() == [1; 40]), "{ctx}");
                assert_eq!(store.object_count(), N, "{ctx}");
                drop(store);
                // The checkpoint recovery ends with wrote a base: no
                // torn tail outlives an open.
                let image = meta::read_meta(&vfs, &meta_path).unwrap().unwrap();
                assert_eq!(vfs.size(&meta_path).unwrap(), Some(image.base_bytes), "{ctx}");
                assert!(crate::scrub::scrub_store(&vfs, &dir).unwrap().clean(), "{ctx}");
            }
        }
        assert!(torn > 0, "no plug-pull left a torn delta behind");
    }

    #[test]
    fn steady_state_updates_keep_the_file_flat() {
        // One object, 10,000 committed updates, a checkpoint every 100.
        // Each interval leaves a hundred dead versions; checkpoint GC
        // frees them and the pages they emptied must be what the next
        // interval writes to. Append-only placement grew this file by
        // ~18 pages per interval, forever.
        let opts = Options { sync_commit: false, ..Options::default() };
        for profile in [Profile::ostore(), Profile::texas(), Profile::texas_tc()] {
            let name = profile.name;
            let vfs: Arc<dyn Vfs> = Arc::new(SimVfs::new(3));
            let store =
                Engine::create_with(vfs, Path::new("/sim/steady"), profile, opts.clone()).unwrap();
            let t = store.begin().unwrap();
            let oid = store.allocate(t, SegmentId(0), ClusterHint::NONE, &[0; 700]).unwrap();
            store.commit(t).unwrap();
            let mut warm = 0;
            for i in 1..=10_000u32 {
                let t = store.begin().unwrap();
                store.update(t, oid, &[(i % 251) as u8; 700]).unwrap();
                store.commit(t).unwrap();
                if i % 100 == 0 {
                    store.checkpoint().unwrap();
                }
                if i == 1_000 {
                    warm = store.data_pages();
                }
            }
            assert_eq!(store.read(oid).unwrap(), vec![(10_000 % 251) as u8; 700]);
            assert_eq!(store.data_pages(), warm, "{name}: the file grew after warm-up");
            assert!(warm < 50, "{name}: 100 versions of 700 bytes need ~20 pages, took {warm}");
            assert!(store.stats().pages_recycled > 1_000, "{name}: {:?}", store.stats());
        }
    }

    #[test]
    fn crash_after_gc_emptied_pages_were_reused_recovers_exactly() {
        // Checkpoint k's GC empties the pages the first versions lived
        // on and its meta flip records them as free. The next
        // transactions are written onto those pages, unread, and through
        // a 16-page pool the new images are stolen to disk early. Sweep
        // the plug-pull from there to the end of checkpoint k+1.
        const LAST: u8 = 4;
        let dir = PathBuf::from("/sim/reuse-crash");
        let opts = Options { buffer_pages: 16, ..Options::default() };
        let build = |seed| {
            build_forty(&dir, &opts, seed, |store, oids| {
                rewrite_all(store, oids, 1..2).unwrap();
                store.checkpoint().unwrap(); // checkpoint k
                assert!(store.stats().pages_recycled >= 7, "GC must have emptied the first pages");
            })
        };
        let after_k = |store: &Engine, oids: &[Oid]| {
            let pages = store.data_pages();
            // Two of the recycled pages become overflow chunks first,
            // and slotted pages again once the chain is freed.
            let txn = store.begin()?;
            let long = store.allocate(txn, SegmentId(0), ClusterHint::NONE, &[0xFF; 6000])?;
            store.free(txn, long)?;
            store.commit(txn)?;
            assert_eq!(store.data_pages(), pages, "the chain was not written on freed pages");
            rewrite_all(store, oids, 2..LAST + 1)?;
            // 24 pages of new versions, 8 of them onto the recycled pages.
            assert!(store.data_pages() <= pages + 16, "the freed pages were not reused");
            store.checkpoint()
        };
        crash_sweep(0..8, &dir, &opts, build, after_k, 1..=LAST);
    }

    #[test]
    fn crash_after_a_checkpointed_open_page_was_emptied_recovers() {
        // An aborted transaction leaves the open page empty, and the
        // checkpoint's meta names it the open page. The next transaction
        // fills it, moves on and frees what it put there: the page is
        // empty, and not open any more. Were it handed out before the
        // next meta flip, the overflow object below would be written
        // over it, and recovery — which starts from the checkpoint's
        // meta — would place its first record onto a chunk of 0xFF.
        let vfs: Arc<dyn Vfs> = Arc::new(SimVfs::new(5));
        let dir = PathBuf::from("/sim/parked");
        let opts = Options { buffer_pages: 16, ..Options::default() };
        let store =
            Engine::create_with(vfs.clone(), &dir, Profile::ostore(), opts.clone()).unwrap();
        let alloc =
            |txn, data: &[u8]| store.allocate(txn, SegmentId(0), ClusterHint::NONE, data).unwrap();
        let txn = store.begin().unwrap();
        // A thousand pages, so that the chunk's next-page word reads as
        // a slot directory too long for compaction to make room under.
        let mut kept: Vec<Oid> = (0..5_000).map(|_| alloc(txn, &[1; 700])).collect();
        store.commit(txn).unwrap();
        let txn = store.begin().unwrap();
        alloc(txn, &[2; 700]);
        store.abort(txn).unwrap();
        store.checkpoint().unwrap();

        let txn = store.begin().unwrap();
        let six: Vec<Oid> = (0..6).map(|_| alloc(txn, &[3; 700])).collect();
        for &oid in &six[..5] {
            store.free(txn, oid).unwrap();
        }
        assert_eq!(store.stats().pages_recycled, 1, "the checkpointed open page was emptied");
        let big = alloc(txn, &[0xFF; 6000]);
        kept.push(six[5]);
        // Enough to push every image above through the 16-page pool.
        kept.extend((0..300).map(|_| alloc(txn, &[4; 700])));
        store.commit(txn).unwrap();
        let want: Vec<Vec<u8>> = kept.iter().map(|&o| store.read(o).unwrap()).collect();
        // The process dies, the machine does not: every stolen image,
        // the overwritten page among them, is what recovery reads.
        drop(store);

        let store = Engine::open_with(vfs.clone(), &dir, Profile::ostore(), opts).unwrap();
        assert_eq!(store.read(big).unwrap(), vec![0xFF; 6000]);
        for (&oid, want) in kept.iter().zip(&want) {
            assert_eq!(&store.read(oid).unwrap(), want);
        }
        assert_eq!(store.object_count(), kept.len() + 1);
        store.checkpoint().unwrap();
        drop(store);
        assert!(crate::scrub::scrub_store(&vfs, &dir).unwrap().clean());
    }

    #[test]
    fn unlogged_allocation_image_is_harmless() {
        // `allocate` places the object before it appends the `Alloc`
        // record (the record carries the oid the heap assigns), so the
        // page's stamp does not cover that record and the gate may let
        // the image out first. That is safe, and this is why: an
        // allocation only ever fills a slot no committed object
        // occupies, the object table recovery starts from is the
        // checkpoint's, and redo places into fresh slots — so a crash
        // leaves at worst an unreferenced slot, never a wrong object.
        let sim = SimVfs::new(11);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let dir = PathBuf::from("/sim/alloc-stamp");
        let opts = Options::default();
        let store =
            Engine::create_with(vfs.clone(), &dir, Profile::ostore(), opts.clone()).unwrap();
        let txn = store.begin().unwrap();
        let kept = store.allocate(txn, SegmentId(0), ClusterHint::NONE, b"committed").unwrap();
        store.commit(txn).unwrap();
        store.checkpoint().unwrap();

        let txn = store.begin().unwrap();
        let wal = store.wal.as_ref().unwrap();
        wal.wait_synced(wal.appended()).unwrap(); // `Begin` is durable...
        let lost = store.allocate(txn, SegmentId(0), ClusterHint::NONE, b"unlogged").unwrap();
        assert!(wal.appended() > wal.synced(), "...the `Alloc` record is not");
        // The page shared with `kept` passes the gate without a sync.
        let before = store.stats();
        store.pool.flush_all().unwrap();
        store.file.sync().unwrap();
        let d = store.stats().delta(&before);
        assert!(d.page_writes > 0, "the allocation's page image must reach the disk");
        assert_eq!(d.wal_syncs, 0, "no force: the stamp predates the `Alloc` record");
        drop(store);
        sim.power_loss();

        let store = Engine::open_with(vfs.clone(), &dir, Profile::ostore(), opts).unwrap();
        assert_eq!(store.read(kept).unwrap(), b"committed");
        assert!(
            !store.exists_vis(Visibility::Latest, lost),
            "an allocation whose record was lost does not exist"
        );
        let txn = store.begin().unwrap();
        let next = store.allocate(txn, SegmentId(0), ClusterHint::NONE, b"after").unwrap();
        store.commit(txn).unwrap();
        assert_eq!(store.read(next).unwrap(), b"after");
        assert_eq!(store.read(kept).unwrap(), b"committed");
        store.checkpoint().unwrap();
        drop(store);
        assert!(crate::scrub::scrub_store(&vfs, &dir).unwrap().clean());
    }
}
