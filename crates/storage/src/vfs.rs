//! Virtual file system: the seam between the engine and the operating
//! system, so crash behavior can be simulated deterministically.
//!
//! Every byte the engine persists flows through a [`Vfs`] — the page
//! file, the write-ahead log, and the checkpoint metadata all do their
//! I/O through [`VfsFile`] handles. Two implementations:
//!
//! * [`RealVfs`] — a thin passthrough to `std::fs` (the default; the
//!   only cost over direct file I/O is one dynamic dispatch per call,
//!   and it *saves* the per-I/O `metadata()` syscalls the page file
//!   used to issue by caching file length in the handle).
//! * [`SimVfs`] — a seeded, deterministic in-memory file system that
//!   models an OS page cache: writes land in a shadow buffer, `sync`
//!   makes them durable, and a simulated power loss discards unsynced
//!   data — except that, like a real kernel, background writeback may
//!   have pushed a *prefix* of the unsynced writes to "disk" first, and
//!   the last such write may be torn. It can also fail chosen
//!   operations with transient I/O errors, kill the "machine" at a
//!   chosen operation count, *misdirect* chosen writes to a wrong
//!   sector, flip one bit of chosen reads in flight, rot a bit of a
//!   durable image at rest, and defer create/rename durability behind
//!   [`Vfs::sync_dir`]. See `DESIGN.md`, "Fault model".
//!
//! The simulated state sits behind one mutex at rank `SIM_VFS` (60),
//! strictly innermost: it is only ever acquired under the page-file or
//! WAL-writer locks, never the other way around.

use std::collections::BTreeMap;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::error::Result;
use crate::lock_order::{self, Ranked};

/// How [`Vfs::open`] treats an existing (or missing) file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpenMode {
    /// Create the file, truncating any existing content.
    Create,
    /// Open an existing file; error if it does not exist.
    Open,
}

/// An open file handle. Methods take `&mut self`: callers serialize
/// access behind their own locks (the page-file handle mutex, the WAL
/// writer mutex), so the handle itself carries no synchronization.
// `len` is fallible and takes `&mut self`, so a clippy-style `is_empty`
// companion would not pull its weight.
#[allow(clippy::len_without_is_empty)]
pub trait VfsFile: Send {
    /// Read exactly `buf.len()` bytes at `offset`. Reading past the end
    /// of the file is an error; callers consult [`VfsFile::len`] first.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<()>;
    /// Write all of `data` at `offset`, extending the file if needed.
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<()>;
    /// Truncate or extend the file to `len` bytes (extension zero-fills).
    fn set_len(&mut self, len: u64) -> Result<()>;
    /// Current length of the file in bytes.
    fn len(&mut self) -> Result<u64>;
    /// Make every write so far durable (survive power loss).
    fn sync(&mut self) -> Result<()>;
}

/// A file system. `Send + Sync` so one instance can back every file of
/// an engine across threads.
pub trait Vfs: Send + Sync {
    /// Open a file handle.
    fn open(&self, path: &Path, mode: OpenMode) -> Result<Box<dyn VfsFile>>;
    /// Read a whole file, or `None` if it does not exist.
    fn read_all(&self, path: &Path) -> Result<Option<Vec<u8>>>;
    /// Atomically rename `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> Result<()>;
    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
    /// Size of the file at `path`, or `None` if it does not exist.
    fn size(&self, path: &Path) -> Result<Option<u64>>;
    /// Create a directory and any missing parents.
    fn create_dir_all(&self, path: &Path) -> Result<()>;
    /// Make directory entries (creates and renames under `dir`) durable.
    /// On a real kernel a rename is atomic but *not* durable until the
    /// containing directory is fsynced; callers that rely on a rename
    /// surviving power loss (the checkpoint's meta flip) must call this
    /// before depending on it.
    fn sync_dir(&self, dir: &Path) -> Result<()> {
        let _ = dir;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// RealVfs
// ---------------------------------------------------------------------------

/// The real file system: `std::fs` with a cached length per handle.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

impl RealVfs {
    /// Convenience: a shareable `Arc<dyn Vfs>` of the real file system.
    pub fn arc() -> Arc<dyn Vfs> {
        Arc::new(RealVfs)
    }
}

struct RealFile {
    file: std::fs::File,
    /// Cached file length; kept in step with writes and truncations so
    /// page-granular callers avoid a `metadata()` syscall per I/O.
    len: u64,
}

impl VfsFile for RealFile {
    // Positional I/O: one syscall per call, and no file cursor to keep.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.file.read_exact_at(buf, offset)?;
        Ok(())
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        self.file.write_all_at(data, offset)?;
        self.len = self.len.max(offset + data.len() as u64);
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> Result<()> {
        self.file.set_len(len)?;
        self.len = len;
        Ok(())
    }

    fn len(&mut self) -> Result<u64> {
        Ok(self.len)
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

impl Vfs for RealVfs {
    fn open(&self, path: &Path, mode: OpenMode) -> Result<Box<dyn VfsFile>> {
        let mut opts = std::fs::OpenOptions::new();
        opts.read(true).write(true);
        match mode {
            OpenMode::Create => {
                opts.create(true).truncate(true);
            }
            OpenMode::Open => {}
        }
        let file = opts.open(path)?;
        let len = file.metadata()?.len();
        Ok(Box::new(RealFile { file, len }))
    }

    fn read_all(&self, path: &Path) -> Result<Option<Vec<u8>>> {
        match std::fs::read(path) {
            Ok(data) => Ok(Some(data)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        std::fs::rename(from, to)?;
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn size(&self, path: &Path) -> Result<Option<u64>> {
        match std::fs::metadata(path) {
            Ok(m) => Ok(Some(m.len())),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        std::fs::create_dir_all(path)?;
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> Result<()> {
        // fsync the directory fd: flushes the entry table, making
        // completed renames/creates durable (POSIX semantics).
        std::fs::File::open(dir)?.sync_all()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// SimVfs
// ---------------------------------------------------------------------------

/// Planned faults for a [`SimVfs`] run. All fields default to "no
/// faults"; the harness arms a plan after building a clean baseline.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Kill the machine when the file-operation counter reaches this
    /// value: the triggering operation fails (a write applies only a
    /// seeded prefix — a torn/short write — to the shadow cache first),
    /// and every subsequent operation fails until [`SimVfs::power_loss`].
    pub crash_at_op: Option<u64>,
    /// Operation counts at which to fail once with a transient I/O
    /// error (mutating operations only; the caller may retry).
    pub fail_ops: Vec<u64>,
    /// Whether simulated background writeback may make a prefix of the
    /// unsynced writes durable at power loss (the last one possibly
    /// torn). When `false`, power loss is "clean": exactly the synced
    /// image survives.
    pub writeback: bool,
    /// Operation counts at which a write is *misdirected*: it succeeds,
    /// but lands at a seeded wrong sector-aligned offset in the same
    /// file — a firmware/driver addressing bug. The caller sees success;
    /// only page/frame self-description can catch it later.
    pub misdirect_ops: Vec<u64>,
    /// Operation counts at which a read returns its data with one seeded
    /// bit flipped (transient read corruption: a bus/DMA glitch, not
    /// at-rest damage — a re-read returns clean bytes).
    pub flip_read_ops: Vec<u64>,
    /// When set, file creates and renames are *not* immediately durable:
    /// they journal as namespace operations, made durable by
    /// [`Vfs::sync_dir`] — and at power loss only a seeded prefix of the
    /// un-flushed namespace journal survives, so a rename can be lost
    /// (or survive) independently of data writes around it.
    pub volatile_namespace: bool,
}

/// One unsynced mutation in a file's journal.
#[derive(Clone, Debug)]
enum JournalOp {
    Write { at: u64, data: Vec<u8> },
    SetLen(u64),
}

/// One namespace mutation (create or rename) not yet flushed by
/// [`Vfs::sync_dir`]. Only journaled under
/// [`FaultPlan::volatile_namespace`]; otherwise namespace changes are
/// immediately durable, as on a journaling file system.
#[derive(Clone, Debug)]
enum NsOp {
    Create { path: PathBuf, id: usize },
    Rename { from: PathBuf, to: PathBuf },
}

/// Apply one namespace op to the on-disk name table. A rename whose
/// source never became durable drops silently — which is exactly why
/// the journal is applied strictly in prefix order: a rename can never
/// survive power loss without the create it depends on.
fn apply_ns(durable: &mut BTreeMap<PathBuf, usize>, op: &NsOp) {
    match op {
        NsOp::Create { path, id } => {
            durable.insert(path.clone(), *id);
        }
        NsOp::Rename { from, to } => {
            if let Some(id) = durable.remove(from) {
                durable.insert(to.clone(), id);
            }
        }
    }
}

#[derive(Clone, Debug, Default)]
struct SimFile {
    /// The bytes that survive power loss (last synced image, plus any
    /// writeback applied at the loss itself).
    durable: Vec<u8>,
    /// The OS-cache view: durable plus every unsynced write.
    cache: Vec<u8>,
    /// Unsynced mutations in order, for writeback simulation.
    journal: Vec<JournalOp>,
}

/// Simulated device-sector size: writes are atomic at this granularity
/// (the "powersafe overwrite" assumption). A torn write keeps a whole
/// number of sectors measured from the absolute file offset, so a
/// single aligned page write is all-or-nothing while a multi-sector WAL
/// batch can tear mid-frame — where the frame CRCs catch it.
const SECTOR: u64 = crate::PAGE_SIZE as u64;

/// Round a raw torn-write cut down to the containing sector boundary.
fn sector_cut(at: u64, raw_cut: usize) -> usize {
    let end = at + raw_cut as u64;
    let floor = end / SECTOR * SECTOR;
    floor.saturating_sub(at).min(raw_cut as u64) as usize
}

fn apply_op(buf: &mut Vec<u8>, op: &JournalOp) {
    match op {
        JournalOp::Write { at, data } => {
            let at = *at as usize;
            let end = at + data.len();
            if buf.len() < end {
                buf.resize(end, 0);
            }
            if let Some(dst) = buf.get_mut(at..end) {
                dst.copy_from_slice(data);
            }
        }
        JournalOp::SetLen(n) => buf.resize(*n as usize, 0),
    }
}

struct SimState {
    /// File bodies, indexed by id. Handles address files by id, so a
    /// rename never invalidates an open handle (fd semantics).
    store: Vec<SimFile>,
    /// The in-memory (OS cache) view of the namespace: name → file id.
    names: BTreeMap<PathBuf, usize>,
    /// The on-disk namespace: what survives power loss (before any
    /// seeded namespace writeback chosen at the loss itself).
    durable_names: BTreeMap<PathBuf, usize>,
    /// Namespace operations awaiting `sync_dir`, in order. Empty unless
    /// [`FaultPlan::volatile_namespace`] is armed.
    ns_journal: Vec<NsOp>,
    plan: FaultPlan,
    /// Monotone count of file operations (the crash clock).
    ops: u64,
    /// xorshift64* state for torn-write and writeback decisions.
    rng: u64,
    /// Power has been lost; every operation fails until `power_loss`
    /// resolves the durable image.
    crashed: bool,
}

impl SimState {
    fn next_rand(&mut self) -> u64 {
        // xorshift64*: tiny, deterministic, good enough for fault choice.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn io_err(what: &str) -> crate::StorageError {
        crate::StorageError::Io(io::Error::other(format!("simulated fault: {what}")))
    }

    /// Advance the crash clock; returns an error if this operation is
    /// chosen to fail. `file` names the target when the operation is a
    /// mutation, so a dying write can record a torn prefix.
    fn tick(&mut self, file: Option<(usize, &JournalOp)>) -> Result<()> {
        if self.crashed {
            return Err(Self::io_err("power is off"));
        }
        let op = self.ops;
        self.ops += 1;
        if self.plan.fail_ops.contains(&op) {
            return Err(Self::io_err("transient I/O error"));
        }
        if self.plan.crash_at_op == Some(op) {
            // The dying operation: a write may land a torn prefix in the
            // cache/journal before the machine goes dark.
            if let Some((id, JournalOp::Write { at, data })) = file {
                let keep = sector_cut(*at, (self.next_rand() as usize) % (data.len() + 1));
                if keep > 0 {
                    let torn = JournalOp::Write {
                        at: *at,
                        data: data.get(..keep).unwrap_or_default().to_vec(),
                    };
                    if let Some(f) = self.store.get_mut(id) {
                        apply_op(&mut f.cache, &torn);
                        f.journal.push(torn);
                    }
                }
            }
            self.crashed = true;
            return Err(Self::io_err("power loss"));
        }
        Ok(())
    }
}

/// The simulated file system. Cheap to clone (shared state); keep one
/// handle in the test/harness to arm faults and pull the plug.
#[derive(Clone)]
pub struct SimVfs {
    state: Arc<Mutex<SimState>>,
}

impl SimVfs {
    /// A fresh, empty simulated file system with the given fault seed.
    pub fn new(seed: u64) -> Self {
        SimVfs {
            state: Arc::new(Mutex::new(SimState {
                store: Vec::new(),
                names: BTreeMap::new(),
                durable_names: BTreeMap::new(),
                ns_journal: Vec::new(),
                plan: FaultPlan::default(),
                ops: 0,
                // xorshift must not start at 0.
                rng: seed | 1,
                crashed: false,
            })),
        }
    }

    /// Lock the simulator state (rank `SIM_VFS`, strictly innermost).
    fn sim_lock(&self) -> Ranked<MutexGuard<'_, SimState>> {
        lock_order::ranked(lock_order::SIM_VFS, || self.state.lock())
    }

    /// Arm a fault plan. Replaces any previous plan.
    pub fn set_plan(&self, plan: FaultPlan) {
        self.sim_lock().plan = plan;
    }

    /// File operations performed so far (the crash clock).
    pub fn op_count(&self) -> u64 {
        self.sim_lock().ops
    }

    /// Whether the simulated machine has lost power.
    pub fn crashed(&self) -> bool {
        self.sim_lock().crashed
    }

    /// Pull the plug (or resolve a planned crash): for each file, decide
    /// what survives — the synced image always does; with
    /// [`FaultPlan::writeback`], a seeded prefix of the unsynced journal
    /// may survive too, the last write possibly torn. Afterwards the
    /// machine is "rebooted": operations work again, the fault plan is
    /// disarmed, and the cache equals the durable image.
    pub fn power_loss(&self) {
        let mut st = self.sim_lock();
        let writeback = st.plan.writeback;
        // Namespace writeback first: a seeded *prefix* of the un-flushed
        // directory operations reaches disk (prefix order guarantees a
        // rename never survives without the create it depends on).
        // Without `volatile_namespace` the journal is always empty.
        let ns_keep = if st.plan.volatile_namespace && !st.ns_journal.is_empty() {
            (st.next_rand() as usize) % (st.ns_journal.len() + 1)
        } else {
            st.ns_journal.len()
        };
        let flushed: Vec<NsOp> = st.ns_journal.iter().take(ns_keep).cloned().collect();
        for op in &flushed {
            apply_ns(&mut st.durable_names, op);
        }
        st.ns_journal.clear();
        st.names = st.durable_names.clone();
        for id in 0..st.store.len() {
            let keep = {
                let journal_len = st.store.get(id).map(|f| f.journal.len()).unwrap_or(0);
                if writeback && journal_len > 0 {
                    (st.next_rand() as usize) % (journal_len + 1)
                } else {
                    0
                }
            };
            let tear = if keep > 0 { st.next_rand() as usize } else { 0 };
            if let Some(f) = st.store.get_mut(id) {
                for (i, op) in f.journal.iter().take(keep).enumerate() {
                    if i + 1 == keep {
                        // The frontier write may itself be torn — to a
                        // whole number of device sectors.
                        if let JournalOp::Write { at, data } = op {
                            let cut = sector_cut(*at, tear % (data.len() + 1));
                            if cut < data.len() {
                                let torn = JournalOp::Write {
                                    at: *at,
                                    data: data.get(..cut).unwrap_or_default().to_vec(),
                                };
                                if cut > 0 {
                                    apply_op(&mut f.durable, &torn);
                                }
                                continue;
                            }
                        }
                    }
                    apply_op(&mut f.durable, op);
                }
                f.journal.clear();
                f.cache = f.durable.clone();
            }
        }
        st.plan = FaultPlan::default();
        st.crashed = false;
    }

    /// Flip one seeded bit in the durable image of `path` — at-rest
    /// media rot, injected from outside the crash clock. The cache view
    /// is damaged identically (as after `power_loss` the two coincide).
    /// Returns the absolute bit index flipped, or `None` if the file is
    /// missing or empty.
    pub fn flip_durable_bit(&self, path: &Path) -> Option<u64> {
        let mut st = self.sim_lock();
        let id = st.names.get(path).copied()?;
        let nbits = (st.store.get(id)?.durable.len() as u64).saturating_mul(8);
        if nbits == 0 {
            return None;
        }
        let bit = st.next_rand() % nbits;
        let f = st.store.get_mut(id)?;
        let (byte, mask) = ((bit / 8) as usize, 1u8 << (bit % 8));
        if let Some(b) = f.durable.get_mut(byte) {
            *b ^= mask;
        }
        if let Some(b) = f.cache.get_mut(byte) {
            *b ^= mask;
        }
        Some(bit)
    }

    /// A deep copy of the durable (post-power-loss) image as a fresh,
    /// fault-free `SimVfs` — for checking that recovery is deterministic
    /// and idempotent from the same disk state. Only files reachable
    /// from the durable namespace are carried over.
    pub fn clone_durable(&self) -> SimVfs {
        let st = self.sim_lock();
        let mut store = Vec::new();
        let mut names = BTreeMap::new();
        for (path, &id) in &st.durable_names {
            if let Some(f) = st.store.get(id) {
                names.insert(path.clone(), store.len());
                store.push(SimFile {
                    durable: f.durable.clone(),
                    cache: f.durable.clone(),
                    journal: Vec::new(),
                });
            }
        }
        let durable_names = names.clone();
        SimVfs {
            state: Arc::new(Mutex::new(SimState {
                store,
                names,
                durable_names,
                ns_journal: Vec::new(),
                plan: FaultPlan::default(),
                ops: 0,
                rng: st.rng | 1,
                crashed: false,
            })),
        }
    }
}

struct SimHandle {
    vfs: SimVfs,
    id: usize,
}

impl SimHandle {
    fn mutate(&mut self, op: JournalOp) -> Result<()> {
        let mut st = self.vfs.sim_lock();
        let opnum = st.ops;
        st.tick(Some((self.id, &op)))?;
        let op = if st.plan.misdirect_ops.contains(&opnum) {
            // Misdirected write: the device acks success but puts the
            // data at a seeded wrong sector-aligned offset in the same
            // file. The intended location keeps its previous content.
            match op {
                JournalOp::Write { at, data } => {
                    let len =
                        st.store.get(self.id).map(|f| f.cache.len() as u64).unwrap_or(0);
                    let sectors = (len / SECTOR).max(1);
                    let candidate = (st.next_rand() % sectors) * SECTOR;
                    let wrong = if candidate == at { candidate + SECTOR } else { candidate };
                    JournalOp::Write { at: wrong, data }
                }
                other => other,
            }
        } else {
            op
        };
        match st.store.get_mut(self.id) {
            Some(f) => {
                apply_op(&mut f.cache, &op);
                f.journal.push(op);
                Ok(())
            }
            None => Err(SimState::io_err("file vanished")),
        }
    }
}

impl VfsFile for SimHandle {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let mut st = self.vfs.sim_lock();
        let opnum = st.ops;
        st.tick(None)?;
        let f = st
            .store
            .get(self.id)
            .ok_or_else(|| SimState::io_err("file vanished"))?;
        let at = offset as usize;
        let src = f
            .cache
            .get(at..at + buf.len())
            .ok_or_else(|| SimState::io_err("read past end of file"))?;
        buf.copy_from_slice(src);
        if st.plan.flip_read_ops.contains(&opnum) && !buf.is_empty() {
            // Transient read corruption: one seeded bit arrives flipped.
            // The stored bytes are untouched; a re-read comes back clean.
            let bit = (st.next_rand() as usize) % (buf.len() * 8);
            if let Some(byte) = buf.get_mut(bit / 8) {
                *byte ^= 1 << (bit % 8);
            }
        }
        Ok(())
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        self.mutate(JournalOp::Write { at: offset, data: data.to_vec() })
    }

    fn set_len(&mut self, len: u64) -> Result<()> {
        self.mutate(JournalOp::SetLen(len))
    }

    fn len(&mut self) -> Result<u64> {
        let st = self.vfs.sim_lock();
        st.store
            .get(self.id)
            .map(|f| f.cache.len() as u64)
            .ok_or_else(|| SimState::io_err("file vanished"))
    }

    fn sync(&mut self) -> Result<()> {
        let mut st = self.vfs.sim_lock();
        st.tick(None)?;
        if let Some(f) = st.store.get_mut(self.id) {
            f.durable = f.cache.clone();
            f.journal.clear();
        }
        Ok(())
    }
}

impl Vfs for SimVfs {
    fn open(&self, path: &Path, mode: OpenMode) -> Result<Box<dyn VfsFile>> {
        let mut st = self.sim_lock();
        if st.crashed {
            return Err(SimState::io_err("power is off"));
        }
        let id = match mode {
            OpenMode::Create => match st.names.get(path).copied() {
                Some(id) => {
                    // Truncate in place; open handles keep addressing
                    // the same file, as with O_TRUNC on a real fd.
                    if let Some(f) = st.store.get_mut(id) {
                        *f = SimFile::default();
                    }
                    id
                }
                None => {
                    let id = st.store.len();
                    st.store.push(SimFile::default());
                    st.names.insert(path.to_path_buf(), id);
                    if st.plan.volatile_namespace {
                        st.ns_journal.push(NsOp::Create { path: path.to_path_buf(), id });
                    } else {
                        st.durable_names.insert(path.to_path_buf(), id);
                    }
                    id
                }
            },
            OpenMode::Open => match st.names.get(path).copied() {
                Some(id) => id,
                None => {
                    return Err(crate::StorageError::Io(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("no such simulated file: {}", path.display()),
                    )))
                }
            },
        };
        drop(st);
        Ok(Box::new(SimHandle { vfs: self.clone(), id }))
    }

    fn read_all(&self, path: &Path) -> Result<Option<Vec<u8>>> {
        let st = self.sim_lock();
        if st.crashed {
            return Err(SimState::io_err("power is off"));
        }
        Ok(st
            .names
            .get(path)
            .and_then(|&id| st.store.get(id))
            .map(|f| f.cache.clone()))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        let mut st = self.sim_lock();
        if st.crashed {
            return Err(SimState::io_err("power is off"));
        }
        // Atomic in the cache view. Durable immediately unless
        // `volatile_namespace` is armed, in which case durability waits
        // for `sync_dir` (or a lucky namespace writeback at power loss).
        match st.names.remove(from) {
            Some(id) => {
                st.names.insert(to.to_path_buf(), id);
                if st.plan.volatile_namespace {
                    st.ns_journal
                        .push(NsOp::Rename { from: from.to_path_buf(), to: to.to_path_buf() });
                } else if let Some(did) = st.durable_names.remove(from) {
                    st.durable_names.insert(to.to_path_buf(), did);
                }
                Ok(())
            }
            None => Err(crate::StorageError::Io(io::Error::new(
                io::ErrorKind::NotFound,
                format!("rename source missing: {}", from.display()),
            ))),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        self.sim_lock().names.contains_key(path)
    }

    fn size(&self, path: &Path) -> Result<Option<u64>> {
        let st = self.sim_lock();
        Ok(st
            .names
            .get(path)
            .and_then(|&id| st.store.get(id))
            .map(|f| f.cache.len() as u64))
    }

    fn create_dir_all(&self, _path: &Path) -> Result<()> {
        // Directories are implicit in the simulated namespace.
        Ok(())
    }

    fn sync_dir(&self, _dir: &Path) -> Result<()> {
        // The simulated namespace is flat: one directory fsync flushes
        // the whole namespace journal, in order.
        let mut st = self.sim_lock();
        st.tick(None)?;
        let flushed: Vec<NsOp> = st.ns_journal.drain(..).collect();
        for op in &flushed {
            apply_ns(&mut st.durable_names, op);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn real_vfs_round_trip_and_cached_len() {
        let dir = std::env::temp_dir().join(format!("lfs-vfs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("real.bin");
        let vfs = RealVfs;
        let mut f = vfs.open(&path, OpenMode::Create).unwrap();
        assert_eq!(f.len().unwrap(), 0);
        f.write_at(4, b"abcd").unwrap();
        assert_eq!(f.len().unwrap(), 8);
        let mut buf = [0u8; 4];
        f.read_at(4, &mut buf).unwrap();
        assert_eq!(&buf, b"abcd");
        f.set_len(6).unwrap();
        assert_eq!(f.len().unwrap(), 6);
        f.sync().unwrap();
        drop(f);
        assert_eq!(vfs.size(&path).unwrap(), Some(6));
        assert!(vfs.exists(&path));
        let got = vfs.read_all(&path).unwrap().unwrap();
        assert_eq!(got.len(), 6);
        assert!(vfs.read_all(&dir.join("nope.bin")).unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sim_unsynced_writes_vanish_at_power_loss() {
        let sim = SimVfs::new(42);
        let mut f = sim.open(&p("/a"), OpenMode::Create).unwrap();
        f.write_at(0, b"durable!").unwrap();
        f.sync().unwrap();
        f.write_at(8, b" gone").unwrap();
        assert_eq!(sim.read_all(&p("/a")).unwrap().unwrap(), b"durable! gone");
        sim.power_loss();
        assert_eq!(sim.read_all(&p("/a")).unwrap().unwrap(), b"durable!");
    }

    #[test]
    fn sim_crash_at_op_kills_everything_until_power_loss() {
        let sim = SimVfs::new(7);
        let mut f = sim.open(&p("/a"), OpenMode::Create).unwrap();
        f.write_at(0, b"one").unwrap();
        f.sync().unwrap();
        let now = sim.op_count();
        sim.set_plan(FaultPlan { crash_at_op: Some(now + 1), ..FaultPlan::default() });
        f.write_at(3, b"two").unwrap(); // op `now`: survives in cache
        assert!(f.write_at(6, b"three").is_err()); // the dying op
        assert!(sim.crashed());
        assert!(f.sync().is_err());
        assert!(f.write_at(0, b"x").is_err());
        sim.power_loss();
        assert!(!sim.crashed());
        // Only the synced prefix survived (writeback disarmed).
        assert_eq!(sim.read_all(&p("/a")).unwrap().unwrap(), b"one");
    }

    #[test]
    fn sim_writeback_preserves_ordered_prefix() {
        // With writeback armed, what survives must always be the synced
        // image plus a *prefix* of the journal — never a later write
        // without an earlier one.
        for seed in 0..50u64 {
            let sim = SimVfs::new(seed);
            let mut f = sim.open(&p("/a"), OpenMode::Create).unwrap();
            f.write_at(0, b"AAAA").unwrap();
            f.sync().unwrap();
            f.write_at(0, b"BBBB").unwrap();
            f.write_at(0, b"CCCC").unwrap();
            sim.set_plan(FaultPlan { writeback: true, ..FaultPlan::default() });
            sim.power_loss();
            let got = sim.read_all(&p("/a")).unwrap().unwrap();
            assert_eq!(got.len(), 4, "seed {seed}: length must be stable");
            // Sub-sector writes are atomic, so the only legal images are
            // prefixes of the journal: AAAA, BBBB, CCCC — never a C
            // write surviving without the B write beneath it.
            let s = String::from_utf8_lossy(&got).to_string();
            let legal = ["AAAA", "BBBB", "CCCC"];
            assert!(legal.contains(&s.as_str()), "seed {seed}: illegal image {s}");
        }
    }

    #[test]
    fn sim_torn_writes_respect_sector_atomicity() {
        // A large unsynced write may tear at power loss, but only at
        // sector (PAGE_SIZE) boundaries relative to the file start.
        let mut saw_tear = false;
        for seed in 0..200u64 {
            let sim = SimVfs::new(seed);
            let mut f = sim.open(&p("/wal"), OpenMode::Create).unwrap();
            f.write_at(0, &vec![1u8; 3 * crate::PAGE_SIZE]).unwrap();
            sim.set_plan(FaultPlan { writeback: true, ..FaultPlan::default() });
            sim.power_loss();
            let got = sim.read_all(&p("/wal")).unwrap().unwrap();
            assert_eq!(
                got.len() % crate::PAGE_SIZE,
                0,
                "seed {seed}: torn length {} is not sector-aligned",
                got.len()
            );
            assert!(got.iter().all(|&b| b == 1));
            if !got.is_empty() && got.len() < 3 * crate::PAGE_SIZE {
                saw_tear = true;
            }
        }
        assert!(saw_tear, "200 seeds should produce at least one mid-write tear");
    }

    #[test]
    fn sim_transient_error_is_transient() {
        let sim = SimVfs::new(9);
        let mut f = sim.open(&p("/a"), OpenMode::Create).unwrap();
        let now = sim.op_count();
        sim.set_plan(FaultPlan { fail_ops: vec![now], ..FaultPlan::default() });
        assert!(f.write_at(0, b"x").is_err());
        // Retry succeeds; the machine did not die.
        f.write_at(0, b"x").unwrap();
        assert!(!sim.crashed());
    }

    #[test]
    fn sim_rename_is_atomic_and_durable() {
        let sim = SimVfs::new(3);
        let mut f = sim.open(&p("/tmp.meta"), OpenMode::Create).unwrap();
        f.write_at(0, b"meta").unwrap();
        f.sync().unwrap();
        drop(f);
        sim.rename(&p("/tmp.meta"), &p("/store.meta")).unwrap();
        sim.power_loss();
        assert!(!sim.exists(&p("/tmp.meta")));
        assert_eq!(sim.read_all(&p("/store.meta")).unwrap().unwrap(), b"meta");
    }

    #[test]
    fn sim_clone_durable_detaches_state() {
        let sim = SimVfs::new(5);
        let mut f = sim.open(&p("/a"), OpenMode::Create).unwrap();
        f.write_at(0, b"base").unwrap();
        f.sync().unwrap();
        let copy = sim.clone_durable();
        f.write_at(0, b"more").unwrap();
        f.sync().unwrap();
        assert_eq!(sim.read_all(&p("/a")).unwrap().unwrap(), b"more");
        assert_eq!(copy.read_all(&p("/a")).unwrap().unwrap(), b"base");
    }

    #[test]
    fn sim_open_missing_fails_create_truncates() {
        let sim = SimVfs::new(1);
        assert!(sim.open(&p("/nope"), OpenMode::Open).is_err());
        let mut f = sim.open(&p("/a"), OpenMode::Create).unwrap();
        f.write_at(0, b"junk").unwrap();
        drop(f);
        let mut f = sim.open(&p("/a"), OpenMode::Create).unwrap();
        assert_eq!(f.len().unwrap(), 0);
    }

    #[test]
    fn sim_misdirected_write_lands_at_wrong_sector() {
        let sim = SimVfs::new(11);
        let mut f = sim.open(&p("/data"), OpenMode::Create).unwrap();
        f.write_at(0, &vec![0u8; 2 * crate::PAGE_SIZE]).unwrap();
        f.sync().unwrap();
        let now = sim.op_count();
        sim.set_plan(FaultPlan { misdirect_ops: vec![now], ..FaultPlan::default() });
        // The write reports success...
        f.write_at(0, &vec![7u8; crate::PAGE_SIZE]).unwrap();
        let img = sim.read_all(&p("/data")).unwrap().unwrap();
        // ...but the intended sector is untouched, and the payload sits
        // whole at some other sector-aligned offset.
        assert!(img.get(..crate::PAGE_SIZE).unwrap().iter().all(|&b| b == 0));
        let landed = img
            .chunks(crate::PAGE_SIZE)
            .skip(1)
            .any(|c| c.len() == crate::PAGE_SIZE && c.iter().all(|&b| b == 7));
        assert!(landed, "misdirected payload must land intact elsewhere");
    }

    #[test]
    fn sim_read_bit_flip_is_transient() {
        let sim = SimVfs::new(13);
        let mut f = sim.open(&p("/data"), OpenMode::Create).unwrap();
        let clean = vec![0xA5u8; 64];
        f.write_at(0, &clean).unwrap();
        f.sync().unwrap();
        let now = sim.op_count();
        sim.set_plan(FaultPlan { flip_read_ops: vec![now], ..FaultPlan::default() });
        let mut buf = [0u8; 64];
        f.read_at(0, &mut buf).unwrap();
        let diff: u32 = buf.iter().zip(&clean).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(diff, 1, "exactly one bit arrives flipped");
        // The damage was in flight, not at rest: a re-read is clean.
        f.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf[..], &clean[..]);
    }

    #[test]
    fn sim_flip_durable_bit_rots_at_rest() {
        let sim = SimVfs::new(17);
        let mut f = sim.open(&p("/data"), OpenMode::Create).unwrap();
        let clean = vec![0x5Au8; 32];
        f.write_at(0, &clean).unwrap();
        f.sync().unwrap();
        assert!(sim.flip_durable_bit(&p("/data")).is_some());
        let got = sim.read_all(&p("/data")).unwrap().unwrap();
        let diff: u32 = got.iter().zip(&clean).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(diff, 1, "at-rest rot flips exactly one stored bit");
        assert!(sim.flip_durable_bit(&p("/missing")).is_none());
    }

    #[test]
    fn sim_volatile_namespace_loses_a_seeded_prefix() {
        // With a volatile namespace, the tmp-write/sync/rename dance can
        // land in any prefix state at power loss — but never an illegal
        // one (a rename surviving without its create, or a destination
        // file with unsynced content).
        let mut outcomes = std::collections::BTreeSet::new();
        for seed in 0..60u64 {
            let sim = SimVfs::new(seed);
            sim.set_plan(FaultPlan { volatile_namespace: true, ..FaultPlan::default() });
            let mut f = sim.open(&p("/tmp.meta"), OpenMode::Create).unwrap();
            f.write_at(0, b"meta").unwrap();
            f.sync().unwrap();
            drop(f);
            sim.rename(&p("/tmp.meta"), &p("/store.meta")).unwrap();
            sim.power_loss();
            let tmp = sim.exists(&p("/tmp.meta"));
            let dst = sim.exists(&p("/store.meta"));
            assert!(!(tmp && dst), "seed {seed}: rename must stay atomic");
            if dst {
                assert_eq!(
                    sim.read_all(&p("/store.meta")).unwrap().unwrap(),
                    b"meta",
                    "seed {seed}: surviving destination must carry synced content"
                );
            }
            outcomes.insert((tmp, dst));
        }
        assert!(outcomes.len() >= 2, "60 seeds should produce divergent prefixes");
    }

    #[test]
    fn sim_sync_dir_makes_namespace_durable() {
        let sim = SimVfs::new(23);
        sim.set_plan(FaultPlan { volatile_namespace: true, ..FaultPlan::default() });
        let mut f = sim.open(&p("/tmp.meta"), OpenMode::Create).unwrap();
        f.write_at(0, b"meta").unwrap();
        f.sync().unwrap();
        drop(f);
        sim.rename(&p("/tmp.meta"), &p("/store.meta")).unwrap();
        sim.sync_dir(&p("/")).unwrap();
        // Re-arm: power_loss disarms nothing before this point.
        sim.set_plan(FaultPlan { volatile_namespace: true, ..FaultPlan::default() });
        sim.power_loss();
        assert!(!sim.exists(&p("/tmp.meta")));
        assert_eq!(sim.read_all(&p("/store.meta")).unwrap().unwrap(), b"meta");
    }

    #[test]
    fn sim_determinism_same_seed_same_outcome() {
        let run = |seed: u64| -> Vec<u8> {
            let sim = SimVfs::new(seed);
            let mut f = sim.open(&p("/a"), OpenMode::Create).unwrap();
            f.write_at(0, b"sync").unwrap();
            f.sync().unwrap();
            for i in 0..10u8 {
                f.write_at(4 + i as u64, &[i]).unwrap();
            }
            sim.set_plan(FaultPlan { writeback: true, ..FaultPlan::default() });
            sim.power_loss();
            sim.read_all(&p("/a")).unwrap().unwrap()
        };
        assert_eq!(run(1234), run(1234));
    }
}
