//! A fixed-capacity buffer pool with clock eviction, write-behind, and
//! fault accounting.
//!
//! Every page access in the page-based backends goes through this pool.
//! A miss that must read the backing file bumps [`StorageStats::faults`]
//! — the benchmark's simulated `majflt` — and, for Texas-style backends,
//! [`StorageStats::swizzles`] (a pointer-swizzling pass is charged each
//! time a non-resident page enters the resident set).
//!
//! Two kinds of lock, and a rule about each (see `DESIGN.md`, "Buffer
//! pool & write-behind"):
//!
//! * The **page table** (which page is in which frame, the free list,
//!   the clock hand) is one short mutex. It is never held across a
//!   page-file call or a WAL wait, so a hit on one page proceeds while
//!   another page faults.
//! * Each **frame** has a latch guarding its bytes; page-file I/O for a
//!   frame runs under that frame's latch alone. A frame is *pinned*
//!   (under the table lock) before its latch is taken, and eviction
//!   only considers unpinned frames — so a latch taken under the table
//!   lock is always free, and the table lock never waits on I/O.
//!
//! Every page write — eviction, write-behind, checkpoint flush — goes
//! through one function, [`BufferPool::write_back`], which is where the
//! write-ahead rule lives: a dirty frame may reach the data file only
//! once the log is durable up to the frame's stamp.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::error::Result;
use crate::ids::PageId;
use crate::lock_order::{self, Ranked};
use crate::pagefile::PageFile;
use crate::stats::StorageStats;
use crate::wal::Wal;
use crate::PAGE_PAYLOAD;

/// The latched part of a frame.
struct FrameBuf {
    /// The page whose payload `data` holds. `None` while a load is in
    /// flight and after a load failed: a thread that pinned the frame
    /// for page `p` and then finds anything but `Some(p)` here goes back
    /// to the page table.
    page: Option<PageId>,
    /// Frames hold page *payloads*; the page file owns the physical
    /// verification header.
    data: Box<[u8]>,
}

/// One buffer frame. `dirty` and `stamp` are written only under the
/// latch (Release) and may be read without it (Acquire) as a hint; with
/// the frame unpinned under the table lock nobody holds or can take the
/// latch, so there the hint is exact.
struct Frame {
    buf: Mutex<FrameBuf>,
    /// Threads using or about to use the frame. Raised only under the
    /// table lock, dropped (Release) after the latch is released — so
    /// zero, read (Acquire) under the table lock, means the latch is
    /// free and stays free until the table lock is released.
    pins: AtomicU32,
    dirty: AtomicBool,
    /// [`Wal::appended`] when the frame was last dirtied: the log must
    /// be durable up to here before the frame may be written.
    stamp: AtomicU64,
}

impl Frame {
    /// Latch the frame (rank [`lock_order::BUFFER_FRAME`]). The guard is
    /// held across this frame's page-file I/O and nothing else that
    /// blocks.
    fn latch(&self) -> Ranked<MutexGuard<'_, FrameBuf>> {
        lock_order::ranked(lock_order::BUFFER_FRAME, || self.buf.lock())
    }
}

/// A pin on a frame, released on drop.
struct FramePin<'a>(&'a Frame);

impl Drop for FramePin<'_> {
    fn drop(&mut self) {
        self.0.pins.fetch_sub(1, Ordering::Release);
    }
}

/// A latched, pinned frame holding the wanted page. Field order is drop
/// order: the latch goes before the pin, which is what makes "unpinned"
/// imply "unlatched".
struct Held<'a> {
    buf: Ranked<MutexGuard<'a, FrameBuf>>,
    pin: FramePin<'a>,
}

#[derive(Clone, Copy, Default)]
struct Slot {
    /// The page the table maps to this frame.
    page: Option<PageId>,
    refbit: bool,
}

/// Everything the table lock guards.
struct PageTable {
    map: HashMap<u32, usize>,
    slots: Vec<Slot>,
    /// Frames that hold no page. A frame whose load failed is not put
    /// back here; the clock sweep finds it (no page, unpinned) once the
    /// list is empty.
    free: Vec<usize>,
    hand: usize,
}

impl PageTable {
    /// Frame indices come from `0..capacity`, the length of `slots`.
    fn slot(&mut self, idx: usize) -> &mut Slot {
        &mut self.slots[idx]
    }
}

/// How hard a write-behind round must try.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Want {
    /// Ahead of need: write what the gate allows; for the rest, ask the
    /// log-writer for a sync and move on.
    Ahead,
    /// The clean sweep ran dry: come back with at least one frame
    /// written, waiting for the log if nothing passes the gate.
    OneFrame,
    /// Checkpoint flush: every picked frame must be written.
    All,
}

/// The buffer pool. Page contents are only accessible through the
/// closure-based [`BufferPool::with_page`] / [`BufferPool::with_page_mut`]
/// / [`BufferPool::with_new_page`], which run under the frame's latch
/// with the frame pinned — so a frame can never be evicted while in use.
pub struct BufferPool {
    table: Mutex<PageTable>,
    frames: Box<[Frame]>,
    file: Arc<PageFile>,
    /// The log whose durability gates page writes; `None` for backends
    /// without one (the gate is then always open).
    wal: Option<Arc<Wal>>,
    stats: Arc<StorageStats>,
    count_swizzles: bool,
    dirty_frames: AtomicUsize,
    /// Highest stamp a sync has been requested for. While the synced
    /// watermark is below it, another ahead-of-need round would find the
    /// same frames still gated.
    awaited: AtomicU64,
    /// Write-behind starts once fewer than this many frames are clean.
    reserve: usize,
    /// Frames written per write-behind round, behind at most one sync.
    batch: usize,
}

impl BufferPool {
    /// Create a pool of `capacity` frames over `file`. Page writes wait
    /// for `wal`, when there is one, to be durable up to the frame's
    /// stamp.
    ///
    /// `count_swizzles` enables the Texas-style swizzle counter.
    pub fn new(
        file: Arc<PageFile>,
        stats: Arc<StorageStats>,
        capacity: usize,
        count_swizzles: bool,
        wal: Option<Arc<Wal>>,
    ) -> Self {
        let capacity = capacity.max(2);
        let frames = (0..capacity)
            .map(|_| Frame {
                buf: Mutex::new(FrameBuf {
                    page: None,
                    data: vec![0u8; PAGE_PAYLOAD].into_boxed_slice(),
                }),
                pins: AtomicU32::new(0),
                dirty: AtomicBool::new(false),
                stamp: AtomicU64::new(0),
            })
            .collect();
        // A round is long enough to amortize a sync and short enough
        // that the faulting thread running it is not away for long; the
        // reserve leaves the log-writer time to land the sync a round
        // asked for before the clean frames run out.
        let batch = (capacity / 16).clamp(1, 64);
        BufferPool {
            table: Mutex::new(PageTable {
                map: HashMap::new(),
                slots: vec![Slot::default(); capacity],
                free: (0..capacity).rev().collect(),
                hand: 0,
            }),
            frames,
            file,
            wal,
            stats,
            count_swizzles,
            dirty_frames: AtomicUsize::new(0),
            awaited: AtomicU64::new(0),
            reserve: (2 * batch).min(capacity / 2),
            batch,
        }
    }

    /// Lock the page table with rank tracking.
    fn table_lock(&self) -> Ranked<MutexGuard<'_, PageTable>> {
        lock_order::ranked(lock_order::BUFFER_POOL, || self.table.lock())
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Frames currently dirty. Zero after a [`BufferPool::flush_all`]
    /// that nothing raced.
    pub fn dirty_frames(&self) -> usize {
        self.dirty_frames.load(Ordering::Acquire)
    }

    /// Frame indices come from `0..capacity`, the length of `frames`.
    fn frame(&self, idx: usize) -> &Frame {
        &self.frames[idx]
    }

    /// Pin a frame. The caller holds the table lock.
    fn pin<'a>(&self, frame: &'a Frame) -> FramePin<'a> {
        frame.pins.fetch_add(1, Ordering::AcqRel);
        FramePin(frame)
    }

    /// The frame, if no thread is using it. The caller holds the table
    /// lock, so the answer stands until that lock is released.
    fn unpinned(&self, idx: usize) -> Option<&Frame> {
        Some(self.frame(idx)).filter(|f| f.pins.load(Ordering::Acquire) == 0)
    }

    /// Find a frame that can take a new page without any I/O: a free
    /// one, else the first clean, unpinned, unreferenced frame the clock
    /// reaches (dirty frames are passed over, refbits untouched — making
    /// them clean is [`BufferPool::write_behind`]'s job). The returned
    /// frame is unmapped. `None` when two sweeps find nothing.
    fn take_frame(&self, table: &mut PageTable) -> Option<usize> {
        if let Some(idx) = table.free.pop() {
            return Some(idx);
        }
        let n = self.frames.len();
        for _ in 0..2 * n {
            let idx = table.hand;
            table.hand = (idx + 1) % n;
            let Some(frame) = self.unpinned(idx) else { continue };
            if frame.dirty.load(Ordering::Acquire) {
                continue;
            }
            let slot = table.slot(idx);
            if slot.refbit {
                slot.refbit = false;
                continue;
            }
            if let Some(old) = slot.page.take() {
                table.map.remove(&old.0);
            }
            return Some(idx);
        }
        None
    }

    /// Pin and latch the frame holding `pid`, faulting the page in if
    /// needed (`load` = read it from the file; otherwise it is a freshly
    /// allocated page, logically zero). Also reports whether this was a
    /// fault.
    fn acquire(&self, pid: PageId, load: bool) -> Result<(Held<'_>, bool)> {
        let mut counted = false;
        loop {
            let mut table = self.table_lock();
            if let Some(&idx) = table.map.get(&pid.0) {
                table.slot(idx).refbit = true;
                let pin = self.pin(self.frame(idx));
                drop(table);
                // May wait behind I/O on this frame — and on nothing else.
                let buf = pin.0.latch();
                if buf.page == Some(pid) {
                    if !counted {
                        StorageStats::bump(&self.stats.hits, 1);
                    }
                    return Ok((Held { buf, pin }, counted));
                }
                // The load this thread queued behind failed; start over.
                continue;
            }
            if !counted {
                counted = true;
                StorageStats::bump(&self.stats.faults, 1);
                if self.count_swizzles {
                    StorageStats::bump(&self.stats.swizzles, 1);
                }
            }
            let Some(idx) = self.take_frame(&mut table) else {
                // Every unpinned, unreferenced frame is dirty.
                drop(table);
                self.write_behind(Want::OneFrame)?;
                continue;
            };
            let pin = self.pin(self.frame(idx));
            table.map.insert(pid.0, idx);
            *table.slot(idx) = Slot { page: Some(pid), refbit: true };
            // The frame was unpinned under the table lock, so this latch
            // is free; later arrivals for `pid` queue on it, not on the
            // table.
            let mut buf = pin.0.latch();
            drop(table);
            buf.page = None;
            let loaded = if load {
                // analyzer: allow(blocking, "the frame latch is the I/O latch: only threads wanting this very page wait behind the read")
                self.file.read_page(pid, &mut buf.data).map(|_| ())
            } else {
                buf.data.fill(0);
                Ok(())
            };
            if let Err(e) = loaded {
                drop(buf);
                self.abandon(idx, pid);
                return Err(e);
            }
            buf.page = Some(pid);
            return Ok((Held { buf, pin }, true));
        }
    }

    /// Unmap a frame whose load failed. It holds no page and is on no
    /// list; the clock sweep reuses it.
    fn abandon(&self, idx: usize, pid: PageId) {
        let mut table = self.table_lock();
        if table.map.get(&pid.0) == Some(&idx) {
            table.map.remove(&pid.0);
        }
        *table.slot(idx) = Slot::default();
    }

    /// Record, under the frame's latch, that its bytes changed.
    fn mark_dirty(&self, frame: &Frame) {
        if let Some(wal) = &self.wal {
            frame.stamp.store(wal.appended(), Ordering::Release);
        }
        if !frame.dirty.swap(true, Ordering::AcqRel) {
            self.dirty_frames.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// The write-ahead rule, and the only place a frame is written to
    /// the data file: a dirty frame may be written iff the log is
    /// durable up to the frame's stamp — every record describing the
    /// frame's contents, undo images included, would survive a crash
    /// that the page write also survives. Called with the frame's latch
    /// held (`buf` is its guard's target). Returns `None` when the frame
    /// is clean on return, or the stamp the log must reach first.
    fn write_back(&self, frame: &Frame, buf: &FrameBuf) -> Result<Option<u64>> {
        let Some(pid) = buf.page.filter(|_| frame.dirty.load(Ordering::Acquire)) else {
            return Ok(None);
        };
        let stamp = frame.stamp.load(Ordering::Acquire);
        if self.wal.as_ref().is_some_and(|wal| stamp > wal.synced()) {
            return Ok(Some(stamp));
        }
        // analyzer: allow(blocking, "write_back runs under the frame's latch, which is the I/O latch; the page table is not held")
        self.file.write_page(pid, &buf.data)?;
        frame.dirty.store(false, Ordering::Release);
        self.dirty_frames.fetch_sub(1, Ordering::AcqRel);
        Ok(None)
    }

    /// Pin up to a batch of cold dirty frames, in clock order from the
    /// hand (which stays put, so the clean sweep finds them first once
    /// written). Referenced frames get their second chance here: the
    /// bit is cleared and the frame passed over, for one lap ahead of
    /// need and two when a frame must be had.
    fn pick_cold(&self, laps: usize) -> Vec<FramePin<'_>> {
        let mut table = self.table_lock();
        let n = self.frames.len();
        let mut picked = Vec::with_capacity(self.batch);
        let mut idx = table.hand;
        for _ in 0..laps * n {
            if picked.len() == self.batch {
                break;
            }
            let here = idx;
            idx = (idx + 1) % n;
            let Some(frame) = self.unpinned(here) else { continue };
            if !frame.dirty.load(Ordering::Acquire) {
                continue;
            }
            let slot = table.slot(here);
            if slot.refbit {
                slot.refbit = false;
                continue;
            }
            picked.push(self.pin(frame));
        }
        picked
    }

    /// Write pinned frames through the gate. Frames the gate holds back
    /// are handled per `want`: the only blocking on the log is here, and
    /// only for [`Want::OneFrame`] with nothing written or [`Want::All`].
    fn write_pinned(&self, picked: &[FramePin<'_>], want: Want) -> Result<()> {
        let mut written = 0usize;
        loop {
            let mut gated = 0u64;
            for pin in picked {
                if !pin.0.dirty.load(Ordering::Acquire) {
                    continue;
                }
                let buf = pin.0.latch();
                match self.write_back(pin.0, &buf)? {
                    None => written += 1,
                    Some(stamp) => gated = gated.max(stamp),
                }
            }
            let Some(wal) = self.wal.as_ref().filter(|_| gated > 0) else {
                return Ok(());
            };
            if want == Want::Ahead || (want == Want::OneFrame && written > 0) {
                if self.awaited.fetch_max(gated, Ordering::AcqRel) < gated {
                    wal.request_sync();
                }
                return Ok(());
            }
            // One sync for the whole batch; then the gate lets it through
            // (a frame re-dirtied meanwhile goes around again).
            wal.wait_synced(gated)?;
        }
    }

    /// Make cold dirty frames clean: a batch of page writes behind at
    /// most one log sync.
    fn write_behind(&self, want: Want) -> Result<()> {
        let picked = self.pick_cold(if want == Want::Ahead { 1 } else { 2 });
        if picked.is_empty() && want != Want::Ahead {
            // Two laps found no candidate: every frame is pinned by some
            // other thread mid-access. Let one finish.
            std::thread::yield_now();
        }
        self.write_pinned(&picked, want)
    }

    /// After a fault: if clean frames are running low, write a batch
    /// behind now so the next faults find clean victims and never wait
    /// for the log. Best effort — an I/O error stays with its frame
    /// (still dirty) and surfaces on the path that must have the frame.
    fn keep_reserve(&self) {
        let low = self.dirty_frames() + self.reserve > self.frames.len();
        let landed = self
            .wal
            .as_ref()
            .is_none_or(|wal| wal.synced() >= self.awaited.load(Ordering::Acquire));
        if low && landed {
            let _ = self.write_behind(Want::Ahead);
        }
    }

    /// Run `f` with read access to page `pid`, faulting it in if needed.
    pub fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let (held, faulted) = self.acquire(pid, true)?;
        let out = f(&held.buf.data);
        drop(held);
        if faulted {
            self.keep_reserve();
        }
        Ok(out)
    }

    fn with_dirtied<R>(
        &self,
        pid: PageId,
        load: bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R> {
        let (mut held, faulted) = self.acquire(pid, load)?;
        let out = f(&mut held.buf.data);
        self.mark_dirty(held.pin.0);
        drop(held);
        if faulted {
            self.keep_reserve();
        }
        Ok(out)
    }

    /// Run `f` with write access to page `pid`, marking it dirty.
    pub fn with_page_mut<R>(&self, pid: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        self.with_dirtied(pid, true, f)
    }

    /// Materialize a freshly allocated page without reading the file
    /// (it is logically all-zero), run `f` on it, and mark it dirty.
    pub fn with_new_page<R>(&self, pid: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        self.with_dirtied(pid, false, f)
    }

    /// Write every frame that is dirty now back to the file (checkpoint
    /// support): one wait for the log to cover the highest stamp among
    /// them, then the writes, in page order — ascending file offsets.
    /// With writers quiesced no frame is dirty on return.
    pub fn flush_all(&self) -> Result<()> {
        let mut picked: Vec<(Option<PageId>, FramePin<'_>)> = {
            let table = self.table_lock();
            self.frames
                .iter()
                .zip(&table.slots)
                .filter(|(frame, _)| frame.dirty.load(Ordering::Acquire))
                .map(|(frame, slot)| (slot.page, self.pin(frame)))
                .collect()
        };
        picked.sort_unstable_by_key(|(page, _)| *page);
        let picked: Vec<FramePin<'_>> = picked.into_iter().map(|(_, pin)| pin).collect();
        self.write_pinned(&picked, Want::All)
    }

    /// Flush everything and drop all frames — makes the next accesses
    /// cold. Used by the clustering ablation to measure cold-cache reads.
    ///
    /// A frame is dropped only if, under the table lock, it is unpinned
    /// and clean: one that a concurrent writer dirtied after the flush
    /// stays resident rather than losing the write.
    pub fn clear(&self) -> Result<()> {
        self.flush_all()?;
        let mut table = self.table_lock();
        for idx in 0..self.frames.len() {
            let Some(frame) = self.unpinned(idx) else { continue };
            if frame.dirty.load(Ordering::Acquire) {
                continue;
            }
            if let Some(old) = table.slot(idx).page.take() {
                table.map.remove(&old.0);
                table.free.push(idx);
            }
        }
        Ok(())
    }

    /// How many distinct pages are currently resident.
    pub fn resident(&self) -> usize {
        self.table_lock().map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;
    use crate::ids::Oid;
    use crate::page;
    use crate::pagefile::PageRead;
    use crate::vfs::{FaultPlan, OpenMode, RealVfs, SimVfs, Vfs, VfsFile};
    use crate::wal::WalRecord;
    use std::collections::HashSet;
    use std::path::Path;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    fn setup(name: &str, cap: usize) -> (Arc<PageFile>, Arc<StorageStats>, BufferPool) {
        let dir = std::env::temp_dir().join(format!("lfs-bp-{}-{}", std::process::id(), name));
        std::fs::create_dir_all(&dir).unwrap();
        let stats = Arc::new(StorageStats::default());
        let vfs = RealVfs::arc();
        let file = Arc::new(PageFile::create(&vfs, &dir.join("data.pg"), stats.clone()).unwrap());
        let pool = BufferPool::new(file.clone(), stats.clone(), cap, false, None);
        (file, stats, pool)
    }

    #[test]
    fn hit_after_miss() {
        let (file, stats, pool) = setup("hits", 4);
        let pid = file.allocate_page();
        pool.with_new_page(pid, page::init).unwrap();
        pool.with_page(pid, |_| ()).unwrap();
        pool.with_page(pid, |_| ()).unwrap();
        let s = stats.snapshot();
        assert_eq!(s.faults, 1); // only the with_new_page materialization
        assert_eq!(s.hits, 2);
        assert_eq!(s.page_reads, 0, "new page must not read the file");
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let (file, stats, pool) = setup("evict", 2);
        let pids: Vec<_> = (0..5).map(|_| file.allocate_page()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            pool.with_new_page(pid, |buf| {
                page::init(buf);
                page::insert(buf, &[i as u8; 16]).unwrap();
            })
            .unwrap();
        }
        assert!(pool.resident() <= 2);
        // Re-read everything; evicted pages must come back intact.
        for (i, &pid) in pids.iter().enumerate() {
            let val = pool
                .with_page(pid, |buf| page::read(buf, crate::ids::Slot(0)).unwrap().to_vec())
                .unwrap();
            assert_eq!(val, vec![i as u8; 16]);
        }
        let s = stats.snapshot();
        assert!(s.page_writes >= 3, "dirty evictions must hit the file");
        assert!(s.faults >= 5 + 3, "cap-2 pool re-reading 5 pages must fault");
    }

    #[test]
    fn flush_all_then_file_has_data() {
        let (file, _stats, pool) = setup("flush", 8);
        let pid = file.allocate_page();
        pool.with_new_page(pid, |buf| {
            page::init(buf);
            page::insert(buf, b"persisted").unwrap();
        })
        .unwrap();
        assert_eq!(pool.dirty_frames(), 1);
        pool.flush_all().unwrap();
        assert_eq!(pool.dirty_frames(), 0);
        let mut raw = vec![0u8; PAGE_PAYLOAD];
        file.read_page(pid, &mut raw).unwrap();
        assert_eq!(page::read(&raw, crate::ids::Slot(0)).unwrap(), b"persisted");
    }

    #[test]
    fn clear_makes_next_access_cold() {
        let (file, stats, pool) = setup("clear", 8);
        let pid = file.allocate_page();
        pool.with_new_page(pid, page::init).unwrap();
        pool.clear().unwrap();
        assert_eq!(pool.resident(), 0);
        let before = stats.snapshot();
        pool.with_page(pid, |_| ()).unwrap();
        let after = stats.snapshot();
        assert_eq!(after.delta(&before).faults, 1);
    }

    #[test]
    fn swizzle_accounting_only_when_enabled() {
        let dir = std::env::temp_dir().join(format!("lfs-bp-{}-swz", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stats = Arc::new(StorageStats::default());
        let vfs = RealVfs::arc();
        let file = Arc::new(PageFile::create(&vfs, &dir.join("d.pg"), stats.clone()).unwrap());
        let pool = BufferPool::new(file.clone(), stats.clone(), 2, true, None);
        let pid = file.allocate_page();
        pool.with_new_page(pid, page::init).unwrap();
        assert_eq!(stats.snapshot().swizzles, 1);
    }

    #[test]
    fn failed_load_leaves_the_frame_reusable() {
        // Three frames, three bad loads: each failed fault-in takes a
        // frame off the free list and orphans it; the sweep must hand
        // the orphans out again or the fourth fault finds nothing.
        let (file, _stats, pool) = setup("orphan", 3);
        let good = file.allocate_page();
        file.write_page(good, &vec![7u8; PAGE_PAYLOAD]).unwrap();
        let bad = file.allocate_page();
        file.write_page(bad, &vec![9u8; PAGE_PAYLOAD]).unwrap();
        file.quarantine(bad);
        for _ in 0..3 {
            let err = pool.with_page(bad, |_| ()).unwrap_err();
            assert!(matches!(err, StorageError::PageChecksum { .. }), "got {err}");
            assert_eq!(pool.resident(), 0, "a failed load maps nothing");
        }
        assert!(pool.with_page(good, |buf| buf.iter().all(|&b| b == 7)).unwrap());
    }

    #[test]
    fn clear_racing_a_writer_loses_no_write() {
        // A `clear` that flushes and then drops every frame in a second
        // critical section discards a frame dirtied in between. The
        // writer checks each value it reads back against the one it
        // last wrote.
        let (file, _stats, pool) = setup("clear-race", 8);
        let pool = Arc::new(pool);
        let pid = file.allocate_page();
        pool.with_new_page(pid, |buf| buf.fill(0)).unwrap();
        let start = Arc::new(std::sync::Barrier::new(2));
        let writer = {
            let (pool, start) = (pool.clone(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                for next in 1..=20_000u64 {
                    pool.with_page_mut(pid, |buf| {
                        let (head, _) = buf.split_first_chunk_mut::<8>().unwrap();
                        assert_eq!(u64::from_le_bytes(*head), next - 1, "a write was lost");
                        *head = next.to_le_bytes();
                    })
                    .unwrap();
                }
            })
        };
        start.wait();
        while !writer.is_finished() {
            pool.clear().unwrap();
        }
        writer.join().unwrap();
        pool.clear().unwrap();
        assert_eq!(pool.dirty_frames(), 0);
        assert_eq!(pool.resident(), 0);
        let mut raw = vec![0u8; PAGE_PAYLOAD];
        assert_eq!(file.read_page(pid, &mut raw).unwrap(), PageRead::Loaded);
        assert_eq!(u64::from_le_bytes(*raw.first_chunk::<8>().unwrap()), 20_000);
    }

    /// A `Vfs` whose reads at one chosen offset park until released: the
    /// "slow disk" under a single page.
    struct GatedVfs {
        inner: Arc<dyn Vfs>,
        gate: Arc<Gate>,
    }

    struct Gate {
        slow_offset: AtomicU64,
        entered: Mutex<mpsc::Sender<()>>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    struct GatedFile {
        inner: Box<dyn VfsFile>,
        gate: Arc<Gate>,
    }

    impl VfsFile for GatedFile {
        fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<()> {
            if offset == self.gate.slow_offset.load(Ordering::Acquire) {
                self.gate.entered.lock().send(()).unwrap();
                self.gate.release.lock().recv().unwrap();
            }
            self.inner.read_at(offset, buf)
        }
        fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<()> {
            self.inner.write_at(offset, data)
        }
        fn set_len(&mut self, len: u64) -> Result<()> {
            self.inner.set_len(len)
        }
        fn len(&mut self) -> Result<u64> {
            self.inner.len()
        }
        fn sync(&mut self) -> Result<()> {
            self.inner.sync()
        }
    }

    impl Vfs for GatedVfs {
        fn open(&self, path: &Path, mode: OpenMode) -> Result<Box<dyn VfsFile>> {
            let inner = self.inner.open(path, mode)?;
            Ok(Box::new(GatedFile { inner, gate: self.gate.clone() }))
        }
        fn read_all(&self, path: &Path) -> Result<Option<Vec<u8>>> {
            self.inner.read_all(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> Result<()> {
            self.inner.rename(from, to)
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
        fn size(&self, path: &Path) -> Result<Option<u64>> {
            self.inner.size(path)
        }
        fn create_dir_all(&self, path: &Path) -> Result<()> {
            self.inner.create_dir_all(path)
        }
    }

    #[test]
    fn a_slow_fault_does_not_block_a_hit_on_another_page() {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let gate = Arc::new(Gate {
            slow_offset: AtomicU64::new(u64::MAX),
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
        });
        let vfs: Arc<dyn Vfs> =
            Arc::new(GatedVfs { inner: Arc::new(SimVfs::new(1)), gate: gate.clone() });
        let stats = Arc::new(StorageStats::default());
        let file =
            Arc::new(PageFile::create(&vfs, Path::new("/sim/data.pg"), stats.clone()).unwrap());
        let pool = Arc::new(BufferPool::new(file.clone(), stats.clone(), 4, false, None));
        let (fast, slow) = (file.allocate_page(), file.allocate_page());
        pool.with_new_page(fast, |buf| buf.fill(1)).unwrap();
        pool.with_new_page(slow, |buf| buf.fill(2)).unwrap();
        pool.clear().unwrap();
        pool.with_page(fast, |_| ()).unwrap(); // resident again
        gate.slow_offset.store(u64::from(slow.0) * crate::PAGE_SIZE as u64, Ordering::Release);

        let faulting = {
            let pool = pool.clone();
            std::thread::spawn(move || pool.with_page(slow, |buf| buf.iter().all(|&b| b == 2)))
        };
        // The fault is now parked inside its read, holding that frame's
        // latch (and the page file) — but not the page table.
        entered_rx.recv().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let hitting = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let ok = pool.with_page(fast, |buf| buf.iter().all(|&b| b == 1));
                let dirtied = pool.with_page_mut(fast, |buf| buf.fill(3));
                done_tx.send((ok, dirtied)).unwrap();
            })
        };
        let (read, wrote) = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a hit on a resident page waited for another page's fault");
        assert!(read.unwrap());
        wrote.unwrap();
        release_tx.send(()).unwrap();
        assert!(faulting.join().unwrap().unwrap());
        hitting.join().unwrap();
        assert_eq!(stats.snapshot().hits, 2, "both accesses to the resident page were hits");
    }

    // -- the write-ahead gate, against a simulated disk ------------------

    const DATA: &str = "/sim/data.pg";
    const LOG: &str = "/sim/wal.log";

    struct Rig {
        sim: SimVfs,
        wal: Arc<Wal>,
        file: Arc<PageFile>,
        stats: Arc<StorageStats>,
        pool: BufferPool,
    }

    fn rig(seed: u64, cap: usize) -> Rig {
        let sim = SimVfs::new(seed);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let stats = Arc::new(StorageStats::default());
        let wal = Arc::new(Wal::create(&vfs, Path::new(LOG), stats.clone()).unwrap());
        let file = Arc::new(PageFile::create(&vfs, Path::new(DATA), stats.clone()).unwrap());
        let pool = BufferPool::new(file.clone(), stats.clone(), cap, false, Some(wal.clone()));
        Rig { sim, wal, file, stats, pool }
    }

    impl Rig {
        /// Log change `k`, then apply it to `pid` — the order `update`
        /// and `free` use. The page carries `k` in its first bytes.
        fn change(&self, pid: PageId, k: u64, new_page: bool) -> Result<()> {
            self.wal.append(&WalRecord::Update {
                txn: k,
                oid: Oid::from_raw(u64::from(pid.0)),
                data: k.to_le_bytes().to_vec(),
                old: Vec::new(),
            })?;
            let apply = |buf: &mut [u8]| {
                if let Some(head) = buf.first_chunk_mut::<8>() {
                    *head = k.to_le_bytes();
                }
            };
            if new_page {
                self.pool.with_new_page(pid, apply)
            } else {
                self.pool.with_page_mut(pid, apply)
            }
        }

        /// Wait for a requested sync to land; `false` if the machine
        /// died first (nobody parks on an async request, so the only
        /// things to watch are the watermark and the power).
        fn wait_for_sync(&self, mark: u64) -> bool {
            let deadline = Instant::now() + Duration::from_secs(20);
            while self.wal.synced() < mark {
                if self.sim.crashed() {
                    return false;
                }
                assert!(Instant::now() < deadline, "the requested sync never landed");
                std::thread::yield_now();
            }
            true
        }
    }

    /// The write-ahead rule, checked against what survived: every page
    /// image in the durable data file carries a change whose log record
    /// is in the durable log.
    fn assert_no_page_is_ahead_of_the_log(sim: &SimVfs, ctx: &str) {
        let durable: Arc<dyn Vfs> = Arc::new(sim.clone_durable());
        let logged: HashSet<u64> = Wal::replay(&durable, Path::new(LOG))
            .unwrap()
            .records
            .iter()
            .map(WalRecord::txn)
            .collect();
        let file =
            PageFile::open(&durable, Path::new(DATA), Arc::new(StorageStats::default())).unwrap();
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        for raw in 0..file.page_count() {
            if file.read_page(PageId(raw), &mut buf).unwrap() == PageRead::Loaded {
                let k = u64::from_le_bytes(*buf.first_chunk::<8>().unwrap());
                assert!(
                    logged.contains(&k),
                    "{ctx}: page {raw} reached the disk carrying change {k}, \
                     whose log record did not"
                );
            }
        }
    }

    /// Run `scenario` fault-free to count its file operations, then once
    /// per operation with the plug pulled there (unsynced writes may or
    /// may not have reached the platter), checking the rule each time.
    fn sweep_crashes(cap: usize, scenario: impl Fn(&Rig) -> Result<()>) {
        for seed in 0..8u64 {
            let dry = rig(seed, cap);
            let first = dry.sim.op_count();
            scenario(&dry).unwrap();
            assert!(dry.stats.snapshot().page_writes > 0, "the scenario must write pages");
            let last = dry.sim.op_count();
            for crash_at in first..last + 2 {
                let r = rig(seed, cap);
                r.sim.set_plan(FaultPlan {
                    crash_at_op: Some(crash_at),
                    writeback: true,
                    ..FaultPlan::default()
                });
                let _ = scenario(&r);
                r.sim.power_loss();
                assert_no_page_is_ahead_of_the_log(&r.sim, &format!("seed {seed}, op {crash_at}"));
            }
        }
    }

    #[test]
    fn gated_frames_wait_for_the_requested_sync() {
        let r = rig(3, 32);
        let pids: Vec<PageId> = (0..8).map(|_| r.file.allocate_page()).collect();
        for (k, &pid) in pids.iter().enumerate() {
            r.change(pid, k as u64 + 1, true).unwrap();
        }
        let mark = r.wal.appended();
        assert!(r.wal.synced() < mark);
        // Freshly touched frames get their second chance first; the next
        // round picks them. Nothing is durable yet, so it may not write
        // a single frame: it asks for a sync and returns without waiting.
        r.pool.write_behind(Want::Ahead).unwrap();
        r.pool.write_behind(Want::Ahead).unwrap();
        assert_eq!(r.stats.snapshot().page_writes, 0, "a frame was written ahead of its log");
        assert_eq!(r.pool.dirty_frames(), 8);
        assert!(r.wait_for_sync(mark));
        // The same round again, now that the log has caught up.
        r.pool.write_behind(Want::Ahead).unwrap();
        assert_eq!(r.stats.snapshot().page_writes, r.pool.batch as u64);
        assert_eq!(r.pool.dirty_frames(), 8 - r.pool.batch);
        // A checkpoint flush takes the rest, leaving nothing dirty.
        r.pool.flush_all().unwrap();
        assert_eq!(r.pool.dirty_frames(), 0);
        assert_eq!(r.stats.snapshot().page_writes, 8);
    }

    #[test]
    fn crash_between_async_sync_request_and_first_page_write() {
        // Ahead of need: the round finds every frame gated, asks the
        // log-writer for a sync, and a later round writes the batch.
        sweep_crashes(32, |r| {
            let pids: Vec<PageId> = (0..12).map(|_| r.file.allocate_page()).collect();
            for (k, &pid) in pids.iter().enumerate() {
                r.change(pid, k as u64 + 1, true)?;
            }
            let mark = r.wal.appended();
            r.pool.write_behind(Want::Ahead)?; // second chances
            r.pool.write_behind(Want::Ahead)?; // all gated: request the sync
            if !r.wait_for_sync(mark) {
                return Ok(());
            }
            // Newer changes to the same pages ride along only if their
            // own records are durable too.
            for (k, &pid) in pids.iter().enumerate().take(4) {
                r.change(pid, 100 + k as u64, false)?;
            }
            for _ in 0..8 {
                r.pool.write_behind(Want::Ahead)?;
            }
            Ok(())
        });
    }

    #[test]
    fn crash_between_write_behind_batch_and_the_sync_it_depends_on() {
        // The clean sweep runs dry on a pool of dirty frames: the fault
        // waits for one sync, then writes a batch behind it.
        sweep_crashes(16, |r| {
            for k in 0..40u64 {
                let pid = r.file.allocate_page();
                r.change(pid, k + 1, true)?;
            }
            // Re-dirty what is resident, then fault the oldest pages
            // back in through frames that must be written first.
            for raw in 30..40u32 {
                r.change(PageId(raw), 200 + u64::from(raw), false)?;
            }
            for raw in 0..10u32 {
                r.pool.with_page(PageId(raw), |_| ())?;
            }
            Ok(())
        });
    }
}
