//! The object heap: variable-size objects on slotted pages, with an
//! object table, placement segments, client-clustering chunks, and
//! overflow chains for objects larger than a page.
//!
//! The heap is policy-parameterized so one implementation serves both
//! storage-manager personalities:
//!
//! * **segment placement** (ObjectStore-like): each [`SegmentId`] fills
//!   its own pages, so co-segment objects share pages;
//! * **address-order placement** (Texas-like): a single segment, every
//!   allocation placed on the one open page — interleaving whatever the
//!   client happens to allocate next, which is exactly the locality
//!   problem the paper measures;
//! * **client chunks** (Texas+TC): the client-code clustering of the
//!   paper's "Texas+TC" version — the client routes each allocation to a
//!   per-type chunk (keyed on the segment id the storage manager itself
//!   ignores), recovering most of the locality control ObjectStore's
//!   segments provide natively.
//!
//! Per-object overhead (`extra_header` + `align`) models the handle /
//! swizzle-entry / alignment cost that made the paper's Texas databases
//! ~48% larger than ObjectStore's.
//!
//! # Space management
//!
//! Every update writes a fresh record and leaves the old version to be
//! freed later (a pending one at once, a committed one by checkpoint
//! GC), so the heap has to write freed space again or the file grows
//! with the update count. Three rules, all in [`Heap::placement_page`]
//! and [`Heap::free_slot`] (DESIGN.md, "Space management"):
//!
//! * the fit test is [`page::fits`], the predicate `page::insert`
//!   itself decides by, so dead bytes on the open page count as room;
//! * a page whose last live record is freed — unless it is the open
//!   page, a chunk target or quarantined — leaves its segment's pages
//!   to be rewritten wholesale, unread, by the next
//!   [`Heap::take_page`]: as a slotted page at once, as an overflow
//!   chunk only after a meta flip has recorded it free
//!   ([`Heap::release_parked`]);
//! * under [`Placement::Segments`], a page a free leaves at least
//!   [`ROOMY_BYTES`] reclaimable is remembered with its room, and the
//!   lowest remembered page a record fits is reopened before the file
//!   is extended.
//!
//! # Sharding
//!
//! Heap metadata is split three ways so concurrent writers stop
//! serializing on one lock (DESIGN.md, "Heap"):
//!
//! * a **global shard** (rank 28), held *shared* by every operation for
//!   its full duration and *exclusive* only by the checkpoint quiesce
//!   ([`Heap::places`] / [`Heap::load`]);
//! * [`TABLE_SHARDS`] **object-table shards** (rank 30), oid-hashed like
//!   the lock manager's 32-way split — held exclusively by writers for
//!   a chain mutation and shared by every read for as long as it takes
//!   to resolve a version location. Each shard also lists the oids
//!   whose newest committed version moved since the last collection:
//!   checkpoint GC trims those chains and the meta delta records those
//!   oids, so a checkpoint costs what changed, not what exists;
//! * one **placement shard per segment** (rank 32): open page, page
//!   list, free list, and chunk map, so writers in different segments
//!   allocate without touching each other's locks.
//!
//! # Reads
//!
//! Every read — newest committed (`Latest`), snapshot (`At`) or a
//! transaction's own view (`For`) — holds its shard's read lock from
//! resolving the version location until the stored bytes are copied
//! out, overflow chain included. A version location is unlinked only
//! under the shard's write lock, so nothing a reader can reach is ever
//! freed. The unlinked locations wait on the shard's condemned list for
//! [`Heap::collect_garbage`], which frees them in page order so that
//! placement stays a function of the op stream.
//!
//! Every lock is acquired try-first: uncontended acquisitions cost one
//! compare-exchange, contended ones record the blocked time in the
//! calling thread's wait profile ([`crate::waits`]) and the shared
//! [`StorageStats`], plus a per-shard counter for diagnosing *which*
//! shard is hot.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::ids::{ClusterHint, Oid, PageId, SegmentId, Slot};
use crate::lock_order::{self, Ranked};
use crate::page;
use crate::pagefile::PageFile;
use crate::stats::StorageStats;
use crate::PAGE_PAYLOAD;

/// Number of oid-hashed object-table shards (matches the lock manager).
const TABLE_SHARDS: usize = 32;

/// First stored byte of an inline record. A record's kind is decided by
/// this explicit tag, never by its length word: the old scheme flagged
/// overflow headers with a length of `0xFFFF_FFFF`, which an inline
/// record's length could in principle collide with (and an all-zero
/// region decoded as an empty record instead of an error).
const TAG_INLINE: u8 = 0x1D;
/// First stored byte of an overflow header record.
const TAG_OVERFLOW: u8 = 0x2E;
/// Stored record header: tag byte + payload length word.
const RECORD_HDR: usize = 5;
/// Overflow header record: tag + total length + first page + chunk count.
const OVERFLOW_HDR: usize = 13;

/// Payload capacity of one overflow page: next-pointer + chunk length.
const OVERFLOW_CAP: usize = PAGE_PAYLOAD - 8;
/// "No next page" sentinel in overflow chains.
const NO_PAGE: u32 = 0xFFFF_FFFF;

/// A page with at least this much reclaimable after a free is worth
/// reopening for placement: a quarter of the payload.
const ROOMY_BYTES: usize = PAGE_PAYLOAD / 4;

/// Physical location of an object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Loc {
    /// Page holding the object's record (or overflow header).
    pub page: PageId,
    /// Slot within the page.
    pub slot: Slot,
    /// Segment the object was placed in.
    pub seg: SegmentId,
}

/// What one version of an object holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum VersionBody {
    /// A stored record (inline or overflow header) at this location.
    Data(Loc),
    /// A deletion marker: the object does not exist at this version.
    /// Tombstones occupy no storage — only the chain entry.
    Tombstone,
}

/// One entry in an object's version chain. `txn == 0` means committed
/// (stamped with its commit LSN); `txn != 0` means pending — visible
/// only to that transaction. The chain is newest-first and holds at most
/// one pending version, always at the head (writers are serialised per
/// object by the lock manager's exclusive locks or by single-user mode).
#[derive(Clone, Copy, Debug)]
struct Version {
    body: VersionBody,
    /// Commit LSN (0 for pending versions and for pre-history versions
    /// loaded from a checkpoint, which every snapshot can see).
    lsn: u64,
    /// Owning transaction while pending; 0 once committed.
    txn: u64,
}

/// Soft bound on committed versions per chain: commits trim beyond this
/// many where the GC floor allows, so hot objects do not accumulate
/// unbounded history between checkpoints.
const MAX_CHAIN: usize = 8;

/// Visibility rule a read resolves the chain under.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Vis {
    /// Newest committed version.
    Latest,
    /// Newest version committed at or before this LSN (snapshot read).
    At(u64),
    /// This transaction's own pending version if any, else the newest
    /// version committed at or before the LSN: `For(txn, lsn)`.
    For(u64, u64),
}

/// How allocations are placed onto pages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// One open page per segment; the client controls locality by
    /// choosing segments (ObjectStore-style).
    Segments,
    /// Strict address order in a single heap; segment ids and hints are
    /// accepted but ignored (Texas-style).
    AddressOrder,
    /// Client-side chunk clustering (Texas+TC-style): allocations are
    /// grouped into chunks keyed on the segment id, which the underlying
    /// Texas store ignores — i.e. the client reimplements type-level
    /// placement above an uncooperative store. Unlike
    /// [`Placement::Segments`], any segment id is accepted (the "schema"
    /// of chunks lives in client code, not the store).
    ClientChunks,
}

/// One segment's placement state: everything an allocation in that
/// segment needs, and nothing any other segment touches.
struct SegPlace {
    open_page: Option<PageId>,
    /// The segment's slotted pages (overflow chunk pages are reachable
    /// only through their header records).
    pages: BTreeSet<PageId>,
    /// Client-chunk targets (used only on segment 0 under
    /// [`Placement::ClientChunks`]; a placement cache, safe to drop).
    chunks: HashMap<u64, PageId>,
    /// Pages awaiting reuse by this segment: freed overflow chains, and
    /// released `parked` pages. Reuse rewrites a page wholesale without
    /// reading it, in either format.
    free_pages: Vec<PageId>,
    /// Slotted pages emptied since the last meta flip, out of `pages`
    /// and not yet in `free_pages`. The meta on disk may still name one
    /// a slotted page, even the open page, and recovery starts from
    /// that meta. So until a flip has recorded it free
    /// ([`Heap::release_parked`]) a parked page is rewritten only as a
    /// slotted page, never as an overflow chunk.
    parked: Vec<PageId>,
    /// Pages of `pages` that a free left with [`ROOMY_BYTES`] or more
    /// reclaimable, with that figure; the lowest page a record fits is
    /// reopened (an ordered map, so one op stream always grows the same
    /// file). A placement cache like `chunks`: the figure is as of the
    /// page's last free, so placement re-tests the page, and the map is
    /// not persisted.
    roomy: BTreeMap<PageId, usize>,
}

struct SegShard {
    place: Mutex<SegPlace>,
    waits: AtomicU64,
}

impl SegShard {
    fn new(place: SegPlace) -> Self {
        SegShard { place: Mutex::new(place), waits: AtomicU64::new(0) }
    }

    fn empty() -> Self {
        SegShard::new(SegPlace {
            open_page: None,
            pages: BTreeSet::new(),
            chunks: HashMap::new(),
            free_pages: Vec::new(),
            parked: Vec::new(),
            roomy: BTreeMap::new(),
        })
    }
}

/// What one object-table shard's lock guards.
#[derive(Default)]
struct Table {
    chains: HashMap<u64, Vec<Version>>,
    /// Oids whose newest committed version moved since the last
    /// [`Heap::collect_garbage`] — every path that moves one pushes here,
    /// under the write lock it already holds. Checkpoint GC trims exactly
    /// these chains and the checkpoint's meta delta records exactly these
    /// oids, so neither walks the table. Duplicates are fine.
    changed: Vec<u64>,
    /// Version locations unlinked from this shard's chains and not yet
    /// freed — pushed under the write lock that unlinks them, drained
    /// by [`Heap::collect_garbage`].
    condemned: Vec<Loc>,
}

impl Table {
    /// Record that `oid`'s newest committed version moved.
    fn note_changed(&mut self, oid: u64) {
        // With checkpoints held off the list would grow with the commit
        // count; deduplicated when it is about to grow, it is bounded by
        // the shard's object count.
        if self.changed.len() == self.changed.capacity() && self.changed.len() >= 1024 {
            self.changed.sort_unstable();
            self.changed.dedup();
        }
        self.changed.push(oid);
    }
}

struct TableShard {
    map: RwLock<Table>,
    waits: AtomicU64,
}

/// State owned by the global shard: the segment roster. Held shared by
/// every heap operation, exclusive only by the checkpoint quiesce and
/// roster replacement in [`Heap::load`].
struct HeapGlobal {
    segs: Vec<SegShard>,
}

/// Contended-acquisition counts per heap shard (diagnostics: which
/// shard is hot under a given workload).
#[derive(Debug, Clone, Default)]
pub struct HeapContention {
    /// Contended acquisitions of the global shard.
    pub global: u64,
    /// Contended acquisitions per object-table shard.
    pub table_shards: Vec<u64>,
    /// Contended acquisitions per segment placement lock.
    pub segments: Vec<u64>,
}

/// Where one segment's bytes are, from the heap's space report. For the
/// slotted pages, `live + dead + gap + dir` is exactly `pages` payloads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentSpace {
    /// Slotted pages the segment owns.
    pub pages: u64,
    /// Bytes of live records as stored (record header and per-object
    /// overhead included).
    pub live_bytes: u64,
    /// Bytes of freed records not yet compacted away.
    pub dead_bytes: u64,
    /// Bytes between slot directories and records.
    pub gap_bytes: u64,
    /// Page-header and slot-directory bytes.
    pub dir_bytes: u64,
    /// Slotted pages holding no live record.
    pub empty_pages: u64,
    /// Overflow chunk pages behind the segment's live header records.
    pub overflow_pages: u64,
    /// Pages on the segment's free list, or parked on their way to it.
    pub free_pages: u64,
}

/// The heap's placement state as a checkpoint persists it. A few bytes
/// per page, so every meta segment carries it whole.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Places {
    /// The oid allocator.
    pub next_oid: u64,
    /// Per segment: the open page, and the slotted pages it owns in
    /// ascending order.
    pub segs: Vec<(Option<PageId>, Vec<PageId>)>,
    /// Free and parked pages, concatenated in segment order.
    pub free: Vec<PageId>,
}

/// The object heap. Thread-safe; metadata sharded by oid (object table)
/// and by segment (placement state) under a global quiesce lock, page
/// contents behind the buffer pool's own lock.
///
/// Each object maps to a newest-first chain of [`Version`]s, held in one
/// place: its object-table shard. Committed versions are immutable on
/// disk: updates always write a fresh record and publish it with a
/// brief table-shard write, never mutating or freeing a committed slot
/// in place. A reader holds its shard's read lock until it has copied
/// the record out; a version is unlinked only under the shard's write
/// lock, and freed later by checkpoint GC.
pub struct Heap {
    pool: Arc<BufferPool>,
    file: Arc<PageFile>,
    stats: Arc<StorageStats>,
    global: RwLock<HeapGlobal>,
    global_waits: AtomicU64,
    table: Vec<TableShard>,
    next_oid: AtomicU64,
    placement: Placement,
    extra_header: usize,
    align: usize,
}

impl Heap {
    /// Create an empty heap with `segments` placement segments.
    pub fn new(
        pool: Arc<BufferPool>,
        file: Arc<PageFile>,
        stats: Arc<StorageStats>,
        placement: Placement,
        segments: u8,
        extra_header: usize,
        align: usize,
    ) -> Self {
        let segs = (0..segments.max(1)).map(|_| SegShard::empty()).collect();
        let table = (0..TABLE_SHARDS)
            .map(|_| TableShard { map: RwLock::new(Table::default()), waits: AtomicU64::new(0) })
            .collect();
        Heap {
            pool,
            file,
            stats,
            global: RwLock::new(HeapGlobal { segs }),
            global_waits: AtomicU64::new(0),
            table,
            next_oid: AtomicU64::new(1),
            placement,
            extra_header,
            align: align.max(1),
        }
    }

    // ---- shard acquisition ------------------------------------------------

    /// Shared hold on the global shard, taken first by every operation.
    /// Cheap (read-read never contends); its sole purpose is to let the
    /// checkpoint quiesce exclude all operations at once.
    fn global_read(&self) -> Ranked<RwLockReadGuard<'_, HeapGlobal>> {
        lock_order::ranked(lock_order::HEAP_GLOBAL, || {
            contended(&self.stats, &self.global_waits, || self.global.try_read(), || {
                self.global.read()
            })
        })
    }

    /// Exclusive hold on the global shard: a full quiesce. Every
    /// operation holds the global shard shared for its whole duration,
    /// so once this returns no operation is in flight and no shard can
    /// change until it drops.
    fn global_write(&self) -> Ranked<RwLockWriteGuard<'_, HeapGlobal>> {
        lock_order::ranked(lock_order::HEAP_GLOBAL, || {
            contended(&self.stats, &self.global_waits, || self.global.try_write(), || {
                self.global.write()
            })
        })
    }

    fn table_shard(&self, oid: u64) -> &TableShard {
        &self.table[(oid % TABLE_SHARDS as u64) as usize]
    }

    /// Shared access to the object-table shard owning `oid`,
    /// rank-checked: the guard may be held across buffer-pool and
    /// page-file acquisitions (higher ranks) but never the other way
    /// around.
    fn table_read(&self, oid: u64) -> Ranked<RwLockReadGuard<'_, Table>> {
        let sh = self.table_shard(oid);
        lock_order::ranked(lock_order::HEAP_TABLE, || {
            contended(&self.stats, &sh.waits, || sh.map.try_read(), || sh.map.read())
        })
    }

    /// Exclusive access to the object-table shard owning `oid`.
    fn table_write(&self, oid: u64) -> Ranked<RwLockWriteGuard<'_, Table>> {
        let sh = self.table_shard(oid);
        lock_order::ranked(lock_order::HEAP_TABLE, || {
            contended(&self.stats, &sh.waits, || sh.map.try_write(), || sh.map.write())
        })
    }

    /// Exclusive access to one segment's placement state.
    fn seg_lock<'g>(&self, g: &'g HeapGlobal, idx: usize) -> Ranked<MutexGuard<'g, SegPlace>> {
        let sh = &g.segs[idx];
        lock_order::ranked(lock_order::HEAP_SEGMENT, || {
            contended(&self.stats, &sh.waits, || sh.place.try_lock(), || sh.place.lock())
        })
    }

    /// Map a client segment id to the physical segment index under the
    /// current placement policy.
    fn resolve_seg(&self, g: &HeapGlobal, seg: SegmentId) -> Result<usize> {
        match self.placement {
            Placement::Segments => {
                if (seg.0 as usize) >= g.segs.len() {
                    return Err(StorageError::UnknownSegment(seg.0));
                }
                Ok(seg.0 as usize)
            }
            // Texas ignores the client's segments entirely.
            Placement::AddressOrder | Placement::ClientChunks => Ok(0),
        }
    }

    /// Contended-acquisition counts per shard.
    pub fn contention(&self) -> HeapContention {
        let g = self.global_read();
        HeapContention {
            global: self.global_waits.load(Ordering::Relaxed),
            table_shards: self.table.iter().map(|s| s.waits.load(Ordering::Relaxed)).collect(),
            segments: g.segs.iter().map(|s| s.waits.load(Ordering::Relaxed)).collect(),
        }
    }

    // ---- record codec -----------------------------------------------------

    /// Stored size (including simulated per-object overhead) of a payload.
    fn stored_len(&self, payload: usize) -> usize {
        let raw = RECORD_HDR + self.extra_header + payload;
        raw.div_ceil(self.align) * self.align
    }

    fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; self.stored_len(payload.len())];
        out[0] = TAG_INLINE;
        out[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        let start = RECORD_HDR + self.extra_header;
        out[start..start + payload.len()].copy_from_slice(payload);
        out
    }

    fn decode(&self, stored: &[u8]) -> Result<Vec<u8>> {
        if stored.len() < RECORD_HDR {
            return Err(StorageError::Corrupt("record shorter than header".into()));
        }
        if stored[0] != TAG_INLINE {
            return Err(StorageError::Corrupt(format!("unknown record tag {:#04x}", stored[0])));
        }
        let len = u32::from_le_bytes([stored[1], stored[2], stored[3], stored[4]]) as usize;
        let start = RECORD_HDR + self.extra_header;
        let end = start.checked_add(len).ok_or_else(|| {
            StorageError::Corrupt(format!("record length {len} overflows addressing"))
        })?;
        stored.get(start..end).map(<[u8]>::to_vec).ok_or_else(|| {
            StorageError::Corrupt(format!(
                "record length {len} exceeds stored bytes {}",
                stored.len()
            ))
        })
    }

    fn is_overflow(stored: &[u8]) -> bool {
        stored.first() == Some(&TAG_OVERFLOW)
    }

    /// Build the stored bytes for `payload` — inline, or an overflow
    /// chain written into `place`'s segment with its header returned.
    fn build_stored(&self, place: &mut SegPlace, payload: &[u8]) -> Result<Vec<u8>> {
        // The length word is 32 bits; anything at or above the marker
        // range cannot be represented.
        if payload.len() >= u32::MAX as usize {
            return Err(StorageError::ObjectTooLarge(payload.len()));
        }
        if self.stored_len(payload.len()) > page::MAX_RECORD {
            self.write_overflow(place, payload)
        } else {
            Ok(self.encode(payload))
        }
    }

    // ---- page placement ---------------------------------------------------

    /// A page to rewrite wholesale, unread. A parked page is taken only
    /// to stay slotted.
    fn take_page(&self, place: &mut SegPlace, slotted: bool) -> PageId {
        let parked = if slotted { place.parked.pop() } else { None };
        parked.or_else(|| place.free_pages.pop()).unwrap_or_else(|| self.file.allocate_page())
    }

    /// Pick the page an allocation of `need` stored bytes should go to:
    /// the segment's target page if the record fits it, else a roomy
    /// page, else a free or new one. Returns `(page, fresh)`.
    fn placement_page(
        &self,
        place: &mut SegPlace,
        seg: SegmentId,
        hint: ClusterHint,
        need: usize,
    ) -> Result<(PageId, bool)> {
        let _ = hint; // advisory only; the TC policy clusters by type
        let chunk = (self.placement == Placement::ClientChunks).then_some(1 + seg.0 as u64);
        let target = match chunk {
            Some(key) => place.chunks.get(&key).copied(),
            None => place.open_page,
        };
        if let Some(pid) = target {
            if self.pool.with_page(pid, |buf| page::fits(buf, need))? {
                return Ok((pid, false));
            }
        }
        // Empty unless placement is by segment. Pages with too little
        // room for this record are passed over unread and stay. A look
        // that fails found a stale entry: it is corrected (fits said no,
        // so the true figure is below `need` plus a slot entry and the
        // scan cannot pick the page again), or dropped if the page is
        // no longer roomy or cannot be read.
        let enough = need + page::SLOT_BYTES;
        let lowest_fit = |roomy: &BTreeMap<PageId, usize>| {
            roomy.iter().find_map(|(&pid, &room)| (room >= enough).then_some(pid))
        };
        while let Some(pid) = lowest_fit(&place.roomy) {
            place.roomy.remove(&pid);
            match self.pool.with_page(pid, |buf| (page::fits(buf, need), page::reclaimable(buf))) {
                Ok((true, _)) => {
                    place.open_page = Some(pid);
                    StorageStats::bump(&self.stats.pages_refilled, 1);
                    return Ok((pid, false));
                }
                Ok((false, room)) if room >= ROOMY_BYTES => {
                    place.roomy.insert(pid, room);
                }
                _ => {}
            }
        }
        let pid = self.take_page(place, true);
        match chunk {
            Some(key) => {
                place.chunks.insert(key, pid);
            }
            None => place.open_page = Some(pid),
        }
        place.pages.insert(pid);
        Ok((pid, true))
    }

    fn write_record(
        &self,
        place: &mut SegPlace,
        seg: SegmentId,
        hint: ClusterHint,
        stored: &[u8],
    ) -> Result<(PageId, Slot)> {
        let (pid, fresh) = self.placement_page(place, seg, hint, stored.len())?;
        let slot = if fresh {
            self.pool.with_new_page(pid, |buf| {
                page::init(buf);
                page::insert(buf, stored)
            })?
        } else {
            self.pool.with_page_mut(pid, |buf| page::insert(buf, stored))?
        };
        match slot {
            Some(s) => Ok((pid, s)),
            None => Err(StorageError::Corrupt(format!(
                "placement chose page {pid} without room for {} bytes",
                stored.len()
            ))),
        }
    }

    /// Write an overflow chain for `payload`, returning the header
    /// record to store in the object's slot.
    fn write_overflow(&self, place: &mut SegPlace, payload: &[u8]) -> Result<Vec<u8>> {
        let mut chunk_pages: Vec<PageId> = Vec::new();
        let n = payload.len().div_ceil(OVERFLOW_CAP).max(1);
        for _ in 0..n {
            chunk_pages.push(self.take_page(place, false));
        }
        for (i, (chunk, &pid)) in payload.chunks(OVERFLOW_CAP).zip(&chunk_pages).enumerate() {
            let next = chunk_pages.get(i + 1).map_or(NO_PAGE, |p| p.0);
            self.pool.with_new_page(pid, |buf| {
                buf[0..4].copy_from_slice(&next.to_le_bytes());
                buf[4..8].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
                buf[8..8 + chunk.len()].copy_from_slice(chunk);
            })?;
        }
        if payload.is_empty() {
            // n was forced to 1; write an empty chunk page.
            let pid = chunk_pages[0];
            self.pool.with_new_page(pid, |buf| {
                buf[0..4].copy_from_slice(&NO_PAGE.to_le_bytes());
                buf[4..8].copy_from_slice(&0u32.to_le_bytes());
            })?;
        }
        let mut header = Vec::with_capacity(OVERFLOW_HDR);
        header.push(TAG_OVERFLOW);
        header.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        header.extend_from_slice(&chunk_pages[0].0.to_le_bytes());
        header.extend_from_slice(&(chunk_pages.len() as u32).to_le_bytes());
        Ok(header)
    }

    fn read_overflow(&self, header: &[u8]) -> Result<Vec<u8>> {
        if header.len() < OVERFLOW_HDR {
            return Err(StorageError::Corrupt("short overflow header".into()));
        }
        let total = le_u32_at(header, 1)? as usize;
        let mut pid = le_u32_at(header, 5)?;
        // The header records the chain length; a corrupt next-pointer
        // that slipped past page verification must not walk (or loop)
        // beyond it.
        let chunk_count = le_u32_at(header, 9)?;
        let mut hops = 0u32;
        let mut out = Vec::with_capacity(total.min(64 * 1024 * 1024));
        while pid != NO_PAGE {
            if hops >= chunk_count {
                return Err(StorageError::Corrupt(format!(
                    "overflow chain exceeds its recorded {chunk_count} chunk pages"
                )));
            }
            hops += 1;
            let (next, chunk) = self.pool.with_page(PageId(pid), |buf| {
                let next = le_u32_at(buf, 0)?;
                let len = le_u32_at(buf, 4)? as usize;
                Ok::<_, StorageError>((next, buf[8..8 + len.min(OVERFLOW_CAP)].to_vec()))
            })??;
            out.extend_from_slice(&chunk);
            pid = next;
        }
        if out.len() != total {
            return Err(StorageError::Corrupt(format!(
                "overflow chain yielded {} bytes, expected {total}",
                out.len()
            )));
        }
        Ok(out)
    }

    /// Return an overflow chain's pages to `place`'s free list.
    ///
    /// A chunk page that was quarantined — or whose read fails
    /// verification — cannot be walked: its next-pointer is
    /// untrustworthy, and trusting it could resurrect arbitrary live
    /// pages into the free list. The damaged page and everything behind
    /// it are leaked instead, as recovery leaves checkpoint-era records:
    /// the free itself still succeeds, and the next checkpoint simply
    /// stops referencing the leaked pages.
    fn free_overflow(&self, place: &mut SegPlace, header: &[u8]) -> Result<()> {
        let mut pid = le_u32_at(header, 5)?;
        let chunk_count = le_u32_at(header, 9)?;
        let mut hops = 0u32;
        while pid != NO_PAGE {
            if hops >= chunk_count {
                return Err(StorageError::Corrupt(format!(
                    "overflow chain exceeds its recorded {chunk_count} chunk pages"
                )));
            }
            hops += 1;
            if self.file.is_quarantined(PageId(pid)) {
                break;
            }
            let next = match self.pool.with_page(PageId(pid), |buf| le_u32_at(buf, 0)) {
                Ok(Ok(next)) => next,
                Ok(Err(_)) | Err(_) => break,
            };
            place.free_pages.push(PageId(pid));
            pid = next;
        }
        Ok(())
    }

    // ---- version-chain resolution -----------------------------------------

    /// Resolve the version of `chain` visible under `vis` (newest-first
    /// scan). `None` means no version is visible at all; a visible
    /// tombstone means the object is deleted at that point.
    fn resolve(chain: &[Version], vis: Vis) -> Option<&Version> {
        match vis {
            Vis::Latest => chain.iter().find(|v| v.txn == 0),
            Vis::At(lsn) => chain.iter().find(|v| v.txn == 0 && v.lsn <= lsn),
            Vis::For(txn, lsn) => {
                chain.iter().find(|v| v.txn == txn || (v.txn == 0 && v.lsn <= lsn))
            }
        }
    }

    /// The location `vis` resolves to, or `UnknownObject` if nothing is
    /// visible (including a visible tombstone).
    fn visible_loc(chain: &[Version], vis: Vis, oid: Oid) -> Result<Loc> {
        match Self::resolve(chain, vis) {
            Some(Version { body: VersionBody::Data(loc), .. }) => Ok(*loc),
            _ => Err(StorageError::UnknownObject(oid)),
        }
    }

    /// Unlink versions no snapshot at or below `floor` (nor any newer
    /// reader) can reach: everything older than the newest committed
    /// version with `lsn <= floor`. Unlinked data locations go to
    /// `condemned` for GC to free. Returns the number of
    /// versions unlinked; may leave the chain empty (a dead tombstone).
    fn trim_chain(chain: &mut Vec<Version>, floor: u64, condemned: &mut Vec<Loc>) -> u64 {
        let Some(keep) = chain.iter().position(|v| v.txn == 0 && v.lsn <= floor) else {
            return 0;
        };
        let mut n = 0;
        for v in chain.drain(keep + 1..) {
            if let VersionBody::Data(loc) = v.body {
                condemned.push(loc);
            }
            n += 1;
        }
        // A tombstone that is now the newest version is dead weight: no
        // reader can see anything through it.
        if keep == 0 && chain.first().is_some_and(|v| matches!(v.body, VersionBody::Tombstone)) {
            chain.clear();
            n += 1;
        }
        n
    }

    // ---- public operations ------------------------------------------------

    /// Allocate a new object. `hint` matters only under
    /// [`Placement::ClientChunks`]; `seg` only under [`Placement::Segments`].
    ///
    /// `txn != 0` creates a *pending* version visible only to that
    /// transaction until [`Heap::commit_version`]; `txn == 0` commits
    /// immediately (pre-history LSN 0, visible to every snapshot).
    pub fn alloc(&self, seg: SegmentId, hint: ClusterHint, payload: &[u8], txn: u64) -> Result<Oid> {
        let g = self.global_read();
        let seg_idx = self.resolve_seg(&g, seg)?;
        let (pid, slot) = {
            let mut place = self.seg_lock(&g, seg_idx);
            let stored = self.build_stored(&mut place, payload)?;
            self.write_record(&mut place, seg, hint, &stored)?
        };
        // The record is on its page but unpublished: the oid becomes
        // visible only with the table insert below.
        let oid = Oid::from_raw(self.next_oid.fetch_add(1, Ordering::Relaxed));
        let ver = Version { body: VersionBody::Data(Loc { page: pid, slot, seg }), lsn: 0, txn };
        {
            let mut shard = self.table_write(oid.raw());
            shard.chains.insert(oid.raw(), vec![ver]);
            if txn == 0 {
                shard.note_changed(oid.raw());
            }
        }
        StorageStats::bump(&self.stats.allocs, 1);
        StorageStats::bump(&self.stats.bytes_allocated, payload.len() as u64);
        Ok(oid)
    }

    /// Replication apply: allocate `payload` at the *caller-chosen*
    /// `oid` — the oid the primary's log assigned. Placement is local
    /// (a follower's pages need not mirror the primary's), but the oid
    /// binding must match so shipped updates and snapshot reads resolve
    /// identically, and the allocator floor is raised past it so a
    /// promoted follower never re-issues a shipped oid.
    ///
    /// An oid that is already bound is refused: a coherent stream never
    /// allocates twice, so a duplicate means the follower applied a
    /// chunk it already had (callers dedup by LSN first). The record
    /// written before the refusal is leaked to the next checkpoint,
    /// as [`Heap::recover_upsert`] leaks checkpoint-era slots.
    pub fn replica_alloc(
        &self,
        oid: Oid,
        seg: SegmentId,
        hint: ClusterHint,
        payload: &[u8],
        txn: u64,
    ) -> Result<()> {
        let g = self.global_read();
        let seg_idx = self.resolve_seg(&g, seg)?;
        let (pid, slot) = {
            let mut place = self.seg_lock(&g, seg_idx);
            let stored = self.build_stored(&mut place, payload)?;
            self.write_record(&mut place, seg, hint, &stored)?
        };
        self.reserve_oid_floor(oid.raw() + 1);
        let ver = Version { body: VersionBody::Data(Loc { page: pid, slot, seg }), lsn: 0, txn };
        {
            let mut shard = self.table_write(oid.raw());
            if shard.chains.contains_key(&oid.raw()) {
                return Err(StorageError::Corrupt(format!(
                    "replica alloc: oid {oid} is already bound"
                )));
            }
            shard.chains.insert(oid.raw(), vec![ver]);
            if txn == 0 {
                shard.note_changed(oid.raw());
            }
        }
        StorageStats::bump(&self.stats.allocs, 1);
        StorageStats::bump(&self.stats.bytes_allocated, payload.len() as u64);
        Ok(())
    }

    /// Crash-recovery write: (re)bind `oid` to `payload` at a freshly
    /// chosen location.
    ///
    /// Replay runs against page images of unknown vintage — any page may
    /// hold its checkpoint-era bytes or a later flush from the crashed
    /// run — so a location the checkpoint's table names may already be
    /// dead, or hold a record replay itself just placed in the reused
    /// slot. `page::remove` there (as [`Heap::update`] does) could
    /// destroy live data, so a checkpoint-era location is left as it
    /// is: the next checkpoint's metadata simply stops referencing it.
    /// A location this recovery placed holds exactly the record it
    /// wrote, and `redone` says the oid's current version is one: then
    /// the superseded record is freed, overflow chain included, and the
    /// recovered image holds one version per object, not every version
    /// since the checkpoint. The caller keys `redone` on the oid, never
    /// on the location: a checkpoint-era location can name a slot that
    /// redo has just filled with another object.
    ///
    /// `seg` of `None` keeps the object's current segment (falling back
    /// to [`SegmentId::DEFAULT`] if the table has no entry).
    pub fn recover_upsert(
        &self,
        oid: Oid,
        seg: Option<SegmentId>,
        hint: ClusterHint,
        payload: &[u8],
        redone: bool,
    ) -> Result<()> {
        let g = self.global_read();
        let seg = seg
            .or_else(|| {
                let m = self.table_read(oid.raw());
                m.chains.get(&oid.raw())
                    .and_then(|c| Self::visible_loc(c, Vis::Latest, oid).ok())
                    .map(|l| l.seg)
            })
            .unwrap_or(SegmentId::DEFAULT);
        let seg_idx = self.resolve_seg(&g, seg)?;
        let (pid, slot) = {
            let mut place = self.seg_lock(&g, seg_idx);
            let stored = self.build_stored(&mut place, payload)?;
            self.write_record(&mut place, seg, hint, &stored)?
        };
        // Replay rebuilds a single-version committed chain.
        let ver = Version { body: VersionBody::Data(Loc { page: pid, slot, seg }), lsn: 0, txn: 0 };
        self.recover_rebind(&g, oid, Some(ver), redone);
        self.next_oid.fetch_max(oid.raw() + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Crash-recovery delete: drop the table entry, freeing the record
    /// only if `redone` ([`Heap::recover_upsert`]).
    pub fn recover_free(&self, oid: Oid, redone: bool) {
        let g = self.global_read();
        self.recover_rebind(&g, oid, None, redone);
    }

    /// Bind `oid` to `ver` (or unbind it), and free the location it
    /// resolved to before if `redone`.
    fn recover_rebind(&self, g: &HeapGlobal, oid: Oid, ver: Option<Version>, redone: bool) {
        let old = {
            let mut shard = self.table_write(oid.raw());
            let old = match ver {
                Some(ver) => shard.chains.insert(oid.raw(), vec![ver]),
                None => shard.chains.remove(&oid.raw()),
            };
            shard.note_changed(oid.raw());
            old
        };
        let superseded = old.and_then(|c| Self::visible_loc(&c, Vis::Latest, oid).ok());
        if let Some(loc) = superseded.filter(|_| redone) {
            self.free_slot(g, loc);
        }
    }

    /// Raise the oid allocator so no future allocation hands out an id
    /// below `next`. Recovery calls this with one past the highest oid
    /// seen in the log — including oids of transactions that did *not*
    /// commit — so a recovered store can never recycle an oid the crashed
    /// run already reported to a client.
    pub fn reserve_oid_floor(&self, next: u64) {
        self.next_oid.fetch_max(next, Ordering::Relaxed);
    }

    /// Read the version `vis` resolves to. The shard's read lock is held
    /// from resolving the location until the stored bytes are copied
    /// out — the page record, and for an overflow header the whole
    /// chain — so no unlink, and hence no free, can land in between.
    pub(crate) fn read_vis(&self, oid: Oid, vis: Vis) -> Result<Vec<u8>> {
        let shard = self.table_read(oid.raw());
        let chain = shard.chains.get(&oid.raw()).ok_or(StorageError::UnknownObject(oid))?;
        let loc = Self::visible_loc(chain, vis, oid)?;
        #[cfg(test)]
        tests::after_resolve();
        StorageStats::bump(&self.stats.reads, 1);
        let stored = self
            .pool
            .with_page(loc.page, |buf| page::read(buf, loc.slot).map(|s| s.to_vec()))?;
        let stored = stored.ok_or_else(|| {
            StorageError::Corrupt(format!("object table points at dead slot for {oid}"))
        })?;
        if Self::is_overflow(&stored) {
            self.read_overflow(&stored)
        } else {
            drop(shard);
            self.decode(&stored)
        }
    }

    /// Overwrite an object's payload. The oid is stable even as versions
    /// move across pages.
    ///
    /// Committed versions are never touched: a fresh record is written
    /// and published as a new chain head. With `txn != 0` the head is
    /// pending (an existing pending head of the same transaction is
    /// replaced, its now-unreachable record freed immediately); with
    /// `txn == 0` the head commits in place of the previous one, which
    /// is condemned for GC to free.
    pub fn update(&self, oid: Oid, payload: &[u8], txn: u64) -> Result<()> {
        let g = self.global_read();
        // Resolve existence + segment under a momentary shard read.
        let seg = {
            let shard = self.table_read(oid.raw());
            let chain = shard.chains.get(&oid.raw()).ok_or(StorageError::UnknownObject(oid))?;
            Self::visible_loc(chain, Vis::For(txn, u64::MAX), oid)?.seg
        };
        StorageStats::bump(&self.stats.updates, 1);
        let seg_idx = self.resolve_seg(&g, seg)?;
        let (pid, slot) = {
            let mut place = self.seg_lock(&g, seg_idx);
            let stored = self.build_stored(&mut place, payload)?;
            self.write_record(&mut place, seg, ClusterHint::NONE, &stored)?
        };
        let new_loc = Loc { page: pid, slot, seg };

        let mut replaced_pending: Option<Loc> = None;
        {
            let mut shard = self.table_write(oid.raw());
            let table = &mut *shard;
            let chain = table.chains.get_mut(&oid.raw()).ok_or(StorageError::UnknownObject(oid))?;
            if txn != 0 {
                if let Some(head) = chain.first_mut().filter(|v| v.txn == txn) {
                    // Second write by the same transaction: swap the
                    // pending body. The old record was never visible to
                    // anyone else, so it is freed at once.
                    let old = std::mem::replace(&mut head.body, VersionBody::Data(new_loc));
                    if let VersionBody::Data(l) = old {
                        replaced_pending = Some(l);
                    }
                } else {
                    chain.insert(0, Version { body: VersionBody::Data(new_loc), lsn: 0, txn });
                }
            } else {
                // Immediate commit: the new head supersedes the old one,
                // which is unlinked here and condemned for GC to free.
                let lsn = chain.first().map_or(0, |v| v.lsn);
                chain.insert(0, Version { body: VersionBody::Data(new_loc), lsn, txn: 0 });
                if let Some(prev) = chain.get(1).copied().filter(|v| v.txn == 0) {
                    if let VersionBody::Data(l) = prev.body {
                        table.condemned.push(l);
                        StorageStats::bump(&self.stats.versions_gced, 1);
                    }
                    chain.remove(1);
                }
                table.note_changed(oid.raw());
            }
        }
        if let Some(loc) = replaced_pending {
            self.free_slot(&g, loc);
        }
        Ok(())
    }

    /// Delete an object. With `txn != 0` this pushes a pending tombstone
    /// (the delete becomes real at [`Heap::commit_version`]); with
    /// `txn == 0` the whole chain is unlinked and condemned.
    pub fn free(&self, oid: Oid, txn: u64) -> Result<()> {
        let g = self.global_read();
        let mut replaced_pending: Option<Loc> = None;
        {
            let mut shard = self.table_write(oid.raw());
            let table = &mut *shard;
            let chain = table.chains.get_mut(&oid.raw()).ok_or(StorageError::UnknownObject(oid))?;
            // Deleting an object the caller cannot see is an error.
            Self::visible_loc(chain, Vis::For(txn, u64::MAX), oid)?;
            if txn != 0 {
                // A pending tombstone leaves the committed suffix
                // untouched until `commit_version`.
                if let Some(head) = chain.first_mut().filter(|v| v.txn == txn) {
                    let old = std::mem::replace(&mut head.body, VersionBody::Tombstone);
                    if let VersionBody::Data(l) = old {
                        replaced_pending = Some(l);
                    }
                } else {
                    chain.insert(0, Version { body: VersionBody::Tombstone, lsn: 0, txn });
                }
            } else {
                for v in table.chains.remove(&oid.raw()).unwrap_or_default() {
                    if let VersionBody::Data(l) = v.body {
                        table.condemned.push(l);
                        StorageStats::bump(&self.stats.versions_gced, 1);
                    }
                }
                table.note_changed(oid.raw());
            }
        }
        if let Some(loc) = replaced_pending {
            self.free_slot(&g, loc);
        }
        Ok(())
    }

    /// Flip `txn`'s pending version of `oid` (if any) to committed at
    /// `lsn`, then opportunistically trim the chain past [`MAX_CHAIN`]
    /// where `keep_floor` (the snapshot low-water mark) allows.
    ///
    /// The floor is clamped to `lsn - 1` regardless of what the caller
    /// sampled: snapshot registration takes only the registry lock, so
    /// a racing `begin_snapshot` can pin the pre-flip LSN *after* the
    /// caller read the registry — the previous committed head must
    /// survive every commit-time trim. (Checkpoint GC has no such
    /// window: it sweeps with no commit in flight, and the newest
    /// committed version, which always survives a trim, is exactly what
    /// a concurrently opened snapshot pins.)
    pub fn commit_version(&self, oid: Oid, txn: u64, lsn: u64, keep_floor: u64) {
        let keep_floor = keep_floor.min(lsn.saturating_sub(1));
        let mut trimmed = 0;
        {
            let mut shard = self.table_write(oid.raw());
            let table = &mut *shard;
            let mut flipped = false;
            if let Some(chain) = table.chains.get_mut(&oid.raw()) {
                if let Some(head) = chain.first_mut().filter(|head| head.txn == txn) {
                    head.txn = 0;
                    head.lsn = lsn;
                    flipped = true;
                }
                if chain.len() > MAX_CHAIN {
                    trimmed = Self::trim_chain(chain, keep_floor, &mut table.condemned);
                }
                if chain.is_empty() {
                    table.chains.remove(&oid.raw());
                }
            }
            if flipped {
                table.note_changed(oid.raw());
            }
        }
        if trimmed > 0 {
            StorageStats::bump(&self.stats.versions_gced, trimmed);
        }
    }

    /// Drop `txn`'s pending version of `oid` (abort path). The pending
    /// record was never visible to another thread, so its storage is
    /// reclaimed immediately. Removes the chain if it becomes empty
    /// (an aborted allocation).
    pub fn discard_txn(&self, oid: Oid, txn: u64) {
        let g = self.global_read();
        let mut freed: Option<Loc> = None;
        {
            let mut shard = self.table_write(oid.raw());
            if let Some(chain) = shard.chains.get_mut(&oid.raw()) {
                if chain.first().is_some_and(|v| v.txn == txn) {
                    let v = chain.remove(0);
                    if let VersionBody::Data(l) = v.body {
                        freed = Some(l);
                    }
                }
                if chain.is_empty() {
                    shard.chains.remove(&oid.raw());
                }
            }
        }
        if let Some(loc) = freed {
            self.free_slot(&g, loc);
        }
    }

    /// Trim the chains on the changed lists: unlink every committed
    /// version of theirs no snapshot at or below `low_water` can reach.
    /// Returns the oids drained, ascending, each with its newest
    /// committed location (`None`: the object no longer exists), and
    /// every location now condemned: the ones this trim unlinked plus
    /// each shard's condemned list, drained.
    ///
    /// No other chain has anything to trim: a chain gains a second
    /// committed version, or a tombstone, only in
    /// [`Heap::commit_version`], which queues it; and one a trim cannot
    /// settle — an open snapshot still pins an older version, or its
    /// tombstone — is queued again for the next call.
    fn trim_changed(&self, low_water: u64) -> (Vec<(u64, Option<Loc>)>, Vec<Loc>) {
        let mut drained: Vec<(u64, Option<Loc>)> = Vec::new();
        let mut condemned: Vec<Loc> = Vec::new();
        let mut trimmed = 0u64;
        let _g = self.global_read();
        for sh in &self.table {
            let table = &mut *lock_order::ranked(lock_order::HEAP_TABLE, || sh.map.write());
            condemned.append(&mut table.condemned);
            let mut changed = std::mem::take(&mut table.changed);
            changed.sort_unstable();
            changed.dedup();
            for oid in changed {
                let Some(chain) = table.chains.get_mut(&oid) else {
                    drained.push((oid, None));
                    continue;
                };
                trimmed += Self::trim_chain(chain, low_water, &mut condemned);
                let newest = Self::visible_loc(chain, Vis::Latest, Oid::from_raw(oid));
                drained.push((oid, newest.ok()));
                match chain.as_slice() {
                    [] => {
                        table.chains.remove(&oid);
                    }
                    [Version { body: VersionBody::Data(_), .. }] => {}
                    _ => table.changed.push(oid),
                }
            }
        }
        if trimmed > 0 {
            StorageStats::bump(&self.stats.versions_gced, trimmed);
        }
        drained.sort_unstable_by_key(|&(oid, _)| oid);
        (drained, condemned)
    }

    /// Version GC: unlink every committed version no snapshot at or
    /// below `low_water` can reach, and physically free the unlinked
    /// (plus previously condemned) records.
    /// The work is proportional to what changed since the last call, not
    /// to the table ([`Heap::trim_changed`]). Returns, ascending, the
    /// oids whose newest committed version may have moved since the last
    /// call, each with where that version is now (`None`: the object no
    /// longer exists) — what the checkpoint's meta delta must record.
    ///
    /// Runs at checkpoint (callers pass the minimum open-snapshot LSN,
    /// or `u64::MAX` when none is open). Safe concurrent with readers —
    /// a condemned location was unlinked under its shard's write lock,
    /// so no reader still holds or can resolve it — but assumes no
    /// *pending* version's transaction is racing it for the same oids
    /// (the engine quiesces writers first).
    pub fn collect_garbage(&self, low_water: u64) -> Vec<(u64, Option<Loc>)> {
        let (changed, mut condemned) = self.trim_changed(low_water);
        // Freeing in page order makes which pages end up recycled or
        // roomy, and in what order, a function of the op stream alone —
        // and takes each page from the pool once.
        condemned.sort_unstable_by_key(|loc| (loc.page, loc.slot.0));
        let g = self.global_read();
        for on_page in condemned.chunk_by(|a, b| a.page == b.page) {
            self.free_slots(&g, on_page);
        }
        changed
    }

    /// Physically free one unlinked record ([`Heap::free_slots`]).
    fn free_slot(&self, g: &HeapGlobal, loc: Loc) {
        self.free_slots(g, &[loc]);
    }

    /// Physically free unlinked records that share a page: clear the
    /// slots, return their overflow chains (if any) to the segment free
    /// list, and note what the frees left behind for placement. Best
    /// effort — damaged or quarantined pages are leaked, as recovery
    /// leaves checkpoint-era records.
    ///
    /// One pool access for the page; the segment lock is taken only when
    /// there is something to tell placement, not per freed record.
    fn free_slots(&self, g: &HeapGlobal, on_page: &[Loc]) {
        let Some(&Loc { page: pid, seg, .. }) = on_page.first() else { return };
        let freed = self.pool.with_page_mut(pid, |buf| {
            let mut chains: Vec<Vec<u8>> = Vec::new();
            let mut any = false;
            for loc in on_page {
                let Some(rec) = page::read(buf, loc.slot) else { continue };
                if Self::is_overflow(rec) {
                    chains.push(rec.to_vec());
                }
                page::remove(buf, loc.slot);
                any = true;
            }
            any.then(|| (chains, page::is_empty(buf), page::reclaimable(buf)))
        });
        let Ok(Some((chains, emptied, reclaimable))) = freed else { return };
        let roomy = self.placement == Placement::Segments && reclaimable >= ROOMY_BYTES;
        if chains.is_empty() && !emptied && !roomy {
            return;
        }
        let Ok(seg_idx) = self.resolve_seg(g, seg) else { return };
        let mut place = self.seg_lock(g, seg_idx);
        for header in &chains {
            let _ = self.free_overflow(&mut place, header);
        }
        // A page placement is writing to stays where it is.
        if place.open_page == Some(pid)
            || place.chunks.values().any(|&p| p == pid)
            || !place.pages.contains(&pid)
        {
            return;
        }
        // `emptied` was measured before the lock, and the page may have
        // been reopened and refilled since. Inserts happen only under
        // this lock, so what it reads now stands.
        if emptied
            && !self.file.is_quarantined(pid)
            && matches!(self.pool.with_page(pid, page::is_empty), Ok(true))
        {
            place.pages.remove(&pid);
            place.roomy.remove(&pid);
            place.parked.push(pid);
            StorageStats::bump(&self.stats.pages_recycled, 1);
        } else if roomy {
            place.roomy.insert(pid, reclaimable);
        }
    }

    /// The meta just flipped recorded every parked page free
    /// ([`Heap::places`]), so no meta on disk names one slotted any
    /// more: move them to the free lists, where overflow chains may
    /// take them. The engine calls this after a successful flip, still
    /// quiesced — a page parked between [`Heap::places`] and the flip
    /// would be released unrecorded.
    pub fn release_parked(&self) {
        let g = self.global_read();
        for i in 0..g.segs.len() {
            let place = &mut *self.seg_lock(&g, i);
            place.free_pages.append(&mut place.parked);
        }
    }

    /// Whether `vis` resolves to a live version of the object.
    pub(crate) fn exists_vis(&self, oid: Oid, vis: Vis) -> bool {
        let shard = self.table_read(oid.raw());
        shard.chains.get(&oid.raw()).is_some_and(|c| Self::visible_loc(c, vis, oid).is_ok())
    }

    /// Number of live objects (newest committed version is data).
    pub fn object_count(&self) -> usize {
        let _g = self.global_read();
        let mut n = 0;
        for sh in &self.table {
            let m = lock_order::ranked(lock_order::HEAP_TABLE, || sh.map.read());
            n += m
                .chains
                .iter()
                .filter(|(&k, c)| Self::visible_loc(c, Vis::Latest, Oid::from_raw(k)).is_ok())
                .count();
        }
        n
    }

    /// Snapshot of all live oids (diagnostics / scans), stable-sorted so
    /// reports and scrub logs do not depend on shard iteration order.
    pub fn oids(&self) -> Vec<Oid> {
        let _g = self.global_read();
        let mut v: Vec<Oid> = Vec::new();
        for sh in &self.table {
            let m = lock_order::ranked(lock_order::HEAP_TABLE, || sh.map.read());
            v.extend(
                m.chains.iter()
                    .filter(|(&k, c)| Self::visible_loc(c, Vis::Latest, Oid::from_raw(k)).is_ok())
                    .map(|(&k, _)| Oid::from_raw(k)),
            );
        }
        v.sort_unstable();
        v
    }

    /// Pages owned by each segment (for size reporting).
    pub fn segment_pages(&self) -> Vec<usize> {
        let g = self.global_read();
        (0..g.segs.len()).map(|i| self.seg_lock(&g, i).pages.len()).collect()
    }

    /// Read every slotted page and say where each segment's bytes are.
    /// Read-only; meant for an offline image (`cargo xtask scrub
    /// --space`), since it reads through the pool like any scan.
    pub fn space_report(&self) -> Result<Vec<SegmentSpace>> {
        let g = self.global_read();
        let mut report = Vec::with_capacity(g.segs.len());
        for i in 0..g.segs.len() {
            let (pages, free_pages) = {
                let place = self.seg_lock(&g, i);
                (place.pages.clone(), (place.free_pages.len() + place.parked.len()) as u64)
            };
            let mut seg =
                SegmentSpace { pages: pages.len() as u64, free_pages, ..SegmentSpace::default() };
            for pid in pages {
                self.pool.with_page(pid, |buf| {
                    seg.live_bytes += page::live_bytes(buf) as u64;
                    seg.dead_bytes += page::dead_bytes(buf) as u64;
                    seg.gap_bytes += page::gap(buf) as u64;
                    seg.dir_bytes += page::dir_bytes(buf) as u64;
                    seg.empty_pages += u64::from(page::is_empty(buf));
                    seg.overflow_pages += page::records(buf)
                        .filter(|rec| Self::is_overflow(rec))
                        .map(|rec| u64::from(le_u32_at(rec, 9).unwrap_or(0)))
                        .sum::<u64>();
                })?;
            }
            report.push(seg);
        }
        Ok(report)
    }

    /// Stop routing placement through any of `bad` pages: clear them
    /// from segment open pages, chunk targets and roomy sets. The
    /// recovery verify pass calls this for quarantined pages so
    /// allocation never faults on a damaged image (quarantined pages on
    /// the free list are fine — reuse rewrites them wholesale without a
    /// read, which heals them).
    pub fn demote_pages(&self, bad: &[PageId]) {
        if bad.is_empty() {
            return;
        }
        let g = self.global_read();
        for i in 0..g.segs.len() {
            let mut place = self.seg_lock(&g, i);
            if place.open_page.is_some_and(|p| bad.contains(&p)) {
                place.open_page = None;
            }
            place.chunks.retain(|_, p| !bad.contains(p));
            place.roomy.retain(|p, _| !bad.contains(p));
        }
    }

    /// Oids whose record (or overflow header) lives on one of `pages`.
    /// The recovery verify pass uses this to report which objects a
    /// quarantined page takes down with it.
    pub fn oids_on_pages(&self, pages: &[PageId]) -> Vec<Oid> {
        let _g = self.global_read();
        let mut v: Vec<Oid> = Vec::new();
        for sh in &self.table {
            let m = lock_order::ranked(lock_order::HEAP_TABLE, || sh.map.read());
            v.extend(
                m.chains.iter()
                    .filter(|(&k, c)| {
                        Self::visible_loc(c, Vis::Latest, Oid::from_raw(k))
                            .is_ok_and(|loc| pages.contains(&loc.page))
                    })
                    .map(|(&k, _)| Oid::from_raw(k)),
            );
        }
        v.sort_unstable();
        v
    }

    // ---- metadata (de)hydration for checkpointing -------------------------
    //
    // Only the newest committed version of each object is persisted;
    // older versions exist solely for in-flight snapshots, which do not
    // survive a restart. Callers quiesce transactions first, so no
    // pending version is in flight. The byte format is `crate::meta`'s.

    /// The newest committed location of every live object, ascending by
    /// oid: the object table as a base meta segment records it.
    pub fn table(&self) -> Vec<(u64, Loc)> {
        let _g = self.global_read();
        let mut entries: Vec<(u64, Loc)> = Vec::new();
        for sh in &self.table {
            let m = lock_order::ranked(lock_order::HEAP_TABLE, || sh.map.read());
            entries.extend(m.chains.iter().filter_map(|(&k, c)| {
                Self::visible_loc(c, Vis::Latest, Oid::from_raw(k)).ok().map(|loc| (k, loc))
            }));
        }
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries
    }

    /// The placement state a checkpoint persists.
    ///
    /// Taking the global shard exclusively is a full quiesce — every
    /// operation holds it shared for its whole duration — so the image
    /// is a consistent cut. The per-segment locks below are then taken
    /// one at a time purely as the data's formal owners; nothing can
    /// race them.
    pub fn places(&self) -> Places {
        let g = self.global_write();
        let mut places = Places {
            next_oid: self.next_oid.load(Ordering::Relaxed),
            segs: Vec::with_capacity(g.segs.len()),
            free: Vec::new(),
        };
        for i in 0..g.segs.len() {
            let place = self.seg_lock(&g, i);
            places.segs.push((place.open_page, place.pages.iter().copied().collect()));
            places.free.extend_from_slice(&place.free_pages);
            places.free.extend_from_slice(&place.parked);
        }
        places
    }

    /// Replace the heap's metadata with a checkpoint's: `places` and the
    /// object `table` as [`Heap::places`] and [`Heap::table`] gave them.
    /// Free pages are distributed round-robin across the segments: any
    /// free page is usable by any segment, so the split only spreads
    /// reuse.
    pub fn load(&self, places: Places, table: impl IntoIterator<Item = (u64, Loc)>) -> Result<()> {
        let nsegs = places.segs.len();
        if nsegs == 0 {
            return Err(StorageError::Corrupt("heap metadata has no segments".into()));
        }
        let mut tables: Vec<Table> = (0..TABLE_SHARDS).map(|_| Table::default()).collect();
        for (oid, loc) in table {
            // Checkpoint-era versions are pre-history: LSN 0, visible to
            // every snapshot a later run might open.
            let ver = Version { body: VersionBody::Data(loc), lsn: 0, txn: 0 };
            if let Some(t) = tables.get_mut((oid % TABLE_SHARDS as u64) as usize) {
                t.chains.insert(oid, vec![ver]);
            }
        }
        let mut segs: Vec<SegPlace> = places
            .segs
            .into_iter()
            .map(|(open_page, pages)| SegPlace {
                open_page,
                pages: pages.into_iter().collect(),
                // Placement caches, safe to drop.
                chunks: HashMap::new(),
                roomy: BTreeMap::new(),
                free_pages: Vec::new(),
                parked: Vec::new(),
            })
            .collect();
        for (i, p) in places.free.into_iter().enumerate() {
            if let Some(seg) = segs.get_mut(i % nsegs) {
                seg.free_pages.push(p);
            }
        }
        let mut g = self.global_write();
        g.segs = segs.into_iter().map(SegShard::new).collect();
        self.next_oid.store(places.next_oid, Ordering::Relaxed);
        // Replacing each shard's table also drops its condemned list:
        // locations condemned in the pre-load world must not be freed
        // against the loaded one.
        for (sh, t) in self.table.iter().zip(tables) {
            *lock_order::ranked(lock_order::HEAP_TABLE, || sh.map.write()) = t;
        }
        Ok(())
    }
}

/// Acquire a heap metadata lock with contention attribution: an
/// uncontended acquisition costs one try-lock; a contended one records
/// the blocked time in the calling thread's wait profile, the shared
/// stats, and the shard's own counter.
fn contended<G>(
    stats: &StorageStats,
    shard_waits: &AtomicU64,
    try_acquire: impl FnOnce() -> Option<G>,
    acquire: impl FnOnce() -> G,
) -> G {
    if let Some(g) = try_acquire() {
        return g;
    }
    let start = std::time::Instant::now();
    let g = acquire();
    let nanos = start.elapsed().as_nanos() as u64;
    shard_waits.fetch_add(1, Ordering::Relaxed);
    StorageStats::bump(&stats.heap_shard_waits, 1);
    StorageStats::bump(&stats.heap_wait_nanos, nanos);
    crate::waits::add_heap_wait(nanos);
    g
}

/// Read a little-endian `u32` at `at`, with a typed error on short input.
fn le_u32_at(buf: &[u8], at: usize) -> Result<u32> {
    buf.get(at..at + 4)
        .and_then(|s| s.try_into().ok())
        .map(u32::from_le_bytes)
        .ok_or_else(|| StorageError::Corrupt("truncated binary field".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    thread_local! {
        /// A hook a test arms on its reader thread to park that read
        /// between resolving a location and copying the page.
        static AFTER_RESOLVE: RefCell<Option<Box<dyn FnOnce()>>> = const { RefCell::new(None) };
    }

    /// The pause seam in [`Heap::read_vis`]: runs the hook this thread
    /// armed, once.
    pub(super) fn after_resolve() {
        if let Some(hook) = AFTER_RESOLVE.take() {
            hook();
        }
    }

    fn heap(name: &str, placement: Placement, segs: u8, cap: usize) -> (Heap, Arc<StorageStats>) {
        let dir = std::env::temp_dir().join(format!("lfs-heap-{}-{}", std::process::id(), name));
        std::fs::create_dir_all(&dir).unwrap();
        let vfs = crate::vfs::RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let file = Arc::new(PageFile::create(&vfs, &dir.join("d.pg"), stats.clone()).unwrap());
        let pool = Arc::new(BufferPool::new(file.clone(), stats.clone(), cap, false, None));
        (Heap::new(pool, file, stats.clone(), placement, segs, 0, 1), stats)
    }

    /// The raw stored bytes of an object's newest committed record
    /// (test-only spelunking).
    fn stored_of(h: &Heap, oid: Oid) -> Vec<u8> {
        let shard = h.table[(oid.raw() % TABLE_SHARDS as u64) as usize].map.read();
        let chain = shard.chains.get(&oid.raw()).unwrap();
        let loc = Heap::visible_loc(chain, Vis::Latest, oid).unwrap();
        drop(shard);
        h.pool
            .with_page(loc.page, |buf| page::read(buf, loc.slot).map(|s| s.to_vec()))
            .unwrap()
            .unwrap()
    }

    /// Free-list length of one segment (test-only spelunking).
    fn seg_free_pages(h: &Heap, idx: usize) -> Vec<PageId> {
        h.global.read().segs[idx].place.lock().free_pages.clone()
    }

    /// What a checkpoint persists of the heap.
    fn dump(h: &Heap) -> (Places, Vec<(u64, Loc)>) {
        (h.places(), h.table())
    }

    /// Round-trip the heap's metadata through a checkpoint's view of it.
    fn reload(h: &Heap) {
        let (places, table) = dump(h);
        h.load(places, table).unwrap();
    }

    /// What a checkpoint does to the heap: collect, then — the meta
    /// flip having recorded the emptied pages free — release them.
    fn gc_and_flip(h: &Heap) {
        h.collect_garbage(u64::MAX);
        h.release_parked();
    }

    /// What placement must keep true of every segment, whatever was
    /// freed and reused: a page is owned, parked or free, never two of
    /// them; the open page, chunk targets and roomy pages are owned; no
    /// free page is quarantined by a recycle; every live object sits on
    /// an owned page.
    fn assert_placement_sound(h: &Heap) {
        let g = h.global.read();
        for (i, sh) in g.segs.iter().enumerate() {
            let place = sh.place.lock();
            let unowned = place.free_pages.len() + place.parked.len();
            let free: BTreeSet<PageId> =
                place.free_pages.iter().chain(&place.parked).copied().collect();
            assert_eq!(free.len(), unowned, "seg {i}: a page is free or parked twice");
            assert!(free.is_disjoint(&place.pages), "seg {i}: a page is both owned and free");
            assert!(
                place.roomy.keys().all(|p| place.pages.contains(p)),
                "seg {i}: roomy page not owned"
            );
            for target in place.open_page.iter().chain(place.chunks.values()) {
                assert!(place.pages.contains(target), "seg {i}: target {target} not owned");
            }
        }
        for sh in &h.table {
            for (&oid, chain) in sh.map.read().chains.iter() {
                let Ok(loc) = Heap::visible_loc(chain, Vis::Latest, Oid::from_raw(oid)) else {
                    continue;
                };
                let seg = h.resolve_seg(&g, loc.seg).unwrap();
                assert!(
                    g.segs[seg].place.lock().pages.contains(&loc.page),
                    "object {oid} lives on page {} that its segment does not own",
                    loc.page
                );
            }
        }
    }

    /// Allocate `n` committed objects of `len` bytes in `seg`.
    fn fill(h: &Heap, seg: u8, n: usize, len: usize) -> Vec<Oid> {
        (0..n)
            .map(|i| h.alloc(SegmentId(seg), ClusterHint::NONE, &vec![i as u8; len], 0).unwrap())
            .collect()
    }

    fn page_of(h: &Heap, oid: Oid) -> PageId {
        let shard = h.table_read(oid.raw());
        Heap::visible_loc(shard.chains.get(&oid.raw()).unwrap(), Vis::Latest, oid).unwrap().page
    }

    #[test]
    fn emptied_page_is_recycled_and_rewritten_without_growing_the_file() {
        let (h, stats) = heap("recycle", Placement::Segments, 1, 32);
        // 900-byte records, four to a page: three full pages and an
        // open fourth.
        let oids = fill(&h, 0, 13, 900);
        let first = page_of(&h, oids[0]);
        assert!(oids[..4].iter().all(|&o| page_of(&h, o) == first));
        for &oid in &oids[..4] {
            h.free(oid, 0).unwrap();
        }
        assert!(seg_free_pages(&h, 0).is_empty(), "nothing is freed before GC");
        h.collect_garbage(u64::MAX);
        assert_eq!(stats.snapshot().pages_recycled, 1);
        assert_eq!(h.segment_pages(), [3], "an emptied page leaves the segment at once");
        assert_placement_sound(&h);
        // Until a meta flip records it free, the meta on disk may name
        // it the open page: an overflow chain must not be written on it.
        let before = h.file.page_count();
        let long = h.alloc(SegmentId(0), ClusterHint::NONE, &[9u8; 5000], 0).unwrap();
        assert_eq!(h.file.page_count(), before + 2, "the chain took the parked page");
        let meta = dump(&h);
        h.release_parked();
        assert_eq!(seg_free_pages(&h, 0), vec![first]);
        assert!(meta == dump(&h), "the flip had already recorded the parked page free");
        assert_eq!(h.read_vis(long, Vis::Latest).unwrap(), vec![9u8; 5000]);
        assert_placement_sound(&h);

        // The next page the segment opens is the recycled one.
        let before = h.file.page_count();
        let more = fill(&h, 0, 7, 900); // 3 finish the open page, 4 fill the recycled one
        assert_eq!(h.file.page_count(), before, "a free page is taken before the file grows");
        assert!(more.iter().any(|&o| page_of(&h, o) == first));
        for (i, &oid) in more.iter().enumerate() {
            assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), vec![i as u8; 900]);
        }
        for (i, &oid) in oids.iter().enumerate().skip(4) {
            assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), vec![i as u8; 900]);
        }
        assert_placement_sound(&h);
    }

    #[test]
    fn open_page_chunk_target_and_quarantined_page_are_never_recycled() {
        // The open page: emptied, it stays open and takes the next record.
        let (h, _) = heap("norecycle-open", Placement::Segments, 1, 32);
        let oids = fill(&h, 0, 2, 900);
        let open = page_of(&h, oids[0]);
        for &oid in &oids {
            h.free(oid, 0).unwrap();
        }
        gc_and_flip(&h);
        assert!(seg_free_pages(&h, 0).is_empty(), "the open page must not be recycled");
        let next = fill(&h, 0, 1, 900);
        assert_eq!(page_of(&h, next[0]), open);
        assert_placement_sound(&h);

        // A chunk target, likewise.
        let (h, _) = heap("norecycle-chunk", Placement::ClientChunks, 1, 32);
        let a = h.alloc(SegmentId(1), ClusterHint::NONE, &[1u8; 900], 0).unwrap();
        let b = h.alloc(SegmentId(3), ClusterHint::NONE, &[2u8; 900], 0).unwrap();
        assert_ne!(page_of(&h, a), page_of(&h, b), "one chunk per client segment");
        h.free(a, 0).unwrap();
        gc_and_flip(&h);
        assert!(seg_free_pages(&h, 0).is_empty(), "a chunk target must not be recycled");
        assert_placement_sound(&h);

        // A quarantined page is leaked, as `free_overflow` leaks one.
        let (h, _) = heap("norecycle-quarantine", Placement::Segments, 1, 32);
        let oids = fill(&h, 0, 5, 900);
        let bad = page_of(&h, oids[0]);
        h.file.quarantine(bad);
        h.demote_pages(&[bad]);
        for &oid in &oids[..4] {
            h.free(oid, 0).unwrap();
        }
        gc_and_flip(&h);
        assert!(seg_free_pages(&h, 0).is_empty(), "a quarantined page must not be recycled");
        assert_eq!(h.read_vis(oids[4], Vis::Latest).unwrap(), vec![4u8; 900]);
    }

    #[test]
    fn roomy_pages_are_refilled_before_the_file_grows() {
        let (h, stats) = heap("roomy", Placement::Segments, 1, 32);
        let oids = fill(&h, 0, 17, 900); // four full pages and an open fifth
        // Free two records on each of the first three pages: half of
        // each page becomes reclaimable, none is emptied.
        let holes: Vec<Oid> = (0..3).flat_map(|p| [oids[4 * p], oids[4 * p + 2]]).collect();
        for &oid in &holes {
            h.free(oid, 0).unwrap();
        }
        gc_and_flip(&h);
        assert!(seg_free_pages(&h, 0).is_empty());
        fill(&h, 0, 3, 900); // finish the open page
        // A record too long for any of the holes opens a new page. The
        // roomy pages are passed over, not forgotten.
        let before = h.file.page_count();
        let long = h.alloc(SegmentId(0), ClusterHint::NONE, &[7u8; 2800], 0).unwrap();
        assert_eq!(h.file.page_count(), before + 1);
        assert_eq!(stats.snapshot().pages_refilled, 0);
        let refill = fill(&h, 0, 7, 900); // 1 beside the long record, 6 fill the holes
        assert_eq!(h.file.page_count(), before + 1, "roomy pages are refilled first");
        assert_eq!(stats.snapshot().pages_refilled, 3);
        // Lowest page first, whatever order the frees came in.
        assert_eq!(page_of(&h, refill[0]), page_of(&h, long));
        assert_eq!(page_of(&h, refill[1]), page_of(&h, oids[1]));
        assert_eq!(page_of(&h, refill[6]), page_of(&h, oids[9]));
        for (i, &oid) in refill.iter().enumerate() {
            assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), vec![i as u8; 900]);
        }
        for (i, &oid) in oids.iter().enumerate() {
            if !holes.contains(&oid) {
                assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), vec![i as u8; 900]);
            }
        }
        assert_placement_sound(&h);

        // Address order has no such memory: it only ever appends or
        // takes a whole free page.
        let (h, stats) = heap("roomy-ao", Placement::AddressOrder, 1, 32);
        let oids = fill(&h, 0, 9, 900);
        h.free(oids[0], 0).unwrap();
        h.free(oids[2], 0).unwrap();
        gc_and_flip(&h);
        let before = h.file.page_count();
        fill(&h, 0, 4, 900);
        assert!(h.file.page_count() > before);
        assert_eq!(stats.snapshot().pages_refilled, 0);
    }

    #[test]
    fn same_transaction_rewrite_lands_back_on_the_open_page() {
        // A transaction that rewrites one object over and over frees its
        // own pending record each time. Those dead bytes are room on the
        // open page, so the segment must not walk through the file.
        let (h, _) = heap("rewrite", Placement::Segments, 1, 32);
        let oid = h.alloc(SegmentId(0), ClusterHint::NONE, &[0u8; 2800], 7).unwrap();
        let pages = h.file.page_count();
        for i in 1..=50u8 {
            h.update(oid, &[i; 2800], 7).unwrap();
        }
        h.commit_version(oid, 7, 1, u64::MAX);
        assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), vec![50u8; 2800]);
        assert!(
            h.file.page_count() <= pages + 1,
            "50 rewrites of one 2.8 KB record took {} pages",
            h.file.page_count() - pages
        );
        assert_placement_sound(&h);
    }

    #[test]
    fn recycled_pages_survive_the_meta_round_trip() {
        let (h, _) = heap("meta-recycle", Placement::Segments, 2, 32);
        let a = fill(&h, 0, 13, 900);
        let b = fill(&h, 1, 13, 900);
        for &oid in a[..8].iter().chain(&b[4..8]) {
            h.free(oid, 0).unwrap();
        }
        gc_and_flip(&h);
        let free: usize = (0..2).map(|i| seg_free_pages(&h, i).len()).sum();
        assert_eq!(free, 3);
        let owned = h.segment_pages();

        reload(&h);
        assert_eq!(h.segment_pages(), owned, "recycled pages stay off the page lists");
        let free_after: usize = (0..2).map(|i| seg_free_pages(&h, i).len()).sum();
        assert_eq!(free_after, free);
        assert_placement_sound(&h);
        for (i, &oid) in a.iter().enumerate().skip(8) {
            assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), vec![i as u8; 900]);
        }
        // The loaded free list is what new pages come from.
        let before = h.file.page_count();
        fill(&h, 0, 10, 900);
        assert_eq!(h.file.page_count(), before);
        assert_placement_sound(&h);
    }

    #[test]
    fn one_op_stream_always_grows_the_same_file() {
        // GC sweeps the object table in hash order, and two heaps hash
        // differently. Which pages end up free or roomy, and in what
        // order they are reused, must not depend on that — `space_amp`
        // repeats exactly for a seed only if this does.
        let run = |name: &str| {
            let (h, _) = heap(name, Placement::Segments, 2, 64);
            let mut oids = Vec::new();
            for i in 0..400usize {
                let len = 200 + 37 * (i % 23);
                oids.push(
                    h.alloc(SegmentId((i % 2) as u8), ClusterHint::NONE, &vec![i as u8; len], 0)
                        .unwrap(),
                );
            }
            for round in 0..6usize {
                for (i, &oid) in oids.iter().enumerate() {
                    if (i + round) % 3 == 0 {
                        h.update(oid, &vec![round as u8; 150 + 41 * ((i + round) % 19)], 0).unwrap();
                    } else if (i + round) % 7 == 0 && h.exists_vis(oid, Vis::Latest) {
                        h.free(oid, 0).unwrap();
                    }
                }
                oids.retain(|&o| h.exists_vis(o, Vis::Latest));
                gc_and_flip(&h);
                assert_placement_sound(&h);
            }
            (h.file.page_count(), dump(&h))
        };
        let (pages_a, meta_a) = run("det-a");
        let (pages_b, meta_b) = run("det-b");
        assert_eq!(pages_a, pages_b, "page count must repeat exactly");
        assert!(meta_a == meta_b, "placement metadata must repeat exactly");
    }

    #[test]
    fn two_writers_in_one_segment_with_gc_running() {
        // Writers rewrite their own objects and churn short-lived ones
        // while a third thread keeps collecting: pages are emptied,
        // recycled, refilled and reopened under both writers' feet. Each
        // writer round waits for one collector pass to complete after it,
        // so the collector runs between rounds however the threads are
        // scheduled.
        const PER: usize = 24;
        let (h, stats) = heap("gc-writers", Placement::Segments, 1, 64);
        let oids = fill(&h, 0, 2 * PER, 700);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let passes = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..2usize)
                .map(|t| {
                    let (h, mine, passes) = (&h, &oids[t * PER..(t + 1) * PER], &passes);
                    scope.spawn(move || {
                        for round in 0..120usize {
                            for (j, &oid) in mine.iter().enumerate() {
                                let len = 300 + 50 * ((round + j) % 9);
                                h.update(oid, &vec![(round % 251) as u8; len], 0).unwrap();
                            }
                            let extra = fill(h, 0, 3, 1200);
                            for oid in extra {
                                h.free(oid, 0).unwrap();
                            }
                            let seen = passes.load(Ordering::Acquire);
                            while passes.load(Ordering::Acquire) <= seen {
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            let collector = scope.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    gc_and_flip(&h);
                    passes.fetch_add(1, Ordering::Release);
                }
            });
            for w in writers {
                w.join().unwrap();
            }
            stop.store(true, Ordering::Release);
            collector.join().unwrap();
        });
        gc_and_flip(&h);
        for (i, &oid) in oids.iter().enumerate() {
            let len = 300 + 50 * ((119 + i % PER) % 9);
            assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), vec![119u8; len]);
        }
        assert_eq!(h.object_count(), oids.len());
        assert_placement_sound(&h);
        let s = stats.snapshot();
        assert!(s.pages_recycled > 0 && s.pages_refilled > 0, "the run must exercise reuse: {s:?}");
    }

    #[test]
    fn space_report_accounts_for_every_payload_byte() {
        let (h, _) = heap("space", Placement::Segments, 2, 32);
        let a = fill(&h, 0, 9, 900);
        fill(&h, 1, 3, 100);
        let big = h.alloc(SegmentId(1), ClusterHint::NONE, &vec![1u8; 10_000], 0).unwrap();
        for &oid in &a[..5] {
            h.free(oid, 0).unwrap();
        }
        h.collect_garbage(u64::MAX);
        let report = h.space_report().unwrap();
        assert_eq!(report.len(), 2);
        for seg in &report {
            assert_eq!(
                seg.live_bytes + seg.dead_bytes + seg.gap_bytes + seg.dir_bytes,
                seg.pages * PAGE_PAYLOAD as u64
            );
        }
        assert_eq!(report[0].pages, 2);
        assert_eq!(report[0].free_pages, 1);
        assert_eq!(report[0].live_bytes, 4 * h.stored_len(900) as u64);
        assert_eq!(report[0].dead_bytes, h.stored_len(900) as u64, "one hole on the second page");
        assert_eq!(report[1].overflow_pages, 3);
        assert_eq!(report[1].live_bytes, 3 * h.stored_len(100) as u64 + OVERFLOW_HDR as u64);
        let accounted: u64 = report.iter().map(|s| s.pages + s.overflow_pages + s.free_pages).sum();
        assert_eq!(accounted, u64::from(h.file.page_count()));
        assert_eq!(h.read_vis(big, Vis::Latest).unwrap(), vec![1u8; 10_000]);
    }

    #[test]
    fn alloc_read_update_free_cycle() {
        let (h, _) = heap("cycle", Placement::Segments, 2, 16);
        let a = h.alloc(SegmentId(0), ClusterHint::NONE, b"first", 0).unwrap();
        let b = h.alloc(SegmentId(1), ClusterHint::NONE, b"second", 0).unwrap();
        assert_eq!(h.read_vis(a, Vis::Latest).unwrap(), b"first");
        assert_eq!(h.read_vis(b, Vis::Latest).unwrap(), b"second");
        h.update(a, b"first, updated to a longer value", 0).unwrap();
        assert_eq!(h.read_vis(a, Vis::Latest).unwrap(), b"first, updated to a longer value");
        h.free(a, 0).unwrap();
        assert!(matches!(h.read_vis(a, Vis::Latest), Err(StorageError::UnknownObject(_))));
        assert!(h.exists_vis(b, Vis::Latest));
        assert_eq!(h.object_count(), 1);
    }

    #[test]
    fn unknown_segment_rejected_under_segment_placement() {
        let (h, _) = heap("badseg", Placement::Segments, 2, 8);
        let err = h.alloc(SegmentId(5), ClusterHint::NONE, b"x", 0).unwrap_err();
        assert!(matches!(err, StorageError::UnknownSegment(5)));
        // Address-order placement ignores the segment id entirely.
        let (h2, _) = heap("badseg2", Placement::AddressOrder, 1, 8);
        assert!(h2.alloc(SegmentId(5), ClusterHint::NONE, b"x", 0).is_ok());
    }

    #[test]
    fn segments_separate_pages_address_order_interleaves() {
        let (h, _) = heap("segsep", Placement::Segments, 2, 64);
        for i in 0..50u32 {
            let seg = SegmentId((i % 2) as u8);
            h.alloc(seg, ClusterHint::NONE, &i.to_le_bytes(), 0).unwrap();
        }
        let seg_pages = h.segment_pages();
        assert_eq!(seg_pages.len(), 2);
        assert!(seg_pages[0] >= 1 && seg_pages[1] >= 1);

        let (h2, _) = heap("addr", Placement::AddressOrder, 1, 64);
        for i in 0..50u32 {
            h2.alloc(SegmentId(0), ClusterHint::NONE, &i.to_le_bytes(), 0).unwrap();
        }
        assert_eq!(h2.segment_pages().len(), 1);
    }

    #[test]
    fn client_chunks_cluster_by_type() {
        let (h, stats) = heap("chunks", Placement::ClientChunks, 1, 256);
        // Two interleaved "types" (hot records vs cold payloads): with
        // client chunks, each type's objects share that type's pages,
        // even though the underlying store has only one segment.
        let mut hot = Vec::new();
        for i in 0..40u32 {
            hot.push(h.alloc(SegmentId(1), ClusterHint::NONE, &[1u8; 40], 0).unwrap());
            h.alloc(SegmentId(3), ClusterHint::NONE, &[2u8; 900], 0).unwrap();
            let _ = i;
        }
        // Reading the hot type touches very few pages: 40 × 45B ≈ 1 page.
        let before = stats.snapshot();
        for &oid in &hot {
            h.read_vis(oid, Vis::Latest).unwrap();
        }
        let after = stats.snapshot();
        assert!(
            after.delta(&before).faults <= 2,
            "type-clustered hot reads should touch ~1 page, got {} faults",
            after.delta(&before).faults
        );
        // The same interleaving in address order dilutes the hot records
        // across all pages.
        let (h2, stats2) = heap("chunks-ao", Placement::AddressOrder, 1, 256);
        let mut hot2 = Vec::new();
        for _ in 0..40 {
            hot2.push(h2.alloc(SegmentId(1), ClusterHint::NONE, &[1u8; 40], 0).unwrap());
            h2.alloc(SegmentId(3), ClusterHint::NONE, &[2u8; 900], 0).unwrap();
        }
        h2.pool.clear().unwrap();
        let before = stats2.snapshot();
        for &oid in &hot2 {
            h2.read_vis(oid, Vis::Latest).unwrap();
        }
        let after = stats2.snapshot();
        assert!(
            after.delta(&before).faults >= 8,
            "address-order hot reads should scatter, got {} faults",
            after.delta(&before).faults
        );
    }

    #[test]
    fn overflow_round_trip_and_free() {
        let (h, _) = heap("ovfl", Placement::Segments, 1, 32);
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let oid = h.alloc(SegmentId(0), ClusterHint::NONE, &big, 0).unwrap();
        assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), big);

        // Update overflow -> still overflow.
        let bigger: Vec<u8> = (0..30_000u32).map(|i| (i % 13) as u8).collect();
        h.update(oid, &bigger, 0).unwrap();
        assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), bigger);

        // Update overflow -> inline.
        h.update(oid, b"now small", 0).unwrap();
        assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), b"now small");

        // Update inline -> overflow.
        h.update(oid, &big, 0).unwrap();
        assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), big);

        h.free(oid, 0).unwrap();
        assert!(!h.exists_vis(oid, Vis::Latest));
    }

    #[test]
    fn freed_overflow_pages_are_reused() {
        let (h, _) = heap("reuse", Placement::Segments, 1, 32);
        let big = vec![5u8; 15_000];
        let a = h.alloc(SegmentId(0), ClusterHint::NONE, &big, 0).unwrap();
        h.free(a, 0).unwrap();
        // Committed frees are deferred: the chain pages come back only
        // at GC, which frees condemned locations in page order.
        h.collect_garbage(u64::MAX);
        let freed = seg_free_pages(&h, 0).len();
        assert!(freed >= 2, "freeing a multi-chunk overflow should reclaim pages");
        let b = h.alloc(SegmentId(0), ClusterHint::NONE, &big, 0).unwrap();
        assert_eq!(h.read_vis(b, Vis::Latest).unwrap(), big);
        // New chain should have drawn from the free list, not grown the file.
        assert!(
            seg_free_pages(&h, 0).len() < freed,
            "free list should have been consumed"
        );
    }

    #[test]
    fn per_object_overhead_inflates_stored_size() {
        let dir = std::env::temp_dir().join(format!("lfs-heap-{}-ovh", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let vfs = crate::vfs::RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let file = Arc::new(PageFile::create(&vfs, &dir.join("d.pg"), stats.clone()).unwrap());
        let pool = Arc::new(BufferPool::new(file.clone(), stats.clone(), 16, false, None));
        let fat = Heap::new(pool, file, stats, Placement::AddressOrder, 1, 24, 16);
        assert_eq!(fat.stored_len(100), 144); // 5+24+100=129, aligned up to 144
        let oid = fat.alloc(SegmentId(0), ClusterHint::NONE, &[9u8; 100], 0).unwrap();
        assert_eq!(fat.read_vis(oid, Vis::Latest).unwrap(), vec![9u8; 100]);
    }

    #[test]
    fn inline_overflow_boundary_round_trips() {
        // The exact inline/overflow boundary: the largest payload whose
        // stored form fits a page record stays inline; one byte more
        // goes to an overflow chain. Both must round-trip, and the
        // discrimination must come from the tag byte, not the length.
        let (h, _) = heap("boundary", Placement::Segments, 1, 32);
        let max_inline = page::MAX_RECORD - RECORD_HDR;
        assert_eq!(h.stored_len(max_inline), page::MAX_RECORD);

        let at = vec![0xABu8; max_inline];
        let a = h.alloc(SegmentId(0), ClusterHint::NONE, &at, 0).unwrap();
        assert_eq!(h.read_vis(a, Vis::Latest).unwrap(), at);
        assert_eq!(stored_of(&h, a)[0], TAG_INLINE, "boundary payload stays inline");

        let over = vec![0xCDu8; max_inline + 1];
        let b = h.alloc(SegmentId(0), ClusterHint::NONE, &over, 0).unwrap();
        assert_eq!(h.read_vis(b, Vis::Latest).unwrap(), over);
        assert_eq!(stored_of(&h, b)[0], TAG_OVERFLOW, "one byte more overflows");
        assert_eq!(stored_of(&h, b).len(), OVERFLOW_HDR);
    }

    #[test]
    fn marker_valued_payload_is_not_misread_as_overflow() {
        // Regression for the overflow-marker collision: a payload whose
        // leading bytes equal the old 0xFFFF_FFFF marker (and a stored
        // record whose length word would have been marker-valued) must
        // decode as plain data — the explicit tag byte, not any stored
        // word, decides the record kind.
        let (h, _) = heap("marker", Placement::Segments, 1, 16);
        let tricky = [0xFFu8, 0xFF, 0xFF, 0xFF, 0x2E, 0x1D, 0x00];
        let oid = h.alloc(SegmentId(0), ClusterHint::NONE, &tricky, 0).unwrap();
        assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), tricky);
        let stored = stored_of(&h, oid);
        assert_eq!(stored[0], TAG_INLINE);
        assert!(!Heap::is_overflow(&stored));
        // Updating and freeing (the paths that branch on is_overflow)
        // treat it as inline: no bogus chain walk.
        h.update(oid, &tricky, 0).unwrap();
        h.free(oid, 0).unwrap();
        h.collect_garbage(u64::MAX);
        assert!(seg_free_pages(&h, 0).is_empty(), "no phantom chain pages were freed");
    }

    #[test]
    fn decode_rejects_corrupt_records_with_typed_errors() {
        let (h, _) = heap("corrupt", Placement::Segments, 1, 8);
        // Shorter than the header.
        assert!(matches!(h.decode(&[TAG_INLINE, 1, 0]), Err(StorageError::Corrupt(_))));
        // Unknown tag (e.g. an all-zero region read as a record).
        assert!(matches!(h.decode(&[0u8; 16]), Err(StorageError::Corrupt(_))));
        // Length word larger than the stored bytes — the old unchecked
        // `start + len` arithmetic is now checked_add + explicit bound.
        let mut huge = vec![0u8; 32];
        huge[0] = TAG_INLINE;
        huge[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(h.decode(&huge), Err(StorageError::Corrupt(_))));
        let mut over = vec![0u8; 32];
        over[0] = TAG_INLINE;
        over[1..5].copy_from_slice(&100u32.to_le_bytes());
        assert!(matches!(h.decode(&over), Err(StorageError::Corrupt(_))));
        // A valid record still decodes.
        let good = h.encode(b"fine");
        assert_eq!(h.decode(&good).unwrap(), b"fine");
    }

    #[test]
    fn free_overflow_leaks_quarantined_chunk_pages() {
        // Freeing an overflow record after one of its chunk pages was
        // quarantined must still succeed, and must not resurrect the
        // damaged page — or anything behind its untrustworthy next
        // pointer — into the free list.
        let (h, _) = heap("qfree", Placement::Segments, 1, 32);
        let big = vec![7u8; 15_000]; // several chunk pages
        let oid = h.alloc(SegmentId(0), ClusterHint::NONE, &big, 0).unwrap();
        let header = stored_of(&h, oid);
        assert_eq!(header[0], TAG_OVERFLOW);
        let first = le_u32_at(&header, 5).unwrap();
        let count = le_u32_at(&header, 9).unwrap();
        assert!(count >= 3, "test needs a multi-page chain, got {count}");
        // Walk to the second chunk page and quarantine it.
        let second = h
            .pool
            .with_page(PageId(first), |buf| le_u32_at(buf, 0))
            .unwrap()
            .unwrap();
        h.file.quarantine(PageId(second));
        h.demote_pages(&[PageId(second)]);

        h.free(oid, 0).unwrap();
        h.collect_garbage(u64::MAX);
        assert!(!h.exists_vis(oid, Vis::Latest));
        let free = seg_free_pages(&h, 0);
        assert!(free.contains(&PageId(first)), "healthy prefix is reclaimed");
        assert!(
            !free.iter().any(|p| p.0 == second),
            "quarantined chunk page must not enter the free list"
        );
        assert_eq!(free.len(), 1, "pages behind the damaged one are leaked, not guessed at");
    }

    #[test]
    fn meta_dump_load_round_trip() {
        let (h, _) = heap("meta", Placement::Segments, 3, 16);
        let mut oids = Vec::new();
        for i in 0..30u32 {
            let seg = SegmentId((i % 3) as u8);
            oids.push(h.alloc(seg, ClusterHint::NONE, &i.to_le_bytes(), 0).unwrap());
        }
        let freed = *oids.get(7).unwrap();
        h.free(freed, 0).unwrap();
        reload(&h);
        for (i, &oid) in oids.iter().enumerate() {
            if i == 7 {
                assert!(!h.exists_vis(oid, Vis::Latest));
            } else {
                assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), (i as u32).to_le_bytes());
            }
        }
        // Oid counter restored: new allocations do not collide.
        let fresh = h.alloc(SegmentId(0), ClusterHint::NONE, b"post", 0).unwrap();
        assert!(fresh.raw() > oids.last().unwrap().raw());
    }

    #[test]
    fn sharded_meta_round_trip_spans_all_shards() {
        // Enough objects that every table shard and several segments are
        // populated, plus overflow chains and a free list: the dump must
        // capture one consistent cut of all shards and load must put
        // every piece back where lookups expect it.
        let (h, _) = heap("metawide", Placement::Segments, 4, 64);
        let mut live = Vec::new();
        for i in 0..200u32 {
            let seg = SegmentId((i % 4) as u8);
            live.push((h.alloc(seg, ClusterHint::NONE, &i.to_le_bytes(), 0).unwrap(), i));
        }
        let big = vec![3u8; 12_000];
        let big_oid = h.alloc(SegmentId(2), ClusterHint::NONE, &big, 0).unwrap();
        // Free an overflow object so the dump carries a free list.
        let doomed = h.alloc(SegmentId(1), ClusterHint::NONE, &vec![4u8; 9_000], 0).unwrap();
        h.free(doomed, 0).unwrap();
        h.collect_garbage(u64::MAX);
        let free_before: usize = (0..4).map(|i| seg_free_pages(&h, i).len()).sum();
        assert!(free_before > 0);

        reload(&h);

        for &(oid, i) in &live {
            assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), i.to_le_bytes());
        }
        assert_eq!(h.read_vis(big_oid, Vis::Latest).unwrap(), big);
        assert!(!h.exists_vis(doomed, Vis::Latest));
        assert_eq!(h.object_count(), live.len() + 1);
        let free_after: usize = (0..4).map(|i| seg_free_pages(&h, i).len()).sum();
        assert_eq!(free_after, free_before, "free pages survive the round trip");
        // The allocator floor survives too.
        let fresh = h.alloc(SegmentId(0), ClusterHint::NONE, b"post", 0).unwrap();
        assert!(fresh.raw() > big_oid.raw());
    }

    #[test]
    fn load_rejects_a_roster_with_no_segments() {
        let (h, _) = heap("noseg", Placement::Segments, 1, 8);
        let oid = h.alloc(SegmentId(0), ClusterHint::NONE, b"x", 0).unwrap();
        let err = h.load(Places::default(), dump(&h).1).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
        assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), b"x", "a refused load changes nothing");
    }

    #[test]
    fn update_nonexistent_and_free_nonexistent_fail() {
        let (h, _) = heap("missing", Placement::Segments, 1, 8);
        let ghost = Oid::from_raw(999);
        assert!(matches!(h.update(ghost, b"x", 0), Err(StorageError::UnknownObject(_))));
        assert!(matches!(h.free(ghost, 0), Err(StorageError::UnknownObject(_))));
    }

    #[test]
    fn concurrent_reads_race_relocating_updates() {
        // Regression: a relocating update must not free the old slot
        // (and perhaps recycle it) between a reader's lookup and its page
        // read. The reader holds its shard's read lock across both; the
        // update unlinks the superseded record under the write lock and
        // condemns it, and only GC frees it.
        let (h, _) = heap("race", Placement::Segments, 1, 64);
        let small = vec![7u8; 100];
        let large = vec![9u8; 3000];
        let oid = h.alloc(SegmentId(0), ClusterHint::NONE, &small, 0).unwrap();
        // Fill the page so growth forces relocation.
        for _ in 0..8 {
            h.alloc(SegmentId(0), ClusterHint::NONE, &[1u8; 400], 0).unwrap();
        }
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for i in 0..2_000 {
                    let payload = if i % 2 == 0 { &large } else { &small };
                    h.update(oid, payload, 0).unwrap();
                }
            });
            let mut readers = Vec::new();
            for _ in 0..3 {
                readers.push(scope.spawn(|| {
                    for _ in 0..2_000 {
                        let got = h.read_vis(oid, Vis::Latest).unwrap();
                        assert!(
                            got == small || got == large,
                            "reader saw a torn/foreign payload of {} bytes",
                            got.len()
                        );
                    }
                }));
            }
            writer.join().unwrap();
            for r in readers {
                r.join().unwrap();
            }
        });
    }

    #[test]
    fn disjoint_segment_writers_never_touch_each_others_shards() {
        // Four threads, each working one segment and an oid residue
        // class that maps to its own set of table shards: no heap lock
        // is ever shared, so every thread's heap-wait profile must stay
        // at zero and no segment lock may record a contended
        // acquisition.
        const THREADS: usize = 4;
        const PER: usize = 64;
        let (h, _) = heap("disjoint", Placement::Segments, THREADS as u8, 128);
        // Oids are sequential from 1, so seg = oid % THREADS gives each
        // thread a segment of its own AND disjoint table shards
        // (TABLE_SHARDS is a multiple of THREADS).
        let mut mine: Vec<Vec<Oid>> = vec![Vec::new(); THREADS];
        for i in 0..THREADS * PER {
            let expect = (i + 1) % THREADS; // oid i+1
            let oid = h
                .alloc(SegmentId(expect as u8), ClusterHint::NONE, &(i as u32).to_le_bytes(), 0)
                .unwrap();
            assert_eq!(oid.raw() as usize % THREADS, expect);
            mine[expect].push(oid);
        }
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (t, oids) in mine.iter().enumerate() {
                let h = &h;
                handles.push(scope.spawn(move || {
                    let before = crate::waits::snapshot();
                    for round in 0..20u32 {
                        for &oid in oids {
                            h.update(oid, &(round + t as u32).to_le_bytes(), 0).unwrap();
                            h.read_vis(oid, Vis::Latest).unwrap();
                        }
                    }
                    crate::waits::snapshot().delta(&before).heap_wait_nanos
                }));
            }
            for handle in handles {
                let waited = handle.join().unwrap();
                assert_eq!(waited, 0, "disjoint-segment writers must never block on heap locks");
            }
        });
        let c = h.contention();
        assert!(
            c.segments.iter().all(|&w| w == 0),
            "no segment lock saw a contended acquisition: {:?}",
            c.segments
        );
        assert!(
            c.table_shards.iter().all(|&w| w == 0),
            "oid-partitioned shards must not contend: {:?}",
            c.table_shards
        );
    }

    #[test]
    fn contended_single_segment_writers_stay_correct() {
        // The opposite extreme: every thread hammers the same segment.
        // Contention is expected; correctness is what's asserted.
        const THREADS: usize = 4;
        const PER: usize = 32;
        let (h, _) = heap("contend", Placement::Segments, 1, 128);
        let mut oids = Vec::new();
        for i in 0..THREADS * PER {
            oids.push(h.alloc(SegmentId(0), ClusterHint::NONE, &(i as u32).to_le_bytes(), 0).unwrap());
        }
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let h = &h;
                let mine: Vec<Oid> = oids[t * PER..(t + 1) * PER].to_vec();
                scope.spawn(move || {
                    for round in 0..30u32 {
                        for (j, &oid) in mine.iter().enumerate() {
                            let val = (t as u32) << 24 | round << 8 | j as u32;
                            h.update(oid, &val.to_le_bytes(), 0).unwrap();
                            assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), val.to_le_bytes());
                            // Churn the segment's placement state too.
                            let extra =
                                h.alloc(SegmentId(0), ClusterHint::NONE, &[t as u8; 64], 0).unwrap();
                            h.free(extra, 0).unwrap();
                        }
                    }
                });
            }
        });
        // Every object holds the last value its owner wrote.
        for (i, &oid) in oids.iter().enumerate() {
            let t = i / PER;
            let j = i % PER;
            let want = (t as u32) << 24 | 29 << 8 | j as u32;
            assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), want.to_le_bytes());
        }
        assert_eq!(h.object_count(), oids.len());
    }

    #[test]
    fn pending_versions_are_invisible_until_committed() {
        let (h, _) = heap("mvcc-pend", Placement::Segments, 1, 16);
        let oid = h.alloc(SegmentId(0), ClusterHint::NONE, b"v1", 7).unwrap();
        // Pending: invisible to plain reads, visible to its owner.
        assert!(matches!(h.read_vis(oid, Vis::Latest), Err(StorageError::UnknownObject(_))));
        assert!(!h.exists_vis(oid, Vis::Latest));
        assert_eq!(h.read_vis(oid, Vis::For(7, u64::MAX)).unwrap(), b"v1");
        assert!(h.exists_vis(oid, Vis::For(7, u64::MAX)));
        h.commit_version(oid, 7, 1, u64::MAX);
        assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), b"v1");

        // A pending update supersedes for the owner only.
        h.update(oid, b"v2", 8).unwrap();
        assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), b"v1");
        assert_eq!(h.read_vis(oid, Vis::For(8, u64::MAX)).unwrap(), b"v2");
        let foreign = h.read_vis(oid, Vis::For(9, u64::MAX)).unwrap();
        assert_eq!(foreign, b"v1", "foreign txn sees committed");
        h.commit_version(oid, 8, 2, u64::MAX);
        assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), b"v2");
        // Snapshot reads resolve by commit LSN.
        assert_eq!(h.read_vis(oid, Vis::At(1)).unwrap(), b"v1");
        assert_eq!(h.read_vis(oid, Vis::At(2)).unwrap(), b"v2");
        assert!(matches!(h.read_vis(oid, Vis::At(0)), Err(StorageError::UnknownObject(_))));
    }

    #[test]
    fn discard_drops_pending_and_restores_committed() {
        let (h, _) = heap("mvcc-disc", Placement::Segments, 1, 16);
        let oid = h.alloc(SegmentId(0), ClusterHint::NONE, b"base", 0).unwrap();
        h.update(oid, b"doomed", 5).unwrap();
        h.update(oid, b"doomed again", 5).unwrap(); // replaces own pending in place
        h.discard_txn(oid, 5);
        assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), b"base");
        // An aborted allocation vanishes entirely.
        let fresh = h.alloc(SegmentId(0), ClusterHint::NONE, b"never", 6).unwrap();
        h.discard_txn(fresh, 6);
        assert!(!h.exists_vis(fresh, Vis::Latest));
        assert!(!h.exists_vis(fresh, Vis::For(6, u64::MAX)));
        // A pending tombstone discards back to visible.
        h.free(oid, 9).unwrap();
        assert!(!h.exists_vis(oid, Vis::For(9, u64::MAX)));
        h.discard_txn(oid, 9);
        assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), b"base");
    }

    #[test]
    fn gc_honours_the_snapshot_low_water_mark() {
        let (h, stats) = heap("mvcc-gc", Placement::Segments, 1, 16);
        let oid = h.alloc(SegmentId(0), ClusterHint::NONE, b"v1", 1).unwrap();
        h.commit_version(oid, 1, 1, u64::MAX);
        h.update(oid, b"v2", 2).unwrap();
        h.commit_version(oid, 2, 2, u64::MAX);
        h.update(oid, b"v3", 3).unwrap();
        h.commit_version(oid, 3, 3, u64::MAX);

        // A snapshot pinned at LSN 1 keeps v1 — and conservatively
        // everything newer (a higher-LSN snapshot could still open).
        h.collect_garbage(1);
        assert_eq!(h.read_vis(oid, Vis::At(1)).unwrap(), b"v1", "pinned version survives GC");
        assert_eq!(h.read_vis(oid, Vis::At(2)).unwrap(), b"v2");
        assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), b"v3");

        // With a floor of 2, v1 is older than the floor-visible version
        // (v2) and must be reclaimed; v2 itself stays. Reading below
        // the floor afterwards is an illegal snapshot (no such snapshot
        // can be open) and reports the object as unknown.
        h.collect_garbage(2);
        assert_eq!(h.read_vis(oid, Vis::At(2)).unwrap(), b"v2", "floor-visible version survives");
        assert!(h.read_vis(oid, Vis::At(1)).is_err(), "v1 reclaimed");

        // Snapshot released: everything below latest goes.
        h.collect_garbage(u64::MAX);
        assert!(h.read_vis(oid, Vis::At(2)).is_err(), "floor gone, only latest survives");
        assert_eq!(h.read_vis(oid, Vis::At(3)).unwrap(), b"v3");
        assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), b"v3");
        assert!(stats.snapshot().versions_gced >= 2);

        // A committed tombstone is itself collectable once unpinned.
        h.free(oid, 4).unwrap();
        h.commit_version(oid, 4, 4, u64::MAX);
        assert!(!h.exists_vis(oid, Vis::Latest));
        h.collect_garbage(u64::MAX);
        assert!(!h.exists_vis(oid, Vis::Latest));
        assert_eq!(h.object_count(), 0);
    }

    /// What the full-table sweep this GC replaced would condemn at
    /// `low_water`: every chain trimmed, none changed, plus what the
    /// shards already hold condemned.
    fn full_sweep(h: &Heap, low_water: u64) -> Vec<Loc> {
        let mut condemned = Vec::new();
        for sh in &h.table {
            let table = sh.map.read();
            for chain in table.chains.values() {
                Heap::trim_chain(&mut chain.clone(), low_water, &mut condemned);
            }
            condemned.extend_from_slice(&table.condemned);
        }
        condemned.sort_unstable_by_key(|loc| (loc.page, loc.slot.0));
        condemned
    }

    #[test]
    fn changed_list_gc_condemns_exactly_what_a_full_sweep_would() {
        // Random transactions — allocate, update, free, then commit or
        // abort — and immediate (txn 0) writes, with snapshots opened
        // and released in between. At every collection the chains on the
        // changed lists must yield exactly the locations a sweep of the
        // whole table yields: no chain with something to trim is ever
        // off the lists, whatever was pinned when it was last looked at.
        for seed in 0..6u64 {
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut rand = move |n: u64| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
            };
            let (h, stats) = heap(&format!("gc-prop-{seed}"), Placement::Segments, 2, 64);
            let mut live: Vec<Oid> = Vec::new();
            let mut snapshots: Vec<u64> = Vec::new();
            let (mut lsn, mut collections, mut pinned_rounds) = (0u64, 0, 0);
            for txn in 1..=1_500u64 {
                let floor = snapshots.iter().copied().min().unwrap_or(u64::MAX);
                match rand(10) {
                    0 => snapshots.push(lsn),
                    1 if !snapshots.is_empty() => {
                        snapshots.swap_remove(rand(snapshots.len() as u64) as usize);
                    }
                    2 => {
                        let want = full_sweep(&h, floor);
                        let (_, mut got) = h.trim_changed(floor);
                        got.sort_unstable_by_key(|loc| (loc.page, loc.slot.0));
                        assert_eq!(got, want, "seed {seed}, txn {txn}, floor {floor}");
                        assert!(full_sweep(&h, floor).is_empty());
                        h.table[0].map.write().condemned.append(&mut got);
                        h.collect_garbage(floor);
                        assert_placement_sound(&h);
                        collections += 1;
                        pinned_rounds += usize::from(floor != u64::MAX);
                    }
                    3 if !live.is_empty() => {
                        let oid = live[rand(live.len() as u64) as usize];
                        h.update(oid, &vec![txn as u8; 40 + rand(400) as usize], 0).unwrap();
                    }
                    _ => {
                        let mut touched: Vec<Oid> = Vec::new();
                        let mut born: Vec<Oid> = Vec::new();
                        let mut freed: Vec<Oid> = Vec::new();
                        for _ in 0..1 + rand(4) {
                            let data = vec![txn as u8; 40 + rand(400) as usize];
                            let pick = rand(10);
                            if pick < 4 || live.is_empty() {
                                let seg = SegmentId(rand(2) as u8);
                                born.push(h.alloc(seg, ClusterHint::NONE, &data, txn).unwrap());
                                touched.extend(born.last());
                                continue;
                            }
                            // One of this transaction's own, now and then.
                            let own = born.last().filter(|_| pick == 9).copied();
                            let oid = own.unwrap_or(live[rand(live.len() as u64) as usize]);
                            if freed.contains(&oid) {
                                continue;
                            }
                            if pick < 8 {
                                h.update(oid, &data, txn).unwrap();
                            } else {
                                h.free(oid, txn).unwrap();
                                freed.push(oid);
                            }
                            touched.push(oid);
                        }
                        if rand(5) == 0 {
                            for &oid in touched.iter().rev() {
                                h.discard_txn(oid, txn);
                            }
                        } else {
                            lsn += 1;
                            for &oid in &touched {
                                h.commit_version(oid, txn, lsn, floor);
                            }
                            live.extend(born);
                            live.retain(|oid| !freed.contains(oid));
                        }
                    }
                }
            }
            // Everything unpinned and collected, one version each is left.
            h.collect_garbage(u64::MAX);
            assert!(full_sweep(&h, u64::MAX).is_empty());
            assert_eq!(h.object_count(), live.len());
            let chains: usize = h.table.iter().map(|sh| sh.map.read().chains.len()).sum();
            assert_eq!(chains, live.len(), "seed {seed}: a dead tombstone was left behind");
            assert!(h.table.iter().all(|sh| sh.map.read().changed.is_empty()));
            assert!(collections > 50 && pinned_rounds > 10, "seed {seed}: {collections} rounds");
            assert!(stats.snapshot().versions_gced > 500, "seed {seed}: {:?}", stats.snapshot());
        }
    }

    #[test]
    fn commit_trims_chains_past_the_soft_bound() {
        let (h, _) = heap("mvcc-trim", Placement::Segments, 1, 32);
        let oid = h.alloc(SegmentId(0), ClusterHint::NONE, b"v0", 1).unwrap();
        h.commit_version(oid, 1, 1, u64::MAX);
        for i in 2..=(MAX_CHAIN as u64 + 6) {
            h.update(oid, format!("v{i}").as_bytes(), i).unwrap();
            h.commit_version(oid, i, i, u64::MAX);
        }
        let len = {
            let shard = h.table[(oid.raw() % TABLE_SHARDS as u64) as usize].map.read();
            shard.chains.get(&oid.raw()).unwrap().len()
        };
        assert!(len <= MAX_CHAIN + 1, "commit-time trim bounds the chain, got {len}");
        // With a floor pinning everything, commits must NOT trim.
        let (h2, _) = heap("mvcc-trim2", Placement::Segments, 1, 32);
        let o2 = h2.alloc(SegmentId(0), ClusterHint::NONE, b"v0", 1).unwrap();
        h2.commit_version(o2, 1, 1, 0);
        for i in 2..=(MAX_CHAIN as u64 + 6) {
            h2.update(o2, format!("v{i}").as_bytes(), i).unwrap();
            h2.commit_version(o2, i, i, 0);
        }
        assert_eq!(h2.read_vis(o2, Vis::At(1)).unwrap(), b"v0", "floor 0 pins the whole history");
    }

    /// Regression for the commit/begin_snapshot race: the engine samples
    /// the snapshot floor before the flip, but a snapshot can register
    /// at the pre-flip LSN right after the sample (registration takes
    /// only the registry lock). Even when the sampled floor says nothing
    /// is pinned (`u64::MAX`), a commit-time trim must keep the previous
    /// committed head — the version such a snapshot is entitled to.
    #[test]
    fn commit_trim_with_stale_floor_keeps_the_pre_flip_head() {
        let (h, _) = heap("mvcc-stale-floor", Placement::Segments, 1, 32);
        let oid = h.alloc(SegmentId(0), ClusterHint::NONE, b"v1", 1).unwrap();
        h.commit_version(oid, 1, 1, u64::MAX);
        // Grow the chain with a "no snapshot open" floor, as a racing
        // engine commit would pass it, and after every commit read at
        // its pre-flip LSN as the racing snapshot would. 2*MAX_CHAIN
        // commits make the trim fire twice, the second time on the last
        // one (the chain re-crosses the soft bound exactly then after
        // the first trim cut it to two).
        let last = 2 * MAX_CHAIN as u64;
        for i in 2..=last {
            h.update(oid, format!("v{i}").as_bytes(), i).unwrap();
            h.commit_version(oid, i, i, u64::MAX);
            let pre_flip = i - 1;
            let owed = h.read_vis(oid, Vis::At(pre_flip)).unwrap_or_else(|e| {
                panic!("commit {i}'s trim took the version a snapshot at {pre_flip} is owed: {e}")
            });
            assert_eq!(owed, format!("v{pre_flip}").as_bytes());
        }
        let len = {
            let shard = h.table[(oid.raw() % TABLE_SHARDS as u64) as usize].map.read();
            shard.chains.get(&oid.raw()).unwrap().len()
        };
        assert_eq!(len, 2, "the final commit must have trimmed the chain");
        assert_eq!(h.read_vis(oid, Vis::At(last)).unwrap(), format!("v{last}").as_bytes());
        assert!(
            h.read_vis(oid, Vis::At(last - 2)).is_err(),
            "versions below the pre-flip head are still reclaimed"
        );
    }

    #[test]
    fn latch_free_readers_survive_concurrent_gc() {
        // The reclamation rule under load: a writer keeps superseding
        // the object's only committed version (condemning the old one)
        // and GC keeps freeing the condemned records, while readers hold
        // the shard's read lock from resolving a version until its bytes
        // are copied out — a whole three-page overflow chain included.
        // Every read must see one of the payloads — never a torn, freed,
        // or foreign record.
        let (h, _) = heap("mvcc-race", Placement::Segments, 1, 64);
        let small = vec![7u8; 100];
        let large = vec![9u8; 3000];
        let chained: Vec<u8> = (0..2 * OVERFLOW_CAP + 100).map(|i| (i % 251) as u8).collect();
        let oid = h.alloc(SegmentId(0), ClusterHint::NONE, &small, 0).unwrap();
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for i in 0..1_500usize {
                    let payload = [&large, &small, &chained][i % 3];
                    h.update(oid, payload, 0).unwrap();
                    if i % 16 == 0 {
                        h.collect_garbage(u64::MAX);
                    }
                }
            });
            let mut readers = Vec::new();
            for _ in 0..3 {
                readers.push(scope.spawn(|| {
                    for _ in 0..2_000 {
                        let got = h.read_vis(oid, Vis::Latest).unwrap();
                        assert!(
                            got == small || got == large || got == chained,
                            "reader saw a torn/freed payload of {} bytes",
                            got.len()
                        );
                    }
                }));
            }
            writer.join().unwrap();
            for r in readers {
                r.join().unwrap();
            }
        });
    }

    /// The deterministic half of the rule above: a read parked between
    /// resolving its version and copying the page still holds the shard,
    /// so no writer can unlink, and hence free, what it resolved.
    #[test]
    fn a_parked_read_keeps_its_version_from_being_freed() {
        let (h, _) = heap("read-parked", Placement::Segments, 1, 16);
        let old = vec![1u8; 16];
        let oid = h.alloc(SegmentId(0), ClusterHint::NONE, &old, 0).unwrap();
        let (resolved, parked) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                AFTER_RESOLVE.set(Some(Box::new(move || {
                    resolved.send(()).unwrap();
                    released.recv().unwrap();
                })));
                h.read_vis(oid, Vis::Latest)
            });
            parked.recv().unwrap();
            let shard = &h.table[(oid.raw() % TABLE_SHARDS as u64) as usize].map;
            let unlinkable = shard.try_write().is_some();
            if unlinkable {
                // What the rule prevents: supersede and free the version
                // under the parked read.
                h.update(oid, &[2u8; 16], 0).unwrap();
                h.collect_garbage(u64::MAX);
            }
            release.send(()).unwrap();
            let got = reader.join().unwrap().map_err(|e| e.to_string());
            assert_eq!(got, Ok(old), "the parked read lost its version");
            assert!(!unlinkable, "a parked read let go of its shard");
        });
    }

    #[test]
    fn snapshot_scans_pin_history_under_writers() {
        // A scanner reading at a pinned LSN races a writer committing
        // new versions (GC floor respects the pin): the scanner must
        // always see exactly its snapshot's value.
        let (h, _) = heap("mvcc-pin", Placement::Segments, 1, 64);
        let base = vec![0x42u8; 600];
        let oid = h.alloc(SegmentId(0), ClusterHint::NONE, &base, 1).unwrap();
        h.commit_version(oid, 1, 1, u64::MAX);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for i in 2..300u64 {
                    h.update(oid, &vec![(i % 251) as u8; 700], i).unwrap();
                    h.commit_version(oid, i, i, 1);
                    if i % 16 == 0 {
                        h.collect_garbage(1);
                    }
                }
            });
            let mut scanners = Vec::new();
            for _ in 0..2 {
                scanners.push(scope.spawn(|| {
                    for _ in 0..1_500 {
                        assert_eq!(
                            h.read_vis(oid, Vis::At(1)).unwrap(),
                            base,
                            "snapshot read must see its pinned version"
                        );
                    }
                }));
            }
            writer.join().unwrap();
            for s in scanners {
                s.join().unwrap();
            }
        });
        // Snapshot gone: GC with no floor leaves only the newest.
        h.collect_garbage(u64::MAX);
        assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), vec![(299u64 % 251) as u8; 700]);
    }

    #[test]
    fn many_objects_survive_tiny_pool() {
        let (h, _) = heap("tiny", Placement::AddressOrder, 1, 2);
        let mut oids = Vec::new();
        for i in 0..500u32 {
            oids.push(h.alloc(SegmentId(0), ClusterHint::NONE, &i.to_le_bytes(), 0).unwrap());
        }
        for (i, &oid) in oids.iter().enumerate() {
            assert_eq!(h.read_vis(oid, Vis::Latest).unwrap(), (i as u32).to_le_bytes());
        }
    }
}
