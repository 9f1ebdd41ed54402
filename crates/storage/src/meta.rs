//! Checkpoint metadata file: the heap's object table and allocation
//! state, as one *base* segment followed by sealed *delta* segments, so
//! that a checkpoint writes what changed since the last one and not the
//! whole table (DESIGN.md, "Checkpoint").
//!
//! ```text
//! base:   magic 8 | version u32 | base length u64
//!         | state | n | n entries | fnv1a-32 over all prior bytes
//! delta:  length u32 | fnv1a-32(offset ‖ length)
//!         | state | n | n entries | fnv1a-32(offset ‖ body)
//! state:  epoch | quarantined page ids | per-page lsn floors | page count
//!         | next oid | per segment: open page, page list | free list
//! entry:  oid gap | 0 (removed), or page + 1 | slot | segment u8
//! ```
//!
//! Every integer but the framing words is a LEB128 varint; entries are
//! ascending by oid and page lists ascending by page, each stored as the
//! gap to its predecessor. The *state* is small (a few bytes per page)
//! and every segment carries it whole: the newest one read is the one in
//! force. The *entries* of the base are the whole object table; those of
//! a delta are the oids whose newest committed version moved since the
//! previous segment ([`crate::heap::Heap::collect_garbage`]).
//!
//! The base is written the way the whole file used to be — tmp file,
//! sync, rename, directory sync — so it is never torn, and any damage to
//! it is a typed [`StorageError::Corrupt`]. A delta is appended in place
//! and made durable by one sync; the engine truncates the log only after
//! that sync. Like a WAL frame it is sealed by its length and by
//! checksums bound to its offset, and read the same way: a delta that
//! ends before its length says it should is the tail a crash tore off an
//! append — the file then reads as the previous checkpoint, whose log was
//! not yet truncated — while a *complete* delta that fails a checksum is
//! damage at rest and is refused, never skipped. A base is rewritten
//! (dropping the deltas) when the deltas outgrow half of it, and by the
//! first checkpoint after an open, which also disposes of a torn tail.
//!
//! The header carries the *checkpoint epoch*: a counter bumped by every
//! checkpoint and stamped into the WAL's reset frame, so recovery can
//! tell whether the log on disk belongs to this metadata (a crash can
//! separate the two). The per-page LSN floors are what let the page file
//! tell a fresh page from a lost or misdirected write; the quarantine
//! list keeps persistently damaged pages fenced across restarts. The page
//! count is how many pages the data file held at the checkpoint: recovery
//! cuts the file back to it, giving back the pages the crashed run
//! allocated after it.
//!
//! Version 6 is this layout; version 5 lacked the page count. An older
//! file is refused by version, typed, before anything else is looked at.
//! There is no compatibility reader.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::checksum::{fnv1a, fnv1a_multi};
use crate::error::{Result, StorageError};
use crate::heap::{Heap, Loc, Places};
use crate::ids::{PageId, SegmentId, Slot};
use crate::stats::StorageStats;
use crate::vfs::{OpenMode, Vfs, VfsFile};

const MAGIC: &[u8; 8] = b"LABFLOW1";
const VERSION: u32 = 6;
/// Magic, version, base length.
const BASE_HDR: usize = 8 + 4 + 8;
/// A delta's length word and the checksum over it.
const DELTA_HDR: usize = 8;
/// The deltas behind a base may grow to `1 / COMPACT_DIVISOR` of it; the
/// checkpoint that finds them larger writes a new base instead. Half
/// keeps the file under the size of the whole-table dump it replaced
/// and makes the O(objects) rewrite one checkpoint in four or five on
/// the paper's build.
const COMPACT_DIVISOR: u64 = 2;

/// Everything a checkpoint persists except the object table: small, and
/// carried whole by every segment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetaState {
    /// Checkpoint epoch (matched against the WAL's reset frame).
    pub epoch: u64,
    /// Pages quarantined for persistent damage at checkpoint time.
    pub quarantined: Vec<u32>,
    /// Per-page LSN floors: the LSN each written page carried when the
    /// checkpoint image was synced (0 = no written image expected).
    pub versions: Vec<u64>,
    /// Pages in the data file at the checkpoint. Every page the state
    /// and the object table name lies below it.
    pub pages: u32,
    /// The heap's placement state.
    pub places: Places,
}

/// A meta file read back: the base with every complete delta applied.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct MetaImage {
    /// The state of the newest segment.
    pub state: MetaState,
    /// The object table: each live oid's newest committed location.
    pub table: BTreeMap<u64, Loc>,
    /// Size of the base segment.
    pub base_bytes: u64,
    /// Size of the complete delta segments behind it.
    pub delta_bytes: u64,
    /// Segments read: the base and the complete deltas.
    pub segments: u32,
}

fn corrupt(detail: &str) -> StorageError {
    StorageError::Corrupt(format!("meta file: {detail}"))
}

// ---- encoding ---------------------------------------------------------------

fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A list as its length and the gap from each element to the one before
/// (wrapping, so any order round-trips; ascending is what is short).
fn put_gaps(out: &mut Vec<u8>, items: impl ExactSizeIterator<Item = u64>) {
    put(out, items.len() as u64);
    let mut prev = 0u64;
    for v in items {
        put(out, v.wrapping_sub(prev));
        prev = v;
    }
}

fn put_state(out: &mut Vec<u8>, state: &MetaState) {
    put(out, state.epoch);
    put_gaps(out, state.quarantined.iter().map(|&p| u64::from(p)));
    put(out, state.versions.len() as u64);
    for &v in &state.versions {
        put(out, v);
    }
    put(out, u64::from(state.pages));
    put(out, state.places.next_oid);
    put(out, state.places.segs.len() as u64);
    for (open, pages) in &state.places.segs {
        put(out, open.map_or(0, |p| u64::from(p.0) + 1));
        put_gaps(out, pages.iter().map(|p| u64::from(p.0)));
    }
    put(out, state.places.free.len() as u64);
    for p in &state.places.free {
        put(out, u64::from(p.0));
    }
}

/// The object-table part of a segment: the count, then each oid (as the
/// gap to the one before) with its location, or `None` for "removed".
fn entries(items: impl ExactSizeIterator<Item = (u64, Option<Loc>)>) -> Vec<u8> {
    let mut out = Vec::with_capacity(10 + 8 * items.len());
    put(&mut out, items.len() as u64);
    let mut prev = 0u64;
    for (oid, loc) in items {
        put(&mut out, oid.wrapping_sub(prev));
        prev = oid;
        match loc {
            None => out.push(0),
            Some(loc) => {
                put(&mut out, u64::from(loc.page.0) + 1);
                put(&mut out, u64::from(loc.slot.0));
                out.push(loc.seg.0);
            }
        }
    }
    out
}

fn seal_base(state: &MetaState, entries: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(BASE_HDR + 4096 + entries.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    let mut body = Vec::with_capacity(4096);
    put_state(&mut body, state);
    let len = BASE_HDR + body.len() + entries.len() + 4;
    out.extend_from_slice(&(len as u64).to_le_bytes());
    out.append(&mut body);
    out.extend_from_slice(entries);
    let crc = fnv1a(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn seal_delta(offset: u64, state: &MetaState, entries: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; DELTA_HDR];
    put_state(&mut out, state);
    out.extend_from_slice(entries);
    let (header, body) = out.split_at_mut(DELTA_HDR);
    let len = (body.len() as u32).to_le_bytes();
    let offset = offset.to_le_bytes();
    let len_sum = fnv1a_multi(&[&offset, &len]).to_le_bytes();
    let body_sum = fnv1a_multi(&[&offset, body]).to_le_bytes();
    for (dst, b) in header.iter_mut().zip(len.into_iter().chain(len_sum)) {
        *dst = b;
    }
    out.extend_from_slice(&body_sum);
    out
}

/// The base segment holding exactly `state` and `table` (ascending by
/// oid). One image has one encoding: the checkpoint oracle compares a
/// folded file with a fresh dump through this.
pub fn base_of(state: &MetaState, table: impl ExactSizeIterator<Item = (u64, Loc)>) -> Vec<u8> {
    seal_base(state, &entries(table.map(|(oid, loc)| (oid, Some(loc)))))
}

// ---- decoding ---------------------------------------------------------------

struct Reader<'a> {
    data: &'a [u8],
}

impl Reader<'_> {
    fn u8(&mut self) -> Result<u8> {
        let (&b, rest) = self.data.split_first().ok_or_else(|| corrupt("truncated segment"))?;
        self.data = rest;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Ok(v);
            }
        }
        Err(corrupt("overlong integer"))
    }

    fn narrow<T: TryFrom<u64>>(&mut self, what: &str) -> Result<T> {
        T::try_from(self.varint()?).map_err(|_| corrupt(what))
    }

    /// An element count: every element takes at least a byte, so a count
    /// beyond the bytes left is damage, caught before allocating for it.
    fn count(&mut self) -> Result<usize> {
        let n: usize = self.narrow("count out of range")?;
        if n > self.data.len() {
            return Err(corrupt("count exceeds the segment"));
        }
        Ok(n)
    }

    fn gaps(&mut self) -> Result<Vec<u32>> {
        let n = self.count()?;
        let mut out = Vec::with_capacity(n);
        let mut prev = 0u64;
        for _ in 0..n {
            prev = prev.wrapping_add(self.varint()?);
            out.push(u32::try_from(prev).map_err(|_| corrupt("page id out of range"))?);
        }
        Ok(out)
    }

    fn state(&mut self) -> Result<MetaState> {
        let epoch = self.varint()?;
        let quarantined = self.gaps()?;
        let nvers = self.count()?;
        let versions = (0..nvers).map(|_| self.varint()).collect::<Result<_>>()?;
        let pages = self.narrow("page count out of range")?;
        let next_oid = self.varint()?;
        let nsegs = self.count()?;
        let mut segs = Vec::with_capacity(nsegs);
        for _ in 0..nsegs {
            let open: u32 = self.narrow("page id out of range")?;
            let pages = self.gaps()?.into_iter().map(PageId).collect();
            segs.push((open.checked_sub(1).map(PageId), pages));
        }
        let nfree = self.count()?;
        let free = (0..nfree)
            .map(|_| self.narrow("page id out of range").map(PageId))
            .collect::<Result<_>>()?;
        Ok(MetaState {
            epoch,
            quarantined,
            versions,
            pages,
            places: Places { next_oid, segs, free },
        })
    }

    /// Apply a segment's entries to `table`. The reader must end with
    /// them: a segment is exactly its state and its entries.
    fn entries_into(&mut self, table: &mut BTreeMap<u64, Loc>, base: bool) -> Result<()> {
        let n = self.count()?;
        let mut oid = 0u64;
        for _ in 0..n {
            oid = oid.wrapping_add(self.varint()?);
            let page: u32 = self.narrow("page id out of range")?;
            match page.checked_sub(1) {
                None if base => return Err(corrupt("a removal in the base segment")),
                None => {
                    table.remove(&oid);
                }
                Some(page) => {
                    let slot = Slot(self.narrow("slot out of range")?);
                    let seg = SegmentId(self.u8()?);
                    table.insert(oid, Loc { page: PageId(page), slot, seg });
                }
            }
        }
        if !self.data.is_empty() {
            return Err(corrupt("bytes left over in a segment"));
        }
        Ok(())
    }
}

fn le_u32(b: &[u8], at: usize) -> Option<u32> {
    b.get(at..at + 4).and_then(|s| s.try_into().ok()).map(u32::from_le_bytes)
}

/// Read a meta file's bytes: verify and decode the base, then apply each
/// complete delta behind it. See the module docs for what a short tail
/// and a failed checksum each mean.
fn fold(data: &[u8]) -> Result<MetaImage> {
    // Magic and version come first: another version seals with another
    // layout, and "unsupported version" is the accurate report.
    if data.get(..8) != Some(MAGIC.as_slice()) {
        return Err(corrupt("bad magic"));
    }
    let version = le_u32(data, 8).ok_or_else(|| corrupt("short header"))?;
    if version != VERSION {
        return Err(corrupt(&format!("unsupported version {version}")));
    }
    let base_len = data
        .get(12..BASE_HDR)
        .and_then(|s| s.try_into().ok())
        .map(u64::from_le_bytes)
        .and_then(|n| usize::try_from(n).ok())
        .filter(|&n| n >= BASE_HDR + 4)
        .ok_or_else(|| corrupt("short header"))?;
    let (Some(sealed), Some(crc)) = (data.get(..base_len - 4), le_u32(data, base_len - 4)) else {
        return Err(corrupt("base segment runs past the end of the file"));
    };
    if fnv1a(sealed) != crc {
        return Err(corrupt("base checksum mismatch (damaged at rest)"));
    }
    let mut image = MetaImage { base_bytes: base_len as u64, segments: 1, ..MetaImage::default() };
    let mut body = Reader { data: sealed.get(BASE_HDR..).unwrap_or_default() };
    image.state = body.state()?;
    body.entries_into(&mut image.table, true)?;

    let mut at = base_len;
    while let (Some(len), Some(sum)) = (le_u32(data, at), le_u32(data, at + 4)) {
        let offset = (at as u64).to_le_bytes();
        if fnv1a_multi(&[&offset, &len.to_le_bytes()]) != sum {
            return Err(corrupt(&format!("delta at byte {at}: length checksum mismatch")));
        }
        let end = at + DELTA_HDR + len as usize;
        let (Some(body), Some(sum)) = (data.get(at + DELTA_HDR..end), le_u32(data, end)) else {
            break; // torn by a crash mid-append: the previous checkpoint stands
        };
        if fnv1a_multi(&[&offset, body]) != sum {
            return Err(corrupt(&format!("delta at byte {at}: checksum mismatch")));
        }
        let mut body = Reader { data: body };
        image.state = body.state()?;
        body.entries_into(&mut image.table, false)?;
        image.segments += 1;
        at = end + 4;
    }
    image.delta_bytes = (at - base_len) as u64;
    Ok(image)
}

/// Read the meta file at `path`, folded, or `None` if it does not exist
/// (fresh store). The one reader: recovery and the scrubber both come
/// through here.
pub fn read_meta(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Option<MetaImage>> {
    vfs.read_all(path)?.map(|data| fold(&data)).transpose()
}

// ---- writing ----------------------------------------------------------------

/// The open meta file, as the checkpoint that last wrote it left it.
pub struct Appendable {
    file: Box<dyn VfsFile>,
    base_len: u64,
    len: u64,
}

/// The segment a checkpoint is about to write, its object-table part
/// already encoded — ahead of the page flush ([`MetaLog::begin`]).
pub enum Segment {
    /// A new base, holding the whole table.
    Base(Vec<u8>),
    /// A delta holding the changed oids, and the file it goes behind.
    Delta(Appendable, Vec<u8>),
}

/// The write side of the meta file, one per engine.
pub struct MetaLog {
    path: PathBuf,
    /// `None` until this handle has written a base, and from
    /// [`MetaLog::begin`] until the segment begun is durable — so after
    /// a checkpoint that failed anywhere the next segment is a base,
    /// written to a new file: nothing is ever appended behind bytes of
    /// unknown state, and no changed oid a failed checkpoint drained
    /// from the heap is ever missing from the file.
    open: Option<Appendable>,
}

impl MetaLog {
    /// A writer for the meta file at `path`. Its first segment is a base.
    pub fn new(path: PathBuf) -> Self {
        MetaLog { path, open: None }
    }

    /// Begin the next segment by encoding its object-table part: all of
    /// `heap`'s table when a base is due — nothing appendable, or the
    /// deltas have outgrown their share of the base — and else `changed`,
    /// what [`Heap::collect_garbage`] just returned.
    pub fn begin(&mut self, heap: &Heap, changed: &[(u64, Option<Loc>)]) -> Segment {
        match self.open.take() {
            Some(open) if open.len - open.base_len <= open.base_len / COMPACT_DIVISOR => {
                Segment::Delta(open, entries(changed.iter().copied()))
            }
            _ => Segment::Base(entries(
                heap.table().into_iter().map(|(oid, loc)| (oid, Some(loc))),
            )),
        }
    }

    /// Write the segment, with `state`, and make it durable. On return
    /// the file on disk folds to `state` and the heap's object table; on
    /// an error it folds to that or to what it held before.
    pub fn finish(
        &mut self,
        vfs: &Arc<dyn Vfs>,
        state: &MetaState,
        segment: Segment,
        stats: &StorageStats,
    ) -> Result<()> {
        let (open, written) = match segment {
            Segment::Delta(mut open, entries) => {
                let frame = seal_delta(open.len, state, &entries);
                open.file.write_at(open.len, &frame)?;
                open.file.sync()?;
                open.len += frame.len() as u64;
                (open, frame.len())
            }
            Segment::Base(entries) => {
                let base = seal_base(state, &entries);
                let tmp = self.path.with_extension("meta.tmp");
                let mut file = vfs.open(&tmp, OpenMode::Create)?;
                file.write_at(0, &base)?;
                file.sync()?;
                vfs.rename(&tmp, &self.path)?;
                // Without the directory sync a power loss can roll the
                // namespace back to the old meta while the WAL has
                // already been truncated.
                vfs.sync_dir(self.path.parent().unwrap_or_else(|| Path::new(".")))?;
                StorageStats::bump(&stats.meta_compactions, 1);
                // The handle follows the file through the rename.
                let len = base.len() as u64;
                (Appendable { file, base_len: len, len }, base.len())
            }
        };
        StorageStats::bump(&stats.meta_bytes_written, written as u64);
        self.open = Some(open);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{RealVfs, SimVfs};

    fn loc(page: u32, slot: u16, seg: u8) -> Loc {
        Loc { page: PageId(page), slot: Slot(slot), seg: SegmentId(seg) }
    }

    fn state(epoch: u64) -> MetaState {
        MetaState {
            epoch,
            quarantined: vec![3, 9],
            versions: vec![0, 7, 300, 0, epoch],
            pages: 701,
            places: Places {
                next_oid: 1_000 + epoch,
                segs: vec![
                    (Some(PageId(4)), vec![PageId(1), PageId(4), PageId(700)]),
                    (None, vec![]),
                ],
                free: vec![PageId(9), PageId(2)],
            },
        }
    }

    fn base_of_table(table: &BTreeMap<u64, Loc>) -> Segment {
        Segment::Base(entries(table.iter().map(|(&oid, &loc)| (oid, Some(loc)))))
    }

    /// The delta `MetaLog::begin` would hand out for these changes.
    fn delta_of(log: &mut MetaLog, changes: &[(u64, Option<Loc>)]) -> Segment {
        Segment::Delta(log.open.take().unwrap(), entries(changes.iter().copied()))
    }

    /// The file system and path of a built file, the table it must fold
    /// to, and each segment's end offset.
    type Built = (Arc<dyn Vfs>, SimVfs, PathBuf, BTreeMap<u64, Loc>, Vec<usize>);

    /// A file of one base and `deltas` deltas on a fresh `SimVfs`.
    fn build(deltas: u64) -> Built {
        let sim = SimVfs::new(1);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let path = PathBuf::from("/sim/store.meta");
        let stats = StorageStats::default();
        let mut log = MetaLog::new(path.clone());
        let mut table: BTreeMap<u64, Loc> =
            (1..=40u64).map(|oid| (oid * 3, loc(oid as u32, 2, 1))).collect();
        log.finish(&vfs, &state(1), base_of_table(&table), &stats).unwrap();
        let mut ends = vec![vfs.size(&path).unwrap().unwrap() as usize];
        for d in 0..deltas {
            let moved = (6 + 3 * d, Some(loc(500 + d as u32, d as u16, 0)));
            let gone = (60 + 3 * d, None);
            let born = (1_000 + d, Some(loc(70_000, 0, 3)));
            for (oid, l) in [moved, gone, born] {
                match l {
                    Some(l) => table.insert(oid, l),
                    None => table.remove(&oid),
                };
            }
            let delta = delta_of(&mut log, &[moved, gone, born]);
            log.finish(&vfs, &state(2 + d), delta, &stats).unwrap();
            ends.push(vfs.size(&path).unwrap().unwrap() as usize);
        }
        let s = stats.snapshot();
        assert_eq!(s.meta_compactions, 1);
        assert_eq!(s.meta_bytes_written, *ends.last().unwrap() as u64);
        (vfs, sim, path, table, ends)
    }

    #[test]
    fn base_and_deltas_fold_to_the_newest_state_and_table() {
        let (vfs, _, path, table, ends) = build(3);
        let image = read_meta(&vfs, &path).unwrap().unwrap();
        assert_eq!(image.state, state(4));
        assert_eq!(image.table, table);
        assert_eq!((image.segments, image.base_bytes), (4, ends[0] as u64));
        assert_eq!(image.delta_bytes, (ends[3] - ends[0]) as u64);
        // One image, one encoding: the fold re-seals to the fresh dump.
        let fresh = base_of(&state(4), table.clone().into_iter());
        assert!(base_of(&image.state, image.table.into_iter()) == fresh);
        assert_eq!(fold(&fresh).unwrap().table, table);
    }

    #[test]
    fn missing_file_reports_fresh() {
        let vfs = RealVfs::arc();
        let path = std::env::temp_dir().join(format!("lfs-meta-{}-nope", std::process::id()));
        assert_eq!(read_meta(&vfs, &path).unwrap(), None);
    }

    #[test]
    fn a_torn_final_delta_reads_as_the_previous_checkpoint() {
        let (vfs, _, path, _, ends) = build(2);
        let data = vfs.read_all(&path).unwrap().unwrap();
        let whole = fold(&data).unwrap();
        let before = fold(&data[..ends[1]]).unwrap();
        assert_eq!(before.state, state(2));
        assert_ne!(before.table, whole.table);
        // Every cut inside the last delta, its header included.
        for cut in ends[1]..ends[2] {
            assert_eq!(fold(&data[..cut]).unwrap(), before, "cut at byte {cut}");
        }
        // The base is renamed into place whole: a short one is damage.
        for cut in [0, 7, 12, BASE_HDR, ends[0] / 2, ends[0] - 1] {
            assert!(fold(&data[..cut]).unwrap_err().is_corruption(), "cut at byte {cut}");
        }
    }

    #[test]
    fn a_bit_flip_in_a_complete_segment_is_typed_corruption_never_skipped() {
        let (vfs, _, path, _, ends) = build(2);
        let data = vfs.read_all(&path).unwrap().unwrap();
        assert_eq!(data.len(), ends[2]);
        // The base, the first delta and the final delta; every byte,
        // length words and checksums included.
        for at in 0..data.len() {
            let mut rotted = data.clone();
            rotted[at] ^= 0x10;
            let err = fold(&rotted).expect_err(&format!("flip at byte {at} went unnoticed"));
            assert!(err.is_corruption(), "byte {at}: want typed corruption, got {err}");
        }
    }

    #[test]
    fn other_versions_are_refused_by_version() {
        // A well-formed version-4 file: magic, version, epoch, empty
        // tables, heap dump, whole-file seal. Refused for its version,
        // not reported as bit rot.
        let mut v4 = Vec::new();
        v4.extend_from_slice(MAGIC);
        v4.extend_from_slice(&4u32.to_le_bytes());
        v4.extend_from_slice(&[0u8; 40]);
        let seal = fnv1a(&v4);
        v4.extend_from_slice(&seal.to_le_bytes());
        let not_meta = b"NOTMETA!....".to_vec();
        for (bytes, want) in [(v4, "unsupported version 4"), (not_meta, "bad magic")] {
            match fold(&bytes) {
                Err(StorageError::Corrupt(detail)) => assert!(detail.contains(want), "{detail:?}"),
                other => panic!("expected a typed refusal, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_failed_append_is_followed_by_a_base_in_a_new_file() {
        let (vfs, sim, path, table, _) = build(0);
        let stats = StorageStats::default();
        let mut log = MetaLog::new(path.clone());
        log.finish(&vfs, &state(1), base_of_table(&table), &stats).unwrap();
        // The append's write lands, its sync fails.
        sim.set_plan(crate::vfs::FaultPlan {
            fail_ops: vec![sim.op_count() + 1],
            ..Default::default()
        });
        let delta = delta_of(&mut log, &[(6, None)]);
        assert!(log.finish(&vfs, &state(2), delta, &stats).is_err());
        assert!(log.open.is_none(), "the handle must not append behind bytes it cannot vouch for");
        log.finish(&vfs, &state(3), base_of_table(&table), &stats).unwrap();
        let image = read_meta(&vfs, &path).unwrap().unwrap();
        assert_eq!((image.state, image.segments), (state(3), 1));
        assert_eq!(stats.snapshot().meta_compactions, 2);
    }
}
