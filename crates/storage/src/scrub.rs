//! Offline integrity scrub: read and verify every persistent artifact
//! of a store without opening an engine over it.
//!
//! The scrubber is the audit side of the corruption-detection story:
//! the page file verifies lazily (on read), the engine repairs at open,
//! and `scrub` walks the whole image eagerly — the meta file's base and
//! delta checksums, every page header against the checkpoint's LSN
//! floors (those of the newest meta segment), and the WAL's
//! position-bound frame checksums — and reports what it found. A clean
//! report means every byte that could be read back was proven to be the
//! byte that was written; quarantined pages are listed, not read (they
//! are known damage, fenced and typed, awaiting overwrite).

use std::path::Path;
use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::heap::{Heap, Placement, SegmentSpace};
use crate::ids::PageId;
use crate::meta::read_meta;
use crate::pagefile::{PageFile, PageRead};
use crate::stats::StorageStats;
use crate::vfs::Vfs;
use crate::wal::Wal;
use crate::PAGE_PAYLOAD;

/// What a [`scrub_store`] pass found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Checkpoint epoch of the metadata the scrub ran against.
    pub epoch: u64,
    /// Total pages in the data file.
    pub pages: u32,
    /// Pages with a verified written image.
    pub ok: u32,
    /// Pages never written (no image expected, none found).
    pub fresh: u32,
    /// Pages fenced by the checkpoint's quarantine set (known damage,
    /// reads fail typed; skipped by the scrub).
    pub quarantined: u32,
    /// Damaged pages *outside* the quarantine set — each one is a page
    /// the engine would currently trust. A clean image has none.
    pub corrupt: Vec<u32>,
    /// Intact WAL frames verified against their offsets.
    pub wal_frames: u64,
}

impl ScrubReport {
    /// True when no unquarantined damage was found.
    pub fn clean(&self) -> bool {
        self.corrupt.is_empty()
    }
}

/// Verify the store image at `dir`: the meta file's segments, every data
/// page against its header and the LSN floor the folded meta file
/// records, and every complete WAL frame against its position-bound
/// checksum.
///
/// Damage in the meta file or the WAL interior surfaces as a typed
/// error (there is nothing sensible to report *against* without a
/// trustworthy checkpoint); damaged data pages are collected into the
/// report instead, because the caller's next question is "which ones".
pub fn scrub_store(vfs: &Arc<dyn Vfs>, dir: &Path) -> Result<ScrubReport> {
    let meta_path = dir.join("store.meta");
    let data_path = dir.join("data.pg");
    let wal_path = dir.join("wal.log");

    let Some(image) = read_meta(vfs, &meta_path)? else {
        return Err(StorageError::BadPath(format!("no store at {}", dir.display())));
    };
    let state = image.state;

    let mut report = ScrubReport { epoch: state.epoch, ..ScrubReport::default() };
    let stats = Arc::new(StorageStats::default());
    let file = PageFile::open(vfs, &data_path, stats)?;
    file.set_version_floors(state.versions);
    file.set_quarantined(&state.quarantined);
    report.pages = file.page_count();
    let mut buf = vec![0u8; PAGE_PAYLOAD];
    for raw in 0..report.pages {
        if file.is_quarantined(PageId(raw)) {
            report.quarantined += 1;
            continue;
        }
        match file.read_page(PageId(raw), &mut buf) {
            Ok(PageRead::Loaded) => report.ok += 1,
            Ok(PageRead::Fresh) => report.fresh += 1,
            Err(e) if e.is_corruption() => report.corrupt.push(raw),
            Err(e) => return Err(e),
        }
    }

    if vfs.exists(&wal_path) {
        report.wal_frames = Wal::replay(vfs, &wal_path)?.frames;
    }
    Ok(report)
}

/// Where a store image's bytes are, from [`space_report`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpaceReport {
    /// One entry per heap segment, in segment order.
    pub segments: Vec<SegmentSpace>,
    /// Pages in the data file. Those no segment accounts for (as
    /// slotted, overflow or free-list pages) are leaked.
    pub data_pages: u32,
    /// Size of the data file.
    pub data_bytes: u64,
    /// Size of the meta file (object table, page lists, version floors).
    pub meta_bytes: u64,
    /// Of which its base segment.
    pub meta_base_bytes: u64,
    /// Of which the complete delta segments behind the base.
    pub meta_delta_bytes: u64,
    /// Meta segments: the base and the complete deltas.
    pub meta_segments: u32,
    /// Size of the write-ahead log.
    pub wal_bytes: u64,
}

/// Account for the bytes of the store image at `dir`, per segment, as
/// of its last checkpoint (the log is sized, not replayed). Read-only:
/// a heap is loaded from the meta file over the data file and asked
/// for its space report; nothing is written or repaired.
pub fn space_report(vfs: &Arc<dyn Vfs>, dir: &Path) -> Result<SpaceReport> {
    let meta_path = dir.join("store.meta");
    let Some(meta_bytes) = vfs.size(&meta_path)? else {
        return Err(StorageError::BadPath(format!("no store at {}", dir.display())));
    };
    let stats = Arc::new(StorageStats::default());
    let file = Arc::new(PageFile::open(vfs, &dir.join("data.pg"), stats.clone())?);
    let pool = Arc::new(BufferPool::new(file.clone(), stats.clone(), 64, false, None));
    // The segment roster comes from the meta file; the placement policy
    // only matters to writes.
    let heap = Heap::new(pool, file.clone(), stats, Placement::Segments, 1, 0, 1);
    let image = read_meta(vfs, &meta_path)?.unwrap_or_default();
    file.set_version_floors(image.state.versions);
    file.set_quarantined(&image.state.quarantined);
    heap.load(image.state.places, image.table)?;
    Ok(SpaceReport {
        segments: heap.space_report()?,
        data_pages: file.page_count(),
        data_bytes: file.len_bytes()?,
        meta_bytes,
        meta_base_bytes: image.base_bytes,
        meta_delta_bytes: image.delta_bytes,
        meta_segments: image.segments,
        wal_bytes: vfs.size(&dir.join("wal.log"))?.unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Options, Profile};
    use crate::ids::{ClusterHint, SegmentId};
    use crate::traits::StorageManager;
    use crate::vfs::SimVfs;
    use std::path::PathBuf;

    fn built_store(seed: u64) -> (SimVfs, Arc<dyn Vfs>, PathBuf) {
        let sim = SimVfs::new(seed);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let dir = PathBuf::from("/sim/store");
        let store =
            Engine::create_with(vfs.clone(), &dir, Profile::ostore(), Options::default()).unwrap();
        let t = store.begin().unwrap();
        for i in 0..300u32 {
            store
                .allocate(t, SegmentId(0), ClusterHint::NONE, &[(i % 251) as u8; 64])
                .unwrap();
        }
        store.commit(t).unwrap();
        store.checkpoint().unwrap();
        (sim, vfs, dir)
    }

    #[test]
    fn clean_store_scrubs_clean() {
        let (_sim, vfs, dir) = built_store(5);
        let report = scrub_store(&vfs, &dir).unwrap();
        assert!(report.clean());
        assert!(report.ok > 0, "written pages must verify");
        assert_eq!(report.quarantined, 0);
        assert!(report.epoch >= 1);
    }

    #[test]
    fn space_report_accounts_for_every_page_without_writing() {
        let (_sim, vfs, dir) = built_store(9);
        let files = ["data.pg", "store.meta", "wal.log"].map(|f| dir.join(f));
        let image = |vfs: &Arc<dyn Vfs>| files.clone().map(|f| vfs.read_all(&f).unwrap());
        let before = image(&vfs);
        let space = space_report(&vfs, &dir).unwrap();
        let accounted: u64 =
            space.segments.iter().map(|s| s.pages + s.overflow_pages + s.free_pages).sum();
        assert_eq!(accounted, u64::from(space.data_pages));
        assert_eq!(space.data_bytes, u64::from(space.data_pages) * crate::PAGE_SIZE as u64);
        assert!(space.segments[0].live_bytes >= 300 * 64);
        assert!(space.meta_bytes > 0 && space.wal_bytes > 0);
        assert!(image(&vfs) == before, "the report must not write");
    }

    #[test]
    fn scrub_and_space_report_read_the_folded_meta() {
        // The store's objects, page lists and LSN floors are all in the
        // delta its one explicit checkpoint appended; the base, written
        // at create, describes an empty store at epoch 1.
        let (_sim, vfs, dir) = built_store(10);
        let report = scrub_store(&vfs, &dir).unwrap();
        assert_eq!(report.epoch, 2, "the newest segment's epoch");
        assert!(report.clean() && report.ok > 0);
        let space = space_report(&vfs, &dir).unwrap();
        assert_eq!(space.meta_segments, 2);
        assert!(space.meta_delta_bytes > space.meta_base_bytes);
        assert_eq!(space.meta_base_bytes + space.meta_delta_bytes, space.meta_bytes);
        assert_eq!(space.segments.len(), 4, "the roster comes from the delta too");
    }

    #[test]
    fn flipped_page_bit_is_localized() {
        let (sim, vfs, dir) = built_store(6);
        sim.flip_durable_bit(&dir.join("data.pg")).unwrap();
        let report = scrub_store(&vfs, &dir).unwrap();
        assert_eq!(report.corrupt.len(), 1, "one flipped bit damages exactly one page");
        assert!(!report.clean());
    }

    #[test]
    fn damaged_meta_is_a_typed_error() {
        let (sim, vfs, dir) = built_store(7);
        sim.flip_durable_bit(&dir.join("store.meta")).unwrap();
        let err = scrub_store(&vfs, &dir).unwrap_err();
        assert!(err.is_corruption(), "want typed corruption, got {err}");
    }

    #[test]
    fn missing_store_is_bad_path() {
        let sim = SimVfs::new(8);
        let vfs: Arc<dyn Vfs> = Arc::new(sim);
        assert!(matches!(
            scrub_store(&vfs, Path::new("/sim/nope")),
            Err(StorageError::BadPath(_))
        ));
    }
}
