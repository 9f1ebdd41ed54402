//! A file of fixed-size pages with physical-I/O accounting and
//! end-to-end verification.
//!
//! Every physical page begins with a [`PAGE_HDR`]-byte self-describing
//! header stamped on write and verified on read:
//!
//! ```text
//! magic u32 | page id u32 | lsn u64 | fnv1a(pid ‖ lsn ‖ reserved ‖ payload) u32 | reserved u32
//! ```
//!
//! The header answers three questions no raw read can: *is this the
//! page I asked for* (a misdirected write lands a perfectly valid image
//! at the wrong offset), *are the bytes intact* (bit rot flips bits at
//! rest or on the wire), and *is this the newest image* (a lost write
//! leaves a stale-but-valid page behind; the checkpoint records every
//! page's LSN in the meta file, and an image older than that floor is
//! damage, not history). Never-written pages are carved out explicitly:
//! an all-zero page — or a read beyond EOF — is reported as
//! [`PageRead::Fresh`] only when no written image is expected there;
//! with a recorded LSN floor it is truncation damage.
//!
//! Verification failures surface as [`StorageError::PageChecksum`] /
//! [`StorageError::MisdirectedPage`]. A failed read is retried once
//! immediately — transient read corruption (a bus glitch, `SimVfs`'s
//! seeded `flip_read_ops`) does not recur, and the re-read *is* the
//! read-repair for that fault class. Persistent damage is the caller's
//! problem; the engine quarantines such pages at recovery, and a full
//! page overwrite heals the quarantine (the new image replaces the bad
//! bytes entirely).

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::checksum::fnv1a_multi;
use crate::error::{Result, StorageError};
use crate::ids::PageId;
use crate::retry::with_retries;
use crate::stats::StorageStats;
use crate::vfs::{OpenMode, Vfs, VfsFile};
use crate::{PAGE_PAYLOAD, PAGE_SIZE};

/// Bytes of each physical page reserved for the verification header.
pub const PAGE_HDR: usize = 24;

const PAGE_MAGIC: u32 = 0x4C46_5047; // "LFPG"

/// What a successful page read found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageRead {
    /// A written, verified page image; the payload was copied out.
    Loaded,
    /// The page was allocated but never written (beyond EOF or all
    /// zero, with no recorded write): the payload is logically zero.
    /// Callers that expected data here should treat this as damage —
    /// the page file itself only does so when the checkpoint recorded
    /// a written image for the page.
    Fresh,
}

/// Everything guarded by the page-file lock: the handle, a scratch
/// buffer for header assembly, and the verification state.
struct FileState {
    handle: Box<dyn VfsFile>,
    /// Physical length of the file in bytes. Only this type extends or
    /// truncates the file, so the length is read once at open and kept
    /// here instead of being asked of the handle on every page I/O.
    len: u64,
    scratch: Vec<u8>,
    /// Per-page LSN floor: the LSN each page carried at the last
    /// checkpoint (0 = no written image expected). A durable image
    /// below its floor is a lost write.
    versions: Vec<u64>,
    /// Pages with persistent damage: reads fail typed without touching
    /// the disk until a full overwrite heals them.
    quarantined: BTreeSet<u32>,
}

enum Verified {
    Ok,
    Fresh,
    Bad(StorageError),
}

/// A page-granular file. All physical reads and writes flow through here
/// and are counted in the shared [`StorageStats`].
pub struct PageFile {
    file: Mutex<FileState>,
    page_count: AtomicU32,
    lsn: AtomicU64,
    stats: Arc<StorageStats>,
}

fn split_u32(b: &[u8]) -> Option<(u32, &[u8])> {
    let (head, rest) = b.split_at_checked(4)?;
    let arr: [u8; 4] = head.try_into().ok()?;
    Some((u32::from_le_bytes(arr), rest))
}

fn split_u64(b: &[u8]) -> Option<(u64, &[u8])> {
    let (head, rest) = b.split_at_checked(8)?;
    let arr: [u8; 8] = head.try_into().ok()?;
    Some((u64::from_le_bytes(arr), rest))
}

/// Decoded page header fields paired with the payload slice.
struct DecodedPage<'a> {
    magic: u32,
    pid: u32,
    lsn: u64,
    crc: u32,
    reserved: u32,
    payload: &'a [u8],
}

/// Checked header decode.
fn decode_page(page: &[u8]) -> Option<DecodedPage<'_>> {
    let (magic, rest) = split_u32(page)?;
    let (pid, rest) = split_u32(rest)?;
    let (lsn, rest) = split_u64(rest)?;
    let (crc, rest) = split_u32(rest)?;
    let (reserved, payload) = split_u32(rest)?;
    Some(DecodedPage { magic, pid, lsn, crc, reserved, payload })
}

/// The page checksum covers every header field except the crc itself
/// (magic damage already has its own typed report) — including the
/// reserved word, so no byte of the page can rot unnoticed.
fn page_crc(pid: u32, lsn: u64, reserved: u32, payload: &[u8]) -> u32 {
    fnv1a_multi(&[
        &pid.to_le_bytes(),
        &lsn.to_le_bytes(),
        &reserved.to_le_bytes(),
        payload,
    ])
}

impl PageFile {
    /// Create a new, empty page file (truncating any existing file).
    pub fn create(vfs: &Arc<dyn Vfs>, path: &Path, stats: Arc<StorageStats>) -> Result<Self> {
        let file = vfs.open(path, OpenMode::Create)?;
        Ok(PageFile {
            file: Mutex::new(FileState {
                handle: file,
                len: 0,
                scratch: vec![0u8; PAGE_SIZE],
                versions: Vec::new(),
                quarantined: BTreeSet::new(),
            }),
            page_count: AtomicU32::new(0),
            lsn: AtomicU64::new(0),
            stats,
        })
    }

    /// Open an existing page file.
    pub fn open(vfs: &Arc<dyn Vfs>, path: &Path, stats: Arc<StorageStats>) -> Result<Self> {
        let mut file = vfs.open(path, OpenMode::Open)?;
        let len = file.len()?;
        // Ceiling, not floor: a crash can leave the file ending
        // mid-page, and that torn tail is still page territory.
        let pages = len.div_ceil(PAGE_SIZE as u64) as u32;
        Ok(PageFile {
            file: Mutex::new(FileState {
                handle: file,
                len,
                scratch: vec![0u8; PAGE_SIZE],
                versions: Vec::new(),
                quarantined: BTreeSet::new(),
            }),
            page_count: AtomicU32::new(pages),
            lsn: AtomicU64::new(0),
            stats,
        })
    }

    /// Cut the file back to the `pages` the last checkpoint recorded.
    /// Pages a crashed run allocated after it are in no segment and on
    /// no free list, so recovery gives them back before it reads or
    /// redoes anything; the page count becomes the checkpoint's.
    pub fn truncate_to(&self, pages: u32) -> Result<()> {
        let mut guard = self.file.lock();
        let FileState { handle, len, .. } = &mut *guard;
        let keep = u64::from(pages) * PAGE_SIZE as u64;
        if *len > keep {
            with_retries(
                || handle.set_len(keep),
                || StorageStats::bump(&self.stats.io_retries, 1),
            )?;
            *len = keep;
        }
        self.page_count.store(pages, Ordering::Release);
        Ok(())
    }

    /// Install the per-page LSN floors recorded by the last checkpoint.
    /// Future LSNs continue above the highest floor.
    pub fn set_version_floors(&self, versions: Vec<u64>) {
        let max = versions.iter().copied().max().unwrap_or(0);
        self.lsn.fetch_max(max, Ordering::AcqRel);
        self.file.lock().versions = versions;
    }

    /// Snapshot of the per-page LSNs, for the checkpoint to persist.
    pub fn version_table(&self) -> Vec<u64> {
        self.file.lock().versions.clone()
    }

    /// Install the quarantine set recorded by the last checkpoint.
    pub fn set_quarantined(&self, pids: &[u32]) {
        self.file.lock().quarantined = pids.iter().copied().collect();
    }

    /// Pages currently quarantined, for the checkpoint to persist.
    pub fn quarantined_pages(&self) -> Vec<u32> {
        self.file.lock().quarantined.iter().copied().collect()
    }

    /// Mark `pid` as persistently damaged: reads fail typed until a
    /// full overwrite replaces the image.
    pub fn quarantine(&self, pid: PageId) {
        if self.file.lock().quarantined.insert(pid.0) {
            StorageStats::bump(&self.stats.pages_quarantined, 1);
        }
    }

    /// True if `pid` is currently quarantined.
    pub fn is_quarantined(&self, pid: PageId) -> bool {
        self.file.lock().quarantined.contains(&pid.0)
    }

    /// Number of pages currently in the file (allocated pages may not yet
    /// have been physically written).
    pub fn page_count(&self) -> u32 {
        self.page_count.load(Ordering::Acquire)
    }

    /// Reserve the next page id. The page is materialized on first write;
    /// reading an allocated-but-unwritten page yields zeroes.
    pub fn allocate_page(&self) -> PageId {
        PageId(self.page_count.fetch_add(1, Ordering::AcqRel))
    }

    /// Read and verify one page image. Infallible I/O-wise only in the
    /// sense that transient errors are retried; returns the verdict.
    fn load_and_verify(&self, st: &mut FileState, pid: PageId) -> Result<Verified> {
        let offset = pid.0 as u64 * PAGE_SIZE as u64;
        let FileState { handle, len, scratch, versions, .. } = st;
        let floor = versions.get(pid.0 as usize).copied().unwrap_or(0);
        let file_len = *len;
        if offset >= file_len {
            if floor > 0 {
                return Ok(Verified::Bad(StorageError::PageChecksum {
                    page: pid.0,
                    detail: format!(
                        "file truncated below a written page (expected lsn >= {floor})"
                    ),
                }));
            }
            return Ok(Verified::Fresh);
        }
        scratch.fill(0);
        let avail = ((file_len - offset) as usize).min(PAGE_SIZE);
        let dst = scratch.get_mut(..avail).unwrap_or_default();
        with_retries(
            || handle.read_at(offset, dst),
            || StorageStats::bump(&self.stats.io_retries, 1),
        )?;
        if scratch.iter().all(|&b| b == 0) {
            // Never-written carve-out: an all-zero page is "fresh", but
            // only where no written image is expected.
            if floor > 0 {
                return Ok(Verified::Bad(StorageError::PageChecksum {
                    page: pid.0,
                    detail: format!(
                        "all-zero page where a written image was expected (lsn >= {floor})"
                    ),
                }));
            }
            return Ok(Verified::Fresh);
        }
        let Some(DecodedPage { magic, pid: hdr_pid, lsn, crc, reserved, payload }) =
            decode_page(scratch)
        else {
            return Ok(Verified::Bad(StorageError::PageChecksum {
                page: pid.0,
                detail: "short page".into(),
            }));
        };
        if magic != PAGE_MAGIC {
            return Ok(Verified::Bad(StorageError::PageChecksum {
                page: pid.0,
                detail: format!("bad magic {magic:#010x}"),
            }));
        }
        if crc != page_crc(hdr_pid, lsn, reserved, payload) {
            return Ok(Verified::Bad(StorageError::PageChecksum {
                page: pid.0,
                detail: "checksum mismatch".into(),
            }));
        }
        if hdr_pid != pid.0 {
            return Ok(Verified::Bad(StorageError::MisdirectedPage {
                expected: pid.0,
                found: hdr_pid,
            }));
        }
        if lsn < floor {
            return Ok(Verified::Bad(StorageError::PageChecksum {
                page: pid.0,
                detail: format!("stale image (lost write): page lsn {lsn} < expected {floor}"),
            }));
        }
        Ok(Verified::Ok)
    }

    fn copy_payload(st: &FileState, buf: &mut [u8]) {
        if let Some(src) = st.scratch.get(PAGE_HDR..) {
            buf.copy_from_slice(src);
        }
    }

    /// Read page `pid` into `buf` (which must be [`PAGE_PAYLOAD`] long),
    /// verifying the page header and checksum.
    ///
    /// Returns [`PageRead::Fresh`] — with `buf` zeroed — for pages that
    /// were never written (beyond EOF or all-zero, with no recorded LSN
    /// floor). A verification failure is retried with one immediate
    /// re-read (repairing transient read corruption); persistent damage
    /// returns [`StorageError::PageChecksum`] or
    /// [`StorageError::MisdirectedPage`], and quarantined pages fail
    /// without touching the disk.
    pub fn read_page(&self, pid: PageId, buf: &mut [u8]) -> Result<PageRead> {
        debug_assert_eq!(buf.len(), PAGE_PAYLOAD);
        let mut st = self.file.lock();
        if st.quarantined.contains(&pid.0) {
            return Err(StorageError::PageChecksum {
                page: pid.0,
                detail: "page is quarantined (persistent damage; overwrite to heal)".into(),
            });
        }
        let verdict = self.load_and_verify(&mut st, pid)?;
        StorageStats::bump(&self.stats.page_reads, 1);
        match verdict {
            Verified::Ok => {
                Self::copy_payload(&st, buf);
                Ok(PageRead::Loaded)
            }
            Verified::Fresh => {
                buf.fill(0);
                Ok(PageRead::Fresh)
            }
            Verified::Bad(_) => {
                // One immediate re-read: transient corruption (a bit
                // flipped on the wire, not at rest) does not recur.
                match self.load_and_verify(&mut st, pid)? {
                    Verified::Ok => {
                        StorageStats::bump(&self.stats.read_repairs, 1);
                        Self::copy_payload(&st, buf);
                        Ok(PageRead::Loaded)
                    }
                    Verified::Fresh => {
                        StorageStats::bump(&self.stats.read_repairs, 1);
                        buf.fill(0);
                        Ok(PageRead::Fresh)
                    }
                    Verified::Bad(err) => Err(err),
                }
            }
        }
    }

    /// Write the [`PAGE_PAYLOAD`]-byte `buf` to page `pid` under a fresh
    /// header, extending the file if needed. A full overwrite heals a
    /// quarantined page: the damaged image is gone.
    pub fn write_page(&self, pid: PageId, buf: &[u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_PAYLOAD);
        let mut guard = self.file.lock();
        let st = &mut *guard;
        let offset = pid.0 as u64 * PAGE_SIZE as u64;
        let FileState { handle, len, scratch, versions, quarantined } = st;
        if offset > *len {
            // Keep the file dense in whole pages so read_page's bounds
            // logic stays simple.
            with_retries(
                || handle.set_len(offset),
                || StorageStats::bump(&self.stats.io_retries, 1),
            )?;
            *len = offset;
        }
        let lsn = self.lsn.fetch_add(1, Ordering::AcqRel) + 1;
        let crc = page_crc(pid.0, lsn, 0, buf);
        let header = PAGE_MAGIC
            .to_le_bytes()
            .into_iter()
            .chain(pid.0.to_le_bytes())
            .chain(lsn.to_le_bytes())
            .chain(crc.to_le_bytes())
            .chain([0u8; 4]);
        for (dst, b) in scratch.iter_mut().zip(header) {
            *dst = b;
        }
        if let Some(dst) = scratch.get_mut(PAGE_HDR..) {
            dst.copy_from_slice(buf);
        }
        with_retries(
            || handle.write_at(offset, scratch),
            || StorageStats::bump(&self.stats.io_retries, 1),
        )?;
        *len = (*len).max(offset + PAGE_SIZE as u64);
        if versions.len() <= pid.0 as usize {
            versions.resize(pid.0 as usize + 1, 0);
        }
        if let Some(v) = versions.get_mut(pid.0 as usize) {
            *v = lsn;
        }
        if quarantined.remove(&pid.0) {
            StorageStats::bump(&self.stats.pages_healed, 1);
        }
        StorageStats::bump(&self.stats.page_writes, 1);
        Ok(())
    }

    /// Flush file contents to stable storage.
    pub fn sync(&self) -> Result<()> {
        let mut st = self.file.lock();
        with_retries(
            || st.handle.sync(),
            || StorageStats::bump(&self.stats.io_retries, 1),
        )
    }

    /// Current physical size of the file in bytes.
    pub fn len_bytes(&self) -> Result<u64> {
        Ok(self.file.lock().len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{RealVfs, SimVfs};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lfs-pf-{}-{}", std::process::id(), name));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("data.pg")
    }

    #[test]
    fn write_read_round_trip_counts_io() {
        let stats = Arc::new(StorageStats::default());
        let vfs = RealVfs::arc();
        let path = tmp("rt");
        let pf = PageFile::create(&vfs, &path, stats.clone()).unwrap();
        let p0 = pf.allocate_page();
        let p1 = pf.allocate_page();
        assert_eq!((p0.0, p1.0), (0, 1));

        let mut page = vec![0xABu8; PAGE_PAYLOAD];
        page[0] = 1;
        pf.write_page(p1, &page).unwrap();

        let mut out = vec![0u8; PAGE_PAYLOAD];
        assert_eq!(pf.read_page(p1, &mut out).unwrap(), PageRead::Loaded);
        assert_eq!(out, page);

        // p0 was allocated but never written: a typed Fresh, zeroes.
        assert_eq!(pf.read_page(p0, &mut out).unwrap(), PageRead::Fresh);
        assert!(out.iter().all(|&b| b == 0));

        let snap = stats.snapshot();
        assert_eq!(snap.page_writes, 1);
        assert_eq!(snap.page_reads, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_preserves_pages() {
        let stats = Arc::new(StorageStats::default());
        let vfs = RealVfs::arc();
        let path = tmp("reopen");
        {
            let pf = PageFile::create(&vfs, &path, stats.clone()).unwrap();
            let p = pf.allocate_page();
            pf.write_page(p, &vec![7u8; PAGE_PAYLOAD]).unwrap();
            pf.sync().unwrap();
        }
        let pf = PageFile::open(&vfs, &path, stats).unwrap();
        assert_eq!(pf.page_count(), 1);
        let mut out = vec![0u8; PAGE_PAYLOAD];
        assert_eq!(pf.read_page(PageId(0), &mut out).unwrap(), PageRead::Loaded);
        assert!(out.iter().all(|&b| b == 7));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sparse_write_extends_file() {
        let stats = Arc::new(StorageStats::default());
        let vfs = RealVfs::arc();
        let path = tmp("sparse");
        let pf = PageFile::create(&vfs, &path, stats).unwrap();
        for _ in 0..5 {
            pf.allocate_page();
        }
        // Write page 4 first; pages 0..4 must still read as zero.
        pf.write_page(PageId(4), &vec![9u8; PAGE_PAYLOAD]).unwrap();
        assert_eq!(pf.len_bytes().unwrap(), 5 * PAGE_SIZE as u64);
        let mut out = vec![1u8; PAGE_PAYLOAD];
        assert_eq!(pf.read_page(PageId(2), &mut out).unwrap(), PageRead::Fresh);
        assert!(out.iter().all(|&b| b == 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn works_on_sim_vfs() {
        let stats = Arc::new(StorageStats::default());
        let sim = SimVfs::new(42);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let path = std::path::Path::new("/sim/data.pg");
        let pf = PageFile::create(&vfs, path, stats).unwrap();
        let p = pf.allocate_page();
        pf.write_page(p, &vec![3u8; PAGE_PAYLOAD]).unwrap();
        let mut out = vec![0u8; PAGE_PAYLOAD];
        pf.read_page(p, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 3));
        // Unsynced: the durable image is still empty.
        assert_eq!(sim.clone_durable().size(path).unwrap(), Some(0));
        pf.sync().unwrap();
        assert_eq!(sim.clone_durable().size(path).unwrap(), Some(PAGE_SIZE as u64));
    }

    #[test]
    fn bit_rot_is_a_typed_checksum_error() {
        let stats = Arc::new(StorageStats::default());
        let vfs = RealVfs::arc();
        let path = tmp("rot");
        let pf = PageFile::create(&vfs, &path, stats).unwrap();
        let p = pf.allocate_page();
        pf.write_page(p, &vec![5u8; PAGE_PAYLOAD]).unwrap();
        pf.sync().unwrap();
        // Flip one payload bit on disk, behind the page file's back.
        {
            let mut f = vfs.open(&path, OpenMode::Open).unwrap();
            let mut b = [0u8; 1];
            f.read_at(100, &mut b).unwrap();
            b[0] ^= 0x10;
            f.write_at(100, &b).unwrap();
            f.sync().unwrap();
        }
        let mut out = vec![0u8; PAGE_PAYLOAD];
        let err = pf.read_page(p, &mut out).unwrap_err();
        assert!(
            matches!(err, StorageError::PageChecksum { page, .. } if page == p.0),
            "want PageChecksum, got {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn misdirected_image_is_detected() {
        let stats = Arc::new(StorageStats::default());
        let vfs = RealVfs::arc();
        let path = tmp("misdirect");
        let pf = PageFile::create(&vfs, &path, stats).unwrap();
        let p0 = pf.allocate_page();
        let p1 = pf.allocate_page();
        pf.write_page(p0, &vec![1u8; PAGE_PAYLOAD]).unwrap();
        pf.write_page(p1, &vec![2u8; PAGE_PAYLOAD]).unwrap();
        pf.sync().unwrap();
        // Replay page 0's image at page 1's offset: a misdirected write.
        {
            let mut f = vfs.open(&path, OpenMode::Open).unwrap();
            let mut img = vec![0u8; PAGE_SIZE];
            f.read_at(0, &mut img).unwrap();
            f.write_at(PAGE_SIZE as u64, &img).unwrap();
            f.sync().unwrap();
        }
        let mut out = vec![0u8; PAGE_PAYLOAD];
        let err = pf.read_page(p1, &mut out).unwrap_err();
        assert!(
            matches!(err, StorageError::MisdirectedPage { expected: 1, found: 0 }),
            "want MisdirectedPage, got {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lsn_floor_catches_truncation_and_lost_writes() {
        let stats = Arc::new(StorageStats::default());
        let vfs = RealVfs::arc();
        let path = tmp("floor");
        let pf = PageFile::create(&vfs, &path, stats).unwrap();
        let p = pf.allocate_page();
        pf.write_page(p, &vec![4u8; PAGE_PAYLOAD]).unwrap();
        pf.sync().unwrap();
        let versions = pf.version_table();
        // Truncate the file to nothing, then reopen with the recorded
        // floors: the missing page must be damage, not Fresh.
        {
            let mut f = vfs.open(&path, OpenMode::Open).unwrap();
            f.set_len(0).unwrap();
            f.sync().unwrap();
        }
        let pf2 = PageFile::open(&vfs, &path, Arc::new(StorageStats::default())).unwrap();
        pf2.set_version_floors(versions);
        let mut out = vec![0u8; PAGE_PAYLOAD];
        let err = pf2.read_page(p, &mut out).unwrap_err();
        assert!(matches!(err, StorageError::PageChecksum { .. }), "got {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quarantine_blocks_reads_and_overwrite_heals() {
        let stats = Arc::new(StorageStats::default());
        let vfs = RealVfs::arc();
        let path = tmp("quar");
        let pf = PageFile::create(&vfs, &path, stats.clone()).unwrap();
        let p = pf.allocate_page();
        pf.write_page(p, &vec![6u8; PAGE_PAYLOAD]).unwrap();
        pf.quarantine(p);
        assert!(pf.is_quarantined(p));
        let mut out = vec![0u8; PAGE_PAYLOAD];
        assert!(matches!(
            pf.read_page(p, &mut out),
            Err(StorageError::PageChecksum { .. })
        ));
        // A full overwrite replaces the image and lifts the quarantine.
        pf.write_page(p, &vec![8u8; PAGE_PAYLOAD]).unwrap();
        assert!(!pf.is_quarantined(p));
        assert_eq!(pf.read_page(p, &mut out).unwrap(), PageRead::Loaded);
        assert!(out.iter().all(|&b| b == 8));
        let snap = stats.snapshot();
        assert_eq!(snap.pages_quarantined, 1);
        assert_eq!(snap.pages_healed, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_read_corruption_is_repaired_by_reread() {
        let stats = Arc::new(StorageStats::default());
        let sim = SimVfs::new(7);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let path = std::path::Path::new("/sim/data.pg");
        let pf = PageFile::create(&vfs, path, stats.clone()).unwrap();
        let p = pf.allocate_page();
        pf.write_page(p, &vec![9u8; PAGE_PAYLOAD]).unwrap();
        pf.sync().unwrap();
        // Arm a one-shot bit flip on the next op — read_page's only
        // ticking operation is the read itself (len() is clock-free).
        let ops = sim.op_count();
        sim.set_plan(crate::vfs::FaultPlan {
            flip_read_ops: vec![ops],
            ..Default::default()
        });
        let mut out = vec![0u8; PAGE_PAYLOAD];
        assert_eq!(pf.read_page(p, &mut out).unwrap(), PageRead::Loaded);
        assert!(out.iter().all(|&b| b == 9));
        assert_eq!(stats.snapshot().read_repairs, 1);
    }
}
