//! Checkpoint metadata file: the heap's object table and allocation state,
//! written atomically (tmp file + sync + rename + directory sync) at each
//! checkpoint.
//!
//! Since version 2 the header carries the *checkpoint epoch*: a counter
//! bumped by every checkpoint and stamped into the WAL's reset frame, so
//! recovery can tell whether the log on disk belongs to this metadata
//! (crashes can separate the metadata flip from the log truncation).
//!
//! Version 3 widens the header into a verification record and seals the
//! whole file:
//!
//! ```text
//! magic 8 | version u32 | epoch u64
//! | nquar u32 | quarantined page ids (u32 each)
//! | nvers u32 | per-page lsn floors (u64 each)
//! | heap dump | fnv1a-32 over all prior bytes
//! ```
//!
//! The per-page LSN floors are what let the page file tell a fresh page
//! from a lost or misdirected write (a stale-but-valid image); the
//! quarantine list keeps persistently damaged pages fenced across
//! restarts. The trailing checksum makes the meta file as self-checking
//! as the pages it describes — a bit flipped at rest surfaces as a typed
//! [`StorageError::Corrupt`], never as a silently wrong object table.
//!
//! Version 4 keeps the layout and changes what every checksum in the
//! store computes (see [`crate::checksum`]): a version-3 store's pages,
//! log frames and seal no longer verify, so it is refused by version,
//! typed, before anything else is looked at. There is no compatibility
//! reader.

use std::path::Path;
use std::sync::Arc;

use crate::checksum::fnv1a;
use crate::error::{Result, StorageError};
use crate::heap::Heap;
use crate::vfs::{OpenMode, Vfs};

const MAGIC: &[u8; 8] = b"LABFLOW1";
const VERSION: u32 = 4;

/// The verification state a checkpoint persists alongside the heap dump.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetaState {
    /// Checkpoint epoch (matched against the WAL's reset frame).
    pub epoch: u64,
    /// Pages quarantined for persistent damage at checkpoint time.
    pub quarantined: Vec<u32>,
    /// Per-page LSN floors: the LSN each written page carried when the
    /// checkpoint image was synced (0 = no written image expected).
    pub versions: Vec<u64>,
}

/// Atomically persist the heap metadata plus verification `state` to
/// `path`. Durability of the rename itself is ensured with a directory
/// sync — without it a power loss can roll the namespace back to the
/// old meta while the WAL has already been truncated.
pub fn write_meta(vfs: &Arc<dyn Vfs>, path: &Path, heap: &Heap, state: &MetaState) -> Result<()> {
    let mut body = Vec::with_capacity(4096);
    body.extend_from_slice(MAGIC);
    body.extend_from_slice(&VERSION.to_le_bytes());
    body.extend_from_slice(&state.epoch.to_le_bytes());
    body.extend_from_slice(&(state.quarantined.len() as u32).to_le_bytes());
    for pid in &state.quarantined {
        body.extend_from_slice(&pid.to_le_bytes());
    }
    body.extend_from_slice(&(state.versions.len() as u32).to_le_bytes());
    for v in &state.versions {
        body.extend_from_slice(&v.to_le_bytes());
    }
    heap.dump_meta(&mut body);
    let crc = fnv1a(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    let tmp = path.with_extension("meta.tmp");
    {
        let mut f = vfs.open(&tmp, OpenMode::Create)?;
        f.write_at(0, &body)?;
        f.sync()?;
    }
    vfs.rename(&tmp, path)?;
    let parent = path.parent().unwrap_or_else(|| Path::new("."));
    vfs.sync_dir(parent)?;
    Ok(())
}

fn corrupt(detail: &str) -> StorageError {
    StorageError::Corrupt(format!("meta file: {detail}"))
}

fn take_u32<'a>(b: &'a [u8], what: &str) -> Result<(u32, &'a [u8])> {
    let (head, rest) = b.split_at_checked(4).ok_or_else(|| corrupt(what))?;
    let arr: [u8; 4] = head.try_into().map_err(|_| corrupt(what))?;
    Ok((u32::from_le_bytes(arr), rest))
}

fn take_u64<'a>(b: &'a [u8], what: &str) -> Result<(u64, &'a [u8])> {
    let (head, rest) = b.split_at_checked(8).ok_or_else(|| corrupt(what))?;
    let arr: [u8; 8] = head.try_into().map_err(|_| corrupt(what))?;
    Ok((u64::from_le_bytes(arr), rest))
}

/// Verify the whole-file checksum and decode the verification header,
/// returning the remaining bytes (the heap dump). Used both by
/// [`read_meta`] and by the scrubber, which wants the quarantine list
/// and LSN floors without materializing a heap.
pub fn parse_meta_header(data: &[u8]) -> Result<(MetaState, &[u8])> {
    let (sealed, crc_bytes) =
        data.split_at_checked(data.len().saturating_sub(4)).ok_or_else(|| corrupt("too short"))?;
    let crc_arr: [u8; 4] = crc_bytes.try_into().map_err(|_| corrupt("too short"))?;
    // Magic and version come first: another version seals with another
    // checksum, and "unsupported version" is the accurate report.
    let (magic, rest) = sealed.split_at_checked(8).ok_or_else(|| corrupt("bad magic"))?;
    if magic != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let (version, rest) = take_u32(rest, "short header")?;
    if version != VERSION {
        return Err(corrupt(&format!("unsupported version {version}")));
    }
    if fnv1a(sealed) != u32::from_le_bytes(crc_arr) {
        return Err(corrupt("whole-file checksum mismatch (damaged at rest)"));
    }
    let (epoch, rest) = take_u64(rest, "short header")?;
    let (nquar, mut rest) = take_u32(rest, "short quarantine table")?;
    let mut quarantined = Vec::with_capacity(nquar as usize);
    for _ in 0..nquar {
        let (pid, r) = take_u32(rest, "short quarantine table")?;
        quarantined.push(pid);
        rest = r;
    }
    let (nvers, mut rest) = take_u32(rest, "short version table")?;
    let mut versions = Vec::with_capacity(nvers as usize);
    for _ in 0..nvers {
        let (v, r) = take_u64(rest, "short version table")?;
        versions.push(v);
        rest = r;
    }
    Ok((MetaState { epoch, quarantined, versions }, rest))
}

/// Load heap metadata from `path` into `heap`. Returns the stored
/// verification state, or `None` if the file does not exist (fresh
/// store). Any damage — truncation, bit rot, a bad magic — is a typed
/// [`StorageError::Corrupt`].
pub fn read_meta(vfs: &Arc<dyn Vfs>, path: &Path, heap: &Heap) -> Result<Option<MetaState>> {
    let Some(data) = vfs.read_all(path)? else {
        return Ok(None);
    };
    let (state, body) = parse_meta_header(&data)?;
    heap.load_meta(body)?;
    Ok(Some(state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;
    use crate::heap::Placement;
    use crate::ids::{ClusterHint, SegmentId};
    use crate::pagefile::PageFile;
    use crate::stats::StorageStats;
    use crate::vfs::RealVfs;
    use std::sync::Arc;

    fn mk(name: &str) -> (Arc<dyn Vfs>, Heap, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("lfs-meta-{}-{}", std::process::id(), name));
        std::fs::create_dir_all(&dir).unwrap();
        let vfs = RealVfs::arc();
        let stats = Arc::new(StorageStats::default());
        let file = Arc::new(PageFile::create(&vfs, &dir.join("d.pg"), stats.clone()).unwrap());
        let pool = Arc::new(BufferPool::new(file.clone(), stats.clone(), 16, false, None));
        (vfs, Heap::new(pool, file, stats, Placement::Segments, 2, 0, 1), dir.join("store.meta"))
    }

    fn state() -> MetaState {
        MetaState { epoch: 41, quarantined: vec![3, 9], versions: vec![0, 7, 8, 0] }
    }

    #[test]
    fn round_trip_with_verification_state() {
        let (vfs, heap, path) = mk("rt");
        let oid = heap.alloc(SegmentId(1), ClusterHint::NONE, b"meta me", 0).unwrap();
        write_meta(&vfs, &path, &heap, &state()).unwrap();
        assert_eq!(read_meta(&vfs, &path, &heap).unwrap(), Some(state()));
        assert_eq!(heap.read(oid).unwrap(), b"meta me");
    }

    #[test]
    fn missing_file_reports_fresh() {
        let (vfs, heap, path) = mk("fresh");
        assert_eq!(read_meta(&vfs, &path.with_extension("nope"), &heap).unwrap(), None);
    }

    #[test]
    fn bad_magic_rejected() {
        let (vfs, heap, path) = mk("magic");
        // A file with the right shape (trailing crc intact) but the
        // wrong magic: seal a bogus body so only the magic check trips.
        let mut data = b"NOTMETA!............".to_vec();
        let crc = fnv1a(&data);
        data.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(read_meta(&vfs, &path, &heap), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn bad_version_rejected() {
        let (vfs, heap, path) = mk("ver");
        let mut data = Vec::new();
        data.extend_from_slice(MAGIC);
        data.extend_from_slice(&99u32.to_le_bytes());
        data.extend_from_slice(&0u64.to_le_bytes());
        let crc = fnv1a(&data);
        data.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(read_meta(&vfs, &path, &heap), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn version_3_store_is_refused_by_version() {
        // A well-formed version-3 file, sealed the way version 3 sealed:
        // byte-wise FNV-1a. It must be refused for its version, not
        // reported as bit rot.
        let (vfs, heap, path) = mk("v3");
        let mut data = Vec::new();
        data.extend_from_slice(MAGIC);
        data.extend_from_slice(&3u32.to_le_bytes());
        data.extend_from_slice(&7u64.to_le_bytes());
        data.extend_from_slice(&0u32.to_le_bytes());
        data.extend_from_slice(&0u32.to_le_bytes());
        let old_seal = data
            .iter()
            .fold(0x811c_9dc5u32, |h, &b| (h ^ u32::from(b)).wrapping_mul(0x0100_0193));
        data.extend_from_slice(&old_seal.to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        match read_meta(&vfs, &path, &heap) {
            Err(StorageError::Corrupt(detail)) => {
                assert!(detail.contains("unsupported version 3"), "got {detail:?}");
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }

    #[test]
    fn bit_rot_fails_the_whole_file_checksum() {
        let (vfs, heap, path) = mk("rot");
        heap.alloc(SegmentId(1), ClusterHint::NONE, b"sealed", 0).unwrap();
        write_meta(&vfs, &path, &heap, &state()).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x04;
        std::fs::write(&path, &data).unwrap();
        let err = read_meta(&vfs, &path, &heap).unwrap_err();
        assert!(err.is_corruption(), "want typed corruption, got {err}");
    }

    #[test]
    fn header_parse_skips_the_heap() {
        let (vfs, heap, path) = mk("hdr");
        heap.alloc(SegmentId(1), ClusterHint::NONE, b"ignored by scrub", 0).unwrap();
        write_meta(&vfs, &path, &heap, &state()).unwrap();
        let data = std::fs::read(&path).unwrap();
        let (got, body) = parse_meta_header(&data).unwrap();
        assert_eq!(got, state());
        assert!(!body.is_empty(), "heap dump rides behind the header");
    }
}
