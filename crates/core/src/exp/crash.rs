//! `abl-recovery` and `abl-scrub`: both crash the same image — build to
//! 0.5X, checkpoint, keep working to 0.75X, drop without a checkpoint —
//! then reopen it (recovery) or audit what recovery left (scrub).

use std::path::{Path, PathBuf};
use std::time::Instant;

use labbase::LabBase;
use labflow_storage::{scrub_store, RealVfs};
use serde::Serialize;

use crate::config::{BenchConfig, ServerVersion};
use crate::error::Result;
use crate::report::{commas, fixed, Table};
use crate::runner::store_dir;
use crate::workload::LabSim;

/// One row of the recovery ablation.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RecoveryPoint {
    /// Version name.
    pub version: String,
    /// Materials existing when the crash hit.
    pub materials_at_crash: u64,
    /// Materials visible after reopening.
    pub materials_recovered: u64,
    /// Materials lost to the crash (Texas: everything after the last
    /// checkpoint; OStore: only uncommitted work).
    pub materials_lost: u64,
    /// WAL bytes written since the last checkpoint — the replay debt
    /// (0 for log-less backends).
    pub wal_bytes_at_crash: u64,
    /// Wall milliseconds to reopen (includes WAL replay for OStore).
    pub reopen_ms: f64,
}

/// One `abl-scrub` measurement: the cost and verdict of an offline
/// integrity audit over a crashed-and-recovered store image.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ScrubPoint {
    /// Version name.
    pub version: String,
    /// Total pages in the data file.
    pub pages: u32,
    /// Pages with a verified written image.
    pub pages_verified: u32,
    /// Pages quarantined by recovery (skipped by the scrub).
    pub quarantined: u32,
    /// Intact WAL frames verified against their offsets.
    pub wal_frames: u64,
    /// On-disk bytes audited (data + meta + log).
    pub image_bytes: u64,
    /// Wall milliseconds for the full audit.
    pub scrub_ms: f64,
    /// Whether the image audited clean (it must, after a recovery).
    pub clean: bool,
}

/// Build and crash the shared image on `version`: returns its directory,
/// the materials at the crash, and the WAL bytes written since the
/// checkpoint.
fn crash_image(
    version: ServerVersion,
    cfg: &BenchConfig,
    base: &Path,
) -> Result<(PathBuf, u64, u64)> {
    let dir = store_dir(base, version.name())?;
    let store = version.make_store(&dir, cfg.buffer_pages)?;
    let db = LabBase::create(store.clone())?;
    let mut sim = LabSim::new(BenchConfig { checkpoint_every: 0, ..cfg.clone() });
    sim.setup(&db)?;
    sim.run_until_clones(&db, cfg.clones_at(0.5) as u64)?;
    db.checkpoint()?;
    let wal_at_ckpt = store.stats().wal_bytes;
    sim.run_until_clones(&db, cfg.clones_at(0.75) as u64)?;
    // Crash: the store drops here without a checkpoint.
    Ok((dir, sim.counters().materials, store.stats().wal_bytes - wal_at_ckpt))
}

/// The recovery ablation (DESIGN.md `abl-recovery`): crash the shared
/// image, reopen it, and compare what each durability design brings back.
pub fn run_recovery(cfg: &BenchConfig, base: &Path) -> Result<Vec<RecoveryPoint>> {
    let point = |version: ServerVersion| {
        let (dir, materials_at_crash, wal_bytes_at_crash) = crash_image(version, cfg, base)?;
        let t0 = Instant::now();
        let db = LabBase::open(version.open_store(&dir, cfg.buffer_pages)?)?;
        let reopen_ms = t0.elapsed().as_secs_f64() * 1e3;
        let recovered = db.count_class("clone", false)? + db.count_class("tclone", false)?;
        Ok(RecoveryPoint {
            version: version.name().to_string(),
            materials_at_crash,
            materials_recovered: recovered,
            materials_lost: materials_at_crash.saturating_sub(recovered),
            wal_bytes_at_crash,
            reopen_ms,
        })
    };
    ServerVersion::PERSISTENT.into_iter().map(point).collect()
}

/// The scrub ablation (DESIGN.md `abl-scrub`): crash the shared image,
/// recover it, then run the offline scrubber over the recovered image and
/// time the full end-to-end verification (meta checksum, every page
/// header + LSN floor, every WAL frame).
pub fn run_scrub(cfg: &BenchConfig, base: &Path) -> Result<Vec<ScrubPoint>> {
    let point = |version: ServerVersion| {
        let (dir, _, _) = crash_image(version, cfg, base)?;
        drop(version.open_store(&dir, cfg.buffer_pages)?);
        let image_bytes: u64 = ["data.pg", "store.meta", "wal.log"]
            .iter()
            .filter_map(|f| std::fs::metadata(dir.join(f)).ok())
            .map(|m| m.len())
            .sum();
        let t0 = Instant::now();
        let report = scrub_store(&RealVfs::arc(), &dir)?;
        Ok(ScrubPoint {
            version: version.name().to_string(),
            pages: report.pages,
            pages_verified: report.ok,
            quarantined: report.quarantined,
            wal_frames: report.wal_frames,
            image_bytes,
            scrub_ms: t0.elapsed().as_secs_f64() * 1e3,
            clean: report.clean(),
        })
    };
    ServerVersion::PERSISTENT.into_iter().map(point).collect()
}

/// Render the recovery-ablation table.
pub fn recovery_table(points: &[RecoveryPoint]) -> String {
    let mut t = Table::default();
    t.head(
        "Recovery ablation — crash after checkpoint + quarter-interval of work",
        "<12 version|>14 at crash|>14 recovered|>10 lost|>16 WAL debt (B)|\
         >12 reopen ms",
    );
    for p in points {
        t.row([
            p.version.clone(),
            commas(p.materials_at_crash),
            commas(p.materials_recovered),
            commas(p.materials_lost),
            commas(p.wal_bytes_at_crash),
            fixed(p.reopen_ms, 1),
        ]);
    }
    t.finish()
}

/// Render the scrub ablation table: what the offline audit of each
/// recovered image covered, how long it took, and the verdict.
pub fn scrub_table(points: &[ScrubPoint]) -> String {
    let mut t = Table::default();
    t.head(
        "Scrub ablation — offline integrity audit of a recovered store image",
        "<12 version|>9 pages|>10 verified|>13 quarantined|>12 wal frames|\
         >14 image (B)|>11 scrub ms|>8 clean",
    );
    for p in points {
        t.row([
            p.version.clone(),
            commas(p.pages.into()),
            commas(p.pages_verified.into()),
            commas(p.quarantined.into()),
            commas(p.wal_frames),
            commas(p.image_bytes),
            fixed(p.scrub_ms, 1),
            (if p.clean { "yes" } else { "NO" }).into(),
        ]);
    }
    t.finish()
}
