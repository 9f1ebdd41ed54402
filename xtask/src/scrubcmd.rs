//! `cargo xtask scrub --dir PATH` — offline integrity audit of a store
//! image on the real filesystem.
//!
//! Thin CLI over [`labflow_storage::scrub_store`]: verifies the meta
//! file's base and delta segments, every data page against its header
//! and LSN floor, and every WAL frame against its position-bound checksum,
//! then prints the report. Exit 0 = clean, 1 = unquarantined damage
//! found, 2 = the image is too damaged to audit (or unreadable).
//!
//! `--space` prints instead where the image's bytes are, per heap
//! segment ([`labflow_storage::space_report`]): the "byte diet" ledger.

use std::path::Path;

use labflow_storage::{scrub_store, space_report, RealVfs, PAGE_SIZE};

/// Build a small crashed-and-recovered store at `dir`, wiping whatever
/// was there. CI uses this (`--demo`) to hand the scrubber a real
/// on-disk image that has been through the full recovery path —
/// checkpointed work, WAL-replayed work, and a re-checkpoint at open.
pub fn build_demo(dir: &Path) -> Result<(), String> {
    use labflow_storage::{ClusterHint, Engine, Options, Profile, SegmentId, StorageManager};
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("demo image: {what}: {e}");
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| fail("wiping dir", &e))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| fail("creating dir", &e))?;
    {
        let store = Engine::create(dir, Profile::ostore(), Options::default())
            .map_err(|e| fail("create", &e))?;
        let txn = store.begin().map_err(|e| fail("begin", &e))?;
        let mut oids = Vec::new();
        for i in 0..400u32 {
            let data = vec![(i % 251) as u8; 24 + (i % 100) as usize];
            oids.push(
                store
                    .allocate(txn, SegmentId((i % 4) as u8), ClusterHint::NONE, &data)
                    .map_err(|e| fail("allocate", &e))?,
            );
        }
        store.commit(txn).map_err(|e| fail("commit", &e))?;
        store.checkpoint().map_err(|e| fail("checkpoint", &e))?;
        // Post-checkpoint work only the log knows about, then a "crash":
        // drop without checkpointing, so the reopen has frames to replay.
        let txn = store.begin().map_err(|e| fail("begin", &e))?;
        for (i, oid) in oids.iter().enumerate().take(100) {
            store.update(txn, *oid, &[0xAB, i as u8]).map_err(|e| fail("update", &e))?;
        }
        store.commit(txn).map_err(|e| fail("commit", &e))?;
    }
    drop(
        Engine::open(dir, Profile::ostore(), Options::default())
            .map_err(|e| fail("recovery", &e))?,
    );
    Ok(())
}

pub fn run(dir: &Path) -> i32 {
    match scrub_store(&RealVfs::arc(), dir) {
        Ok(report) => {
            println!(
                "scrub {}: epoch {}, {} pages ({} verified, {} fresh, {} quarantined), \
                 {} wal frames",
                dir.display(),
                report.epoch,
                report.pages,
                report.ok,
                report.fresh,
                report.quarantined,
                report.wal_frames,
            );
            if report.clean() {
                println!("scrub: clean");
                0
            } else {
                eprintln!("scrub: UNQUARANTINED DAMAGE on pages {:?}", report.corrupt);
                1
            }
        }
        Err(e) => {
            eprintln!("scrub {}: cannot audit image: {e}", dir.display());
            2
        }
    }
}

/// `scrub --space`: one row per heap segment, then the files.
pub fn run_space(dir: &Path) -> i32 {
    let report = match space_report(&RealVfs::arc(), dir) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("scrub --space {}: cannot read image: {e}", dir.display());
            return 2;
        }
    };
    println!("space {} (bytes unless marked pages):", dir.display());
    println!(
        "{:>4} {:>8} {:>12} {:>12} {:>12} {:>10} {:>8} {:>9} {:>10}",
        "seg", "pages", "live", "dead", "gap", "slot-dir", "empty-pg", "ovfl-pg", "free-list",
    );
    let mut accounted = 0;
    for (i, seg) in report.segments.iter().enumerate() {
        println!(
            "{:>4} {:>8} {:>12} {:>12} {:>12} {:>10} {:>8} {:>9} {:>10}",
            i,
            seg.pages,
            seg.live_bytes,
            seg.dead_bytes,
            seg.gap_bytes,
            seg.dir_bytes,
            seg.empty_pages,
            seg.overflow_pages,
            seg.free_pages,
        );
        accounted += seg.pages + seg.overflow_pages + seg.free_pages;
    }
    let live: u64 = report.segments.iter().map(|s| s.live_bytes).sum();
    println!(
        "data.pg    {:>12} ({} pages of {PAGE_SIZE}; {} in no segment, overflow chain or \
         free list; {:.1} % live records)",
        report.data_bytes,
        report.data_pages,
        u64::from(report.data_pages).saturating_sub(accounted),
        100.0 * live as f64 / report.data_bytes.max(1) as f64,
    );
    println!(
        "store.meta {:>12} ({} base + {} in {} delta segments)",
        report.meta_bytes,
        report.meta_base_bytes,
        report.meta_delta_bytes,
        report.meta_segments.saturating_sub(1),
    );
    println!("wal.log    {:>12}", report.wal_bytes);
    0
}
