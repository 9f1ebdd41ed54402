//! `abl-clustering`: clustering control vs cache size.

use std::path::Path;
use std::time::Instant;

use labbase::LabBase;
use serde::Serialize;

use crate::config::{BenchConfig, ServerVersion};
use crate::datagen::DataGen;
use crate::error::Result;
use crate::report::{by_version, commas, distinct, fixed, Table};
use crate::runner::store_dir;
use crate::workload::LabSim;

/// One point of the clustering ablation.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ClusteringPoint {
    /// Version name.
    pub version: String,
    /// Buffer-pool pages used for the measured pass.
    pub pool_pages: usize,
    /// Tracking lookups performed in the measured round.
    pub lookups: u64,
    /// Simulated faults during the measured round (steady state).
    pub sim_faults: u64,
    /// Faults per 1,000 lookups.
    pub faults_per_k: f64,
    /// Wall milliseconds for the measured round.
    pub elapsed_ms: f64,
}

/// Unmeasured rounds that warm the cache before the measured one.
const WARM_ROUNDS: usize = 3;

/// The clustering ablation (DESIGN.md `abl-clustering`): build a 1X
/// database per persistent version, reopen it with successively smaller
/// buffer pools, warm the cache with rounds of the hot tracking query
/// (most-recent lookup + state on uniformly random materials), then
/// measure a steady-state round.
///
/// This isolates the paper's headline claim: with locality control
/// (OStore segments, or Texas+TC's client-code type clustering) the hot
/// records stay dense and the working set fits; without it (plain
/// Texas), material records are diluted across the whole address-ordered
/// heap — page-sized step payloads in between — and the same logical
/// working set is many times larger in pages.
pub fn run(
    cfg: &BenchConfig,
    pool_sizes: &[usize],
    lookups_per_round: usize,
    base: &Path,
) -> Result<Vec<ClusteringPoint>> {
    let mut out = Vec::new();
    for version in ServerVersion::PERSISTENT {
        let dir = store_dir(base, version.name())?;
        {
            let db = LabBase::create(version.make_store(&dir, cfg.buffer_pages)?)?;
            let mut sim = LabSim::new(cfg.clone());
            sim.setup(&db)?;
            sim.run_until_clones(&db, cfg.clones_at(1.0) as u64)?;
            db.checkpoint()?;
        }
        for &pool in pool_sizes {
            let store = version.open_store(&dir, pool)?;
            let db = LabBase::open(store.clone())?;
            // Same uniform lookup stream for every version and pool size.
            let mut gen = DataGen::new(cfg.seed ^ 0xC1u64);
            let mut all = db.class_extent("clone", false)?;
            all.extend(db.class_extent("tclone", false)?);
            store.drop_caches()?;
            // The warm rounds run the same loop; only the last is kept.
            let mut measured = (0, 0.0);
            for _ in 0..=WARM_ROUNDS {
                let before = store.stats();
                let t0 = Instant::now();
                for _ in 0..lookups_per_round {
                    let m = all[gen.index(all.len())];
                    let _ = db.recent(m, "quality")?;
                    let _ = db.state_of(m)?;
                }
                let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
                measured = (store.stats().delta(&before).faults, elapsed_ms);
            }
            let (faults, elapsed_ms) = measured;
            out.push(ClusteringPoint {
                version: version.name().to_string(),
                pool_pages: pool,
                lookups: lookups_per_round as u64,
                sim_faults: faults,
                faults_per_k: faults as f64 * 1000.0 / lookups_per_round.max(1) as f64,
                elapsed_ms,
            });
        }
    }
    Ok(out)
}

/// Render the clustering-ablation table.
pub fn table(points: &[ClusteringPoint]) -> String {
    let mut pools = distinct(points.iter().map(|p| p.pool_pages));
    pools.sort_unstable();
    let versions = distinct(points.iter().map(|p| p.version.as_str()));
    let spec = by_version("<14 pool pages", versions.iter().copied());
    let mut t = Table::default();
    let title = "Clustering ablation — steady-state tracking lookups, faults per 1,000 lookups";
    t.head(title, &spec);
    for pool in pools {
        let cells = versions.iter().map(|&v| {
            let point = points.iter().find(|p| p.pool_pages == pool && p.version == v);
            point.map_or_else(|| "-".into(), |p| fixed(p.faults_per_k, 1))
        });
        t.row(std::iter::once(commas(pool as u64)).chain(cells));
    }
    t.finish()
}
