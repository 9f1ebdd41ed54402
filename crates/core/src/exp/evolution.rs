//! `tab-evolution`: schema evolution mid-stream (paper Section 8.1).

use std::path::Path;
use std::time::Instant;

use labbase::schema::AttrDef;
use labbase::AttrType;
use serde::Serialize;

use crate::config::{BenchConfig, ServerVersion};
use crate::error::Result;
use crate::report::{commas, fixed, Table};
use crate::runner::{ensure, grown_db};

/// Schema-evolution measurements on one version.
#[derive(Debug, Clone, Default, Serialize)]
pub struct EvolutionResult {
    /// Version name.
    pub version: String,
    /// Mean microseconds to redefine a step class.
    pub redefine_mean_us: f64,
    /// Mean microseconds to record a step (for comparison).
    pub record_step_mean_us: f64,
    /// Versions accumulated by the most-evolved step class.
    pub max_versions: u32,
    /// Steps carrying an old (non-current) class version that still
    /// decode under their own schema.
    pub old_version_steps_ok: u64,
    /// Database size before the evolution storm.
    pub size_before: Option<u64>,
    /// Database size after (evolution must not rewrite instances, so
    /// growth is bounded by the catalog).
    pub size_after: Option<u64>,
}

/// The schema-evolution exercise (paper Section 8.1): redefine step
/// classes repeatedly mid-stream, verify old instances keep their
/// versions and no data is migrated, and time the operation.
pub fn run(
    version: ServerVersion,
    cfg: &BenchConfig,
    base: &Path,
    redefinitions: usize,
) -> Result<EvolutionResult> {
    let cfg = BenchConfig { evolution_every: 0, ..cfg.clone() };
    let (mut sim, db, store) = grown_db(version, &cfg, base, 0.5)?;
    db.checkpoint()?;
    let size_before = store.db_size_bytes()?;

    // Time record_step as the baseline: one more half-interval of build.
    let steps_before = sim.counters().steps;
    let t0 = Instant::now();
    sim.run_until_clones(&db, cfg.clones_at(0.75) as u64)?;
    let record_elapsed = t0.elapsed();
    let steps_done = sim.counters().steps - steps_before;

    // The evolution storm: alternate attribute sets on every step class.
    let t0 = Instant::now();
    for (i, step) in sim.graph().steps.iter().cycle().take(redefinitions).enumerate() {
        let mut attrs = step.attrs.clone();
        attrs.push(AttrDef { name: "outcome".into(), ty: AttrType::Str });
        if i % 2 == 0 {
            attrs.push(AttrDef { name: format!("rev_{i}"), ty: AttrType::Str });
        }
        let txn = db.begin()?;
        db.redefine_step_class(txn, &step.name, attrs)?;
        db.commit(txn)?;
    }
    let evolve_elapsed = t0.elapsed();
    db.checkpoint()?;
    let size_after = store.db_size_bytes()?;

    let max_versions = db.with_catalog(|c| {
        c.step_classes().iter().map(|sc| sc.versions.len() as u32).max().unwrap_or(1)
    });

    // Old instances: sample histories and verify every step still
    // decodes under its pinned version.
    let mut old_ok = 0u64;
    for &m in sim.materials().iter().take(200) {
        for entry in db.history(m)? {
            let info = db.step(entry.step)?;
            let schema = db.step_schema(entry.step)?;
            let current =
                db.with_catalog(|c| c.step_class(&info.class).map_or(0, |sc| sc.current().version));
            if info.version < current {
                // All recorded attrs must be in the pinned version.
                let kept = info.attrs.iter().all(|(n, _)| schema.iter().any(|a| &a.name == n));
                ensure(kept, || format!("step {} lost attributes under evolution", entry.step))?;
                old_ok += 1;
            }
        }
    }

    Ok(EvolutionResult {
        version: version.name().to_string(),
        redefine_mean_us: evolve_elapsed.as_secs_f64() * 1e6 / redefinitions.max(1) as f64,
        record_step_mean_us: record_elapsed.as_secs_f64() * 1e6 / steps_done.max(1) as f64,
        max_versions,
        old_version_steps_ok: old_ok,
        size_before,
        size_after,
    })
}

/// Render the evolution table.
pub fn table(results: &[EvolutionResult]) -> String {
    let size = |s: Option<u64>| s.map(commas).unwrap_or_else(|| "—".into());
    let mut t = Table::default();
    t.head(
        "Schema evolution (redefine step class mid-stream)",
        "<12 version|>16 redefine µs|>18 record_step µs|>10 max ver|\
         >14 size before|>14 size after",
    );
    for r in results {
        t.row([
            r.version.clone(),
            fixed(r.redefine_mean_us, 1),
            fixed(r.record_step_mean_us, 1),
            r.max_versions.to_string(),
            size(r.size_before),
            size(r.size_after),
        ]);
    }
    t.finish()
}
