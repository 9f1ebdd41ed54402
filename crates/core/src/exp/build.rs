//! `tab-build` and `fig-throughput`: the Section-10 database build,
//! measured per interval on every server version.

use std::path::Path;

use serde::Serialize;

use crate::config::{BenchConfig, ServerVersion};
use crate::error::Result;
use crate::metrics::{Meter, ResourceRow};
use crate::report::{by_version, commas, distinct, fixed, Cell, Table};
use crate::runner::{ensure, fresh_db};
use crate::workload::LabSim;

/// Result of one version's database build.
#[derive(Debug, Clone, Default, Serialize)]
pub struct BuildResult {
    /// Version name.
    pub version: String,
    /// One row per interval.
    pub rows: Vec<ResourceRow>,
}

/// Build the benchmark database on `version`, measuring at each interval
/// (the paper's `0.5X`, `1.0X`, … snapshots). Each interval row covers
/// the work done *during* that interval.
pub fn run(
    version: ServerVersion,
    cfg: &BenchConfig,
    intervals: &[f64],
    base: &Path,
) -> Result<BuildResult> {
    let (db, store) = fresh_db(version, cfg, base)?;
    let mut sim = LabSim::new(cfg.clone());
    sim.setup(&db)?;

    let mut rows = Vec::with_capacity(intervals.len());
    let mut prev_steps = 0u64;
    let mut prev_queries = 0u64;
    for &scale in intervals {
        let label = format!("{scale:.1}X");
        let meter = Meter::start(store.stats());
        sim.run_until_clones(&db, cfg.clones_at(scale) as u64)?;
        db.checkpoint()?;
        let c = sim.counters();
        let mut row = meter.finish(
            version.name(),
            &label,
            store.stats(),
            store.db_size_bytes()?,
            c.steps - prev_steps,
            c.queries - prev_queries,
            c.materials,
        )?;
        let (step_lat, query_lat) = sim.take_latencies();
        row.step_p50_us = step_lat.quantile_us(0.50);
        row.step_p99_us = step_lat.quantile_us(0.99);
        row.query_p99_us = query_lat.quantile_us(0.99);
        prev_steps = c.steps;
        prev_queries = c.queries;
        rows.push(row);
    }
    // Post-measurement verification: the benchmark refuses to report
    // numbers from a database that fails its own fsck.
    let integrity = db.check_integrity()?;
    ensure(integrity.is_healthy(), || {
        let problems: Vec<_> = integrity.problems.iter().take(5).collect();
        format!("{} produced a corrupt database: {problems:?}", version.name())
    })?;
    Ok(BuildResult { version: version.name().to_string(), rows })
}

/// Run the build on every requested version.
pub fn run_all(
    versions: &[ServerVersion],
    cfg: &BenchConfig,
    intervals: &[f64],
    base: &Path,
) -> Result<Vec<BuildResult>> {
    versions.iter().map(|&v| run(v, cfg, intervals, base)).collect()
}

/// The resource rows of each interval block, in the paper's order: the
/// label, and the cell it renders from an interval's row.
const RESOURCES: [(&str, Cell<ResourceRow>); 9] = [
    ("elapsed sec", |r| fixed(r.elapsed_sec, 1)),
    ("user cpu sec", |r| fixed(r.user_cpu_sec, 1)),
    ("sys cpu sec", |r| fixed(r.sys_cpu_sec, 1)),
    ("majflt (sim)", |r| commas(r.sim_majflt)),
    ("page writes", |r| commas(r.page_writes)),
    ("steps/sec", |r| fixed(r.steps_per_sec, 0)),
    ("step p99 µs", |r| fixed(r.step_p99_us, 0)),
    ("query p99 µs", |r| fixed(r.query_p99_us, 0)),
    ("size (bytes)", |r| r.size_bytes.map(commas).unwrap_or_else(|| "—".into())),
];

/// Render the Section-10 build table: intervals × resources × versions.
pub fn table(results: &[BuildResult]) -> String {
    let intervals = distinct(results.iter().flat_map(|r| &r.rows).map(|row| &row.interval));
    let spec = by_version("<24 Intvl  Resource", results.iter().map(|r| r.version.as_str()));
    let mut t = Table::default();
    t.head("Database                         Server Version", &spec);
    for interval in intervals {
        for (i, (name, render)) in RESOURCES.iter().enumerate() {
            let first = if i == 0 { interval.as_str() } else { "" };
            let label = format!("{first:<6} {name}");
            let cells = results.iter().map(|r| {
                let row = r.rows.iter().find(|row| &row.interval == interval);
                row.map_or_else(|| "-".into(), render)
            });
            t.row(std::iter::once(label).chain(cells));
        }
        t.line("");
    }
    t.finish()
}

/// Render the throughput figure: steps/sec vs database scale, one series
/// per version (ASCII series, plus the raw numbers).
pub fn figure(results: &[BuildResult]) -> String {
    const WIDTH: usize = 46;
    let mut out = String::from("Throughput vs database size (steps/second per interval)\n\n");
    let max = results
        .iter()
        .flat_map(|r| r.rows.iter().map(|row| row.steps_per_sec))
        .fold(1.0f64, f64::max);
    for r in results {
        out.push_str(&format!("{}\n", r.version));
        for row in &r.rows {
            let bar = ((row.steps_per_sec / max) * WIDTH as f64).round() as usize;
            let bar = "#".repeat(bar.min(WIDTH));
            out.push_str(&format!("  {:<6} {:>9.0} |{bar}\n", row.interval, row.steps_per_sec));
        }
    }
    out
}
