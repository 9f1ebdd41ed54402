//! `tab-query-mix`: the Section-8 query families timed on a 1X database.

use std::path::Path;
use std::time::Instant;

use serde::Serialize;

use crate::config::{BenchConfig, ServerVersion};
use crate::error::Result;
use crate::report::{by_version, commas, distinct, fixed, Cell, Table};
use crate::runner::grown_db;

/// Timing of one query family on one version.
#[derive(Debug, Clone, Default, Serialize)]
pub struct QueryTiming {
    /// Version name.
    pub version: String,
    /// Query family name.
    pub query: String,
    /// Executions measured.
    pub count: u64,
    /// Total wall time in milliseconds.
    pub total_ms: f64,
    /// Mean microseconds per execution.
    pub mean_us: f64,
    /// Simulated faults incurred.
    pub sim_faults: u64,
    /// Rows / answers produced (sanity signal).
    pub answers: u64,
}

/// Build a 1X database on `version` and time the Section-8 query
/// families against it (cold cache before each family).
pub fn run(version: ServerVersion, cfg: &BenchConfig, base: &Path) -> Result<Vec<QueryTiming>> {
    let (mut sim, db, store) = grown_db(version, cfg, base, 1.0)?;
    db.checkpoint()?;
    let mut out = Vec::new();
    for family in &crate::queries::families() {
        store.drop_caches()?;
        let before = store.stats();
        let start = Instant::now();
        let (count, answers) = (family.run)(&db, &mut sim)?;
        let total_ms = start.elapsed().as_secs_f64() * 1e3;
        out.push(QueryTiming {
            version: version.name().to_string(),
            query: family.name.to_string(),
            count,
            total_ms,
            mean_us: if count > 0 { total_ms * 1e3 / count as f64 } else { 0.0 },
            sim_faults: store.stats().delta(&before).faults,
            answers,
        });
    }
    Ok(out)
}

/// Render the query-mix table: one row per family, versions as columns,
/// mean µs per execution (and faults in a second block).
pub fn table(timings: &[QueryTiming]) -> String {
    let versions = distinct(timings.iter().map(|t| t.version.as_str()));
    let queries = distinct(timings.iter().map(|t| t.query.as_str()));
    let spec = by_version("<24 query family", versions.iter().copied());
    let blocks: [(&str, Cell<QueryTiming>); 2] = [
        ("mean µs per execution", |t| fixed(t.mean_us, 1)),
        ("simulated faults per family", |t| commas(t.sim_faults)),
    ];
    let mut t = Table::default();
    for (title, cell) in blocks {
        t.head(&format!("Query mix — {title}"), &spec);
        for &q in &queries {
            let cells = versions.iter().map(|&v| {
                let timing = timings.iter().find(|t| t.version == v && t.query == q);
                timing.map_or_else(|| "-".into(), cell)
            });
            t.row(std::iter::once(q.to_string()).chain(cells));
        }
        t.line("");
    }
    t.finish()
}
