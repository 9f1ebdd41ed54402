//! `abl-concurrency`: concurrent readers during the build.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Instant;

use serde::Serialize;

use crate::config::{BenchConfig, ServerVersion};
use crate::error::Result;
use crate::report::{fixed, Table};
use crate::runner::{alongside, grown_db, per_sec};

/// One point of the concurrency ablation.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ConcurrencyPoint {
    /// Version name.
    pub version: String,
    /// Concurrent reader threads during the build.
    pub readers: usize,
    /// Whether the backend supports concurrent transactions at all.
    pub supported: bool,
    /// Build throughput (workflow steps/sec) with the readers running.
    pub build_steps_per_sec: f64,
    /// Aggregate reader throughput (tracking queries/sec), if supported.
    pub reader_ops_per_sec: f64,
}

/// The concurrency ablation (DESIGN.md `abl-concurrency`): the paper
/// notes that "ObjectStore offers concurrent access with lock-based
/// concurrency control …; Texas does not support concurrent access."
/// Builds the second half of a 1X database while `readers` threads run
/// tracking queries; single-user backends report `supported = false`.
pub fn run(
    cfg: &BenchConfig,
    reader_counts: &[usize],
    base: &Path,
) -> Result<Vec<ConcurrencyPoint>> {
    let mut out = Vec::new();
    for version in ServerVersion::ALL {
        for &readers in reader_counts {
            let (mut sim, db, store) = grown_db(version, cfg, base, 0.5)?;
            let point = ConcurrencyPoint {
                version: version.name().to_string(),
                readers,
                ..Default::default()
            };
            if readers > 0 && !store.supports_concurrency() {
                out.push(point);
                continue;
            }
            let mats = sim.materials().to_vec();
            let ids: Vec<usize> = (0..readers).collect();
            let steps_before = sim.counters().steps;
            let t0 = Instant::now();
            let (elapsed, ops) = alongside(
                &ids,
                |&r, stop| {
                    let mut ops = 0u64;
                    // Every 7th material from the reader's own offset:
                    // decorrelates thread access patterns.
                    let picks = mats.iter().cycle().skip(r).step_by(7);
                    for &m in picks.take_while(|_| !stop.load(Ordering::Relaxed)) {
                        let _ = db.recent(m, "quality")?;
                        let _ = db.state_of(m)?;
                        ops += 2;
                    }
                    Ok(ops)
                },
                || {
                    sim.run_until_clones(&db, cfg.clones_at(1.0) as u64)?;
                    Ok(t0.elapsed().as_secs_f64())
                },
            )?;
            let steps = sim.counters().steps - steps_before;
            out.push(ConcurrencyPoint {
                supported: true,
                build_steps_per_sec: per_sec(steps, elapsed),
                reader_ops_per_sec: per_sec(ops.iter().sum(), elapsed),
                ..point
            });
        }
    }
    Ok(out)
}

/// Render the concurrency-ablation table.
pub fn table(points: &[ConcurrencyPoint]) -> String {
    let mut t = Table::default();
    t.head(
        "Concurrency ablation — build throughput with reader threads",
        "<12 version|>9 readers|>16 build steps/s|>18 reader queries/s",
    );
    for p in points {
        let (v, readers) = (p.version.clone(), p.readers.to_string());
        if p.supported {
            t.row([v, readers, fixed(p.build_steps_per_sec, 0), fixed(p.reader_ops_per_sec, 0)]);
        } else {
            t.row([v, readers, "—".into(), "— (single-user)".into()]);
        }
    }
    t.finish()
}
