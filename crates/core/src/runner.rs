//! The kit every experiment runner in [`crate::exp`] shares: a fresh
//! store directory, the LabFlow-1 build up to a scale, the writer
//! prefill, client pools on scoped threads, and rates.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;

use labbase::{schema::attrs, AttrType, LabBase, MaterialId};
use labflow_storage::StorageManager;

use crate::config::{BenchConfig, ServerVersion};
use crate::error::{BenchError, Result};
use crate::workload::LabSim;

/// The workflow states the writer experiments cycle their materials
/// through.
pub const STATES: [&str; 4] = ["queued", "running", "done", "archived"];

/// Fresh store directory `base/name` (`+` made path-safe), wiped first.
pub fn store_dir(base: &Path, name: &str) -> Result<PathBuf> {
    let dir = base.join(name.replace('+', "_"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Create a fresh LabBase on `version` under `base`.
pub fn fresh_db(
    version: ServerVersion,
    cfg: &BenchConfig,
    base: &Path,
) -> Result<(LabBase, Arc<dyn StorageManager>)> {
    let dir = store_dir(base, version.name())?;
    let store = version.make_store(&dir, cfg.buffer_pages)?;
    let db = LabBase::create(store.clone())?;
    Ok((db, store))
}

/// A fresh LabBase on `version` with the LabFlow-1 workload set up and
/// run to `scale` (no checkpoint: callers that want one take it).
pub fn grown_db(
    version: ServerVersion,
    cfg: &BenchConfig,
    base: &Path,
    scale: f64,
) -> Result<(LabSim, LabBase, Arc<dyn StorageManager>)> {
    let (db, store) = fresh_db(version, cfg, base)?;
    let mut sim = LabSim::new(cfg.clone());
    sim.setup(&db)?;
    sim.run_until_clones(&db, cfg.clones_at(scale) as u64)?;
    Ok((sim, db, store))
}

/// Define `class` and a one-attribute `step_class` (`reading: Real`),
/// create `n` materials named `{prefix}-{i:06}` in one bulk
/// transaction, and warm the shared state and name indexes so every
/// session maintains them incrementally instead of racing to rebuild.
pub fn prefill(
    db: &LabBase,
    class: &str,
    step_class: &str,
    prefix: &str,
    n: usize,
) -> Result<Vec<MaterialId>> {
    let txn = db.begin()?;
    db.define_material_class(txn, class, None)?;
    db.define_step_class(txn, step_class, attrs(&[("reading", AttrType::Real)]))?;
    let mats = (0..n)
        .map(|i| db.create_material(txn, class, &format!("{prefix}-{i:06}"), 0))
        .collect::<labbase::Result<Vec<_>>>()?;
    db.commit(txn)?;
    let _ = db.count_in_state("queued")?;
    let _ = db.find_material(&format!("{prefix}-000000"))?;
    Ok(mats)
}

/// Run `n` clients on scoped threads, client `c` on the round-robin
/// slice `items[c], items[c + n], …` — disjoint, so clients contend on
/// infrastructure, not data. Every client is joined before the first
/// error (or panic, as [`BenchError::Config`]) is returned.
pub fn run_clients<M, T>(
    items: &[M],
    n: usize,
    client: impl Fn(usize, &[M]) -> Result<T> + Sync,
) -> Result<Vec<T>>
where
    M: Copy + Send + Sync,
    T: Send,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|c| {
                let mine: Vec<M> = items.iter().skip(c).step_by(n).copied().collect();
                let client = &client;
                scope.spawn(move || client(c, &mine))
            })
            .collect();
        let results: Vec<Result<T>> = handles.into_iter().map(joined).collect();
        results.into_iter().collect()
    })
}

/// Run `fg` on this thread while one background thread per item runs
/// `bg(item, stop)`; `stop` is raised once `fg` returns, then every
/// background thread is joined. A background error wins over `fg`'s
/// result — a dead helper is the root cause of whatever `fg` saw.
pub fn alongside<M, B, F>(
    items: &[M],
    bg: impl Fn(&M, &AtomicBool) -> Result<B> + Sync,
    fg: impl FnOnce() -> Result<F>,
) -> Result<(F, Vec<B>)>
where
    M: Sync,
    B: Send,
{
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .iter()
            .map(|item| {
                let (bg, stop) = (&bg, &stop);
                scope.spawn(move || bg(item, stop))
            })
            .collect();
        let fg = fg();
        stop.store(true, Ordering::Relaxed);
        let results: Vec<Result<B>> = handles.into_iter().map(joined).collect();
        let bg = results.into_iter().collect::<Result<Vec<B>>>()?;
        Ok((fg?, bg))
    })
}

fn joined<T>(handle: ScopedJoinHandle<'_, Result<T>>) -> Result<T> {
    handle.join().map_err(|_| BenchError::Config("client thread panicked".into()))?
}

/// `Err(BenchError::Config(why()))` unless `ok`: a run that breaks its
/// own invariant — or is asked for zero clients — reports, not panics.
pub fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<()> {
    if ok {
        Ok(())
    } else {
        Err(BenchError::Config(why()))
    }
}

/// `n` per second over `secs`, or 0 for an empty interval.
pub fn per_sec(n: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        n as f64 / secs
    } else {
        0.0
    }
}

/// Smoke runs of every family's runner at [`BenchConfig::smoke`] scale.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::{build, clustering, evolution, queries, writers};

    /// Run a runner at smoke scale over a scratch directory removed after.
    pub(super) fn smoke<T>(name: &str, run: impl FnOnce(&BenchConfig, &Path) -> T) -> T {
        let dir = std::env::temp_dir().join(format!("lfc-run-{}-{name}", std::process::id()));
        let out = run(&BenchConfig::smoke(), &dir);
        std::fs::remove_dir_all(&dir).ok();
        out
    }

    #[test]
    fn smoke_build_two_intervals_mm() {
        let result = smoke("build-mm", |cfg, dir| {
            build::run(ServerVersion::OStoreMm, cfg, &[0.5, 1.0], dir)
        })
        .unwrap();
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.rows[0].interval, "0.5X");
        assert!(result.rows[0].steps > 0);
        assert!(result.rows[1].steps > 0, "second interval does its own work");
        assert_eq!(result.rows[0].size_bytes, None, "-mm prints no size");
        assert_eq!(result.rows[0].sim_majflt, 0, "-mm never faults");
    }

    #[test]
    fn smoke_build_persistent_has_size_and_faults_counted() {
        let result =
            smoke("build-tex", |cfg, dir| build::run(ServerVersion::Texas, cfg, &[0.5], dir))
                .unwrap();
        let row = &result.rows[0];
        assert!(row.size_bytes.unwrap() > 0);
        assert!(row.page_writes > 0, "checkpoint flushed pages");
    }

    #[test]
    fn smoke_query_mix() {
        let timings =
            smoke("qmix", |cfg, dir| queries::run(ServerVersion::OStore, cfg, dir)).unwrap();
        assert!(timings.len() >= 6, "expected several query families");
        for t in &timings {
            assert!(t.count > 0, "family {} ran", t.query);
        }
        // At least the report families must produce answers.
        assert!(timings.iter().any(|t| t.answers > 0));
    }

    #[test]
    fn smoke_evolution() {
        let r =
            smoke("evo", |cfg, dir| evolution::run(ServerVersion::OStoreMm, cfg, dir, 10)).unwrap();
        assert!(r.max_versions > 1);
        assert!(r.redefine_mean_us > 0.0);
    }

    #[test]
    fn smoke_multiclient_two_counts() {
        let points = smoke("mc", |cfg, dir| writers::run_multiclient(cfg, &[1, 2], dir)).unwrap();
        assert_eq!(points.len(), ServerVersion::ALL.len() * 2);
        for p in &points {
            if p.clients == 1 {
                assert!(p.supported, "{}: one client always runs", p.version);
                assert!(p.steps > 0 && p.steps_per_sec > 0.0);
                assert_eq!(p.per_client.len(), 1);
                assert_eq!(p.per_client[0].steps, p.steps);
            }
        }
        let at_two = |name: &str| points.iter().find(|p| p.version == name && p.clients == 2);
        // Single-user backends refuse multi-client points…
        assert!(!at_two("Texas").unwrap().supported);
        // …while the concurrent ones run them, touching every material
        // once per round.
        for name in ["OStore", "OStore-mm"] {
            let p = at_two(name).unwrap();
            assert!(p.supported, "{name} supports two clients");
            assert_eq!(p.per_client.len(), 2);
            let total = BenchConfig::smoke().clones_at(1.0).max(2 * writers::STEPS_PER_TXN);
            assert_eq!(p.steps, (total * writers::ROUNDS) as u64);
        }
        // Group commit: the persistent backend forces the WAL fewer
        // times than it commits.
        let ostore = at_two("OStore").unwrap();
        assert!(ostore.wal_syncs > 0, "WAL forced at least once");
        assert!(
            ostore.wal_syncs <= ostore.commits,
            "group commit batches: {} syncs vs {} commits",
            ostore.wal_syncs,
            ostore.commits
        );
    }

    #[test]
    fn smoke_snapshot_scan() {
        let points = smoke("snap", |cfg, dir| writers::run_snapshot(cfg, 2, dir)).unwrap();
        assert_eq!(points.len(), ServerVersion::ALL.len());
        let mut concurrent = 0;
        for p in &points {
            assert_eq!(p.writers, 2);
            if !p.supported {
                continue;
            }
            concurrent += 1;
            assert!(p.steps_per_sec_alone > 0.0, "{}: baseline ran", p.version);
            assert!(p.steps_per_sec_scanned > 0.0, "{}: scanned phase ran", p.version);
            assert!(p.scans >= 1, "{}: the scanner completed at least one pass", p.version);
            assert!(p.rows_read > 0, "{}: scans visited history rows", p.version);
            assert_eq!(
                p.reader_heap_wait_nanos, 0,
                "{}: snapshot reads must not block on heap metadata locks",
                p.version
            );
        }
        assert!(concurrent >= 2, "both OStore variants run the ablation");
    }

    #[test]
    fn smoke_clustering_two_pools() {
        let points = smoke("clust", |cfg, dir| clustering::run(cfg, &[16, 256], 50, dir)).unwrap();
        assert_eq!(points.len(), 3 * 2);
        for p in &points {
            assert_eq!(p.lookups, 50);
        }
    }
}

#[cfg(test)]
mod server_tests {
    use super::tests::smoke;
    use crate::exp::server;

    #[test]
    fn smoke_server_sweep_and_overload() {
        let result = smoke("srv-sweep", |cfg, dir| server::run(cfg, &[1, 2], dir)).unwrap();
        assert_eq!(result.points.len(), 2);
        for p in &result.points {
            assert!(p.txns > 0, "{} clients committed work", p.clients);
            assert!(p.requests >= 4 * p.txns, "four admitted requests per txn");
            assert!(p.txns_per_sec > 0.0);
            assert!(p.p50_us <= p.p99_us && p.p99_us <= p.p999_us, "quantiles monotone");
        }
        let o = &result.overload;
        assert!(o.hammer_shed > 0, "hammer tenant must be shed");
        assert!(o.hammer_admitted > 0, "burst allowance admits some hammer requests");
        assert_eq!(o.paced_shed, 0, "paced tenant under quota is never shed");
        assert!(o.paced_admitted > 0);
        assert_eq!(o.open_sessions_after, 0);
        assert_eq!(o.open_snapshots_after, 0);
        assert!(o.shed_total >= o.hammer_shed);
        let hammer_row = o.tenants.iter().find(|t| t.tenant == 1).unwrap();
        assert_eq!(hammer_row.shed_bytes, o.hammer_shed, "server counted every shed");
    }

    #[test]
    fn zero_clients_is_a_config_error() {
        assert!(smoke("srv-zero", |cfg, dir| server::run(cfg, &[0], dir)).is_err());
    }
}

#[cfg(test)]
mod replication_tests {
    use super::tests::smoke;
    use crate::exp::replication;

    #[test]
    fn smoke_replication_point() {
        let points = smoke("repl-smoke", |cfg, dir| replication::run(cfg, &[1, 2], dir)).unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.txns > 0, "{} followers: writer committed", p.followers);
            assert_eq!(p.quorum_txns, replication::QUORUM_TXNS);
            assert!(p.shipped_bytes > 0);
            assert!(p.chunks > 0);
            assert!(
                p.lag_p50_us <= p.lag_p99_us && p.lag_p99_us <= p.lag_max_us,
                "lag quantiles monotone"
            );
            assert!(
                p.quorum_p50_us >= p.commit_p50_us,
                "waiting for the quorum cannot beat not waiting"
            );
        }
        assert_eq!(points[0].ack_quorum, 1);
        assert_eq!(points[1].ack_quorum, 2);
    }

    #[test]
    fn zero_followers_is_a_config_error() {
        assert!(smoke("repl-zero", |cfg, dir| replication::run(cfg, &[0], dir)).is_err());
    }
}
