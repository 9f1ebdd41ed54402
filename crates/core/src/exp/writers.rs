//! `abl-multiclient` and `abl-snapshot`: writer clients on disjoint
//! slices of one prefilled material population — alone at 1/2/4/8
//! clients, and against a concurrent analytical scanner.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use labbase::{LabBase, MaterialId, Value};
use labflow_storage::StorageManager;
use serde::Serialize;

use crate::config::{BenchConfig, ServerVersion};
use crate::error::Result;
use crate::metrics::ClientRow;
use crate::report::{by_version, commas, distinct, fixed, Table};
use crate::runner::{alongside, ensure, fresh_db, per_sec, prefill, run_clients, STATES};

/// Materials each multi-client transaction touches.
pub const STEPS_PER_TXN: usize = 4;
/// Rounds over the material population: each material receives this many
/// steps over the whole run.
pub const ROUNDS: usize = 4;
/// Retries allowed per transaction before the run is declared stuck.
const MAX_RETRIES: u64 = 100;
/// Pause between analytical scans: the reader is paced like a periodic
/// monitoring job rather than a busy loop, so the measured writer cost
/// is MVCC interference (locks, version chains, cache pressure), not
/// CPU starvation from a spinning thread on a small machine.
const SCAN_PAUSE: Duration = Duration::from_millis(25);

/// One point of the multi-client ablation.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MultiClientPoint {
    /// Version name.
    pub version: String,
    /// Concurrent writer clients.
    pub clients: usize,
    /// Whether the backend supports concurrent transactions at all.
    pub supported: bool,
    /// Wall-clock seconds for the measured run.
    pub elapsed_sec: f64,
    /// Workflow steps recorded across all clients.
    pub steps: u64,
    /// Aggregate steps per wall-clock second.
    pub steps_per_sec: f64,
    /// Transactions committed (storage-level, includes the prefill).
    pub commits: u64,
    /// Aborted-and-retried transactions (lock conflicts).
    pub retries: u64,
    /// WAL forces issued — group commit shows up as `wal_syncs` well
    /// below `commits` on persistent backends (0 for `-mm`).
    pub wal_syncs: u64,
    /// Contended heap-metadata lock acquisitions across all clients
    /// (the acquirer found the lock held and blocked).
    pub heap_waits: u64,
    /// Total microseconds all clients spent blocked on heap metadata
    /// locks.
    pub heap_wait_us: u64,
    /// Per-client breakdown.
    pub per_client: Vec<ClientRow>,
}

/// One point of the snapshot-scan ablation.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SnapshotPoint {
    /// Version name.
    pub version: String,
    /// Concurrent writer clients.
    pub writers: usize,
    /// Whether the backend supports concurrent transactions at all.
    pub supported: bool,
    /// Writer throughput with no scanner running (steps/sec).
    pub steps_per_sec_alone: f64,
    /// Writer throughput with the analytical scanner running.
    pub steps_per_sec_scanned: f64,
    /// `steps_per_sec_scanned / steps_per_sec_alone` — how much of the
    /// writers' throughput the concurrent scan costs.
    pub throughput_ratio: f64,
    /// Full-history scans the reader completed while writers ran.
    pub scans: u64,
    /// History entries visited across all scans.
    pub rows_read: u64,
    /// Mean commits that landed while a scan was running (snapshot
    /// staleness at scan end, in commit-LSN units).
    pub mean_staleness: f64,
    /// Worst-case staleness across scans.
    pub max_staleness: u64,
    /// Nanoseconds the scanner thread spent blocked on contended heap
    /// metadata locks. The MVCC read path never takes them, so this
    /// should be exactly zero.
    pub reader_heap_wait_nanos: u64,
}

/// A writer experiment's database: its store, and its prefilled materials.
type Populated = (LabBase, Arc<dyn StorageManager>, Vec<MaterialId>);

/// A fresh store on `version` with the writers' material population
/// (sized off the largest client count, so every point works the same
/// population) prefilled and checkpointed. `None` if the backend is
/// single-user and `clients > 1`.
fn populated(
    version: ServerVersion,
    cfg: &BenchConfig,
    clients: usize,
    max_clients: usize,
    base: &Path,
) -> Result<Option<Populated>> {
    let (db, store) = fresh_db(version, cfg, base)?;
    if clients > 1 && !store.supports_concurrency() {
        return Ok(None);
    }
    let total = cfg.clones_at(1.0).max(max_clients * STEPS_PER_TXN);
    let mats = prefill(&db, "mc_clone", "mc_track", "mc", total)?;
    db.checkpoint()?;
    Ok(Some((db, store, mats)))
}

/// One client's work loop: walk its private slice of the material
/// population in `STEPS_PER_TXN`-sized transactions, recording a step
/// and a state transition per material, retrying the whole transaction on
/// conflict via the session's selective abort.
fn worker(db: &LabBase, mine: &[MaterialId], client: u64) -> Result<ClientRow> {
    let mut row = ClientRow { client, ..Default::default() };
    // Wait attribution: the worker thread maps 1:1 to the client, so the
    // thread-local counters' delta over the loop is this client's share.
    let waits0 = labflow_storage::wait_snapshot();
    // Valid times are partitioned per client so the run is deterministic
    // in everything except commit interleaving.
    let mut vt: i64 = client as i64 * 1_000_000;
    for (round, state) in STATES.iter().cycle().take(ROUNDS).enumerate() {
        for chunk in mine.chunks(STEPS_PER_TXN) {
            let mut attempts = 0u64;
            loop {
                vt += 1;
                let mut s = db.session()?;
                let result = chunk.iter().try_for_each(|&m| -> Result<()> {
                    let reading = vec![("reading".into(), Value::Real(round as f64))];
                    s.record_step("mc_track", vt, &[m], reading)?;
                    s.set_state(m, state, vt)?;
                    Ok(())
                });
                let committed = match result {
                    Ok(()) => s.commit().is_ok(),
                    Err(_) => {
                        s.abort()?;
                        false
                    }
                };
                if committed {
                    row.steps += chunk.len() as u64;
                    row.commits += 1;
                    break;
                }
                row.retries += 1;
                attempts += 1;
                ensure(attempts <= MAX_RETRIES, || {
                    format!("client {client} exceeded {MAX_RETRIES} retries on one transaction")
                })?;
            }
        }
    }
    let waits = labflow_storage::wait_snapshot().delta(&waits0);
    let ms = |nanos: u64| nanos as f64 / 1e6;
    row.lock_wait_ms = ms(waits.lock_wait_nanos);
    row.commit_wait_ms = ms(waits.commit_wait_nanos);
    row.commit_force_ms = ms(waits.commit_force_nanos);
    row.heap_wait_ms = ms(waits.heap_wait_nanos);
    row.lock_condvar_waits = waits.lock_condvar_waits;
    row.name_index_wait_ms = ms(waits.name_index_wait_nanos);
    Ok(row)
}

/// Run `n` writer clients over `mats`: their rows, and the steps per
/// wall-clock second they achieved together.
fn drive(db: &LabBase, mats: &[MaterialId], n: usize) -> Result<(Vec<ClientRow>, f64)> {
    let t0 = Instant::now();
    let rows = run_clients(mats, n, |c, mine| worker(db, mine, c as u64))?;
    let steps = rows.iter().map(|r| r.steps).sum();
    Ok((rows, per_sec(steps, t0.elapsed().as_secs_f64())))
}

/// The multi-client ablation (DESIGN.md `abl-multiclient`): N writer
/// clients record workflow steps against disjoint slices of a prefilled
/// material population, so throughput is limited by the storage layer's
/// concurrency machinery (lock manager, WAL group commit, sharded
/// caches) rather than by logical conflicts. Single-user backends report
/// `supported = false` for every point above one client.
pub fn run_multiclient(
    cfg: &BenchConfig,
    client_counts: &[usize],
    base: &Path,
) -> Result<Vec<MultiClientPoint>> {
    let max_clients = client_counts.iter().copied().max().unwrap_or(1);
    let mut out = Vec::new();
    for version in ServerVersion::ALL {
        for &clients in client_counts {
            ensure(clients > 0, || "client count must be >= 1".into())?;
            let point = MultiClientPoint {
                version: version.name().to_string(),
                clients,
                ..Default::default()
            };
            let Some((db, store, mats)) = populated(version, cfg, clients, max_clients, base)?
            else {
                out.push(point);
                continue;
            };
            let stats0 = store.stats();
            let t0 = Instant::now();
            let (per_client, steps_per_sec) = drive(&db, &mats, clients)?;
            let d = store.stats().delta(&stats0);
            out.push(MultiClientPoint {
                supported: true,
                elapsed_sec: t0.elapsed().as_secs_f64(),
                steps: per_client.iter().map(|r| r.steps).sum(),
                steps_per_sec,
                commits: d.commits,
                retries: per_client.iter().map(|r| r.retries).sum(),
                wal_syncs: d.wal_syncs,
                heap_waits: d.heap_shard_waits,
                heap_wait_us: d.heap_wait_nanos / 1_000,
                per_client,
                ..point
            });
        }
    }
    Ok(out)
}

/// The analytical reader: repeatedly pin a snapshot and walk the full
/// history of every material through it, until `stop` is set. Always
/// completes at least one scan. Staleness is measured at scan end by
/// comparing a fresh snapshot's LSN against the pinned one — i.e. how
/// many commits the scan's view fell behind while it ran. Returns
/// `point` with the scanner's half filled in.
fn scanner(
    db: &LabBase,
    store: &Arc<dyn StorageManager>,
    stop: &AtomicBool,
    point: &SnapshotPoint,
    expected_materials: usize,
) -> Result<SnapshotPoint> {
    let mut st = point.clone();
    let mut staleness_sum = 0;
    let waits0 = labflow_storage::wait_snapshot();
    loop {
        let view = db.view()?;
        let mats = view.class_extent("mc_clone", false)?;
        // Writers only update; the population is fixed at prefill, so
        // every consistent cut must see all of it.
        ensure(mats.len() == expected_materials, || {
            format!(
                "inconsistent snapshot scan: {} materials visible, expected {expected_materials}",
                mats.len()
            )
        })?;
        for m in mats {
            st.rows_read += view.history(m)?.len() as u64;
        }
        st.scans += 1;
        if let Some(lsn) = view.lsn().filter(|&l| l != u64::MAX) {
            let fresh = store.begin_snapshot()?;
            if fresh.lsn != u64::MAX {
                let stale = fresh.lsn.saturating_sub(lsn);
                staleness_sum += stale;
                st.max_staleness = st.max_staleness.max(stale);
            }
            store.release_snapshot(fresh);
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        std::thread::sleep(SCAN_PAUSE);
        if stop.load(Ordering::Relaxed) {
            break;
        }
    }
    st.mean_staleness = staleness_sum as f64 / st.scans as f64;
    st.reader_heap_wait_nanos = labflow_storage::wait_snapshot().delta(&waits0).heap_wait_nanos;
    Ok(st)
}

/// The snapshot-scan ablation (DESIGN.md `abl-snapshot`): `writers`
/// clients drive the multi-client update loop while one analytical
/// reader repeatedly scans the full history of the whole population
/// through pinned snapshots. With version-chain reads the scan holds no
/// locks and touches no heap metadata locks, so writer throughput
/// should stay within a few percent of the scanner-free baseline.
pub fn run_snapshot(cfg: &BenchConfig, writers: usize, base: &Path) -> Result<Vec<SnapshotPoint>> {
    ensure(writers > 0, || "writer count must be >= 1".into())?;
    let mut out = Vec::new();
    for version in ServerVersion::ALL {
        let point =
            SnapshotPoint { version: version.name().to_string(), writers, ..Default::default() };
        // Single-user backends cannot host even one writer beside the
        // scanner.
        let Some((db, store, mats)) = populated(version, cfg, writers.max(2), writers, base)?
        else {
            out.push(point);
            continue;
        };
        // Phase 1 — baseline: writers with no reader. Phase 2 — the same
        // writer work with the scanner running.
        let (_, alone) = drive(&db, &mats, writers)?;
        let ((_, scanned), scanned_point) = alongside(
            &[point],
            |point, stop| scanner(&db, &store, stop, point, mats.len()),
            || drive(&db, &mats, writers),
        )?;
        out.push(SnapshotPoint {
            supported: true,
            steps_per_sec_alone: alone,
            steps_per_sec_scanned: scanned,
            throughput_ratio: if alone > 0.0 { scanned / alone } else { 0.0 },
            ..scanned_point.into_iter().next().unwrap_or_default()
        });
    }
    Ok(out)
}

/// Render the multi-client ablation table: aggregate steps/sec per
/// client count, speedup relative to each version's one-client point,
/// and the group-commit evidence (WAL syncs vs commits). Single-user
/// backends print an em dash for every multi-client cell.
pub fn multiclient_table(points: &[MultiClientPoint]) -> String {
    let versions = distinct(points.iter().map(|p| p.version.as_str()));
    let mut counts = distinct(points.iter().map(|p| p.clients));
    counts.sort_unstable();
    let find = |v: &str, c: usize| points.iter().find(|p| p.version == v && p.clients == c);
    let baseline = |v| find(v, 1).filter(|b| b.supported && b.steps_per_sec > 0.0);
    let spec = by_version("<14 clients", versions.iter().copied());
    let mut t = Table::default();
    let blocks = [
        ("Multi-client ablation — aggregate step throughput vs writer clients", false),
        ("\nSpeedup vs 1 client", true),
    ];
    for (title, speedup) in blocks {
        t.head(title, &spec);
        for &c in &counts {
            let cells = versions.iter().map(|&v| match (find(v, c), baseline(v)) {
                (None, _) => "-".into(),
                (Some(p), _) if !p.supported => "—".into(),
                (Some(p), _) if !speedup => fixed(p.steps_per_sec, 0),
                (Some(p), Some(b)) => format!("{:.2}x", p.steps_per_sec / b.steps_per_sec),
                (Some(_), None) => "—".into(),
            });
            t.row(std::iter::once(c.to_string()).chain(cells));
        }
    }

    t.head(
        "\nGroup commit — WAL syncs / commits / retries per point",
        "<12 version|>9 clients|>12 wal syncs|>12 commits|>10 retries|\
         >18 steps",
    );
    for p in points {
        let (v, c) = (p.version.clone(), p.clients.to_string());
        if p.supported {
            let (syncs, commits) = (commas(p.wal_syncs), commas(p.commits));
            t.row([v, c, syncs, commits, commas(p.retries), commas(p.steps)]);
        } else {
            t.row([v.as_str(), &c, "—", "—", "—", "— (single-user)"]);
        }
    }

    // Heap metadata contention: how often any client found a heap lock
    // (object-table shard, segment placement state) held by another
    // thread, and the total time blocked there. With the sharded heap
    // these should stay near zero even at 8 clients.
    t.head(
        "\nHeap contention — contended metadata lock acquisitions per point",
        "<12 version|>9 clients|>14 contended|>16 blocked µs",
    );
    for p in points {
        let (v, c) = (p.version.clone(), p.clients.to_string());
        if p.supported {
            t.row([v, c, commas(p.heap_waits), commas(p.heap_wait_us)]);
        } else {
            t.row([v.as_str(), &c, "—", "—"]);
        }
    }

    // Per-client wait attribution: where each writer's wall-clock went
    // while it was not making progress (blocked on object locks, queued
    // in WAL group commit, or blocked on heap metadata locks).
    let attributed: Vec<&MultiClientPoint> =
        points.iter().filter(|p| p.supported && !p.per_client.is_empty()).collect();
    if !attributed.is_empty() {
        t.head(
            "\nWait attribution — per client, ms blocked\n\
             ('commit wait' is time inside the commit's log step: writing the log tail out,\n \
             or, for a durable commit, queue wait on the log-writer; 'force' is time this\n \
             client's own thread spent inside a physical log force: zero, the log-writer\n \
             does every force)",
            "<12 version|>9 clients|>9 client|>12 commits|>12 retries|\
             >12 lock wait|>12 commit wait|>9 force|>12 heap wait|>10 cv waits|\
             >10 name idx",
        );
        for p in attributed {
            for r in &p.per_client {
                t.row([
                    p.version.clone(),
                    p.clients.to_string(),
                    r.client.to_string(),
                    commas(r.commits),
                    commas(r.retries),
                    fixed(r.lock_wait_ms, 1),
                    fixed(r.commit_wait_ms, 1),
                    fixed(r.commit_force_ms, 1),
                    fixed(r.heap_wait_ms, 1),
                    commas(r.lock_condvar_waits),
                    fixed(r.name_index_wait_ms, 1),
                ]);
            }
        }
    }
    t.finish()
}

/// The snapshot-scan ablation table (`abl-snapshot`): writer throughput
/// with and without the concurrent full-history scanner, plus what the
/// scanner saw (scans completed, rows visited, snapshot staleness) and
/// what it cost (heap metadata blocking, which must be zero).
pub fn snapshot_table(points: &[SnapshotPoint]) -> String {
    let mut t = Table::default();
    t.head(
        "Snapshot-scan ablation — writer throughput vs a concurrent analytical scan",
        "<12 version|>9 writers|>12 alone st/s|>12 scan st/s|>9 ratio|\
         >8 scans|>14 rows read|>12 stale mean|>12 stale max|>14 rd heap µs",
    );
    for p in points {
        let (v, w) = (p.version.clone(), p.writers.to_string());
        if p.supported {
            t.row([
                v,
                w,
                fixed(p.steps_per_sec_alone, 0),
                fixed(p.steps_per_sec_scanned, 0),
                format!("{:.2}x", p.throughput_ratio),
                commas(p.scans),
                commas(p.rows_read),
                fixed(p.mean_staleness, 1),
                commas(p.max_staleness),
                commas(p.reader_heap_wait_nanos / 1_000),
            ]);
        } else {
            t.row([v.as_str(), &w, "—", "—", "—", "—", "—", "—", "—", "single-user"]);
        }
    }
    t.line(
        "\nstale mean/max: commits the pinned snapshot fell behind while one scan ran.\n\
         rd heap µs: scanner time blocked on heap metadata locks — 0 means the read\n\
         path is latch-free against the writers.",
    );
    t.finish()
}
