//! `abl-replication`: WAL shipping to warm followers (DESIGN.md
//! `abl-replication`).
//!
//! An in-process primary ships its WAL to 1/2/4 follower engines through
//! the same verify-and-apply pipeline the networked replica binary runs
//! (`labflow_repl::Follower` fed from `wal_stream_from`), skipping only
//! the wire framing that `abl-server` already measures. Two passes per
//! follower count:
//!
//!   * an asynchronous pass — a full-speed writer with quorum 0, where
//!     the cost of replication is *lag*: how far behind the primary's
//!     flush each follower's durable apply runs;
//!   * a quorum pass — every commit additionally waits until a majority
//!     of followers have durably applied it, which converts lag into
//!     commit latency (the `ack_quorum` trade the server exposes).
//!
//! The primary is never checkpointed: checkpointing truncates the WAL
//! and would rewind the stream (the documented re-seed case).

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use labbase::{LabBase, MaterialId, Value};
use labflow_repl::Follower;
use labflow_storage::{Options, StorageManager};
use serde::Serialize;

use crate::config::{BenchConfig, ServerVersion};
use crate::error::{BenchError, Result};
use crate::hist::LatencyHist;
use crate::report::{commas, fixed, Table};
use crate::runner::{alongside, ensure, per_sec, prefill, store_dir, STATES};

/// Wall-clock milliseconds of the asynchronous (quorum-0) pass.
const POINT_MILLIS: u64 = 500;
/// Transactions of the quorum pass (each waits for the majority ack).
pub const QUORUM_TXNS: u64 = 32;
/// Ship chunk cap, bytes.
const CHUNK_CAP: usize = 1 << 16;
/// Pump idle sleep while the primary has nothing new to ship.
const PUMP_IDLE: Duration = Duration::from_micros(200);
/// Materials prefilled for the writer to cycle.
const MATS: usize = 16;
/// Safety bound on catch-up and quorum waits: a pump that dies must
/// fail the experiment, not hang it.
const WAIT_CAP: Duration = Duration::from_secs(10);

/// One follower count of the replication ablation.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ReplicationPoint {
    /// Followers replaying the primary's WAL.
    pub followers: usize,
    /// Majority quorum the quorum pass waited for.
    pub ack_quorum: usize,
    /// Wall-clock seconds of the asynchronous pass.
    pub elapsed_sec: f64,
    /// Transactions the asynchronous writer committed.
    pub txns: u64,
    /// Asynchronous commit throughput.
    pub txns_per_sec: f64,
    /// WAL bytes shipped over the whole point (both passes).
    pub shipped_bytes: u64,
    /// Chunks ingested across all followers.
    pub chunks: u64,
    /// Asynchronous commit latency (primary-durable only), µs.
    pub commit_p50_us: f64,
    /// 99th percentile asynchronous commit, µs.
    pub commit_p99_us: f64,
    /// Apply lag behind the primary flush, µs — median.
    pub lag_p50_us: f64,
    /// Apply lag, 99th percentile µs.
    pub lag_p99_us: f64,
    /// Worst observed apply lag, µs.
    pub lag_max_us: f64,
    /// Time for every follower to drain the backlog once the
    /// asynchronous writer stopped, milliseconds.
    pub catchup_ms: f64,
    /// Transactions of the quorum pass.
    pub quorum_txns: u64,
    /// Commit-plus-majority-ack latency, µs — median.
    pub quorum_p50_us: f64,
    /// 99th percentile commit-plus-ack, µs.
    pub quorum_p99_us: f64,
    /// Worst commit-plus-ack, µs.
    pub quorum_max_us: f64,
}

/// What the writer side of one replication point accumulated.
struct WriterOut {
    commit_hist: LatencyHist,
    quorum_hist: LatencyHist,
    /// (elapsed-since-t0, primary flushed offset) after each commit.
    series: Vec<(Duration, u64)>,
    elapsed: f64,
    catchup_ms: f64,
}

fn repl_err(e: impl std::fmt::Display) -> BenchError {
    BenchError::Config(format!("replication: {e}"))
}

/// Ship the primary's WAL into one follower until `stop` is set *and*
/// the follower has drained everything the primary flushed. Returns one
/// (elapsed-since-t0, durable offset) entry per chunk ingested, for the
/// lag reconstruction.
fn pump(
    pri: &Arc<dyn StorageManager>,
    follower: &Follower,
    stop: &AtomicBool,
    t0: Instant,
) -> Result<Vec<(Duration, u64)>> {
    let mut progress = Vec::new();
    loop {
        let durable = follower.durable_lsn();
        let chunk = pri.wal_stream_from(durable, CHUNK_CAP).map_err(repl_err)?;
        if chunk.is_empty() {
            if stop.load(Ordering::Relaxed) && pri.replication_lsn().map_err(repl_err)? == durable {
                return Ok(progress);
            }
            std::thread::sleep(PUMP_IDLE);
            continue;
        }
        follower.ingest(pri.store_epoch(), chunk.start, &chunk.bytes).map_err(repl_err)?;
        progress.push((t0.elapsed(), chunk.end));
    }
}

/// Wait until `pred` holds, bounded by [`WAIT_CAP`].
fn wait(what: &str, mut pred: impl FnMut() -> bool) -> Result<()> {
    let cap = Instant::now() + WAIT_CAP;
    while !pred() {
        if Instant::now() > cap {
            return Err(repl_err(format!("{what} did not complete within {WAIT_CAP:?}")));
        }
        std::thread::sleep(Duration::from_micros(20));
    }
    Ok(())
}

/// One follower count: fresh primary, `n` fresh followers seeded at the
/// primary's post-create offset, the asynchronous pass, the drain, the
/// quorum pass, and a state-by-state consistency check of every replica.
fn run_point(cfg: &BenchConfig, n: usize, base: &Path) -> Result<ReplicationPoint> {
    let opts = Options { buffer_pages: cfg.buffer_pages, sync_commit: true, ..Options::default() };
    let store = |name: String| -> Result<Arc<dyn StorageManager>> {
        ServerVersion::OStore.make_store_with(&store_dir(base, &name)?, opts.clone())
    };
    let pri = store(format!("repl-{n}-primary"))?;
    // Followers seed at the primary's post-create offset: a fresh image
    // is logically identical to the primary before its first commit, so
    // the stream replays everything from the schema bootstrap on.
    let from0 = pri.replication_lsn().map_err(repl_err)?;
    let followers = (0..n)
        .map(|i| Ok(Follower::new(store(format!("repl-{n}-follower-{i}"))?, from0)))
        .collect::<Result<Vec<_>>>()?;
    let db = LabBase::create(pri.clone())?;
    let mats = prefill(&db, "repl_clone", "repl_track", "repl", MATS)?;

    let quorum = n / 2 + 1;
    let t0 = Instant::now();
    let writer = || -> Result<WriterOut> {
        let mut commit_hist = LatencyHist::new();
        let mut series: Vec<(Duration, u64)> = Vec::new();
        let mut vt: i64 = 0;
        let mut mat_cycle = mats.iter().copied().cycle();
        let mut state_cycle = STATES.iter().copied().cycle();
        // One single-step transaction; returns the commit duration
        // and the primary's post-commit flushed offset.
        let mut step = |vt: i64| -> Result<(Duration, u64)> {
            let (Some(m), Some(state)) = (mat_cycle.next(), state_cycle.next()) else {
                return Err(repl_err("empty material cycle"));
            };
            let txn = db.begin()?;
            let reading = vec![("reading".into(), Value::Real(vt as f64))];
            db.record_step(txn, "repl_track", vt, &[m], reading)?;
            db.set_state(txn, m, state, vt + 1)?;
            let t = Instant::now();
            db.commit(txn)?;
            let commit = t.elapsed();
            Ok((commit, pri.replication_lsn().map_err(repl_err)?))
        };

        // Asynchronous pass: full-speed writer, commits are done
        // when the primary's WAL is; followers trail behind.
        let deadline = Instant::now() + Duration::from_millis(POINT_MILLIS);
        while Instant::now() < deadline {
            vt += 4;
            let (commit, lsn) = step(vt)?;
            commit_hist.record(commit);
            series.push((t0.elapsed(), lsn));
        }
        let elapsed = t0.elapsed().as_secs_f64();

        // Drain: how long the backlog takes to clear once the
        // writer stops offering load.
        let lsn_a = pri.replication_lsn().map_err(repl_err)?;
        let t_drain = Instant::now();
        wait("async catch-up", || followers.iter().all(|f| f.durable_lsn() >= lsn_a))?;
        let catchup_ms = t_drain.elapsed().as_secs_f64() * 1e3;

        // Quorum pass: each commit additionally waits until a
        // majority of followers have durably applied it — the
        // server's `ack_quorum` semantics without the wire.
        let mut quorum_hist = LatencyHist::new();
        for _ in 0..QUORUM_TXNS {
            vt += 4;
            let (commit, lsn) = step(vt)?;
            let t_ack = Instant::now();
            wait("quorum ack", || {
                followers.iter().filter(|f| f.durable_lsn() >= lsn).count() >= quorum
            })?;
            quorum_hist.record(commit + t_ack.elapsed());
        }
        Ok(WriterOut { commit_hist, quorum_hist, series, elapsed, catchup_ms })
    };
    let (w, pumps) = alongside(&followers, |f, stop| pump(&pri, f, stop, t0), writer)?;

    let chunks = pumps.iter().map(|p| p.len() as u64).sum();
    let mut lag_hist = LatencyHist::new();
    for progress in pumps {
        // Reconstruct apply lag: a chunk ending at offset L became
        // shippable when the first commit whose post-commit flush
        // reached L returned; the ingest completing at `t` therefore
        // ran `t - t_commit` behind the primary.
        for (t, l) in progress {
            if l <= from0 {
                continue;
            }
            let idx = w.series.partition_point(|&(_, lsn)| lsn < l);
            let Some(&(t_commit, _)) = w.series.get(idx) else {
                continue; // quorum-pass chunks: latency measured there
            };
            lag_hist.record(t.saturating_sub(t_commit));
        }
    }

    // Every follower must now be a faithful replica: same state counts,
    // same name lookups, read-only.
    let first = "repl-000000";
    for (i, f) in followers.iter().enumerate() {
        let replica = LabBase::open(Arc::clone(f.store()))?;
        replica.set_read_only(true);
        replica.refresh_replica_caches()?;
        for s in STATES {
            let (p, r) = (db.count_in_state(s)?, replica.count_in_state(s)?);
            ensure(p == r, || {
                format!("replication: follower {i} diverged: {r} in '{s}', primary has {p}")
            })?;
        }
        let raw = |m: Option<MaterialId>| m.map(|m| m.oid().raw());
        let same = raw(replica.find_material(first)?) == raw(db.find_material(first)?);
        ensure(same, || format!("replication: follower {i} lost a material name"))?;
    }
    Ok(ReplicationPoint {
        followers: n,
        ack_quorum: quorum,
        elapsed_sec: w.elapsed,
        txns: w.series.len() as u64,
        txns_per_sec: per_sec(w.series.len() as u64, w.elapsed),
        shipped_bytes: pri.replication_lsn().map_err(repl_err)? - from0,
        chunks,
        commit_p50_us: w.commit_hist.quantile_us(0.50),
        commit_p99_us: w.commit_hist.quantile_us(0.99),
        lag_p50_us: lag_hist.quantile_us(0.50),
        lag_p99_us: lag_hist.quantile_us(0.99),
        lag_max_us: lag_hist.max_us(),
        catchup_ms: w.catchup_ms,
        quorum_txns: QUORUM_TXNS,
        quorum_p50_us: w.quorum_hist.quantile_us(0.50),
        quorum_p99_us: w.quorum_hist.quantile_us(0.99),
        quorum_max_us: w.quorum_hist.max_us(),
    })
}

/// Run the replication ablation across `follower_counts`.
pub fn run(
    cfg: &BenchConfig,
    follower_counts: &[usize],
    base: &Path,
) -> Result<Vec<ReplicationPoint>> {
    let mut points = Vec::new();
    for &n in follower_counts {
        ensure(n > 0, || "follower count must be >= 1".into())?;
        points.push(run_point(cfg, n, base)?);
    }
    Ok(points)
}

/// The replication ablation (`abl-replication`): apply lag behind a
/// full-speed writer and commit latency once every commit waits for a
/// majority of followers.
pub fn table(points: &[ReplicationPoint]) -> String {
    let mut t = Table::default();
    t.head(
        "WAL-shipping replication — in-process followers replaying the primary (OStore)",
        "<11 followers|>7 quorum|>9 txn/s|>12 shipped B|>8 chunks|\
         >11 lag p50 µs|>11 lag p99 µs|>11 lag max µs|>12 catch-up ms",
    );
    for p in points {
        t.row([
            p.followers.to_string(),
            p.ack_quorum.to_string(),
            fixed(p.txns_per_sec, 0),
            commas(p.shipped_bytes),
            p.chunks.to_string(),
            fixed(p.lag_p50_us, 0),
            fixed(p.lag_p99_us, 0),
            fixed(p.lag_max_us, 0),
            fixed(p.catchup_ms, 1),
        ]);
    }
    t.line(
        "\nlag: time between a commit returning on the primary and a follower\n\
         durably applying the chunk that carries it (asynchronous pass).",
    );
    t.head(
        "\nCommit latency — primary-durable (quorum 0) vs majority-acked",
        "<11 followers|>14 async p50 µs|>14 async p99 µs|>16 quorum p50 µs|\
         >16 quorum p99 µs|>14 quorum max µs",
    );
    for p in points {
        t.row([
            p.followers.to_string(),
            fixed(p.commit_p50_us, 0),
            fixed(p.commit_p99_us, 0),
            fixed(p.quorum_p50_us, 0),
            fixed(p.quorum_p99_us, 0),
            fixed(p.quorum_max_us, 0),
        ]);
    }
    t.line(
        "\neach quorum commit waits until a majority of followers have durably\n\
         applied it; every replica is checked state-by-state against the\n\
         primary at the end of the point.",
    );
    t.finish()
}
