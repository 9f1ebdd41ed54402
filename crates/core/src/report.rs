//! Paper-style table and figure renderers.
//!
//! The Section-10 results table prints one column per server version and
//! one row per resource, grouped by workload interval — the exact layout
//! the capture preserves:
//!
//! ```text
//! Database   Server Version
//! Intvl  Resource       OStore  Texas+TC  Texas  Ostore-mm  Texas-mm
//! 0.5X   elapsed sec     1,424     1,469  1,402      1,384     1,407
//! ...
//! ```

use crate::metrics::ResourceRow;
use crate::runner::{
    BuildResult, ClusteringPoint, ConcurrencyPoint, EvolutionResult, MultiClientPoint, QueryTiming,
    RecoveryPoint, ReplicationPoint, ServerResult, SnapshotPoint,
};

/// Thousands-separated integer, the paper's number style.
pub fn commas(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// A named resource row: label plus the renderer extracting its cell.
type ResourceRenderer<'a> = (&'a str, Box<dyn Fn(&ResourceRow) -> String>);

fn pad_left(s: &str, width: usize) -> String {
    format!("{s:>width$}")
}

fn pad_right(s: &str, width: usize) -> String {
    format!("{s:<width$}")
}

/// Render the Section-10 build table: intervals × resources × versions.
pub fn build_table(results: &[BuildResult]) -> String {
    let versions: Vec<&str> = results.iter().map(|r| r.version.as_str()).collect();
    let mut intervals: Vec<String> = Vec::new();
    for r in results {
        for row in &r.rows {
            if !intervals.contains(&row.interval) {
                intervals.push(row.interval.clone());
            }
        }
    }
    let col = 12usize;
    let mut out = String::new();
    out.push_str("Database                         Server Version\n");
    out.push_str(&pad_right("Intvl  Resource", 24));
    for v in &versions {
        out.push_str(&pad_left(v, col));
    }
    out.push('\n');

    let find = |version: &str, interval: &str| -> Option<&ResourceRow> {
        results
            .iter()
            .find(|r| r.version == version)
            .and_then(|r| r.rows.iter().find(|row| row.interval == interval))
    };

    for interval in &intervals {
        let resources: [ResourceRenderer<'_>; 9] = [
            ("elapsed sec", Box::new(|r| format!("{:.1}", r.elapsed_sec))),
            (
                "user cpu sec",
                Box::new(|r| format!("{:.1}", r.user_cpu_sec)),
            ),
            ("sys cpu sec", Box::new(|r| format!("{:.1}", r.sys_cpu_sec))),
            ("majflt (sim)", Box::new(|r| commas(r.sim_majflt))),
            ("page writes", Box::new(|r| commas(r.page_writes))),
            ("steps/sec", Box::new(|r| format!("{:.0}", r.steps_per_sec))),
            ("step p99 µs", Box::new(|r| format!("{:.0}", r.step_p99_us))),
            (
                "query p99 µs",
                Box::new(|r| format!("{:.0}", r.query_p99_us)),
            ),
            (
                "size (bytes)",
                Box::new(|r| r.size_bytes.map(commas).unwrap_or_else(|| "—".to_string())),
            ),
        ];
        for (i, (name, render)) in resources.iter().enumerate() {
            let label = if i == 0 {
                format!("{interval:<6} {name}")
            } else {
                format!("       {name}")
            };
            out.push_str(&pad_right(&label, 24));
            for v in &versions {
                let cell = find(v, interval)
                    .map(render)
                    .unwrap_or_else(|| "-".to_string());
                out.push_str(&pad_left(&cell, col));
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Render the throughput figure: steps/sec vs database scale, one series
/// per version (ASCII series, plus the raw numbers).
pub fn throughput_figure(results: &[BuildResult]) -> String {
    let mut out = String::new();
    out.push_str("Throughput vs database size (steps/second per interval)\n\n");
    let width = 46usize;
    let max = results
        .iter()
        .flat_map(|r| r.rows.iter().map(|row| row.steps_per_sec))
        .fold(1.0f64, f64::max);
    for r in results {
        out.push_str(&format!("{}\n", r.version));
        for row in &r.rows {
            let bar = ((row.steps_per_sec / max) * width as f64).round() as usize;
            out.push_str(&format!(
                "  {:<6} {:>9.0} |{}\n",
                row.interval,
                row.steps_per_sec,
                "#".repeat(bar.min(width))
            ));
        }
    }
    out
}

/// Render the query-mix table: one row per family, versions as columns,
/// mean µs per execution (and faults in a second block).
pub fn query_table(timings: &[QueryTiming]) -> String {
    let mut versions: Vec<&str> = Vec::new();
    let mut queries: Vec<&str> = Vec::new();
    for t in timings {
        if !versions.contains(&t.version.as_str()) {
            versions.push(&t.version);
        }
        if !queries.contains(&t.query.as_str()) {
            queries.push(&t.query);
        }
    }
    let col = 12usize;
    let mut out = String::new();
    for (title, metric) in [
        ("mean µs per execution", 0usize),
        ("simulated faults per family", 1usize),
    ] {
        out.push_str(&format!("Query mix — {title}\n"));
        out.push_str(&pad_right("query family", 24));
        for v in &versions {
            out.push_str(&pad_left(v, col));
        }
        out.push('\n');
        for q in &queries {
            out.push_str(&pad_right(q, 24));
            for v in &versions {
                let cell = timings
                    .iter()
                    .find(|t| t.version == *v && t.query == *q)
                    .map(|t| {
                        if metric == 0 {
                            format!("{:.1}", t.mean_us)
                        } else {
                            commas(t.sim_faults)
                        }
                    })
                    .unwrap_or_else(|| "-".into());
                out.push_str(&pad_left(&cell, col));
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Render the evolution table.
pub fn evolution_table(results: &[EvolutionResult]) -> String {
    let mut out = String::new();
    out.push_str("Schema evolution (redefine step class mid-stream)\n");
    out.push_str(&format!(
        "{:<12}{:>16}{:>18}{:>10}{:>14}{:>14}\n",
        "version", "redefine µs", "record_step µs", "max ver", "size before", "size after"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<12}{:>16.1}{:>18.1}{:>10}{:>14}{:>14}\n",
            r.version,
            r.redefine_mean_us,
            r.record_step_mean_us,
            r.max_versions,
            r.size_before.map(commas).unwrap_or_else(|| "—".into()),
            r.size_after.map(commas).unwrap_or_else(|| "—".into()),
        ));
    }
    out
}

/// Render the clustering-ablation table.
pub fn clustering_table(points: &[ClusteringPoint]) -> String {
    let mut out = String::new();
    out.push_str("Clustering ablation — steady-state tracking lookups, faults per 1,000 lookups\n");
    let mut pools: Vec<usize> = Vec::new();
    let mut versions: Vec<&str> = Vec::new();
    for p in points {
        if !pools.contains(&p.pool_pages) {
            pools.push(p.pool_pages);
        }
        if !versions.contains(&p.version.as_str()) {
            versions.push(&p.version);
        }
    }
    pools.sort_unstable();
    out.push_str(&pad_right("pool pages", 14));
    for v in &versions {
        out.push_str(&pad_left(v, 12));
    }
    out.push('\n');
    for pool in pools {
        out.push_str(&pad_right(&commas(pool as u64), 14));
        for v in &versions {
            let cell = points
                .iter()
                .find(|p| p.pool_pages == pool && p.version == *v)
                .map(|p| format!("{:.1}", p.faults_per_k))
                .unwrap_or_else(|| "-".into());
            out.push_str(&pad_left(&cell, 12));
        }
        out.push('\n');
    }
    out
}

/// Render the concurrency-ablation table.
pub fn concurrency_table(points: &[ConcurrencyPoint]) -> String {
    let mut out = String::new();
    out.push_str("Concurrency ablation — build throughput with reader threads\n");
    out.push_str(&format!(
        "{:<12}{:>9}{:>16}{:>18}\n",
        "version", "readers", "build steps/s", "reader queries/s"
    ));
    for p in points {
        if p.supported {
            out.push_str(&format!(
                "{:<12}{:>9}{:>16.0}{:>18.0}\n",
                p.version, p.readers, p.build_steps_per_sec, p.reader_ops_per_sec
            ));
        } else {
            out.push_str(&format!(
                "{:<12}{:>9}{:>16}{:>18}\n",
                p.version, p.readers, "—", "— (single-user)"
            ));
        }
    }
    out
}

/// Render the recovery-ablation table.
pub fn recovery_table(points: &[RecoveryPoint]) -> String {
    let mut out = String::new();
    out.push_str("Recovery ablation — crash after checkpoint + quarter-interval of work\n");
    out.push_str(&format!(
        "{:<12}{:>14}{:>14}{:>10}{:>16}{:>12}\n",
        "version", "at crash", "recovered", "lost", "WAL debt (B)", "reopen ms"
    ));
    for p in points {
        out.push_str(&format!(
            "{:<12}{:>14}{:>14}{:>10}{:>16}{:>12.1}\n",
            p.version,
            commas(p.materials_at_crash),
            commas(p.materials_recovered),
            commas(p.materials_lost),
            commas(p.wal_bytes_at_crash),
            p.reopen_ms,
        ));
    }
    out
}

/// Render the scrub ablation table: what the offline audit of each
/// recovered image covered, how long it took, and the verdict.
pub fn scrub_table(points: &[crate::runner::ScrubPoint]) -> String {
    let mut out = String::new();
    out.push_str("Scrub ablation — offline integrity audit of a recovered store image\n");
    out.push_str(&format!(
        "{:<12}{:>9}{:>10}{:>13}{:>12}{:>14}{:>11}{:>8}\n",
        "version",
        "pages",
        "verified",
        "quarantined",
        "wal frames",
        "image (B)",
        "scrub ms",
        "clean"
    ));
    for p in points {
        out.push_str(&format!(
            "{:<12}{:>9}{:>10}{:>13}{:>12}{:>14}{:>11.1}{:>8}\n",
            p.version,
            commas(p.pages as u64),
            commas(p.pages_verified as u64),
            commas(p.quarantined as u64),
            commas(p.wal_frames),
            commas(p.image_bytes),
            p.scrub_ms,
            if p.clean { "yes" } else { "NO" },
        ));
    }
    out
}

/// Render the multi-client ablation table: aggregate steps/sec per
/// client count, speedup relative to each version's one-client point,
/// and the group-commit evidence (WAL syncs vs commits). Single-user
/// backends print an em dash for every multi-client cell.
pub fn multiclient_table(points: &[MultiClientPoint]) -> String {
    let mut versions: Vec<&str> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    for p in points {
        if !versions.contains(&p.version.as_str()) {
            versions.push(&p.version);
        }
        if !counts.contains(&p.clients) {
            counts.push(p.clients);
        }
    }
    counts.sort_unstable();
    let find = |v: &str, c: usize| points.iter().find(|p| p.version == v && p.clients == c);
    let col = 12usize;

    let mut out = String::new();
    out.push_str("Multi-client ablation — aggregate step throughput vs writer clients\n");
    out.push_str(&pad_right("clients", 14));
    for v in &versions {
        out.push_str(&pad_left(v, col));
    }
    out.push('\n');
    for &c in &counts {
        out.push_str(&pad_right(&c.to_string(), 14));
        for v in &versions {
            let cell = find(v, c)
                .map(|p| {
                    if p.supported {
                        format!("{:.0}", p.steps_per_sec)
                    } else {
                        "—".to_string()
                    }
                })
                .unwrap_or_else(|| "-".into());
            out.push_str(&pad_left(&cell, col));
        }
        out.push('\n');
    }

    out.push_str("\nSpeedup vs 1 client\n");
    out.push_str(&pad_right("clients", 14));
    for v in &versions {
        out.push_str(&pad_left(v, col));
    }
    out.push('\n');
    for &c in &counts {
        out.push_str(&pad_right(&c.to_string(), 14));
        for v in &versions {
            let baseline = find(v, 1).filter(|p| p.supported && p.steps_per_sec > 0.0);
            let cell = match (find(v, c), baseline) {
                (Some(p), Some(b)) if p.supported => {
                    format!("{:.2}x", p.steps_per_sec / b.steps_per_sec)
                }
                (Some(_), _) => "—".to_string(),
                (None, _) => "-".to_string(),
            };
            out.push_str(&pad_left(&cell, col));
        }
        out.push('\n');
    }

    out.push_str("\nGroup commit — WAL syncs / commits / retries per point\n");
    out.push_str(&format!(
        "{:<12}{:>9}{:>12}{:>12}{:>10}{:>18}\n",
        "version", "clients", "wal syncs", "commits", "retries", "steps"
    ));
    for p in points {
        if p.supported {
            out.push_str(&format!(
                "{:<12}{:>9}{:>12}{:>12}{:>10}{:>18}\n",
                p.version,
                p.clients,
                commas(p.wal_syncs),
                commas(p.commits),
                commas(p.retries),
                commas(p.steps),
            ));
        } else {
            out.push_str(&format!(
                "{:<12}{:>9}{:>12}{:>12}{:>10}{:>18}\n",
                p.version, p.clients, "—", "—", "—", "— (single-user)"
            ));
        }
    }

    // Heap metadata contention: how often any client found a heap lock
    // (object-table shard, segment placement state) held by another
    // thread, and the total time blocked there. With the sharded heap
    // these should stay near zero even at 8 clients.
    out.push_str("\nHeap contention — contended metadata lock acquisitions per point\n");
    out.push_str(&format!(
        "{:<12}{:>9}{:>14}{:>16}\n",
        "version", "clients", "contended", "blocked µs"
    ));
    for p in points {
        if p.supported {
            out.push_str(&format!(
                "{:<12}{:>9}{:>14}{:>16}\n",
                p.version,
                p.clients,
                commas(p.heap_waits),
                commas(p.heap_wait_us),
            ));
        } else {
            out.push_str(&format!(
                "{:<12}{:>9}{:>14}{:>16}\n",
                p.version, p.clients, "—", "—"
            ));
        }
    }

    // Per-client wait attribution: where each writer's wall-clock went
    // while it was not making progress (blocked on object locks, queued
    // in WAL group commit, or blocked on heap metadata locks).
    let attributed: Vec<&MultiClientPoint> = points
        .iter()
        .filter(|p| p.supported && !p.per_client.is_empty())
        .collect();
    if !attributed.is_empty() {
        out.push_str("\nWait attribution — per client, ms blocked\n");
        out.push_str(
            "('commit wait' is time inside the commit's log step: writing the log tail out,\n \
             or, for a durable commit, queue wait on the log-writer; 'force' is time this\n \
             client's own thread spent inside a physical log force: zero, the log-writer\n \
             does every force)\n",
        );
        out.push_str(&format!(
            "{:<12}{:>9}{:>9}{:>12}{:>12}{:>12}{:>12}{:>9}{:>12}{:>10}{:>10}\n",
            "version",
            "clients",
            "client",
            "commits",
            "retries",
            "lock wait",
            "commit wait",
            "force",
            "heap wait",
            "cv waits",
            "name idx"
        ));
        for p in attributed {
            for r in &p.per_client {
                out.push_str(&format!(
                    "{:<12}{:>9}{:>9}{:>12}{:>12}{:>12.1}{:>12.1}{:>9.1}{:>12.1}{:>10}{:>10.1}\n",
                    p.version,
                    p.clients,
                    r.client,
                    commas(r.commits),
                    commas(r.retries),
                    r.lock_wait_ms,
                    r.commit_wait_ms,
                    r.commit_force_ms,
                    r.heap_wait_ms,
                    commas(r.lock_condvar_waits),
                    r.name_index_wait_ms,
                ));
            }
        }
    }
    out
}

/// The snapshot-scan ablation table (`abl-snapshot`): writer throughput
/// with and without the concurrent full-history scanner, plus what the
/// scanner saw (scans completed, rows visited, snapshot staleness) and
/// what it cost (heap metadata blocking, which must be zero).
pub fn snapshot_table(points: &[SnapshotPoint]) -> String {
    let mut out = String::new();
    out.push_str("Snapshot-scan ablation — writer throughput vs a concurrent analytical scan\n");
    out.push_str(&format!(
        "{:<12}{:>9}{:>12}{:>12}{:>9}{:>8}{:>14}{:>12}{:>12}{:>14}\n",
        "version",
        "writers",
        "alone st/s",
        "scan st/s",
        "ratio",
        "scans",
        "rows read",
        "stale mean",
        "stale max",
        "rd heap µs"
    ));
    for p in points {
        if p.supported {
            out.push_str(&format!(
                "{:<12}{:>9}{:>12.0}{:>12.0}{:>9}{:>8}{:>14}{:>12.1}{:>12}{:>14}\n",
                p.version,
                p.writers,
                p.steps_per_sec_alone,
                p.steps_per_sec_scanned,
                format!("{:.2}x", p.throughput_ratio),
                commas(p.scans),
                commas(p.rows_read),
                p.mean_staleness,
                commas(p.max_staleness),
                commas(p.reader_heap_wait_nanos / 1_000),
            ));
        } else {
            out.push_str(&format!(
                "{:<12}{:>9}{:>12}{:>12}{:>9}{:>8}{:>14}{:>12}{:>12}{:>14}\n",
                p.version, p.writers, "—", "—", "—", "—", "—", "—", "—", "single-user"
            ));
        }
    }
    out.push_str(
        "\nstale mean/max: commits the pinned snapshot fell behind while one scan ran.\n\
         rd heap µs: scanner time blocked on heap metadata locks — 0 means the read\n\
         path is latch-free against the writers.\n",
    );
    out
}

/// The fixed storage schema of paper Table 1, rendered as text.
pub fn table1_storage_schema() -> String {
    "\
Table 1: the fixed storage-manager schema (user schema is data)

  class          fields
  -------------  -----------------------------------------------------
  sm_material    class, name, created, state, state_time,
                 history_head -> history node, recent -> recent record,
                 ext_next -> sm_material (class extent)
  sm_step        class, version, valid_time,
                 materials: [-> sm_material]  (the involves relation),
                 attrs: [(name, value)]
  material_set   name, members: [-> sm_material]

  access structures (Section 7):
  history node   step -> sm_step, valid_time, next -> history node
  recent record  [(attr, valid_time, step -> sm_step, value)]
"
    .to_string()
}

/// The networked closed-loop sweep (`abl-server`): round-trip
/// throughput and tail latency per client count, plus the admission
/// table from the deliberate-overload pass.
pub fn server_table(result: &ServerResult) -> String {
    let mut out = String::new();
    out.push_str(
        "Networked front end — closed-loop clients over loopback TCP (OStore engine)\n",
    );
    out.push_str(&format!(
        "{:<10}{:>10}{:>10}{:>9}{:>10}{:>10}{:>11}{:>10}\n",
        "clients", "txn/s", "req/s", "retries", "p50 µs", "p99 µs", "p99.9 µs", "max µs"
    ));
    for p in &result.points {
        out.push_str(&format!(
            "{:<10}{:>10.0}{:>10.0}{:>9}{:>10.0}{:>10.0}{:>11.0}{:>10.0}\n",
            p.clients,
            p.txns_per_sec,
            p.requests_per_sec,
            p.retries,
            p.p50_us,
            p.p99_us,
            p.p999_us,
            p.max_us
        ));
    }
    out.push_str(
        "\neach txn is one begin/step/state/commit round; latency is the full wire\n\
         round trip of admitted requests.\n",
    );

    let o = &result.overload;
    out.push_str(&format!(
        "\nAdmission — deliberate overload ({} B/s per-tenant quota, {:.2}s)\n",
        o.bytes_per_sec_quota, o.elapsed_sec
    ));
    out.push_str(&format!(
        "{:<8}{:<10}{:>10}{:>12}{:>14}{:>14}{:>11}{:>11}\n",
        "tenant", "role", "admitted", "shed bytes", "shed inflight", "shed sessions", "bytes in",
        "bytes out"
    ));
    for t in &o.tenants {
        out.push_str(&format!(
            "{:<8}{:<10}{:>10}{:>12}{:>14}{:>14}{:>11}{:>11}\n",
            t.tenant,
            t.role,
            commas(t.admitted),
            commas(t.shed_bytes),
            commas(t.shed_inflight),
            commas(t.shed_sessions),
            commas(t.bytes_in),
            commas(t.bytes_out)
        ));
    }
    out.push_str(&format!(
        "\nhammer: {} admitted / {} shed · paced: {} admitted / {} shed\n\
         admitted p50/p99/max: {:.0}/{:.0}/{:.0} µs — shed load never queues behind\n\
         admitted work. post-drain open sessions/snapshots: {}/{}.\n",
        commas(o.hammer_admitted),
        commas(o.hammer_shed),
        commas(o.paced_admitted),
        commas(o.paced_shed),
        o.admitted_p50_us,
        o.admitted_p99_us,
        o.admitted_max_us,
        o.open_sessions_after,
        o.open_snapshots_after
    ));
    out
}

/// The replication ablation (`abl-replication`): apply lag behind a
/// full-speed writer and commit latency once every commit waits for a
/// majority of followers.
pub fn replication_table(points: &[ReplicationPoint]) -> String {
    let mut out = String::new();
    out.push_str("WAL-shipping replication — in-process followers replaying the primary (OStore)\n");
    out.push_str(&format!(
        "{:<11}{:>7}{:>9}{:>12}{:>8}{:>11}{:>11}{:>11}{:>12}\n",
        "followers", "quorum", "txn/s", "shipped B", "chunks", "lag p50 µs", "lag p99 µs",
        "lag max µs", "catch-up ms"
    ));
    for p in points {
        out.push_str(&format!(
            "{:<11}{:>7}{:>9.0}{:>12}{:>8}{:>11.0}{:>11.0}{:>11.0}{:>12.1}\n",
            p.followers,
            p.ack_quorum,
            p.txns_per_sec,
            commas(p.shipped_bytes),
            p.chunks,
            p.lag_p50_us,
            p.lag_p99_us,
            p.lag_max_us,
            p.catchup_ms
        ));
    }
    out.push_str(
        "\nlag: time between a commit returning on the primary and a follower\n\
         durably applying the chunk that carries it (asynchronous pass).\n",
    );
    out.push_str(&format!(
        "\nCommit latency — primary-durable (quorum 0) vs majority-acked\n{:<11}{:>14}{:>14}{:>16}{:>16}{:>14}\n",
        "followers", "async p50 µs", "async p99 µs", "quorum p50 µs", "quorum p99 µs", "quorum max µs"
    ));
    for p in points {
        out.push_str(&format!(
            "{:<11}{:>14.0}{:>14.0}{:>16.0}{:>16.0}{:>14.0}\n",
            p.followers, p.commit_p50_us, p.commit_p99_us, p.quorum_p50_us, p.quorum_p99_us,
            p.quorum_max_us
        ));
    }
    out.push_str(
        "\neach quorum commit waits until a majority of followers have durably\n\
         applied it; every replica is checked state-by-state against the\n\
         primary at the end of the point.\n",
    );
    out
}

/// The two-level EER schema of paper Figure 1, rendered as text.
pub fn fig1_schema() -> String {
    "\
Figure 1: two-level EER schema

  generic level
      +----------+    involves     +----------+
      | material |<--------------->|   step   |
      +----------+     (m : n)     +----------+
        ^   ^  is-a                  ^   ^  is-a
        |   |                        |   |
  lab-specific level                 |   |
      +-------+ +--------+   +------------------+ +--------------------+
      | clone | | tclone |   | determine_       | | assemble_sequence, |
      +-------+ +--------+   |   sequence, ...  | | associate_tclone,..|
                             +------------------+ +--------------------+

  materials carry workflow states; steps carry versioned attribute sets;
  a material's attributes derive from the steps that processed it.
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ResourceRow;

    fn row(version: &str, interval: &str, elapsed: f64) -> ResourceRow {
        ResourceRow {
            version: version.into(),
            interval: interval.into(),
            elapsed_sec: elapsed,
            user_cpu_sec: elapsed * 0.9,
            sys_cpu_sec: 0.1,
            os_majflt: 0,
            sim_majflt: 1234,
            page_reads: 100,
            page_writes: 2000,
            size_bytes: if version.ends_with("-mm") {
                None
            } else {
                Some(16_629_760)
            },
            steps: 5000,
            queries: 10000,
            materials: 900,
            steps_per_sec: 5000.0 / elapsed,
            step_p50_us: 20.0,
            step_p99_us: 180.0,
            query_p99_us: 40.0,
        }
    }

    fn sample_results() -> Vec<BuildResult> {
        ["OStore", "Texas+TC", "Texas", "OStore-mm", "Texas-mm"]
            .iter()
            .map(|v| BuildResult {
                version: v.to_string(),
                rows: vec![row(v, "0.5X", 1.5), row(v, "1.0X", 2.5)],
            })
            .collect()
    }

    #[test]
    fn commas_formats() {
        assert_eq!(commas(0), "0");
        assert_eq!(commas(999), "999");
        assert_eq!(commas(1000), "1,000");
        assert_eq!(commas(16_629_760), "16,629,760");
    }

    #[test]
    fn build_table_shape() {
        let table = build_table(&sample_results());
        assert!(table.contains("OStore"));
        assert!(table.contains("Texas+TC"));
        assert!(table.contains("0.5X"));
        assert!(table.contains("elapsed sec"));
        assert!(table.contains("16,629,760"));
        assert!(table.contains("—"), "mm versions print an em dash for size");
    }

    #[test]
    fn throughput_figure_has_bars() {
        let fig = throughput_figure(&sample_results());
        assert!(fig.contains("#"));
        assert!(fig.contains("1.0X"));
    }

    #[test]
    fn query_table_shape() {
        let timings = vec![
            QueryTiming {
                version: "OStore".into(),
                query: "recent lookup".into(),
                count: 500,
                total_ms: 5.0,
                mean_us: 10.0,
                sim_faults: 42,
                answers: 480,
            },
            QueryTiming {
                version: "Texas".into(),
                query: "recent lookup".into(),
                count: 500,
                total_ms: 9.0,
                mean_us: 18.0,
                sim_faults: 900,
                answers: 480,
            },
        ];
        let t = query_table(&timings);
        assert!(t.contains("recent lookup"));
        assert!(t.contains("18.0"));
        assert!(t.contains("900"));
    }

    #[test]
    fn multiclient_table_shape() {
        let point = |version: &str, clients: usize, supported: bool, sps: f64| MultiClientPoint {
            version: version.into(),
            clients,
            supported,
            elapsed_sec: 1.0,
            steps: if supported { 4000 } else { 0 },
            steps_per_sec: if supported { sps } else { 0.0 },
            commits: if supported { 1001 } else { 0 },
            retries: 0,
            wal_syncs: if supported { 400 } else { 0 },
            heap_waits: if supported { 17 } else { 0 },
            heap_wait_us: if supported { 230 } else { 0 },
            per_client: Vec::new(),
        };
        let mut points = vec![
            point("OStore", 1, true, 1000.0),
            point("OStore", 4, true, 2500.0),
            point("Texas", 1, true, 1200.0),
            point("Texas", 4, false, 0.0),
        ];
        points[1].per_client = vec![crate::metrics::ClientRow {
            client: 0,
            steps: 1000,
            commits: 250,
            retries: 3,
            lock_wait_ms: 12.25,
            commit_wait_ms: 4.5,
            commit_force_ms: 2.25,
            heap_wait_ms: 1.75,
            lock_condvar_waits: 4321,
            name_index_wait_ms: 6.5,
        }];
        let t = multiclient_table(&points);
        assert!(t.contains("2.50x"), "speedup row renders: {t}");
        assert!(t.contains("—"), "single-user cells print an em dash");
        assert!(t.contains("1,001"));
        assert!(t.contains("Wait attribution"), "wait section renders: {t}");
        assert!(
            t.contains("12.2") || t.contains("12.3"),
            "lock wait ms renders: {t}"
        );
        assert!(t.contains("heap wait"), "heap wait column renders: {t}");
        assert!(
            t.contains("1.8") || t.contains("1.7"),
            "heap wait ms renders: {t}"
        );
        assert!(t.contains("force"), "force column renders: {t}");
        assert!(
            t.contains("2.2") || t.contains("2.3"),
            "force ms renders: {t}"
        );
        assert!(t.contains("cv waits"), "condvar wait column renders: {t}");
        assert!(t.contains("4,321"), "condvar wait count renders: {t}");
        assert!(t.contains("name idx"), "name index column renders: {t}");
        assert!(t.contains("6.5"), "name index ms renders: {t}");
        assert!(
            t.contains("Heap contention"),
            "heap contention section renders: {t}"
        );
        assert!(t.contains("230"), "blocked µs renders: {t}");
    }

    #[test]
    fn snapshot_table_shape() {
        let points = vec![
            SnapshotPoint {
                version: "OStore".into(),
                writers: 4,
                supported: true,
                steps_per_sec_alone: 10000.0,
                steps_per_sec_scanned: 9500.0,
                throughput_ratio: 0.95,
                scans: 12,
                rows_read: 48000,
                mean_staleness: 33.5,
                max_staleness: 71,
                reader_heap_wait_nanos: 0,
            },
            SnapshotPoint {
                version: "Texas".into(),
                writers: 4,
                supported: false,
                steps_per_sec_alone: 0.0,
                steps_per_sec_scanned: 0.0,
                throughput_ratio: 0.0,
                scans: 0,
                rows_read: 0,
                mean_staleness: 0.0,
                max_staleness: 0,
                reader_heap_wait_nanos: 0,
            },
        ];
        let t = snapshot_table(&points);
        assert!(t.contains("0.95x"), "ratio renders: {t}");
        assert!(t.contains("48,000"), "rows read renders: {t}");
        assert!(t.contains("33.5"), "mean staleness renders: {t}");
        assert!(t.contains("single-user"), "unsupported row renders: {t}");
        assert!(t.contains("latch-free"), "legend renders: {t}");
    }

    #[test]
    fn static_artifacts_render() {
        assert!(table1_storage_schema().contains("sm_step"));
        assert!(table1_storage_schema().contains("material_set"));
        assert!(fig1_schema().contains("involves"));
    }

    #[test]
    fn evolution_and_clustering_tables() {
        let evo = evolution_table(&[EvolutionResult {
            version: "OStore".into(),
            redefine_mean_us: 12.5,
            record_step_mean_us: 40.0,
            max_versions: 7,
            old_version_steps_ok: 10,
            size_before: Some(1000),
            size_after: Some(1100),
        }]);
        assert!(evo.contains("OStore"));
        assert!(evo.contains("12.5"));

        let cl = clustering_table(&[ClusteringPoint {
            version: "Texas".into(),
            pool_pages: 128,
            lookups: 1000,
            sim_faults: 500,
            faults_per_k: 500.0,
            elapsed_ms: 3.0,
        }]);
        assert!(cl.contains("Texas"));
        assert!(cl.contains("500.0"));
    }
}
