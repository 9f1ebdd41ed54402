//! Resource metering: the paper's `elapsed sec`, `user cpu sec`,
//! `sys cpu sec`, `majflt`, and `size (bytes)` rows.
//!
//! CPU times and OS major faults come from `/proc/self/stat`; the
//! simulated fault count (buffer-pool misses that touched the backing
//! file) comes from the storage manager's own counters — the same event
//! the paper's memory-starved machines observed as OS `majflt`
//! (DESIGN.md, substitution table).

use std::time::Instant;

use labflow_storage::StatsSnapshot;
use serde::Serialize;

use crate::error::Result;

/// CPU/fault numbers from `/proc/self/stat` (whole process).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ProcStat {
    /// User CPU seconds.
    pub user_sec: f64,
    /// System CPU seconds.
    pub sys_sec: f64,
    /// OS major page faults.
    pub majflt: u64,
}

impl ProcStat {
    /// Read the current process counters. Returns zeros on platforms
    /// without procfs.
    pub fn read() -> ProcStat {
        match std::fs::read_to_string("/proc/self/stat") {
            Ok(line) => Self::parse(&line).unwrap_or_default(),
            Err(_) => ProcStat::default(),
        }
    }

    /// Parse a `/proc/<pid>/stat` line. Fields (1-based): 12 = majflt,
    /// 14 = utime, 15 = stime, in clock ticks.
    fn parse(line: &str) -> Option<ProcStat> {
        // comm (field 2) may contain spaces; skip past the closing paren.
        let rest = &line[line.rfind(')')? + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // rest starts at field 3, so field N lives at index N - 3.
        let majflt: u64 = fields.get(12 - 3)?.parse().ok()?;
        let utime: f64 = fields.get(14 - 3)?.parse::<u64>().ok()? as f64;
        let stime: f64 = fields.get(15 - 3)?.parse::<u64>().ok()? as f64;
        let hz = 100.0; // USER_HZ is 100 on every Linux we target
        Some(ProcStat { user_sec: utime / hz, sys_sec: stime / hz, majflt })
    }

    /// `self - earlier`, counter-wise.
    pub fn delta(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            user_sec: (self.user_sec - earlier.user_sec).max(0.0),
            sys_sec: (self.sys_sec - earlier.sys_sec).max(0.0),
            majflt: self.majflt.saturating_sub(earlier.majflt),
        }
    }
}

/// One row of the Section-10 results: the resources one server version
/// consumed over one workload interval.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ResourceRow {
    /// Server-version name ("OStore", …).
    pub version: String,
    /// Interval label ("0.5X", …).
    pub interval: String,
    /// Wall-clock seconds.
    pub elapsed_sec: f64,
    /// User CPU seconds.
    pub user_cpu_sec: f64,
    /// System CPU seconds.
    pub sys_cpu_sec: f64,
    /// OS major faults (near zero on modern machines; kept for fidelity).
    pub os_majflt: u64,
    /// Simulated major faults: buffer-pool misses that touched the file.
    pub sim_majflt: u64,
    /// Pages physically read / written.
    pub page_reads: u64,
    /// Pages physically written.
    pub page_writes: u64,
    /// Database size in bytes (`None` for `-mm` versions: "—").
    pub size_bytes: Option<u64>,
    /// Workflow steps recorded in the interval.
    pub steps: u64,
    /// Interleaved queries answered in the interval.
    pub queries: u64,
    /// Materials live at interval end.
    pub materials: u64,
    /// Steps per wall-clock second over the interval.
    pub steps_per_sec: f64,
    /// Median step-insertion latency over the interval, µs.
    pub step_p50_us: f64,
    /// 99th-percentile step-insertion latency, µs.
    pub step_p99_us: f64,
    /// 99th-percentile tracking-query latency, µs.
    pub query_p99_us: f64,
}

/// One client's share of a multi-client run (`abl-multiclient`).
#[derive(Debug, Clone, Default, Serialize)]
pub struct ClientRow {
    /// Client index (0-based).
    pub client: u64,
    /// Workflow steps this client recorded.
    pub steps: u64,
    /// Transactions this client committed.
    pub commits: u64,
    /// Transactions this client aborted and retried (lock conflicts).
    pub retries: u64,
    /// Milliseconds this client's thread spent blocked on object locks.
    pub lock_wait_ms: f64,
    /// Milliseconds spent parked in WAL group commit waiting for the
    /// log-writer thread to cover this client's ticket (pure queue
    /// wait; the physical force runs on the log-writer).
    pub commit_wait_ms: f64,
    /// Milliseconds this client's own thread spent *performing* a
    /// physical log force — nonzero only when a buffer-pool steal
    /// guard forced the log mid-transaction.
    pub commit_force_ms: f64,
    /// Milliseconds this client's thread spent blocked on heap metadata
    /// locks (object-table shards, segment placement state).
    pub heap_wait_ms: f64,
    /// Times this client's thread actually parked on a lock-manager
    /// shard condvar. Paired with `lock_wait_ms` it separates many
    /// short sleeps from few long ones.
    pub lock_condvar_waits: u64,
    /// Milliseconds this client spent waiting on (or rebuilding) the
    /// labbase material name index in `find_material`.
    pub name_index_wait_ms: f64,
}

/// Meter capturing a measurement interval.
pub struct Meter {
    start: Instant,
    proc0: ProcStat,
    stats0: StatsSnapshot,
}

impl Meter {
    /// Start measuring.
    pub fn start(stats: StatsSnapshot) -> Meter {
        Meter { start: Instant::now(), proc0: ProcStat::read(), stats0: stats }
    }

    /// Finish the interval and produce a row.
    #[allow(clippy::too_many_arguments)]
    pub fn finish(
        self,
        version: &str,
        interval: &str,
        stats: StatsSnapshot,
        size_bytes: Option<u64>,
        steps: u64,
        queries: u64,
        materials: u64,
    ) -> Result<ResourceRow> {
        let elapsed = self.start.elapsed().as_secs_f64();
        let proc = ProcStat::read().delta(&self.proc0);
        let d = stats.delta(&self.stats0);
        Ok(ResourceRow {
            version: version.to_string(),
            interval: interval.to_string(),
            elapsed_sec: elapsed,
            user_cpu_sec: proc.user_sec,
            sys_cpu_sec: proc.sys_sec,
            os_majflt: proc.majflt,
            sim_majflt: d.faults,
            page_reads: d.page_reads,
            page_writes: d.page_writes,
            size_bytes,
            steps,
            queries,
            materials,
            steps_per_sec: crate::runner::per_sec(steps, elapsed),
            step_p50_us: 0.0,
            step_p99_us: 0.0,
            query_p99_us: 0.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_proc_stat_line() {
        // A real-ish stat line with a parenthesized comm with spaces.
        let line = "1234 (my prog) S 1 1 1 0 -1 4194560 500 0 77 0 250 40 0 0 20 0 1 0 100 \
                    1000000 200 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 3 0 0 0 0 0";
        let p = ProcStat::parse(line).unwrap();
        assert_eq!(p.majflt, 77);
        assert!((p.user_sec - 2.5).abs() < 1e-9);
        assert!((p.sys_sec - 0.4).abs() < 1e-9);
    }

    #[test]
    fn read_does_not_panic_and_is_monotone() {
        let a = ProcStat::read();
        // Burn a little CPU.
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        let b = ProcStat::read();
        let d = b.delta(&a);
        assert!(d.user_sec >= 0.0 && d.sys_sec >= 0.0);
    }

    #[test]
    fn meter_produces_row() {
        let stats = StatsSnapshot::default();
        let m = Meter::start(stats);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let after = StatsSnapshot { faults: 10, page_reads: 8, ..Default::default() };
        let row = m.finish("OStore", "0.5X", after, Some(1024), 100, 50, 20).unwrap();
        assert_eq!(row.step_p99_us, 0.0, "latencies filled in by the runner");
        assert_eq!(row.version, "OStore");
        assert!(row.elapsed_sec > 0.0);
        assert_eq!(row.sim_majflt, 10);
        assert_eq!(row.page_reads, 8);
        assert!(row.steps_per_sec > 0.0);
        assert_eq!(row.size_bytes, Some(1024));
    }

    #[test]
    fn bad_stat_lines_are_rejected() {
        assert!(ProcStat::parse("garbage").is_none());
        assert!(ProcStat::parse("1 (x) R 1").is_none());
    }
}
