//! The paper's number style and the one column-spec [`Table`] every
//! table renderer in [`crate::exp`] prints through, plus the two static
//! artifacts. The Section-10 build table, for one, keeps the exact
//! layout the capture preserves:
//!
//! ```text
//! Database   Server Version
//! Intvl  Resource       OStore  Texas+TC  Texas  Ostore-mm  Texas-mm
//! 0.5X   elapsed sec     1,424     1,469  1,402      1,384     1,407
//! ...
//! ```

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

/// The distinct values of `items`, in first-seen order: a table's
/// versions, intervals or client counts, read off its points.
pub fn distinct<T: PartialEq>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut out = Vec::new();
    for item in items {
        if !out.contains(&item) {
            out.push(item);
        }
    }
    out
}

/// Renders one table cell from a point.
pub type Cell<T> = fn(&T) -> String;

/// `x` with `places` decimals: a table cell.
pub fn fixed(x: f64, places: usize) -> String {
    format!("{x:.places$}")
}

/// The spec of a table whose `first` column is followed by one
/// right-aligned, 12-wide column per version (see [`Table::head`]).
pub fn by_version<'a>(first: &str, versions: impl IntoIterator<Item = &'a str>) -> String {
    versions.into_iter().fold(first.to_string(), |spec, v| format!("{spec}|>12 {v}"))
}

/// A plain-text table built block by block: [`Table::head`] prints a
/// title and the header row of a column spec, and every [`Table::row`]
/// after it pads its cells to the same spec, so each width is written
/// once.
#[derive(Debug, Default)]
pub struct Table {
    /// Width and left-alignment of each column of the current block.
    cols: Vec<(usize, bool)>,
    out: String,
}

impl Table {
    /// Print `title` (which may span lines), then the header row of
    /// `spec`: one `|`-separated entry per column — alignment (`<` left,
    /// `>` right), width, a space, the column's title — as in
    /// `"<12 version|>9 pages"`.
    pub fn head(&mut self, title: &str, spec: &str) -> &mut Self {
        self.line(title);
        let (cols, names): (Vec<_>, Vec<_>) = spec
            .split('|')
            .map(|col| {
                let (format, name) = col.split_once(' ').unwrap_or((col, ""));
                let width = format.trim_start_matches(['<', '>']).parse().unwrap_or(0);
                ((width, format.starts_with('<')), name)
            })
            .unzip();
        self.cols = cols;
        self.row(names)
    }

    /// One row, cell `i` padded to column `i` of the current spec.
    pub fn row<S: AsRef<str>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        for (cell, &(w, left)) in cells.into_iter().zip(&self.cols) {
            let cell = cell.as_ref();
            self.out.push_str(&if left { format!("{cell:<w$}") } else { format!("{cell:>w$}") });
        }
        self.line("")
    }

    /// A free-text line (a blank one for `""`).
    pub fn line(&mut self, text: &str) -> &mut Self {
        self.out.push_str(text);
        self.out.push('\n');
        self
    }

    /// The text so far.
    pub fn finish(&mut self) -> String {
        std::mem::take(&mut self.out)
    }
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

/// Golden render tests: fixed synthetic points per table, compared byte
/// for byte with `tests/golden/<id>.txt` as captured from the renderers
/// before the `Table` helper replaced them. The fixtures cover the
/// single-user "—" rows, a missing "-" cell, a version with and one
/// without its 1-client baseline, and the per-client wait block.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::build::{self, BuildResult};
    use crate::exp::clustering::{self, ClusteringPoint};
    use crate::exp::concurrency::{self, ConcurrencyPoint};
    use crate::exp::crash::{self, RecoveryPoint, ScrubPoint};
    use crate::exp::evolution::{self, EvolutionResult};
    use crate::exp::queries::{self, QueryTiming};
    use crate::exp::replication::{self, ReplicationPoint};
    use crate::exp::server::{self, AdmissionTenantRow, ServerOverload, ServerPoint, ServerResult};
    use crate::exp::writers::{self, MultiClientPoint, SnapshotPoint};
    use crate::metrics::{ClientRow, ResourceRow};

    fn golden(id: &str, text: &str) {
        let path = format!("{}/tests/golden/{id}.txt", env!("CARGO_MANIFEST_DIR"));
        let want = std::fs::read_to_string(&path).unwrap();
        assert!(text == want, "{id} renders differently from {path}:\n{text}");
    }

    fn row(version: &str, interval: &str, elapsed: f64) -> ResourceRow {
        ResourceRow {
            version: version.into(),
            interval: interval.into(),
            elapsed_sec: elapsed,
            user_cpu_sec: elapsed * 0.9,
            sys_cpu_sec: 0.1,
            sim_majflt: 1234,
            page_reads: 100,
            page_writes: 2000,
            size_bytes: (!version.ends_with("-mm")).then_some(16_629_760),
            steps: 5000,
            steps_per_sec: 5000.0 / elapsed,
            step_p99_us: 180.0,
            query_p99_us: 40.0,
            ..Default::default()
        }
    }

    /// Every version at 0.5X and 1.0X, except Texas, whose missing 1.0X
    /// row renders as "-".
    fn sample_results() -> Vec<BuildResult> {
        let rows = |v: &str| match v {
            "Texas" => vec![row(v, "0.5X", 1.5)],
            _ => vec![row(v, "0.5X", 1.5), row(v, "1.0X", 2.5)],
        };
        ["OStore", "Texas+TC", "Texas", "OStore-mm", "Texas-mm"]
            .map(|v| BuildResult { version: v.into(), rows: rows(v) })
            .to_vec()
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
        golden("tab-build", &build::table(&sample_results()));
    }

    #[test]
    fn throughput_figure_has_bars() {
        golden("fig-throughput", &build::figure(&sample_results()));
    }

    #[test]
    fn query_table_shape() {
        let t = |version: &str, query: &str, mean_us: f64, sim_faults: u64| QueryTiming {
            version: version.into(),
            query: query.into(),
            count: 500,
            mean_us,
            sim_faults,
            ..Default::default()
        };
        let timings = [
            t("OStore", "recent lookup", 10.0, 42),
            t("Texas", "recent lookup", 18.0, 900),
            t("OStore", "LQL view mix", 1234.5, 1_000_000),
        ];
        golden("tab-query-mix", &queries::table(&timings));
    }

    #[test]
    fn multiclient_table_shape() {
        let point = |version: &str, clients: usize, supported: bool, sps: f64| {
            let on = |n: u64| if supported { n } else { 0 };
            MultiClientPoint {
                version: version.into(),
                clients,
                supported,
                steps: on(4000),
                steps_per_sec: if supported { sps } else { 0.0 },
                commits: on(1001),
                wal_syncs: on(400),
                heap_waits: on(17),
                heap_wait_us: on(230),
                ..Default::default()
            }
        };
        let client = |client: u64, lock_wait_ms: f64| ClientRow {
            client,
            steps: 1000,
            commits: 250,
            retries: 3,
            lock_wait_ms,
            commit_wait_ms: 4.5,
            commit_force_ms: 2.25,
            heap_wait_ms: 1.75,
            lock_condvar_waits: 4321,
            name_index_wait_ms: 6.5,
        };
        // OStore-mm has no 1-client point: "-" there, "—" speedup at 4.
        let mut points = vec![
            point("OStore", 1, true, 1000.0),
            point("OStore", 4, true, 2500.0),
            point("Texas", 1, true, 1200.0),
            point("Texas", 4, false, 0.0),
            point("OStore-mm", 4, true, 9000.0),
        ];
        points[0].per_client = vec![client(0, 0.0)];
        points[1].per_client = vec![client(0, 12.25), client(1, 3.0)];
        golden("abl-multiclient", &writers::multiclient_table(&points));
    }

    #[test]
    fn snapshot_table_shape() {
        let points = [
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
            SnapshotPoint { version: "Texas".into(), writers: 4, ..Default::default() },
        ];
        golden("abl-snapshot", &writers::snapshot_table(&points));
    }

    #[test]
    fn static_artifacts_render() {
        assert!(table1_storage_schema().contains("sm_step"));
        assert!(table1_storage_schema().contains("material_set"));
        assert!(fig1_schema().contains("involves"));
    }

    #[test]
    fn evolution_and_clustering_tables() {
        let evo = |version: &str, size: Option<u64>| EvolutionResult {
            version: version.into(),
            redefine_mean_us: 12.5,
            record_step_mean_us: 40.0,
            max_versions: 7,
            old_version_steps_ok: 10,
            size_before: size,
            size_after: size.map(|s| s + 100),
        };
        let evolutions = [evo("OStore", Some(1000)), evo("OStore-mm", None)];
        golden("tab-evolution", &evolution::table(&evolutions));
        // Texas has no 16-page point: "-"; pools print sorted.
        let cl = |version: &str, pool_pages: usize, faults_per_k: f64| ClusteringPoint {
            version: version.into(),
            pool_pages,
            faults_per_k,
            ..Default::default()
        };
        let points = [cl("Texas", 128, 500.0), cl("OStore", 128, 12.25), cl("OStore", 16, 1500.0)];
        golden("abl-clustering", &clustering::table(&points));
    }

    #[test]
    fn concurrency_recovery_and_scrub_tables() {
        let conc = |version: &str, readers: usize, supported: bool| ConcurrencyPoint {
            version: version.into(),
            readers,
            supported,
            build_steps_per_sec: if supported { 4321.4 } else { 0.0 },
            reader_ops_per_sec: if supported { 98765.6 } else { 0.0 },
        };
        let points = [conc("OStore", 0, true), conc("OStore", 2, true), conc("Texas", 2, false)];
        golden("abl-concurrency", &concurrency::table(&points));
        let rec = |version: &str, lost: u64, wal: u64| RecoveryPoint {
            version: version.into(),
            materials_at_crash: 1500,
            materials_recovered: 1500 - lost,
            materials_lost: lost,
            wal_bytes_at_crash: wal,
            reopen_ms: 12.34,
        };
        let points = [rec("OStore", 0, 2_345_678), rec("Texas", 500, 0)];
        golden("abl-recovery", &crash::recovery_table(&points));
        let scrub = |version: &str, clean: bool| ScrubPoint {
            version: version.into(),
            pages: 4096,
            pages_verified: 4000,
            quarantined: if clean { 0 } else { 3 },
            wal_frames: 12345,
            image_bytes: 17_000_000,
            scrub_ms: 8.25,
            clean,
        };
        golden("abl-scrub", &crash::scrub_table(&[scrub("OStore", true), scrub("Texas", false)]));
    }

    #[test]
    fn server_and_replication_tables() {
        let point = |clients: usize| ServerPoint {
            clients,
            txns_per_sec: 1234.5 * clients as f64,
            requests_per_sec: 4938.0 * clients as f64,
            retries: clients as u64 * 3,
            p50_us: 150.0,
            p99_us: 900.4,
            p999_us: 2500.6,
            max_us: 12000.0,
            ..Default::default()
        };
        let tenant = |tenant: u32, role: &str, shed_bytes: u64| AdmissionTenantRow {
            tenant,
            role: role.into(),
            admitted: 1500,
            shed_bytes,
            bytes_in: 123_456,
            bytes_out: 65_432,
            ..Default::default()
        };
        let overload = ServerOverload {
            bytes_per_sec_quota: 4096,
            elapsed_sec: 0.7012,
            hammer_admitted: 1500,
            hammer_shed: 25_000,
            paced_admitted: 14,
            admitted_p50_us: 95.0,
            admitted_p99_us: 410.0,
            admitted_max_us: 2300.0,
            shed_total: 25_000,
            tenants: vec![
                tenant(1, "hammer", 25_000),
                tenant(2, "paced", 0),
                tenant(3, "dangling", 0),
            ],
            ..Default::default()
        };
        let result = ServerResult { points: vec![point(1), point(16)], overload };
        golden("abl-server", &server::table(&result));
        let repl = |followers: usize| ReplicationPoint {
            followers,
            ack_quorum: followers / 2 + 1,
            txns_per_sec: 3456.7,
            shipped_bytes: 1_234_567,
            chunks: 321,
            commit_p50_us: 40.0,
            commit_p99_us: 120.0,
            lag_p50_us: 250.0,
            lag_p99_us: 900.0,
            lag_max_us: 1500.0,
            catchup_ms: 2.5,
            quorum_p50_us: 300.0,
            quorum_p99_us: 800.0,
            quorum_max_us: 1100.0,
            ..Default::default()
        };
        golden("abl-replication", &replication::table(&[repl(1), repl(4)]));
    }
}
