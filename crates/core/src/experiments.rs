//! The experiment registry: one entry per table and figure of the paper
//! (plus the ablations), as indexed in DESIGN.md and EXPERIMENTS.md.
//!
//! Each experiment renders a human-readable artifact (the table/figure
//! text) and a machine-readable JSON blob for EXPERIMENTS.md bookkeeping.
//! [`EXPERIMENTS`] is the only list: [`ALL_IDS`], [`run`] and the
//! harness's `--help` are all read off it.

use std::path::Path;

use serde::Serialize;
use serde_json::{json, Value};

use crate::config::{BenchConfig, ServerVersion};
use crate::error::{BenchError, Result};
use crate::exp::{
    build, clustering, concurrency, crash, evolution, queries, replication, server, writers,
};
use crate::report;

/// A rendered experiment.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id (DESIGN.md index).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The rendered table/figure.
    pub text: String,
    /// Machine-readable results.
    pub json: Value,
}

/// One registry entry.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Experiment id (DESIGN.md index).
    pub id: &'static str,
    /// Human title, printed above the artifact.
    pub title: &'static str,
    /// One-line description for the harness's `--help`.
    pub help: &'static str,
    /// Run it: the rendered text and the JSON results. The path is the
    /// scratch directory for store files.
    pub run: fn(&BenchConfig, &Path) -> Result<(String, Value)>,
}

/// The Section-10 build: every version, at the paper's four intervals.
fn build_all(cfg: &BenchConfig, dir: &Path) -> Result<Vec<build::BuildResult>> {
    build::run_all(&ServerVersion::ALL, cfg, &[0.5, 1.0, 1.5, 2.0], dir)
}

/// Render `data` with `render`, and keep it as JSON beside the text.
fn shown<D: Serialize>(data: Result<D>, render: fn(&D) -> String) -> Result<(String, Value)> {
    let data = data?;
    let json = serde_json::to_value(&data).map_err(|e| BenchError::Config(e.to_string()))?;
    Ok((render(&data), json))
}

/// Every experiment, in DESIGN.md order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "fig1-schema",
        title: "Figure 1: two-level EER schema",
        help: "Figure 1: two-level EER schema (structural)",
        run: |_, _| Ok((report::fig1_schema(), json!({"structural": true}))),
    },
    Experiment {
        id: "tab1-storage-schema",
        title: "Table 1: fixed storage schema",
        help: "Table 1: fixed storage schema (structural)",
        run: |_, _| Ok((report::table1_storage_schema(), json!({"structural": true}))),
    },
    Experiment {
        id: "figB-workflow-graph",
        title: "Appendix B: the genome-mapping workflow graph",
        help: "Appendix B: the genome workflow graph",
        run: |_, _| {
            let graph = labflow_workflow::genome::genome_workflow();
            let problems = graph.validate();
            if !problems.is_empty() {
                return Err(BenchError::Config(format!("graph invalid: {problems:?}")));
            }
            let json = json!({
                "classes": graph.classes.len(),
                "states": graph.states.len(),
                "steps": graph.steps.len(),
            });
            Ok((graph.render(), json))
        },
    },
    Experiment {
        id: "tab-build",
        title: "Section 10: database build, all intervals × all server versions",
        help: "Section 10: build cost per version & interval",
        run: |cfg, dir| shown(build_all(cfg, dir), |r| build::table(r)),
    },
    Experiment {
        id: "fig-throughput",
        title: "Throughput vs database size (the locality crossover)",
        help: "throughput vs database size",
        run: |cfg, dir| shown(build_all(cfg, dir), |r| build::figure(r)),
    },
    Experiment {
        id: "tab-query-mix",
        title: "Section 8 query families, timed per server version",
        help: "Section 8 query families per version",
        run: |cfg, dir| {
            let all = ServerVersion::ALL.iter().map(|&v| queries::run(v, cfg, dir));
            shown(all.collect::<Result<Vec<_>>>().map(|v| v.concat()), |t| queries::table(t))
        },
    },
    Experiment {
        id: "tab-evolution",
        title: "Section 8.1: schema evolution mid-stream",
        help: "schema evolution mid-stream",
        run: |cfg, dir| {
            let all = ServerVersion::ALL.iter().map(|&v| evolution::run(v, cfg, dir, 50));
            shown(all.collect::<Result<Vec<_>>>(), |r| evolution::table(r))
        },
    },
    Experiment {
        id: "abl-clustering",
        title: "Ablation: clustering control vs cache size",
        help: "clustering control vs cache size (ablation)",
        run: |cfg, dir| {
            // Pool sweep: ~6%, 12%, 25%, 50%, 100% of the default pool.
            let pools = [16, 8, 4, 2, 1].map(|d| (cfg.buffer_pages / d).max(8));
            shown(clustering::run(cfg, &pools, 400, dir), |p| clustering::table(p))
        },
    },
    Experiment {
        id: "abl-concurrency",
        title: "Ablation: concurrent readers during the build",
        help: "reader threads during the build (ablation)",
        run: |cfg, dir| shown(concurrency::run(cfg, &[0, 2, 4], dir), |p| concurrency::table(p)),
    },
    Experiment {
        id: "abl-recovery",
        title: "Ablation: crash recovery per durability design",
        help: "crash recovery per durability design (ablation)",
        run: |cfg, dir| shown(crash::run_recovery(cfg, dir), |p| crash::recovery_table(p)),
    },
    Experiment {
        id: "abl-multiclient",
        title: "Ablation: multi-writer clients with WAL group commit",
        help: "writer clients vs throughput, group commit (ablation)",
        run: |cfg, dir| {
            let points = writers::run_multiclient(cfg, &[1, 2, 4, 8], dir);
            shown(points, |p| writers::multiclient_table(p))
        },
    },
    Experiment {
        id: "abl-scrub",
        title: "Ablation: offline scrub of a recovered store image",
        help: "offline scrub of a recovered store image (ablation)",
        run: |cfg, dir| {
            let points = crash::run_scrub(cfg, dir)?;
            if let Some(bad) = points.iter().find(|p| !p.clean) {
                return Err(BenchError::Config(format!(
                    "scrub found unquarantined damage in the recovered {} image",
                    bad.version
                )));
            }
            shown(Ok(points), |p| crash::scrub_table(p))
        },
    },
    Experiment {
        id: "abl-snapshot",
        title: "Ablation: snapshot scans vs writer throughput (MVCC read path)",
        help: "snapshot scans vs writer throughput (ablation)",
        run: |cfg, dir| shown(writers::run_snapshot(cfg, 4, dir), |p| writers::snapshot_table(p)),
    },
    Experiment {
        id: "abl-server",
        title: "Ablation: networked front end — closed-loop tails and admission control",
        help: "networked front end: closed-loop tails + admission (ablation)",
        run: |cfg, dir| shown(server::run(cfg, &[1, 4, 16, 64], dir), server::table),
    },
    Experiment {
        id: "abl-replication",
        title: "Ablation: WAL-shipping replication — apply lag and ack-quorum commits",
        help: "WAL shipping: apply lag + ack-quorum commits (ablation)",
        run: |cfg, dir| shown(replication::run(cfg, &[1, 2, 4], dir), |p| replication::table(p)),
    },
];

/// All experiment ids, in registry order.
pub const ALL_IDS: [&str; EXPERIMENTS.len()] = {
    let mut ids = [""; EXPERIMENTS.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = EXPERIMENTS[i].id;
        i += 1;
    }
    ids
};

/// Run one experiment by id. `work_dir` receives the store directories.
pub fn run(id: &str, cfg: &BenchConfig, work_dir: &Path) -> Result<ExperimentReport> {
    let e = EXPERIMENTS.iter().find(|e| e.id == id).ok_or_else(|| {
        BenchError::Config(format!("unknown experiment '{id}'; known: {}", ALL_IDS.join(", ")))
    })?;
    let (text, json) = (e.run)(cfg, work_dir)?;
    Ok(ExperimentReport { id: e.id, title: e.title, text, json })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_experiments_run_instantly() {
        let cfg = BenchConfig::smoke();
        let dir = std::env::temp_dir();
        for id in ["fig1-schema", "tab1-storage-schema", "figB-workflow-graph"] {
            let r = run(id, &cfg, &dir).unwrap();
            assert_eq!(r.id, id);
            assert!(!r.text.is_empty());
        }
    }

    #[test]
    fn unknown_id_is_an_error() {
        let cfg = BenchConfig::smoke();
        assert!(run("tab-nope", &cfg, &std::env::temp_dir()).is_err());
    }

    #[test]
    fn ids_list_is_consistent() {
        assert_eq!(ALL_IDS.len(), 15);
        for (i, id) in ALL_IDS.iter().enumerate() {
            assert!(!ALL_IDS[..i].contains(id), "{id} registered twice");
        }
        let cfg = BenchConfig::smoke();
        // Every listed id is at least recognized (structural ones run;
        // the heavy ones are exercised by integration tests / harness).
        for id in ALL_IDS {
            if id.starts_with("fig1") || id.starts_with("tab1") || id.starts_with("figB") {
                assert!(run(id, &cfg, &std::env::temp_dir()).is_ok());
            }
        }
    }
}
