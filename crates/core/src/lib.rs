//! # labflow-core
//!
//! The LabFlow-1 benchmark (Bonner, Shrufi & Rozen, EDBT 1996): workload
//! generation, resource metering, experiment runners, and paper-style
//! table/figure renderers.
//!
//! LabFlow-1 "concisely captures the DBMS requirements of
//! high-throughput workflow management systems": a history-driven stream
//! of workflow-step insertions (the audit trail), interleaved tracking
//! queries, continual schema evolution, and report/counting queries —
//! all run against five storage-manager configurations so that only the
//! storage architecture varies.
//!
//! The crate sits on top of:
//! * [`labflow_storage`] — the ObjectStore-like / Texas-like storage
//!   managers (and their `-mm` variants);
//! * [`labbase`] — the LabBase workflow DBMS (event histories,
//!   most-recent views, schema evolution, material sets);
//! * [`labflow_workflow`] — the Appendix-B genome workflow graph and its
//!   execution engine;
//! * [`lql`] — the deductive query language.
//!
//! The crate's `labflow-harness` binary runs the paper-shaped
//! experiments (all intervals, all versions) and writes their tables
//! (see DESIGN.md's experiment index). End-to-end timing with a
//! per-layer breakdown is `labflow1`'s job (`benchmark/`).
//!
//! ## Quick start
//!
//! ```
//! use labflow_core::{exp::build, BenchConfig, ServerVersion};
//!
//! let cfg = BenchConfig::smoke();
//! let dir = std::env::temp_dir().join(format!("lf-doc-{}", std::process::id()));
//! let result = build::run(ServerVersion::OStoreMm, &cfg, &[0.5], &dir).unwrap();
//! assert!(result.rows[0].steps > 0);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]

mod config;
pub mod datagen;
mod error;
pub mod exp;
pub mod experiments;
pub mod hist;
pub mod metrics;
pub mod queries;
pub mod report;
pub mod runner;
mod workload;

pub use config::{BenchConfig, ServerVersion};
pub use error::{BenchError, Result};
pub use workload::{LabSim, SimCounters};
