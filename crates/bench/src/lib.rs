//! # labflow-bench
//!
//! Criterion benches and the `labflow-harness` binary for the LabFlow-1
//! benchmark. Each Criterion group corresponds to one paper artifact
//! (see DESIGN.md's experiment index):
//!
//! | bench target | artifact |
//! |---|---|
//! | `bench_build` | Section-10 build tables (`tab-build-*`) |
//! | `bench_queries` | query-mix table (`tab-query-mix`) |
//! | `bench_evolution` | schema-evolution table (`tab-evolution`) |
//! | `bench_clustering` | clustering ablation (`abl-clustering`) |
//! | `bench_storage` | storage-manager micro-operations |
//!
//! The full paper-shaped runs (all intervals, all versions, the printed
//! tables) live in the `labflow-harness` binary; the Criterion benches
//! measure the same code paths at a size that keeps `cargo bench`
//! turnaround reasonable.

/// Shared helpers for the Criterion benches.
pub mod support {
    use std::path::{Path, PathBuf};
    use std::sync::Arc;
    use std::time::Duration;

    use criterion::{BenchmarkGroup, Criterion};
    use labbase::LabBase;
    use labflow_core::runner::{grown_db, store_dir};
    use labflow_core::{BenchConfig, LabSim, ServerVersion};
    use labflow_storage::StorageManager;

    /// A small-but-not-trivial config for Criterion runs.
    pub fn bench_config() -> BenchConfig {
        BenchConfig {
            base_clones: 60,
            buffer_pages: 256,
            checkpoint_every: 500,
            evolution_every: 400,
            ..BenchConfig::default()
        }
    }

    /// A Criterion group on the benches' shared time budget: 500 ms of
    /// warm-up, 2 s of measurement.
    pub fn group(c: &mut Criterion, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let mut group = c.benchmark_group(name);
        group.measurement_time(Duration::from_secs(2));
        group.warm_up_time(Duration::from_millis(500));
        group
    }

    /// Fresh scratch dir for one bench invocation.
    pub fn scratch(name: &str) -> PathBuf {
        let name = format!("labflow-bench-{}-{name}", std::process::id());
        store_dir(&std::env::temp_dir(), &name).unwrap()
    }

    /// Build and checkpoint a 1X database for `version` under `dir`;
    /// returns the sim (for its sampling pool), the db, and the store.
    pub fn built_db(
        version: ServerVersion,
        cfg: &BenchConfig,
        dir: &Path,
    ) -> (LabSim, LabBase, Arc<dyn StorageManager>) {
        let built = grown_db(version, cfg, dir, 1.0).unwrap();
        built.1.checkpoint().unwrap();
        built
    }
}
