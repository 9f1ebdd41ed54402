//! End-to-end benchmark pipeline at smoke scale: every experiment of the
//! DESIGN.md index runs, renders, and shows the paper's qualitative
//! shapes where they are already visible at tiny scale.

use std::path::PathBuf;

use labflow_core::exp::{build, clustering, concurrency, crash, evolution, queries};
use labflow_core::{experiments, BenchConfig, ServerVersion};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lf-e2e-{}-{}", std::process::id(), name));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn structural_experiments_render() {
    let cfg = BenchConfig::smoke();
    let dir = scratch("structural");
    for id in ["fig1-schema", "tab1-storage-schema", "figB-workflow-graph"] {
        let r = experiments::run(id, &cfg, &dir).unwrap();
        assert!(!r.text.is_empty());
    }
    // The workflow figure names the paper's entities.
    let r = experiments::run("figB-workflow-graph", &cfg, &dir).unwrap();
    for needle in ["determine_sequence", "assemble_sequence", "associate_tclone", "waiting_for_sequencing"] {
        assert!(r.text.contains(needle), "figB missing {needle}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn build_table_runs_on_all_versions_and_renders() {
    let cfg = BenchConfig::smoke();
    let dir = scratch("build");
    let results =
        build::run_all(&ServerVersion::ALL, &cfg, &[0.5, 1.0], &dir).unwrap();
    assert_eq!(results.len(), 5);
    for r in &results {
        assert_eq!(r.rows.len(), 2);
        for row in &r.rows {
            assert!(row.steps > 0, "{} did work in {}", r.version, row.interval);
            assert!(row.elapsed_sec > 0.0);
        }
    }
    // Qualitative shapes visible even at smoke scale:
    let by_name = |name: &str| results.iter().find(|r| r.version == name).unwrap();
    // 1. -mm versions never fault.
    for mm in ["OStore-mm", "Texas-mm"] {
        assert!(by_name(mm).rows.iter().all(|r| r.sim_majflt == 0));
        assert!(by_name(mm).rows.iter().all(|r| r.size_bytes.is_none()));
    }
    // 2. Persistent versions have sizes, and Texas is fatter than OStore.
    let o_size = by_name("OStore").rows.last().unwrap().size_bytes.unwrap();
    let t_size = by_name("Texas").rows.last().unwrap().size_bytes.unwrap();
    assert!(t_size > o_size, "Texas {t_size} should exceed OStore {o_size}");

    let table = build::table(&results);
    assert!(table.contains("0.5X"));
    assert!(table.contains("elapsed sec"));
    assert!(table.contains("OStore-mm"));
    let fig = build::figure(&results);
    assert!(fig.contains('#'));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_mix_runs_and_mm_is_fault_free() {
    let cfg = BenchConfig::smoke();
    let dir = scratch("qmix");
    let mut all = Vec::new();
    for v in [ServerVersion::OStore, ServerVersion::Texas, ServerVersion::OStoreMm] {
        all.extend(queries::run(v, &cfg, &dir).unwrap());
    }
    assert!(all.iter().filter(|t| t.version == "OStore").count() >= 8);
    for t in all.iter().filter(|t| t.version == "OStore-mm") {
        assert_eq!(t.sim_faults, 0, "-mm faulted in family {}", t.query);
    }
    // Every family answered something on at least one version.
    let table = queries::table(&all);
    assert!(table.contains("recent lookup"));
    assert!(table.contains("LQL view mix"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evolution_experiment_shapes() {
    let cfg = BenchConfig::smoke();
    let dir = scratch("evo");
    let r = evolution::run(ServerVersion::OStore, &cfg, &dir, 20).unwrap();
    assert!(r.max_versions > 1, "versions accumulated");
    // The paper's claim: evolution is a catalog operation. It must be
    // within an order of magnitude of a single step insert — i.e. not
    // scanning or rewriting instances (which would be 1000s of times
    // slower on this database).
    assert!(
        r.redefine_mean_us < r.record_step_mean_us * 50.0,
        "redefine {}µs vs record_step {}µs — looks like data migration",
        r.redefine_mean_us,
        r.record_step_mean_us
    );
    // Size growth from 50 redefinitions is bounded (catalog only).
    let growth = r.size_after.unwrap() as f64 / r.size_before.unwrap() as f64;
    assert!(growth < 2.0, "evolution must not rewrite the database (growth {growth:.2}x)");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clustering_ablation_orders_the_backends() {
    let cfg = BenchConfig { base_clones: 32, buffer_pages: 1024, ..BenchConfig::smoke() };
    let dir = scratch("clust");
    // Pool sized between "hot records fit" and "whole DB fits": the
    // backends with locality control keep the hot set dense and reach a
    // low steady state; plain Texas dilutes it across the heap.
    let points = clustering::run(&cfg, &[64], 2_000, &dir).unwrap();
    let fpk = |name: &str| {
        points
            .iter()
            .find(|p| p.version == name && p.pool_pages == 64)
            .unwrap()
            .faults_per_k
    };
    let ostore = fpk("OStore");
    let texas = fpk("Texas");
    let texas_tc = fpk("Texas+TC");
    // The paper's headline: locality control wins. Texas must fault at
    // least as much as both clustered backends in steady state.
    assert!(
        texas >= ostore,
        "Texas ({texas:.1} f/k) should not beat OStore ({ostore:.1}) on hot tracking"
    );
    assert!(
        texas >= texas_tc,
        "client clustering should recover locality: Texas+TC {texas_tc:.1} vs Texas {texas:.1}"
    );
    let table = clustering::table(&points);
    assert!(table.contains("OStore"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn experiment_registry_rejects_unknown_and_lists_ids() {
    let cfg = BenchConfig::smoke();
    assert!(experiments::run("tab-imaginary", &cfg, &std::env::temp_dir()).is_err());
    assert!(experiments::ALL_IDS.contains(&"tab-build"));
    assert!(experiments::ALL_IDS.contains(&"abl-clustering"));
}

#[test]
fn concurrency_ablation_shapes() {
    let cfg = BenchConfig::smoke();
    let dir = scratch("conc-abl");
    let points = concurrency::run(&cfg, &[0, 2], &dir).unwrap();
    // Single-user flavors must refuse readers; everyone builds with 0.
    for p in &points {
        match (p.version.as_str(), p.readers) {
            (_, 0) => assert!(p.supported && p.build_steps_per_sec > 0.0),
            ("Texas", _) | ("Texas+TC", _) | ("Texas-mm", _) => {
                assert!(!p.supported, "{} must be single-user", p.version)
            }
            _ => {
                assert!(p.supported, "{} supports concurrency", p.version);
                assert!(p.reader_ops_per_sec > 0.0, "readers made progress");
                assert!(p.build_steps_per_sec > 0.0, "build made progress");
            }
        }
    }
    let table = concurrency::table(&points);
    assert!(table.contains("single-user"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_ablation_shapes() {
    let cfg = BenchConfig::smoke();
    let dir = scratch("rec-abl");
    let points = crash::run_recovery(&cfg, &dir).unwrap();
    assert_eq!(points.len(), 3);
    let by = |name: &str| points.iter().find(|p| p.version == name).unwrap();
    // OStore replays its WAL: (almost) nothing lost, WAL debt non-zero.
    let o = by("OStore");
    assert!(o.wal_bytes_at_crash > 0);
    assert_eq!(o.materials_lost, 0, "WAL must recover all committed work");
    // Texas flavors recover to the checkpoint: they lose the tail.
    for name in ["Texas", "Texas+TC"] {
        let t = by(name);
        assert_eq!(t.wal_bytes_at_crash, 0, "{name} has no log");
        assert!(
            t.materials_lost > 0,
            "{name} must lose post-checkpoint work (lost {})",
            t.materials_lost
        );
        assert!(t.materials_recovered > 0);
    }
    let table = crash::recovery_table(&points);
    assert!(table.contains("OStore"));
    std::fs::remove_dir_all(&dir).ok();
}
