//! Calibration probe for the clustering ablation: prints steady-state
//! fault rates per backend at a few (scale, pool) points. Used while
//! tuning `abl-clustering`'s pool sweep; kept as a diagnostic.
use labflow_core::{exp::clustering, BenchConfig};

fn main() {
    for (clones, pool, sample) in [(100usize, 32usize, 3000usize), (100, 96, 3000), (100, 320, 3000), (200, 96, 3000)] {
        let cfg = BenchConfig {
            base_clones: clones,
            buffer_pages: 1024, // build pool (big); read pools swept below
            ..BenchConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("probe-clust-{clones}-{pool}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let points = clustering::run(&cfg, &[pool], sample, &dir).unwrap();
        println!("clones={clones} pool={pool} lookups={sample}");
        for p in &points {
            println!("  {:<10} faults/1k={:>8.1}  total_faults={:>7}",
                p.version, p.faults_per_k, p.sim_faults);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
