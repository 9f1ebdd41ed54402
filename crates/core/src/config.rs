//! Benchmark configuration: server versions, scale factors, and the
//! workload knobs of LabFlow-1.

use std::path::Path;
use std::sync::Arc;

use labflow_storage::{MemStore, OStore, Options, StorageManager, Texas, TexasTc};

use crate::error::{BenchError, Result};

/// The five server versions of the paper's Section 10.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ServerVersion {
    /// ObjectStore-like: segments, lock manager, WAL.
    OStore,
    /// Texas-like: address-order heap, swizzling, single-user.
    Texas,
    /// Texas with client-implemented clustering.
    TexasTc,
    /// Main-memory OStore (storage management compiled out).
    OStoreMm,
    /// Main-memory Texas.
    TexasMm,
}

impl ServerVersion {
    /// All five versions, in the paper's column order.
    pub const ALL: [ServerVersion; 5] = [
        ServerVersion::OStore,
        ServerVersion::TexasTc,
        ServerVersion::Texas,
        ServerVersion::OStoreMm,
        ServerVersion::TexasMm,
    ];

    /// The persistent versions only.
    pub const PERSISTENT: [ServerVersion; 3] =
        [ServerVersion::OStore, ServerVersion::TexasTc, ServerVersion::Texas];

    /// Column name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ServerVersion::OStore => "OStore",
            ServerVersion::Texas => "Texas",
            ServerVersion::TexasTc => "Texas+TC",
            ServerVersion::OStoreMm => "OStore-mm",
            ServerVersion::TexasMm => "Texas-mm",
        }
    }

    /// Parse a version from its table name (case-insensitive).
    pub fn parse(s: &str) -> Option<ServerVersion> {
        match s.to_ascii_lowercase().as_str() {
            "ostore" => Some(ServerVersion::OStore),
            "texas" => Some(ServerVersion::Texas),
            "texas+tc" | "texastc" | "texas_tc" => Some(ServerVersion::TexasTc),
            "ostore-mm" | "ostoremm" | "ostore_mm" => Some(ServerVersion::OStoreMm),
            "texas-mm" | "texasmm" | "texas_mm" => Some(ServerVersion::TexasMm),
            _ => None,
        }
    }

    /// Whether the version persists data to disk.
    pub fn is_persistent(self) -> bool {
        matches!(self, ServerVersion::OStore | ServerVersion::Texas | ServerVersion::TexasTc)
    }

    /// Instantiate the storage manager. Persistent versions create their
    /// store under `dir`; `-mm` versions ignore it.
    pub fn make_store(
        self,
        dir: &Path,
        buffer_pages: usize,
    ) -> Result<Arc<dyn StorageManager>> {
        self.make_store_with(dir, Options { buffer_pages, ..Options::default() })
    }

    /// Instantiate the storage manager with explicit [`Options`] (e.g.
    /// `sync_commit` for the replication experiment). `-mm` versions
    /// ignore the options entirely.
    pub fn make_store_with(self, dir: &Path, opts: Options) -> Result<Arc<dyn StorageManager>> {
        let store: Arc<dyn StorageManager> = match self {
            ServerVersion::OStore => Arc::new(OStore::create(dir, opts)?),
            ServerVersion::Texas => Arc::new(Texas::create(dir, opts)?),
            ServerVersion::TexasTc => Arc::new(TexasTc::create(dir, opts)?),
            ServerVersion::OStoreMm => Arc::new(MemStore::ostore_mm()),
            ServerVersion::TexasMm => Arc::new(MemStore::texas_mm()),
        };
        Ok(store)
    }

    /// Reopen a persistent store (crash-recovery path).
    pub fn open_store(
        self,
        dir: &Path,
        buffer_pages: usize,
    ) -> Result<Arc<dyn StorageManager>> {
        let opts = Options { buffer_pages, ..Options::default() };
        let store: Arc<dyn StorageManager> = match self {
            ServerVersion::OStore => Arc::new(OStore::open(dir, opts)?),
            ServerVersion::Texas => Arc::new(Texas::open(dir, opts)?),
            ServerVersion::TexasTc => Arc::new(TexasTc::open(dir, opts)?),
            _ => return Err(BenchError::Config("-mm versions cannot be reopened".into())),
        };
        Ok(store)
    }

}

/// Benchmark configuration.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// RNG seed; everything downstream is deterministic in it.
    pub seed: u64,
    /// Clones injected at scale 1X.
    pub base_clones: usize,
    /// Buffer-pool pages for persistent backends. The paper's machines
    /// had memory small relative to the database; this knob plays that
    /// role (default 2048 pages = 8 MiB).
    pub buffer_pages: usize,
    /// Interleaved tracking queries per workflow step executed.
    pub queries_per_step: f64,
    /// Probability that a step arrives with an out-of-order valid time.
    pub out_of_order_rate: f64,
    /// Maximum backdating (ticks) for out-of-order arrivals.
    pub out_of_order_ticks: i64,
    /// Checkpoint every this many workflow steps (0 = only at interval
    /// boundaries).
    pub checkpoint_every: usize,
    /// Redefine a step class every this many workflow steps (0 = never).
    pub evolution_every: usize,
    /// Reads needed before a clone's assembly is attempted.
    pub reads_per_assembly: usize,
    /// New clones injected per simulation tick.
    pub arrivals_per_tick: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            seed: 0x1ABF_1011,
            base_clones: 1000,
            buffer_pages: 2048,
            queries_per_step: 2.0,
            out_of_order_rate: 0.05,
            out_of_order_ticks: 40,
            checkpoint_every: 2_000,
            evolution_every: 1_500,
            reads_per_assembly: 6,
            arrivals_per_tick: 4,
        }
    }
}

impl BenchConfig {
    /// A tiny configuration for tests and smoke runs.
    pub fn smoke() -> Self {
        BenchConfig {
            base_clones: 16,
            buffer_pages: 64,
            checkpoint_every: 200,
            evolution_every: 120,
            ..BenchConfig::default()
        }
    }

    /// Clones injected at `scale` (e.g. 0.5, 1.0, 2.0).
    pub fn clones_at(&self, scale: f64) -> usize {
        ((self.base_clones as f64) * scale).round().max(1.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for v in ServerVersion::ALL {
            assert_eq!(ServerVersion::parse(v.name()), Some(v));
        }
        assert_eq!(ServerVersion::parse("nope"), None);
    }

    #[test]
    fn make_store_all_versions() {
        let base = std::env::temp_dir().join(format!("lfc-cfg-{}", std::process::id()));
        for v in ServerVersion::ALL {
            let dir = base.join(v.name().replace('+', "p"));
            std::fs::remove_dir_all(&dir).ok();
            let store = v.make_store(&dir, 64).unwrap();
            assert_eq!(store.name(), v.name());
            assert_eq!(store.is_persistent(), v.is_persistent());
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn mm_cannot_reopen() {
        let dir = std::env::temp_dir().join("never");
        assert!(ServerVersion::OStoreMm.open_store(&dir, 64).is_err());
    }

    #[test]
    fn scale_arithmetic() {
        let cfg = BenchConfig { base_clones: 100, ..BenchConfig::default() };
        assert_eq!(cfg.clones_at(0.5), 50);
        assert_eq!(cfg.clones_at(1.0), 100);
        assert_eq!(cfg.clones_at(2.0), 200);
        assert_eq!(cfg.clones_at(0.001), 1, "never zero");
    }
}
