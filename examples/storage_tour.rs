//! A tour of the storage-manager substrate: the five server versions of
//! the paper's Section 10, their placement behaviour, durability
//! contracts, and fault accounting — without LabBase on top.
//!
//! ```sh
//! cargo run --example storage_tour
//! ```

use std::sync::Arc;

use labflow_storage::{
    ClusterHint, Engine, MemStore, Options, Profile, SegmentId, StorageManager, Visibility,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = std::env::temp_dir().join(format!("labflow-tour-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&base)?;
    // A deliberately tiny pool so locality differences are visible.
    let opts = Options { buffer_pages: 16, ..Options::default() };

    let stores: Vec<Arc<dyn StorageManager>> = vec![
        Arc::new(Engine::create(&base.join("ostore"), Profile::ostore(), opts.clone())?),
        Arc::new(Engine::create(&base.join("texas_tc"), Profile::texas_tc(), opts.clone())?),
        Arc::new(Engine::create(&base.join("texas"), Profile::texas(), opts.clone())?),
        Arc::new(MemStore::ostore_mm()),
        Arc::new(MemStore::texas_mm()),
    ];

    println!("== capabilities ==");
    println!(
        "{:<12}{:>12}{:>12}{:>12}",
        "version", "persistent", "concurrent", "segments"
    );
    for store in &stores {
        println!(
            "{:<12}{:>12}{:>12}{:>12}",
            store.name(),
            store.is_persistent(),
            store.supports_concurrency(),
            store.segments().len()
        );
    }

    // The experiment in miniature: interleave small hot records (segment
    // 1) with big cold payloads (segment 3), then read the hot ones cold.
    println!("\n== locality in miniature ==");
    println!("interleave 200 hot 40B records with 200 cold 1KB payloads,");
    println!("then read all the hot records after dropping the cache:\n");
    for store in &stores {
        let txn = store.begin()?;
        let mut hot = Vec::new();
        for i in 0..200u32 {
            hot.push(store.allocate(txn, SegmentId(1), ClusterHint::NONE, &i.to_le_bytes())?);
            store.allocate(txn, SegmentId(3), ClusterHint::NONE, &[0xCD; 1024])?;
        }
        store.commit(txn)?;
        store.drop_caches()?;
        let before = store.stats();
        for &oid in &hot {
            store.read(oid)?;
        }
        let faults = store.stats().delta(&before).faults;
        let size = store
            .db_size_bytes()?
            .map(|b| format!("{b} B"))
            .unwrap_or_else(|| "—".into());
        println!(
            "{:<12} {:>4} faults to read 200 hot records   (db size {size})",
            store.name(),
            faults
        );
    }
    println!("\nOStore and Texas+TC keep the hot records on ~2 pages; plain");
    println!("Texas scatters them among the cold payloads — the paper's point.");

    // Durability contracts.
    println!("\n== durability ==");
    let oid_committed;
    let oid_tail;
    {
        let store = Engine::create(&base.join("crash"), Profile::ostore(), opts.clone())?;
        let t = store.begin()?;
        oid_committed = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"committed")?;
        store.commit(t)?;
        let t = store.begin()?;
        oid_tail = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"uncommitted")?;
        // crash: no commit, no checkpoint
    }
    let store = Engine::open(&base.join("crash"), Profile::ostore(), opts.clone())?;
    println!(
        "OStore after crash: committed object {} -> {:?}, uncommitted {} -> exists = {}",
        oid_committed,
        String::from_utf8_lossy(&store.read(oid_committed)?),
        oid_tail,
        store.exists_vis(Visibility::Latest, oid_tail)
    );

    {
        let store = Engine::create(&base.join("crash_tex"), Profile::texas(), opts.clone())?;
        let t = store.begin()?;
        let kept = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"checkpointed")?;
        store.commit(t)?;
        store.checkpoint()?;
        let t = store.begin()?;
        let lost = store.allocate(t, SegmentId(0), ClusterHint::NONE, b"post-checkpoint")?;
        store.commit(t)?;
        println!(
            "Texas before crash: {} and {} both live; crashing without checkpoint…",
            kept, lost
        );
        // crash
        drop(store);
        let store = Engine::open(&base.join("crash_tex"), Profile::texas(), opts)?;
        println!(
            "Texas after crash : {} -> {:?}, {} -> exists = {} (checkpoint-only durability)",
            kept,
            String::from_utf8_lossy(&store.read(kept)?),
            lost,
            store.exists_vis(Visibility::Latest, lost)
        );
    }

    std::fs::remove_dir_all(&base).ok();
    Ok(())
}
