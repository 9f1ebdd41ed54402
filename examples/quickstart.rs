//! Quickstart: create a LabBase database on the ObjectStore-like
//! backend, define a tiny schema, track a material through two workflow
//! steps, and ask the questions a lab asks.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use labbase::{schema::attrs, AttrType, LabBase, Value};
use labflow_storage::{Engine, Options, Profile, StorageManager};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A storage manager. OStore is the ObjectStore-like backend:
    //    placement segments, lock-based concurrency, WAL + checkpoints.
    let dir = std::env::temp_dir().join(format!("labflow-quickstart-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store: Arc<dyn StorageManager> =
        Arc::new(Engine::create(&dir, Profile::ostore(), Options::default())?);

    // 2. LabBase on top: the workflow DBMS of the LabFlow-1 benchmark.
    let db = LabBase::create(store)?;

    // 3. A user-level schema. Step classes are *versioned data*, so the
    //    lab can redefine them at any time without touching old events.
    let txn = db.begin()?;
    db.define_material_class(txn, "clone", None)?;
    db.define_step_class(
        txn,
        "determine_sequence",
        attrs(&[("sequence", AttrType::Dna), ("quality", AttrType::Real)]),
    )?;

    // 4. A material moving through the workflow.
    let m = db.create_material(txn, "clone", "clone-000001", 0)?;
    db.set_state(txn, m, "waiting_for_sequencing", 0)?;

    // First sequencing run: poor quality.
    db.record_step(
        txn,
        "determine_sequence",
        10,
        &[m],
        vec![
            ("sequence".into(), Value::dna("ACGTTTGACA")?),
            ("quality".into(), Value::Real(0.41)),
        ],
    )?;
    // Retry at valid time 20: good quality.
    db.record_step(
        txn,
        "determine_sequence",
        20,
        &[m],
        vec![
            ("sequence".into(), Value::dna("ACGTTTGACACCGGTA")?),
            ("quality".into(), Value::Real(0.97)),
        ],
    )?;
    db.set_state(txn, m, "waiting_for_incorporation", 20)?;
    db.commit(txn)?;

    // 5. The questions a lab asks.
    let state = db.state_of(m)?;
    println!("state of {m}: {state:?}");

    let quality = db.recent(m, "quality")?.expect("has quality");
    println!(
        "most-recent quality: {} (valid time {}, step {})",
        quality.value, quality.valid_time, quality.step
    );

    let then = db.as_of(m, "quality", 15)?.expect("had a value at t=15");
    println!("quality as of t=15: {} (recorded at t={})", then.1, then.0);

    println!("history (newest first):");
    for entry in db.history(m)? {
        let step = db.step(entry.step)?;
        println!("  t={:<3} {} v{} {:?}", entry.valid_time, step.class, step.version, step.attrs);
    }

    // 6. Durability: checkpoint, then show the storage-level stats.
    db.checkpoint()?;
    let stats = db.stats();
    println!(
        "\nstorage: {} allocs, {} reads, {} buffer faults, {} checkpoints",
        stats.allocs, stats.reads, stats.faults, stats.checkpoints
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
