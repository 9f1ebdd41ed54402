//! Property-based tests for the storage managers: arbitrary operation
//! sequences against a reference model, on every persistent profile,
//! including checkpoint + reopen equivalence.

use std::collections::HashMap;
use std::path::PathBuf;

use proptest::prelude::*;

use labflow_storage::{
    ClusterHint, Engine, Options, Oid, Profile, SegmentId, StorageManager, Visibility,
};

#[derive(Debug, Clone)]
enum Op {
    /// Allocate an object of the given size filled with `fill`.
    Alloc { seg: u8, hint: u64, size: usize, fill: u8 },
    /// Update the i-th live object (modulo) to a new size/fill.
    Update { pick: usize, size: usize, fill: u8 },
    /// Free the i-th live object (modulo).
    Free { pick: usize },
    /// Read and verify the i-th live object (modulo).
    Read { pick: usize },
    /// Checkpoint.
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u8..4, any::<u64>(), 0usize..600, any::<u8>())
            .prop_map(|(seg, hint, size, fill)| Op::Alloc { seg, hint, size, fill }),
        // Occasionally huge: exercises overflow chains.
        1 => (0u8..4, any::<u64>(), 4000usize..12_000, any::<u8>())
            .prop_map(|(seg, hint, size, fill)| Op::Alloc { seg, hint, size, fill }),
        2 => (any::<usize>(), 0usize..6000, any::<u8>())
            .prop_map(|(pick, size, fill)| Op::Update { pick, size, fill }),
        1 => any::<usize>().prop_map(|pick| Op::Free { pick }),
        3 => any::<usize>().prop_map(|pick| Op::Read { pick }),
        1 => Just(Op::Checkpoint),
    ]
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lfs-prop-{}-{}-{}",
        std::process::id(),
        tag,
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Apply ops to the engine and a HashMap model; verify equivalence
/// throughout and after a checkpoint + reopen.
fn run_model(profile_for: fn() -> Profile, ops: Vec<Op>, tag: &str) {
    let dir = scratch(tag);
    let opts = Options { buffer_pages: 16, ..Options::default() }; // tiny: force eviction
    let engine = Engine::create(&dir, profile_for(), opts.clone()).unwrap();
    let mut model: HashMap<Oid, Vec<u8>> = HashMap::new();
    let mut live: Vec<Oid> = Vec::new();

    for op in &ops {
        match op {
            Op::Alloc { seg, hint, size, fill } => {
                let data = vec![*fill; *size];
                let t = engine.begin().unwrap();
                let oid = engine
                    .allocate(t, SegmentId(*seg), ClusterHint(*hint), &data)
                    .unwrap();
                engine.commit(t).unwrap();
                model.insert(oid, data);
                live.push(oid);
            }
            Op::Update { pick, size, fill } => {
                if live.is_empty() {
                    continue;
                }
                let oid = live[pick % live.len()];
                let data = vec![*fill; *size];
                let t = engine.begin().unwrap();
                engine.update(t, oid, &data).unwrap();
                engine.commit(t).unwrap();
                model.insert(oid, data);
            }
            Op::Free { pick } => {
                if live.is_empty() {
                    continue;
                }
                let idx = pick % live.len();
                let oid = live.swap_remove(idx);
                let t = engine.begin().unwrap();
                engine.free(t, oid).unwrap();
                engine.commit(t).unwrap();
                model.remove(&oid);
            }
            Op::Read { pick } => {
                if live.is_empty() {
                    continue;
                }
                let oid = live[pick % live.len()];
                let got = engine.read(oid).unwrap();
                assert_eq!(&got, model.get(&oid).unwrap(), "read mismatch at {oid}");
            }
            Op::Checkpoint => {
                engine.checkpoint().unwrap();
            }
        }
    }
    // Full sweep.
    assert_eq!(engine.object_count(), model.len());
    for (oid, data) in &model {
        assert_eq!(&engine.read(*oid).unwrap(), data);
    }
    // Checkpoint, reopen, sweep again: durability equivalence.
    engine.checkpoint().unwrap();
    drop(engine);
    let engine = Engine::open(&dir, profile_for(), opts).unwrap();
    assert_eq!(engine.object_count(), model.len());
    for (oid, data) in &model {
        assert_eq!(&engine.read(*oid).unwrap(), data, "post-reopen mismatch at {oid}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn ostore_matches_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        run_model(Profile::ostore, ops, "ostore");
    }

    #[test]
    fn texas_matches_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        run_model(Profile::texas, ops, "texas");
    }

    #[test]
    fn texas_tc_matches_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        run_model(Profile::texas_tc, ops, "texastc");
    }

    /// WAL recovery: commit a random prefix of transactions, crash
    /// without checkpoint, reopen — exactly the committed ones survive.
    #[test]
    fn ostore_recovers_committed_prefix(
        txns in proptest::collection::vec(
            (proptest::collection::vec((0usize..400, any::<u8>()), 1..6), any::<bool>()),
            1..20,
        )
    ) {
        let dir = scratch("recover");
        let opts = Options { buffer_pages: 16, ..Options::default() };
        let mut committed: HashMap<Oid, Vec<u8>> = HashMap::new();
        let mut uncommitted: Vec<Oid> = Vec::new();
        {
            let engine = Engine::create(&dir, Profile::ostore(), opts.clone()).unwrap();
            for (allocs, commit) in &txns {
                let t = engine.begin().unwrap();
                let mut oids = Vec::new();
                for (size, fill) in allocs {
                    let data = vec![*fill; *size];
                    let oid = engine
                        .allocate(t, SegmentId(0), ClusterHint::NONE, &data)
                        .unwrap();
                    oids.push((oid, data));
                }
                if *commit {
                    engine.commit(t).unwrap();
                    committed.extend(oids);
                } else {
                    // Neither committed nor aborted: lost in the crash.
                    uncommitted.extend(oids.into_iter().map(|(o, _)| o));
                }
            }
            // Crash: drop without checkpoint.
        }
        let engine = Engine::open(&dir, Profile::ostore(), opts).unwrap();
        for (oid, data) in &committed {
            prop_assert_eq!(&engine.read(*oid).unwrap(), data);
        }
        for oid in &uncommitted {
            prop_assert!(
                !engine.exists_vis(Visibility::Latest, *oid),
                "uncommitted {oid} survived the crash"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
