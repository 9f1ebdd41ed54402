//! Full-stack integration: workload → LabBase → OStore storage, with
//! persistence, crash recovery, and LQL querying over the recovered
//! database.

use std::path::PathBuf;
use std::sync::Arc;

use labbase::LabBase;
use labflow_core::{BenchConfig, LabSim, ServerVersion};
use labflow_storage::{Engine, Options, Profile, StorageManager};
use labflow_workflow::genome;
use lql::{stdlib::labflow_program, Session};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lf-it-{}-{}", std::process::id(), name));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn simulated_lab_survives_reopen_with_everything_intact() {
    let dir = scratch("reopen");
    let cfg = BenchConfig { base_clones: 12, buffer_pages: 96, ..BenchConfig::smoke() };

    // Build, drain, checkpoint, record ground truth.
    let store = ServerVersion::OStore.make_store(&dir, cfg.buffer_pages).unwrap();
    let db = LabBase::create(store).unwrap();
    let mut sim = LabSim::new(cfg.clone());
    sim.setup(&db).unwrap();
    sim.run_until_clones(&db, 12).unwrap();
    assert_eq!(sim.drain(&db, 100_000).unwrap(), 0);
    db.checkpoint().unwrap();

    let integrity = db.check_integrity().unwrap();
    assert!(integrity.is_healthy(), "pre-reopen: {:?}", integrity.problems);
    let clones = db.count_class("clone", false).unwrap();
    let tclones = db.count_class("tclone", false).unwrap();
    let census = db.state_census().unwrap();
    let sample: Vec<_> = sim.materials().iter().copied().take(40).collect();
    let truth: Vec<_> = sample
        .iter()
        .map(|&m| {
            (
                db.material(m).unwrap(),
                db.recent_all(m).unwrap(),
                db.history(m).unwrap(),
            )
        })
        .collect();
    drop(db);

    // Reopen from disk.
    let store = ServerVersion::OStore.open_store(&dir, cfg.buffer_pages).unwrap();
    let db = LabBase::open(store).unwrap();
    assert_eq!(db.count_class("clone", false).unwrap(), clones);
    assert_eq!(db.count_class("tclone", false).unwrap(), tclones);
    assert_eq!(db.state_census().unwrap(), census);
    let integrity = db.check_integrity().unwrap();
    assert!(integrity.is_healthy(), "post-reopen: {:?}", integrity.problems);
    for (&m, (info, recents, history)) in sample.iter().zip(&truth) {
        assert_eq!(&db.material(m).unwrap(), info);
        assert_eq!(&db.recent_all(m).unwrap(), recents);
        assert_eq!(&db.history(m).unwrap(), history);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn committed_work_survives_a_crash_without_checkpoint() {
    let dir = scratch("crash");
    let committed;
    {
        let store: Arc<dyn StorageManager> =
            Arc::new(Engine::create(&dir, Profile::ostore(), Options::default()).unwrap());
        let db = LabBase::create(store).unwrap();
        let t = db.begin().unwrap();
        db.define_material_class(t, "clone", None).unwrap();
        committed = db.create_material(t, "clone", "survivor", 5).unwrap();
        db.set_state(t, committed, "waiting_for_sequencing", 5).unwrap();
        db.commit(t).unwrap();
        // Uncommitted transaction that must vanish.
        let t2 = db.begin().unwrap();
        let _ghost = db.create_material(t2, "clone", "ghost", 6).unwrap();
        // Drop everything without commit or checkpoint: the "crash".
    }
    let store: Arc<dyn StorageManager> =
        Arc::new(Engine::open(&dir, Profile::ostore(), Options::default()).unwrap());
    let db = LabBase::open(store).unwrap();
    assert_eq!(db.count_class("clone", false).unwrap(), 1);
    let m = db.find_material("survivor").unwrap().expect("committed material recovered");
    assert_eq!(m, committed);
    assert_eq!(db.state_of(m).unwrap().as_deref(), Some("waiting_for_sequencing"));
    assert!(db.find_material("ghost").unwrap().is_none(), "uncommitted work rolled back");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lql_queries_agree_with_programmatic_api_on_a_real_database() {
    let dir = scratch("lql");
    let cfg = BenchConfig { base_clones: 10, ..BenchConfig::smoke() };
    let store = ServerVersion::OStore.make_store(&dir, cfg.buffer_pages).unwrap();
    let db = LabBase::create(store).unwrap();
    let mut sim = LabSim::new(cfg);
    sim.setup(&db).unwrap();
    sim.run_until_clones(&db, 10).unwrap();
    sim.drain(&db, 100_000).unwrap();

    let program = labflow_program();
    let session = Session::new(&db, &program);

    // state/2 agrees with count_in_state.
    let api = db.count_in_state(genome::FINISHED).unwrap();
    let rows = session.query("state(M, finished)").unwrap();
    assert_eq!(rows.len(), api);
    let rows = session.query("count_in_state(clone, finished, N)").unwrap();
    assert_eq!(rows[0][0].1, lql::Term::Int(api as i64));

    // recent/3 agrees with db.recent for a sampled material.
    let m = sim.materials()[0];
    let name = db.material(m).unwrap().name;
    if let Some(r) = db.recent(m, "quality").unwrap() {
        let rows = session
            .query(&format!("material_name(M, \"{name}\"), recent(M, quality, Q)"))
            .unwrap();
        assert_eq!(rows.len(), 1);
        let q = rows[0].iter().find(|(v, _)| v == "Q").unwrap();
        let labbase::Value::Real(expect) = r.value else { panic!("quality is real") };
        assert_eq!(q.1, lql::Term::Real(expect));
    }

    // history_size agrees with history_len.
    let rows = session
        .query(&format!("material_name(M, \"{name}\"), history_size(M, N)"))
        .unwrap();
    let n = rows[0].iter().find(|(v, _)| v == "N").unwrap();
    assert_eq!(n.1, lql::Term::Int(db.history_len(m).unwrap() as i64));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn paper_transition_drives_real_workload_materials() {
    // Run the paper's quoted `move/1` rule against simulator-produced
    // tclones waiting for sequencing.
    let dir = scratch("move");
    let cfg = BenchConfig { base_clones: 10, ..BenchConfig::smoke() };
    let store = ServerVersion::OStore.make_store(&dir, cfg.buffer_pages).unwrap();
    let db = LabBase::create(store).unwrap();
    let mut sim = LabSim::new(cfg);
    sim.setup(&db).unwrap();
    sim.run_until_clones(&db, 10).unwrap();

    let waiting = db.count_in_state(genome::WAITING_FOR_SEQUENCING).unwrap();
    let incorporable = db.count_in_state(genome::WAITING_FOR_INCORPORATION).unwrap();
    if waiting == 0 {
        // Pipeline happened to be empty at this instant; nothing to move.
        std::fs::remove_dir_all(&dir).ok();
        return;
    }
    let program = labflow_program();
    let txn = db.begin().unwrap();
    let session = Session::with_txn(&db, &program, txn);
    session.set_now(sim.clock() + 1);
    let moved = session.query("move(M)").unwrap();
    db.commit(txn).unwrap();
    assert_eq!(moved.len(), waiting, "every waiting tclone moves exactly once");
    assert_eq!(db.count_in_state(genome::WAITING_FOR_SEQUENCING).unwrap(), 0);
    assert_eq!(
        db.count_in_state(genome::WAITING_FOR_INCORPORATION).unwrap(),
        incorporable + waiting
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_readers_during_build_on_ostore() {
    let dir = scratch("conc");
    let cfg = BenchConfig { base_clones: 8, ..BenchConfig::smoke() };
    let store = ServerVersion::OStore.make_store(&dir, cfg.buffer_pages).unwrap();
    let db = Arc::new(LabBase::create(store).unwrap());
    let mut sim = LabSim::new(cfg);
    sim.setup(&db).unwrap();
    sim.run_until_clones(&db, 8).unwrap();
    let mats: Vec<_> = sim.materials().to_vec();

    // Readers hammer the database from other threads while the main
    // thread keeps mutating state — the OStore backend must serve both.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    for _ in 0..3 {
        let db = db.clone();
        let mats = mats.clone();
        let stop = stop.clone();
        handles.push(std::thread::spawn(move || {
            let mut reads = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                for &m in mats.iter().take(50) {
                    let _ = db.recent(m, "quality").unwrap();
                    let _ = db.state_of(m).unwrap();
                    reads += 2;
                }
            }
            reads
        }));
    }
    sim.drain(&db, 50_000).unwrap();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in handles {
        assert!(h.join().unwrap() > 0);
    }
    std::fs::remove_dir_all(&dir).ok();
}
