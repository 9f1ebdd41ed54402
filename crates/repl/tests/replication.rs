//! End-to-end replication: a primary behind a real server, a follower
//! pumping over loopback, damage injection, fencing, and promotion.

use std::sync::Arc;

use labbase::LabBase;
use labflow_repl::{pump_once, Follower, PumpConfig, ReplError};
use labflow_server::{Client, Server, ServerConfig, TenantQuotas};
use labflow_storage::{Engine, Options, Profile, SimVfs, StorageManager, Vfs};

fn sim_store(seed: u64, path: &str) -> Arc<dyn StorageManager> {
    let vfs: Arc<dyn Vfs> = Arc::new(SimVfs::new(seed));
    Arc::new(
        Engine::create_with(vfs, path.as_ref(), Profile::ostore(), Options::default()).unwrap(),
    )
}

fn start_server(db: Arc<LabBase>) -> Server {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        quotas: TenantQuotas { max_sessions: 0, max_inflight: 0, bytes_per_sec: 0 },
        ..ServerConfig::default()
    };
    Server::start(db, config).unwrap()
}

/// Pump until caught up with the primary.
fn drain(follower: &Follower, client: &mut Client, cfg: &PumpConfig) {
    while pump_once(follower, client, cfg).unwrap() {}
}

/// The full path: server-side stream → wire → verify → apply → ack;
/// the follower's LabBase serves reads mid-stream and takes writes
/// after promotion.
#[test]
fn pump_replicates_over_loopback_and_promotes() {
    let pri_store = sim_store(3, "/sim/pri");
    let from = pri_store.replication_lsn().unwrap();
    let db = Arc::new(LabBase::create(Arc::clone(&pri_store)).unwrap());
    let server = start_server(Arc::clone(&db));
    let addr = server.local_addr();

    let mut writer = Client::connect(addr, 1).unwrap();
    writer.begin().unwrap();
    writer.define_material_class("clone", None).unwrap();
    let m = writer.create_material("clone", "c-001", 5).unwrap();
    writer.set_state(m, "queued", 6).unwrap();
    writer.commit().unwrap();

    let fol_store = sim_store(4, "/sim/fol");
    let follower = Follower::new(Arc::clone(&fol_store), from);
    let cfg = PumpConfig { follower_id: 7, ..PumpConfig::default() };
    let mut pump_client = Client::connect(addr, u32::MAX).unwrap();
    drain(&follower, &mut pump_client, &cfg);

    // The primary's server saw the follower's ack at the tail.
    let status = writer.repl_status().unwrap();
    assert_eq!(status.followers, vec![(7, follower.durable_lsn())]);
    assert_eq!(status.lsn, follower.durable_lsn());

    // The follower serves snapshot reads through its own LabBase.
    let fdb = LabBase::open(Arc::clone(&fol_store)).unwrap();
    fdb.set_read_only(true);
    let found = fdb.find_material("c-001").unwrap();
    assert_eq!(found.map(|id| id.oid().raw()), Some(m));
    assert!(matches!(fdb.begin(), Err(labbase::LabError::ReadOnly)));

    // More primary traffic; the pump catches up incrementally.
    writer.begin().unwrap();
    writer.create_material("clone", "c-002", 7).unwrap();
    writer.commit().unwrap();
    drain(&follower, &mut pump_client, &cfg);
    fdb.refresh_replica_caches().unwrap();
    assert!(fdb.find_material("c-002").unwrap().is_some());
    server.shutdown().unwrap();

    // Promote: epoch jumps past anything the primary stamped, writes open up.
    let old_epoch = pri_store.store_epoch();
    let epoch = follower.promote().unwrap();
    assert!(epoch > old_epoch);
    assert_eq!(fol_store.store_epoch(), epoch);
    fdb.set_read_only(false);
    let t = fdb.begin().unwrap();
    fdb.create_material(t, "clone", "c-promoted", 9).unwrap();
    fdb.commit(t).unwrap();
    assert!(fdb.find_material("c-promoted").unwrap().is_some());
}

/// A bit-flipped chunk is refused before anything is applied, the
/// stream position does not move, and the intact re-request heals.
#[test]
fn corrupt_chunk_is_refused_then_heals() {
    let pri = sim_store(5, "/sim/pri");
    let from = pri.replication_lsn().unwrap();
    let db = LabBase::create(Arc::clone(&pri)).unwrap();
    let t = db.begin().unwrap();
    db.define_material_class(t, "clone", None).unwrap();
    db.commit(t).unwrap();

    let fol = sim_store(6, "/sim/fol");
    let follower = Follower::new(Arc::clone(&fol), from);
    let chunk = pri.wal_stream_from(from, 1 << 18).unwrap();
    assert!(!chunk.bytes.is_empty());

    let mut torn = chunk.bytes.clone();
    let mid = torn.len() / 2;
    torn[mid] ^= 0x40;
    match follower.ingest(pri.store_epoch(), chunk.start, &torn) {
        Err(ReplError::Corrupt(_)) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert_eq!(follower.durable_lsn(), from, "refused chunk must not advance the stream");

    // Same range, intact bytes: applies cleanly.
    let durable = follower.ingest(pri.store_epoch(), chunk.start, &chunk.bytes).unwrap();
    assert_eq!(durable, chunk.end);
    assert_eq!(follower.durable_lsn(), chunk.end);
}

/// Fencing and alignment: chunks from a deposed epoch and chunks that
/// do not start at the stream position are typed refusals.
#[test]
fn fenced_and_misaligned_chunks_are_refused() {
    let pri = sim_store(8, "/sim/pri");
    let from = pri.replication_lsn().unwrap();
    let db = LabBase::create(Arc::clone(&pri)).unwrap();
    let t = db.begin().unwrap();
    db.define_material_class(t, "clone", None).unwrap();
    db.commit(t).unwrap();
    let chunk = pri.wal_stream_from(from, 1 << 18).unwrap();

    let fol = sim_store(9, "/sim/fol");
    let follower = Follower::new(Arc::clone(&fol), from);

    // A fence raised above the primary's epoch (as after a sibling's
    // promotion) refuses the zombie's chunks.
    let fence = pri.store_epoch() + 100;
    follower.raise_fence(fence);
    match follower.ingest(pri.store_epoch(), chunk.start, &chunk.bytes) {
        Err(ReplError::Fenced { got, fence: f }) => {
            assert_eq!(got, pri.store_epoch());
            assert_eq!(f, fence);
        }
        other => panic!("expected Fenced, got {other:?}"),
    }

    // Misaligned start: typed, with both offsets.
    let fol2 = sim_store(10, "/sim/fol2");
    let follower2 = Follower::new(Arc::clone(&fol2), from);
    match follower2.ingest(pri.store_epoch(), chunk.start + 1, &chunk.bytes) {
        Err(ReplError::StaleChunk { expected, got }) => {
            assert_eq!(expected, from);
            assert_eq!(got, chunk.start + 1);
        }
        other => panic!("expected StaleChunk, got {other:?}"),
    }
}
