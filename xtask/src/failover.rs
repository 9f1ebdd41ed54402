//! Replication failover torture harness (`cargo xtask failover --seeds N`).
//!
//! Per seed: a primary OStore and two follower stores, each on its own
//! seeded [`SimVfs`] (three independent machines). A single-writer
//! workload commits transactions on the primary with `sync_commit`;
//! between transactions, the WAL tail is shipped to each follower with
//! seed-chosen probability, so the followers lag by different amounts.
//! Along the way the harness bit-flips some shipped chunks and demands
//! the typed `Corrupt` refusal followed by a clean re-request — the
//! self-healing path. The primary's plug is pulled at a seed-chosen
//! file operation (so some seeds die mid-group-commit, some between
//! transactions, and some outrun the window entirely); then:
//!
//! * the follower with the highest durable offset is **promoted**
//!   (epoch raised past anything the dead primary could stamp);
//! * every commit acked at quorum 1 — i.e. shipped to at least one
//!   follower — must be present **byte-exact** on the promoted store;
//! * the promoted store's durable image must agree with its live state
//!   (a reboot of the follower loses nothing it acked) and pass an
//!   offline scrub with zero unquarantined damage;
//! * the promoted store must accept local writes;
//! * the dead primary is rebooted as a **zombie** and its log is offered
//!   to the surviving follower, whose raised fence must refuse it with
//!   the typed `Fenced` error — never replay it.
//!
//! The workload never checkpoints the primary: a checkpoint truncates
//! the WAL and rewinds the stream (typed `Rewound`, follower re-seeds),
//! which is the pipeline's documented limitation, not a torture target.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use labflow_repl::{Follower, ReplError};
use labflow_storage::{
    scrub_store, ClusterHint, Engine, FaultPlan, Oid, Options, Profile, SegmentId, SimVfs,
    StorageManager, Vfs,
};

const TXNS: usize = 48;
/// Window (in primary file operations after setup) within which the
/// plug-pull lands. Sized so most seeds die mid-workload.
const CRASH_WINDOW: u64 = 260;
const CHUNK_CAP: usize = 1 << 14;

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// One follower "machine": its own simulated disk, the store on it, and
/// the replication wrapper.
struct Node {
    sim: SimVfs,
    dir: PathBuf,
    store: Arc<Engine>,
    follower: Follower,
}

impl Node {
    fn create(seed: u64, from: u64) -> Result<Node, String> {
        let sim = SimVfs::new(seed);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let dir = PathBuf::from("/repl/follower");
        let store = Arc::new(
            Engine::create_with(vfs, &dir, Profile::ostore(), opts())
                .map_err(|e| format!("create follower store: {e}"))?,
        );
        let as_manager: Arc<dyn StorageManager> = Arc::clone(&store) as _;
        Ok(Node { sim, dir, store, follower: Follower::new(as_manager, from) })
    }
}

fn opts() -> Options {
    Options {
        buffer_pages: 24,
        sync_commit: true,
        lock_timeout: Duration::from_millis(200),
    }
}

/// Counters for the end-of-run summary.
#[derive(Default)]
struct Tally {
    crashed: u64,
    healed: u64,
    fenced: u64,
}

/// Ship the primary's WAL tail to `node`, optionally bit-flipping the
/// first chunk to exercise the refuse-then-heal path. Returns false if
/// the primary died mid-stream (its reads fail once crashed).
fn ship(
    pri: &Engine,
    node: &Node,
    corrupt_first: bool,
    rng: &mut Rng,
    tally: &mut Tally,
) -> Result<bool, String> {
    let epoch = pri.store_epoch();
    let mut first = true;
    loop {
        let from = node.follower.durable_lsn();
        let chunk = match pri.wal_stream_from(from, CHUNK_CAP) {
            Ok(c) => c,
            Err(_) => return Ok(false), // primary dead (or dying)
        };
        if chunk.bytes.is_empty() {
            return Ok(true);
        }
        if corrupt_first && first {
            first = false;
            let mut torn = chunk.bytes.clone();
            let at = (rng.next() as usize) % torn.len();
            if let Some(b) = torn.get_mut(at) {
                *b ^= 1 << (rng.next() % 8);
            }
            match node.follower.ingest(epoch, chunk.start, &torn) {
                Err(ReplError::Corrupt(_)) => {}
                Ok(_) => {
                    // A flip can land in a payload byte the frame CRC
                    // still catches — it cannot land anywhere a CRC
                    // doesn't cover, so Ok means silent acceptance.
                    return Err("bit-flipped chunk was applied without a typed refusal".into());
                }
                Err(other) => {
                    return Err(format!("bit-flipped chunk: expected Corrupt, got {other}"))
                }
            }
            if node.follower.durable_lsn() != from {
                return Err("refused chunk advanced the stream position".into());
            }
            tally.healed += 1;
            // Fall through: re-request (same offset) with intact bytes.
        }
        node.follower
            .ingest(epoch, chunk.start, &chunk.bytes)
            .map_err(|e| format!("intact chunk refused: {e}"))?;
    }
}

/// Read every live object out of a store.
fn dump(store: &Engine) -> Result<HashMap<u64, Vec<u8>>, String> {
    let mut out = HashMap::new();
    for oid in store.live_oids() {
        let data = store
            .read(oid)
            .map_err(|e| format!("live oid {} unreadable: {e}", oid.raw()))?;
        out.insert(oid.raw(), data);
    }
    Ok(out)
}

fn payload(txn: usize, op: usize, rng: &mut Rng) -> Vec<u8> {
    let mut p = vec![(txn & 0xff) as u8, op as u8];
    let filler = 16 + (rng.next() % 80) as usize;
    p.extend((0..filler).map(|i| (rng.next() as u8) ^ (i as u8)));
    p
}

/// Run one seed end to end; `Err` is a human-readable contract breach.
fn run_seed(seed: u64, tally: &mut Tally) -> Result<(), String> {
    let pri_sim = SimVfs::new(seed);
    let pri_vfs: Arc<dyn Vfs> = Arc::new(pri_sim.clone());
    let pri_dir = PathBuf::from("/repl/primary");
    let pri = Engine::create_with(pri_vfs, &pri_dir, Profile::ostore(), opts())
        .map_err(|e| format!("create primary: {e}"))?;
    let from = pri
        .replication_lsn()
        .map_err(|e| format!("primary replication_lsn: {e}"))?;

    let nodes = [Node::create(seed ^ 0xf01d, from)?, Node::create(seed ^ 0xf11e, from)?];

    // Arm the plug-pull on the PRIMARY only; the followers' disks stay
    // healthy (follower crash-durability is covered by the storage
    // crate's replication tests).
    let mut rng = Rng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let ops0 = pri_sim.op_count();
    pri_sim.set_plan(FaultPlan {
        crash_at_op: Some(ops0 + rng.next() % CRASH_WINDOW),
        writeback: true,
        ..FaultPlan::default()
    });

    // Single-writer workload. After each commit, record the flushed
    // offset (the commit is durable below it, sync_commit forces the
    // log) and the full expected object state, then ship to each
    // follower with seeded probability so their lags diverge.
    let seg = SegmentId(0);
    let mut confirmed: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut commits: Vec<(u64, HashMap<u64, Vec<u8>>)> = Vec::new();
    let mut corrupt_budget = 2u32; // seeded chunk damage, at most twice a seed
    'workload: for txn_no in 0..TXNS {
        let t = match pri.begin() {
            Ok(t) => t,
            Err(_) => break 'workload, // dying
        };
        let mut after = confirmed.clone();
        let ops = 2 + (rng.next() % 4) as usize;
        for op_no in 0..ops {
            let live: Vec<u64> = after.keys().copied().collect();
            let choice = rng.next() % 10;
            let result = if choice < 6 || live.is_empty() {
                let data = payload(txn_no, op_no, &mut rng);
                pri.allocate(t, seg, ClusterHint::NONE, &data).map(|oid| {
                    after.insert(oid.raw(), data);
                })
            } else if choice < 8 {
                let oid = live[(rng.next() as usize) % live.len()];
                let data = payload(txn_no, op_no, &mut rng);
                pri.update(t, Oid::from_raw(oid), &data).map(|()| {
                    after.insert(oid, data);
                })
            } else {
                let oid = live[(rng.next() as usize) % live.len()];
                pri.free(t, Oid::from_raw(oid)).map(|()| {
                    after.remove(&oid);
                })
            };
            if result.is_err() {
                let _ = pri.abort(t);
                break 'workload;
            }
        }
        if rng.next().is_multiple_of(6) && txn_no > 0 {
            if pri.abort(t).is_err() {
                break 'workload;
            }
            continue;
        }
        match pri.commit(t) {
            Ok(()) => {
                confirmed = after;
                let lsn = match pri.replication_lsn() {
                    Ok(l) => l,
                    Err(_) => break 'workload,
                };
                commits.push((lsn, confirmed.clone()));
            }
            Err(_) => break 'workload, // mid-group-commit death: outcome unknown
        }
        for node in &nodes {
            if rng.next() % 10 < 7 {
                let corrupt = corrupt_budget > 0 && rng.next().is_multiple_of(5);
                if corrupt {
                    corrupt_budget -= 1;
                }
                if !ship(&pri, node, corrupt, &mut rng, tally)? {
                    break 'workload;
                }
            }
        }
    }
    tally.crashed += u64::from(pri_sim.crashed());
    let old_epoch = pri.store_epoch();
    drop(pri);

    // Promote the follower with the highest durable offset; quorum 1
    // means every commit *either* follower acked must survive, and the
    // max-offset follower dominates: its log position covers them all.
    let (winner, survivor) = if nodes[0].follower.durable_lsn() >= nodes[1].follower.durable_lsn()
    {
        (&nodes[0], &nodes[1])
    } else {
        (&nodes[1], &nodes[0])
    };
    let cut = winner.follower.durable_lsn();
    let acked: Vec<&(u64, HashMap<u64, Vec<u8>>)> =
        commits.iter().filter(|(lsn, _)| *lsn <= cut).collect();
    let expected: HashMap<u64, Vec<u8>> =
        acked.last().map(|(_, state)| state.clone()).unwrap_or_default();

    // Before promotion: the winner's live state must hold every
    // quorum-acked commit byte-exact...
    let live = dump(&winner.store)?;
    if live != expected {
        return Err(format!(
            "promoted follower diverges from the acked prefix: {} acked commits, \
             expected {} objects, found {}",
            acked.len(),
            expected.len(),
            live.len()
        ));
    }
    // ...and its DURABLE image must agree with its live state: a
    // follower reboot loses nothing it acked. Zero divergence, then a
    // clean scrub.
    {
        let twin_vfs: Arc<dyn Vfs> = Arc::new(winner.sim.clone_durable());
        let twin = Engine::open_with(Arc::clone(&twin_vfs), &winner.dir, Profile::ostore(), opts())
            .map_err(|e| format!("durable twin of the follower failed to open: {e}"))?;
        let twin_state = dump(&twin)?;
        if twin_state != live {
            return Err(format!(
                "follower durable twin diverges from live state \
                 ({} live objects, {} durable)",
                live.len(),
                twin_state.len()
            ));
        }
        drop(twin);
        let report = scrub_store(&twin_vfs, &winner.dir)
            .map_err(|e| format!("follower scrub: {e}"))?;
        if !report.clean() {
            return Err(format!(
                "follower scrub found unquarantined damage: pages {:?}",
                report.corrupt
            ));
        }
    }

    // Promote, fence the survivor, and confirm the winner takes writes.
    let new_epoch = winner
        .follower
        .promote()
        .map_err(|e| format!("promotion failed: {e}"))?;
    if new_epoch <= old_epoch {
        return Err(format!(
            "promotion epoch {new_epoch} does not dominate the dead primary's {old_epoch}"
        ));
    }
    survivor.follower.raise_fence(new_epoch);
    {
        let t = winner.store.begin().map_err(|e| format!("post-promotion begin: {e}"))?;
        winner
            .store
            .allocate(t, seg, ClusterHint::NONE, b"promoted")
            .map_err(|e| format!("post-promotion allocate: {e}"))?;
        winner.store.commit(t).map_err(|e| format!("post-promotion commit: {e}"))?;
    }

    // Zombie: reboot the dead primary and offer its log (stamped with
    // its pre-promotion epoch lineage) to the fenced survivor.
    pri_sim.power_loss();
    let zombie_vfs: Arc<dyn Vfs> = Arc::new(pri_sim.clone());
    let zombie = Engine::open_with(zombie_vfs, &pri_dir, Profile::ostore(), opts())
        .map_err(|e| format!("zombie reboot failed: {e}"))?;
    let zt = zombie.begin().map_err(|e| format!("zombie begin: {e}"))?;
    zombie
        .allocate(zt, seg, ClusterHint::NONE, b"zombie write")
        .map_err(|e| format!("zombie allocate: {e}"))?;
    zombie.commit(zt).map_err(|e| format!("zombie commit: {e}"))?;
    let zombie_epoch = zombie.store_epoch();
    if zombie_epoch >= new_epoch {
        return Err(format!(
            "zombie epoch {zombie_epoch} caught up with the promotion epoch {new_epoch}; \
             the fence margin is too small"
        ));
    }
    let chunk = zombie
        .wal_stream_from(0, CHUNK_CAP)
        .map_err(|e| format!("zombie stream: {e}"))?;
    match survivor.follower.ingest(zombie_epoch, chunk.start, &chunk.bytes) {
        Err(ReplError::Fenced { got, fence }) => {
            if got != zombie_epoch || fence < new_epoch {
                return Err(format!(
                    "fence refusal carries wrong epochs: got {got}, fence {fence}"
                ));
            }
            tally.fenced += 1;
        }
        Ok(_) => return Err("survivor replayed a fenced zombie's log".into()),
        Err(other) => {
            return Err(format!("zombie chunk: expected the typed Fenced refusal, got {other}"))
        }
    }
    Ok(())
}

/// Entry point: runs `seeds` seeds; returns the number of failures.
pub fn run(first_seed: u64, seeds: u64) -> u64 {
    let mut failures = 0;
    let mut tally = Tally::default();
    for seed in first_seed..first_seed + seeds {
        if let Err(why) = run_seed(seed, &mut tally) {
            failures += 1;
            eprintln!("failover: seed {seed} FAILED: {why}");
        }
    }
    if failures == 0 {
        println!(
            "failover: {seeds} seeds passed ({} primaries died mid-workload, \
             {} corrupt chunks refused and healed, {} zombie logs fenced)",
            tally.crashed, tally.healed, tally.fenced
        );
    }
    failures
}
