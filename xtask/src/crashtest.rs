//! Crash-recovery torture harness (`cargo xtask crashtest --seeds N`).
//!
//! Per seed: build an OStore on a seeded [`SimVfs`], run a multi-client
//! workload against it, pull the plug at a seed-chosen file operation
//! (with background-writeback and torn-write simulation armed), recover,
//! and check the durability contract:
//!
//! * every transaction whose commit returned `Ok` is fully present;
//! * no effect of any other transaction survives — except that the one
//!   transaction per client whose commit *errored* (outcome unknown at
//!   the client) may be present atomically, all-or-nothing;
//! * no object outside the clients' ledgers exists (nothing resurrects);
//! * recovery is deterministic (two recoveries of copies of the same
//!   crashed image agree) and idempotent (re-opening the already-
//!   recovered store changes nothing).
//!
//! One seed in [`LONG_LOG_EVERY`] runs a long log: its clients skip the
//! checkpoints and write payloads of a few kilobytes, so the log crosses
//! the first zero-filled granule of its file (`wal::FILL`) before the
//! plug is pulled, and recovery reads a log that ends inside fill
//! rather than at the end of the file. The run prints how many seeds'
//! durable logs crossed.
//!
//! Clients work on disjoint object sets, so each client's slice of the
//! recovered store must match its own ledger exactly; lock conflicts
//! never abort a transaction, which keeps the ledger bookkeeping honest.
//!
//! With `--corrupt`, each seed additionally injects one storage fault
//! (class chosen by `seed % 3`): a **misdirected write** mid-workload, a
//! **durable bit flip** applied to one store file after the power loss,
//! or a **volatile namespace** (creates/renames lose a seeded suffix at
//! power loss unless directory-synced). The contract widens from "the
//! ledger survives" to "nothing is silently wrong": recovery must either
//! refuse the image with a typed corruption error, or open it with every
//! casualty quarantined (reads fail typed) and every readable object
//! byte-exact against a ledger image — and the recovered image must then
//! pass an offline scrub with zero unquarantined damage. The one
//! irreducible case — rot in the log's final frame, indistinguishable
//! from a crash tear — counts only if replay *reported* discarding those
//! bytes.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use labflow_storage::wal_testing::{Wal, FILL};
use labflow_storage::{
    scrub_store, ClusterHint, Engine, FaultPlan, Oid, Options, Profile, SegmentId, SimVfs,
    StorageError, StorageManager, Visibility, Vfs,
};

const CLIENTS: usize = 4;
/// Snapshot-reader threads running alongside the writers. They pin
/// snapshots while the machine dies, so recovery is always exercised
/// with reader-pinned versions in flight (and with snapshots that were
/// never released, which must not matter after a reboot).
const READERS: usize = 2;
const TXNS_PER_CLIENT: usize = 48;
const CHECKPOINT_EVERY: usize = 12;
/// Window (in file operations after setup) within which the crash and
/// the transient fault land. Sized so most seeds die mid-workload and
/// the rest exercise the clean-completion path.
const CRASH_WINDOW: u64 = 400;
/// Every this many seeds, one runs a long log (see the module docs).
const LONG_LOG_EVERY: u64 = 4;

/// Tiny deterministic RNG (xorshift64*), one per client, so the workload
/// depends only on the seed — never on thread interleaving.
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

/// How a client's final transaction ended.
enum LastTxn {
    /// All transactions resolved (committed, aborted, or rolled back by
    /// an error before any commit attempt): the store must show exactly
    /// the confirmed state.
    Resolved,
    /// The last commit call returned an error, so the client cannot know
    /// whether it is durable: the store may show the confirmed state or
    /// this after-image, but nothing in between.
    Unknown(HashMap<u64, Vec<u8>>),
}

/// One client's view of what it did: object payloads after the last
/// reported (`Ok`) commit, plus every oid it was ever handed.
struct Ledger {
    client: usize,
    confirmed: HashMap<u64, Vec<u8>>,
    owned_ever: Vec<u64>,
    last: LastTxn,
}

fn payload(client: usize, txn: usize, op: usize, long_log: bool, rng: &mut Rng) -> Vec<u8> {
    let mut p = vec![client as u8, (txn & 0xff) as u8, op as u8];
    let filler = if long_log { 1024 + rng.next() % 3072 } else { 32 + rng.next() % 96 } as usize;
    p.extend((0..filler).map(|i| (rng.next() as u8) ^ (i as u8)));
    p
}

/// One client's workload: transactions of a few allocate/update/free
/// operations over its own objects, some deliberately aborted, stopping
/// at the first error (the simulated machine is dying or dead).
fn client_loop(store: &Engine, client: usize, seed: u64, long_log: bool) -> Ledger {
    let mut rng = Rng::new(seed.wrapping_mul(CLIENTS as u64 + 1).wrapping_add(client as u64));
    let mut ledger = Ledger {
        client,
        confirmed: HashMap::new(),
        owned_ever: Vec::new(),
        last: LastTxn::Resolved,
    };
    let seg = SegmentId((client % 4) as u8);
    for txn_no in 0..TXNS_PER_CLIENT {
        let deliberate_abort = rng.next().is_multiple_of(5) && txn_no > 0;
        let t = match store.begin() {
            Ok(t) => t,
            Err(_) => return ledger, // dying: nothing started
        };
        let mut after = ledger.confirmed.clone();
        let ops = 2 + (rng.next() % 4) as usize;
        for op_no in 0..ops {
            let live: Vec<u64> = after.keys().copied().collect();
            let choice = rng.next() % 10;
            let result = if choice < 5 || live.is_empty() {
                let data = payload(client, txn_no, op_no, long_log, &mut rng);
                store.allocate(t, seg, ClusterHint::NONE, &data).map(|oid| {
                    ledger.owned_ever.push(oid.raw());
                    after.insert(oid.raw(), data);
                })
            } else if choice < 8 {
                let oid = live[(rng.next() as usize) % live.len()];
                let data = payload(client, txn_no, op_no, long_log, &mut rng);
                store.update(t, Oid::from_raw(oid), &data).map(|()| {
                    after.insert(oid, data);
                })
            } else {
                let oid = live[(rng.next() as usize) % live.len()];
                store.free(t, Oid::from_raw(oid)).map(|()| {
                    after.remove(&oid);
                })
            };
            if result.is_err() {
                // The transaction never reached commit: whatever the
                // engine did, recovery must roll it back.
                let _ = store.abort(t);
                return ledger;
            }
        }
        if deliberate_abort {
            if store.abort(t).is_err() {
                return ledger; // still a loser: confirmed state expected
            }
            continue;
        }
        match store.commit(t) {
            Ok(()) => {
                ledger.confirmed = after;
            }
            Err(_) => {
                // The force may or may not have reached the platter.
                ledger.last = LastTxn::Unknown(after);
                return ledger;
            }
        }
        if client == 0 && !long_log && txn_no % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1 {
            // Checkpoints race the crash too; a failed one (power loss
            // mid-checkpoint, or a wounded engine) is part of the test.
            let _ = store.checkpoint();
        }
    }
    ledger
}

/// One snapshot reader: repeatedly pin a snapshot, read a handful of
/// live objects through it twice (with the whole batch between the two
/// passes), and demand byte-identical answers — concurrent writers and
/// version GC must never move a pinned version. Read *errors* are
/// tolerated (the simulated machine may be dying), with one exception:
/// an object that resolved in the snapshot and then turned into
/// `UnknownObject` within the same snapshot means a pinned version was
/// reclaimed.
fn reader_loop(store: &Engine, seed: u64, stop: &AtomicBool) -> Result<(), String> {
    let mut rng = Rng::new(seed ^ 0x5eed_5eed_5eed_5eed);
    while !stop.load(Ordering::Relaxed) {
        let snap = match store.begin_snapshot() {
            Ok(s) => s,
            Err(_) => break, // dying machine: nothing left to observe
        };
        let live = store.live_oids();
        if !live.is_empty() {
            let picks: Vec<Oid> = (0..4.min(live.len()))
                .map(|_| live[(rng.next() as usize) % live.len()])
                .collect();
            let first: Vec<Option<Vec<u8>>> =
                picks.iter().map(|&oid| store.read_vis(Visibility::At(snap), oid).ok()).collect();
            for (i, &oid) in picks.iter().enumerate() {
                if first[i].is_none() {
                    continue;
                }
                match store.read_vis(Visibility::At(snap), oid) {
                    Ok(again) if Some(&again) == first[i].as_ref() => {}
                    Ok(_) => {
                        store.release_snapshot(snap);
                        return Err(format!(
                            "oid {} changed bytes within one pinned snapshot",
                            oid.raw()
                        ));
                    }
                    Err(StorageError::UnknownObject(_)) => {
                        store.release_snapshot(snap);
                        return Err(format!(
                            "oid {} vanished from a pinned snapshot (version reclaimed?)",
                            oid.raw()
                        ));
                    }
                    Err(_) => {} // I/O death throes: not a contract breach
                }
            }
        }
        // Half the iterations deliberately leak the snapshot: a crash
        // can always land before release, and recovery must not care.
        if rng.next().is_multiple_of(2) {
            store.release_snapshot(snap);
        }
    }
    Ok(())
}

/// Readable objects (oid → payload) plus the oids whose reads failed
/// with a *typed* corruption error (quarantined casualties).
type DumpResult = (HashMap<u64, Vec<u8>>, HashSet<u64>);

/// Read every live object out of a recovered store. Any read failure
/// that is not a typed corruption error is a harness failure.
fn dump(store: &Engine) -> Result<DumpResult, String> {
    let mut readable = HashMap::new();
    let mut damaged: HashSet<u64> = store.damaged_oids().iter().map(|o| o.raw()).collect();
    for oid in store.live_oids() {
        match store.read(oid) {
            Ok(data) => {
                readable.insert(oid.raw(), data);
            }
            Err(e) if e.is_corruption() => {
                damaged.insert(oid.raw());
            }
            Err(e) => {
                return Err(format!("live oid {} unreadable after recovery: {e}", oid.raw()))
            }
        }
    }
    Ok((readable, damaged))
}

/// Whether the recovered store is consistent with `image` for one
/// client: every object the image expects is either readable with the
/// exact payload or a typed casualty — never silently missing or
/// silently wrong — and nothing the image lacks is readable. With an
/// empty `damaged` set this degrades to exact equality on the client's
/// slice (the strict no-fault contract).
fn matches_image(
    owned: &[u64],
    image: &HashMap<u64, Vec<u8>>,
    readable: &HashMap<u64, Vec<u8>>,
    damaged: &HashSet<u64>,
) -> bool {
    for (oid, want) in image {
        match readable.get(oid) {
            Some(got) if got == want => {}
            Some(_) => return false,            // silently wrong bytes
            None if damaged.contains(oid) => {} // typed casualty
            None => return false,               // silently missing
        }
    }
    owned.iter().all(|oid| image.contains_key(oid) || !readable.contains_key(oid))
}

/// Check one client's slice of the recovered store against its ledger.
fn check_client(
    ledger: &Ledger,
    readable: &HashMap<u64, Vec<u8>>,
    damaged: &HashSet<u64>,
) -> Result<(), String> {
    if matches_image(&ledger.owned_ever, &ledger.confirmed, readable, damaged) {
        return Ok(());
    }
    if let LastTxn::Unknown(after) = &ledger.last {
        if matches_image(&ledger.owned_ever, after, readable, damaged) {
            return Ok(());
        }
        return Err(format!(
            "client {}: recovered state matches neither the confirmed image \
             ({} objects) nor the unknown-outcome image ({} objects)",
            ledger.client,
            ledger.confirmed.len(),
            after.len(),
        ));
    }
    let mut detail = String::new();
    if std::env::var_os("CRASHTEST_DEBUG").is_some() {
        for oid in &ledger.owned_ever {
            let (want, got) = (ledger.confirmed.get(oid), readable.get(oid));
            if want == got {
                continue;
            }
            match got {
                Some(data) => detail.push_str(&format!(
                    "\n  extra/changed oid {oid}: payload tag client={} txn={} op={}",
                    data.first().copied().unwrap_or(255),
                    data.get(1).copied().unwrap_or(255),
                    data.get(2).copied().unwrap_or(255),
                )),
                None if damaged.contains(oid) => {}
                None => detail.push_str(&format!("\n  missing oid {oid}")),
            }
        }
    }
    Err(format!(
        "client {}: recovered state diverges from the confirmed image \
         (expected {} objects, {} readable, {} typed casualties){detail}",
        ledger.client,
        ledger.confirmed.len(),
        readable.len(),
        damaged.len(),
    ))
}

fn opts() -> Options {
    Options {
        // Small pool: evictions (and dirty-page steals) happen a lot.
        buffer_pages: 24,
        sync_commit: true,
        lock_timeout: Duration::from_millis(200),
    }
}

/// Diagnostic aid: print the durable log of a failing seed.
fn dump_wal(sim: &SimVfs, dir: &Path) {
    use labflow_storage::wal_testing::WalRecord;
    let vfs: Arc<dyn Vfs> = Arc::new(sim.clone_durable());
    if let Ok(replayed) = Wal::replay(&vfs, &dir.join("wal.log")) {
        for r in &replayed.records {
            let line = match r {
                WalRecord::Reset(e) => format!("Reset({e})"),
                WalRecord::Begin(t) => format!("Begin({t})"),
                WalRecord::Commit(t) => format!("Commit({t})"),
                WalRecord::Abort(t) => format!("Abort({t})"),
                WalRecord::Alloc { txn, oid, .. } => format!("Alloc(txn {txn}, oid {})", oid.raw()),
                WalRecord::Update { txn, oid, .. } => {
                    format!("Update(txn {txn}, oid {})", oid.raw())
                }
                WalRecord::Free { txn, oid, .. } => format!("Free(txn {txn}, oid {})", oid.raw()),
            };
            eprintln!("  wal: {line}");
        }
    }
}

/// What one finished seed looked like.
struct SeedOutcome {
    /// The planned crash fired mid-workload.
    crashed: bool,
    /// Corrupt mode only: recovery (or replay of the pre-recovery
    /// image) refused the damage with a typed report rather than
    /// repairing around it — detection without repair, a legitimate
    /// outcome that still counts as "never silently absorbed".
    detected: bool,
    /// Workload checkpoints that appended a meta delta segment.
    deltas: u64,
    /// Workload checkpoints that replaced outgrown deltas with a new
    /// meta base segment (the base `create` writes is not counted).
    compactions: u64,
    /// The durable log ran past its first zero-filled granule.
    crossed: bool,
}

/// Replay the pre-recovery durable log and report whether it *declared*
/// a discarded tail. Rot in the log's final frame is indistinguishable
/// from a crash tear, so losing those bytes is acceptable exactly when
/// replay reports the loss instead of absorbing it.
fn wal_reported_truncation(sim: &SimVfs, dir: &Path) -> bool {
    let vfs: Arc<dyn Vfs> = Arc::new(sim.clone_durable());
    Wal::replay(&vfs, &dir.join("wal.log")).is_ok_and(|r| r.bytes_truncated > 0)
}

/// Run one seed end to end. Returns how it went, or a human-readable
/// violation if the durability contract broke.
fn run_seed(seed: u64, corrupt: bool) -> Result<SeedOutcome, String> {
    let sim = SimVfs::new(seed);
    let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
    let dir = PathBuf::from("/crash/store");
    let store = Engine::create_with(vfs, &dir, Profile::ostore(), opts())
        .map_err(|e| format!("create failed before any fault was armed: {e}"))?;

    // Arm the plug-pull (and one transient error) somewhere in the
    // workload's operation stream, plus — in corrupt mode — one wider
    // fault whose class rotates with the seed.
    let mut rng = Rng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let long_log = seed % LONG_LOG_EVERY == LONG_LOG_EVERY - 1;
    let ops0 = sim.op_count();
    let mut plan = FaultPlan {
        crash_at_op: Some(ops0 + rng.next() % CRASH_WINDOW),
        fail_ops: vec![ops0 + rng.next() % CRASH_WINDOW],
        writeback: true,
        ..FaultPlan::default()
    };
    let class = if corrupt { Some(seed % 3) } else { None };
    match class {
        Some(0) => plan.misdirect_ops = vec![ops0 + rng.next() % CRASH_WINDOW],
        Some(2) => plan.volatile_namespace = true,
        _ => {}
    }
    sim.set_plan(plan);

    let stop_readers = AtomicBool::new(false);
    let (ledgers, reader_results): (Vec<Ledger>, Vec<Result<(), String>>) =
        std::thread::scope(|scope| {
            let store = &store;
            let stop = &stop_readers;
            let readers: Vec<_> = (0..READERS)
                .map(|r| {
                    scope.spawn(move || reader_loop(store, seed.wrapping_add(r as u64), stop))
                })
                .collect();
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| scope.spawn(move || client_loop(store, c, seed, long_log)))
                .collect();
            let ledgers = handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| panic!("client thread panicked")))
                .collect();
            stop.store(true, Ordering::Relaxed);
            let reader_results = readers
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| panic!("reader thread panicked")))
                .collect();
            (ledgers, reader_results)
        });
    let stats = store.stats();
    let compactions = stats.meta_compactions.saturating_sub(1);
    let deltas = stats.checkpoints.saturating_sub(stats.meta_compactions);
    drop(store);
    for r in reader_results {
        r.map_err(|why| format!("snapshot reader: {why}"))?;
    }

    // Pull the plug (a no-op reboot if the workload outran the window),
    // then recover from copies of the same dead disk.
    let crashed = sim.crashed();
    if std::env::var_os("CRASHTEST_DEBUG").is_some() {
        eprintln!("  seed {seed}: {} file ops used, crashed={crashed}", sim.op_count() - ops0);
    }
    sim.power_loss();
    let wal_len = Arc::new(sim.clone()) as Arc<dyn Vfs>;
    let crossed = wal_len.size(&dir.join("wal.log")).ok().flatten().is_some_and(|n| n > FILL);

    // Class 1: at-rest rot — flip one durable bit in a seed-chosen
    // store file after the machine is already dead.
    let mut rot_target: Option<&str> = None;
    if class == Some(1) {
        let targets = ["data.pg", "store.meta", "wal.log"];
        let t = targets[(rng.next() as usize) % targets.len()];
        if sim.flip_durable_bit(&dir.join(t)).is_some() {
            rot_target = Some(t);
        }
    }

    let image = sim.clone_durable();
    let twin = sim.clone_durable();

    let (readable, damaged) = {
        let vfs: Arc<dyn Vfs> = Arc::new(image.clone());
        match Engine::open_with(vfs, &dir, Profile::ostore(), opts()) {
            Ok(store) => dump(&store)?,
            Err(e) if corrupt && e.is_corruption() => {
                return Ok(SeedOutcome { crashed, detected: true, deltas, compactions, crossed });
            }
            Err(e) => return Err(format!("recovery failed: {e}")),
        }
    };
    if !corrupt && !damaged.is_empty() {
        return Err(format!(
            "{} objects quarantined after recovery with no fault injected",
            damaged.len()
        ));
    }
    for ledger in &ledgers {
        if let Err(why) = check_client(ledger, &readable, &damaged) {
            if rot_target == Some("wal.log") && wal_reported_truncation(&sim, &dir) {
                // The flip landed where only a reported-and-discarded
                // log tail explains the divergence (see module docs).
                return Ok(SeedOutcome { crashed, detected: true, deltas, compactions, crossed });
            }
            if std::env::var_os("CRASHTEST_DEBUG").is_some() {
                dump_wal(&sim, &dir);
            }
            return Err(why);
        }
    }
    let known: HashSet<u64> = ledgers.iter().flat_map(|l| l.owned_ever.iter().copied()).collect();
    for oid in readable.keys() {
        if !known.contains(oid) {
            return Err(format!("object {oid} exists after recovery but no client made it"));
        }
    }

    // Determinism: an independent recovery of the same crashed image
    // must land on the same logical state — same readable bytes, same
    // typed casualties.
    {
        let vfs: Arc<dyn Vfs> = Arc::new(twin);
        let store = Engine::open_with(vfs, &dir, Profile::ostore(), opts())
            .map_err(|e| format!("twin recovery failed: {e}"))?;
        if dump(&store)? != (readable.clone(), damaged.clone()) {
            return Err("recovery is nondeterministic: twin image disagrees".into());
        }
    }
    // Idempotence: the recovered-and-checkpointed store reopens to the
    // same state.
    {
        let vfs: Arc<dyn Vfs> = Arc::new(image.clone());
        let store = Engine::open_with(vfs, &dir, Profile::ostore(), opts())
            .map_err(|e| format!("re-recovery failed: {e}"))?;
        if dump(&store)? != (readable, damaged) {
            return Err("recovery is not idempotent: second open diverges".into());
        }
    }
    // The recovered image must audit clean: every surviving byte
    // verifiable, every casualty quarantined — nothing silently wrong.
    {
        let vfs: Arc<dyn Vfs> = Arc::new(image);
        let report = scrub_store(&vfs, &dir).map_err(|e| format!("post-recovery scrub: {e}"))?;
        if !report.clean() {
            return Err(format!(
                "post-recovery scrub found unquarantined damage: pages {:?}",
                report.corrupt
            ));
        }
    }
    Ok(SeedOutcome { crashed, detected: false, deltas, compactions, crossed })
}

/// Entry point: runs `seeds` seeds, printing progress; returns the
/// number of failing seeds.
pub fn run(first_seed: u64, seeds: u64, corrupt: bool) -> u64 {
    let mut failures = 0;
    let mut crashed = 0;
    let mut detected = 0;
    let (mut deltas, mut compactions, mut crossed) = (0, 0, 0);
    for seed in first_seed..first_seed + seeds {
        match run_seed(seed, corrupt) {
            Ok(outcome) => {
                crashed += u64::from(outcome.crashed);
                detected += u64::from(outcome.detected);
                deltas += outcome.deltas;
                compactions += outcome.compactions;
                crossed += u64::from(outcome.crossed);
            }
            Err(why) => {
                failures += 1;
                eprintln!("crashtest: seed {seed} FAILED: {why}");
            }
        }
    }
    // The plug must be pulled around both kinds of meta segment. Were
    // the compaction rule retuned until this workload's checkpoints were
    // all of one kind, the other kind's crash windows would go untested
    // without a seed failing.
    if seeds >= 16 && (deltas == 0 || compactions == 0) {
        failures += 1;
        eprintln!(
            "crashtest: {seeds} seeds crossed {deltas} meta delta appends and {compactions} \
             compactions; the workload must exercise both"
        );
    }
    // Likewise the long-log seeds must take some logs past a fill
    // granule, or a log ending inside fill goes untested.
    if seeds >= 16 && crossed == 0 {
        failures += 1;
        eprintln!("crashtest: no durable log of {seeds} seeds crossed its first fill granule");
    }
    println!("crashtest: checkpoints wrote {deltas} meta deltas and {compactions} compacted bases");
    println!(
        "crashtest: {crossed} of {} long-log seeds' durable logs crossed a {} KiB fill granule",
        (first_seed..first_seed + seeds).filter(|s| s % LONG_LOG_EVERY == LONG_LOG_EVERY - 1).count(),
        FILL >> 10
    );
    if failures == 0 && corrupt {
        println!(
            "crashtest --corrupt: {seeds} seeds passed ({crashed} died mid-workload; \
             {detected} refused the image with a typed report, \
             {} recovered and scrubbed clean)",
            seeds - detected
        );
    } else if failures == 0 {
        println!(
            "crashtest: {seeds} seeds passed \
             ({crashed} died mid-workload, {} outran the crash window)",
            seeds - crashed
        );
    }
    failures
}
