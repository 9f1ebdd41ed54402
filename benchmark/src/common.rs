//! What the workloads share: run arguments and outcome, the station-visit
//! generator, the per-material ledger every acknowledged write is checked
//! against, and the store helpers (create, prefill, reopen-and-verify).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use labbase::schema::attrs;
use labbase::{AttrType, LabBase, MaterialId, Value};
use labflow_core::ServerVersion;
use labflow_server::{Client, ClientError, Server, ServerConfig, TenantQuotas};
use labflow_storage::{wait_snapshot, Options, StatsSnapshot, StorageManager, WaitSnapshot};

use crate::lat::{median, quantile_us, Clock, Recorder, Summary};
use crate::rng::Rng;
use crate::trace::{Probe, Tracer};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// The box has two cores: no workload runs more client threads or opens
/// more connections than this.
pub const CLIENTS: usize = 2;

/// Times set-up is run per untraced invocation; `setup_s` is the median.
/// The first is always the slowest (cold files), and three left the median
/// one jittery run away from it: 0.29 s and 0.38 s on two runs of one commit.
pub const SETUP_REPEATS: usize = 5;

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced pass: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny populations, for `cargo test`; the offered-rate validity check
    /// of `serve-step` is off because tests share the cores.
    pub smoke: bool,
    /// Where store directories and trace files go.
    pub out: PathBuf,
}

impl RunArgs {
    /// `full` normally, `smoke` under `--smoke`.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    pub fn phase_ns(&self, share: f64) -> u64 {
        (self.seconds * share * 1e9) as u64
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Failed, refused (`Retry`/`Overloaded`) or answered wrongly.
    pub failed: u64,
    /// Verification failures; empty means the outputs were correct.
    pub problems: Vec<String>,
    /// Hash of the generated op stream: equal seeds, equal hashes.
    pub input_hash: u64,
    /// Metric name to value, as named in `BENCHMARK.json`.
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts and other context printed beside the metrics.
    pub notes: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.insert(name.to_string(), value);
    }

    /// What every untraced run takes from its summary; `space_amp` follows
    /// once the store has been reopened and checkpointed.
    pub fn set_end_to_end(&mut self, s: &Summary, setup_s: &[f64]) {
        self.set("ops_per_s", s.ops_per_s);
        self.set("op_p50_us", s.p50_us);
        self.note("op_p99_us", s.p99_us);
        self.set("setup_s", median(setup_s.to_vec()));
        self.note("samples", s.samples as f64);
        self.note("ops", s.ops as f64);
        self.note("measured_s", s.elapsed_s);
        for (i, secs) in setup_s.iter().enumerate() {
            self.note(&format!("setup{i}_s"), *secs);
        }
        for (i, r) in s.slice_ops_per_s.iter().enumerate() {
            self.note(&format!("slice{i}_ops_per_s"), *r);
        }
    }

    /// `op_p99_us` is a per-layer metric (its run-to-run spread is wider
    /// than any bound allowed): the traced pass takes it from its own
    /// untraced phase.
    pub fn set_tail(&mut self, s: &Summary) {
        self.set("op_p99_us", s.p99_us);
        self.note("op_p99_samples_beyond", s.p99_beyond as f64);
    }

    /// `<prefix>_p50_us`, `_p99_us`, `_count` from raw durations.
    pub fn set_quantiles(&mut self, prefix: &str, mut lat_ns: Vec<u32>) {
        self.set(&format!("{prefix}_count"), lat_ns.len() as f64);
        self.set(&format!("{prefix}_p50_us"), quantile_us(&mut lat_ns, 0.50));
        self.set(&format!("{prefix}_p99_us"), quantile_us(&mut lat_ns, 0.99));
    }

    /// The storage-layer counters every workload reports the same way,
    /// from `StatsSnapshot` and `wait_snapshot()` deltas over `steps`
    /// operations of the traced phase.
    pub fn set_storage_counters(&mut self, d: &StatsSnapshot, waits: &WaitSnapshot, steps: u64) {
        let per_step = |n: u64| n as f64 / steps.max(1) as f64;
        // `faults` also counts freshly allocated pages, which read nothing;
        // `page_reads` is the misses that went to the data file.
        self.set(
            "storage.hit_rate",
            1.0 - d.page_reads as f64 / (d.hits + d.faults).max(1) as f64,
        );
        self.set("storage.faults_per_step", per_step(d.page_reads));
        self.note(
            "pool_new_pages",
            d.faults.saturating_sub(d.page_reads) as f64,
        );
        self.set("storage.page_writes", d.page_writes as f64);
        self.set(
            "storage.write_amp",
            (d.wal_bytes + 4096 * d.page_writes) as f64 / d.bytes_allocated.max(1) as f64,
        );
        self.set("storage.wal_bytes_per_step", per_step(d.wal_bytes));
        self.set("storage.wal_force_ms", d.wal_force_nanos as f64 / 1e6);
        self.set(
            "storage.commits_per_sync",
            d.commits as f64 / d.wal_syncs.max(1) as f64,
        );
        self.set(
            "storage.commit_wait_ms",
            waits.commit_wait_nanos as f64 / 1e6,
        );
        self.set("storage.lock_wait_ms", waits.lock_wait_nanos as f64 / 1e6);
        self.set("storage.heap_wait_ms", d.heap_wait_nanos as f64 / 1e6);
        self.set(
            "labbase.storage_ops_per_step",
            per_step(d.allocs + d.updates + d.reads),
        );
    }
}

/// Let the box go quiet. For some seconds after a workload that saturates
/// both cores (`serve-read`), everything that crosses threads is slower on
/// this sandbox: a wake-up costs 50-60 us in place of 6-9 us, and a
/// `serve-step` run started then measured a p50 of 560 us in place of
/// 240 us for its whole length. Five idle seconds cure it. So every run
/// measures a wake-up twice, when it starts and again after set-up, and
/// each time stays idle for `IDLE` if the box is in that state. What it
/// saw is printed as the notes `wake_rtt_us` (the worst) and `settle_s`.
pub fn settle(a: &RunArgs, out: &mut Outcome) {
    const QUIET_US: f64 = 20.0;
    const IDLE: Duration = Duration::from_secs(6);
    if a.smoke {
        return;
    }
    let t0 = Instant::now();
    let wake_us = wake_rtt_us();
    if wake_us > QUIET_US {
        std::thread::sleep(IDLE);
    }
    let note = |out: &Outcome, name: &str| out.notes.get(name).copied().unwrap_or(0.0);
    out.note("wake_rtt_us", wake_us.max(note(out, "wake_rtt_us")));
    out.note(
        "settle_s",
        t0.elapsed().as_secs_f64() + note(out, "settle_s"),
    );
}

/// Median round trip of a message to a thread that was asleep.
fn wake_rtt_us() -> f64 {
    let (ping, pinged) = std::sync::mpsc::channel::<()>();
    let (pong, ponged) = std::sync::mpsc::channel::<()>();
    let echo = std::thread::spawn(
        move || {
            while pinged.recv().is_ok() && pong.send(()).is_ok() {}
        },
    );
    let mut rtt_ns: Vec<u32> = (0..60)
        .filter_map(|_| {
            std::thread::sleep(Duration::from_micros(300));
            let t0 = Instant::now();
            ping.send(()).ok()?;
            ponged.recv().ok()?;
            Some(t0.elapsed().as_nanos() as u32)
        })
        .collect();
    drop(ping);
    let _ = echo.join();
    quantile_us(&mut rtt_ns, 0.5)
}

/// When a closed loop ends.
pub enum Stop {
    /// After this many operations per client.
    Ops(u64),
    /// This long after the client's first instant.
    After(u64),
}

impl Stop {
    /// Samples to make room for, if no operation takes under `min_op_ns`.
    pub fn capacity(&self, min_op_ns: u64) -> usize {
        match self {
            Stop::Ops(n) => *n as usize,
            Stop::After(ns) => (ns / min_op_ns) as usize,
        }
    }
}

/// One client thread's side of a phase: what its loop records into.
pub struct Worker {
    pub rec: Recorder,
    pub probe: Probe,
    pub attempted: u64,
    pub failed: u64,
    /// Failures that were a typed `Retry` or `Overloaded`.
    pub retries: u64,
    start_ns: u64,
}

impl Worker {
    /// Whether a closed loop bounded by `stop` goes round again.
    pub fn more(&self, stop: &Stop) -> bool {
        match stop {
            Stop::Ops(n) => self.attempted < *n,
            Stop::After(ns) => self.probe.clock.now_ns() < self.start_ns + ns,
        }
    }
}

/// Whether the server refused the request (`Retry` or `Overloaded`).
pub fn is_refusal(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Retry { .. } | ClientError::Overloaded { .. }
    )
}

/// What all the client threads of one phase produced.
pub struct Phase {
    /// The earliest client's first instant.
    pub start_ns: u64,
    pub recorders: Vec<Recorder>,
    pub tracers: Vec<Tracer>,
    /// `wait_snapshot()` deltas, summed over the client threads.
    pub waits: WaitSnapshot,
    /// `StatsSnapshot` delta over the phase.
    pub stats: StatsSnapshot,
    pub attempted: u64,
    pub failed: u64,
    pub retries: u64,
}

/// Run `body` once per client, each on its own thread, all released
/// together. `samples` sizes each recorder; `spans` sizes each tracer and
/// makes the phase a traced one.
pub fn run_clients<C: Send>(
    db: &LabBase,
    clients: &mut [C],
    clock: Clock,
    samples: usize,
    spans: Option<usize>,
    body: impl Fn(&mut C, &mut Worker) + Sync,
) -> Res<Phase> {
    let stats0 = db.stats();
    let barrier = Barrier::new(clients.len());
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let (barrier, body) = (&barrier, &body);
                scope.spawn(move || {
                    let tracer = spans.map(|cap| Tracer::new(i as u32, cap));
                    let mut w = Worker {
                        rec: Recorder::with_capacity(samples),
                        probe: Probe::new(clock, tracer),
                        attempted: 0,
                        failed: 0,
                        retries: 0,
                        start_ns: 0,
                    };
                    barrier.wait();
                    let waits0 = wait_snapshot();
                    w.start_ns = clock.now_ns();
                    body(client, &mut w);
                    (w, wait_snapshot().delta(&waits0))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    });
    let mut phase = Phase {
        start_ns: u64::MAX,
        recorders: Vec::new(),
        tracers: Vec::new(),
        waits: WaitSnapshot::default(),
        stats: db.stats().delta(&stats0),
        attempted: 0,
        failed: 0,
        retries: 0,
    };
    for r in results {
        let (w, waits) = r.map_err(|_| "client thread panicked")?;
        phase.start_ns = phase.start_ns.min(w.start_ns);
        phase.recorders.push(w.rec);
        phase.tracers.extend(w.probe.into_tracer());
        phase.waits = sum_waits(&[phase.waits, waits]);
        phase.attempted += w.attempted;
        phase.failed += w.failed;
        phase.retries += w.retries;
    }
    Ok(phase)
}

/// Run set-up [`SETUP_REPEATS`] times (once in the traced pass, which
/// reports no `setup_s`), tearing down every result but the last. Returns
/// the last with the seconds each run took.
pub fn repeat_setup<T>(
    a: &RunArgs,
    mut setup: impl FnMut() -> Res<T>,
    mut teardown: impl FnMut(T) -> Res<()>,
) -> Res<(T, Vec<f64>)> {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..if a.trace { 1 } else { SETUP_REPEATS } {
        if let Some(old) = last.take() {
            teardown(old)?;
        }
        let t0 = Instant::now();
        last = Some(setup()?);
        seconds.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.ok_or("no set-up ran")?, seconds))
}

/// Sum of per-thread wait deltas.
pub fn sum_waits(waits: &[WaitSnapshot]) -> WaitSnapshot {
    waits
        .iter()
        .fold(WaitSnapshot::default(), |a, w| WaitSnapshot {
            lock_wait_nanos: a.lock_wait_nanos + w.lock_wait_nanos,
            commit_wait_nanos: a.commit_wait_nanos + w.commit_wait_nanos,
            commit_force_nanos: a.commit_force_nanos + w.commit_force_nanos,
            heap_wait_nanos: a.heap_wait_nanos + w.heap_wait_nanos,
            lock_condvar_waits: a.lock_condvar_waits + w.lock_condvar_waits,
            name_index_wait_nanos: a.name_index_wait_nanos + w.name_index_wait_nanos,
        })
}

/// 64-bit FNV-1a, for `input_hash`.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

// ---- station visits -------------------------------------------------------

pub const MATERIAL_CLASS: &str = "clone";
pub const STEP_CLASS: &str = "determine_sequence";
/// The attribute whose most-recent value identifies the last visit.
pub const MARKER_ATTR: &str = "read_length";
pub const STATES: [&str; 4] = ["queued", "running", "done", "archived"];

/// One station visit's inputs: a `determine_sequence`-shaped step of
/// about 500 bytes on one material, and the state it moves to.
#[derive(Clone, Debug, PartialEq)]
pub struct Visit {
    /// Index into the visiting client's material slice.
    pub slot: usize,
    pub valid_time: i64,
    pub state: &'static str,
    /// Unique per visit; stored as [`MARKER_ATTR`].
    pub marker: i64,
    pub attrs: Vec<(String, Value)>,
}

impl Visit {
    /// The `index`-th visit of a stream, on `slot`. Valid times rise with
    /// `index`, so the latest visit to a material is its most recent.
    pub fn generate(
        rng: &mut Rng,
        stream: u64,
        index: u64,
        slot: usize,
        state: &'static str,
    ) -> Visit {
        let marker = ((stream << 40) | index) as i64;
        let bases = 420 + rng.below(120);
        let attrs = vec![
            ("sequence".to_string(), Value::Dna(rng.dna(bases))),
            ("quality".to_string(), Value::Real(rng.unit())),
            (MARKER_ATTR.to_string(), Value::Int(marker)),
            (
                "machine".to_string(),
                Value::Str(format!("ABI-{}", 373 + rng.below(4))),
            ),
        ];
        Visit {
            slot,
            valid_time: index as i64 + 1,
            state,
            marker,
            attrs,
        }
    }

    pub fn hash_into(&self, h: &mut Fnv) {
        h.u64(self.slot as u64);
        h.u64(self.valid_time as u64);
        h.bytes(self.state.as_bytes());
        for (name, value) in &self.attrs {
            h.bytes(name.as_bytes());
            h.bytes(format!("{value:?}").as_bytes());
        }
    }
}

/// One station visit as an in-process transaction: the calls a server
/// connection makes for `Begin`, `RecordStep`, `SetState`, `Commit`.
pub fn visit_txn(
    db: &LabBase,
    probe: &mut Probe,
    op: u32,
    mat: MaterialId,
    valid_time: i64,
    state: &str,
    attrs: Vec<(String, Value)>,
) -> labbase::Result<()> {
    let mut s = probe.call(op, "labbase.session", || db.session())?;
    probe.call(op, "labbase.record_step", || {
        s.record_step(STEP_CLASS, valid_time, &[mat], attrs)
    })?;
    probe.call(op, "labbase.set_state", || {
        s.set_state(mat, state, valid_time)
    })?;
    probe.call(op, "labbase.commit", || s.commit())
}

// ---- ledger ---------------------------------------------------------------

/// What the generator knows a material must look like: updated only when
/// a visit's commit was acknowledged.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MatLedger {
    pub steps: u32,
    pub state: Option<&'static str>,
    /// `(marker, valid_time)` of the last acknowledged visit.
    pub last: Option<(i64, i64)>,
    /// A visit failed part-way: its fate is unknown, so the material is
    /// not checked (and the visit counted as failed).
    pub tainted: bool,
}

impl MatLedger {
    pub fn apply(&mut self, v: &Visit) {
        self.steps += 1;
        self.state = Some(v.state);
        self.last = Some((v.marker, v.valid_time));
    }
}

/// Compare every material with its ledger entry: history length, state,
/// and most-recent marker. Anything acknowledged must be there; anything
/// else (an unacknowledged step) makes a history too long and is caught.
pub fn verify_ledger(
    db: &LabBase,
    mats: &[MaterialId],
    ledger: &[MatLedger],
    problems: &mut Vec<String>,
) -> Res<()> {
    let before = problems.len();
    for (m, want) in mats.iter().zip(ledger).filter(|(_, l)| !l.tainted) {
        let steps = db.history(*m)?.len();
        let state = db.state_of(*m)?;
        let last = db.recent(*m, MARKER_ATTR)?.map(|r| (r.value, r.valid_time));
        let want_last = want.last.map(|(marker, vt)| (Value::Int(marker), vt));
        let differs =
            steps != want.steps as usize || state.as_deref() != want.state || last != want_last;
        if differs && problems.len() - before < 5 {
            problems.push(format!(
                "{m}: found {steps} steps, state {state:?}, last {last:?}; ledger says {want:?}"
            ));
        }
    }
    Ok(())
}

// ---- stores ---------------------------------------------------------------

/// An empty directory `out/<tag>`.
pub fn fresh_dir(out: &Path, tag: &str) -> Res<PathBuf> {
    let dir = out.join(tag);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A new disk-backed OStore database.
pub fn create_db(dir: &Path, opts: Options) -> Res<(Arc<LabBase>, Arc<dyn StorageManager>)> {
    let store = ServerVersion::OStore.make_store_with(dir, opts)?;
    let db = Arc::new(LabBase::create(Arc::clone(&store))?);
    Ok((db, store))
}

/// Define the visit schema and create `n` materials in one transaction,
/// checkpoint, and warm the shared indexes.
pub fn prefill(db: &LabBase, n: usize) -> Res<Vec<MaterialId>> {
    let txn = db.begin()?;
    db.define_material_class(txn, MATERIAL_CLASS, None)?;
    db.define_step_class(
        txn,
        STEP_CLASS,
        attrs(&[
            ("sequence", AttrType::Dna),
            ("quality", AttrType::Real),
            (MARKER_ATTR, AttrType::Int),
            ("machine", AttrType::Str),
        ]),
    )?;
    let mut mats = Vec::with_capacity(n);
    for i in 0..n {
        mats.push(db.create_material(txn, MATERIAL_CLASS, &format!("clone-{i:07}"), 0)?);
    }
    db.commit(txn)?;
    db.checkpoint()?;
    let _ = db.count_in_state(STATES[0])?;
    let _ = db.find_material("clone-0000000")?;
    Ok(mats)
}

/// No quotas: the benchmark measures the server, not its shedding.
pub const UNLIMITED: TenantQuotas = TenantQuotas {
    max_sessions: 0,
    max_inflight: 0,
    bytes_per_sec: 0,
};

/// An in-process server over `db`, and one connection per client.
pub fn start_server(db: &Arc<LabBase>) -> Res<(Server, Vec<Client>)> {
    let config = ServerConfig {
        quotas: UNLIMITED,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(db), config)?;
    let clients = (0..CLIENTS)
        .map(|c| Client::connect(server.local_addr(), c as u32 + 1))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((server, clients))
}

/// Close the connections, drain the server, and check that it left no
/// session or snapshot open.
pub fn stop_server(server: Server, clients: Vec<Client>, db: &LabBase) -> Res<()> {
    drop(clients);
    server.shutdown()?;
    if db.open_sessions() != 0 || db.store().open_snapshots() != 0 {
        return Err("server shutdown left sessions or snapshots open".into());
    }
    Ok(())
}

/// The result of reopening a store that was dropped without a checkpoint.
pub struct Reopened {
    pub db: LabBase,
    pub store: Arc<dyn StorageManager>,
    /// `ServerVersion::open_store` (WAL replay) plus `LabBase::open`.
    pub reopen_ms: f64,
}

pub fn reopen(dir: &Path, buffer_pages: usize) -> Res<Reopened> {
    let t0 = std::time::Instant::now();
    let store = ServerVersion::OStore.open_store(dir, buffer_pages)?;
    let db = LabBase::open(Arc::clone(&store))?;
    Ok(Reopened {
        db,
        store,
        reopen_ms: t0.elapsed().as_secs_f64() * 1e3,
    })
}

/// `space_amp`, on untraced runs: bytes on disk after a checkpoint over
/// the logical bytes ever allocated. Both sizes are noted beside it.
pub fn set_space_amp(
    a: &RunArgs,
    out: &mut Outcome,
    store: &dyn StorageManager,
    bytes_allocated: u64,
) -> Res<()> {
    store.checkpoint()?;
    let disk = store
        .db_size_bytes()?
        .ok_or("store reports no on-disk size")?;
    out.note("disk_bytes", disk as f64);
    out.note("bytes_allocated", bytes_allocated as f64);
    if !a.trace {
        out.set("space_amp", disk as f64 / bytes_allocated.max(1) as f64);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_hash(seed: u64) -> u64 {
        let mut rng = Rng::stream(seed, 1);
        let mut h = Fnv::new();
        for i in 0..64 {
            let slot = rng.below(100);
            Visit::generate(&mut rng, 1, i, slot, STATES[i as usize % 4]).hash_into(&mut h);
        }
        h.0
    }

    #[test]
    fn one_seed_one_visit_stream() {
        assert_eq!(stream_hash(5), stream_hash(5));
        assert_ne!(stream_hash(5), stream_hash(6));
    }

    #[test]
    fn visits_are_about_500_bytes_and_markers_are_unique() {
        let mut rng = Rng::stream(1, 0);
        let a = Visit::generate(&mut rng, 2, 0, 0, STATES[0]);
        let b = Visit::generate(&mut rng, 2, 1, 0, STATES[1]);
        assert_ne!(a.marker, b.marker);
        assert!(b.valid_time > a.valid_time);
        let bytes: usize = a
            .attrs
            .iter()
            .map(|(n, v)| n.len() + format!("{v:?}").len())
            .sum();
        assert!((450..700).contains(&bytes), "{bytes}");
    }

    #[test]
    fn ledger_verification_catches_lost_and_phantom_steps() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let dir = fresh_dir(&out, &format!("test-ledger-{}", std::process::id())).unwrap();
        let (db, _store) = create_db(&dir, Options::default()).unwrap();
        let mats = prefill(&db, 4).unwrap();
        let mut ledger = vec![MatLedger::default(); 4];
        let mut rng = Rng::stream(1, 0);
        for i in 0..3u64 {
            let v = Visit::generate(&mut rng, 0, i, i as usize, STATES[1]);
            let mut s = db.session().unwrap();
            s.record_step(STEP_CLASS, v.valid_time, &[mats[v.slot]], v.attrs.clone())
                .unwrap();
            s.set_state(mats[v.slot], v.state, v.valid_time).unwrap();
            s.commit().unwrap();
            ledger[v.slot].apply(&v);
        }
        let mut problems = Vec::new();
        verify_ledger(&db, &mats, &ledger, &mut problems).unwrap();
        assert!(problems.is_empty(), "{problems:?}");

        // A step the ledger never saw acknowledged, and one it saw that is
        // not in the database.
        ledger[0].steps = 0;
        ledger[3].steps = 1;
        verify_ledger(&db, &mats, &ledger, &mut problems).unwrap();
        assert_eq!(problems.len(), 2, "{problems:?}");
        // A tainted material is skipped.
        problems.clear();
        ledger[0].tainted = true;
        ledger[3].tainted = true;
        verify_ledger(&db, &mats, &ledger, &mut problems).unwrap();
        assert!(problems.is_empty());
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}
