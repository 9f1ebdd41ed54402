//! `commit-2c`: closed loop, two in-process `Session` clients on disjoint
//! halves of a cache-resident population; the operation is one durable
//! transaction (`record_step` + `set_state` + `commit`, `sync_commit` on).
//!
//! Why it exists: lock manager, WAL append, log-writer queue and force
//! carry the run — zero buffer faults, no wire. Durable commits were
//! chosen because the no-sync variant spread +-20 % on this box while the
//! durable one repeated within 6 %.

use labbase::{LabBase, MaterialId};
use labflow_storage::Options;

use crate::common::{
    create_db, fresh_dir, prefill, reopen, repeat_setup, run_clients, set_space_amp, settle,
    verify_ledger, visit_txn, Fnv, MatLedger, Outcome, Phase, Res, RunArgs, Stop, Visit, CLIENTS,
    STATES,
};
use crate::lat::{summarize, Clock};
use crate::layers::{storage_op_us, Shares};
use crate::rng::Rng;
use crate::trace;

/// 128 MiB: the run appends about 1 KiB per transaction, and the workload
/// is only about the commit path while none of it is evicted.
const BUFFER_PAGES: usize = 32_768;

fn options() -> Options {
    Options {
        buffer_pages: BUFFER_PAGES,
        sync_commit: true,
        ..Options::default()
    }
}

/// One closed-loop client: its visit stream, its half of the materials
/// and the ledger for them.
pub struct VisitClient {
    stream: u64,
    rng: Rng,
    next: u64,
    pub mats: Vec<MaterialId>,
    pub ledger: Vec<MatLedger>,
}

impl VisitClient {
    pub fn new(seed: u64, stream: u64, mats: Vec<MaterialId>) -> VisitClient {
        let ledger = vec![MatLedger::default(); mats.len()];
        VisitClient {
            stream,
            rng: Rng::stream(seed, stream),
            next: 0,
            mats,
            ledger,
        }
    }

    /// Uniform over the client's own materials.
    fn next_visit(&mut self, slots: usize) -> Visit {
        let slot = self.rng.below(slots);
        let state = STATES[self.rng.below(STATES.len())];
        let v = Visit::generate(&mut self.rng, self.stream, self.next, slot, state);
        self.next += 1;
        v
    }
}

/// Hash of the first visits of every client's stream for `seed`.
pub fn input_hash(seed: u64, slots_per_client: usize) -> u64 {
    let mut h = Fnv::new();
    for c in 0..CLIENTS as u64 {
        let mut client = VisitClient::new(seed, c, Vec::new());
        for _ in 0..256 {
            client.next_visit(slots_per_client).hash_into(&mut h);
        }
    }
    h.0
}

/// Run every client's closed loop on its own thread until `stop`.
fn run_phase(
    db: &LabBase,
    clients: &mut [VisitClient],
    clock: Clock,
    stop: &Stop,
    traced: bool,
) -> Res<Phase> {
    let samples = stop.capacity(20_000);
    let spans = traced.then_some(samples * 5);
    run_clients(db, clients, clock, samples, spans, |client, w| {
        while w.more(stop) {
            let mut v = client.next_visit(client.mats.len());
            let attrs = std::mem::take(&mut v.attrs);
            let mat = client.mats[v.slot];
            let t0 = clock.now_ns();
            let op = w.probe.open("commit-2c.txn", t0);
            let r = visit_txn(db, &mut w.probe, op, mat, v.valid_time, v.state, attrs);
            let t1 = clock.now_ns();
            w.probe.close(op, t1);
            w.attempted += 1;
            match r {
                Ok(()) => {
                    w.rec.record(t1, t1 - t0, 1);
                    client.ledger[v.slot].apply(&v);
                }
                Err(_) => {
                    w.failed += 1;
                    client.ledger[v.slot].tainted = true;
                }
            }
        }
    })
}

struct Setup {
    dir: std::path::PathBuf,
    db: std::sync::Arc<LabBase>,
    store: std::sync::Arc<dyn labflow_storage::StorageManager>,
    clients: Vec<VisitClient>,
}

/// Store create, schema, prefill, checkpoint, warm-up transactions.
fn setup(a: &RunArgs, clock: Clock) -> Res<Setup> {
    let dir = fresh_dir(&a.out, "commit-2c")?;
    let (db, store) = create_db(&dir, options())?;
    let mats = prefill(&db, a.size(20_000, 1_000))?;
    let mut clients: Vec<VisitClient> = (0..CLIENTS)
        .map(|c| {
            VisitClient::new(
                a.seed,
                c as u64,
                mats.iter().skip(c).step_by(CLIENTS).copied().collect(),
            )
        })
        .collect();
    let warm = run_phase(
        &db,
        &mut clients,
        clock,
        &Stop::Ops(a.size(300, 20) as u64),
        false,
    )?;
    if warm.failed > 0 {
        return Err(format!(
            "commit-2c warm-up: {} of {} transactions failed",
            warm.failed, warm.attempted
        )
        .into());
    }
    Ok(Setup {
        dir,
        db,
        store,
        clients,
    })
}

pub fn run(a: &RunArgs) -> Res<Outcome> {
    let clock = Clock::start();
    let mut out = Outcome::default();
    settle(a, &mut out);
    let (s, setup_s) = repeat_setup(a, || setup(a, clock), |_| Ok(()))?;
    let Setup {
        dir,
        db,
        store,
        mut clients,
    } = s;
    out.input_hash = input_hash(a.seed, clients[0].mats.len());
    settle(a, &mut out);

    if a.trace {
        let plain = run_phase(
            &db,
            &mut clients,
            clock,
            &Stop::After(a.phase_ns(0.25)),
            false,
        )?;
        let traced = run_phase(
            &db,
            &mut clients,
            clock,
            &Stop::After(a.phase_ns(0.25)),
            true,
        )?;
        let (sp, st) = (
            summarize(&plain.recorders, plain.start_ns),
            summarize(&traced.recorders, traced.start_ns),
        );
        out.attempted = plain.attempted + traced.attempted;
        out.failed = plain.failed + traced.failed;
        out.set(
            "trace_overhead_pct",
            100.0 * (sp.ops_per_s - st.ops_per_s) / sp.ops_per_s,
        );
        out.note("traced_ops_per_s", st.ops_per_s);
        out.set_tail(&sp);
        for op in ["record_step", "set_state", "commit"] {
            out.set_quantiles(
                &format!("labbase.{op}"),
                trace::durations(&traced.tracers, &format!("labbase.{op}")),
            );
        }
        out.set_storage_counters(&traced.stats, &traced.waits, st.ops);
        let op_us = storage_op_us(&a.out, options(), 560, a.size(1500, 50), a.seed)?;
        op_us.record(&mut out);
        let times = trace::self_times(&traced.tracers);
        Shares {
            op_total_ns: times["commit-2c.txn"].total_ns as f64,
            server_ns: 0.0,
            labbase_calls_ns: times
                .iter()
                .filter(|(k, _)| k.starts_with("labbase."))
                .map(|(_, t)| t.total_ns as f64)
                .sum(),
            storage_ns: op_us.estimate_ns(&traced.stats),
            waits: traced.waits,
        }
        .record(&mut out);
        trace::write_json(
            &a.out.join("trace-commit-2c.json"),
            "commit-2c",
            &traced.tracers,
        )?;
    } else {
        let phase = run_phase(
            &db,
            &mut clients,
            clock,
            &Stop::After(a.phase_ns(1.0)),
            false,
        )?;
        out.attempted = phase.attempted;
        out.failed = phase.failed;
        let summary = summarize(&phase.recorders, phase.start_ns);
        out.set_end_to_end(&summary, &setup_s);
    }

    // Drop the store with no checkpoint, recover from the WAL, and hold
    // every material against the ledger.
    let allocated = store.stats().bytes_allocated;
    drop(db);
    drop(store);
    let re = reopen(&dir, BUFFER_PAGES)?;
    out.set("storage.reopen_ms", re.reopen_ms);
    for c in &clients {
        verify_ledger(&re.db, &c.mats, &c.ledger, &mut out.problems)?;
    }
    set_space_amp(a, &mut out, re.store.as_ref(), allocated)?;
    drop(re);
    std::fs::remove_dir_all(&dir)?;
    Ok(out)
}
