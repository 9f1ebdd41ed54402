//! `serve-read`: closed loop, two loopback connections to an in-process
//! `Server::start` over a cache-resident OStore image that `LabSim` built
//! to 0.5X of 1,000 clones (64 MiB pool). The operation is one tracking
//! query, drawn 40/40/12/8 from `state_of` / `recent` / `history` /
//! `find_material` on uniformly sampled materials.
//!
//! Why it exists: wire decode and encode, admission, the connection loop
//! and the lock-free read path are the whole cost. It bypasses the WAL,
//! the lock manager and buffer faults entirely, so a change to the write
//! path must leave it unmoved.

use std::path::PathBuf;
use std::sync::Arc;

use labbase::{LabBase, MaterialId, Value};
use labflow_core::{BenchConfig, LabSim, ServerVersion};
use labflow_server::proto::{Request, Response};
use labflow_server::{Client, ClientError, Server};
use labflow_storage::{Options, StorageManager};

use crate::common::{
    fresh_dir, is_refusal, repeat_setup, run_clients, set_space_amp, settle, start_server,
    stop_server, Fnv, Outcome, Phase, Res, RunArgs, Stop, CLIENTS,
};
use crate::lat::{quantile_us, summarize, Clock};
use crate::layers::{admit_ns_per_req, codec_ns_per_req, storage_op_us, Shares};
use crate::rng::Rng;
use crate::trace::{self, Probe};

const POOL_PAGES: usize = 16_384;
const ATTRS: [&str; 3] = ["sequence", "quality", "outcome"];
pub const KINDS: [&str; 4] = ["state_of", "recent", "history", "find_material"];
const CLIENT_SPANS: [&str; 4] = [
    "client.state_of",
    "client.recent",
    "client.history",
    "client.find_material",
];
const LABBASE_SPANS: [&str; 4] = [
    "labbase.state_of",
    "labbase.recent",
    "labbase.history",
    "labbase.find_material",
];

fn options() -> Options {
    Options {
        buffer_pages: POOL_PAGES,
        sync_commit: false,
        ..Options::default()
    }
}

/// The ledger of a read-only image: every answer the server may give,
/// read in process from the image it serves.
struct Expect {
    raw: u64,
    name: String,
    state: Option<String>,
    recent: [Option<(Value, i64, u64)>; 3],
    history: Vec<(u64, i64)>,
}

fn expect(db: &LabBase, m: MaterialId) -> Res<Expect> {
    let recent = |attr: &str| -> Res<_> {
        Ok(db
            .recent(m, attr)?
            .map(|r| (r.value, r.valid_time, r.step.oid().raw())))
    };
    Ok(Expect {
        raw: m.oid().raw(),
        name: db.material(m)?.name,
        state: db.state_of(m)?,
        recent: [recent(ATTRS[0])?, recent(ATTRS[1])?, recent(ATTRS[2])?],
        history: db
            .history(m)?
            .iter()
            .map(|e| (e.step.oid().raw(), e.valid_time))
            .collect(),
    })
}

/// One tracking query: its kind (index into [`KINDS`]), material and,
/// for `recent`, attribute.
#[derive(Clone, Copy)]
struct Query {
    kind: usize,
    mat: usize,
    attr: usize,
}

fn next_query(rng: &mut Rng, mats: usize) -> Query {
    let kind = match rng.below(100) {
        0..=39 => 0,
        40..=79 => 1,
        80..=91 => 2,
        _ => 3,
    };
    Query {
        kind,
        mat: rng.below(mats),
        attr: rng.below(ATTRS.len()),
    }
}

pub fn input_hash(seed: u64, mats: usize) -> u64 {
    let mut h = Fnv::new();
    for c in 0..CLIENTS as u64 {
        let mut rng = Rng::stream(seed, 100 + c);
        for _ in 0..1024 {
            let q = next_query(&mut rng, mats);
            h.u64(q.kind as u64);
            h.u64(q.mat as u64);
            h.u64(q.attr as u64);
        }
    }
    h.0
}

/// Issue `q` over the wire; `Ok(true)` if the answer matches the ledger.
fn ask(c: &mut Client, probe: &mut Probe, q: Query, e: &Expect) -> Result<bool, ClientError> {
    let span = CLIENT_SPANS[q.kind];
    Ok(match q.kind {
        0 => probe.call(0, span, || c.state_of(e.raw))? == e.state,
        1 => probe.call(0, span, || c.recent(e.raw, ATTRS[q.attr]))? == e.recent[q.attr],
        2 => probe.call(0, span, || c.history(e.raw))? == e.history,
        _ => probe.call(0, span, || c.find_material(&e.name))? == Some(e.raw),
    })
}

/// The same query through the calls a connection without an open
/// transaction makes.
fn ask_in_process(db: &LabBase, probe: &mut Probe, q: Query, e: &Expect) -> labbase::Result<bool> {
    let m = MaterialId::from(labflow_storage::Oid::from_raw(e.raw));
    let span = LABBASE_SPANS[q.kind];
    Ok(match q.kind {
        0 => probe.call(0, span, || db.state_of(m))? == e.state,
        1 => {
            probe
                .call(0, span, || db.recent(m, ATTRS[q.attr]))?
                .map(|r| (r.value, r.valid_time, r.step.oid().raw()))
                == e.recent[q.attr]
        }
        2 => {
            let h = probe.call(0, span, || db.history(m))?;
            h.iter()
                .map(|x| (x.step.oid().raw(), x.valid_time))
                .eq(e.history.iter().copied())
        }
        _ => probe.call(0, span, || db.find_material(&e.name))? == Some(m),
    })
}

/// The request and response frames of `q`, for the codec probe.
fn frames(q: Query, e: &Expect) -> (Request, Response) {
    match q.kind {
        0 => (
            Request::StateOf { material: e.raw },
            Response::State(e.state.clone()),
        ),
        1 => (
            Request::Recent {
                material: e.raw,
                attr: ATTRS[q.attr].into(),
            },
            Response::RecentValue(e.recent[q.attr].clone()),
        ),
        2 => (
            Request::History { material: e.raw },
            Response::History(e.history.clone()),
        ),
        _ => (
            Request::FindMaterial {
                name: e.name.clone(),
            },
            Response::MaybeMaterial(Some(e.raw)),
        ),
    }
}

/// Either side of the comparison: the wire clients, or the in-process
/// replay on the same number of threads.
fn run_phase(
    s: &mut Served,
    streams: &mut [Rng],
    clock: Clock,
    stop: &Stop,
    traced: bool,
    in_process: bool,
) -> Res<Phase> {
    let (db, expects) = (&*s.db, &s.expects);
    let samples = stop.capacity(3_000);
    let mut pairs: Vec<_> = s.clients.iter_mut().zip(streams.iter_mut()).collect();
    run_clients(
        db,
        &mut pairs,
        clock,
        samples,
        traced.then_some(samples),
        |(client, rng), w| {
            while w.more(stop) {
                let q = next_query(rng, expects.len());
                let e = &expects[q.mat];
                let t0 = clock.now_ns();
                let right = if in_process {
                    ask_in_process(db, &mut w.probe, q, e).unwrap_or(false)
                } else {
                    ask(client, &mut w.probe, q, e).unwrap_or_else(|e| {
                        w.retries += u64::from(is_refusal(&e));
                        false
                    })
                };
                let t1 = clock.now_ns();
                w.attempted += 1;
                if right {
                    w.rec.record(t1, t1 - t0, 1);
                } else {
                    w.failed += 1;
                }
            }
        },
    )
}

struct Served {
    dir: PathBuf,
    db: Arc<LabBase>,
    store: Arc<dyn StorageManager>,
    server: Server,
    expects: Vec<Expect>,
    clients: Vec<Client>,
}

/// Store create, schema, `LabSim` build to 0.5X, checkpoint, ledger,
/// server start, connect, warm-up queries.
fn setup(a: &RunArgs, clock: Clock) -> Res<Served> {
    let dir = fresh_dir(&a.out, "serve-read")?;
    let store = ServerVersion::OStore.make_store_with(&dir, options())?;
    let db = Arc::new(LabBase::create(Arc::clone(&store))?);
    let cfg = BenchConfig {
        seed: a.seed,
        base_clones: a.size(1000, 48),
        buffer_pages: POOL_PAGES,
        ..BenchConfig::default()
    };
    let mut sim = LabSim::new(cfg.clone());
    sim.setup(&db)?;
    sim.run_until_clones(&db, cfg.clones_at(0.5) as u64)?;
    db.checkpoint()?;
    let expects = sim
        .materials()
        .iter()
        .map(|m| expect(&db, *m))
        .collect::<Res<Vec<_>>>()?;
    let (server, clients) = start_server(&db)?;
    let mut served = Served {
        dir,
        db,
        store,
        server,
        expects,
        clients,
    };
    let mut warm: Vec<Rng> = (0..CLIENTS as u64)
        .map(|c| Rng::stream(a.seed, 200 + c))
        .collect();
    let w = run_phase(
        &mut served,
        &mut warm,
        clock,
        &Stop::Ops(a.size(2000, 50) as u64),
        false,
        false,
    )?;
    if w.failed > 0 {
        return Err(format!(
            "serve-read warm-up: {} of {} queries failed",
            w.failed, w.attempted
        )
        .into());
    }
    Ok(served)
}

fn teardown(s: Served) -> Res<(PathBuf, Arc<dyn StorageManager>)> {
    let Served {
        dir,
        db,
        store,
        server,
        clients,
        ..
    } = s;
    stop_server(server, clients, &db)?;
    Ok((dir, store))
}

pub fn run(a: &RunArgs) -> Res<Outcome> {
    let clock = Clock::start();
    let mut out = Outcome::default();
    settle(a, &mut out);
    let (mut s, setup_s) = repeat_setup(a, || setup(a, clock), |old| teardown(old).map(drop))?;
    out.input_hash = input_hash(a.seed, s.expects.len());
    settle(a, &mut out);
    let streams = || {
        (0..CLIENTS as u64)
            .map(|c| Rng::stream(a.seed, 100 + c))
            .collect::<Vec<Rng>>()
    };

    if a.trace {
        let mut rngs = streams();
        let plain = run_phase(
            &mut s,
            &mut rngs,
            clock,
            &Stop::After(a.phase_ns(0.25)),
            false,
            false,
        )?;
        let admission0 = s.server.admission();
        let traced = run_phase(
            &mut s,
            &mut rngs,
            clock,
            &Stop::After(a.phase_ns(0.25)),
            true,
            false,
        )?;
        let shed = s.server.admission().delta(&admission0).shed_total();
        // The same streams from the top, in process on the same image.
        let replay = run_phase(
            &mut s,
            &mut streams(),
            clock,
            &Stop::Ops(a.size(100_000, 500) as u64),
            true,
            true,
        )?;
        let (sp, st) = (
            summarize(&plain.recorders, plain.start_ns),
            summarize(&traced.recorders, traced.start_ns),
        );
        out.attempted = plain.attempted + traced.attempted + replay.attempted;
        out.failed = plain.failed + traced.failed + replay.failed;
        out.set(
            "trace_overhead_pct",
            100.0 * (sp.ops_per_s - st.ops_per_s) / sp.ops_per_s,
        );
        out.note("traced_ops_per_s", st.ops_per_s);
        out.set_tail(&sp);
        out.set("server.shed", shed as f64);
        out.set("server.retries", (plain.retries + traced.retries) as f64);

        let wire = trace::self_times(&traced.tracers);
        let inproc = trace::self_times(&replay.tracers);
        let (mut wire_ns, mut labbase_ns) = (0.0, 0.0);
        for k in 0..KINDS.len() {
            let mut w = trace::durations(&traced.tracers, CLIENT_SPANS[k]);
            out.set_quantiles(
                &format!("labbase.{}", KINDS[k]),
                trace::durations(&replay.tracers, LABBASE_SPANS[k]),
            );
            out.set(
                &format!("server.rtt_overhead_us.{}", KINDS[k]),
                quantile_us(&mut w, 0.5) - out.metrics[&format!("labbase.{}_p50_us", KINDS[k])],
            );
            let (wt, lt) = (
                wire.get(CLIENT_SPANS[k]).copied().unwrap_or_default(),
                inproc.get(LABBASE_SPANS[k]).copied().unwrap_or_default(),
            );
            wire_ns += wt.total_ns as f64;
            labbase_ns += wt.count as f64 * lt.total_ns as f64 / lt.count.max(1) as f64;
        }
        out.set(
            "mrv.reads_per_query",
            traced.stats.reads as f64 / st.ops.max(1) as f64,
        );
        out.set(
            "mrv.snapshot_reads_per_query",
            traced.stats.snapshot_reads as f64 / st.ops.max(1) as f64,
        );
        out.set_storage_counters(&traced.stats, &traced.waits, st.ops);
        let op_us = storage_op_us(&a.out, options(), 400, a.size(1500, 50), a.seed)?;
        op_us.record(&mut out);
        let scale = st.ops as f64 / replay.attempted.max(1) as f64;
        Shares {
            op_total_ns: wire_ns,
            server_ns: wire_ns - labbase_ns,
            labbase_calls_ns: labbase_ns,
            storage_ns: op_us.estimate_ns(&replay.stats) * scale,
            waits: replay.waits,
        }
        .record(&mut out);

        let mut rng = Rng::stream(a.seed, 100);
        let sample: Vec<_> = (0..a.size(20_000, 200))
            .map(|_| {
                let q = next_query(&mut rng, s.expects.len());
                frames(q, &s.expects[q.mat])
            })
            .collect();
        out.set("server.codec_ns_per_req", codec_ns_per_req(&sample)?);
        out.set("server.admit_ns_per_req", admit_ns_per_req()?);
        trace::write_json(
            &a.out.join("trace-serve-read.json"),
            "serve-read",
            &traced.tracers,
        )?;
    } else {
        let phase = run_phase(
            &mut s,
            &mut streams(),
            clock,
            &Stop::After(a.phase_ns(1.0)),
            false,
            false,
        )?;
        out.attempted = phase.attempted;
        out.failed = phase.failed;
        out.set_end_to_end(&summarize(&phase.recorders, phase.start_ns), &setup_s);
    }

    let (dir, store) = teardown(s)?;
    set_space_amp(a, &mut out, store.as_ref(), store.stats().bytes_allocated)?;
    drop(store);
    std::fs::remove_dir_all(&dir)?;
    Ok(out)
}
