//! `serve-step`: **open loop**. One Poisson schedule of station visits at
//! 2,000/s (about 40 % of the 5,000/s two connections reach in a closed
//! loop on this box), served by two connections that each take the next
//! due arrival.
//! A visit is `begin`, `record_step`, `set_state`, `commit`, then
//! `state_of` + `recent`, against a disk OStore with `sync_commit` off;
//! its latency runs from the instant it was *due*. The generator sleeps
//! (it does not spin) and reports how late it ran; a run that achieves
//! under 95 % of the offered rate is invalid, not slow.
//!
//! Why it exists: the whole chain from client send to response, on
//! mostly idle connections — what a lab station sees. A lone connection
//! pays several times the per-request cost of a busy pair, and the
//! closed-loop p99 is five times the p50: this workload owns the tail.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use labbase::{LabBase, MaterialId, Value};
use labflow_server::proto::{Request, Response};
use labflow_server::{Client, ClientError, Server};
use labflow_storage::{wait_snapshot, Options, StorageManager};

use crate::common::{
    create_db, fresh_dir, is_refusal, prefill, reopen, repeat_setup, run_clients, set_space_amp,
    settle, start_server, stop_server, verify_ledger, visit_txn, Fnv, MatLedger, Outcome, Phase,
    Res, RunArgs, Visit, MARKER_ATTR, STATES, STEP_CLASS,
};
use crate::lat::{quantile_us, summarize, Clock};
use crate::layers::{admit_ns_per_req, codec_ns_per_req, storage_op_us, Shares};
use crate::rng::Rng;
use crate::trace::{self, Probe, Tracer};

/// Offered visits per second. ISSUE 11 planned 4,000/s against a probed
/// saturation of 10.6k/s; with this visit (six requests, a 500-byte step)
/// two closed-loop connections saturate at about 5,000/s here, and 4,000/s
/// ran the generator 39 ms late at p99, so the rate keeps the planned
/// share of saturation instead of the planned number.
const RATE: f64 = 2000.0;
/// 128 MiB, as `commit-2c`: the run appends about 1 KiB per visit and
/// nothing it wrote is to be evicted.
const POOL_PAGES: usize = 32_768;
const STREAM: u64 = 3;

fn options() -> Options {
    Options {
        buffer_pages: POOL_PAGES,
        ..Options::default()
    }
}

/// The `index`-th visit of the run. Which connection serves it is decided
/// at run time, so each visit has a generator stream of its own.
fn visit_at(seed: u64, index: u64, population: usize) -> Visit {
    let slot = (index % population as u64) as usize;
    let state = STATES[((index + index / population as u64) % STATES.len() as u64) as usize];
    Visit::generate(
        &mut Rng::stream(seed, 1_000_000 + index),
        STREAM,
        index,
        slot,
        state,
    )
}

/// Arrival offsets in nanoseconds: exponential gaps with mean `1/RATE`.
fn schedule(seed: u64, count: usize) -> Vec<u64> {
    let mut rng = Rng::stream(seed, 300);
    let mut at = 0.0;
    (0..count)
        .map(|_| {
            at += rng.exp(1e9 / RATE);
            at as u64
        })
        .collect()
}

pub fn input_hash(seed: u64, population: usize) -> u64 {
    let mut h = Fnv::new();
    for at in schedule(seed, 512) {
        h.u64(at);
    }
    for i in 0..256 {
        visit_at(seed, i, population).hash_into(&mut h);
    }
    h.0
}

/// One visit over the wire; `Ok(true)` if both reads match what the
/// visit just committed.
fn visit_over_wire(
    c: &mut Client,
    probe: &mut Probe,
    op: u32,
    raw: u64,
    v: &mut Visit,
) -> Result<bool, ClientError> {
    let attrs = std::mem::take(&mut v.attrs);
    probe.call(op, "client.begin", || c.begin())?;
    let step = probe.call(op, "client.record_step", || {
        c.record_step(STEP_CLASS, v.valid_time, &[raw], attrs)
    })?;
    probe.call(op, "client.set_state", || {
        c.set_state(raw, v.state, v.valid_time)
    })?;
    probe.call(op, "client.commit", || c.commit())?;
    let state = probe.call(op, "client.state_of", || c.state_of(raw))?;
    let recent = probe.call(op, "client.recent", || c.recent(raw, MARKER_ATTR))?;
    Ok(state.as_deref() == Some(v.state)
        && recent == Some((Value::Int(v.marker), v.valid_time, step)))
}

struct Served {
    dir: PathBuf,
    db: Arc<LabBase>,
    store: Arc<dyn StorageManager>,
    server: Server,
    mats: Vec<MaterialId>,
    ledger: Vec<MatLedger>,
    conns: Vec<Conn>,
    /// Index of the next visit: valid times rise across phases.
    next_index: u64,
}

/// One connection, and what its thread learned in the last phase.
struct Conn {
    client: Client,
    /// Start minus due, per visit served right.
    late_ns: Vec<u32>,
    /// Offsets (into the phase's schedule) of acknowledged visits.
    acked: Vec<usize>,
    /// Offsets of visits that failed part-way.
    tainted: Vec<usize>,
}

/// Serve `offsets.len()` visits, each due at its offset after the phase
/// start (all-zero offsets make a closed loop, used for warm-up). Returns
/// the phase and how late each served visit started.
fn run_phase(
    a: &RunArgs,
    s: &mut Served,
    clock: Clock,
    offsets: &[u64],
    traced: bool,
) -> Res<(Phase, Vec<u32>)> {
    let next = AtomicUsize::new(0);
    let (first, population) = (s.next_index, s.mats.len());
    let mats = &s.mats;
    // Far enough ahead that both workers are running when the first
    // arrival falls due.
    let start_ns = clock.now_ns() + 2_000_000;
    let spans = traced.then_some(offsets.len() * 8);
    let mut phase = run_clients(
        &s.db,
        &mut s.conns,
        clock,
        offsets.len(),
        spans,
        |conn, w| loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            let Some(offset) = offsets.get(k) else { break };
            let due = start_ns + offset;
            let mut v = visit_at(a.seed, first + k as u64, population);
            let now = clock.now_ns();
            if now < due {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            let start = clock.now_ns().max(due);
            let op = w.probe.open("serve-step.visit", due);
            w.probe.leaf(op, "generator.late", due, start);
            let raw = mats[v.slot].oid().raw();
            let r = visit_over_wire(&mut conn.client, &mut w.probe, op, raw, &mut v);
            let done = clock.now_ns();
            w.probe.close(op, done);
            w.attempted += 1;
            match r {
                Ok(right) => {
                    conn.acked.push(k);
                    if right {
                        w.rec.record(done, done - due, 1);
                        conn.late_ns
                            .push(u32::try_from(start - due).unwrap_or(u32::MAX));
                    } else {
                        w.failed += 1;
                    }
                }
                Err(e) => {
                    w.failed += 1;
                    w.retries += u64::from(is_refusal(&e));
                    conn.tainted.push(k);
                    let _ = conn.client.abort();
                }
            }
        },
    )?;
    phase.start_ns = start_ns;
    // The ledger takes the acknowledged visits in visit order.
    let mut acked: Vec<usize> = s.conns.iter_mut().flat_map(|c| c.acked.drain(..)).collect();
    acked.sort_unstable();
    for k in acked {
        let v = visit_at(a.seed, first + k as u64, population);
        s.ledger[v.slot].apply(&v);
    }
    for k in s.conns.iter_mut().flat_map(|c| c.tainted.drain(..)) {
        s.ledger[(first as usize + k) % population].tainted = true;
    }
    s.next_index += offsets.len() as u64;
    let late_ns = s
        .conns
        .iter_mut()
        .flat_map(|c| c.late_ns.drain(..))
        .collect();
    Ok((phase, late_ns))
}

/// Store create, schema, prefill, checkpoint, server start, connect,
/// warm-up visits.
fn setup(a: &RunArgs, clock: Clock) -> Res<Served> {
    let dir = fresh_dir(&a.out, "serve-step")?;
    let (db, store) = create_db(&dir, options())?;
    let mats = prefill(&db, a.size(20_000, 1_000))?;
    let (server, clients) = start_server(&db)?;
    let ledger = vec![MatLedger::default(); mats.len()];
    let conns = clients
        .into_iter()
        .map(|client| Conn {
            client,
            late_ns: Vec::new(),
            acked: Vec::new(),
            tainted: Vec::new(),
        })
        .collect();
    let mut s = Served {
        dir,
        db,
        store,
        server,
        mats,
        ledger,
        conns,
        next_index: 0,
    };
    let (warm, _) = run_phase(a, &mut s, clock, &vec![0; a.size(600, 40)], false)?;
    if warm.failed > 0 {
        return Err(format!(
            "serve-step warm-up: {} of {} visits failed",
            warm.failed, warm.attempted
        )
        .into());
    }
    Ok(s)
}

struct Stopped {
    dir: PathBuf,
    store: Arc<dyn StorageManager>,
    mats: Vec<MaterialId>,
    ledger: Vec<MatLedger>,
}

/// Stop the server; what is left is what verification needs.
fn teardown(s: Served) -> Res<Stopped> {
    let Served {
        dir,
        db,
        store,
        server,
        mats,
        ledger,
        conns,
        ..
    } = s;
    stop_server(server, conns.into_iter().map(|c| c.client).collect(), &db)?;
    Ok(Stopped {
        dir,
        store,
        mats,
        ledger,
    })
}

/// Visits achieved per second over visits offered per second.
fn achieved_share(phase: &Phase, offsets: &[u64]) -> f64 {
    let done = phase
        .recorders
        .iter()
        .flat_map(|r| r.samples())
        .map(|s| s.done_ns)
        .max()
        .unwrap_or(phase.start_ns);
    let served: usize = phase.recorders.iter().map(|r| r.samples().len()).sum();
    let offered_s = offsets.last().copied().unwrap_or(1).max(1) as f64 / 1e9;
    let achieved_s = done.saturating_sub(phase.start_ns).max(1) as f64 / 1e9;
    (served as f64 / achieved_s) / (offsets.len() as f64 / offered_s)
}

pub fn run(a: &RunArgs) -> Res<Outcome> {
    let clock = Clock::start();
    let mut out = Outcome::default();
    settle(a, &mut out);
    let (mut s, setup_s) = repeat_setup(a, || setup(a, clock), |old| teardown(old).map(drop))?;
    out.input_hash = input_hash(a.seed, s.mats.len());
    settle(a, &mut out);

    let share = if a.trace { 0.25 } else { 1.0 };
    let offsets = schedule(a.seed, ((RATE * a.seconds * share) as usize).max(10));
    let achieved;
    if a.trace {
        let (plain, _) = run_phase(a, &mut s, clock, &offsets, false)?;
        let admission0 = s.server.admission();
        let (traced, mut late) = run_phase(a, &mut s, clock, &offsets, true)?;
        let shed = s.server.admission().delta(&admission0).shed_total();
        achieved = achieved_share(&traced, &offsets);
        let (sp, st) = (
            summarize(&plain.recorders, plain.start_ns),
            summarize(&traced.recorders, traced.start_ns),
        );
        out.attempted = plain.attempted + traced.attempted;
        out.failed = plain.failed + traced.failed;
        // Open loop: both passes are offered the same rate, so the cost of
        // tracing shows in the latency, not the throughput.
        out.set(
            "trace_overhead_pct",
            100.0 * (st.p50_us - sp.p50_us) / sp.p50_us,
        );
        out.note("traced_ops_per_s", st.ops_per_s);
        out.set_tail(&sp);
        out.note("traced_op_p50_us", st.p50_us);
        out.set("server.shed", shed as f64);
        out.set("server.retries", (plain.retries + traced.retries) as f64);
        out.set("gen_late_p99_us", quantile_us(&mut late, 0.99));

        // The same visits in process, one closed-loop client, for the
        // labbase and storage side of each request.
        let replay_n = a.size(3000, 30) as u64;
        let mut probe = Probe::new(clock, Some(Tracer::new(9, replay_n as usize * 8)));
        let (stats0, waits0) = (s.store.stats(), wait_snapshot());
        for i in 0..replay_n {
            let mut v = visit_at(a.seed, s.next_index + i, s.mats.len());
            let m = s.mats[v.slot];
            let op = probe.open("replay.visit", clock.now_ns());
            let attrs = std::mem::take(&mut v.attrs);
            visit_txn(&s.db, &mut probe, op, m, v.valid_time, v.state, attrs)?;
            let state = probe.call(op, "labbase.state_of", || s.db.state_of(m))?;
            let recent = probe.call(op, "labbase.recent", || s.db.recent(m, MARKER_ATTR))?;
            probe.close(op, clock.now_ns());
            if state.as_deref() != Some(v.state)
                || recent.map(|r| r.value) != Some(Value::Int(v.marker))
            {
                out.failed += 1;
            }
            s.ledger[v.slot].apply(&v);
        }
        s.next_index += replay_n;
        out.attempted += replay_n;
        let (stats, waits) = (
            s.store.stats().delta(&stats0),
            wait_snapshot().delta(&waits0),
        );
        let replay = [probe.into_tracer().ok_or("replay lost its tracer")?];
        for op in ["record_step", "set_state", "commit", "state_of", "recent"] {
            out.set_quantiles(
                &format!("labbase.{op}"),
                trace::durations(&replay, &format!("labbase.{op}")),
            );
        }
        for kind in ["state_of", "recent"] {
            let mut wire = trace::durations(&traced.tracers, &format!("client.{kind}"));
            out.set(
                &format!("server.rtt_overhead_us.{kind}"),
                quantile_us(&mut wire, 0.5) - out.metrics[&format!("labbase.{kind}_p50_us")],
            );
        }
        out.set_storage_counters(&stats, &waits, replay_n);
        let op_us = storage_op_us(&a.out, options(), 560, a.size(1500, 50), a.seed)?;
        op_us.record(&mut out);

        let wire = trace::self_times(&traced.tracers);
        let inproc = trace::self_times(&replay);
        let visits = wire["serve-step.visit"].count as f64;
        let scale = visits / replay_n as f64;
        let calls_ns: f64 = wire
            .iter()
            .filter(|(k, _)| k.starts_with("client."))
            .map(|(_, t)| t.total_ns as f64)
            .sum();
        let labbase_ns: f64 = inproc
            .iter()
            .filter(|(k, _)| k.starts_with("labbase."))
            .map(|(_, t)| t.total_ns as f64)
            .sum::<f64>()
            * scale;
        let mut scaled = waits;
        scaled.commit_wait_nanos = (waits.commit_wait_nanos as f64 * scale) as u64;
        scaled.lock_wait_nanos = (waits.lock_wait_nanos as f64 * scale) as u64;
        Shares {
            op_total_ns: wire["serve-step.visit"].total_ns as f64,
            server_ns: calls_ns - labbase_ns,
            labbase_calls_ns: labbase_ns,
            storage_ns: op_us.estimate_ns(&stats) * scale,
            waits: scaled,
        }
        .record(&mut out);

        let sample: Vec<(Request, Response)> = (0..a.size(3000, 30) as u64)
            .flat_map(|i| {
                let v = visit_at(a.seed, i, s.mats.len());
                let raw = s.mats[v.slot].oid().raw();
                [
                    (Request::Begin, Response::Ok),
                    (
                        Request::RecordStep {
                            class: STEP_CLASS.into(),
                            valid_time: v.valid_time,
                            materials: vec![raw],
                            attrs: v.attrs.clone(),
                        },
                        Response::Step(raw + 1),
                    ),
                    (
                        Request::SetState {
                            material: raw,
                            state: v.state.into(),
                            valid_time: v.valid_time,
                        },
                        Response::Ok,
                    ),
                    (Request::Commit, Response::Ok),
                    (
                        Request::StateOf { material: raw },
                        Response::State(Some(v.state.into())),
                    ),
                    (
                        Request::Recent {
                            material: raw,
                            attr: MARKER_ATTR.into(),
                        },
                        Response::RecentValue(Some((Value::Int(v.marker), v.valid_time, raw + 1))),
                    ),
                ]
            })
            .collect();
        out.set("server.codec_ns_per_req", codec_ns_per_req(&sample)?);
        out.set("server.admit_ns_per_req", admit_ns_per_req()?);
        trace::write_json(
            &a.out.join("trace-serve-step.json"),
            "serve-step",
            &traced.tracers,
        )?;
    } else {
        let (phase, mut late) = run_phase(a, &mut s, clock, &offsets, false)?;
        achieved = achieved_share(&phase, &offsets);
        out.attempted = phase.attempted;
        out.failed = phase.failed;
        out.set_end_to_end(&summarize(&phase.recorders, phase.start_ns), &setup_s);
        out.note("gen_late_p99_us", quantile_us(&mut late, 0.99));
    }
    out.set("gen_achieved_share", achieved);
    if achieved < 0.95 && !a.smoke {
        out.problems.push(format!(
            "invalid run: achieved {:.1} % of the offered {RATE} visits/s (the box could not keep the schedule)",
            achieved * 100.0
        ));
    }

    // Drop the store with no checkpoint, recover from the WAL, and hold
    // every material against the ledger.
    let Stopped {
        dir,
        store,
        mats,
        ledger,
    } = teardown(s)?;
    let allocated = store.stats().bytes_allocated;
    drop(store);
    let re = reopen(&dir, POOL_PAGES)?;
    out.set("storage.reopen_ms", re.reopen_ms);
    verify_ledger(&re.db, &mats, &ledger, &mut out.problems)?;
    set_space_amp(a, &mut out, re.store.as_ref(), allocated)?;
    drop(re);
    std::fs::remove_dir_all(&dir)?;
    Ok(out)
}
