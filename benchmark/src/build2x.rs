//! `build-2x`: the paper's Section-10 run. One in-process client (`LabSim`
//! driving the Appendix-B graph) builds OStore from empty to 2X through a
//! 1,024-page (4 MiB) pool; set-up is 0 -> 0.5X, the measured phase is
//! 0.5X -> 2X. The operation is one workflow step; `LabSim` owns the
//! loop, so the benchmark times it one lab tick at a time and a sample is
//! the tick's mean step time, weighted by its steps.
//!
//! Why it exists: it is the only workload larger than the cache. Labbase
//! catalog and history work, heap placement, buffer faults, page writes
//! and periodic checkpoints do nearly all the work; the server and the
//! log force do none.

use std::path::PathBuf;
use std::sync::Arc;

use labbase::{LabBase, MaterialId};
use labflow_core::{BenchConfig, LabSim, ServerVersion};
use labflow_storage::{wait_snapshot, Options, StorageManager};

use crate::common::{
    fresh_dir, reopen, repeat_setup, set_space_amp, settle, visit_txn, Fnv, Outcome, Res, RunArgs,
    Visit,
};
use crate::lat::{summarize, Clock, Recorder};
use crate::layers::{storage_op_us, Shares};
use crate::rng::Rng;
use crate::trace::{self, Probe, Tracer};

const POOL_PAGES: usize = 1024;

/// Clones at 1X per second of `--seconds`, sized so that 0.5X -> 2X takes
/// about that long on the 2-core box the benchmark was written on. The
/// work is fixed by the arguments, not by the clock: a faster build ends
/// sooner, it does not build a bigger database.
const CLONES_PER_SECOND: f64 = 270.0;

fn config(a: &RunArgs) -> BenchConfig {
    BenchConfig {
        seed: a.seed,
        base_clones: ((CLONES_PER_SECOND * a.seconds) as usize).max(48),
        buffer_pages: POOL_PAGES,
        ..BenchConfig::default()
    }
}

struct Built {
    dir: PathBuf,
    db: LabBase,
    store: Arc<dyn StorageManager>,
    sim: LabSim,
}

/// What timing the build tick by tick yields.
#[derive(Default)]
struct Ticks {
    steps: u64,
    /// Longest tick that contained a checkpoint.
    checkpoint_stall_ns: u64,
}

/// Advance `sim` one lab tick at a time until `target` clones are in.
fn run_ticks(b: &mut Built, target: u64, rec: &mut Recorder, probe: &mut Probe) -> Res<Ticks> {
    let mut ticks = Ticks::default();
    while b.sim.counters().clones_injected < target {
        let c0 = b.sim.counters();
        let t0 = probe.clock.now_ns();
        b.sim.run_until_clones(&b.db, c0.clones_injected + 1)?;
        let t1 = probe.clock.now_ns();
        let c1 = b.sim.counters();
        let steps = c1.steps - c0.steps;
        if let Some(mean_ns) = (t1 - t0).checked_div(steps) {
            rec.record(t1, mean_ns, steps as u32);
        }
        probe.leaf(0, "build-2x.tick", t0, t1);
        ticks.steps += steps;
        if c1.checkpoints > c0.checkpoints {
            ticks.checkpoint_stall_ns = ticks.checkpoint_stall_ns.max(t1 - t0);
        }
    }
    Ok(ticks)
}

/// Store create, schema, build to 0.5X, checkpoint. With a probe the
/// build is timed tick by tick, as the measured phase is.
fn setup(a: &RunArgs, version: ServerVersion, ticked: Option<&mut Probe>) -> Res<Built> {
    let cfg = config(a);
    // The -mm store ignores its directory, but must not wipe the disk one.
    let dir = fresh_dir(
        &a.out,
        if version.is_persistent() {
            "build-2x"
        } else {
            "build-2x-mm"
        },
    )?;
    let opts = Options {
        buffer_pages: POOL_PAGES,
        sync_commit: false,
        ..Options::default()
    };
    let store = version.make_store_with(&dir, opts)?;
    let db = LabBase::create(Arc::clone(&store))?;
    let sim = LabSim::new(cfg.clone());
    sim.setup(&db)?;
    let mut b = Built {
        dir,
        db,
        store,
        sim,
    };
    let half = cfg.clones_at(0.5) as u64;
    match ticked {
        Some(probe) => {
            run_ticks(&mut b, half, &mut Recorder::with_capacity(0), probe)?;
        }
        None => b.sim.run_until_clones(&b.db, half)?,
    }
    b.db.checkpoint()?;
    Ok(b)
}

/// `LabSim`'s inputs are its configuration; hash that.
pub fn input_hash(a: &RunArgs) -> u64 {
    let mut h = Fnv::new();
    h.bytes(format!("{:?}", config(a)).as_bytes());
    h.0
}

/// History length, state, and valid time of the most recent sequence.
type Digest = (usize, Option<String>, Option<i64>);

/// What a sample of materials looks like.
fn digest(db: &LabBase, mats: &[MaterialId]) -> Res<Vec<Digest>> {
    let stride = (mats.len() / 2000).max(1);
    mats.iter()
        .step_by(stride)
        .map(|m| {
            Ok((
                db.history(*m)?.len(),
                db.state_of(*m)?,
                db.recent(*m, "sequence")?.map(|r| r.valid_time),
            ))
        })
        .collect()
}

/// `labbase.<op>_us` on the built image: tracking queries on uniformly
/// sampled materials (the image is larger than the pool, so these fault)
/// and a few station-visit transactions.
fn probe_labbase(a: &RunArgs, b: &Built, clock: Clock) -> Res<Tracer> {
    let mats = b.sim.materials();
    let mut rng = Rng::stream(a.seed, 700);
    let reads = a.size(1500, 40);
    let mut probe = Probe::new(clock, Some(Tracer::new(0, reads * 4 + 2000)));
    for _ in 0..reads {
        // `state_of` goes first, so it is the read that meets the cold page.
        let m = mats[rng.below(mats.len())];
        probe.call(0, "labbase.state_of", || b.db.state_of(m))?;
        probe.call(0, "labbase.recent", || b.db.recent(m, "quality"))?;
        probe.call(0, "labbase.history", || b.db.history(m))?;
        let name = b.db.material(m)?.name;
        if probe.call(0, "labbase.find_material", || b.db.find_material(&name))? != Some(m) {
            return Err(format!("find_material({name}) did not return {m}").into());
        }
    }
    for i in 0..a.size(300, 10) as u64 {
        let m = mats[rng.below(mats.len())];
        // The material keeps its own state; only the step is new.
        let state = b.db.state_of(m)?.unwrap_or_else(|| "probed".into());
        let attrs = Visit::generate(&mut rng, 700, i, 0, "").attrs;
        visit_txn(&b.db, &mut probe, 0, m, b.sim.clock() + 1, &state, attrs)?;
    }
    probe
        .into_tracer()
        .ok_or_else(|| "probe lost its tracer".into())
}

pub fn run(a: &RunArgs) -> Res<Outcome> {
    let clock = Clock::start();
    let cfg = config(a);
    let mut out = Outcome {
        input_hash: input_hash(a),
        ..Outcome::default()
    };
    settle(a, &mut out);

    let mut b;
    if a.trace {
        // The same 0 -> 0.5X build twice, plain and ticked-and-traced: the
        // difference is what per-tick timing and spans cost.
        let t0 = std::time::Instant::now();
        drop(setup(a, ServerVersion::OStore, None)?);
        let plain_s = t0.elapsed().as_secs_f64();
        let mut probe = Probe::new(clock, Some(Tracer::new(0, cfg.base_clones)));
        let t0 = std::time::Instant::now();
        b = setup(a, ServerVersion::OStore, Some(&mut probe))?;
        out.set(
            "trace_overhead_pct",
            100.0 * (t0.elapsed().as_secs_f64() - plain_s) / plain_s,
        );

        let target = cfg.clones_at(1.25) as u64;
        settle(a, &mut out);
        let mut rec = Recorder::with_capacity(cfg.base_clones);
        let (stats0, waits0, start_ns) = (b.store.stats(), wait_snapshot(), clock.now_ns());
        let ticks = run_ticks(&mut b, target, &mut rec, &mut probe)?;
        let disk_ns = (clock.now_ns() - start_ns) as f64;
        let (stats, waits) = (
            b.store.stats().delta(&stats0),
            wait_snapshot().delta(&waits0),
        );
        out.attempted = ticks.steps;
        let summary = summarize(&[rec], start_ns);
        out.note("traced_ops_per_s", summary.ops_per_s);
        out.set_tail(&summary);
        out.set_storage_counters(&stats, &waits, ticks.steps);
        out.set(
            "storage.checkpoint_stall_ms",
            ticks.checkpoint_stall_ns as f64 / 1e6,
        );
        let t0 = std::time::Instant::now();
        b.db.checkpoint()?;
        out.set("storage.checkpoint_ms", t0.elapsed().as_secs_f64() * 1e3);

        // The paper's own device: the same clone range on OStore-mm has no
        // storage management in it, so the difference is storage's share.
        let mut mm = setup(a, ServerVersion::OStoreMm, None)?;
        let t0 = std::time::Instant::now();
        mm.sim.run_until_clones(&mm.db, target)?;
        let mm_ns = t0.elapsed().as_nanos() as f64;
        drop(mm);
        out.set("storage.share_build", 1.0 - mm_ns / disk_ns);
        let wait_ns = (waits.commit_wait_nanos + waits.lock_wait_nanos) as f64;
        Shares {
            op_total_ns: disk_ns,
            server_ns: 0.0,
            labbase_calls_ns: disk_ns,
            storage_ns: (disk_ns - mm_ns - wait_ns).max(0.0),
            waits,
        }
        .record(&mut out);

        let spans = probe_labbase(a, &b, clock)?;
        for op in [
            "record_step",
            "set_state",
            "commit",
            "state_of",
            "recent",
            "history",
            "find_material",
        ] {
            out.set_quantiles(
                &format!("labbase.{op}"),
                trace::durations(std::slice::from_ref(&spans), &format!("labbase.{op}")),
            );
        }
        let opts = Options {
            buffer_pages: POOL_PAGES,
            sync_commit: false,
            ..Options::default()
        };
        storage_op_us(&a.out, opts, 400, a.size(1500, 50), a.seed)?.record(&mut out);
        let tracers: Vec<Tracer> = probe.into_tracer().into_iter().chain([spans]).collect();
        trace::write_json(&a.out.join("trace-build-2x.json"), "build-2x", &tracers)?;
    } else {
        let setup_s;
        (b, setup_s) = repeat_setup(a, || setup(a, ServerVersion::OStore, None), |_| Ok(()))?;
        settle(a, &mut out);
        let mut rec = Recorder::with_capacity(cfg.base_clones);
        let start_ns = clock.now_ns();
        let ticks = run_ticks(
            &mut b,
            cfg.clones_at(2.0) as u64,
            &mut rec,
            &mut Probe::new(clock, None),
        )?;
        out.attempted = ticks.steps;
        out.set_end_to_end(&summarize(&[rec], start_ns), &setup_s);
    }

    // Verification: the database passes its own fsck; then the store is
    // dropped with no checkpoint, recovered from the WAL, and must look
    // exactly as it did.
    let integrity = b.db.check_integrity()?;
    out.problems.extend(
        integrity
            .problems
            .iter()
            .take(5)
            .map(|p| format!("check_integrity: {p}")),
    );
    let counters = b.sim.counters();
    let mats: Vec<MaterialId> = b.sim.materials().to_vec();
    let before = digest(&b.db, &mats)?;
    let allocated = b.store.stats().bytes_allocated;
    let Built {
        dir,
        db,
        store,
        sim,
    } = b;
    drop((db, store, sim));
    let re = reopen(&dir, POOL_PAGES)?;
    out.set("storage.reopen_ms", re.reopen_ms);
    if digest(&re.db, &mats)? != before {
        out.problems
            .push("sampled materials differ after recovery from the WAL".into());
    }
    let (clones, all) = (
        re.db.count_class("clone", false)?,
        re.db.count_class("material", true)?,
    );
    if clones != counters.clones_injected || all != counters.materials {
        out.problems.push(format!(
            "recovered {clones} clones / {all} materials; the simulator created {} / {}",
            counters.clones_injected, counters.materials
        ));
    }
    set_space_amp(a, &mut out, re.store.as_ref(), allocated)?;
    drop(re);
    std::fs::remove_dir_all(&dir)?;
    Ok(out)
}
