//! `abl-server`: the networked closed-loop sweep (DESIGN.md `abl-server`).
//!
//! Same workload shape as the multi-client ablation, but every request
//! crosses a real socket boundary: each client thread owns one loopback
//! TCP connection (one tenant) into a `labflow_server::Server` wrapped
//! around the OStore engine, and the measurement is the full round trip
//! — encode, wire, admission, session call, response. A second,
//! deliberately throttled pass demonstrates the admission controller:
//! offered load far above a tenant's bytes/s quota must shed with typed
//! `Overloaded` responses while a paced tenant sails through untouched,
//! and the drain must leave zero open sessions and zero snapshot pins.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use labbase::{LabBase, Value};
use labflow_server::{Client, ClientError, ClientResult, Server, ServerConfig, TenantQuotas};
use labflow_storage::{MemStore, StorageManager};
use serde::Serialize;

use crate::config::{BenchConfig, ServerVersion};
use crate::error::{BenchError, Result};
use crate::hist::LatencyHist;
use crate::report::{commas, fixed, Table};
use crate::runner::{ensure, per_sec, prefill, run_clients, store_dir, STATES};

/// Wall-clock milliseconds each closed-loop point runs.
const POINT_MILLIS: u64 = 900;
/// Materials prefilled per client slot (each client cycles its own
/// disjoint slice, so clients contend on infrastructure, not data).
const MATS_PER_CLIENT: usize = 8;
/// Wall-clock milliseconds of the deliberate-overload pass.
const OVERLOAD_MILLIS: u64 = 700;
/// Bytes/s quota for the overload pass — far below the hammer tenant's
/// offered load, comfortably above the paced tenant's.
const OVERLOAD_BYTES_PER_SEC: u64 = 4096;
/// Gap between the paced tenant's requests (~20 req/s ≈ 1 KiB/s, a
/// quarter of the quota).
const PACED_GAP: Duration = Duration::from_millis(50);
/// "Bounded" for the admitted-latency acceptance check: p99 of
/// admitted requests under overload must stay below this, i.e. shed
/// load must not queue behind admitted work.
const ADMITTED_P99_BOUND_US: f64 = 250_000.0;

/// One point of the networked closed-loop sweep.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ServerPoint {
    /// Concurrent client connections (one tenant each).
    pub clients: usize,
    /// Wall-clock seconds measured.
    pub elapsed_sec: f64,
    /// Transactions committed across all clients.
    pub txns: u64,
    /// Committed transactions per second.
    pub txns_per_sec: f64,
    /// Admitted requests (each txn is begin + step + state + commit).
    pub requests: u64,
    /// Admitted requests per second.
    pub requests_per_sec: f64,
    /// Transactions retried after a typed `Retry` (lock conflict).
    pub retries: u64,
    /// Round-trip latency of admitted requests, µs.
    pub p50_us: f64,
    /// 99th percentile round trip, µs.
    pub p99_us: f64,
    /// 99.9th percentile round trip, µs.
    pub p999_us: f64,
    /// Worst round trip, µs.
    pub max_us: f64,
    /// Mean round trip, µs.
    pub mean_us: f64,
}

/// Per-tenant admission row (a serializable mirror of
/// [`labflow_server::TenantRow`]).
#[derive(Debug, Clone, Default, Serialize)]
pub struct AdmissionTenantRow {
    /// Tenant id.
    pub tenant: u32,
    /// Role in the overload pass (hammer / paced / dangling).
    pub role: String,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests shed by the bytes/s bucket.
    pub shed_bytes: u64,
    /// Requests shed by the in-flight cap.
    pub shed_inflight: u64,
    /// Session begins refused by the session cap.
    pub shed_sessions: u64,
    /// Wire bytes received from the tenant.
    pub bytes_in: u64,
    /// Wire bytes sent to the tenant.
    pub bytes_out: u64,
}

/// Result of the deliberate-overload pass.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ServerOverload {
    /// The bytes/s quota every tenant ran under.
    pub bytes_per_sec_quota: u64,
    /// Wall-clock seconds measured.
    pub elapsed_sec: f64,
    /// Hammer tenant: requests admitted.
    pub hammer_admitted: u64,
    /// Hammer tenant: requests shed with `Overloaded`.
    pub hammer_shed: u64,
    /// Paced tenant: requests admitted.
    pub paced_admitted: u64,
    /// Paced tenant: requests shed (should be 0 — isolation).
    pub paced_shed: u64,
    /// p50 of admitted requests, µs.
    pub admitted_p50_us: f64,
    /// p99 of admitted requests, µs — must stay bounded under shed.
    pub admitted_p99_us: f64,
    /// Worst admitted round trip, µs.
    pub admitted_max_us: f64,
    /// Requests shed for any reason, any tenant (server counters).
    pub shed_total: u64,
    /// Per-tenant admission counters.
    pub tenants: Vec<AdmissionTenantRow>,
    /// Sessions still open after the drain (must be 0).
    pub open_sessions_after: u64,
    /// Snapshot pins still registered after the drain (must be 0).
    pub open_snapshots_after: usize,
}

/// The whole `abl-server` artifact: the sweep plus the overload pass.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ServerResult {
    /// One row per client count.
    pub points: Vec<ServerPoint>,
    /// The deliberate-overload admission demonstration.
    pub overload: ServerOverload,
}

fn net(e: ClientError) -> BenchError {
    BenchError::Config(format!("server client: {e}"))
}

/// `Retry` and `Overloaded` are the two typed shed/conflict responses a
/// well-behaved client absorbs by backing off.
fn transient(e: &ClientError) -> bool {
    matches!(e, ClientError::Retry { .. } | ClientError::Overloaded { .. })
}

/// Shut `server` down and check its drain left no session and no
/// snapshot pin open on `db`: (sessions, snapshots), both 0.
fn drain(server: Server, db: &LabBase) -> Result<(u64, usize)> {
    server.shutdown()?;
    let (sessions, snapshots) = (db.open_sessions(), db.store().open_snapshots());
    ensure(sessions == 0 && snapshots == 0, || {
        format!("drain left {sessions} sessions / {snapshots} snapshots open")
    })?;
    Ok((sessions, snapshots))
}

/// A server on `127.0.0.1:0` in front of `db`, every tenant capped at
/// `bytes_per_sec` (0 = unlimited).
fn serve(db: &Arc<LabBase>, bytes_per_sec: u64) -> Result<Server> {
    let quotas = TenantQuotas { max_sessions: 0, max_inflight: 0, bytes_per_sec };
    let config = ServerConfig { addr: "127.0.0.1:0".into(), quotas, ..ServerConfig::default() };
    Ok(Server::start(Arc::clone(db), config)?)
}

/// What one closed-loop client accumulated.
#[derive(Default)]
struct SrvRow {
    txns: u64,
    retries: u64,
    /// Round trips of admitted requests.
    hist: LatencyHist,
}

/// Issue one request, timing the full round trip; only admitted
/// (successful) requests enter the histogram.
fn timed<T>(
    c: &mut Client,
    row: &mut SrvRow,
    f: impl FnOnce(&mut Client) -> ClientResult<T>,
) -> ClientResult<T> {
    let t0 = Instant::now();
    let r = f(c);
    if r.is_ok() {
        row.hist.record(t0.elapsed());
    }
    r
}

/// One client's closed loop: cycle the private material slice in
/// single-step transactions until the deadline, retrying on typed
/// conflicts via abort-and-rerun.
fn worker(addr: SocketAddr, tenant: u32, mats: &[u64], deadline: Instant) -> Result<SrvRow> {
    let mut c = Client::connect(addr, tenant).map_err(net)?;
    let mut row = SrvRow::default();
    // Valid times are partitioned per tenant so the run is deterministic
    // in everything except commit interleaving.
    let mut vt: i64 = i64::from(tenant) << 24;
    let mut mat_cycle = mats.iter().copied().cycle();
    let mut state_cycle = STATES.iter().copied().cycle();
    while Instant::now() < deadline {
        let (Some(m), Some(state)) = (mat_cycle.next(), state_cycle.next()) else {
            return Err(BenchError::Config("server worker got an empty material slice".into()));
        };
        vt += 4;
        let attempt = (|c: &mut Client, row: &mut SrvRow| -> ClientResult<()> {
            timed(c, row, |c| c.begin())?;
            timed(c, row, |c| {
                let reading = vec![("reading".into(), Value::Real(vt as f64))];
                c.record_step("srv_track", vt, &[m], reading)
            })?;
            timed(c, row, |c| c.set_state(m, state, vt + 1))?;
            timed(c, row, |c| c.commit())?;
            Ok(())
        })(&mut c, &mut row);
        match attempt {
            Ok(()) => row.txns += 1,
            Err(e) if transient(&e) => {
                row.retries += 1;
                // Roll back whatever the partial transaction touched;
                // "no transaction open" is a fine answer here.
                let _ = c.abort();
            }
            Err(e) => return Err(net(e)),
        }
    }
    Ok(row)
}

/// One point of the sweep: a fresh OStore engine behind a fresh server,
/// `clients` closed-loop connections for [`POINT_MILLIS`].
fn run_point(
    cfg: &BenchConfig,
    clients: usize,
    max_clients: usize,
    base: &Path,
) -> Result<ServerPoint> {
    let version = ServerVersion::OStore;
    let store = version.make_store(&store_dir(base, version.name())?, cfg.buffer_pages)?;
    let db = Arc::new(LabBase::create(store)?);
    // Prefill sized off the max client count so every point works the
    // same population regardless of parallelism.
    let mats = prefill(&db, "srv_clone", "srv_track", "srv", max_clients * MATS_PER_CLIENT)?;
    let mats: Vec<u64> = mats.iter().map(|m| m.oid().raw()).collect();
    db.checkpoint()?;

    let server = serve(&db, 0)?;
    let addr = server.local_addr();
    let deadline = Instant::now() + Duration::from_millis(POINT_MILLIS);
    let t0 = Instant::now();
    // One tenant per connection.
    let rows = run_clients(&mats, clients, |c, mine| worker(addr, c as u32 + 1, mine, deadline))?;
    let elapsed = t0.elapsed().as_secs_f64();
    drain(server, &db)?;

    let mut hist = LatencyHist::new();
    for r in &rows {
        hist.merge(&r.hist);
    }
    let txns = rows.iter().map(|r| r.txns).sum();
    let requests = hist.count();
    Ok(ServerPoint {
        clients,
        elapsed_sec: elapsed,
        txns,
        txns_per_sec: per_sec(txns, elapsed),
        requests,
        requests_per_sec: per_sec(requests, elapsed),
        retries: rows.iter().map(|r| r.retries).sum(),
        p50_us: hist.quantile_us(0.50),
        p99_us: hist.quantile_us(0.99),
        p999_us: hist.quantile_us(0.999),
        max_us: hist.max_us(),
        mean_us: hist.mean_us(),
    })
}

/// One overload-pass tenant pinging until the deadline, `gap` apart:
/// the requests shed, and the round trips of those admitted.
fn drive(
    addr: SocketAddr,
    tenant: u32,
    gap: Option<Duration>,
    deadline: Instant,
) -> Result<(u64, LatencyHist)> {
    let mut c = Client::connect(addr, tenant).map_err(net)?;
    let (mut shed, mut hist) = (0, LatencyHist::new());
    while Instant::now() < deadline {
        let t = Instant::now();
        match c.ping() {
            Ok(()) => hist.record(t.elapsed()),
            Err(ClientError::Overloaded { .. }) => {
                shed += 1;
                // A closed-loop hammer backs off a token's worth, not
                // the suggested retry window — the point is sustained
                // offered load above the quota.
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(net(e)),
        }
        if let Some(gap) = gap {
            std::thread::sleep(gap);
        }
    }
    Ok((shed, hist))
}

/// The deliberate-overload pass: every tenant gets the same small
/// bytes/s quota; the hammer tenant (1) offers far more than that, the
/// paced tenant (2) stays under it, and a third tenant leaves a
/// transaction dangling so the drain has something to abort.
fn run_overload() -> Result<ServerOverload> {
    let store: Arc<dyn StorageManager> = Arc::new(MemStore::ostore_mm());
    let db = Arc::new(LabBase::create(store)?);
    let txn = db.begin()?;
    db.define_material_class(txn, "srv_clone", None)?;
    db.commit(txn)?;

    let server = serve(&db, OVERLOAD_BYTES_PER_SEC)?;
    let addr = server.local_addr();
    // Tenant 3 holds a transaction open across the shutdown so the
    // drain's selective abort is exercised, not just asserted.
    let mut dangling = Client::connect(addr, 3).map_err(net)?;
    dangling.begin().map_err(net)?;
    dangling.create_material("srv_clone", "srv-dangling", 0).map_err(net)?;
    let deadline = Instant::now() + Duration::from_millis(OVERLOAD_MILLIS);
    let t0 = Instant::now();
    let gaps = [None, Some(PACED_GAP)];
    let mut driven = run_clients(&gaps, 2, |c, gap| {
        drive(addr, c as u32 + 1, gap.first().copied().flatten(), deadline)
    })?
    .into_iter();
    let elapsed = t0.elapsed().as_secs_f64();
    let (Some((hammer_shed, hammer)), Some((paced_shed, paced))) = (driven.next(), driven.next())
    else {
        return Err(BenchError::Config("overload pass lost a tenant".into()));
    };

    let snap = server.admission();
    // The dangling client outlives the drain on purpose: its open
    // transaction must be aborted server-side, not by a disconnect.
    let (open_sessions_after, open_snapshots_after) = drain(server, &db)?;
    drop(dangling);
    let aborted = db.find_material("srv-dangling")?.is_none();
    ensure(aborted, || "drain failed to abort the dangling transaction".into())?;
    ensure(snap.shed_total() > 0, || "overload pass shed nothing — quota not enforced".into())?;
    ensure(hammer_shed > 0, || {
        "hammer tenant was never shed despite offered load above quota".into()
    })?;
    let admitted_p99_us = hammer.quantile_us(0.99);
    ensure(admitted_p99_us <= ADMITTED_P99_BOUND_US, || {
        format!(
            "admitted p99 {admitted_p99_us:.0}µs exceeds the {ADMITTED_P99_BOUND_US:.0}µs \
             bound — shed load is queueing behind admitted work"
        )
    })?;

    let role = |tenant: u32| match tenant {
        1 => "hammer",
        2 => "paced",
        3 => "dangling",
        _ => "?",
    };
    let tenants = snap
        .tenants
        .iter()
        .map(|t| AdmissionTenantRow {
            tenant: t.tenant,
            role: role(t.tenant).to_string(),
            admitted: t.admitted,
            shed_bytes: t.shed_bytes,
            shed_inflight: t.shed_inflight,
            shed_sessions: t.shed_sessions,
            bytes_in: t.bytes_in,
            bytes_out: t.bytes_out,
        })
        .collect();
    Ok(ServerOverload {
        bytes_per_sec_quota: OVERLOAD_BYTES_PER_SEC,
        elapsed_sec: elapsed,
        hammer_admitted: hammer.count(),
        hammer_shed,
        paced_admitted: paced.count(),
        paced_shed,
        admitted_p50_us: hammer.quantile_us(0.50),
        admitted_p99_us,
        admitted_max_us: hammer.max_us(),
        shed_total: snap.shed_total(),
        tenants,
        open_sessions_after,
        open_snapshots_after,
    })
}

/// Run the networked closed-loop sweep plus the overload pass.
pub fn run(cfg: &BenchConfig, client_counts: &[usize], base: &Path) -> Result<ServerResult> {
    let max_clients = client_counts.iter().copied().max().unwrap_or(1);
    let mut points = Vec::new();
    for &clients in client_counts {
        ensure(clients > 0, || "client count must be >= 1".into())?;
        points.push(run_point(cfg, clients, max_clients, base)?);
    }
    let overload = run_overload()?;
    Ok(ServerResult { points, overload })
}

/// The networked closed-loop sweep (`abl-server`): round-trip
/// throughput and tail latency per client count, plus the admission
/// table from the deliberate-overload pass.
pub fn table(result: &ServerResult) -> String {
    let mut t = Table::default();
    t.head(
        "Networked front end — closed-loop clients over loopback TCP (OStore engine)",
        "<10 clients|>10 txn/s|>10 req/s|>9 retries|>10 p50 µs|>10 p99 µs|\
         >11 p99.9 µs|>10 max µs",
    );
    for p in &result.points {
        t.row([
            p.clients.to_string(),
            fixed(p.txns_per_sec, 0),
            fixed(p.requests_per_sec, 0),
            p.retries.to_string(),
            fixed(p.p50_us, 0),
            fixed(p.p99_us, 0),
            fixed(p.p999_us, 0),
            fixed(p.max_us, 0),
        ]);
    }
    t.line(
        "\neach txn is one begin/step/state/commit round; latency is the full wire\n\
         round trip of admitted requests.",
    );

    let o = &result.overload;
    let title = format!(
        "\nAdmission — deliberate overload ({} B/s per-tenant quota, {:.2}s)",
        o.bytes_per_sec_quota, o.elapsed_sec
    );
    t.head(
        &title,
        "<8 tenant|<10 role|>10 admitted|>12 shed bytes|>14 shed inflight|\
         >14 shed sessions|>11 bytes in|>11 bytes out",
    );
    for r in &o.tenants {
        t.row([
            r.tenant.to_string(),
            r.role.clone(),
            commas(r.admitted),
            commas(r.shed_bytes),
            commas(r.shed_inflight),
            commas(r.shed_sessions),
            commas(r.bytes_in),
            commas(r.bytes_out),
        ]);
    }
    t.line(&format!(
        "\nhammer: {} admitted / {} shed · paced: {} admitted / {} shed\n\
         admitted p50/p99/max: {:.0}/{:.0}/{:.0} µs — shed load never queues behind\n\
         admitted work. post-drain open sessions/snapshots: {}/{}.",
        commas(o.hammer_admitted),
        commas(o.hammer_shed),
        commas(o.paced_admitted),
        commas(o.paced_shed),
        o.admitted_p50_us,
        o.admitted_p99_us,
        o.admitted_max_us,
        o.open_sessions_after,
        o.open_snapshots_after
    ));
    t.finish()
}
