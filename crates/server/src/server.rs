//! The server: accept loop, connection table, and graceful drain.
//!
//! [`Server::start`] binds a listener, spawns an accept thread, and
//! hands each connection to its own handler thread running
//! `conn::serve`. Connections above the configured cap are refused
//! with a best-effort `Overloaded` frame before the socket closes —
//! admission control begins at accept.
//!
//! [`Server::shutdown`] drains gracefully: it flips the drain latch,
//! raises every handler's stop flag, waits for the connection table to
//! empty (each handler aborts its open transaction via the session's
//! selective footprint undo and releases its snapshot pin on the way
//! out), then joins the accept thread. After shutdown the database
//! reports zero open sessions and zero registered snapshots.

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use labbase::LabBase;
use labflow_storage::lock_order;
use parking_lot::Mutex;

use crate::conn::{self, ConnShared};
use crate::proto::Response;
use crate::tenant::{AdmissionSnapshot, TenantQuotas, TenantRegistry};
use crate::wire::{self, Frame, PROTO_V1};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind (e.g. `127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Maximum concurrent connections; further accepts are refused with
    /// an `Overloaded` frame. Zero means unlimited.
    pub max_conns: u32,
    /// Per-tenant quotas.
    pub quotas: TenantQuotas,
    /// Replication ack quorum: a commit response waits until this many
    /// followers have acked the commit's WAL offset. Zero (the
    /// default) replicates asynchronously — commits answer as soon as
    /// they are locally durable.
    pub ack_quorum: u32,
    /// How long a commit waits for its ack quorum before reporting the
    /// (locally durable) commit as quorum-lagged.
    pub ack_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_conns: 256,
            quotas: TenantQuotas::default(),
            ack_quorum: 0,
            ack_timeout: Duration::from_secs(2),
        }
    }
}

/// Hook invoked by a `ReplPromote` request on a follower server: stops
/// the replication pump, promotes the store's epoch, and re-opens the
/// database for writes. `None` (a primary) refuses promotion.
pub type PromoteHook = Arc<dyn Fn() -> Result<(), String> + Send + Sync>;

/// The drain latch's state, guarded at rank
/// [`lock_order::SRV_DRAIN`].
#[derive(Default)]
struct DrainState {
    /// Set once; no new connections or transactions after.
    draining: bool,
    /// Set when the last handler has deregistered.
    drained: bool,
}

/// Shared server state: everything the accept loop, the handlers, and
/// the public [`Server`] handle agree on.
pub(crate) struct Core {
    db: Arc<LabBase>,
    program: lql::Program,
    registry: TenantRegistry,
    config: ServerConfig,
    /// Connection table: id → stop-flag handle. Guarded at rank
    /// [`lock_order::SRV_CONNS`].
    conns: Mutex<HashMap<u64, Arc<ConnShared>>>,
    /// Drain latch, rank [`lock_order::SRV_DRAIN`].
    drain: Mutex<DrainState>,
    /// Mirror of `drain.draining` readable without the latch (hot path).
    draining: AtomicBool,
    /// Set by a `Shutdown` request; the embedding binary polls it.
    shutdown_requested: AtomicBool,
    next_conn_id: AtomicU64,
    /// Handler threads spawned and not yet joined.
    unjoined: AtomicUsize,
    /// Per-follower replication acks (rank [`lock_order::REPL_ACKS`]).
    repl_acks: crate::repl::AckTable,
    /// Follower-mode promotion hook; `None` on a primary.
    promote: Option<PromoteHook>,
}

impl Core {
    pub(crate) fn db(&self) -> &LabBase {
        &self.db
    }

    pub(crate) fn program(&self) -> &lql::Program {
        &self.program
    }

    pub(crate) fn registry(&self) -> &TenantRegistry {
        &self.registry
    }

    pub(crate) fn config(&self) -> &ServerConfig {
        &self.config
    }

    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    pub(crate) fn request_shutdown(&self) {
        self.shutdown_requested.store(true, Ordering::Release);
    }

    pub(crate) fn repl_acks(&self) -> &crate::repl::AckTable {
        &self.repl_acks
    }

    pub(crate) fn promote_hook(&self) -> Option<&PromoteHook> {
        self.promote.as_ref()
    }

    fn register(&self, shared: Arc<ConnShared>) {
        let mut conns = lock_order::ranked(lock_order::SRV_CONNS, || self.conns.lock());
        conns.insert(shared.id, shared);
    }

    fn deregister(&self, id: u64) {
        let mut conns = lock_order::ranked(lock_order::SRV_CONNS, || self.conns.lock());
        conns.remove(&id);
    }

    fn conn_count(&self) -> usize {
        let conns = lock_order::ranked(lock_order::SRV_CONNS, || self.conns.lock());
        conns.len()
    }

    fn stop_all_conns(&self) {
        let conns = lock_order::ranked(lock_order::SRV_CONNS, || self.conns.lock());
        for shared in conns.values() {
            shared.stop.store(true, Ordering::Release);
        }
    }
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// performs a best-effort drain.
pub struct Server {
    core: Arc<Core>,
    local_addr: SocketAddr,
    accept_stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    handler_reaper: Option<JoinHandle<()>>,
    shut: bool,
}

impl Server {
    /// Bind, spawn the accept loop, and return the running server.
    pub fn start(db: Arc<LabBase>, config: ServerConfig) -> io::Result<Server> {
        Server::start_with(db, config, None)
    }

    /// [`Server::start`], with a promotion hook for follower servers:
    /// a `ReplPromote` request runs the hook (stop the pump, promote
    /// the epoch, re-open for writes). Primaries pass `None` and refuse
    /// promotion with a typed error.
    pub fn start_with(
        db: Arc<LabBase>,
        config: ServerConfig,
        promote: Option<PromoteHook>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let core = Arc::new(Core {
            db,
            program: lql::stdlib::labflow_program(),
            registry: TenantRegistry::new(config.quotas),
            config,
            conns: Mutex::new(HashMap::new()),
            drain: Mutex::new(DrainState::default()),
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            next_conn_id: AtomicU64::new(1),
            unjoined: AtomicUsize::new(0),
            repl_acks: crate::repl::AckTable::new(),
            promote,
        });
        let accept_stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel::<Reap>();
        let accept_thread = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&accept_stop);
            std::thread::Builder::new()
                .name("labflow-accept".into())
                .spawn(move || accept_loop(&core, &listener, &stop, &tx))?
        };
        // Handler threads are detached from the accept loop's point of
        // view but joined at shutdown: a reaper joins each as it
        // finishes, so no thread outlives the server and a long-lived
        // connection holds back no other handler's join.
        let handler_reaper = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("labflow-reaper".into())
                .spawn(move || reap(&rx, &core.unjoined))?
        };
        Ok(Server {
            core,
            local_addr,
            accept_stop,
            accept_thread: Some(accept_thread),
            handler_reaper: Some(handler_reaper),
            shut: false,
        })
    }

    /// Handler threads spawned and not yet joined.
    pub fn unjoined_handlers(&self) -> usize {
        self.core.unjoined.load(Ordering::Acquire)
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether a client has sent a `Shutdown` request.
    pub fn shutdown_requested(&self) -> bool {
        self.core.shutdown_requested.load(Ordering::Acquire)
    }

    /// Open connections right now.
    pub fn open_conns(&self) -> usize {
        self.core.conn_count()
    }

    /// Open database sessions right now (across all connections).
    pub fn open_sessions(&self) -> u64 {
        self.core.db.open_sessions()
    }

    /// Snapshots still registered in the storage backend.
    pub fn open_snapshots(&self) -> usize {
        self.core.db.store().open_snapshots()
    }

    /// A point-in-time copy of the admission counters.
    pub fn admission(&self) -> AdmissionSnapshot {
        self.core.registry.snapshot()
    }

    /// Drain gracefully: refuse new connections, stop every handler
    /// (open transactions are aborted with selective footprint undo and
    /// their snapshots released), wait for the connection table to
    /// empty, and join all threads.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> io::Result<()> {
        if self.shut {
            return Ok(());
        }
        self.shut = true;
        {
            let mut drain = lock_order::ranked(lock_order::SRV_DRAIN, || self.core.drain.lock());
            drain.draining = true;
        }
        self.core.draining.store(true, Ordering::Release);
        self.accept_stop.store(true, Ordering::Release);
        self.core.stop_all_conns();
        // Handlers notice their stop flag within one socket tick; wait
        // for the connection table to empty. No condvar in the vendored
        // parking_lot, so this is a sleep-poll with a generous deadline.
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.core.conn_count() > 0 {
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("drain timed out with {} connections open", self.core.conn_count()),
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        {
            let mut drain = lock_order::ranked(lock_order::SRV_DRAIN, || self.core.drain.lock());
            drain.drained = true;
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.handler_reaper.take() {
            let _ = t.join();
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

/// What the reaper hears about a handler thread.
enum Reap {
    /// The accept loop spawned connection `id`'s handler.
    Spawned(u64, JoinHandle<()>),
    /// Connection `id`'s handler is about to return.
    Done(u64),
}

/// Join handler threads as they finish, until the accept loop and
/// every handler have hung up; `unjoined` drops with each join.
fn reap(rx: &Receiver<Reap>, unjoined: &AtomicUsize) {
    let mut live: HashMap<u64, JoinHandle<()>> = HashMap::new();
    // A handler can finish before the accept loop sends its handle.
    let mut done_early: HashSet<u64> = HashSet::new();
    for msg in rx {
        let finished = match msg {
            Reap::Spawned(id, handle) if !done_early.remove(&id) => {
                live.insert(id, handle);
                None
            }
            Reap::Spawned(_, handle) => Some(handle),
            Reap::Done(id) => live.remove(&id).or_else(|| {
                done_early.insert(id);
                None
            }),
        };
        if let Some(handle) = finished {
            let _ = handle.join();
            unjoined.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

fn accept_loop(
    core: &Arc<Core>,
    listener: &TcpListener,
    stop: &AtomicBool,
    reaper: &Sender<Reap>,
) {
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Listener failure: nothing to accept on; drain what we
                // have and let shutdown() finish the job.
                return;
            }
        };
        let max = core.config.max_conns;
        if core.draining() || (max > 0 && core.conn_count() >= max as usize) {
            refuse(core, stream);
            continue;
        }
        let id = core.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(ConnShared { id, stop: AtomicBool::new(false) });
        core.register(Arc::clone(&shared));
        let spawned = {
            let core = Arc::clone(core);
            let reaper = reaper.clone();
            std::thread::Builder::new()
                .name(format!("labflow-conn-{id}"))
                .spawn(move || {
                    conn::serve(&core, &shared, &stream);
                    drop(stream);
                    core.deregister(id);
                    let _ = reaper.send(Reap::Done(id));
                })
        };
        match spawned {
            Ok(handle) => {
                core.unjoined.fetch_add(1, Ordering::AcqRel);
                let _ = reaper.send(Reap::Spawned(id, handle));
            }
            Err(_) => {
                // Could not spawn a handler (thread exhaustion): treat
                // it as an overload shed.
                core.deregister(id);
                core.registry.note_shed_conn();
            }
        }
    }
}

/// Best-effort `Overloaded` frame, then close. A single bounded write —
/// never `write_all_bounded`, whose stall budget would let a refused
/// peer that stops draining (zero receive window) hold the one accept
/// thread for the full MAX_STALL_TICKS patience window, blocking every
/// new connection. The frame is a few dozen bytes, far below any socket
/// send buffer: one write either takes it whole or the peer was not
/// worth waiting for.
fn refuse(core: &Core, stream: TcpStream) {
    core.registry.note_shed_conn();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let resp = Response::Overloaded { retry_after_ms: 200 };
    let frame = Frame {
        version: PROTO_V1,
        code: resp.tag(),
        request_id: 0,
        tenant: 0,
        body: resp.encode_body(),
    };
    if let Ok(bytes) = wire::encode_frame(&frame) {
        let _ = io::Write::write(&mut &stream, &bytes);
    }
}
