//! A blocking client for the labflow wire protocol.
//!
//! One [`Client`] wraps one connection and issues one request at a
//! time; request ids are checked against response ids so a desynced
//! stream surfaces as a typed [`ClientError::Protocol`] instead of
//! silently mismatched answers. Shed responses surface as
//! [`ClientError::Overloaded`] (back off) and transient contention as
//! [`ClientError::Retry`] (reissue), so closed-loop drivers can
//! implement honest retry policies.
//!
//! Two opt-in resilience layers sit on top of the raw call:
//!
//! * a [`RetryPolicy`] — bounded attempts with exponential backoff and
//!   deterministic jitter, honoring the server's `retry_after_ms` hint
//!   on [`ClientError::Overloaded`]; and
//! * a single transparent reconnect after a dropped socket, applied
//!   only to idempotent read-side requests (ping, lookups, replication
//!   pulls), never to a peer that stalled, and never while a
//!   transaction is open on the connection — a dropped socket
//!   mid-transaction must surface, because the server will abort the
//!   orphaned session and silently reissuing writes could double-apply.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use labbase::Value;

use crate::proto::{Request, Response};
use crate::tenant::AdmissionSnapshot;
use crate::wire::{self, FrameReader, SpinSocket, WireError};

/// Errors surfaced by the client.
#[derive(Debug)]
pub enum ClientError {
    /// A frame-layer fault (includes I/O).
    Wire(WireError),
    /// The server reported a database error.
    Server {
        /// One of the `proto::EC_*` codes.
        code: u16,
        /// Rendered message.
        message: String,
    },
    /// Transient contention; reissue the request (or the transaction).
    Retry {
        /// What collided.
        reason: String,
    },
    /// Admission control shed the request.
    Overloaded {
        /// Suggested backoff before retrying.
        retry_after_ms: u32,
    },
    /// The response did not match the request (wrong id or wrong
    /// payload shape).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ClientError::Retry { reason } => write!(f, "retry: {reason}"),
            ClientError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded; retry after {retry_after_ms} ms")
            }
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Client-side result alias.
pub type ClientResult<T> = Result<T, ClientError>;

/// Opt-in retry policy for [`Client::call`]: bounded attempts with
/// exponential backoff and deterministic jitter. `Overloaded` responses
/// are always retried up to the attempt cap, sleeping at least the
/// server's `retry_after_ms` hint; `Retry` responses are retried only
/// outside a transaction (inside one, the whole transaction must be
/// reissued by the caller, so the typed error is returned as-is).
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts per call, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles on each further retry.
    pub base_backoff: Duration,
    /// Ceiling on the exponential portion of the backoff (the server's
    /// `retry_after_ms` hint is honored even above this).
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

/// The primary's replication status as returned by
/// [`Client::repl_status`].
#[derive(Debug)]
pub struct ReplStatus {
    /// The server store's current epoch.
    pub epoch: u64,
    /// The flushed WAL offset followers can stream up to.
    pub lsn: u64,
    /// `(follower id, highest durably acked offset)` per subscriber,
    /// sorted by follower id.
    pub followers: Vec<(u64, u64)>,
}

/// A shipped WAL chunk as returned by [`Client::repl_subscribe`].
#[derive(Debug)]
pub struct ShippedChunk {
    /// The primary's store epoch when the chunk was cut.
    pub epoch: u64,
    /// WAL offset of the chunk's first byte.
    pub start: u64,
    /// WAL offset one past the chunk's last byte (`start == end` means
    /// the follower is caught up).
    pub end: u64,
    /// Raw frame bytes; the follower verifies them with
    /// `decode_shipped` before applying anything.
    pub bytes: Vec<u8>,
}

/// Socket read/write timeout: one tick of a parked wait.
const TICK: Duration = Duration::from_millis(50);

/// Idle ticks a call waits for its response: a request may take a
/// while (big queries, lock waits), but a server that never answers
/// must not hang the client forever, so the wait ends after ~2 minutes.
const IDLE_TICKS: u32 = 2400;

/// One blocking connection to a labflow server.
pub struct Client {
    stream: TcpStream,
    addr: SocketAddr,
    tenant: u32,
    next_id: u64,
    retry: Option<RetryPolicy>,
    jitter: u64,
    in_txn: bool,
    /// Responses arrive here; reset with the connection.
    reader: FrameReader,
    /// Requests are encoded here, one at a time.
    out: Vec<u8>,
    idle_ticks: u32,
}

impl Client {
    /// Connect to `addr`, billing all requests to `tenant`.
    pub fn connect(addr: impl ToSocketAddrs, tenant: u32) -> ClientResult<Client> {
        let stream = TcpStream::connect(addr).map_err(WireError::Io)?;
        let addr = stream.peer_addr().map_err(WireError::Io)?;
        Self::configure(&stream)?;
        Ok(Client {
            stream,
            addr,
            tenant,
            next_id: 1,
            retry: None,
            jitter: 1,
            in_txn: false,
            reader: FrameReader::new(),
            out: Vec::new(),
            idle_ticks: IDLE_TICKS,
        })
    }

    /// No Nagle, timeout ticks for parked waits, and non-blocking at
    /// rest, as [`SpinSocket`] wants.
    fn configure(stream: &TcpStream) -> ClientResult<()> {
        stream.set_nodelay(true).map_err(WireError::Io)?;
        stream.set_read_timeout(Some(TICK)).map_err(WireError::Io)?;
        stream.set_write_timeout(Some(TICK)).map_err(WireError::Io)?;
        stream.set_nonblocking(true).map_err(WireError::Io)?;
        Ok(())
    }

    /// The tenant id this client bills to.
    pub fn tenant(&self) -> u32 {
        self.tenant
    }

    /// Install a retry policy; `None` restores fail-fast behaviour.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        // A zero xorshift seed would stick at zero; force it odd.
        self.jitter = policy.as_ref().map_or(1, |p| p.jitter_seed | 1);
        self.retry = policy;
    }

    /// Whether this connection believes it has a transaction open.
    pub fn in_txn(&self) -> bool {
        self.in_txn
    }

    /// Issue one request and wait for its response, applying the
    /// reconnect and retry layers described in the module docs.
    pub fn call(&mut self, req: &Request) -> ClientResult<Response> {
        let mut attempts = 0u32;
        let mut reconnected = false;
        loop {
            attempts += 1;
            let result = self.call_once(req);
            match &result {
                // One transparent reconnect, for idempotent requests
                // only, and never while a transaction is open. A stalled
                // peer is not a dropped socket: a new connection to it
                // would only wait out the idle budget a second time.
                Err(ClientError::Wire(e))
                    if !matches!(e, WireError::Stalled)
                        && !reconnected
                        && !self.in_txn
                        && is_idempotent(req) =>
                {
                    reconnected = true;
                    if self.reconnect().is_ok() {
                        continue;
                    }
                }
                Err(ClientError::Overloaded { retry_after_ms })
                    if self.should_retry(attempts) =>
                {
                    let hint = Duration::from_millis(u64::from(*retry_after_ms));
                    self.backoff_sleep(attempts, hint);
                    continue;
                }
                Err(ClientError::Retry { .. })
                    if !self.in_txn && self.should_retry(attempts) =>
                {
                    self.backoff_sleep(attempts, Duration::ZERO);
                    continue;
                }
                _ => {}
            }
            self.note_txn_edge(req, &result);
            return result;
        }
    }

    /// Track transaction state from request/response edges so the
    /// reconnect layer knows when reissuing is unsafe.
    fn note_txn_edge(&mut self, req: &Request, result: &ClientResult<Response>) {
        match req {
            Request::Begin => {
                if matches!(result, Ok(Response::Ok)) {
                    self.in_txn = true;
                }
            }
            Request::Commit | Request::Abort => match result {
                // The server closes the session on commit/abort whether
                // the call succeeds or fails with a database error; only
                // a shed (never dispatched) or a wire/protocol fault
                // leaves its state open or unknown.
                Ok(_)
                | Err(ClientError::Server { .. })
                | Err(ClientError::Retry { .. }) => self.in_txn = false,
                Err(ClientError::Overloaded { .. })
                | Err(ClientError::Wire(_))
                | Err(ClientError::Protocol(_)) => {}
            },
            _ => {}
        }
    }

    fn should_retry(&self, attempts: u32) -> bool {
        self.retry
            .as_ref()
            .is_some_and(|p| attempts < p.max_attempts.max(1))
    }

    /// Sleep before the next retry: the exponential backoff (capped at
    /// `max_backoff`) floored by the server's hint, plus up to 50%
    /// deterministic jitter so synchronized retriers spread out.
    fn backoff_sleep(&mut self, attempts: u32, hint: Duration) {
        let Some(policy) = &self.retry else { return };
        let shift = attempts.saturating_sub(1).min(16);
        let backoff = policy
            .base_backoff
            .saturating_mul(1u32 << shift)
            .min(policy.max_backoff);
        let wait = backoff.max(hint);
        let span = u64::try_from(wait.as_micros() / 2).unwrap_or(u64::MAX);
        let jitter =
            Duration::from_micros(if span == 0 { 0 } else { self.next_jitter() % span });
        std::thread::sleep(wait + jitter);
    }

    fn next_jitter(&mut self) -> u64 {
        let mut x = self.jitter;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.jitter = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Replace the dead socket with a fresh connection to the same
    /// address. Request ids keep counting up, so a straggling response
    /// from the old connection can never match a new request.
    fn reconnect(&mut self) -> ClientResult<()> {
        let stream = TcpStream::connect(self.addr).map_err(WireError::Io)?;
        Self::configure(&stream)?;
        self.stream = stream;
        self.reader.reset();
        Ok(())
    }

    /// Test hook: shut down the underlying socket without telling the
    /// client, simulating a connection dropped by the network.
    #[cfg(test)]
    pub(crate) fn sever(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Test hook: wait at most `ticks` idle ticks for a response.
    #[cfg(test)]
    pub(crate) fn set_idle_ticks(&mut self, ticks: u32) {
        self.idle_ticks = ticks;
    }

    /// Issue one request on the current connection and wait for its
    /// response — no retries, no reconnects.
    fn call_once(&mut self, req: &Request) -> ClientResult<Response> {
        let id = self.next_id;
        self.next_id += 1;
        self.out.clear();
        wire::encode_into(&mut self.out, req.opcode(), id, self.tenant, |out| {
            req.encode_body_into(out)
        })?;
        let mut socket = SpinSocket::new(&self.stream);
        wire::write_all_bounded(&mut socket, &self.out)?;
        let mut idle = 0u32;
        loop {
            let Some(resp) = self.reader.next(&mut socket)? else {
                idle += 1;
                if idle > self.idle_ticks {
                    return Err(ClientError::Wire(WireError::Stalled));
                }
                continue;
            };
            if resp.request_id != id && resp.request_id != 0 {
                return Err(ClientError::Protocol(format!(
                    "response for request {} while waiting for {}",
                    resp.request_id, id
                )));
            }
            return match Response::decode(resp.code, resp.body)? {
                Response::Error { code, message } => Err(ClientError::Server { code, message }),
                Response::Retry { reason } => Err(ClientError::Retry { reason }),
                Response::Overloaded { retry_after_ms } => {
                    Err(ClientError::Overloaded { retry_after_ms })
                }
                ok => Ok(ok),
            };
        }
    }

    fn expect_ok(&mut self, req: &Request) -> ClientResult<()> {
        match self.call(req)? {
            Response::Ok => Ok(()),
            other => Err(unexpected("Ok", &other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> ClientResult<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Begin a transaction on this connection.
    pub fn begin(&mut self) -> ClientResult<()> {
        self.expect_ok(&Request::Begin)
    }

    /// Commit the open transaction.
    pub fn commit(&mut self) -> ClientResult<()> {
        self.expect_ok(&Request::Commit)
    }

    /// Abort the open transaction.
    pub fn abort(&mut self) -> ClientResult<()> {
        self.expect_ok(&Request::Abort)
    }

    /// Create a material; returns its raw oid.
    pub fn create_material(
        &mut self,
        class: &str,
        name: &str,
        created: i64,
    ) -> ClientResult<u64> {
        let req = Request::CreateMaterial {
            class: class.into(),
            name: name.into(),
            created,
        };
        match self.call(&req)? {
            Response::Material(oid) => Ok(oid),
            other => Err(unexpected("Material", &other)),
        }
    }

    /// Record a workflow step; returns the step's raw oid.
    pub fn record_step(
        &mut self,
        class: &str,
        valid_time: i64,
        materials: &[u64],
        attrs: Vec<(String, Value)>,
    ) -> ClientResult<u64> {
        let req = Request::RecordStep {
            class: class.into(),
            valid_time,
            materials: materials.to_vec(),
            attrs,
        };
        match self.call(&req)? {
            Response::Step(oid) => Ok(oid),
            other => Err(unexpected("Step", &other)),
        }
    }

    /// Set a material's workflow state.
    pub fn set_state(&mut self, material: u64, state: &str, valid_time: i64) -> ClientResult<()> {
        self.expect_ok(&Request::SetState {
            material,
            state: state.into(),
            valid_time,
        })
    }

    /// Define a material class.
    pub fn define_material_class(
        &mut self,
        name: &str,
        parent: Option<&str>,
    ) -> ClientResult<()> {
        self.expect_ok(&Request::DefineMaterialClass {
            name: name.into(),
            parent: parent.map(str::to_string),
        })
    }

    /// Define a step class.
    pub fn define_step_class(
        &mut self,
        name: &str,
        attrs: &[(&str, labbase::AttrType)],
    ) -> ClientResult<()> {
        self.expect_ok(&Request::DefineStepClass {
            name: name.into(),
            attrs: attrs.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
        })
    }

    /// Create a material set.
    pub fn create_set(&mut self, set: &str) -> ClientResult<()> {
        self.expect_ok(&Request::CreateSet { set: set.into() })
    }

    /// Add a material to a set.
    pub fn add_to_set(&mut self, set: &str, material: u64) -> ClientResult<()> {
        self.expect_ok(&Request::AddToSet { set: set.into(), material })
    }

    /// A material's workflow state.
    pub fn state_of(&mut self, material: u64) -> ClientResult<Option<String>> {
        match self.call(&Request::StateOf { material })? {
            Response::State(s) => Ok(s),
            other => Err(unexpected("State", &other)),
        }
    }

    /// Most-recent value of `attr`: `(value, valid_time, step oid)`.
    pub fn recent(
        &mut self,
        material: u64,
        attr: &str,
    ) -> ClientResult<Option<(Value, i64, u64)>> {
        match self.call(&Request::Recent { material, attr: attr.into() })? {
            Response::RecentValue(v) => Ok(v),
            other => Err(unexpected("RecentValue", &other)),
        }
    }

    /// A material's history as `(step oid, valid_time)`, newest first.
    pub fn history(&mut self, material: u64) -> ClientResult<Vec<(u64, i64)>> {
        match self.call(&Request::History { material })? {
            Response::History(h) => Ok(h),
            other => Err(unexpected("History", &other)),
        }
    }

    /// Look up a material by external name.
    pub fn find_material(&mut self, name: &str) -> ClientResult<Option<u64>> {
        match self.call(&Request::FindMaterial { name: name.into() })? {
            Response::MaybeMaterial(m) => Ok(m),
            other => Err(unexpected("MaybeMaterial", &other)),
        }
    }

    /// Count materials in a workflow state.
    pub fn count_in_state(&mut self, state: &str) -> ClientResult<u64> {
        match self.call(&Request::CountInState { state: state.into() })? {
            Response::Count(n) => Ok(n),
            other => Err(unexpected("Count", &other)),
        }
    }

    /// Run an LQL query; rows are `(variable, rendered term)` pairs.
    pub fn query(&mut self, lql: &str) -> ClientResult<Vec<Vec<(String, String)>>> {
        match self.call(&Request::Query { lql: lql.into() })? {
            Response::Rows(rows) => Ok(rows),
            other => Err(unexpected("Rows", &other)),
        }
    }

    /// Fetch the server's admission counters.
    pub fn admission_stats(&mut self) -> ClientResult<AdmissionSnapshot> {
        match self.call(&Request::AdmissionStats)? {
            Response::Admission(snap) => Ok(snap),
            other => Err(unexpected("Admission", &other)),
        }
    }

    /// Ask the server to drain and exit.
    pub fn shutdown_server(&mut self) -> ClientResult<()> {
        self.expect_ok(&Request::Shutdown)
    }

    /// Pull a WAL chunk starting at offset `from` (the follower side of
    /// the replication pump). Binds `follower` in the primary's ack
    /// table to this connection.
    pub fn repl_subscribe(
        &mut self,
        follower: u64,
        from: u64,
        max_bytes: u32,
    ) -> ClientResult<ShippedChunk> {
        match self.call(&Request::ReplSubscribe { follower, from, max_bytes })? {
            Response::ReplChunk { epoch, start, end, bytes } => {
                Ok(ShippedChunk { epoch, start, end, bytes })
            }
            other => Err(unexpected("ReplChunk", &other)),
        }
    }

    /// Report this follower's durably applied WAL offset to the primary.
    /// Only the connection that subscribed `follower` may: any other
    /// gets a typed `EC_REPL` error.
    pub fn repl_ack(&mut self, follower: u64, lsn: u64) -> ClientResult<()> {
        self.expect_ok(&Request::ReplAck { follower, lsn })
    }

    /// The server's replication status: the store epoch, the flushed
    /// WAL offset, and every subscriber's acked offset.
    pub fn repl_status(&mut self) -> ClientResult<ReplStatus> {
        match self.call(&Request::ReplStatus)? {
            Response::ReplState { epoch, lsn, followers } => {
                Ok(ReplStatus { epoch, lsn, followers })
            }
            other => Err(unexpected("ReplState", &other)),
        }
    }

    /// Ask a follower server to promote itself to primary.
    pub fn repl_promote(&mut self) -> ClientResult<()> {
        self.expect_ok(&Request::ReplPromote)
    }
}

/// Requests the reconnect layer may transparently reissue: pure reads,
/// the liveness probe, and the replication pull (a read). Everything
/// that can mutate database state is excluded, and so is the ack: the
/// primary takes a follower's acks only on the connection that
/// subscribed it, so an ack reissued on a fresh connection is refused —
/// the pump resubscribes, which moves the follower, and acks again.
fn is_idempotent(req: &Request) -> bool {
    matches!(
        req,
        Request::Ping
            | Request::StateOf { .. }
            | Request::Recent { .. }
            | Request::History { .. }
            | Request::FindMaterial { .. }
            | Request::CountInState { .. }
            | Request::Query { .. }
            | Request::AdmissionStats
            | Request::ReplSubscribe { .. }
            | Request::ReplStatus
    )
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted} response, got {got:?}"))
}
