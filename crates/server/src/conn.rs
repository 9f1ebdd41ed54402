//! Per-connection request handling.
//!
//! Each accepted connection gets one handler thread running
//! [`serve`]: a read-dispatch-respond loop over the framed wire
//! protocol. The handler owns at most one open [`Session`] (the
//! connection's transaction). Requests arrive through one reused
//! [`wire::FrameReader`] and responses are encoded into one reused
//! [`BoundedWriter`] buffer and drained after each, so a slow reader
//! exerts backpressure on its own connection instead of growing server
//! memory — and a reader that stops draining entirely is shed when the
//! write stall budget runs out. Every wait on the socket spins for
//! [`wire::SPIN_BUDGET`] before it parks (see [`wire::SpinSocket`]).
//!
//! No server lock is ever held across a database call, a socket
//! operation, or a sleep: the tenant registry and connection table are
//! leaf latches (ranks 70+), and the lock-order checkers enforce it.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use labbase::{LabError, MaterialId, Session};
use labflow_storage::Oid;

use crate::proto::{self, Request, Response};
use crate::server::Core;
use crate::tenant::Admit;
use crate::wire::{self, FrameReader, SpinSocket, WireError};

/// Socket read/write timeout: one backpressure tick. The stall budget
/// ([`wire::MAX_STALL_TICKS`]) counts these.
pub(crate) const TICK: Duration = Duration::from_millis(50);

/// Cap on LQL result rows returned over the wire; keeps response frames
/// under the frame size limit.
const QUERY_ROW_LIMIT: usize = 4096;

/// Cap on a shipped replication chunk: half the frame limit, leaving
/// ample headroom for the frame header and body framing.
const REPL_CHUNK_CAP: usize = 1 << 19;

/// Per-connection state shared with the server (stop signalling).
pub(crate) struct ConnShared {
    /// Connection id (key in the server's connection table).
    pub(crate) id: u64,
    /// Set by the server to ask this handler to wind down: the handler
    /// notices at the next idle tick or frame boundary, aborts its open
    /// transaction, and exits.
    pub(crate) stop: AtomicBool,
}

/// The connection's open transaction, tagged with the tenant whose
/// session quota it occupies.
struct OpenTxn<'a> {
    session: Session<'a>,
    tenant: u32,
}

/// Capacity a [`BoundedWriter`] keeps between responses, in bytes.
const WRITE_BUFFER: usize = 256 * 1024;

/// The write path: responses are encoded straight into one reused
/// staging buffer and drained to the socket under the wire layer's
/// stall budget after every response, so a slow reader holds back only
/// its own connection. The buffer holds one response at a time; after
/// a response larger than [`WRITE_BUFFER`] it shrinks back to it.
pub(crate) struct BoundedWriter<'a> {
    stream: &'a TcpStream,
    buf: Vec<u8>,
}

impl<'a> BoundedWriter<'a> {
    /// A writer over `stream`.
    pub(crate) fn new(stream: &'a TcpStream) -> BoundedWriter<'a> {
        BoundedWriter { stream, buf: Vec::new() }
    }

    /// Encode one response frame into the buffer; returns its wire
    /// length. A response past the frame limit stages nothing.
    fn stage(&mut self, request_id: u64, tenant: u32, resp: &Response) -> Result<usize, WireError> {
        wire::encode_into(&mut self.buf, resp.tag(), request_id, tenant, |out| {
            resp.encode_body_into(out)
        })
    }

    /// Drain the staging buffer to the socket.
    pub(crate) fn flush(&mut self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        wire::write_all_bounded(&mut SpinSocket::new(self.stream), &self.buf)?;
        self.buf.clear();
        self.buf.shrink_to(WRITE_BUFFER);
        Ok(())
    }
}

/// Run one connection to completion. Returns when the peer closes, a
/// wire fault or stall occurs, or the server asks the handler to stop.
/// Any open transaction is aborted (selective footprint undo) and its
/// snapshot released before returning; the caller deregisters the
/// connection afterwards.
pub(crate) fn serve(core: &Core, shared: &ConnShared, stream: &TcpStream) {
    // Nagle would delay each small response frame behind the peer's
    // delayed ACK, stretching transactions (and their lock footprints)
    // by ~40 ms per round trip.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(TICK));
    let _ = stream.set_write_timeout(Some(TICK));
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let mut session: Option<OpenTxn<'_>> = None;
    let mut socket = SpinSocket::new(stream);
    let mut reader = FrameReader::new();
    let mut writer = BoundedWriter::new(stream);

    loop {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let frame = match reader.next(&mut socket) {
            Ok(None) => continue,
            Ok(Some(f)) => f,
            Err(WireError::Closed) => break,
            Err(e @ (WireError::BadLength(_)
            | WireError::BadChecksum { .. }
            | WireError::BadVersion(_)
            | WireError::Decode(_))) => {
                // The stream itself is still healthy; tell the peer what
                // was wrong with its frame, then drop the connection —
                // after a framing error we cannot trust re-sync.
                let resp = Response::Error { code: proto::EC_BAD_OP, message: e.to_string() };
                let _ = respond(&mut writer, 0, 0, &resp);
                break;
            }
            Err(_) => break, // truncated / stalled / io: nothing to say
        };

        let tenant = frame.tenant;
        let request_id = frame.request_id;

        // `admitted` comes from admit_request's own outcome, never from
        // the response shape: dispatch can also answer `Overloaded`
        // (e.g. Begin hitting the session cap) for a request that *was*
        // admitted, and skipping finish_request for those would leak
        // the tenant's in-flight count one per shed until the cap
        // starves the tenant permanently.
        let (admitted, resp) = match core.registry().admit_request(tenant, frame.wire_len()) {
            Admit::Overloaded { retry_after_ms } => {
                (false, Response::Overloaded { retry_after_ms })
            }
            Admit::Ok => {
                let resp = match Request::decode(frame.code, frame.body) {
                    Ok(req) => dispatch(core, shared.id, &mut session, tenant, req),
                    Err(e) => Response::Error {
                        code: proto::EC_DECODE,
                        message: e.to_string(),
                    },
                };
                (true, resp)
            }
        };

        let sent = respond(&mut writer, request_id, tenant, &resp);
        if admitted {
            core.registry().finish_request(tenant, *sent.as_ref().unwrap_or(&0));
        }
        if sent.is_err() {
            break;
        }
    }

    if let Some(open) = session.take() {
        let _ = open.session.abort();
        core.registry().close_session(open.tenant);
    }
    core.repl_acks().drop_conn(shared.id);
}

/// Encode and send one response; returns the wire bytes written. A
/// response that would exceed the frame limit degrades to a typed
/// error so the connection stays usable.
fn respond(
    writer: &mut BoundedWriter<'_>,
    request_id: u64,
    tenant: u32,
    resp: &Response,
) -> Result<usize, WireError> {
    let n = match writer.stage(request_id, tenant, resp) {
        Ok(n) => n,
        Err(_) => {
            let fallback = Response::Error {
                code: proto::EC_QUERY,
                message: "response exceeds frame size limit".into(),
            };
            writer.stage(request_id, tenant, &fallback)?
        }
    };
    writer.flush()?;
    Ok(n)
}

fn mat(raw: u64) -> MaterialId {
    MaterialId::from(Oid::from_raw(raw))
}

fn ok_or(r: Result<(), LabError>) -> Response {
    match r {
        Ok(()) => Response::Ok,
        Err(e) => proto::response_for_error(&e),
    }
}

/// Execute one request against the connection's state. `'db` is the
/// server's database borrow: the open session lives exactly as long as
/// the handler does.
fn dispatch<'db>(
    core: &'db Core,
    conn: u64,
    session: &mut Option<OpenTxn<'db>>,
    tenant: u32,
    req: Request,
) -> Response {
    let db = core.db();
    match req {
        Request::Ping => Response::Pong,

        Request::Begin => {
            if session.is_some() {
                return Response::Error {
                    code: proto::EC_TXN_STATE,
                    message: "transaction already open on this connection".into(),
                };
            }
            if core.draining() {
                return Response::Error {
                    code: proto::EC_DRAINING,
                    message: "server is draining; no new transactions".into(),
                };
            }
            if !core.registry().try_open_session(tenant) {
                return Response::Overloaded { retry_after_ms: 50 };
            }
            match db.session() {
                Ok(s) => {
                    *session = Some(OpenTxn { session: s, tenant });
                    Response::Ok
                }
                Err(e) => {
                    core.registry().close_session(tenant);
                    proto::response_for_error(&e)
                }
            }
        }

        Request::Commit => match session.take() {
            None => no_txn(),
            Some(open) => {
                let r = open.session.commit();
                core.registry().close_session(open.tenant);
                match r {
                    Ok(()) => committed(core),
                    Err(e) => proto::response_for_error(&e),
                }
            }
        },

        Request::Abort => match session.take() {
            None => no_txn(),
            Some(open) => {
                let r = open.session.abort();
                core.registry().close_session(open.tenant);
                ok_or(r)
            }
        },

        Request::CreateMaterial { class, name, created } => match session.as_mut() {
            None => no_txn(),
            Some(open) => match open.session.create_material(&class, &name, created) {
                Ok(m) => Response::Material(m.oid().raw()),
                Err(e) => proto::response_for_error(&e),
            },
        },

        Request::RecordStep { class, valid_time, materials, attrs } => match session.as_mut() {
            None => no_txn(),
            Some(open) => {
                let mats: Vec<MaterialId> = materials.iter().map(|m| mat(*m)).collect();
                match open.session.record_step(&class, valid_time, &mats, attrs) {
                    Ok(s) => Response::Step(s.oid().raw()),
                    Err(e) => proto::response_for_error(&e),
                }
            }
        },

        Request::SetState { material, state, valid_time } => match session.as_mut() {
            None => no_txn(),
            Some(open) => {
                let r = if state.is_empty() {
                    open.session.clear_state(mat(material), valid_time)
                } else {
                    open.session.set_state(mat(material), &state, valid_time)
                };
                ok_or(r)
            }
        },

        Request::DefineMaterialClass { name, parent } => match session.as_mut() {
            None => no_txn(),
            Some(open) => {
                match open.session.define_material_class(&name, parent.as_deref()) {
                    Ok(_) => Response::Ok,
                    Err(e) => proto::response_for_error(&e),
                }
            }
        },

        Request::DefineStepClass { name, attrs } => match session.as_mut() {
            None => no_txn(),
            Some(open) => {
                let specs: Vec<(&str, labbase::AttrType)> =
                    attrs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
                match open.session.define_step_class(&name, labbase::schema::attrs(&specs)) {
                    Ok(_) => Response::Ok,
                    Err(e) => proto::response_for_error(&e),
                }
            }
        },

        Request::CreateSet { set } => match session.as_mut() {
            None => no_txn(),
            Some(open) => ok_or(open.session.create_set(&set)),
        },

        Request::AddToSet { set, material } => match session.as_mut() {
            None => no_txn(),
            Some(open) => ok_or(open.session.add_to_set(&set, mat(material))),
        },

        // Reads go through the open transaction when there is one (the
        // connection sees its own uncommitted writes), and against the
        // latest committed state otherwise.
        Request::StateOf { material } => {
            let r = match session.as_ref() {
                Some(open) => open.session.state_of(mat(material)),
                None => db.state_of(mat(material)),
            };
            match r {
                Ok(state) => Response::State(state),
                Err(e) => proto::response_for_error(&e),
            }
        }

        Request::Recent { material, attr } => {
            let r = match session.as_ref() {
                Some(open) => open.session.recent(mat(material), &attr),
                None => db.recent(mat(material), &attr),
            };
            match r {
                Ok(v) => Response::RecentValue(
                    v.map(|rec| (rec.value, rec.valid_time, rec.step.oid().raw())),
                ),
                Err(e) => proto::response_for_error(&e),
            }
        }

        Request::History { material } => {
            let r = match session.as_ref() {
                Some(open) => open.session.history(mat(material)),
                None => db.history(mat(material)),
            };
            match r {
                Ok(entries) => Response::History(
                    entries.iter().map(|e| (e.step.oid().raw(), e.valid_time)).collect(),
                ),
                Err(e) => proto::response_for_error(&e),
            }
        }

        Request::FindMaterial { name } => match db.find_material(&name) {
            Ok(m) => Response::MaybeMaterial(m.map(|m| m.oid().raw())),
            Err(e) => proto::response_for_error(&e),
        },

        Request::CountInState { state } => match db.count_in_state(&state) {
            Ok(n) => Response::Count(n as u64),
            Err(e) => proto::response_for_error(&e),
        },

        Request::Query { lql } => {
            let qs = lql::Session::new(db, core.program());
            match qs.query_limit(&lql, QUERY_ROW_LIMIT) {
                Ok(rows) => Response::Rows(
                    rows.into_iter()
                        .map(|b| b.into_iter().map(|(v, t)| (v, t.to_string())).collect())
                        .collect(),
                ),
                Err(e) => Response::Error { code: proto::EC_QUERY, message: e.to_string() },
            }
        }

        Request::AdmissionStats => Response::Admission(core.registry().snapshot()),

        Request::Shutdown => {
            core.request_shutdown();
            Response::Ok
        }

        Request::ReplSubscribe { follower, from, max_bytes } => {
            core.repl_acks().subscribe(follower, conn);
            let store = db.store();
            match store.wal_stream_from(from, (max_bytes as usize).min(REPL_CHUNK_CAP)) {
                Ok(chunk) => Response::ReplChunk {
                    epoch: store.store_epoch(),
                    start: chunk.start,
                    end: chunk.end,
                    bytes: chunk.bytes,
                },
                Err(e) => proto::response_for_error(&LabError::Storage(e)),
            }
        }

        Request::ReplAck { follower, lsn } => {
            if core.repl_acks().ack(follower, conn, lsn) {
                Response::Ok
            } else {
                Response::Error {
                    code: proto::EC_REPL,
                    message: format!(
                        "follower {follower} is not subscribed on this connection \
                         (send ReplSubscribe first)"
                    ),
                }
            }
        }

        Request::ReplStatus => {
            let store = db.store();
            Response::ReplState {
                epoch: store.store_epoch(),
                lsn: store.replication_lsn().unwrap_or(0),
                followers: core.repl_acks().snapshot(),
            }
        }

        Request::ReplPromote => match core.promote_hook() {
            None => Response::Error {
                code: proto::EC_REPL,
                message: "not a follower: this server is already the primary".into(),
            },
            Some(hook) => match hook() {
                Ok(()) => Response::Ok,
                Err(msg) => Response::Error { code: proto::EC_REPL, message: msg },
            },
        },
    }
}

/// The response for a commit that succeeded locally. With an ack quorum
/// configured, hold the answer until enough followers have applied the
/// commit's WAL offset; a timeout reports the lag as a typed error —
/// the commit itself is durable on the primary either way.
fn committed(core: &Core) -> Response {
    let quorum = core.config().ack_quorum;
    if quorum == 0 {
        return Response::Ok;
    }
    let lsn = match core.db().store().replication_lsn() {
        Ok(lsn) => lsn,
        // In-memory profile: no log, nothing to ship, nothing to wait on.
        Err(_) => return Response::Ok,
    };
    if core.repl_acks().wait_quorum(lsn, quorum, core.config().ack_timeout) {
        Response::Ok
    } else {
        Response::Error {
            code: proto::EC_REPL,
            message: format!(
                "commit is durable on the primary but fewer than {quorum} followers \
                 acked it within the quorum window"
            ),
        }
    }
}

fn no_txn() -> Response {
    Response::Error {
        code: proto::EC_TXN_STATE,
        message: "no transaction open on this connection (send Begin first)".into(),
    }
}
