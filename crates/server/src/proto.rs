//! Request/response bodies carried inside [`wire`](crate::wire) frames.
//!
//! Bodies reuse LabBase's own little-endian [`enc`](labbase::enc) codec
//! and the [`Value`]/[`AttrType`] encoders, so a value travels the wire
//! in exactly the bytes it is stored in. The frame's `code` field holds
//! the request opcode on the way in and the response tag on the way out.

use labbase::enc::{Reader, Writer};
use labbase::{AttrType, Value};

use crate::tenant::AdmissionSnapshot;
use crate::wire::WireError;

// ---- request opcodes -------------------------------------------------------

/// Liveness probe.
pub const OP_PING: u16 = 1;
/// Begin a transaction on this connection.
pub const OP_BEGIN: u16 = 2;
/// Commit the connection's open transaction.
pub const OP_COMMIT: u16 = 3;
/// Abort the connection's open transaction.
pub const OP_ABORT: u16 = 4;
/// Create a material.
pub const OP_CREATE_MATERIAL: u16 = 10;
/// Record a workflow step.
pub const OP_RECORD_STEP: u16 = 11;
/// Set a material's workflow state.
pub const OP_SET_STATE: u16 = 12;
/// Define a material class.
pub const OP_DEFINE_MATERIAL_CLASS: u16 = 13;
/// Define a step class.
pub const OP_DEFINE_STEP_CLASS: u16 = 14;
/// Create a material set.
pub const OP_CREATE_SET: u16 = 15;
/// Add a material to a set.
pub const OP_ADD_TO_SET: u16 = 16;
/// Read a material's workflow state.
pub const OP_STATE_OF: u16 = 20;
/// Read the most-recent value of an attribute.
pub const OP_RECENT: u16 = 21;
/// Read a material's history.
pub const OP_HISTORY: u16 = 22;
/// Look up a material by external name.
pub const OP_FIND_MATERIAL: u16 = 23;
/// Count materials in a workflow state.
pub const OP_COUNT_IN_STATE: u16 = 24;
/// Run an LQL query.
pub const OP_QUERY: u16 = 25;
/// Fetch the server's admission-control counters.
pub const OP_ADMISSION_STATS: u16 = 30;
/// Ask the server to drain and exit.
pub const OP_SHUTDOWN: u16 = 31;
/// Replication: stream WAL bytes from an offset (follower → primary).
pub const OP_REPL_SUBSCRIBE: u16 = 40;
/// Replication: acknowledge durably applied WAL bytes.
pub const OP_REPL_ACK: u16 = 41;
/// Replication: epoch, flushed LSN, and per-follower acked LSNs.
pub const OP_REPL_STATUS: u16 = 42;
/// Replication: promote this (follower) server to primary.
pub const OP_REPL_PROMOTE: u16 = 43;

// ---- response tags ---------------------------------------------------------

/// Generic success.
pub const RE_OK: u16 = 0;
/// Ping reply.
pub const RE_PONG: u16 = 1;
/// A material id.
pub const RE_MATERIAL: u16 = 2;
/// A step id.
pub const RE_STEP: u16 = 3;
/// An optional material id.
pub const RE_MAYBE_MATERIAL: u16 = 4;
/// An optional workflow state.
pub const RE_STATE: u16 = 5;
/// An optional most-recent value.
pub const RE_RECENT: u16 = 6;
/// A history listing.
pub const RE_HISTORY: u16 = 7;
/// A count.
pub const RE_COUNT: u16 = 8;
/// LQL result rows.
pub const RE_ROWS: u16 = 9;
/// Admission-control counters.
pub const RE_ADMISSION: u16 = 10;
/// A database error (typed code + rendered message).
pub const RE_ERROR: u16 = 11;
/// Transient contention: retry the same request.
pub const RE_RETRY: u16 = 12;
/// Admission control shed the request; back off.
pub const RE_OVERLOADED: u16 = 13;
/// A shipped WAL chunk (replication).
pub const RE_REPL_CHUNK: u16 = 14;
/// Replication status (epoch / LSN / follower acks).
pub const RE_REPL_STATUS: u16 = 15;

// ---- error codes carried by RE_ERROR ---------------------------------------

/// Storage-layer failure.
pub const EC_STORAGE: u16 = 1;
/// Record/body decode failure.
pub const EC_DECODE: u16 = 2;
/// Unknown class/material/step/set/attr or duplicate definition.
pub const EC_SCHEMA: u16 = 3;
/// The request needs an open transaction (or already has one).
pub const EC_TXN_STATE: u16 = 4;
/// LQL error.
pub const EC_QUERY: u16 = 5;
/// The opcode is not one this server understands.
pub const EC_BAD_OP: u16 = 6;
/// The server is draining and accepts no new work.
pub const EC_DRAINING: u16 = 7;
/// The database is a replication follower; writes refused until
/// promotion.
pub const EC_READ_ONLY: u16 = 8;
/// A replication-protocol failure (fenced epoch, quorum not reached,
/// not a follower, ...).
pub const EC_REPL: u16 = 9;
/// The primary's log was truncated behind the requested offset; the
/// follower must re-seed from a base copy.
pub const EC_REPL_REWOUND: u16 = 10;

/// A decoded request body.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Begin a transaction on this connection.
    Begin,
    /// Commit the open transaction.
    Commit,
    /// Abort the open transaction.
    Abort,
    /// Create a material.
    CreateMaterial {
        /// Material class name.
        class: String,
        /// External name.
        name: String,
        /// Valid time of creation.
        created: i64,
    },
    /// Record a workflow step.
    RecordStep {
        /// Step class name.
        class: String,
        /// Valid time of the event.
        valid_time: i64,
        /// Involved materials (raw oids).
        materials: Vec<u64>,
        /// Result attributes.
        attrs: Vec<(String, Value)>,
    },
    /// Set a material's workflow state (empty string clears it).
    SetState {
        /// The material (raw oid).
        material: u64,
        /// New state.
        state: String,
        /// Valid time of the transition.
        valid_time: i64,
    },
    /// Define a material class.
    DefineMaterialClass {
        /// Class name.
        name: String,
        /// Optional parent class.
        parent: Option<String>,
    },
    /// Define a step class (version 1).
    DefineStepClass {
        /// Class name.
        name: String,
        /// Attribute schema.
        attrs: Vec<(String, AttrType)>,
    },
    /// Create a material set.
    CreateSet {
        /// Set name.
        set: String,
    },
    /// Add a material to a set.
    AddToSet {
        /// Set name.
        set: String,
        /// The material (raw oid).
        material: u64,
    },
    /// Read a material's workflow state.
    StateOf {
        /// The material (raw oid).
        material: u64,
    },
    /// Most-recent value of an attribute.
    Recent {
        /// The material (raw oid).
        material: u64,
        /// Attribute name.
        attr: String,
    },
    /// A material's history, newest first.
    History {
        /// The material (raw oid).
        material: u64,
    },
    /// Look up a material by external name.
    FindMaterial {
        /// External name.
        name: String,
    },
    /// Count materials in a workflow state.
    CountInState {
        /// State name.
        state: String,
    },
    /// Run an LQL query.
    Query {
        /// LQL source text.
        lql: String,
    },
    /// Fetch admission-control counters.
    AdmissionStats,
    /// Ask the server to drain and exit.
    Shutdown,
    /// Stream WAL bytes from `from` (a follower pulling from the
    /// primary). `follower` identifies the subscriber in the primary's
    /// ack table.
    ReplSubscribe {
        /// Follower id (chosen by the follower, stable per replica).
        follower: u64,
        /// WAL offset to stream from.
        from: u64,
        /// Upper bound on chunk size, in bytes.
        max_bytes: u32,
    },
    /// Acknowledge that `follower` has durably applied the WAL up to
    /// `lsn`; unblocks quorum-waiting commits.
    ReplAck {
        /// Follower id.
        follower: u64,
        /// Durably applied WAL offset.
        lsn: u64,
    },
    /// Fetch the replication status (epoch, LSN, follower acks).
    ReplStatus,
    /// Promote this server's database to primary (follower servers
    /// only; the primary refuses).
    ReplPromote,
}

/// A decoded response body.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Generic success.
    Ok,
    /// Ping reply.
    Pong,
    /// A material id (raw oid).
    Material(u64),
    /// A step id (raw oid).
    Step(u64),
    /// An optional material id.
    MaybeMaterial(Option<u64>),
    /// An optional workflow state.
    State(Option<String>),
    /// Most-recent value: `(value, valid_time, step oid)`.
    RecentValue(Option<(Value, i64, u64)>),
    /// History entries `(step oid, valid_time)`, newest first.
    History(Vec<(u64, i64)>),
    /// A count.
    Count(u64),
    /// LQL rows: each a list of `(variable, rendered term)`.
    Rows(Vec<Vec<(String, String)>>),
    /// Admission-control counters.
    Admission(AdmissionSnapshot),
    /// A database error.
    Error {
        /// One of the `EC_*` codes.
        code: u16,
        /// Rendered message.
        message: String,
    },
    /// Transient contention (lock timeout / wound): retry the request.
    Retry {
        /// What collided.
        reason: String,
    },
    /// Admission control shed the request.
    Overloaded {
        /// Suggested backoff before retrying.
        retry_after_ms: u32,
    },
    /// A shipped WAL chunk: `bytes` is whole checksummed frames
    /// covering primary WAL offsets `[start, end)`, stamped with the
    /// primary's store epoch. Empty (`start == end`) means caught up.
    ReplChunk {
        /// The primary's sealed store epoch when the chunk was cut.
        epoch: u64,
        /// First WAL offset covered.
        start: u64,
        /// One past the last WAL offset covered.
        end: u64,
        /// The raw frame bytes (verify with `decode_shipped`).
        bytes: Vec<u8>,
    },
    /// Replication status.
    ReplState {
        /// The store's sealed epoch.
        epoch: u64,
        /// The WAL's flushed tail offset.
        lsn: u64,
        /// Per-follower acked LSNs, sorted by follower id.
        followers: Vec<(u64, u64)>,
    },
}

fn de(e: labbase::LabError) -> WireError {
    WireError::Decode(e.to_string())
}

fn opt_str(w: &mut Writer, v: Option<&str>) {
    match v {
        None => w.u8(0),
        Some(s) => {
            w.u8(1);
            w.str(s);
        }
    }
}

fn read_opt_str(r: &mut Reader<'_>) -> Result<Option<String>, WireError> {
    Ok(match r.u8().map_err(de)? {
        0 => None,
        _ => Some(r.str().map_err(de)?),
    })
}

impl Request {
    /// The opcode this request travels under.
    pub fn opcode(&self) -> u16 {
        match self {
            Request::Ping => OP_PING,
            Request::Begin => OP_BEGIN,
            Request::Commit => OP_COMMIT,
            Request::Abort => OP_ABORT,
            Request::CreateMaterial { .. } => OP_CREATE_MATERIAL,
            Request::RecordStep { .. } => OP_RECORD_STEP,
            Request::SetState { .. } => OP_SET_STATE,
            Request::DefineMaterialClass { .. } => OP_DEFINE_MATERIAL_CLASS,
            Request::DefineStepClass { .. } => OP_DEFINE_STEP_CLASS,
            Request::CreateSet { .. } => OP_CREATE_SET,
            Request::AddToSet { .. } => OP_ADD_TO_SET,
            Request::StateOf { .. } => OP_STATE_OF,
            Request::Recent { .. } => OP_RECENT,
            Request::History { .. } => OP_HISTORY,
            Request::FindMaterial { .. } => OP_FIND_MATERIAL,
            Request::CountInState { .. } => OP_COUNT_IN_STATE,
            Request::Query { .. } => OP_QUERY,
            Request::AdmissionStats => OP_ADMISSION_STATS,
            Request::Shutdown => OP_SHUTDOWN,
            Request::ReplSubscribe { .. } => OP_REPL_SUBSCRIBE,
            Request::ReplAck { .. } => OP_REPL_ACK,
            Request::ReplStatus => OP_REPL_STATUS,
            Request::ReplPromote => OP_REPL_PROMOTE,
        }
    }

    /// Encode the body (opcode travels in the frame header).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut body = Vec::new();
        self.encode_body_into(&mut body);
        body
    }

    /// Append the body to `out`.
    pub fn encode_body_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer::resume(std::mem::take(out));
        match self {
            Request::Ping
            | Request::Begin
            | Request::Commit
            | Request::Abort
            | Request::AdmissionStats
            | Request::Shutdown
            | Request::ReplStatus
            | Request::ReplPromote => {}
            Request::ReplSubscribe { follower, from, max_bytes } => {
                w.u64(*follower);
                w.u64(*from);
                w.u32(*max_bytes);
            }
            Request::ReplAck { follower, lsn } => {
                w.u64(*follower);
                w.u64(*lsn);
            }
            Request::CreateMaterial { class, name, created } => {
                w.str(class);
                w.str(name);
                w.i64(*created);
            }
            Request::RecordStep { class, valid_time, materials, attrs } => {
                w.str(class);
                w.i64(*valid_time);
                w.u32(materials.len() as u32);
                for m in materials {
                    w.u64(*m);
                }
                w.u32(attrs.len() as u32);
                for (name, value) in attrs {
                    w.str(name);
                    value.encode(&mut w);
                }
            }
            Request::SetState { material, state, valid_time } => {
                w.u64(*material);
                w.str(state);
                w.i64(*valid_time);
            }
            Request::DefineMaterialClass { name, parent } => {
                w.str(name);
                opt_str(&mut w, parent.as_deref());
            }
            Request::DefineStepClass { name, attrs } => {
                w.str(name);
                w.u32(attrs.len() as u32);
                for (attr, ty) in attrs {
                    w.str(attr);
                    ty.encode(&mut w);
                }
            }
            Request::CreateSet { set } => w.str(set),
            Request::AddToSet { set, material } => {
                w.str(set);
                w.u64(*material);
            }
            Request::StateOf { material } | Request::History { material } => w.u64(*material),
            Request::Recent { material, attr } => {
                w.u64(*material);
                w.str(attr);
            }
            Request::FindMaterial { name } => w.str(name),
            Request::CountInState { state } => w.str(state),
            Request::Query { lql } => w.str(lql),
        }
        *out = w.finish();
    }

    /// Decode a request from its opcode and body bytes.
    pub fn decode(opcode: u16, body: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(body);
        let req = match opcode {
            OP_PING => Request::Ping,
            OP_BEGIN => Request::Begin,
            OP_COMMIT => Request::Commit,
            OP_ABORT => Request::Abort,
            OP_ADMISSION_STATS => Request::AdmissionStats,
            OP_SHUTDOWN => Request::Shutdown,
            OP_REPL_STATUS => Request::ReplStatus,
            OP_REPL_PROMOTE => Request::ReplPromote,
            OP_REPL_SUBSCRIBE => Request::ReplSubscribe {
                follower: r.u64().map_err(de)?,
                from: r.u64().map_err(de)?,
                max_bytes: r.u32().map_err(de)?,
            },
            OP_REPL_ACK => Request::ReplAck {
                follower: r.u64().map_err(de)?,
                lsn: r.u64().map_err(de)?,
            },
            OP_CREATE_MATERIAL => Request::CreateMaterial {
                class: r.str().map_err(de)?,
                name: r.str().map_err(de)?,
                created: r.i64().map_err(de)?,
            },
            OP_RECORD_STEP => {
                let class = r.str().map_err(de)?;
                let valid_time = r.i64().map_err(de)?;
                // A material is its oid; an attribute at least a name
                // length and a value tag.
                let nmat = r.count(8).map_err(de)?;
                let mut materials = Vec::with_capacity(nmat);
                for _ in 0..nmat {
                    materials.push(r.u64().map_err(de)?);
                }
                let nattr = r.count(5).map_err(de)?;
                let mut attrs = Vec::with_capacity(nattr);
                for _ in 0..nattr {
                    let name = r.str().map_err(de)?;
                    let value = Value::decode(&mut r).map_err(de)?;
                    attrs.push((name, value));
                }
                Request::RecordStep { class, valid_time, materials, attrs }
            }
            OP_SET_STATE => Request::SetState {
                material: r.u64().map_err(de)?,
                state: r.str().map_err(de)?,
                valid_time: r.i64().map_err(de)?,
            },
            OP_DEFINE_MATERIAL_CLASS => Request::DefineMaterialClass {
                name: r.str().map_err(de)?,
                parent: read_opt_str(&mut r)?,
            },
            OP_DEFINE_STEP_CLASS => {
                let name = r.str().map_err(de)?;
                // An attribute is at least a name length and a type tag.
                let n = r.count(5).map_err(de)?;
                let mut attrs = Vec::with_capacity(n);
                for _ in 0..n {
                    let attr = r.str().map_err(de)?;
                    let ty = AttrType::decode(&mut r).map_err(de)?;
                    attrs.push((attr, ty));
                }
                Request::DefineStepClass { name, attrs }
            }
            OP_CREATE_SET => Request::CreateSet { set: r.str().map_err(de)? },
            OP_ADD_TO_SET => Request::AddToSet {
                set: r.str().map_err(de)?,
                material: r.u64().map_err(de)?,
            },
            OP_STATE_OF => Request::StateOf { material: r.u64().map_err(de)? },
            OP_RECENT => Request::Recent {
                material: r.u64().map_err(de)?,
                attr: r.str().map_err(de)?,
            },
            OP_HISTORY => Request::History { material: r.u64().map_err(de)? },
            OP_FIND_MATERIAL => Request::FindMaterial { name: r.str().map_err(de)? },
            OP_COUNT_IN_STATE => Request::CountInState { state: r.str().map_err(de)? },
            OP_QUERY => Request::Query { lql: r.str().map_err(de)? },
            other => return Err(WireError::Decode(format!("unknown opcode {other}"))),
        };
        Ok(req)
    }
}

impl Response {
    /// The response tag this body travels under.
    pub fn tag(&self) -> u16 {
        match self {
            Response::Ok => RE_OK,
            Response::Pong => RE_PONG,
            Response::Material(_) => RE_MATERIAL,
            Response::Step(_) => RE_STEP,
            Response::MaybeMaterial(_) => RE_MAYBE_MATERIAL,
            Response::State(_) => RE_STATE,
            Response::RecentValue(_) => RE_RECENT,
            Response::History(_) => RE_HISTORY,
            Response::Count(_) => RE_COUNT,
            Response::Rows(_) => RE_ROWS,
            Response::Admission(_) => RE_ADMISSION,
            Response::Error { .. } => RE_ERROR,
            Response::Retry { .. } => RE_RETRY,
            Response::Overloaded { .. } => RE_OVERLOADED,
            Response::ReplChunk { .. } => RE_REPL_CHUNK,
            Response::ReplState { .. } => RE_REPL_STATUS,
        }
    }

    /// Encode the body (tag travels in the frame header).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut body = Vec::new();
        self.encode_body_into(&mut body);
        body
    }

    /// Append the body to `out`.
    pub fn encode_body_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer::resume(std::mem::take(out));
        match self {
            Response::Ok | Response::Pong => {}
            Response::Material(oid) | Response::Step(oid) | Response::Count(oid) => {
                w.u64(*oid);
            }
            Response::MaybeMaterial(opt) => match opt {
                None => w.u8(0),
                Some(oid) => {
                    w.u8(1);
                    w.u64(*oid);
                }
            },
            Response::State(opt) => opt_str(&mut w, opt.as_deref()),
            Response::RecentValue(opt) => match opt {
                None => w.u8(0),
                Some((value, vt, step)) => {
                    w.u8(1);
                    value.encode(&mut w);
                    w.i64(*vt);
                    w.u64(*step);
                }
            },
            Response::History(entries) => {
                w.u32(entries.len() as u32);
                for (step, vt) in entries {
                    w.u64(*step);
                    w.i64(*vt);
                }
            }
            Response::Rows(rows) => {
                w.u32(rows.len() as u32);
                for row in rows {
                    w.u32(row.len() as u32);
                    for (var, term) in row {
                        w.str(var);
                        w.str(term);
                    }
                }
            }
            Response::Admission(snap) => snap.encode(&mut w),
            Response::Error { code, message } => {
                w.u32(u32::from(*code));
                w.str(message);
            }
            Response::Retry { reason } => w.str(reason),
            Response::Overloaded { retry_after_ms } => w.u32(*retry_after_ms),
            Response::ReplChunk { epoch, start, end, bytes } => {
                w.u64(*epoch);
                w.u64(*start);
                w.u64(*end);
                w.bytes(bytes);
            }
            Response::ReplState { epoch, lsn, followers } => {
                w.u64(*epoch);
                w.u64(*lsn);
                w.u32(followers.len() as u32);
                for (f, acked) in followers {
                    w.u64(*f);
                    w.u64(*acked);
                }
            }
        }
        *out = w.finish();
    }

    /// Decode a response from its tag and body bytes.
    pub fn decode(tag: u16, body: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(body);
        let resp = match tag {
            RE_OK => Response::Ok,
            RE_PONG => Response::Pong,
            RE_MATERIAL => Response::Material(r.u64().map_err(de)?),
            RE_STEP => Response::Step(r.u64().map_err(de)?),
            RE_COUNT => Response::Count(r.u64().map_err(de)?),
            RE_MAYBE_MATERIAL => Response::MaybeMaterial(match r.u8().map_err(de)? {
                0 => None,
                _ => Some(r.u64().map_err(de)?),
            }),
            RE_STATE => Response::State(read_opt_str(&mut r)?),
            RE_RECENT => Response::RecentValue(match r.u8().map_err(de)? {
                0 => None,
                _ => {
                    let value = Value::decode(&mut r).map_err(de)?;
                    let vt = r.i64().map_err(de)?;
                    let step = r.u64().map_err(de)?;
                    Some((value, vt, step))
                }
            }),
            RE_HISTORY => {
                // An entry is a step oid and a valid time.
                let n = r.count(16).map_err(de)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let step = r.u64().map_err(de)?;
                    let vt = r.i64().map_err(de)?;
                    entries.push((step, vt));
                }
                Response::History(entries)
            }
            RE_ROWS => {
                // A row is at least its binding count; a binding at
                // least two string lengths.
                let n = r.count(4).map_err(de)?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = r.count(8).map_err(de)?;
                    let mut row = Vec::with_capacity(k);
                    for _ in 0..k {
                        let var = r.str().map_err(de)?;
                        let term = r.str().map_err(de)?;
                        row.push((var, term));
                    }
                    rows.push(row);
                }
                Response::Rows(rows)
            }
            RE_ADMISSION => Response::Admission(AdmissionSnapshot::decode(&mut r)?),
            RE_ERROR => {
                let code = r.u32().map_err(de)?;
                let message = r.str().map_err(de)?;
                Response::Error { code: code as u16, message }
            }
            RE_RETRY => Response::Retry { reason: r.str().map_err(de)? },
            RE_OVERLOADED => Response::Overloaded { retry_after_ms: r.u32().map_err(de)? },
            RE_REPL_CHUNK => Response::ReplChunk {
                epoch: r.u64().map_err(de)?,
                start: r.u64().map_err(de)?,
                end: r.u64().map_err(de)?,
                bytes: r.bytes().map_err(de)?.to_vec(),
            },
            RE_REPL_STATUS => {
                let epoch = r.u64().map_err(de)?;
                let lsn = r.u64().map_err(de)?;
                // A follower is its id and acknowledged LSN.
                let n = r.count(16).map_err(de)?;
                let mut followers = Vec::with_capacity(n);
                for _ in 0..n {
                    let f = r.u64().map_err(de)?;
                    let acked = r.u64().map_err(de)?;
                    followers.push((f, acked));
                }
                Response::ReplState { epoch, lsn, followers }
            }
            other => return Err(WireError::Decode(format!("unknown response tag {other}"))),
        };
        Ok(resp)
    }
}

/// Map a database error to the response that should travel back:
/// transient contention becomes [`Response::Retry`] so clients back off
/// and reissue; everything else is a typed [`Response::Error`].
pub fn response_for_error(e: &labbase::LabError) -> Response {
    use labflow_storage::StorageError;
    match e {
        labbase::LabError::Storage(StorageError::LockTimeout(oid)) => {
            Response::Retry { reason: format!("lock timeout on {oid}") }
        }
        labbase::LabError::Storage(se @ StorageError::WalRewound { .. }) => {
            Response::Error { code: EC_REPL_REWOUND, message: se.to_string() }
        }
        labbase::LabError::Storage(se @ StorageError::EpochFenced { .. }) => {
            Response::Error { code: EC_REPL, message: se.to_string() }
        }
        labbase::LabError::Storage(se) => {
            Response::Error { code: EC_STORAGE, message: se.to_string() }
        }
        labbase::LabError::Decode(msg) => {
            Response::Error { code: EC_DECODE, message: msg.clone() }
        }
        labbase::LabError::ReadOnly => {
            Response::Error { code: EC_READ_ONLY, message: e.to_string() }
        }
        other => Response::Error { code: EC_SCHEMA, message: other.to_string() },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_req(req: Request) {
        let body = req.encode_body();
        let back = Request::decode(req.opcode(), &body).unwrap();
        assert_eq!(back, req);
    }

    fn round_trip_resp(resp: Response) {
        let body = resp.encode_body();
        let back = Response::decode(resp.tag(), &body).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_req(Request::Ping);
        round_trip_req(Request::Begin);
        round_trip_req(Request::Commit);
        round_trip_req(Request::Abort);
        round_trip_req(Request::AdmissionStats);
        round_trip_req(Request::Shutdown);
        round_trip_req(Request::CreateMaterial {
            class: "clone".into(),
            name: "c-001".into(),
            created: -5,
        });
        round_trip_req(Request::RecordStep {
            class: "determine_sequence".into(),
            valid_time: 99,
            materials: vec![3, 4, 5],
            attrs: vec![
                ("quality".into(), Value::Real(0.5)),
                ("lane".into(), Value::Int(7)),
            ],
        });
        round_trip_req(Request::SetState { material: 9, state: "queued".into(), valid_time: 2 });
        round_trip_req(Request::DefineMaterialClass { name: "gel".into(), parent: None });
        round_trip_req(Request::DefineMaterialClass {
            name: "gel".into(),
            parent: Some("material".into()),
        });
        round_trip_req(Request::DefineStepClass {
            name: "run_gel".into(),
            attrs: vec![("lane".into(), AttrType::Int), ("image".into(), AttrType::Str)],
        });
        round_trip_req(Request::CreateSet { set: "queue".into() });
        round_trip_req(Request::AddToSet { set: "queue".into(), material: 11 });
        round_trip_req(Request::StateOf { material: 4 });
        round_trip_req(Request::Recent { material: 4, attr: "quality".into() });
        round_trip_req(Request::History { material: 4 });
        round_trip_req(Request::FindMaterial { name: "c-001".into() });
        round_trip_req(Request::CountInState { state: "queued".into() });
        round_trip_req(Request::Query { lql: "state(M, queued)".into() });
        round_trip_req(Request::ReplSubscribe { follower: 2, from: 4096, max_bytes: 1 << 16 });
        round_trip_req(Request::ReplAck { follower: 2, lsn: 8192 });
        round_trip_req(Request::ReplStatus);
        round_trip_req(Request::ReplPromote);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_resp(Response::Ok);
        round_trip_resp(Response::Pong);
        round_trip_resp(Response::Material(8));
        round_trip_resp(Response::Step(9));
        round_trip_resp(Response::MaybeMaterial(None));
        round_trip_resp(Response::MaybeMaterial(Some(3)));
        round_trip_resp(Response::State(None));
        round_trip_resp(Response::State(Some("ready".into())));
        round_trip_resp(Response::RecentValue(None));
        round_trip_resp(Response::RecentValue(Some((Value::Real(0.25), 7, 12))));
        round_trip_resp(Response::History(vec![(10, 5), (8, 3)]));
        round_trip_resp(Response::Count(42));
        round_trip_resp(Response::Rows(vec![
            vec![("M".into(), "m3".into()), ("S".into(), "queued".into())],
            vec![("M".into(), "m4".into()), ("S".into(), "ready".into())],
        ]));
        round_trip_resp(Response::Error { code: EC_SCHEMA, message: "unknown class".into() });
        round_trip_resp(Response::Retry { reason: "lock timeout on o9".into() });
        round_trip_resp(Response::Overloaded { retry_after_ms: 250 });
        round_trip_resp(Response::ReplChunk {
            epoch: 3,
            start: 17,
            end: 60,
            bytes: vec![1, 2, 3, 4],
        });
        round_trip_resp(Response::ReplState {
            epoch: 3,
            lsn: 60,
            followers: vec![(1, 60), (2, 17)],
        });
    }

    #[test]
    fn replication_errors_map_to_typed_codes() {
        use labflow_storage::StorageError;
        let rewound =
            labbase::LabError::Storage(StorageError::WalRewound { requested: 9, tail: 4 });
        assert!(matches!(
            response_for_error(&rewound),
            Response::Error { code: EC_REPL_REWOUND, .. }
        ));
        let fenced = labbase::LabError::Storage(StorageError::EpochFenced { got: 2, fence: 5 });
        assert!(matches!(response_for_error(&fenced), Response::Error { code: EC_REPL, .. }));
        assert!(matches!(
            response_for_error(&labbase::LabError::ReadOnly),
            Response::Error { code: EC_READ_ONLY, .. }
        ));
    }

    #[test]
    fn unknown_opcode_is_typed() {
        assert!(matches!(Request::decode(999, &[]), Err(WireError::Decode(_))));
    }

    #[test]
    fn truncated_body_is_typed() {
        let body = Request::CreateMaterial {
            class: "clone".into(),
            name: "c".into(),
            created: 0,
        }
        .encode_body();
        let err = Request::decode(OP_CREATE_MATERIAL, &body[..body.len() - 4]);
        assert!(matches!(err, Err(WireError::Decode(_))));
    }

    /// A count the remaining body cannot hold is refused before anything
    /// is sized by it.
    #[test]
    fn a_corrupt_request_count_is_typed() {
        let mut w = Writer::new();
        w.str("determine_sequence");
        w.i64(5);
        w.u32(u32::MAX);
        w.u64(3);
        let err = Request::decode(OP_RECORD_STEP, &w.finish());
        assert!(matches!(&err, Err(WireError::Decode(m)) if m.contains("count")), "{err:?}");
    }

    #[test]
    fn a_corrupt_response_count_is_typed() {
        let mut w = Writer::new();
        w.u32(1 << 20);
        w.u64(7);
        w.i64(1);
        let err = Response::decode(RE_HISTORY, &w.finish());
        assert!(matches!(&err, Err(WireError::Decode(m)) if m.contains("count")), "{err:?}");
    }

    #[test]
    fn lock_timeout_maps_to_retry() {
        use labflow_storage::{Oid, StorageError};
        let e = labbase::LabError::Storage(StorageError::LockTimeout(Oid::from_raw(4)));
        assert!(matches!(response_for_error(&e), Response::Retry { .. }));
    }
}
