//! Per-tenant quotas and admission control.
//!
//! Every request names a tenant id in its frame header. The registry
//! tracks, per tenant: open sessions (capped), requests in flight
//! (capped), and a bytes-per-second token bucket fed by wire bytes in
//! both directions. A request that would exceed a cap is *shed* with a
//! typed `Overloaded` response carrying a backoff hint — the server
//! never queues unboundedly on behalf of a tenant.
//!
//! The registry's mutex is [`lock_order::SRV_TENANTS`] — a leaf latch
//! ranked above every storage lock, so holding it across any database
//! call is a rank inversion both checkers catch.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use labbase::enc::{Reader, Writer};
use labflow_storage::lock_order;
use parking_lot::Mutex;

use crate::wire::WireError;

/// Per-tenant resource caps. Zero means unlimited.
#[derive(Clone, Copy, Debug)]
pub struct TenantQuotas {
    /// Open sessions (begun, not yet committed/aborted) per tenant.
    pub max_sessions: u32,
    /// Requests in flight (admitted, response not yet written) per
    /// tenant.
    pub max_inflight: u32,
    /// Sustained wire bytes per second (both directions) per tenant.
    pub bytes_per_sec: u64,
}

impl Default for TenantQuotas {
    fn default() -> Self {
        TenantQuotas { max_sessions: 64, max_inflight: 256, bytes_per_sec: 0 }
    }
}

/// Burst headroom: the token bucket holds up to this many seconds of
/// quota, so a tenant idle for a while can burst briefly.
const BURST_SECS: f64 = 2.0;

/// Outcome of an admission check.
#[derive(Debug)]
pub enum Admit {
    /// Admitted; the caller must pair with `finish_request`.
    Ok,
    /// Shed: send `Overloaded { retry_after_ms }` and do no work.
    Overloaded {
        /// Suggested client backoff.
        retry_after_ms: u32,
    },
}

/// Per-tenant accounting (under the registry mutex).
struct TenantState {
    sessions: u32,
    inflight: u32,
    /// Token bucket for bytes/s; `None` when the quota is unlimited.
    bucket: Option<Bucket>,
    // Lifetime counters for the admission report.
    admitted: u64,
    shed_bytes: u64,
    shed_inflight: u64,
    shed_sessions: u64,
    bytes_in: u64,
    bytes_out: u64,
}

struct Bucket {
    tokens: f64,
    cap: f64,
    rate: f64,
    last_refill: Instant,
}

impl Bucket {
    fn new(rate: u64) -> Bucket {
        let cap = rate as f64 * BURST_SECS;
        Bucket { tokens: cap, cap, rate: rate as f64, last_refill: Instant::now() }
    }

    fn refill(&mut self, now: Instant) {
        let dt = now.duration_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + dt * self.rate).min(self.cap);
    }

    /// Try to spend `n` tokens; on failure return a backoff estimate.
    fn spend(&mut self, n: f64, now: Instant) -> Result<(), u32> {
        self.refill(now);
        if self.tokens >= n {
            self.tokens -= n;
            return Ok(());
        }
        let deficit = n - self.tokens;
        let secs = if self.rate > 0.0 { deficit / self.rate } else { 1.0 };
        Err((secs * 1000.0).ceil().min(60_000.0) as u32)
    }
}

impl TenantState {
    fn new(quotas: &TenantQuotas) -> TenantState {
        TenantState {
            sessions: 0,
            inflight: 0,
            bucket: (quotas.bytes_per_sec > 0).then(|| Bucket::new(quotas.bytes_per_sec)),
            admitted: 0,
            shed_bytes: 0,
            shed_inflight: 0,
            shed_sessions: 0,
            bytes_in: 0,
            bytes_out: 0,
        }
    }
}

/// Server-wide admission counters (cheap atomics, read without locks).
#[derive(Default)]
pub struct AdmissionStats {
    /// Requests admitted.
    pub admitted: AtomicU64,
    /// Requests shed by the bytes/s bucket.
    pub shed_bytes: AtomicU64,
    /// Requests shed by the in-flight cap.
    pub shed_inflight: AtomicU64,
    /// Session begins refused by the session cap.
    pub shed_sessions: AtomicU64,
    /// Connections refused at accept (server connection cap).
    pub shed_conns: AtomicU64,
    /// Wire bytes received.
    pub bytes_in: AtomicU64,
    /// Wire bytes sent.
    pub bytes_out: AtomicU64,
}

/// One tenant's row in an [`AdmissionSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantRow {
    /// Tenant id.
    pub tenant: u32,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests shed by the bytes/s bucket.
    pub shed_bytes: u64,
    /// Requests shed by the in-flight cap.
    pub shed_inflight: u64,
    /// Session begins refused by the session cap.
    pub shed_sessions: u64,
    /// Wire bytes received from this tenant.
    pub bytes_in: u64,
    /// Wire bytes sent to this tenant.
    pub bytes_out: u64,
}

/// A point-in-time copy of the admission counters, wire-encodable for
/// the `AdmissionStats` request and the abl-server report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AdmissionSnapshot {
    /// Requests admitted (all tenants).
    pub admitted: u64,
    /// Requests shed by byte quotas.
    pub shed_bytes: u64,
    /// Requests shed by in-flight caps.
    pub shed_inflight: u64,
    /// Session begins refused by session caps.
    pub shed_sessions: u64,
    /// Connections refused at accept.
    pub shed_conns: u64,
    /// Wire bytes received.
    pub bytes_in: u64,
    /// Wire bytes sent.
    pub bytes_out: u64,
    /// Per-tenant rows, ordered by tenant id.
    pub tenants: Vec<TenantRow>,
}

impl AdmissionSnapshot {
    /// Counter deltas since `earlier` (per-tenant rows are not diffed;
    /// callers that need them take absolute snapshots).
    pub fn delta(&self, earlier: &AdmissionSnapshot) -> AdmissionSnapshot {
        AdmissionSnapshot {
            admitted: self.admitted.wrapping_sub(earlier.admitted),
            shed_bytes: self.shed_bytes.wrapping_sub(earlier.shed_bytes),
            shed_inflight: self.shed_inflight.wrapping_sub(earlier.shed_inflight),
            shed_sessions: self.shed_sessions.wrapping_sub(earlier.shed_sessions),
            shed_conns: self.shed_conns.wrapping_sub(earlier.shed_conns),
            bytes_in: self.bytes_in.wrapping_sub(earlier.bytes_in),
            bytes_out: self.bytes_out.wrapping_sub(earlier.bytes_out),
            tenants: self.tenants.clone(),
        }
    }

    /// Total requests shed for any reason.
    pub fn shed_total(&self) -> u64 {
        self.shed_bytes + self.shed_inflight + self.shed_sessions + self.shed_conns
    }

    /// Append the wire encoding to `w`.
    pub fn encode(&self, w: &mut Writer) {
        w.u64(self.admitted);
        w.u64(self.shed_bytes);
        w.u64(self.shed_inflight);
        w.u64(self.shed_sessions);
        w.u64(self.shed_conns);
        w.u64(self.bytes_in);
        w.u64(self.bytes_out);
        w.u32(self.tenants.len() as u32);
        for t in &self.tenants {
            w.u32(t.tenant);
            w.u64(t.admitted);
            w.u64(t.shed_bytes);
            w.u64(t.shed_inflight);
            w.u64(t.shed_sessions);
            w.u64(t.bytes_in);
            w.u64(t.bytes_out);
        }
    }

    /// Decode from the wire.
    pub fn decode(r: &mut Reader<'_>) -> Result<AdmissionSnapshot, WireError> {
        let de = |e: labbase::LabError| WireError::Decode(e.to_string());
        let admitted = r.u64().map_err(de)?;
        let shed_bytes = r.u64().map_err(de)?;
        let shed_inflight = r.u64().map_err(de)?;
        let shed_sessions = r.u64().map_err(de)?;
        let shed_conns = r.u64().map_err(de)?;
        let bytes_in = r.u64().map_err(de)?;
        let bytes_out = r.u64().map_err(de)?;
        // A row is a u32 and six u64s: 52 bytes.
        let n = r.count(52).map_err(de)?;
        let mut tenants = Vec::with_capacity(n);
        for _ in 0..n {
            tenants.push(TenantRow {
                tenant: r.u32().map_err(de)?,
                admitted: r.u64().map_err(de)?,
                shed_bytes: r.u64().map_err(de)?,
                shed_inflight: r.u64().map_err(de)?,
                shed_sessions: r.u64().map_err(de)?,
                bytes_in: r.u64().map_err(de)?,
                bytes_out: r.u64().map_err(de)?,
            });
        }
        Ok(AdmissionSnapshot {
            admitted,
            shed_bytes,
            shed_inflight,
            shed_sessions,
            shed_conns,
            bytes_in,
            bytes_out,
            tenants,
        })
    }
}

/// The tenant registry: quota state for every tenant seen so far.
pub struct TenantRegistry {
    quotas: TenantQuotas,
    tenants: Mutex<HashMap<u32, TenantState>>,
    /// Server-wide counters (atomics: readable without the mutex).
    pub stats: AdmissionStats,
}

impl TenantRegistry {
    /// A registry applying `quotas` uniformly to every tenant.
    pub fn new(quotas: TenantQuotas) -> TenantRegistry {
        TenantRegistry { quotas, tenants: Mutex::new(HashMap::new()), stats: AdmissionStats::default() }
    }

    /// The quotas in force.
    pub fn quotas(&self) -> TenantQuotas {
        self.quotas
    }

    fn with_tenant<R>(&self, tenant: u32, f: impl FnOnce(&mut TenantState) -> R) -> R {
        let mut map = lock_order::ranked(lock_order::SRV_TENANTS, || self.tenants.lock());
        let state = map.entry(tenant).or_insert_with(|| TenantState::new(&self.quotas));
        f(state)
    }

    /// Admit or shed a request of `frame_bytes` wire bytes. On `Ok` the
    /// caller must later call [`TenantRegistry::finish_request`].
    pub fn admit_request(&self, tenant: u32, frame_bytes: usize) -> Admit {
        let now = Instant::now();
        let max_inflight = self.quotas.max_inflight;
        let outcome = self.with_tenant(tenant, |t| {
            if max_inflight > 0 && t.inflight >= max_inflight {
                t.shed_inflight += 1;
                return Admit::Overloaded { retry_after_ms: 50 };
            }
            if let Some(bucket) = t.bucket.as_mut() {
                if let Err(retry_after_ms) = bucket.spend(frame_bytes as f64, now) {
                    t.shed_bytes += 1;
                    return Admit::Overloaded { retry_after_ms };
                }
            }
            t.inflight += 1;
            t.admitted += 1;
            t.bytes_in += frame_bytes as u64;
            Admit::Ok
        });
        // Per-shed-kind counts live in the per-tenant rows (summed by
        // `snapshot`); only the hot server-wide totals are atomics.
        if matches!(outcome, Admit::Ok) {
            self.stats.admitted.fetch_add(1, Ordering::Relaxed);
            self.stats.bytes_in.fetch_add(frame_bytes as u64, Ordering::Relaxed);
        }
        outcome
    }

    /// Release an admitted request, charging `resp_bytes` of response
    /// traffic to the tenant's byte ledger (the bucket was charged at
    /// admission for the request; responses are accounted but do not
    /// block — the write path's bounded buffer is the backstop).
    pub fn finish_request(&self, tenant: u32, resp_bytes: usize) {
        self.with_tenant(tenant, |t| {
            t.inflight = t.inflight.saturating_sub(1);
            t.bytes_out += resp_bytes as u64;
        });
        self.stats.bytes_out.fetch_add(resp_bytes as u64, Ordering::Relaxed);
    }

    /// Try to open a session for `tenant` (counted against
    /// `max_sessions`). Returns false when the cap is hit.
    pub fn try_open_session(&self, tenant: u32) -> bool {
        let max_sessions = self.quotas.max_sessions;
        let ok = self.with_tenant(tenant, |t| {
            if max_sessions > 0 && t.sessions >= max_sessions {
                t.shed_sessions += 1;
                return false;
            }
            t.sessions += 1;
            true
        });
        if !ok {
            self.stats.shed_sessions.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Close a session previously opened with `try_open_session`.
    pub fn close_session(&self, tenant: u32) {
        self.with_tenant(tenant, |t| {
            t.sessions = t.sessions.saturating_sub(1);
        });
    }

    /// Record a connection refused at accept.
    pub fn note_shed_conn(&self) {
        self.stats.shed_conns.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of all counters, per-tenant rows included.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        let mut tenants: Vec<TenantRow> = {
            let map = lock_order::ranked(lock_order::SRV_TENANTS, || self.tenants.lock());
            map.iter()
                .map(|(id, t)| TenantRow {
                    tenant: *id,
                    admitted: t.admitted,
                    shed_bytes: t.shed_bytes,
                    shed_inflight: t.shed_inflight,
                    shed_sessions: t.shed_sessions,
                    bytes_in: t.bytes_in,
                    bytes_out: t.bytes_out,
                })
                .collect()
        };
        tenants.sort_by_key(|t| t.tenant);
        let shed_bytes: u64 = tenants.iter().map(|t| t.shed_bytes).sum();
        let shed_inflight: u64 = tenants.iter().map(|t| t.shed_inflight).sum();
        AdmissionSnapshot {
            admitted: self.stats.admitted.load(Ordering::Relaxed),
            shed_bytes,
            shed_inflight,
            shed_sessions: self.stats.shed_sessions.load(Ordering::Relaxed),
            shed_conns: self.stats.shed_conns.load(Ordering::Relaxed),
            bytes_in: self.stats.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.stats.bytes_out.load(Ordering::Relaxed),
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unlimited() -> TenantQuotas {
        TenantQuotas { max_sessions: 0, max_inflight: 0, bytes_per_sec: 0 }
    }

    #[test]
    fn admit_and_finish_balance() {
        let reg = TenantRegistry::new(unlimited());
        assert!(matches!(reg.admit_request(1, 100), Admit::Ok));
        assert!(matches!(reg.admit_request(1, 100), Admit::Ok));
        reg.finish_request(1, 40);
        reg.finish_request(1, 40);
        let snap = reg.snapshot();
        assert_eq!(snap.admitted, 2);
        assert_eq!(snap.bytes_in, 200);
        assert_eq!(snap.bytes_out, 80);
        assert_eq!(snap.shed_total(), 0);
    }

    #[test]
    fn inflight_cap_sheds() {
        let reg = TenantRegistry::new(TenantQuotas { max_inflight: 2, ..unlimited() });
        assert!(matches!(reg.admit_request(1, 10), Admit::Ok));
        assert!(matches!(reg.admit_request(1, 10), Admit::Ok));
        assert!(matches!(reg.admit_request(1, 10), Admit::Overloaded { .. }));
        // A different tenant has its own budget.
        assert!(matches!(reg.admit_request(2, 10), Admit::Ok));
        // Finishing one readmits.
        reg.finish_request(1, 0);
        assert!(matches!(reg.admit_request(1, 10), Admit::Ok));
        let snap = reg.snapshot();
        assert_eq!(snap.shed_inflight, 1);
    }

    #[test]
    fn byte_bucket_sheds_with_backoff_hint() {
        // 100 B/s with a 2 s burst: the third 100-byte request in the
        // same instant must shed.
        let reg = TenantRegistry::new(TenantQuotas { bytes_per_sec: 100, ..unlimited() });
        assert!(matches!(reg.admit_request(1, 100), Admit::Ok));
        assert!(matches!(reg.admit_request(1, 100), Admit::Ok));
        match reg.admit_request(1, 100) {
            Admit::Overloaded { retry_after_ms } => assert!(retry_after_ms > 0),
            Admit::Ok => panic!("expected shed"),
        }
        assert_eq!(reg.snapshot().shed_bytes, 1);
    }

    #[test]
    fn session_cap_sheds() {
        let reg = TenantRegistry::new(TenantQuotas { max_sessions: 1, ..unlimited() });
        assert!(reg.try_open_session(7));
        assert!(!reg.try_open_session(7));
        reg.close_session(7);
        assert!(reg.try_open_session(7));
        let snap = reg.snapshot();
        assert_eq!(snap.shed_sessions, 1);
        assert_eq!(snap.tenants.len(), 1);
        assert_eq!(snap.tenants[0].shed_sessions, 1);
    }

    #[test]
    fn snapshot_round_trips_on_the_wire() {
        let reg = TenantRegistry::new(TenantQuotas { max_inflight: 1, ..unlimited() });
        let _ = reg.admit_request(3, 64);
        let _ = reg.admit_request(3, 64);
        let _ = reg.admit_request(9, 64);
        reg.note_shed_conn();
        let snap = reg.snapshot();
        let mut w = Writer::new();
        snap.encode(&mut w);
        let buf = w.finish();
        let back = AdmissionSnapshot::decode(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.tenants.len(), 2);
        assert_eq!(back.shed_conns, 1);
    }

    #[test]
    fn a_corrupt_tenant_count_is_a_typed_decode_error() {
        let reg = TenantRegistry::new(unlimited());
        let _ = reg.admit_request(3, 64);
        let mut w = Writer::new();
        reg.snapshot().encode(&mut w);
        let mut buf = w.finish();
        // The count sits after the seven counters: claim four billion
        // rows behind one row's bytes.
        buf[56..60].copy_from_slice(&u32::MAX.to_le_bytes());
        match AdmissionSnapshot::decode(&mut Reader::new(&buf)) {
            Err(WireError::Decode(detail)) => assert!(detail.contains("exceeds"), "{detail}"),
            other => panic!("expected a typed decode error, got {other:?}"),
        }
    }

    #[test]
    fn delta_subtracts_counters() {
        let reg = TenantRegistry::new(unlimited());
        let _ = reg.admit_request(1, 10);
        let before = reg.snapshot();
        let _ = reg.admit_request(1, 10);
        let _ = reg.admit_request(1, 10);
        let d = reg.snapshot().delta(&before);
        assert_eq!(d.admitted, 2);
        assert_eq!(d.bytes_in, 20);
    }
}
