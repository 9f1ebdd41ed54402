//! Single-layer probes of the traced pass: each drives one layer's public
//! functions directly, with the workload's own frames, payload sizes and
//! flush policy, so a layer's cost can be set beside the end-to-end time
//! it is part of.

use std::path::Path;

use labflow_core::ServerVersion;
use labflow_server::proto::{Request, Response};
use labflow_server::tenant::{Admit, TenantRegistry};
use labflow_server::wire::{self, Event, Frame, PROTO_V1};
use labflow_storage::{ClusterHint, Options, SegmentId, StatsSnapshot, WaitSnapshot};

use crate::common::{fresh_dir, Outcome, Res, UNLIMITED};
use crate::lat::quantile_us;
use crate::rng::Rng;

/// Median microseconds of each `StorageManager` operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct StorageOpUs {
    pub begin: f64,
    pub allocate: f64,
    pub update: f64,
    pub read: f64,
    pub commit: f64,
}

/// `storage.op_us.*`: drive a scratch OStore directly — begin, allocate
/// `payload` bytes, update the previous object, commit, read back — under
/// the workload's own options.
pub fn storage_op_us(
    out: &Path,
    opts: Options,
    payload: usize,
    txns: usize,
    seed: u64,
) -> Res<StorageOpUs> {
    let dir = fresh_dir(out, "layer-storage")?;
    let store = ServerVersion::OStore.make_store_with(&dir, opts)?;
    let mut rng = Rng::stream(seed, 900);
    let data: Vec<u8> = (0..payload).map(|_| rng.below(256) as u8).collect();
    let mut lat: [Vec<u32>; 5] = Default::default();
    let mut timed =
        |slot: usize, t0: std::time::Instant| lat[slot].push(t0.elapsed().as_nanos() as u32);
    let mut prev = None;
    for _ in 0..txns {
        let t0 = std::time::Instant::now();
        let txn = store.begin()?;
        timed(0, t0);
        let t0 = std::time::Instant::now();
        let oid = store.allocate(txn, SegmentId::DEFAULT, ClusterHint::NONE, &data)?;
        timed(1, t0);
        if let Some(prev) = prev {
            let t0 = std::time::Instant::now();
            store.update(txn, prev, &data)?;
            timed(2, t0);
        }
        let t0 = std::time::Instant::now();
        store.commit(txn)?;
        timed(4, t0);
        let t0 = std::time::Instant::now();
        std::hint::black_box(store.read(oid)?);
        timed(3, t0);
        prev = Some(oid);
    }
    drop(store);
    std::fs::remove_dir_all(&dir)?;
    let [begin, allocate, update, read, commit] = lat.map(|mut l| quantile_us(&mut l, 0.5));
    Ok(StorageOpUs {
        begin,
        allocate,
        update,
        read,
        commit,
    })
}

impl StorageOpUs {
    pub fn record(&self, out: &mut Outcome) {
        out.set("storage.op_us.begin", self.begin);
        out.set("storage.op_us.allocate", self.allocate);
        out.set("storage.op_us.update", self.update);
        out.set("storage.op_us.read", self.read);
        out.set("storage.op_us.commit", self.commit);
    }

    /// Estimated nanoseconds inside storage operations for the counted
    /// work, commit excluded (its cost is the commit wait, counted apart).
    pub fn estimate_ns(&self, d: &StatsSnapshot) -> f64 {
        1e3 * (d.allocs as f64 * self.allocate
            + d.updates as f64 * self.update
            + d.reads as f64 * self.read
            + d.commits as f64 * self.begin)
    }
}

/// `server.codec_ns_per_req`: encode, frame, read back and decode each
/// request and its response, as client and server together do per call.
pub fn codec_ns_per_req(frames: &[(Request, Response)]) -> Res<f64> {
    let t0 = std::time::Instant::now();
    for (i, (req, resp)) in frames.iter().enumerate() {
        for (code, body) in [
            (req.opcode(), req.encode_body()),
            (resp.tag(), resp.encode_body()),
        ] {
            let frame = Frame {
                version: PROTO_V1,
                code,
                request_id: i as u64,
                tenant: 1,
                body,
            };
            let bytes = wire::encode_frame(&frame)?;
            let Event::Frame(back) = wire::read_event(&mut bytes.as_slice())? else {
                return Err("codec probe: no frame read back".into());
            };
            if code == req.opcode() {
                std::hint::black_box(Request::decode(back.code, &back.body)?);
            } else {
                std::hint::black_box(Response::decode(back.code, &back.body)?);
            }
        }
    }
    Ok(t0.elapsed().as_nanos() as f64 / frames.len().max(1) as f64)
}

/// `server.admit_ns_per_req`: one `admit_request` + `finish_request` pair.
pub fn admit_ns_per_req() -> Res<f64> {
    const N: u32 = 200_000;
    let registry = TenantRegistry::new(UNLIMITED);
    let t0 = std::time::Instant::now();
    for i in 0..N {
        let tenant = 1 + (i & 1);
        if !matches!(registry.admit_request(tenant, 64), Admit::Ok) {
            return Err("admission probe: unlimited quotas shed a request".into());
        }
        registry.finish_request(tenant, 64);
    }
    Ok(t0.elapsed().as_nanos() as f64 / f64::from(N))
}

/// Where the client-observed time of the traced phase went. All fields
/// are nanoseconds over the same operations.
#[derive(Debug, Default)]
pub struct Shares {
    /// Sum of client-observed operation times.
    pub op_total_ns: f64,
    /// Time in `Client::call` beyond the same requests run in process.
    pub server_ns: f64,
    /// Time inside labbase's public calls (measured in process).
    pub labbase_calls_ns: f64,
    /// Estimated time inside storage operations within those calls.
    pub storage_ns: f64,
    pub waits: WaitSnapshot,
}

impl Shares {
    /// `share.*`: fractions of the client-observed time. `labbase_est` is
    /// what remains of the labbase calls after the waits and the storage
    /// estimate are taken out, hence an estimate.
    pub fn record(&self, out: &mut Outcome) {
        let total = self.op_total_ns.max(1.0);
        let commit_wait = self.waits.commit_wait_nanos as f64;
        let lock_wait = self.waits.lock_wait_nanos as f64;
        let labbase = (self.labbase_calls_ns - self.storage_ns - commit_wait - lock_wait).max(0.0);
        out.set("share.server_est", (self.server_ns / total).max(0.0));
        out.set("share.labbase_est", labbase / total);
        out.set("share.storage_est", self.storage_ns / total);
        out.set("share.commit_wait", commit_wait / total);
        out.set("share.lock_wait", lock_wait / total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_return_positive_times() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-layers-{}", std::process::id()));
        let us = storage_op_us(&out, Options::default(), 500, 50, 1).unwrap();
        for v in [us.begin, us.allocate, us.update, us.read, us.commit] {
            assert!(v > 0.0 && v.is_finite());
        }
        std::fs::remove_dir_all(&out).ok();

        let frames = vec![
            (
                Request::StateOf { material: 7 },
                Response::State(Some("queued".into())),
            ),
            (
                Request::History { material: 7 },
                Response::History(vec![(9, 1), (8, 0)]),
            ),
        ];
        assert!(codec_ns_per_req(&frames).unwrap() > 0.0);
        assert!(admit_ns_per_req().unwrap() > 0.0);
    }

    #[test]
    fn shares_split_the_labbase_calls() {
        let mut out = Outcome::default();
        Shares {
            op_total_ns: 1000.0,
            server_ns: 400.0,
            labbase_calls_ns: 500.0,
            storage_ns: 100.0,
            waits: WaitSnapshot {
                commit_wait_nanos: 250,
                lock_wait_nanos: 50,
                ..Default::default()
            },
        }
        .record(&mut out);
        assert_eq!(out.metrics["share.server_est"], 0.4);
        assert_eq!(out.metrics["share.labbase_est"], 0.1);
        assert_eq!(out.metrics["share.storage_est"], 0.1);
        assert_eq!(out.metrics["share.commit_wait"], 0.25);
        assert_eq!(out.metrics["share.lock_wait"], 0.05);
    }
}
