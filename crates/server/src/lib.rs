//! # labflow-server
//!
//! A networked multi-tenant front end for [`labbase`]: clients speak a
//! length-prefixed, checksummed binary protocol over TCP; the server
//! maps each connection onto a [`labbase::Session`] and applies
//! per-tenant admission control so one noisy tenant cannot starve the
//! rest.
//!
//! The crate splits into:
//!
//! * [`wire`] — the frame layer: length prefix, versioned header,
//!   request id, tenant id, FNV-1a checksum. Every fault (truncation,
//!   oversized length, bad checksum, unknown version, mid-frame
//!   disconnect, stall) is a typed error; nothing panics or hangs.
//! * [`proto`] — request/response bodies, reusing LabBase's own
//!   binary codec so values travel in their storage encoding.
//! * [`tenant`] — per-tenant quotas (open sessions, in-flight
//!   requests, bytes/s token bucket) and the shed counters behind the
//!   `AdmissionStats` report.
//! * [`server`] — the accept loop, connection table, and graceful
//!   drain: on shutdown every open transaction is aborted through the
//!   session's selective footprint undo and every snapshot pin is
//!   released, so the database ends with zero open sessions and zero
//!   registered snapshots.
//! * [`client`] — a blocking client with typed `Retry` / `Overloaded`
//!   errors, used by the `abl-server` experiment and the CI smoke test.
//!
//! Server-side locks (tenant registry, connection table, drain latch)
//! are leaf latches ranked *above* every storage lock
//! (`lock_order::SRV_*`), so holding one across any database call is a
//! rank inversion caught by the runtime checker and the static
//! analyzer alike.

#![warn(missing_docs)]

pub mod client;
mod conn;
pub mod proto;
pub(crate) mod repl;
pub mod server;
pub mod tenant;
pub mod wire;

pub use client::{Client, ClientError, ClientResult, ReplStatus, RetryPolicy, ShippedChunk};
pub use server::{PromoteHook, Server, ServerConfig};
pub use tenant::{AdmissionSnapshot, TenantQuotas, TenantRow};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use labbase::{AttrType, LabBase, Value};
    use labflow_storage::{MemStore, StorageManager};

    use super::*;

    fn mem_db() -> Arc<LabBase> {
        let store: Arc<dyn StorageManager> = Arc::new(MemStore::ostore_mm());
        Arc::new(LabBase::create(store).expect("create db"))
    }

    fn start(db: Arc<LabBase>, quotas: TenantQuotas) -> Server {
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            quotas,
            ..ServerConfig::default()
        };
        Server::start(db, config).expect("server starts")
    }

    fn unlimited() -> TenantQuotas {
        TenantQuotas { max_sessions: 0, max_inflight: 0, bytes_per_sec: 0 }
    }

    #[test]
    fn end_to_end_workflow_over_loopback() {
        let db = mem_db();
        let server = start(Arc::clone(&db), unlimited());
        let mut c = Client::connect(server.local_addr(), 1).unwrap();
        c.ping().unwrap();

        c.begin().unwrap();
        c.define_material_class("clone", None).unwrap();
        c.define_step_class(
            "determine_sequence",
            &[("sequence", AttrType::Dna), ("quality", AttrType::Real)],
        )
        .unwrap();
        let m = c.create_material("clone", "c-001", 0).unwrap();
        let s = c
            .record_step(
                "determine_sequence",
                10,
                &[m],
                vec![("quality".into(), Value::Real(0.75))],
            )
            .unwrap();
        c.set_state(m, "sequenced", 11).unwrap();
        // Own-writes visibility before commit.
        assert_eq!(c.state_of(m).unwrap().as_deref(), Some("sequenced"));
        c.commit().unwrap();

        // Visible after commit without a transaction.
        assert_eq!(c.find_material("c-001").unwrap(), Some(m));
        assert_eq!(c.count_in_state("sequenced").unwrap(), 1);
        let (v, vt, step) = c.recent(m, "quality").unwrap().unwrap();
        assert_eq!(v, Value::Real(0.75));
        assert_eq!(vt, 10);
        assert_eq!(step, s);
        assert_eq!(c.history(m).unwrap(), vec![(s, 10)]);

        let rows = c.query("state(M, sequenced)").unwrap();
        assert_eq!(rows.len(), 1);

        let snap = c.admission_stats().unwrap();
        assert!(snap.admitted > 0);
        assert_eq!(snap.shed_total(), 0);

        drop(c);
        server.shutdown().unwrap();
        assert_eq!(db.open_sessions(), 0);
        assert_eq!(db.store().open_snapshots(), 0);
    }

    #[test]
    fn abort_discards_and_drain_aborts_open_txns() {
        let db = mem_db();
        let server = start(Arc::clone(&db), unlimited());
        let addr = server.local_addr();

        let mut c = Client::connect(addr, 1).unwrap();
        c.begin().unwrap();
        c.define_material_class("clone", None).unwrap();
        c.commit().unwrap();

        // Abort rolls back.
        c.begin().unwrap();
        c.create_material("clone", "phantom", 0).unwrap();
        c.abort().unwrap();
        assert_eq!(c.find_material("phantom").unwrap(), None);

        // A transaction left open at shutdown is aborted by the drain.
        let mut dangling = Client::connect(addr, 2).unwrap();
        dangling.begin().unwrap();
        dangling.create_material("clone", "dangling", 0).unwrap();
        assert_eq!(db.open_sessions(), 1);

        server.shutdown().unwrap();
        assert_eq!(db.open_sessions(), 0, "drain must abort open transactions");
        assert_eq!(db.store().open_snapshots(), 0, "drain must release snapshot pins");

        let db2 = db;
        assert_eq!(db2.find_material("dangling").unwrap(), None);
    }

    #[test]
    fn txn_state_errors_are_typed() {
        let db = mem_db();
        let server = start(db, unlimited());
        let mut c = Client::connect(server.local_addr(), 1).unwrap();
        // Mutation without Begin.
        match c.create_material("clone", "x", 0) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, proto::EC_TXN_STATE),
            other => panic!("expected typed txn-state error, got {other:?}"),
        }
        // Double begin.
        c.begin().unwrap();
        match c.call(&proto::Request::Begin) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, proto::EC_TXN_STATE),
            other => panic!("expected typed txn-state error, got {other:?}"),
        }
        c.abort().unwrap();
        server.shutdown().unwrap();
    }

    #[test]
    fn session_quota_sheds_begin() {
        let db = mem_db();
        let server = start(
            db,
            TenantQuotas { max_sessions: 1, max_inflight: 0, bytes_per_sec: 0 },
        );
        let addr = server.local_addr();
        let mut a = Client::connect(addr, 7).unwrap();
        let mut b = Client::connect(addr, 7).unwrap();
        a.begin().unwrap();
        match b.begin() {
            Err(ClientError::Overloaded { retry_after_ms }) => assert!(retry_after_ms > 0),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // A different tenant is unaffected.
        let mut other = Client::connect(addr, 8).unwrap();
        other.begin().unwrap();
        other.abort().unwrap();
        // Releasing the session readmits tenant 7.
        a.abort().unwrap();
        b.begin().unwrap();
        b.abort().unwrap();
        let snap = a.admission_stats().unwrap();
        assert_eq!(snap.shed_sessions, 1);
        server.shutdown().unwrap();
    }

    /// Regression: a Begin shed by the *session* cap is still an
    /// admitted request — the response is `Overloaded`, but the
    /// tenant's in-flight slot must be released. Before the fix each
    /// such shed leaked one slot; once the leaks reached
    /// `max_inflight`, every request from the tenant shed forever.
    #[test]
    fn session_cap_sheds_do_not_leak_inflight_slots() {
        let db = mem_db();
        let server = start(
            db,
            TenantQuotas { max_sessions: 1, max_inflight: 2, bytes_per_sec: 0 },
        );
        let addr = server.local_addr();
        let mut a = Client::connect(addr, 5).unwrap();
        let mut b = Client::connect(addr, 5).unwrap();
        a.begin().unwrap();
        // More session-cap sheds than in-flight slots.
        for _ in 0..4 {
            match b.begin() {
                Err(ClientError::Overloaded { .. }) => {}
                other => panic!("expected Overloaded, got {other:?}"),
            }
        }
        // A leak would have the in-flight cap shed everything now.
        b.ping().unwrap();
        a.abort().unwrap();
        b.begin().unwrap();
        b.abort().unwrap();
        let snap = server.admission();
        assert_eq!(snap.shed_sessions, 4);
        assert_eq!(
            snap.shed_inflight, 0,
            "session-cap sheds must not consume in-flight slots"
        );
        server.shutdown().unwrap();
    }

    #[test]
    fn byte_quota_sheds_with_overloaded() {
        let db = mem_db();
        // Tiny byte budget: the first frames fit the burst allowance,
        // then requests shed.
        let server = start(
            db,
            TenantQuotas { max_sessions: 0, max_inflight: 0, bytes_per_sec: 64 },
        );
        let mut c = Client::connect(server.local_addr(), 3).unwrap();
        let mut shed = 0;
        for _ in 0..64 {
            match c.ping() {
                Ok(()) => {}
                Err(ClientError::Overloaded { retry_after_ms }) => {
                    assert!(retry_after_ms > 0);
                    shed += 1;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(shed > 0, "byte quota must shed under sustained load");
        let snap = server.admission();
        assert_eq!(snap.shed_bytes, shed as u64);
        server.shutdown().unwrap();
    }

    #[test]
    fn mid_frame_disconnect_leaves_server_healthy() {
        use std::io::Write;
        let db = mem_db();
        let server = start(db, unlimited());
        let addr = server.local_addr();

        // Write half a frame and slam the connection.
        {
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            let frame = wire::Frame {
                version: wire::PROTO_V1,
                code: proto::OP_PING,
                request_id: 1,
                tenant: 1,
                body: Vec::new(),
            };
            let bytes = wire::encode_frame(&frame).unwrap();
            raw.write_all(&bytes[..bytes.len() / 2]).unwrap();
        }
        // And a frame with a corrupted checksum.
        {
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            let frame = wire::Frame {
                version: wire::PROTO_V1,
                code: proto::OP_PING,
                request_id: 2,
                tenant: 1,
                body: Vec::new(),
            };
            let mut bytes = wire::encode_frame(&frame).unwrap();
            let n = bytes.len();
            bytes[n - 1] ^= 0xff;
            raw.write_all(&bytes).unwrap();
        }

        // The server survives both and still answers.
        let mut c = Client::connect(addr, 1).unwrap();
        c.ping().unwrap();
        server.shutdown().unwrap();
    }

    fn fast_retry(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff: std::time::Duration::from_millis(1),
            max_backoff: std::time::Duration::from_millis(5),
            jitter_seed: 42,
        }
    }

    /// Satellite: the opt-in retry policy rides out `Overloaded` sheds
    /// with bounded attempts — it keeps reissuing while the quota is
    /// held, and returns the typed error once attempts are exhausted.
    #[test]
    fn retry_policy_is_bounded_and_reissues_on_overloaded() {
        let db = mem_db();
        let server = start(
            db,
            TenantQuotas { max_sessions: 1, max_inflight: 0, bytes_per_sec: 0 },
        );
        let addr = server.local_addr();
        let mut a = Client::connect(addr, 9).unwrap();
        let mut b = Client::connect(addr, 9).unwrap();
        b.set_retry_policy(Some(fast_retry(3)));

        a.begin().unwrap();
        // All three attempts shed; the typed error survives the policy.
        match b.begin() {
            Err(ClientError::Overloaded { retry_after_ms }) => assert!(retry_after_ms > 0),
            other => panic!("expected Overloaded after retries, got {other:?}"),
        }
        assert_eq!(
            server.admission().shed_sessions,
            3,
            "a capped retrier must have reissued exactly max_attempts times"
        );

        // If the quota frees up mid-backoff, the retry succeeds where a
        // fail-fast client would have surfaced the shed.
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(3));
            a.abort().unwrap();
            a
        });
        b.set_retry_policy(Some(fast_retry(200)));
        b.begin().unwrap();
        b.abort().unwrap();
        let _a = releaser.join().unwrap();
        server.shutdown().unwrap();
    }

    /// Satellite: a dropped connection is transparently reattempted
    /// exactly once for idempotent requests — and never when the
    /// request could mutate state or a transaction is open.
    #[test]
    fn reconnect_is_transparent_for_idempotent_requests_only() {
        let db = mem_db();
        let server = start(Arc::clone(&db), unlimited());
        let addr = server.local_addr();

        let mut c = Client::connect(addr, 1).unwrap();
        c.begin().unwrap();
        c.define_material_class("clone", None).unwrap();
        let m = c.create_material("clone", "m-1", 0).unwrap();
        c.commit().unwrap();

        // Reads and pings survive a severed socket.
        c.sever();
        c.ping().unwrap();
        c.sever();
        assert_eq!(c.find_material("m-1").unwrap(), Some(m));

        // A mutation on a severed socket is never reissued.
        c.begin().unwrap();
        c.sever();
        match c.create_material("clone", "m-2", 1) {
            Err(ClientError::Wire(_)) => {}
            other => panic!("mutations must not reconnect, got {other:?}"),
        }

        // Even an idempotent request is not reissued while this
        // connection believes a transaction is open: the reconnected
        // session would silently lack the transaction.
        assert!(c.in_txn());
        match c.ping() {
            Err(ClientError::Wire(_)) => {}
            other => panic!("no reconnect mid-transaction, got {other:?}"),
        }

        // A fresh client confirms the server aborted the orphan.
        let mut c2 = Client::connect(addr, 1).unwrap();
        assert_eq!(c2.find_material("m-2").unwrap(), None);
        server.shutdown().unwrap();
        assert_eq!(db.open_sessions(), 0);
    }

    /// Replication surface over loopback: subscribe streams real WAL
    /// bytes on a durable store, acks show up in status, and promote on
    /// a primary (no hook installed) is a typed error.
    #[test]
    fn replication_requests_round_trip_over_loopback() {
        use labflow_storage::{decode_shipped, Engine, Options, Profile, SimVfs, Vfs};
        let sim: Arc<dyn Vfs> = Arc::new(SimVfs::new(7));
        let store: Arc<dyn StorageManager> = Arc::new(
            Engine::create_with(sim, "/sim/db".as_ref(), Profile::ostore(), Options::default())
                .unwrap(),
        );
        let from = store.replication_lsn().unwrap();
        let db = Arc::new(LabBase::create(store).unwrap());
        let server = start(Arc::clone(&db), unlimited());
        let mut c = Client::connect(server.local_addr(), 1).unwrap();

        c.begin().unwrap();
        c.define_material_class("clone", None).unwrap();
        c.create_material("clone", "m-1", 0).unwrap();
        c.commit().unwrap();

        let chunk = c.repl_subscribe(11, from, 1 << 18).unwrap();
        assert_eq!(chunk.start, from);
        assert!(chunk.end > chunk.start, "commits must be visible in the stream");
        let recs = decode_shipped(chunk.start, &chunk.bytes).unwrap();
        assert!(!recs.is_empty());

        c.repl_ack(11, chunk.end).unwrap();
        let status = c.repl_status().unwrap();
        assert!(status.lsn >= chunk.end);
        assert_eq!(status.followers, vec![(11, chunk.end)]);

        match c.repl_promote() {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, proto::EC_REPL),
            other => panic!("promote on a primary must be typed, got {other:?}"),
        }
        server.shutdown().unwrap();
    }

    /// With `ack_quorum` set, a commit answers only after enough
    /// followers ack its WAL offset; a lagging quorum is a typed error
    /// that names the gap (the commit itself is already durable).
    #[test]
    fn commit_waits_for_ack_quorum() {
        use labflow_storage::{Engine, Options, Profile, SimVfs, Vfs};
        let sim: Arc<dyn Vfs> = Arc::new(SimVfs::new(9));
        let store: Arc<dyn StorageManager> = Arc::new(
            Engine::create_with(sim, "/sim/db".as_ref(), Profile::ostore(), Options::default())
                .unwrap(),
        );
        let db = Arc::new(LabBase::create(store).unwrap());
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            quotas: unlimited(),
            ack_quorum: 1,
            ack_timeout: std::time::Duration::from_millis(50),
            ..ServerConfig::default()
        };
        let server = Server::start(Arc::clone(&db), config).unwrap();
        let addr = server.local_addr();
        let mut c = Client::connect(addr, 1).unwrap();

        // No follower has acked anything: the quorum window lapses.
        c.begin().unwrap();
        c.define_material_class("clone", None).unwrap();
        match c.commit() {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, proto::EC_REPL);
                assert!(message.contains("durable"), "message should say the commit is durable: {message}");
            }
            other => panic!("expected quorum-lag error, got {other:?}"),
        }
        // ...but the commit itself landed.
        let mut reader = Client::connect(addr, 1).unwrap();
        reader.begin().unwrap();
        reader.create_material("clone", "m-1", 0).unwrap();

        // A follower acking at the tail un-blocks subsequent commits.
        let mut follower = Client::connect(addr, 2).unwrap();
        let lsn = follower.repl_status().unwrap().lsn;
        follower.repl_subscribe(21, lsn, 1 << 16).unwrap();
        // Ack generously past the tail: every commit below it is covered.
        follower.repl_ack(21, lsn + (1 << 20)).unwrap();
        reader.commit().unwrap();
        server.shutdown().unwrap();
    }

    #[test]
    fn shutdown_request_sets_the_flag() {
        let db = mem_db();
        let server = start(db, unlimited());
        let mut c = Client::connect(server.local_addr(), 1).unwrap();
        c.shutdown_server().unwrap();
        assert!(server.shutdown_requested());
        server.shutdown().unwrap();
    }

    fn durable_db(seed: u64) -> Arc<LabBase> {
        use labflow_storage::{Engine, Options, Profile, SimVfs, Vfs};
        let sim: Arc<dyn Vfs> = Arc::new(SimVfs::new(seed));
        let store: Arc<dyn StorageManager> = Arc::new(
            Engine::create_with(sim, "/sim/db".as_ref(), Profile::ostore(), Options::default())
                .unwrap(),
        );
        Arc::new(LabBase::create(store).unwrap())
    }

    fn repl_refused(r: ClientResult<()>) {
        match r {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, proto::EC_REPL),
            other => panic!("expected a typed replication error, got {other:?}"),
        }
    }

    /// A follower's acks count only from the connection that subscribed
    /// it: acks another connection makes up, for that follower or for
    /// one never subscribed, are refused and cannot make a quorum of 2.
    #[test]
    fn made_up_acks_cannot_satisfy_an_ack_quorum_of_two() {
        let db = durable_db(11);
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            quotas: unlimited(),
            ack_quorum: 2,
            ack_timeout: std::time::Duration::from_millis(50),
            ..ServerConfig::default()
        };
        let server = Server::start(db, config).unwrap();
        let addr = server.local_addr();
        let mut c = Client::connect(addr, 1).unwrap();
        let mut real = Client::connect(addr, 2).unwrap();
        let mut impostor = Client::connect(addr, 3).unwrap();
        let far = 1u64 << 40;

        let tail = real.repl_status().unwrap().lsn;
        real.repl_subscribe(1, tail, 1 << 16).unwrap();
        real.repl_ack(1, far).unwrap();
        repl_refused(impostor.repl_ack(1, far));
        repl_refused(impostor.repl_ack(2, far));
        c.begin().unwrap();
        c.define_material_class("clone", None).unwrap();
        repl_refused(c.commit());
        assert_eq!(c.repl_status().unwrap().followers, vec![(1, far)]);

        // A second genuine follower completes the quorum.
        impostor.repl_subscribe(2, tail, 1 << 16).unwrap();
        impostor.repl_ack(2, far).unwrap();
        c.begin().unwrap();
        c.define_material_class("gel", None).unwrap();
        c.commit().unwrap();

        // A follower whose connection closes leaves the table.
        drop(real);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while c.repl_status().unwrap().followers.len() > 1 {
            assert!(std::time::Instant::now() < deadline, "closed follower still listed");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(c.repl_status().unwrap().followers, vec![(2, far)]);
        server.shutdown().unwrap();
    }

    /// The reaper joins handlers as they finish: one connection that
    /// stays open leaves no unjoined handles behind short ones.
    #[test]
    fn a_long_lived_connection_leaves_no_unjoined_handlers_behind() {
        let server = start(mem_db(), unlimited());
        let addr = server.local_addr();
        let mut long = Client::connect(addr, 1).unwrap();
        long.ping().unwrap();
        for t in 0..8 {
            let mut short = Client::connect(addr, 2 + t).unwrap();
            short.ping().unwrap();
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while server.unjoined_handlers() > 1 || server.open_conns() > 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "{} handlers unjoined behind the long-lived one",
                server.unjoined_handlers()
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        long.ping().unwrap();
        server.shutdown().unwrap();
    }

    /// A handler parked in its blocking read sees the stop flag at the
    /// end of that one tick, so shutdown does not wait on it.
    #[test]
    fn a_parked_handler_sees_stop_within_one_tick() {
        let server = start(mem_db(), unlimited());
        let mut c = Client::connect(server.local_addr(), 1).unwrap();
        c.ping().unwrap();
        // Long past the spin budget: the handler is parked.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let t0 = std::time::Instant::now();
        server.shutdown().unwrap();
        let took = t0.elapsed();
        // One tick, plus shutdown's 5 ms polls and scheduling slack.
        assert!(took < std::time::Duration::from_millis(200), "shutdown took {took:?}");
    }

    /// A server that accepts and never answers: the client waits out
    /// its whole idle budget once, gives up with `Stalled`, and does not
    /// reconnect to wait again.
    #[test]
    fn a_client_facing_a_silent_server_stalls_only_after_its_idle_budget() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut c = Client::connect(listener.local_addr().unwrap(), 1).unwrap();
        c.set_idle_ticks(3);
        let t0 = std::time::Instant::now();
        match c.ping() {
            Err(ClientError::Wire(wire::WireError::Stalled)) => {}
            other => panic!("expected Stalled, got {other:?}"),
        }
        // Three idle ticks of 50 ms each.
        let took = t0.elapsed();
        assert!(took >= std::time::Duration::from_millis(150), "gave up after {took:?}");
        // Exactly one connection reached the listener's backlog.
        listener.set_nonblocking(true).unwrap();
        assert!(listener.accept().is_ok(), "the client's one connection");
        let again = listener.accept().map(|_| ()).unwrap_err();
        assert_eq!(again.kind(), std::io::ErrorKind::WouldBlock, "a second connection");
    }

    /// `reconnect` starts the new connection with an empty reader: bytes
    /// the dead connection left buffered never prefix a new response.
    #[test]
    fn reconnect_resets_the_frame_reader() {
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let pong = |id: u64| {
            let resp = proto::Response::Pong;
            wire::encode_frame(&wire::Frame {
                version: wire::PROTO_V1,
                code: resp.tag(),
                request_id: id,
                tenant: 1,
                body: resp.encode_body(),
            })
            .unwrap()
        };
        let fake = std::thread::spawn(move || {
            let mut req = [0u8; 64];
            // First connection: answer, trail the stub of a frame in the
            // same write, and hang up.
            let (mut s, _) = listener.accept().unwrap();
            let _ = s.read(&mut req).unwrap();
            let mut bytes = pong(1);
            bytes.extend_from_slice(&[0x40, 0x00]);
            s.write_all(&bytes).unwrap();
            drop(s);
            // Second connection: answer request 3 (2 died with the first).
            let (mut s, _) = listener.accept().unwrap();
            let _ = s.read(&mut req).unwrap();
            s.write_all(&pong(3)).unwrap();
            s
        });
        let mut c = Client::connect(addr, 1).unwrap();
        c.ping().unwrap();
        c.ping().unwrap();
        drop(fake.join().unwrap());
    }
}
