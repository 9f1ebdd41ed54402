//! Server crash-recovery smoke test (`cargo xtask server-smoke`).
//!
//! The crashtest harness kills a *simulated* machine under the storage
//! engine; this test kills the *real* `labflow-server` process under a
//! real TCP workload and checks the same contract end to end:
//!
//! 1. build and spawn `labflow-server --dir <tmp>` on an ephemeral
//!    loopback port (spawned directly, never through `cargo run`, so
//!    the kill hits the server process itself);
//! 2. run a mixed workload from several concurrent clients, recording
//!    every transaction whose commit returned `Ok` in a ledger;
//! 3. open one more transaction, write through it, and SIGKILL the
//!    server with the transaction still open;
//! 4. restart the server on the same directory and verify
//!    committed-exactly recovery through the wire: every ledgered
//!    material is present in its final state, the mid-kill
//!    transaction's material does not exist, and the state counts
//!    match the ledger exactly;
//! 5. send two hostile frames — a step value nested 20,000 lists deep
//!    and a query nested 5,000 parentheses deep — and require a typed
//!    error for each while another connection keeps being answered;
//! 6. drain gracefully via the `Shutdown` request and require a clean
//!    exit.
//!
//! The server binary forces the log on commit (`sync_commit`), which is
//! what makes step 4 sound: an acknowledged commit must survive SIGKILL.

use std::io::{BufRead, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use labbase::enc::Writer;
use labbase::{AttrType, Value};
use labflow_server::proto::{self, Response};
use labflow_server::wire::{self, Event, Frame};
use labflow_server::{Client, ClientError};

const CLIENTS: usize = 3;
const TXNS_PER_CLIENT: usize = 8;
const TXN_ATTEMPTS: usize = 10;
const START_TIMEOUT: Duration = Duration::from_secs(60);
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// Kills the spawned server on drop so a failing assertion never leaks
/// a listening process.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn workspace_root() -> PathBuf {
    // This crate's manifest dir is `<root>/xtask`.
    match Path::new(env!("CARGO_MANIFEST_DIR")).parent() {
        Some(p) => p.to_path_buf(),
        None => PathBuf::from("."),
    }
}

fn server_binary(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args(["build", "-q", "-p", "labflow-server", "--bin", "labflow-server"])
        .status()
        .map_err(|e| format!("run cargo build: {e}"))?;
    if !status.success() {
        return Err("cargo build -p labflow-server failed".into());
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(t) => PathBuf::from(t),
        None => root.join("target"),
    };
    let bin = target.join("debug").join(format!("labflow-server{}", std::env::consts::EXE_SUFFIX));
    if !bin.exists() {
        return Err(format!("built server binary not found at {}", bin.display()));
    }
    Ok(bin)
}

/// Spawn the server on an ephemeral port and parse the bound address
/// from its `labflow-server listening on <addr>` stdout line.
fn spawn_server(bin: &Path, dir: &Path) -> Result<(Reaped, String), String> {
    let mut child = Command::new(bin)
        .args(["--dir"])
        .arg(dir)
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let stdout = match child.stdout.take() {
        Some(s) => s,
        None => {
            let _ = child.kill();
            return Err("server stdout not captured".into());
        }
    };
    let mut child = Reaped(child);
    // Recovery of a large log can take a while; read lines until the
    // banner appears or the process dies.
    let reader = std::thread::spawn(move || {
        let mut lines = std::io::BufReader::new(stdout).lines();
        loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix("labflow-server listening on ") {
                        return Some(addr.trim().to_string());
                    }
                }
                Some(Err(_)) | None => return None,
            }
        }
    });
    let start = Instant::now();
    loop {
        if reader.is_finished() {
            return match reader.join() {
                Ok(Some(addr)) => Ok((child, addr)),
                _ => Err("server exited before printing its listening address".into()),
            };
        }
        if start.elapsed() > START_TIMEOUT {
            let _ = child.0.kill();
            return Err("server did not print its listening address in time".into());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn transient(e: &ClientError) -> bool {
    matches!(e, ClientError::Retry { .. } | ClientError::Overloaded { .. })
}

/// Commit one workload transaction: create `name`, record a measure
/// step on it, and move it to state `done`. Retries on typed shed and
/// contention responses; after an ambiguous failure, checks whether the
/// transaction actually landed before retrying, so the ledger stays a
/// record of exactly-once effects.
fn commit_material(c: &mut Client, name: &str, t: i64) -> Result<(), String> {
    let mut last = String::new();
    for attempt in 0..TXN_ATTEMPTS {
        let result = (|| -> Result<(), ClientError> {
            c.begin()?;
            let m = c.create_material("sample", name, t)?;
            c.record_step(
                "measure",
                t + 1,
                &[m],
                vec![("reading".into(), Value::Real(t as f64))],
            )?;
            c.set_state(m, "done", t + 2)?;
            c.commit()
        })();
        match result {
            Ok(()) => return Ok(()),
            Err(e) => {
                let _ = c.abort();
                if let Ok(Some(m)) = c.find_material(name) {
                    if matches!(c.state_of(m), Ok(Some(ref s)) if s == "done") {
                        return Ok(()); // the "failed" attempt actually committed
                    }
                }
                if !transient(&e) {
                    return Err(format!("transaction for {name}: {e}"));
                }
                last = e.to_string();
                std::thread::sleep(Duration::from_millis(10 * (attempt as u64 + 1)));
            }
        }
    }
    Err(format!("transaction for {name} did not commit after {TXN_ATTEMPTS} attempts (last: {last})"))
}

/// One client's slice of the mixed workload. Commits `TXNS_PER_CLIENT`
/// materials, deliberately aborts one more, and sprinkles reads in
/// between; returns the names whose commits were acknowledged.
fn client_workload(addr: &str, client: usize) -> Result<Vec<String>, String> {
    let mut c = Client::connect(addr, client as u32 + 1)
        .map_err(|e| format!("client {client} connect: {e}"))?;
    let mut committed = Vec::new();
    for txn in 0..TXNS_PER_CLIENT {
        let name = format!("smoke-c{client}-m{txn}");
        commit_material(&mut c, &name, (client * 1000 + txn * 10) as i64)
            .map_err(|e| format!("client {client}: {e}"))?;
        committed.push(name);
    }
    // An acknowledged abort must leave nothing behind.
    let ghost = format!("smoke-c{client}-aborted");
    c.begin().map_err(|e| format!("client {client} begin: {e}"))?;
    c.create_material("sample", &ghost, 1).map_err(|e| format!("client {client}: {e}"))?;
    c.abort().map_err(|e| format!("client {client} abort: {e}"))?;
    if let Ok(Some(_)) = c.find_material(&ghost) {
        return Err(format!("client {client}: aborted material {ghost} is visible"));
    }
    let last = committed.last().map(String::as_str).unwrap_or_default();
    match c.find_material(last) {
        Ok(Some(_)) => Ok(committed),
        Ok(None) => Err(format!("client {client}: committed material {last} not readable")),
        Err(e) => Err(format!("client {client} read-back: {e}")),
    }
}

/// Verify the recovered store against the ledger, through the wire.
fn verify_recovery(addr: &str, ledger: &[String]) -> Result<(), String> {
    let mut c = Client::connect(addr, 99).map_err(|e| format!("verify connect: {e}"))?;
    c.ping().map_err(|e| format!("verify ping: {e}"))?;
    for name in ledger {
        let m = c
            .find_material(name)
            .map_err(|e| format!("find {name}: {e}"))?
            .ok_or_else(|| format!("committed material {name} lost across the crash"))?;
        match c.state_of(m).map_err(|e| format!("state of {name}: {e}"))? {
            Some(ref s) if s == "done" => {}
            other => return Err(format!("material {name} recovered in state {other:?}")),
        }
        let history = c.history(m).map_err(|e| format!("history of {name}: {e}"))?;
        if history.is_empty() {
            return Err(format!("material {name} recovered with no step history"));
        }
    }
    let done = c.count_in_state("done").map_err(|e| format!("count_in_state: {e}"))?;
    if done != ledger.len() as u64 {
        return Err(format!(
            "count_in_state(done) = {done} after recovery, ledger has {}",
            ledger.len()
        ));
    }
    if let Some(m) = c
        .find_material("smoke-ghost-mid-kill")
        .map_err(|e| format!("find ghost: {e}"))?
    {
        return Err(format!("mid-kill transaction's material survived as oid {m}"));
    }
    let rows = c.query("state(M, done)").map_err(|e| format!("LQL after recovery: {e}"))?;
    if rows.len() != ledger.len() {
        return Err(format!(
            "LQL state(M, done) returned {} rows after recovery, ledger has {}",
            rows.len(),
            ledger.len()
        ));
    }
    Ok(())
}

/// A `RecordStep` body whose one attribute is a list nested `depth`
/// deep, written as bytes so this side never builds a deep `Value`.
fn deep_step_body(depth: usize) -> Vec<u8> {
    let mut w = Writer::new();
    w.str("measure");
    w.i64(1);
    w.u32(0); // no materials
    w.u32(1); // one attribute
    w.str("reading");
    for _ in 0..depth {
        w.u8(8); // list tag
        w.u32(1);
    }
    w.u8(0); // null
    w.finish()
}

/// The two frames that each aborted the whole server before decoding
/// and parsing bounded their nesting: a step value nested 20,000 lists
/// deep and a query nested 5,000 parentheses deep. Each goes raw onto a
/// bare socket and must come back as a typed error, and a second
/// connection must keep getting answers after each.
fn probe_deep_frames(addr: &str) -> Result<(), String> {
    let mut other = Client::connect(addr, 98).map_err(|e| format!("probe connect: {e}"))?;
    let mut sock = TcpStream::connect(addr).map_err(|e| format!("probe socket: {e}"))?;
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("probe socket timeout: {e}"))?;
    let mut query = Writer::new();
    query.str(&format!("{}state(M, done){}", "(".repeat(5_000), ")".repeat(5_000)));
    let query_body = query.finish();
    let probes = [
        ("deep step value", proto::OP_RECORD_STEP, deep_step_body(20_000), proto::EC_DECODE),
        ("deep query", proto::OP_QUERY, query_body, proto::EC_QUERY),
    ];
    for (request_id, (what, code, body, want)) in (1u64..).zip(probes) {
        let frame = Frame { version: wire::PROTO_V1, code, request_id, tenant: 97, body };
        let bytes = wire::encode_frame(&frame).map_err(|e| format!("{what}: encode: {e}"))?;
        sock.write_all(&bytes).map_err(|e| format!("{what}: send: {e}"))?;
        let reply = match wire::read_event(&mut sock) {
            Ok(Event::Frame(f)) => {
                Response::decode(f.code, &f.body).map_err(|e| format!("{what}: reply: {e}"))?
            }
            Ok(Event::Idle) => return Err(format!("{what}: no reply")),
            Err(e) => return Err(format!("{what}: connection lost: {e}")),
        };
        match reply {
            Response::Error { code, .. } if code == want => {}
            other => return Err(format!("{what}: expected error code {want}, got {other:?}")),
        }
        other.ping().map_err(|e| format!("{what}: second connection unanswered: {e}"))?;
    }
    Ok(())
}

fn run_inner(dir: &Path) -> Result<(), String> {
    let root = workspace_root();
    let bin = server_binary(&root)?;

    // ---- First life: schema, mixed workload, kill mid-transaction.
    let (mut server, addr) = spawn_server(&bin, dir)?;
    println!("server-smoke: serving on {addr} (pid {})", server.0.id());

    let mut admin = Client::connect(addr.as_str(), 0).map_err(|e| format!("admin connect: {e}"))?;
    admin.begin().map_err(|e| format!("schema begin: {e}"))?;
    admin
        .define_material_class("sample", None)
        .map_err(|e| format!("define material class: {e}"))?;
    admin
        .define_step_class("measure", &[("reading", AttrType::Real)])
        .map_err(|e| format!("define step class: {e}"))?;
    admin.commit().map_err(|e| format!("schema commit: {e}"))?;

    let ledger: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let addr = addr.as_str();
                scope.spawn(move || client_workload(addr, i))
            })
            .collect();
        let mut all = Vec::new();
        let mut errors = Vec::new();
        for h in handles {
            match h.join() {
                Ok(Ok(names)) => all.extend(names),
                Ok(Err(e)) => errors.push(e),
                Err(_) => errors.push("workload thread panicked".into()),
            }
        }
        if errors.is_empty() {
            Ok(all)
        } else {
            Err(errors.join("; "))
        }
    })?;
    println!("server-smoke: {} transactions committed by {CLIENTS} clients", ledger.len());

    // Leave a transaction open with real writes in it, then pull the
    // plug on the process. The write is acknowledged but the commit
    // never happens, so recovery must erase it.
    admin.begin().map_err(|e| format!("ghost begin: {e}"))?;
    let ghost = admin
        .create_material("sample", "smoke-ghost-mid-kill", 7)
        .map_err(|e| format!("ghost create: {e}"))?;
    admin
        .set_state(ghost, "done", 8)
        .map_err(|e| format!("ghost set_state: {e}"))?;
    server.0.kill().map_err(|e| format!("kill server: {e}"))?;
    let _ = server.0.wait();
    drop(server);
    drop(admin);
    println!("server-smoke: killed mid-transaction; restarting on the same directory");

    // ---- Second life: recover and verify committed-exactly.
    let (server, addr) = spawn_server(&bin, dir)?;
    verify_recovery(&addr, &ledger)?;
    println!("server-smoke: committed-exactly verified across the crash");
    probe_deep_frames(&addr)?;
    println!("server-smoke: deep-nesting frames refused with typed errors");

    // ---- Graceful drain via the wire.
    let mut c = Client::connect(addr.as_str(), 0).map_err(|e| format!("shutdown connect: {e}"))?;
    c.shutdown_server().map_err(|e| format!("shutdown request: {e}"))?;
    drop(c);
    let mut server = server;
    let start = Instant::now();
    loop {
        match server.0.try_wait() {
            Ok(Some(status)) if status.success() => break,
            Ok(Some(status)) => return Err(format!("server exited uncleanly after drain: {status}")),
            Ok(None) if start.elapsed() > EXIT_TIMEOUT => {
                return Err("server did not exit after the Shutdown request".into());
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(100)),
            Err(e) => return Err(format!("wait for server exit: {e}")),
        }
    }
    println!("server-smoke: drained and exited cleanly");
    Ok(())
}

/// Entry point. With `--dir` the store directory is reused (and kept);
/// otherwise a scratch directory under `target/` is created and removed
/// on success. Returns a process exit code.
pub fn run(dir: Option<&Path>) -> i32 {
    let scratch;
    let (dir, ephemeral) = match dir {
        Some(d) => (d, false),
        None => {
            scratch = workspace_root()
                .join("target")
                .join(format!("server-smoke-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&scratch);
            (scratch.as_path(), true)
        }
    };
    let outcome = run_inner(dir);
    if ephemeral && outcome.is_ok() {
        let _ = std::fs::remove_dir_all(dir);
    }
    match outcome {
        Ok(()) => {
            println!("server-smoke: PASS");
            0
        }
        Err(why) => {
            eprintln!("server-smoke: FAIL: {why}");
            1
        }
    }
}
