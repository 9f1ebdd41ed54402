//! Process-level failover smoke test (`cargo xtask failover-smoke`).
//!
//! The `failover` harness tortures the replication pipeline under a
//! *simulated* machine; this test runs the real binaries and kills a
//! real process:
//!
//! 1. build and spawn `labflow-server` as the primary with
//!    `--ack-quorum 2`, and two `labflow-replica` processes following
//!    it over loopback TCP;
//! 2. run a client workload against the primary, recording every
//!    transaction whose commit returned `Ok` in a ledger — with a
//!    quorum of two, an acknowledged commit is durably applied on both
//!    replicas before the response leaves the primary;
//! 3. open one more transaction, write through it, and SIGKILL the
//!    primary with the transaction still open;
//! 4. promote replica A through the wire (`ReplPromote`) and verify
//!    committed-exactly on the promoted store: every ledgered material
//!    is present in its final state, the mid-kill transaction's
//!    material does not exist, and a fresh transaction commits — the
//!    replica really is a primary now;
//! 5. drain both replicas gracefully, run the surviving follower's
//!    image through recovery offline (its data file holds no page until
//!    then), and scrub both store images: zero unquarantined damage,
//!    and pages, not only a log, behind every acknowledged commit.
//!
//! Commits the primary answered with the typed quorum-lag error (code
//! `EC_REPL`: locally durable, acks missing) are tracked separately —
//! they may legitimately be present or absent after the failover, and
//! the state counts are checked against that window.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use labbase::{AttrType, Value};
use labflow_server::{proto, Client, ClientError};
use labflow_storage::{scrub_store, Engine, Options, Profile, RealVfs};

const CLIENTS: usize = 2;
const TXNS_PER_CLIENT: usize = 8;
const TXN_ATTEMPTS: usize = 10;
const START_TIMEOUT: Duration = Duration::from_secs(60);
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// Kills the spawned process on drop so a failing assertion never
/// leaks a listener.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn workspace_root() -> PathBuf {
    match Path::new(env!("CARGO_MANIFEST_DIR")).parent() {
        Some(p) => p.to_path_buf(),
        None => PathBuf::from("."),
    }
}

/// Build the server and replica binaries; return their paths.
fn binaries(root: &Path) -> Result<(PathBuf, PathBuf), String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args(["build", "-q", "-p", "labflow-server", "-p", "labflow-repl", "--bins"])
        .status()
        .map_err(|e| format!("run cargo build: {e}"))?;
    if !status.success() {
        return Err("cargo build of the server and replica binaries failed".into());
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(t) => PathBuf::from(t),
        None => root.join("target"),
    };
    let debug = target.join("debug");
    let bin = |name: &str| {
        let p = debug.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
        if p.exists() {
            Ok(p)
        } else {
            Err(format!("built binary not found at {}", p.display()))
        }
    };
    Ok((bin("labflow-server")?, bin("labflow-replica")?))
}

/// Spawn a process and parse its bound address from the
/// `<banner_prefix><addr>` stdout line.
fn spawn_node(bin: &Path, args: &[&str], banner_prefix: &'static str) -> Result<(Reaped, String), String> {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let stdout = match child.stdout.take() {
        Some(s) => s,
        None => {
            let _ = child.kill();
            return Err("process stdout not captured".into());
        }
    };
    let mut child = Reaped(child);
    let reader = std::thread::spawn(move || {
        let mut lines = std::io::BufReader::new(stdout).lines();
        loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix(banner_prefix) {
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
                _ => Err(format!("process exited before printing '{banner_prefix}<addr>'")),
            };
        }
        if start.elapsed() > START_TIMEOUT {
            let _ = child.0.kill();
            return Err(format!("no '{banner_prefix}<addr>' banner within {START_TIMEOUT:?}"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn transient(e: &ClientError) -> bool {
    matches!(e, ClientError::Retry { .. } | ClientError::Overloaded { .. })
}

/// The typed quorum-lag response: the commit is locally durable on the
/// primary but its follower acks did not arrive in time.
fn quorum_lagged(e: &ClientError) -> bool {
    matches!(e, ClientError::Server { code, .. } if *code == proto::EC_REPL)
}

/// What one workload client observed: names whose commit was
/// quorum-acked, and names the primary reported as quorum-lagged.
#[derive(Default)]
struct Ledger {
    acked: Vec<String>,
    lagged: Vec<String>,
}

/// Commit one workload transaction (create, step, state). `Ok` means
/// the commit was acknowledged under the ack quorum.
fn commit_material(c: &mut Client, ledger: &mut Ledger, name: &str, t: i64) -> Result<(), String> {
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
            Ok(()) => {
                ledger.acked.push(name.to_string());
                return Ok(());
            }
            Err(e) if quorum_lagged(&e) => {
                // Landed on the primary, ack quorum unknown: the
                // failover may or may not carry it.
                ledger.lagged.push(name.to_string());
                return Ok(());
            }
            Err(e) => {
                let _ = c.abort();
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

fn client_workload(addr: &str, client: usize) -> Result<Ledger, String> {
    let mut c = Client::connect(addr, client as u32 + 1)
        .map_err(|e| format!("client {client} connect: {e}"))?;
    let mut ledger = Ledger::default();
    for txn in 0..TXNS_PER_CLIENT {
        let name = format!("failover-c{client}-m{txn}");
        commit_material(&mut c, &mut ledger, &name, (client * 1000 + txn * 10) as i64)
            .map_err(|e| format!("client {client}: {e}"))?;
    }
    Ok(ledger)
}

/// Verify committed-exactly on the promoted replica, then prove it is
/// writable.
fn verify_promoted(addr: &str, ledger: &Ledger) -> Result<(), String> {
    let mut c = Client::connect(addr, 99).map_err(|e| format!("verify connect: {e}"))?;
    for name in &ledger.acked {
        let m = c
            .find_material(name)
            .map_err(|e| format!("find {name}: {e}"))?
            .ok_or_else(|| format!("quorum-acked material {name} lost across the failover"))?;
        match c.state_of(m).map_err(|e| format!("state of {name}: {e}"))? {
            Some(ref s) if s == "done" => {}
            other => return Err(format!("material {name} failed over in state {other:?}")),
        }
    }
    if let Some(m) = c
        .find_material("failover-ghost-mid-kill")
        .map_err(|e| format!("find ghost: {e}"))?
    {
        return Err(format!("mid-kill transaction's material survived promotion as oid {m}"));
    }
    let done = c.count_in_state("done").map_err(|e| format!("count_in_state: {e}"))?;
    let (lo, hi) = (
        ledger.acked.len() as u64,
        (ledger.acked.len() + ledger.lagged.len()) as u64,
    );
    if done < lo || done > hi {
        return Err(format!(
            "count_in_state(done) = {done} after failover; quorum-acked {lo}, \
             quorum-lagged window up to {hi}"
        ));
    }
    // The promoted replica must accept writes: it is the primary now.
    c.begin().map_err(|e| format!("post-promotion begin: {e}"))?;
    let m = c
        .create_material("sample", "failover-after-promotion", 900)
        .map_err(|e| format!("post-promotion create: {e}"))?;
    c.set_state(m, "done", 901).map_err(|e| format!("post-promotion set_state: {e}"))?;
    c.commit().map_err(|e| format!("post-promotion commit: {e}"))?;
    if c.find_material("failover-after-promotion")
        .map_err(|e| format!("post-promotion read-back: {e}"))?
        .is_none()
    {
        return Err("post-promotion material not readable".into());
    }
    Ok(())
}

/// Drain a replica via the wire and require a clean exit.
fn drain(mut node: Reaped, addr: &str, what: &str) -> Result<(), String> {
    let mut c = Client::connect(addr, 0).map_err(|e| format!("{what} shutdown connect: {e}"))?;
    c.shutdown_server().map_err(|e| format!("{what} shutdown request: {e}"))?;
    drop(c);
    let start = Instant::now();
    loop {
        match node.0.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(()),
            Ok(Some(status)) => return Err(format!("{what} exited uncleanly after drain: {status}")),
            Ok(None) if start.elapsed() > EXIT_TIMEOUT => {
                return Err(format!("{what} did not exit after the Shutdown request"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(100)),
            Err(e) => return Err(format!("wait for {what} exit: {e}")),
        }
    }
}

/// Run a drained image through recovery offline — one `Engine::open`,
/// as `scrub --demo` does — so the pages its log describes are on disk.
fn recover_offline(dir: &Path, what: &str) -> Result<(), String> {
    Engine::open(dir, Profile::ostore(), Options::default())
        .map(drop)
        .map_err(|e| format!("offline recovery of the {what} image: {e}"))
}

/// Scrub an image that acknowledged `acked` commits: no unquarantined
/// damage, and at least one page if it acknowledged any — a scrub of
/// no pages vouches for the log alone.
fn scrub_clean(dir: &Path, what: &str, acked: usize) -> Result<(), String> {
    let report = scrub_store(&RealVfs::arc(), dir)
        .map_err(|e| format!("scrub of the {what} image: {e}"))?;
    if !report.clean() {
        return Err(format!(
            "scrub of the {what} image found unquarantined damage on pages {:?}",
            report.corrupt
        ));
    }
    if acked > 0 && report.pages == 0 {
        return Err(format!(
            "scrub of the {what} image read 0 pages behind {acked} acknowledged commits"
        ));
    }
    println!(
        "failover-smoke: {what} image scrub clean ({} pages, {} wal frames)",
        report.pages, report.wal_frames
    );
    Ok(())
}

fn run_inner(dir: &Path) -> Result<(), String> {
    let root = workspace_root();
    let (server_bin, replica_bin) = binaries(&root)?;
    let pdir = dir.join("primary");
    let adir = dir.join("replica-a");
    let bdir = dir.join("replica-b");

    // ---- Cluster up: primary with a quorum of 2, two replicas.
    let (mut primary, paddr) = spawn_node(
        &server_bin,
        &[
            "--dir",
            &pdir.display().to_string(),
            "--addr",
            "127.0.0.1:0",
            "--ack-quorum",
            "2",
            "--ack-timeout-ms",
            "10000",
        ],
        "labflow-server listening on ",
    )?;
    println!("failover-smoke: primary on {paddr} (pid {})", primary.0.id());
    let spawn_replica = |dir: &Path, id: &str| {
        spawn_node(
            &replica_bin,
            &["--dir", &dir.display().to_string(), "--follow", &paddr, "--addr", "127.0.0.1:0", "--follower-id", id],
            "labflow-replica listening on ",
        )
    };
    let (replica_a, aaddr) = spawn_replica(&adir, "1")?;
    let (replica_b, baddr) = spawn_replica(&bdir, "2")?;
    println!("failover-smoke: replicas on {aaddr} and {baddr}");

    let mut admin = Client::connect(paddr.as_str(), 7).map_err(|e| format!("admin connect: {e}"))?;
    admin.begin().map_err(|e| format!("schema begin: {e}"))?;
    admin
        .define_material_class("sample", None)
        .map_err(|e| format!("define material class: {e}"))?;
    admin
        .define_step_class("measure", &[("reading", AttrType::Real)])
        .map_err(|e| format!("define step class: {e}"))?;
    match admin.commit() {
        Ok(()) => {}
        // Quorum-lagged schema means a replica is still seeding; the
        // commit itself is durable and shipped, so carry on.
        Err(e) if quorum_lagged(&e) => {}
        Err(e) => return Err(format!("schema commit: {e}")),
    }

    // ---- Quorum-acked workload.
    let ledger: Ledger = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let addr = paddr.as_str();
                scope.spawn(move || client_workload(addr, i))
            })
            .collect();
        let mut all = Ledger::default();
        let mut errors = Vec::new();
        for h in handles {
            match h.join() {
                Ok(Ok(l)) => {
                    all.acked.extend(l.acked);
                    all.lagged.extend(l.lagged);
                }
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
    println!(
        "failover-smoke: {} commits quorum-acked, {} quorum-lagged",
        ledger.acked.len(),
        ledger.lagged.len()
    );

    // ---- Kill the primary with a transaction open.
    admin.begin().map_err(|e| format!("ghost begin: {e}"))?;
    let ghost = admin
        .create_material("sample", "failover-ghost-mid-kill", 7)
        .map_err(|e| format!("ghost create: {e}"))?;
    admin.set_state(ghost, "done", 8).map_err(|e| format!("ghost set_state: {e}"))?;
    primary.0.kill().map_err(|e| format!("kill primary: {e}"))?;
    let _ = primary.0.wait();
    drop(primary);
    drop(admin);
    println!("failover-smoke: primary killed mid-transaction; promoting replica A");

    // ---- Promote replica A and verify committed-exactly.
    let mut c = Client::connect(aaddr.as_str(), 1).map_err(|e| format!("promote connect: {e}"))?;
    c.repl_promote().map_err(|e| format!("promote: {e}"))?;
    drop(c);
    verify_promoted(&aaddr, &ledger)?;
    println!("failover-smoke: committed-exactly verified on the promoted replica");

    // ---- Drain both replicas, then audit the images offline.
    drain(replica_a, &aaddr, "replica A")?;
    drain(replica_b, &baddr, "replica B")?;
    recover_offline(&bdir, "surviving follower")?;
    scrub_clean(&adir, "promoted", ledger.acked.len())?;
    scrub_clean(&bdir, "surviving follower", ledger.acked.len())?;
    Ok(())
}

/// Entry point. With `--dir` the cluster directories are reused (and
/// kept); otherwise a scratch directory under `target/` is created and
/// removed on success. Returns a process exit code.
pub fn run(dir: Option<&Path>) -> i32 {
    let scratch;
    let (dir, ephemeral) = match dir {
        Some(d) => (d, false),
        None => {
            scratch = workspace_root()
                .join("target")
                .join(format!("failover-smoke-{}", std::process::id()));
            (scratch.as_path(), true)
        }
    };
    let _ = std::fs::remove_dir_all(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("failover-smoke: creating {}: {e}", dir.display());
        return 1;
    }
    let outcome = run_inner(dir);
    if ephemeral && outcome.is_ok() {
        let _ = std::fs::remove_dir_all(dir);
    }
    match outcome {
        Ok(()) => {
            println!("failover-smoke: PASS");
            0
        }
        Err(why) => {
            eprintln!("failover-smoke: FAIL: {why}");
            1
        }
    }
}
