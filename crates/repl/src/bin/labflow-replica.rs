//! The `labflow-replica` binary: follow a primary `labflow-server`,
//! replay its WAL continuously, serve snapshot reads, and promote on
//! request.
//!
//! ```text
//! labflow-replica --dir /var/lib/labflow-replica \
//!                 --follow 127.0.0.1:7047 --addr 127.0.0.1:7048
//! ```
//!
//! The replica seeds a fresh store, pulls the primary's log from
//! offset 0 (including the primary's own bootstrap), and opens the
//! database read-only once the root has been replayed. It then serves
//! the full read protocol; writes answer with the typed read-only
//! error. A `ReplPromote` request stops the pump, re-seals the store at
//! a fenced epoch, and lifts the read-only gate — the replica is now a
//! primary.
//!
//! Prints `labflow-replica listening on <addr>` once bound (scripts
//! parse this line), and `labflow-replica promoted to epoch <e>` after
//! a successful promotion.

use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use labbase::LabBase;
use labflow_repl::{run_pump, Follower, PumpConfig};
use labflow_server::{Client, PromoteHook, Server, ServerConfig, TenantQuotas};
use labflow_storage::{Engine, Options, Profile, StorageManager};

struct Args {
    dir: std::path::PathBuf,
    follow: String,
    addr: String,
    follower_id: u64,
}

const USAGE: &str = "usage: labflow-replica [options]
  --dir PATH           replica store directory (created fresh; must not hold a store)
  --follow HOST:PORT   primary labflow-server to replicate from (required)
  --addr HOST:PORT     bind address for read traffic (default 127.0.0.1:0)
  --follower-id N      id in the primary's ack table (default 1)
";

fn parse_args() -> Result<Args, String> {
    let mut dir: Option<std::path::PathBuf> = None;
    let mut follow: Option<String> = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut follower_id = 1u64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--dir" => dir = Some(val("--dir")?.into()),
            "--follow" => follow = Some(val("--follow")?),
            "--addr" => addr = val("--addr")?,
            "--follower-id" => {
                follower_id =
                    val("--follower-id")?.parse().map_err(|e| format!("--follower-id: {e}"))?
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    let dir = dir.ok_or_else(|| format!("--dir is required\n{USAGE}"))?;
    let follow = follow.ok_or_else(|| format!("--follow is required\n{USAGE}"))?;
    Ok(Args { dir, follow, addr, follower_id })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.dir.join("store.meta").exists() {
        return Err(format!(
            "{:?} already holds a store; a replica must seed fresh (offsets are \
             positions in the primary's log, not ours)",
            args.dir
        ));
    }
    std::fs::create_dir_all(&args.dir).map_err(|e| format!("create {:?}: {e}", args.dir))?;
    let opts = Options { sync_commit: true, ..Options::default() };
    let store: Arc<dyn StorageManager> = Arc::new(
        Engine::create(&args.dir, Profile::ostore(), opts)
            .map_err(|e| format!("create store: {e}"))?,
    );
    let follower = Arc::new(Follower::new(Arc::clone(&store), 0));

    let mut client = Client::connect(args.follow.as_str(), u32::MAX)
        .map_err(|e| format!("connect to primary {}: {e}", args.follow))?;
    let cfg = PumpConfig { follower_id: args.follower_id, ..PumpConfig::default() };

    // Replay until the primary's bootstrap (root + catalog) is over, so
    // the read-only LabBase can open.
    let db = loop {
        labflow_repl::pump_once(&follower, &mut client, &cfg)
            .map_err(|e| format!("seed from primary: {e}"))?;
        match LabBase::open(Arc::clone(&store)) {
            Ok(db) => break Arc::new(db),
            Err(_) if follower.durable_lsn() == 0 => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    db.set_read_only(true);
    eprintln!(
        "labflow-replica: seeded to offset {} (epoch fence {})",
        follower.durable_lsn(),
        follower.fence()
    );

    // Background pump: keep replaying until promoted or the process dies.
    let stop = Arc::new(AtomicBool::new(false));
    let pump = {
        let follower = Arc::clone(&follower);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let r = run_pump(&follower, &mut client, &cfg, &stop);
            if let Err(e) = &r {
                eprintln!("labflow-replica: pump stopped: {e}");
            }
            r
        })
    };

    // Promotion hook: stop the pump, re-seal at a fenced epoch, lift
    // the read-only gate, reload the wrapper's caches from storage.
    let promote: PromoteHook = {
        let follower = Arc::clone(&follower);
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        Arc::new(move || {
            stop.store(true, Ordering::Release);
            let epoch = follower.promote().map_err(|e| format!("promote: {e}"))?;
            db.refresh_replica_caches().map_err(|e| format!("refresh caches: {e}"))?;
            db.set_read_only(false);
            eprintln!("labflow-replica promoted to epoch {epoch}");
            Ok(())
        })
    };

    let config = ServerConfig {
        addr: args.addr.clone(),
        quotas: TenantQuotas { max_sessions: 0, max_inflight: 0, bytes_per_sec: 0 },
        ..ServerConfig::default()
    };
    let server =
        Server::start_with(Arc::clone(&db), config, Some(promote)).map_err(|e| format!("start server: {e}"))?;
    println!("labflow-replica listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    while !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("labflow-replica: shutdown requested; draining");
    stop.store(true, Ordering::Release);
    server.shutdown().map_err(|e| format!("drain: {e}"))?;
    let _ = pump.join();
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
