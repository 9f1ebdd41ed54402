//! The `labflow-server` binary: serve a LabBase database over TCP.
//!
//! ```text
//! labflow-server --dir /var/lib/labflow --addr 127.0.0.1:7047
//! labflow-server --mem --addr 127.0.0.1:0   # ephemeral in-memory store
//! ```
//!
//! Prints `labflow-server listening on <addr>` once the listener is
//! bound (the CI smoke test and scripts parse this line for the port),
//! then runs until SIGTERM/kill or until a client sends the `Shutdown`
//! request, at which point it drains gracefully.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use labbase::LabBase;
use labflow_server::{Server, ServerConfig, TenantQuotas};
use labflow_storage::{Engine, MemStore, Options, Profile, StorageManager};

struct Args {
    addr: String,
    dir: Option<std::path::PathBuf>,
    mem: bool,
    max_conns: u32,
    max_sessions: u32,
    max_inflight: u32,
    bytes_per_sec: u64,
    buffer_pages: usize,
    ack_quorum: u32,
    ack_timeout_ms: u64,
}

const USAGE: &str = "usage: labflow-server [options]
  --addr HOST:PORT     bind address (default 127.0.0.1:7047; port 0 = ephemeral)
  --dir PATH           durable store directory (created or opened)
  --mem                in-memory store instead of --dir
  --max-conns N        connection cap, 0 = unlimited (default 256)
  --max-sessions N     per-tenant open-session cap, 0 = unlimited (default 64)
  --max-inflight N     per-tenant in-flight request cap, 0 = unlimited (default 256)
  --bytes-per-sec N    per-tenant wire bytes/s quota, 0 = unlimited (default 0)
  --buffer-pages N     store buffer pool size in pages (default 4096)
  --ack-quorum N       followers that must ack a commit before it is
                       answered, 0 = asynchronous replication (default 0)
  --ack-timeout-ms N   how long a commit waits for its ack quorum before
                       reporting the locally-durable commit as quorum-lagged
                       (default 2000)
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7047".into(),
        dir: None,
        mem: false,
        max_conns: 256,
        max_sessions: 64,
        max_inflight: 256,
        bytes_per_sec: 0,
        buffer_pages: 4096,
        ack_quorum: 0,
        ack_timeout_ms: 2000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = val("--addr")?,
            "--dir" => args.dir = Some(val("--dir")?.into()),
            "--mem" => args.mem = true,
            "--max-conns" => {
                args.max_conns = val("--max-conns")?.parse().map_err(|e| format!("--max-conns: {e}"))?
            }
            "--max-sessions" => {
                args.max_sessions =
                    val("--max-sessions")?.parse().map_err(|e| format!("--max-sessions: {e}"))?
            }
            "--max-inflight" => {
                args.max_inflight =
                    val("--max-inflight")?.parse().map_err(|e| format!("--max-inflight: {e}"))?
            }
            "--bytes-per-sec" => {
                args.bytes_per_sec =
                    val("--bytes-per-sec")?.parse().map_err(|e| format!("--bytes-per-sec: {e}"))?
            }
            "--buffer-pages" => {
                args.buffer_pages =
                    val("--buffer-pages")?.parse().map_err(|e| format!("--buffer-pages: {e}"))?
            }
            "--ack-quorum" => {
                args.ack_quorum =
                    val("--ack-quorum")?.parse().map_err(|e| format!("--ack-quorum: {e}"))?
            }
            "--ack-timeout-ms" => {
                args.ack_timeout_ms = val("--ack-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--ack-timeout-ms: {e}"))?
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    if args.mem == args.dir.is_some() {
        return Err(format!("exactly one of --dir or --mem is required\n{USAGE}"));
    }
    Ok(args)
}

fn open_db(args: &Args) -> Result<Arc<LabBase>, String> {
    if args.mem {
        // In-memory stores are always fresh.
        let store: Arc<dyn StorageManager> = Arc::new(MemStore::ostore_mm());
        return LabBase::create(store).map(Arc::new).map_err(|e| format!("initialize database: {e}"));
    }
    let dir = match args.dir.as_ref() {
        Some(d) => d,
        None => return Err("--dir missing".into()),
    };
    // A networked server must not acknowledge commits that can vanish:
    // force the log on commit (the CI smoke test kills the process
    // mid-transaction and verifies committed-exactly recovery).
    let opts = Options { buffer_pages: args.buffer_pages, sync_commit: true, ..Options::default() };
    let fresh = !dir.join("store.meta").exists();
    let store: Arc<dyn StorageManager> = if fresh {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        Arc::new(
            Engine::create(dir, Profile::ostore(), opts)
                .map_err(|e| format!("create store at {dir:?}: {e}"))?,
        )
    } else {
        Arc::new(
            Engine::open(dir, Profile::ostore(), opts)
                .map_err(|e| format!("open store at {dir:?}: {e}"))?,
        )
    };
    let db = if fresh { LabBase::create(store) } else { LabBase::open(store) };
    db.map(Arc::new).map_err(|e| format!("initialize database: {e}"))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let db = open_db(&args)?;
    let config = ServerConfig {
        addr: args.addr.clone(),
        max_conns: args.max_conns,
        quotas: TenantQuotas {
            max_sessions: args.max_sessions,
            max_inflight: args.max_inflight,
            bytes_per_sec: args.bytes_per_sec,
        },
        ack_quorum: args.ack_quorum,
        ack_timeout: Duration::from_millis(args.ack_timeout_ms),
    };
    let server = Server::start(db, config).map_err(|e| format!("start server: {e}"))?;
    println!("labflow-server listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    while !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("labflow-server: shutdown requested; draining");
    server.shutdown().map_err(|e| format!("drain: {e}"))?;
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
