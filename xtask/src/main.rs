//! `labflow-analyzer` — workspace static analysis.
//!
//! Run as `cargo xtask analyze [--root DIR]` (the alias lives in
//! `.cargo/config.toml`). Five passes over every non-test source file:
//!
//! * **panic-freedom** (`panics.rs`): no `.unwrap()` / `.expect()` /
//!   `panic!`-family macros in the server crates; slice indexing is
//!   held to a per-crate ratcheted budget.
//! * **lock discipline** (`locks.rs`): every lock acquisition site is
//!   placed in the declared rank table (`ranks.rs`), nesting must
//!   strictly increase rank, the observed acquisition graph must be
//!   acyclic, and no guard may be held across a blocking call.
//! * **atomic orderings** (`atomics.rs`): no lone `Relaxed` access to
//!   an atomic a crate otherwise accesses with stronger orderings.
//! * **rank drift** (`drift.rs`): the runtime rank table in
//!   `crates/storage/src/lock_order.rs` and the analyzer's `ranks.rs`
//!   must agree constant-for-constant, rank-for-rank.
//! * **allow audit** (`audit.rs`): every `allow(..)` marker is
//!   well-formed, names a known kind, carries a justification, and
//!   still sits next to the construct it waives.
//!
//! Exit code 0 = clean; 1 = findings (printed `file:line: [pass] msg`).
//! With `--root` pointing outside a cargo workspace (e.g. the seeded
//! fixtures in `xtask/fixtures/`), every `.rs` file underneath is
//! analysed and the indexing budget is zero.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

mod atomics;
mod audit;
mod crashtest;
mod drift;
mod failover;
mod failover_smoke;
mod lexer;
mod locks;
mod panics;
mod ranks;
mod scrubcmd;
mod server_smoke;

/// One analysed source file.
pub struct SourceFile {
    /// Path relative to the analysis root (for reporting).
    pub rel: String,
    /// The crate directory name (component after `crates/`), or
    /// `"fixtures"` outside a workspace.
    pub crate_dir: String,
    /// Token stream with test-only regions stripped.
    pub tokens: Vec<lexer::Token>,
    /// Line-comment side table (for allow markers).
    pub comments: HashMap<u32, String>,
}

/// One reported violation.
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub pass: &'static str,
    pub msg: String,
}

/// Crates the panic-freedom lint applies to (the server path; the
/// workload driver and query shell may still panic on bad input).
const PANIC_CRATES: &[&str] = &["storage", "labbase", "workflow", "core", "server", "repl"];

/// Slice-indexing ratchet: the per-crate count of unwaived index
/// expressions may not exceed these budgets. Lower freely; raising one
/// means a new unchecked index went in and needs a reviewer's eyes.
const INDEX_BUDGETS: &[(&str, u32)] = &[
    ("storage", 22),
    ("labbase", 16),
    ("workflow", 0),
    ("core", 16),
    ("server", 0),
    ("repl", 0),
];

const USAGE: &str = "usage: cargo xtask analyze [--root DIR]\n       cargo xtask crashtest [--seeds N] [--first-seed S] [--corrupt]\n       cargo xtask failover [--seeds N] [--first-seed S]\n       cargo xtask failover-smoke [--dir PATH]\n       cargo xtask scrub --dir PATH [--demo] [--space]\n       cargo xtask server-smoke [--dir PATH]";

fn main() {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut cmd: Option<String> = None;
    let mut seeds: u64 = 64;
    let mut first_seed: u64 = 0;
    let mut corrupt = false;
    let mut demo = false;
    let mut space = false;
    let mut dir: Option<PathBuf> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root needs a directory argument");
                    std::process::exit(2);
                }
            },
            "--seeds" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => seeds = n,
                None => {
                    eprintln!("--seeds needs a positive integer argument");
                    std::process::exit(2);
                }
            },
            "--first-seed" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => first_seed = n,
                None => {
                    eprintln!("--first-seed needs an integer argument");
                    std::process::exit(2);
                }
            },
            "--corrupt" => corrupt = true,
            "--demo" => demo = true,
            "--space" => space = true,
            "--dir" => match args.next() {
                Some(d) => dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--dir needs a path argument");
                    std::process::exit(2);
                }
            },
            "analyze" | "crashtest" | "failover" | "failover-smoke" | "scrub" | "server-smoke"
                if cmd.is_none() =>
            {
                cmd = Some(a)
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if cmd.as_deref() == Some("scrub") {
        let Some(dir) = dir else {
            eprintln!("scrub needs --dir PATH\n{USAGE}");
            std::process::exit(2);
        };
        if demo {
            if let Err(e) = scrubcmd::build_demo(&dir) {
                eprintln!("scrub: {e}");
                std::process::exit(2);
            }
        }
        std::process::exit(if space { scrubcmd::run_space(&dir) } else { scrubcmd::run(&dir) });
    }
    if cmd.as_deref() == Some("server-smoke") {
        std::process::exit(server_smoke::run(dir.as_deref()));
    }
    if cmd.as_deref() == Some("failover-smoke") {
        std::process::exit(failover_smoke::run(dir.as_deref()));
    }
    if cmd.as_deref() == Some("crashtest") {
        let failures = crashtest::run(first_seed, seeds, corrupt);
        if failures > 0 {
            eprintln!("crashtest: {failures} of {seeds} seeds violated the durability contract");
            std::process::exit(1);
        }
        return;
    }
    if cmd.as_deref() == Some("failover") {
        let failures = failover::run(first_seed, seeds);
        if failures > 0 {
            eprintln!("failover: {failures} of {seeds} seeds violated the replication contract");
            std::process::exit(1);
        }
        return;
    }
    if cmd.as_deref() != Some("analyze") {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let root = root.unwrap_or_else(default_root);

    match run(&root) {
        Ok(0) => {}
        Ok(n) => {
            eprintln!("analyze: {n} finding{} — failing", if n == 1 { "" } else { "s" });
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("analyze: {e}");
            std::process::exit(2);
        }
    }
}

/// The workspace root when no `--root` was given: the alias runs from
/// anywhere in the workspace, and this crate's manifest dir is
/// `<root>/xtask`.
fn default_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(d) => PathBuf::from(d).parent().map(Path::to_path_buf).unwrap_or_default(),
        None => PathBuf::from("."),
    }
}

fn run(root: &Path) -> std::io::Result<usize> {
    let workspace_mode = root.join("crates").is_dir();
    let files = load_files(root, workspace_mode)?;
    if files.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no .rs files under {}", root.display()),
        ));
    }

    let mut findings: Vec<Finding> = Vec::new();
    let mut index_counts: HashMap<String, u32> = HashMap::new();

    for file in &files {
        let linted = !workspace_mode || PANIC_CRATES.contains(&file.crate_dir.as_str());
        if linted {
            let (f, idx) = panics::scan(file);
            findings.extend(f);
            *index_counts.entry(file.crate_dir.clone()).or_default() += idx;
        }
    }

    // Ratchet check.
    let budget_of = |krate: &str| -> u32 {
        if !workspace_mode {
            return 0; // fixtures: deny-all
        }
        INDEX_BUDGETS.iter().find(|(k, _)| *k == krate).map(|(_, b)| *b).unwrap_or(0)
    };
    let mut crates: Vec<&String> = index_counts.keys().collect();
    crates.sort();
    for krate in crates {
        let count = index_counts[krate];
        let budget = budget_of(krate);
        if count > budget {
            findings.push(Finding {
                file: format!("crates/{krate}"),
                line: 0,
                pass: "index-budget",
                msg: format!(
                    "{count} slice-index expressions exceed the budget of {budget} — \
                     prefer .get()/typed errors, waive a site with \
                     `// analyzer: allow(index, \"..\")`, or raise the budget in \
                     xtask/src/main.rs with review"
                ),
            });
        } else if count < budget {
            eprintln!(
                "analyze: note: crate `{krate}` uses {count}/{budget} of its index \
                 budget — consider ratcheting the budget down in xtask/src/main.rs"
            );
        }
    }

    findings.extend(locks::analyze(&files));
    findings.extend(atomics::analyze(&files));
    findings.extend(audit::analyze(&files));
    if workspace_mode {
        findings.extend(drift::analyze(root));
    }

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    for f in &findings {
        if f.line > 0 {
            println!("{}:{}: [{}] {}", f.file, f.line, f.pass, f.msg);
        } else {
            println!("{}: [{}] {}", f.file, f.pass, f.msg);
        }
    }
    Ok(findings.len())
}

/// Collect and lex the files to analyse. Workspace mode reads
/// `crates/*/src/**/*.rs`; fixture mode reads every `.rs` under root.
fn load_files(root: &Path, workspace_mode: bool) -> std::io::Result<Vec<SourceFile>> {
    let mut paths: Vec<(PathBuf, String)> = Vec::new(); // (path, crate_dir)
    if workspace_mode {
        let crates = root.join("crates");
        let mut dirs: Vec<PathBuf> =
            std::fs::read_dir(&crates)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        dirs.sort();
        for dir in dirs {
            let src = dir.join("src");
            if !src.is_dir() {
                continue;
            }
            let krate = dir.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string();
            let mut found = Vec::new();
            walk(&src, &mut found)?;
            paths.extend(found.into_iter().map(|p| (p, krate.clone())));
        }
    } else {
        let mut found = Vec::new();
        walk(root, &mut found)?;
        paths.extend(found.into_iter().map(|p| (p, "fixtures".to_string())));
    }

    let mut files = Vec::new();
    for (path, crate_dir) in paths {
        let src = std::fs::read_to_string(&path)?;
        let lexed = lexer::lex(&src);
        let rel = path
            .strip_prefix(root)
            .map(|p| p.display().to_string())
            .unwrap_or_else(|_| path.display().to_string());
        files.push(SourceFile {
            rel,
            crate_dir,
            tokens: lexer::strip_test_regions(lexed.tokens),
            comments: lexed.comments,
        });
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
