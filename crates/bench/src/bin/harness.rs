//! `labflow-harness` — regenerate every table and figure of the
//! LabFlow-1 paper in one run.
//!
//! ```text
//! labflow-harness [OPTIONS] [EXPERIMENT...]
//! ```
//!
//! See `--help` for the experiment list and options.

use std::path::PathBuf;
use std::process::ExitCode;

use labflow_core::{experiments, BenchConfig};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("labflow-harness: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut cfg = BenchConfig::default();
    let mut out_dir = PathBuf::from("results");
    let mut work_dir = std::env::temp_dir().join(format!("labflow-harness-{}", std::process::id()));
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--clones" => cfg.base_clones = number(&arg, value()?)?,
            "--buffer-pages" => cfg.buffer_pages = number(&arg, value()?)?,
            "--seed" => cfg.seed = number(&arg, value()?)?,
            "--smoke" => {
                cfg = BenchConfig { seed: cfg.seed, ..BenchConfig::smoke() };
            }
            "--out" => out_dir = PathBuf::from(value()?),
            "--work" => work_dir = PathBuf::from(value()?),
            "--help" | "-h" => {
                println!("{}", help());
                return Ok(());
            }
            id if !id.starts_with('-') => ids.push(id.to_string()),
            other => return Err(format!("unknown option '{other}' (try --help)")),
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = experiments::ALL_IDS.iter().map(|s| s.to_string()).collect();
    }

    std::fs::create_dir_all(&out_dir).map_err(|e| format!("creating {out_dir:?}: {e}"))?;
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("creating {work_dir:?}: {e}"))?;

    println!(
        "LabFlow-1 harness: {} experiment(s), 1X = {} clones, pool = {} pages, seed = {:#x}\n",
        ids.len(),
        cfg.base_clones,
        cfg.buffer_pages,
        cfg.seed
    );

    for id in &ids {
        let started = std::time::Instant::now();
        let report = experiments::run(id, &cfg, &work_dir).map_err(|e| format!("{id}: {e}"))?;
        println!(
            "==== {} — {} ({:.1}s)\n",
            report.id,
            report.title,
            started.elapsed().as_secs_f64()
        );
        println!("{}", report.text);
        let txt = out_dir.join(format!("{id}.txt"));
        std::fs::write(&txt, &report.text).map_err(|e| format!("writing {txt:?}: {e}"))?;
        let json = out_dir.join(format!("{id}.json"));
        let body = serde_json::to_string_pretty(&report.json)
            .map_err(|e| format!("serializing {id}: {e}"))?;
        std::fs::write(&json, body).map_err(|e| format!("writing {json:?}: {e}"))?;
    }
    println!("results written to {}", out_dir.display());
    std::fs::remove_dir_all(&work_dir).ok();
    Ok(())
}

/// Parse the value of the numeric option `flag`.
fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// `--help`: usage, the experiment list read off the registry, options.
fn help() -> String {
    let mut text = String::from(
        "labflow-harness — regenerate the LabFlow-1 paper's tables and figures\n\n\
         USAGE: labflow-harness [OPTIONS] [EXPERIMENT...]\n\n\
         EXPERIMENTS (default: all)\n",
    );
    for e in experiments::EXPERIMENTS {
        text.push_str(&format!("  {:<20} {}\n", e.id, e.help));
    }
    text + "
OPTIONS
  --clones N         clones at scale 1X (default 1000)
  --buffer-pages N   buffer-pool pages (default 2048 = 8 MiB)
  --seed N           workload seed
  --smoke            tiny configuration (fast sanity pass)
  --out DIR          results directory (default ./results)
  --work DIR         scratch directory for store files
"
}
