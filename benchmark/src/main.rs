//! `labflow1`: the repo's end-to-end benchmark. See `benchmark/README.md`.
//!
//! ```text
//! labflow1 --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload, one pass; the last stdout line is the result object
//! labflow1 --seed <n> [--seconds <s>] [--smoke] [--report <file>]
//!     every workload untraced, then traced; prints the full report
//! labflow1 compare <A.json[,A2.json..]> <B.json[,B2.json..]>
//!     B against A, per workload and end-to-end metric
//! ```

mod build2x;
mod commit2c;
mod common;
mod compare;
mod json;
mod lat;
mod layers;
mod report;
mod rng;
mod serveread;
mod servestep;
mod trace;

use std::path::{Path, PathBuf};

use common::{Outcome, Res, RunArgs};
use json::Json;

fn run_workload(name: &str, a: &RunArgs) -> Res<Outcome> {
    match name {
        "build-2x" => build2x::run(a),
        "commit-2c" => commit2c::run(a),
        "serve-read" => serveread::run(a),
        "serve-step" => servestep::run(a),
        other => Err(format!("unknown workload '{other}'").into()),
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Every workload, untraced then traced.
fn run_all(spec: &report::Spec, a: &RunArgs) -> Res<Vec<(String, Outcome, Outcome)>> {
    let mut runs = Vec::new();
    for (name, _) in &spec.workloads {
        eprintln!("labflow1: {name} untraced");
        let plain = run_workload(
            name,
            &RunArgs {
                trace: false,
                ..a.clone()
            },
        )?;
        eprintln!("labflow1: {name} traced");
        let traced = run_workload(
            name,
            &RunArgs {
                trace: true,
                ..a.clone()
            },
        )?;
        runs.push((name.clone(), plain, traced));
    }
    Ok(runs)
}

/// The full report: what was run, on what, and every metric of every
/// workload by name and unit.
fn full_report(spec: &report::Spec, a: &RunArgs, runs: &[(String, Outcome, Outcome)]) -> Res<Json> {
    let sections = runs
        .iter()
        .map(|(name, plain, traced)| Ok((name.clone(), spec.workload_json(plain, traced)?)))
        .collect::<Res<_>>()?;
    Ok(Json::obj([
        ("benchmark", Json::str("labflow1")),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(a.seconds)),
        ("smoke", Json::Bool(a.smoke)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "git_head",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        // What repeats exactly from run to run of one seed; every other
        // value is a time, or depends on how two threads interleaved.
        (
            "repeats_exactly",
            Json::Arr(
                [
                    "input_hash",
                    "build-2x: space_amp, end_to_end_notes.ops",
                    "serve-read: space_amp",
                    "serve-step: attempted",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("workloads", Json::Obj(sections)),
    ]))
}

fn usage() -> ! {
    eprintln!(
        "usage: labflow1 [--workload <name>] --seed <n> [--seconds <s>] [--trace <0|1>] [--smoke] [--out <dir>] [--report <file>]\n       labflow1 compare <A.json[,..]> <B.json[,..]>"
    );
    std::process::exit(2)
}

fn real_main() -> Res<bool> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else { usage() };
        return compare::run(a, b);
    }
    let spec = report::spec()?;
    let mut a = RunArgs {
        seed: 1,
        seconds: spec.run_seconds,
        trace: false,
        smoke: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let (mut workload, mut report_path) = (None::<String>, None::<PathBuf>);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => a.seed = value().parse()?,
            "--seconds" => a.seconds = value().parse()?,
            "--trace" => a.trace = value() == "1",
            "--smoke" => a.smoke = true,
            "--out" => a.out = PathBuf::from(value()),
            "--report" => report_path = Some(PathBuf::from(value())),
            _ => usage(),
        }
    }
    if a.smoke {
        a.seconds = a.seconds.min(0.4);
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    // Each invocation works in a directory of its own, removed at exit.
    let base = a.out.clone();
    a.out = base.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&a.out)?;
    let result = (|| match &workload {
        Some(name) => {
            let out = run_workload(name, &a)?;
            for p in &out.problems {
                eprintln!("labflow1: {name}: verification failed: {p}");
            }
            // The traced line already names every per-layer value.
            for (k, v) in out
                .notes
                .iter()
                .chain(out.metrics.iter().filter(|_| !a.trace))
            {
                eprintln!("labflow1: {name}: {k} = {v}");
            }
            eprintln!("labflow1: {name}: input_hash = {:016x}", out.input_hash);
            println!("{}", spec.contract_line(&out, a.trace)?);
            Ok(out.problems.is_empty())
        }
        None => {
            let runs = run_all(&spec, &a)?;
            let correct = runs
                .iter()
                .all(|(_, plain, traced)| plain.problems.is_empty() && traced.problems.is_empty());
            let text = full_report(&spec, &a, &runs)?.pretty();
            if let Some(path) = &report_path {
                std::fs::write(path, format!("{text}\n"))?;
            }
            println!("{text}");
            Ok(correct)
        }
    })();
    // Trace files outlive the run directory.
    if let Ok(entries) = std::fs::read_dir(&a.out) {
        for e in entries
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("trace-"))
        {
            let _ = std::fs::rename(e.path(), base.join(e.file_name()));
        }
    }
    let _ = std::fs::remove_dir_all(&a.out);
    result
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("labflow1: error: {e}");
            std::process::exit(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_out(tag: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{tag}-{}", std::process::id()))
    }

    /// `--smoke`: all four workloads, both passes, in seconds; every metric
    /// `BENCHMARK.json` names is present and finite, every end-to-end one
    /// is non-zero, every per-layer one is measured by some workload, and
    /// the report survives `compare`.
    #[test]
    fn smoke_names_every_metric_and_compares_clean() {
        let spec = report::spec().unwrap();
        let out = test_out("smoke");
        let a = RunArgs {
            seed: 7,
            seconds: 0.4,
            trace: false,
            smoke: true,
            out: out.clone(),
        };
        let t0 = std::time::Instant::now();
        let runs = run_all(&spec, &a).unwrap();
        let took = t0.elapsed();
        assert_eq!(runs.len(), spec.workloads.len());
        let mut measured = std::collections::BTreeSet::new();
        for (name, plain, traced) in &runs {
            assert!(
                plain.problems.is_empty() && traced.problems.is_empty(),
                "{name}: {:?} {:?}",
                plain.problems,
                traced.problems
            );
            assert!(
                plain.attempted > 0 && plain.failed == 0 && traced.failed == 0,
                "{name}: failed operations"
            );
            for m in &spec.end_to_end {
                let v = plain
                    .metrics
                    .get(&m.name)
                    .unwrap_or_else(|| panic!("{name} lacks {}", m.name));
                assert!(v.is_finite() && *v > 0.0, "{name}: {} = {v}", m.name);
            }
            for (k, v) in &traced.metrics {
                assert!(v.is_finite(), "{name}: {k} = {v}");
                measured.insert(k.clone());
            }
            // Both output forms accept the outcome as it is.
            spec.contract_line(plain, false).unwrap();
            spec.contract_line(traced, true).unwrap();
        }
        for m in &spec.per_layer {
            assert!(
                measured.contains(&m.name),
                "no workload measures per-layer metric {}",
                m.name
            );
        }
        // Ten seconds is for the optimized build; a debug build is ~3x slower.
        let limit_s = if cfg!(debug_assertions) { 30.0 } else { 10.0 };
        assert!(took.as_secs_f64() <= limit_s, "smoke took {took:?}");

        let report = full_report(&spec, &a, &runs).unwrap();
        assert_eq!(Json::parse(&report.pretty()).unwrap(), report);
        std::fs::create_dir_all(&out).unwrap();
        let (base, worse) = (out.join("a.json"), out.join("b.json"));
        std::fs::write(&base, report.pretty()).unwrap();
        // The same report with commit-2c at a third of its throughput.
        let rate = runs[1].1.metrics["ops_per_s"];
        let tampered = report.pretty().replacen(
            &Json::Num(rate).compact(),
            &Json::Num(rate / 3.0).compact(),
            1,
        );
        std::fs::write(&worse, tampered).unwrap();
        let path = |p: &PathBuf| p.to_str().unwrap().to_string();
        assert!(compare::run(&path(&base), &path(&base)).unwrap());
        assert!(!compare::run(&path(&base), &path(&worse)).unwrap());
        assert!(compare::run(&path(&worse), &format!("{},{}", path(&base), path(&base))).unwrap());
        std::fs::remove_dir_all(&out).ok();
    }

    /// One seed, one op stream; another seed, another.
    #[test]
    fn seed_decides_every_input() {
        let hashes = |seed: u64| {
            let a = RunArgs {
                seed,
                seconds: 10.0,
                trace: false,
                smoke: false,
                out: PathBuf::new(),
            };
            [
                build2x::input_hash(&a),
                commit2c::input_hash(seed, 500),
                serveread::input_hash(seed, 500),
                servestep::input_hash(seed, 500),
            ]
        };
        assert_eq!(hashes(1), hashes(1));
        for (a, b) in hashes(1).iter().zip(hashes(2)) {
            assert_ne!(*a, b);
        }
    }

    /// A run leaves its `input_hash` in the outcome, and it is the
    /// generator's, not the clock's: two runs of one seed agree.
    #[test]
    fn one_seed_gives_one_input_hash_per_run() {
        let run = |tag: &str| {
            let a = RunArgs {
                seed: 3,
                seconds: 0.2,
                trace: false,
                smoke: true,
                out: test_out(tag),
            };
            let out = run_workload("commit-2c", &a).unwrap();
            std::fs::remove_dir_all(&a.out).ok();
            assert!(out.problems.is_empty(), "{:?}", out.problems);
            out.input_hash
        };
        assert_eq!(run("hash-a"), run("hash-b"));
    }
}
