//! `labflow1 compare A B`: B's reports against A's, per workload and
//! end-to-end metric, against the bound `BENCHMARK.json` fixes. Each side
//! is one report or a comma-separated list of them; with several, medians
//! are compared and a metric whose run-to-run spread on either side is
//! wider than its bound is `unresolved`, not `ok`.

use crate::common::Res;
use crate::json::Json;
use crate::lat::median;
use crate::report::{self, MetricSpec};

fn load(list: &str) -> Res<Vec<Json>> {
    list.split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Ok(Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        })
        .collect()
}

/// Run-to-run spread as a share of the median: the full range for up to
/// three runs, the distance between the quartiles beyond that.
fn spread(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let (lo, hi) = if s.len() < 4 {
        (s[0], s[s.len() - 1])
    } else {
        (s[s.len() / 4], s[s.len() * 3 / 4])
    };
    (hi - lo) / median(s).abs().max(f64::MIN_POSITIVE)
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regressed,
}

/// B against A for one metric: the share by which B's median is worse,
/// and what that means under the metric's bound.
pub fn judge(m: &MetricSpec, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (ma, mb) = (median(a.to_vec()), median(b.to_vec()));
    let change = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let worse = if m.better == "higher" {
        -change
    } else {
        change
    };
    let bound = m.bound.unwrap_or(0.0);
    let verdict = if worse > bound {
        Verdict::Regressed
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

fn collect(reports: &[Json], workload: &str, pick: impl Fn(&Json) -> Option<f64>) -> Vec<f64> {
    reports
        .iter()
        .filter_map(|r| pick(r.get("workloads")?.get(workload)?))
        .collect()
}

pub fn run(a_list: &str, b_list: &str) -> Res<bool> {
    let spec = report::spec()?;
    let (a, b) = (load(a_list)?, load(b_list)?);
    let mut regressions = 0;
    println!(
        "{:<11} {:<10} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    for (workload, _) in &spec.workloads {
        for m in &spec.end_to_end {
            let pick = |w: &Json| report::value(w, "end_to_end", &m.name);
            let (va, vb) = (collect(&a, workload, pick), collect(&b, workload, pick));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}: {} is missing from a report", m.name).into());
            }
            let (worse, verdict) = judge(m, &va, &vb);
            regressions += usize::from(verdict == Verdict::Regressed);
            println!(
                "{:<11} {:<10} {:>14.4} {:>14.4} {:>+7.1}% {:>5.0}%  {}",
                workload,
                m.name,
                median(va),
                median(vb),
                worse * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved (run-to-run spread exceeds the bound)",
                    Verdict::Regressed => "REGRESSED",
                }
            );
        }
        let share = |w: &Json| w.get("failed_share")?.as_f64();
        let (fa, fb) = (
            median(collect(&a, workload, share)),
            median(collect(&b, workload, share)),
        );
        let incorrect = b.iter().any(|r| {
            r.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("correct"))
                != Some(&Json::Bool(true))
        });
        if fb > fa || incorrect {
            regressions += 1;
            println!(
                "{workload:<11} failed_share {fa} -> {fb}, verification {}  REGRESSED",
                if incorrect { "FAILED" } else { "ok" }
            );
        }
    }
    println!("{regressions} regression(s)");
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: &str, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "u".into(),
            better: better.into(),
            bound: Some(bound),
        }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let higher = metric("higher", 0.10);
        assert_eq!(judge(&higher, &[100.0], &[95.0]).1, Verdict::Ok);
        assert_eq!(judge(&higher, &[100.0], &[85.0]).1, Verdict::Regressed);
        assert_eq!(judge(&higher, &[100.0], &[150.0]).1, Verdict::Ok);
        let lower = metric("lower", 0.10);
        assert_eq!(judge(&lower, &[100.0], &[105.0]).1, Verdict::Ok);
        assert_eq!(judge(&lower, &[100.0], &[115.0]).1, Verdict::Regressed);
        let (worse, _) = judge(&lower, &[100.0], &[115.0]);
        assert!((worse - 0.15).abs() < 1e-12);
    }

    #[test]
    fn wide_spread_is_unresolved_not_ok() {
        let lower = metric("lower", 0.10);
        assert_eq!(
            judge(&lower, &[100.0, 130.0], &[101.0, 103.0]).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&lower, &[100.0, 102.0], &[101.0, 103.0]).1,
            Verdict::Ok
        );
        // Five runs: the quartiles, not the outlier, set the spread.
        assert_eq!(
            judge(&lower, &[100.0, 101.0, 102.0, 103.0, 190.0], &[101.0]).1,
            Verdict::Ok
        );
        assert!(spread(&[100.0, 101.0, 102.0, 103.0, 190.0]) < 0.05);
    }
}
