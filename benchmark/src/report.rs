//! Turning outcomes into output. `BENCHMARK.json` is the one list of
//! metric names, units, directions and bounds: it is compiled in, every
//! value printed is looked up in it, and a metric a workload sets that it
//! does not name is an error rather than a silent extra.

use crate::common::{Outcome, Res};
use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    /// End-to-end metrics only: the share of the baseline's value by
    /// which the metric may worsen.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
    pub run_seconds: f64,
}

pub fn spec() -> Res<Spec> {
    let doc = Json::parse(BENCHMARK_JSON)?;
    let field = |v: &Json, key: &str| -> Res<String> {
        Ok(v.get(key)
            .and_then(Json::as_str)
            .ok_or(format!("BENCHMARK.json: missing string '{key}'"))?
            .to_string())
    };
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json: missing '{key}'"))
    };
    let metrics = |key: &str| -> Res<Vec<MetricSpec>> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(MetricSpec {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                    better: field(m, "better")?,
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        workloads: list("workloads")?
            .iter()
            .map(|w| Ok((field(w, "name")?, field(w, "why")?)))
            .collect::<Res<_>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json: missing run_seconds")?,
    })
}

impl Spec {
    fn check_known(&self, out: &Outcome) -> Res<()> {
        for name in out.metrics.keys() {
            if !self
                .end_to_end
                .iter()
                .chain(&self.per_layer)
                .any(|m| &m.name == name)
            {
                return Err(format!("metric '{name}' is not named in BENCHMARK.json").into());
            }
        }
        Ok(())
    }

    /// `{name: {value, unit}}` for one of the two metric lists. A
    /// per-layer metric the workload does not exercise reads 0; a missing
    /// end-to-end metric is an error.
    fn metrics_json(&self, out: &Outcome, trace: bool) -> Res<Json> {
        self.check_known(out)?;
        let specs = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut entries = Vec::new();
        for m in specs {
            let value = match out.metrics.get(&m.name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("metric '{}' is not finite: {v}", m.name).into()),
                None if trace => 0.0,
                None => {
                    return Err(format!("end-to-end metric '{}' was not measured", m.name).into())
                }
            };
            entries.push((
                m.name.clone(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(&m.unit))]),
            ));
        }
        Ok(Json::Obj(entries))
    }

    /// The driver's result line for one workload run.
    pub fn contract_line(&self, out: &Outcome, trace: bool) -> Res<String> {
        Ok(Json::obj([
            ("correct", Json::Bool(out.problems.is_empty())),
            ("attempted", Json::Num(out.attempted as f64)),
            ("failed", Json::Num(out.failed as f64)),
            ("metrics", self.metrics_json(out, trace)?),
        ])
        .compact())
    }

    /// One workload's section of the full report: both passes.
    pub fn workload_json(&self, plain: &Outcome, traced: &Outcome) -> Res<Json> {
        let notes = |o: &Outcome| {
            Json::Obj(
                o.notes
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            )
        };
        let problems: Vec<Json> = plain
            .problems
            .iter()
            .chain(&traced.problems)
            .map(Json::str)
            .collect();
        Ok(Json::obj([
            (
                "input_hash",
                Json::str(format!("{:016x}", plain.input_hash)),
            ),
            ("correct", Json::Bool(problems.is_empty())),
            ("problems", Json::Arr(problems)),
            ("attempted", Json::Num(plain.attempted as f64)),
            ("failed", Json::Num(plain.failed as f64)),
            (
                "failed_share",
                Json::Num(plain.failed as f64 / plain.attempted.max(1) as f64),
            ),
            ("end_to_end", self.metrics_json(plain, false)?),
            ("end_to_end_notes", notes(plain)),
            ("per_layer", self.metrics_json(traced, true)?),
            ("per_layer_notes", notes(traced)),
        ]))
    }
}

/// One metric's value in one workload section of a report.
pub fn value(section: &Json, list: &str, name: &str) -> Option<f64> {
    section.get(list)?.get(name)?.get("value")?.as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_meets_the_contract() {
        let s = spec().unwrap();
        assert!((2..=8).contains(&s.workloads.len()));
        assert!(s
            .workloads
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert!((1.0..=60.0).contains(&s.run_seconds) && s.run_seconds.fract() == 0.0);
        let setup = s
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        let largest = s
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        let mut names = std::collections::BTreeSet::new();
        for m in s.end_to_end.iter().chain(&s.per_layer) {
            assert!(names.insert(m.name.clone()), "{} is used twice", m.name);
            assert!(
                m.name.len() <= 64
                    && m.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(m.better == "higher" || m.better == "lower");
        }
        for m in &s.end_to_end {
            assert!(
                m.bound.is_some_and(|b| b > 0.0 && b <= 0.25),
                "{} needs a bound of at most 0.25",
                m.name
            );
        }
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let s = spec().unwrap();
        let mut out = Outcome {
            attempted: 10,
            ..Default::default()
        };
        for m in &s.end_to_end {
            out.set(&m.name, 1.5);
        }
        let line = s.contract_line(&out, false).unwrap();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            doc.get("metrics").unwrap().entries().len(),
            s.end_to_end.len()
        );
        // The traced line names every per-layer metric, measured or not.
        let traced = Json::parse(
            &s.contract_line(
                &Outcome {
                    attempted: 1,
                    ..Default::default()
                },
                true,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().entries().len(),
            s.per_layer.len()
        );

        out.set("not.in.the.list", 1.0);
        assert!(s.contract_line(&out, false).is_err());
        let mut missing = Outcome {
            attempted: 1,
            ..Default::default()
        };
        missing.set("ops_per_s", 1.0);
        assert!(s.contract_line(&missing, false).is_err());
    }
}
