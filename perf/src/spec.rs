//! `BENCHMARK.json` as the single source of metric names, units,
//! directions and regression bounds. The file is compiled in, so the
//! binary cannot drift from the contract it is checked against.

use crate::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One named metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a higher reading is better.
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by; `None` for
    /// per-layer metrics, which are informational.
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    /// `(name, why)` per workload, in suite order.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The compiled-in contract.
    ///
    /// # Panics
    ///
    /// Panics when `BENCHMARK.json` is malformed — a build-time bug.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or(format!("missing array {key:?}"))?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Value::as_str)
                            .ok_or(format!("{key}: metric without {f:?}"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        higher_is_better: match field("better")? {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("{key}: bad direction {other:?}")),
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("missing array \"workloads\"")?
            .iter()
            .map(|w| {
                let field = |f: &str| {
                    w.get(f)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or(format!("workload without {f:?}"))
                };
                Ok((field("name")?, field("why")?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("missing run_seconds")?,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The limits the builder's contract puts on `BENCHMARK.json`.
    #[test]
    fn compiled_in_contract_is_within_its_limits() {
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);

        let spec = Spec::load();
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);

        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in &spec.workloads {
            assert!(name_ok(name), "workload name {name:?}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
            assert!(seen.insert(name.clone()), "duplicate name {name}");
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(name_ok(&m.name), "metric name {:?}", m.name);
            assert!(unit_ok(&m.unit), "unit {:?} of {}", m.unit, m.name);
            assert!(seen.insert(m.name.clone()), "duplicate name {}", m.name);
        }
        for m in &spec.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "bound of {}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert!(setup.unit == "s" && !setup.higher_is_better);
    }
}
