//! `BENCHMARK.json` as the benchmark sees it: the metric names, units,
//! directions and regression bounds. The file is compiled in, so the binary
//! and the contract it was built beside cannot drift apart.

use std::sync::OnceLock;

use crate::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline by which the metric may get worse before it
    /// counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl BenchSpec {
    pub fn parse(text: &str) -> Result<BenchSpec, String> {
        let root = json::parse(text)?;
        let list = |key: &str| {
            root.get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: missing array '{key}'"))
        };
        let text_of = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: missing string '{key}'"))
        };
        let metrics = |key: &str, bounded: bool| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = match text_of(m, "better")?.as_str() {
                        "higher" => Better::Higher,
                        "lower" => Better::Lower,
                        other => return Err(format!("BENCHMARK.json: better = '{other}'")),
                    };
                    let bound = m.get("bound").and_then(Value::as_f64);
                    if bounded != bound.is_some() {
                        return Err(format!("BENCHMARK.json: bound of a '{key}' metric"));
                    }
                    Ok(MetricDef {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better,
                        bound,
                    })
                })
                .collect()
        };
        Ok(BenchSpec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")? as u64,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }

    /// The contract this binary was built beside.
    pub fn embedded() -> &'static BenchSpec {
        static SPEC: OnceLock<BenchSpec> = OnceLock::new();
        SPEC.get_or_init(|| {
            BenchSpec::parse(BENCHMARK_JSON).expect("the committed BENCHMARK.json parses")
        })
    }

    pub fn end_to_end(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::WORKLOADS;

    #[test]
    fn committed_contract_matches_the_code() {
        let spec = BenchSpec::embedded();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, names);
        assert!((1..=60).contains(&spec.run_seconds));
        let setup = spec.end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
            assert!(
                bound <= setup.bound.unwrap_or(0.0),
                "setup_s has the largest bound"
            );
        }
        let mut all: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        all.sort_unstable();
        assert!(
            all.windows(2).all(|w| w[0] != w[1]),
            "metric names are unique"
        );
    }

    #[test]
    fn rejects_a_contract_with_misplaced_bounds() {
        let bad = r#"{"run_seconds": 1, "workloads": [],
            "end_to_end": [{"name": "x", "unit": "s", "better": "lower"}], "per_layer": []}"#;
        assert!(BenchSpec::parse(bad).is_err());
        let bad = r#"{"run_seconds": 1, "workloads": [], "end_to_end": [],
            "per_layer": [{"name": "x", "unit": "s", "better": "sideways"}]}"#;
        assert!(BenchSpec::parse(bad).is_err());
    }
}
