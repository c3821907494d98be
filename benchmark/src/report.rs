//! Results: what one workload run reports, how it is written (for people,
//! for the driver, for `compare`), and how two result files are judged
//! against the bounds in `BENCHMARK.json`.

use std::fmt::Write as _;

use crate::json::{self, num, quote, Value};
use crate::spec::{BenchSpec, Better, MetricDef};
use crate::stats::Quartiles;

/// One reported number. Host-time metrics carry their run-to-run spread
/// as seen from inside the run (a share of the value) and the quartiles of
/// their repetitions; simulated metrics and counts repeat exactly and
/// carry neither.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub spread: Option<f64>,
    pub quartiles: Option<Quartiles>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub reps: usize,
    /// Wall seconds of each timed repetition, in run order.
    pub rep_wall_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<MetricValue>,
    /// Empty when the traced pass did not run.
    pub per_layer: Vec<MetricValue>,
    pub checks: Vec<Check>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Every metric with its unit, quartiles where there are repetitions,
    /// `unresolved` where their spread exceeds the metric's bound, and the
    /// self-checks.
    pub fn human(&self, spec: &BenchSpec) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} seed={} reps={} attempted={} failed={}",
            self.workload, self.seed, self.reps, self.attempted, self.failed
        );
        let walls: Vec<String> = self.rep_wall_s.iter().map(|w| format!("{w:.3}")).collect();
        let _ = writeln!(out, "  repetition wall times (s): {}", walls.join(" "));
        for (title, metrics) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ] {
            if metrics.is_empty() {
                continue;
            }
            let _ = writeln!(out, "  {title}");
            for m in metrics {
                let _ = write!(out, "    {:<36} {:>16.6} {:<6}", m.name, m.value, m.unit);
                if let Some(q) = m.quartiles {
                    let _ = write!(
                        out,
                        " reps: q1={:.6} median={:.6} q3={:.6} n={}",
                        q.q1, q.median, q.q3, q.n
                    );
                }
                if let Some(spread) = m.spread {
                    let _ = write!(out, " spread {:.1}%", 100.0 * spread);
                    let bound = spec.end_to_end(&m.name).and_then(|d| d.bound);
                    if bound.is_some_and(|b| spread > b) {
                        out.push_str(" unresolved");
                    }
                }
                out.push('\n');
            }
        }
        let _ = writeln!(out, "  self-checks");
        for c in &self.checks {
            let _ = writeln!(
                out,
                "    {} {:<22} {}",
                if c.ok { "ok  " } else { "FAIL" },
                c.name,
                c.detail
            );
        }
        out
    }

    /// The one-line result the benchmark contract asks for: exactly
    /// `correct`, `attempted`, `failed` and the `metrics` of one group.
    pub fn driver_line(&self, per_layer: bool) -> String {
        let metrics = if per_layer {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    num(m.value),
                    quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }

    /// The full record `compare` reads back.
    pub fn to_json(&self) -> String {
        let group = |metrics: &[MetricValue]| {
            let body: Vec<String> = metrics
                .iter()
                .map(|m| {
                    let mut s = format!(
                        "{}: {{\"value\": {}, \"unit\": {}",
                        quote(&m.name),
                        num(m.value),
                        quote(&m.unit)
                    );
                    if let Some(spread) = m.spread {
                        let _ = write!(s, ", \"spread\": {}", num(spread));
                    }
                    if let Some(q) = m.quartiles {
                        let _ = write!(
                            s,
                            ", \"reps\": {{\"q1\": {}, \"median\": {}, \"q3\": {}, \"n\": {}}}",
                            num(q.q1),
                            num(q.median),
                            num(q.q3),
                            q.n
                        );
                    }
                    s.push('}');
                    s
                })
                .collect();
            format!("{{{}}}", body.join(", "))
        };
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                    quote(c.name),
                    c.ok,
                    quote(&c.detail)
                )
            })
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"reps\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"end_to_end\": {}, \"per_layer\": {}, \"checks\": [{}]}}",
            quote(&self.workload),
            self.seed,
            self.reps,
            self.correct(),
            self.attempted,
            self.failed,
            group(&self.end_to_end),
            group(&self.per_layer),
            checks.join(", ")
        )
    }
}

/// A result file: one workload record per line, so the files of single
/// workloads concatenate into the file of a full run.
pub fn file_json(records: &[String]) -> String {
    records.iter().map(|r| format!("{r}\n")).collect()
}

/// The slice of a result file `compare` needs.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedWorkload {
    pub workload: String,
    pub seed: u64,
    pub reps: usize,
    pub correct: bool,
    pub end_to_end: Vec<MetricValue>,
    /// Empty when the run had no traced pass.
    pub per_layer: Vec<MetricValue>,
}

fn load_metrics(group: &Value, key: &str) -> Result<Vec<MetricValue>, String> {
    let mut out = Vec::new();
    for (name, m) in group
        .as_obj()
        .ok_or_else(|| format!("{key}: not an object"))?
    {
        let f = |key: &str| m.get(key).and_then(Value::as_f64);
        let value = f("value").ok_or_else(|| format!("{name}: no value"))?;
        let reps = |key: &str| m.get("reps")?.get(key)?.as_f64();
        let quartiles = match (reps("q1"), reps("median"), reps("q3"), reps("n")) {
            (Some(q1), Some(median), Some(q3), Some(n)) => Some(Quartiles {
                q1,
                median,
                q3,
                n: n as usize,
            }),
            _ => None,
        };
        out.push(MetricValue {
            name: name.clone(),
            unit: m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            value,
            spread: f("spread"),
            quartiles,
        });
    }
    Ok(out)
}

pub fn load_file(text: &str) -> Result<Vec<LoadedWorkload>, String> {
    let records: Vec<Value> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(json::parse)
        .collect::<Result<_, _>>()?;
    if records.is_empty() {
        return Err("result file: no workload records".to_string());
    }
    records
        .iter()
        .map(|w| {
            let field = |key: &str| w.get(key).ok_or_else(|| format!("result file: no '{key}'"));
            Ok(LoadedWorkload {
                workload: field("workload")?
                    .as_str()
                    .ok_or("workload: not a string")?
                    .to_string(),
                seed: field("seed")?.as_f64().ok_or("seed: not a number")? as u64,
                reps: field("reps")?.as_f64().ok_or("reps: not a number")? as usize,
                correct: field("correct")?.as_bool().ok_or("correct: not a bool")?,
                end_to_end: load_metrics(field("end_to_end")?, "end_to_end")?,
                per_layer: load_metrics(field("per_layer")?, "per_layer")?,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A side's run-to-run spread is wider than the bound, so a difference
    /// inside it cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a` the candidate `b` is worse (negative: better).
pub fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    let delta = match def.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if delta == 0.0 {
        0.0
    } else if a == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / a.abs()
    }
}

/// The bound for metrics that repeat exactly (simulated metrics, counts)
/// when both sides ran the same seed: any change in them is the code's.
pub const EXACT_BOUND: f64 = 0.01;
/// A difference in `setup_s` below this is the same whatever its share: a
/// topology builds in tens of microseconds, where 25 % is scheduler noise.
const SETUP_FLOOR_S: f64 = 0.002;
/// Per-layer metrics `compare` judges too when the seeds agree (they are
/// simulated, and too seed-dependent for a bound across seeds).
const EXACT_PER_LAYER: [&str; 1] = ["lb-dataplane.react_ms"];

/// The metrics read from the host; every other one is a pure function of
/// `(workload, seed)`.
const HOST_READINGS: [&str; 3] = ["setup_s", "req_per_wall_s", "peak_rss_mb"];

/// The share by which the candidate may be worse before it counts:
/// `def`'s bound, tightened to [`EXACT_BOUND`] on identical seeds for a
/// metric that repeats exactly.
pub fn bound_for(def: &MetricDef, same_seed: bool) -> f64 {
    let bound = def.bound.unwrap_or(EXACT_BOUND);
    if same_seed && !HOST_READINGS.contains(&def.name.as_str()) {
        bound.min(EXACT_BOUND)
    } else {
        bound
    }
}

/// Judges candidate `b` against baseline `a` under `def`'s direction and
/// bound.
pub fn judge(def: &MetricDef, a: &MetricValue, b: &MetricValue, same_seed: bool) -> Verdict {
    let bound = bound_for(def, same_seed);
    let noisy = |m: &MetricValue| m.spread.is_some_and(|s| s > bound);
    let w = worse_by(def, a.value, b.value);
    if def.name == "setup_s" && (b.value - a.value).abs() < SETUP_FLOOR_S {
        Verdict::Same
    } else if noisy(a) || noisy(b) {
        Verdict::Unresolved
    } else if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One row per workload × end-to-end metric (and, on identical seeds, per
/// [`EXACT_PER_LAYER`] metric both files carry); returns the table and how
/// many rows came out `(worse, unresolved)`.
pub fn compare(
    spec: &BenchSpec,
    a: &[LoadedWorkload],
    b: &[LoadedWorkload],
) -> (String, usize, usize) {
    let mut out = String::new();
    let (mut worse, mut unresolved) = (0, 0);
    let _ = writeln!(
        out,
        "{:<12} {:<22} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for wb in b
        .iter()
        .filter(|w| a.iter().all(|x| x.workload != w.workload))
    {
        let _ = writeln!(out, "{:<12} missing from A", wb.workload);
        worse += 1;
    }
    for wa in a {
        let Some(wb) = b.iter().find(|w| w.workload == wa.workload) else {
            let _ = writeln!(out, "{:<12} missing from B", wa.workload);
            worse += 1;
            continue;
        };
        if wa.reps != wb.reps {
            let _ = writeln!(
                out,
                "{:<12} repetition counts differ ({} vs {}): not the same benchmark",
                wa.workload, wa.reps, wb.reps
            );
            worse += 1;
            continue;
        }
        let same_seed = wa.seed == wb.seed;
        if !same_seed {
            let _ = writeln!(
                out,
                "{:<12} seeds differ ({} vs {}): simulated metrics are judged by their \
                 cross-seed bounds, not exactly",
                wa.workload, wa.seed, wb.seed
            );
        }
        if !wb.correct {
            let _ = writeln!(out, "{:<12} B failed its self-checks", wb.workload);
            worse += 1;
        }
        let pair = |ga: &[MetricValue], gb: &[MetricValue], name: &str| {
            let find = |g: &[MetricValue]| g.iter().find(|m| m.name == name).cloned();
            Some((find(ga)?, find(gb)?))
        };
        let mut rows: Vec<(&MetricDef, Option<(MetricValue, MetricValue)>)> = spec
            .end_to_end
            .iter()
            .map(|d| (d, pair(&wa.end_to_end, &wb.end_to_end, &d.name)))
            .collect();
        rows.extend(
            spec.per_layer
                .iter()
                .filter(|d| same_seed && EXACT_PER_LAYER.contains(&d.name.as_str()))
                .filter_map(|d| Some((d, Some(pair(&wa.per_layer, &wb.per_layer, &d.name)?)))),
        );
        for (def, pair) in rows {
            let Some((ma, mb)) = pair else {
                let _ = writeln!(out, "{:<12} {:<22} missing", wa.workload, def.name);
                worse += 1;
                continue;
            };
            let verdict = judge(def, &ma, &mb, same_seed);
            match verdict {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Better | Verdict::Same => {}
            }
            let _ = writeln!(
                out,
                "{:<12} {:<22} {:>16.6} {:>16.6} {:>+8.2}% {:>6.1}%  {}",
                wa.workload,
                def.name,
                ma.value,
                mb.value,
                100.0 * (mb.value - ma.value) / ma.value.abs().max(f64::MIN_POSITIVE),
                100.0 * bound_for(def, same_seed),
                verdict.as_str()
            );
        }
    }
    (out, worse, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".to_string(),
            unit: "u".to_string(),
            better,
            bound: Some(bound),
        }
    }

    fn exact(value: f64) -> MetricValue {
        MetricValue {
            name: "m".to_string(),
            unit: "u".to_string(),
            value,
            spread: None,
            quartiles: None,
        }
    }

    fn spread(value: f64, q1: f64, q3: f64) -> MetricValue {
        let quartiles = Quartiles {
            q1,
            median: value,
            q3,
            n: 5,
        };
        MetricValue {
            spread: Some(quartiles.iqr_share()),
            quartiles: Some(quartiles),
            ..exact(value)
        }
    }

    #[test]
    fn bound_logic_follows_direction() {
        // Across seeds a metric is held to its own bound.
        let judge = |d: &MetricDef, a: f64, b: f64| judge(d, &exact(a), &exact(b), false);
        let lower = def(Better::Lower, 0.10);
        assert_eq!(judge(&lower, 100.0, 100.0), Verdict::Same);
        assert_eq!(judge(&lower, 100.0, 109.0), Verdict::Same);
        assert_eq!(judge(&lower, 100.0, 111.0), Verdict::Worse);
        assert_eq!(judge(&lower, 100.0, 89.0), Verdict::Better);
        let higher = def(Better::Higher, 0.10);
        assert_eq!(judge(&higher, 100.0, 89.0), Verdict::Worse);
        assert_eq!(judge(&higher, 100.0, 111.0), Verdict::Better);
        assert_eq!(judge(&higher, 100.0, 95.0), Verdict::Same);
        // A zero baseline: unchanged is the same, anything worse is worse.
        assert_eq!(judge(&lower, 0.0, 0.0), Verdict::Same);
        assert_eq!(judge(&lower, 0.0, 1.0), Verdict::Worse);
        assert_eq!(worse_by(&higher, 200.0, 150.0), 0.25);
    }

    #[test]
    fn exact_metrics_on_one_seed_are_held_to_one_per_cent() {
        let d = def(Better::Lower, 0.15);
        assert_eq!(
            judge(&d, &exact(100.0), &exact(102.0), true),
            Verdict::Worse
        );
        assert_eq!(
            judge(&d, &exact(100.0), &exact(102.0), false),
            Verdict::Same
        );
        assert_eq!(judge(&d, &exact(100.0), &exact(100.5), true), Verdict::Same);
        assert_eq!(
            judge(&d, &exact(100.0), &exact(98.0), true),
            Verdict::Better
        );
        // A bound already tighter than 1 % stays.
        let tight = def(Better::Higher, 0.002);
        assert_eq!(bound_for(&tight, true), 0.002);
        // A host reading keeps its bound on one seed too.
        let host = MetricDef {
            name: "peak_rss_mb".to_string(),
            ..d.clone()
        };
        assert_eq!(
            judge(&host, &exact(100.0), &exact(110.0), true),
            Verdict::Same
        );
        // A per-layer metric has no bound of its own.
        let layer = MetricDef { bound: None, ..d };
        assert_eq!(
            judge(&layer, &exact(1.0), &exact(2.0), true),
            Verdict::Worse
        );
    }

    #[test]
    fn setup_differences_below_the_floor_are_the_same() {
        let d = MetricDef {
            name: "setup_s".to_string(),
            ..def(Better::Lower, 0.25)
        };
        assert_eq!(
            judge(&d, &exact(24e-6), &exact(90e-6), false),
            Verdict::Same
        );
        assert_eq!(
            judge(&d, &exact(0.010), &exact(0.011), false),
            Verdict::Same
        );
        assert_eq!(
            judge(&d, &exact(0.010), &exact(0.013), false),
            Verdict::Worse
        );
        let wide = spread(24e-6, 10e-6, 40e-6);
        assert_eq!(judge(&d, &wide, &wide, false), Verdict::Same);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let d = MetricDef {
            name: "req_per_wall_s".to_string(),
            ..def(Better::Higher, 0.10)
        };
        let judge = |a: &MetricValue, b: &MetricValue| judge(&d, a, b, true);
        let tight = spread(100.0, 98.0, 102.0);
        let wide = spread(100.0, 90.0, 105.0);
        assert_eq!(judge(&tight, &spread(101.0, 99.0, 103.0)), Verdict::Same);
        assert_eq!(judge(&tight, &wide), Verdict::Unresolved);
        assert_eq!(judge(&wide, &tight), Verdict::Unresolved);
        assert_eq!(judge(&tight, &spread(80.0, 79.0, 81.0)), Verdict::Worse);
        assert_eq!(
            judge(&tight, &spread(80.0, 60.0, 90.0)),
            Verdict::Unresolved
        );
    }

    fn sample_result() -> WorkloadResult {
        WorkloadResult {
            workload: "kv_delay".to_string(),
            seed: 42,
            reps: 5,
            rep_wall_s: vec![2.0; 5],
            attempted: 1000,
            failed: 0,
            end_to_end: vec![
                spread(0.1 + 0.2, 0.25, 0.35),
                MetricValue {
                    name: "get_p95_us".to_string(),
                    ..exact(290.5)
                },
            ],
            per_layer: vec![MetricValue {
                name: "netsim.dispatch_share".to_string(),
                unit: "ratio".to_string(),
                value: 0.3,
                spread: None,
                quartiles: None,
            }],
            checks: vec![Check {
                name: "determinism",
                ok: true,
                detail: "5 reps \"identical\"".to_string(),
            }],
        }
    }

    #[test]
    fn result_writer_round_trips_through_the_reader() {
        let r = sample_result();
        let file = file_json(&[r.to_json()]);
        let loaded = load_file(&file).expect("own output parses");
        assert_eq!(loaded.len(), 1);
        let w = &loaded[0];
        assert_eq!(
            (w.workload.as_str(), w.seed, w.reps, w.correct),
            ("kv_delay", 42, 5, true)
        );
        assert_eq!(w.end_to_end, r.end_to_end);
        assert_eq!(w.per_layer, r.per_layer);
        assert!(load_file("{}\n").is_err());
        assert!(load_file("\n").is_err());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut r = sample_result();
        let line = r.driver_line(false);
        let v = json::parse(&line).expect("driver line is JSON");
        let keys: Vec<&str> = v
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("get_p95_us"))
            .expect("metric get_p95_us");
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(290.5));
        assert_eq!(m.as_obj().map(<[_]>::len), Some(2));
        assert!(!line.contains('\n'));
        let layers = json::parse(&r.driver_line(true)).expect("JSON");
        assert!(layers
            .get("metrics")
            .and_then(|m| m.get("netsim.dispatch_share"))
            .is_some());
        r.checks[0].ok = false;
        assert!(r.driver_line(false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn compare_counts_worse_and_unresolved_rows() {
        let react = MetricDef {
            name: "lb-dataplane.react_ms".to_string(),
            bound: None,
            ..def(Better::Lower, 0.0)
        };
        let spec = BenchSpec {
            run_seconds: 1,
            workloads: vec!["kv_delay".to_string()],
            end_to_end: vec![def(Better::Lower, 0.10)],
            per_layer: vec![react.clone()],
        };
        let workload = |name: &str, seed: u64, m: MetricValue, react_ms: f64| LoadedWorkload {
            workload: name.to_string(),
            seed,
            reps: 5,
            correct: true,
            end_to_end: vec![m],
            per_layer: vec![MetricValue {
                name: react.name.clone(),
                ..exact(react_ms)
            }],
        };
        let side = |m: MetricValue| vec![workload("kv_delay", 42, m, 3.0)];
        let counts = |a: &[LoadedWorkload], b: &[LoadedWorkload]| {
            let (table, worse, unresolved) = compare(&spec, a, b);
            (worse, unresolved, table)
        };
        let (worse, unresolved, table) = counts(&side(exact(100.0)), &side(exact(100.0)));
        assert_eq!((worse, unresolved), (0, 0));
        assert!(table.contains("lb-dataplane.react_ms"));
        let (worse, _, table) = counts(&side(exact(100.0)), &side(exact(120.0)));
        assert_eq!(worse, 1);
        assert!(table.contains("worse"));
        // 5 % worse on one seed is a regression of an exact metric; across
        // seeds it is inside the bound.
        let (worse, ..) = counts(&side(exact(100.0)), &side(exact(105.0)));
        assert_eq!(worse, 1);
        let other_seed = vec![workload("kv_delay", 7, exact(105.0), 9.0)];
        let (worse, _, table) = counts(&side(exact(100.0)), &other_seed);
        assert_eq!(worse, 0);
        assert!(!table.contains("lb-dataplane.react_ms"));
        // Reaction time is judged on one seed.
        let slow = vec![workload("kv_delay", 42, exact(100.0), 4.0)];
        assert_eq!(counts(&side(exact(100.0)), &slow).0, 1);
        let (worse, unresolved, _) = counts(&side(spread(100.0, 80.0, 110.0)), &side(exact(100.0)));
        assert_eq!((worse, unresolved), (0, 1));
        // Workloads on one side only, and runs of different length.
        assert_eq!(counts(&side(exact(100.0)), &[]).0, 1);
        let extra = [
            side(exact(100.0)),
            vec![workload("other", 42, exact(1.0), 3.0)],
        ]
        .concat();
        assert_eq!(counts(&side(exact(100.0)), &extra).0, 1);
        let mut longer = side(exact(100.0));
        longer[0].reps = 6;
        let (worse, _, table) = counts(&side(exact(100.0)), &longer);
        assert_eq!(worse, 1);
        assert!(table.contains("repetition counts differ"));
    }
}
