//! The scenario spec: a random-but-deterministic cluster configuration
//! derived from a single u64 seed, plus an exact text serialization so
//! minimized violations can be committed as regression cases.
//!
//! Every field is an integer (durations in ms/µs, probabilities in
//! per-mille, ratios in percent): the `to_text`/`from_text` round trip
//! is byte-exact with no float-formatting concerns, and two builds of
//! the same case file construct bit-identical simulations.

use std::fmt::{Display, Write};
use std::mem::discriminant;
use std::num::ParseIntError;
use std::str::FromStr;

use experiments::topology::MAX_HOSTS;
use netsim::rng::{derive_seed, SimRng};

/// Derivation label for the scenario-generator RNG stream (keeps it
/// disjoint from the cluster's own `derive_seed` labels, which start
/// at 100).
const GEN_LABEL: u64 = 0xF022;

/// One backend's service profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendSpec {
    /// Median service time (µs) of the log-normal service distribution.
    pub median_us: u32,
    /// Shape parameter σ of the log-normal, in percent (30 = 0.30).
    pub sigma_pct: u32,
    /// Worker parallelism.
    pub workers: u32,
}

/// One scripted fault: what it does to `backend` from `from_ms` until
/// `until_ms`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Backend index.
    pub backend: u32,
    /// Fault start (ms): the crash, link-down or impairment instant.
    pub from_ms: u32,
    /// Fault end (ms), exclusive: the restart, link-up or impairment end.
    pub until_ms: u32,
    /// What the fault does.
    pub mode: FaultMode,
}

/// What a [`FaultSpec`] does to its backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultMode {
    /// Crash the backend node, restart it at the window's end.
    #[default]
    Crash,
    /// Flap one LB's forwarding link to the backend (both directions
    /// drop while down).
    Flap {
        /// LB index.
        lb: u32,
    },
    /// Stochastically impair the LB→backend direction of one forwarding
    /// link (corrupt/duplicate/reorder, probabilities in per-mille).
    Impair {
        /// LB index.
        lb: u32,
        /// Corruption probability (per-mille).
        corrupt_pm: u32,
        /// Duplication probability (per-mille).
        duplicate_pm: u32,
        /// Reorder probability (per-mille).
        reorder_pm: u32,
        /// Maximum extra delay of a reordered packet (µs).
        window_us: u32,
        /// Seed of the impairment's private draw stream.
        seed: u64,
    },
}

impl FaultMode {
    /// Each kind's case-file name and the blank a reader fills in.
    const KINDS: [(&'static str, FaultMode); 3] = [
        ("crash", FaultMode::Crash),
        ("flap", FaultMode::Flap { lb: 0 }),
        (
            "impair",
            FaultMode::Impair {
                lb: 0,
                corrupt_pm: 0,
                duplicate_pm: 0,
                reorder_pm: 0,
                window_us: 0,
                seed: 0,
            },
        ),
    ];

    /// The LB whose forwarding link the fault acts on; `None` for a
    /// fault on the backend node itself.
    pub fn lb(&self) -> Option<u32> {
        match *self {
            FaultMode::Crash => None,
            FaultMode::Flap { lb } | FaultMode::Impair { lb, .. } => Some(lb),
        }
    }
}

/// One scheduled latency injection: `extra_us` added to every LB's
/// forwarding path to `backend` from `at_ms` on (the Fig. 3 event).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Injection {
    /// Backend index.
    pub backend: u32,
    /// Injection instant (ms).
    pub at_ms: u32,
    /// Extra one-way delay (µs).
    pub extra_us: u32,
}

/// A complete generated scenario: topology, workload mix, controller
/// and gossip config, fault schedule, and injections. `default()` is the
/// blank a case file is read into, not a valid scenario.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scenario {
    /// Root simulation seed (drives host/client/server RNG streams).
    pub seed: u64,
    /// Number of LB shards behind the VIP's ECMP route.
    pub lbs: u32,
    /// Per-backend service tiers (length = backend count).
    pub backends: Vec<BackendSpec>,
    /// Client connections (closed-loop).
    pub connections: u32,
    /// Pipeline depth per connection.
    pub pipeline: u32,
    /// GET fraction of the KV mix, in percent.
    pub get_ratio_pct: u32,
    /// SET value length in bytes (the bulk axis).
    pub value_len: u32,
    /// Connection churn: close/reopen after this many requests (0 = off).
    pub requests_per_conn: u32,
    /// Run length (ms).
    pub duration_ms: u32,
    /// Gossip round period (ms); 0 = isolated feedback.
    pub gossip_period_ms: u32,
    /// Gossip blend strength toward the peer mean, in percent.
    pub gossip_mix_pct: u32,
    /// Health probation timeout (ms).
    pub probation_ms: u32,
    /// Scripted faults.
    pub faults: Vec<FaultSpec>,
    /// Scheduled latency injections.
    pub injections: Vec<Injection>,
}

impl Scenario {
    /// Derives a scenario from a single u64 seed. Pure: the same seed
    /// always produces the same scenario.
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = SimRng::seed_from_u64(derive_seed(seed, GEN_LABEL));
        let lbs = [1u32, 1, 2, 2, 3, 4][rng.gen_range(0..6usize)];
        let n_backends = rng.gen_range(2..=5u32);
        let tiers = [40u32, 60, 60, 80, 120, 200];
        let backends: Vec<BackendSpec> = (0..n_backends)
            .map(|_| BackendSpec {
                median_us: tiers[rng.gen_range(0..tiers.len())],
                sigma_pct: rng.gen_range(10..=50u32),
                workers: [2u32, 4][rng.gen_range(0..2usize)],
            })
            .collect();
        let duration_ms = rng.gen_range(900..=1700u32);

        let connections = rng.gen_range(8..=24u32);
        let pipeline = if rng.gen_bool(0.25) { 2 } else { 1 };
        let get_ratio_pct = rng.gen_range(10..=90u32);
        let value_len = [64u32, 512, 4096][rng.gen_range(0..3usize)];
        let requests_per_conn = [0u32, 100, 200, 400][rng.gen_range(0..4usize)];

        let (gossip_period_ms, gossip_mix_pct) = if lbs > 1 && rng.gen_bool(0.5) {
            (
                [25u32, 50, 100][rng.gen_range(0..3usize)],
                rng.gen_range(20..=60u32),
            )
        } else {
            (0, 0)
        };
        let probation_ms = if rng.gen_bool(0.5) { 800 } else { 2500 };

        // Faults. Crashes are capped at n_backends - 1 distinct backends
        // so the cluster retains at least one never-crashed backend (all
        // other fault kinds may still eject the rest).
        let mut faults = Vec::new();
        let mut crashed: Vec<u32> = Vec::new();
        let n_faults = rng.gen_range(0..=3u32);
        for _ in 0..n_faults {
            let (backend, from_ms, until_ms, mode) = match rng.gen_range(0..3u32) {
                0 => {
                    if crashed.len() + 1 >= n_backends as usize {
                        continue;
                    }
                    let backend = rng.gen_range(0..n_backends);
                    if crashed.contains(&backend) {
                        continue;
                    }
                    crashed.push(backend);
                    let from_ms = rng.gen_range(250..=duration_ms * 2 / 5);
                    let until_ms = from_ms + rng.gen_range(200..=600u32);
                    (backend, from_ms, until_ms, FaultMode::Crash)
                }
                1 => {
                    let lb = rng.gen_range(0..lbs);
                    let backend = rng.gen_range(0..n_backends);
                    let from_ms = rng.gen_range(200..=duration_ms / 2);
                    let until_ms = from_ms + rng.gen_range(100..=400u32);
                    (backend, from_ms, until_ms, FaultMode::Flap { lb })
                }
                _ => {
                    let lb = rng.gen_range(0..lbs);
                    let backend = rng.gen_range(0..n_backends);
                    let from_ms = rng.gen_range(200..=duration_ms / 2);
                    let until_ms = from_ms + rng.gen_range(200..=600u32);
                    let mode = FaultMode::Impair {
                        lb,
                        corrupt_pm: rng.gen_range(0..=20u32),
                        duplicate_pm: rng.gen_range(0..=20u32),
                        reorder_pm: rng.gen_range(0..=50u32),
                        window_us: rng.gen_range(50..=400u32),
                        seed: rng.next_u64(),
                    };
                    (backend, from_ms, until_ms, mode)
                }
            };
            faults.push(FaultSpec {
                backend,
                from_ms,
                until_ms,
                mode,
            });
        }

        let n_inject = rng.gen_range(0..=2u32);
        let injections: Vec<Injection> = (0..n_inject)
            .map(|_| Injection {
                backend: rng.gen_range(0..n_backends),
                at_ms: rng.gen_range(200..=duration_ms * 3 / 5),
                extra_us: rng.gen_range(300..=1500u32),
            })
            .collect();

        Scenario {
            seed,
            lbs,
            backends,
            connections,
            pipeline,
            get_ratio_pct,
            value_len,
            requests_per_conn,
            duration_ms,
            gossip_period_ms,
            gossip_mix_pct,
            probation_ms,
            faults,
            injections,
        }
    }

    /// The case-file schema: every scalar with its wire key and the
    /// default a case file that omits it gets, then the backend, fault
    /// and injection lines, in the order [`Scenario::to_text`] writes
    /// them. Both the writer and the reader drive this one walk.
    fn walk<S: Schema>(&mut self, s: &mut S) -> Result<(), String> {
        s.scalar("seed", &mut self.seed, 0)?;
        s.scalar("lbs", &mut self.lbs, 1)?;
        s.scalar("connections", &mut self.connections, 8)?;
        s.scalar("pipeline", &mut self.pipeline, 1)?;
        s.scalar("get_ratio_pct", &mut self.get_ratio_pct, 50)?;
        s.scalar("value_len", &mut self.value_len, 64)?;
        s.scalar("requests_per_conn", &mut self.requests_per_conn, 200)?;
        s.scalar("duration_ms", &mut self.duration_ms, 1000)?;
        s.scalar("gossip_period_ms", &mut self.gossip_period_ms, 0)?;
        s.scalar("gossip_mix_pct", &mut self.gossip_mix_pct, 0)?;
        s.scalar("probation_ms", &mut self.probation_ms, 2500)?;
        s.list("backend", &mut self.backends)?;
        s.list("fault", &mut self.faults)?;
        s.list("inject", &mut self.injections)
    }

    /// Serializes the scenario as the committed case-file format: one
    /// `key = value` line per scalar, one line per backend/fault/
    /// injection, `#` comments allowed. Round-trips exactly through
    /// [`Scenario::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = String::from("# scenariofuzz case v1\n");
        // Writing cannot fail.
        let _ = self.clone().walk(&mut out);
        out
    }

    /// Parses the case-file format written by [`Scenario::to_text`].
    /// Blank lines and `#` comments are skipped; unknown keys and fields,
    /// a scalar key or a line's field given twice, malformed lines, and
    /// structurally invalid scenarios are errors. A line's fields may
    /// come in any order; an absent scalar takes its default.
    pub fn from_text(text: &str) -> Result<Scenario, String> {
        let mut sc = Scenario::default();
        let mut reader = Reader::default();
        sc.walk(&mut reader)?;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let at = |e: String| format!("line {}: {e}", lineno + 1);
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at("expected `key = value`".into()))?;
            let key = key.trim();
            reader.line = Some((key, value.trim()));
            reader.found = false;
            sc.walk(&mut reader).map_err(at)?;
            if !reader.found {
                return Err(at(format!("unknown key {key:?}")));
            }
        }
        sc.validate()?;
        Ok(sc)
    }

    /// Structural sanity: 1 LB or more, 2 to [`MAX_HOSTS`] backends with
    /// a worker each at least, fault/injection indices in range, fault
    /// windows well-ordered.
    pub fn validate(&self) -> Result<(), String> {
        if self.lbs < 1 {
            return Err("at least one LB".into());
        }
        if self.backends.len() < 2 {
            return Err("at least two backends".into());
        }
        if self.backends.len() > MAX_HOSTS {
            return Err(format!(
                "{} backends: a cluster addresses at most {MAX_HOSTS}",
                self.backends.len()
            ));
        }
        if self.backends.iter().any(|b| b.workers < 1) {
            return Err("backend workers must be >= 1".into());
        }
        if self.connections < 1 || self.pipeline < 1 {
            return Err("connections and pipeline must be >= 1".into());
        }
        if self.get_ratio_pct > 100 || self.gossip_mix_pct > 100 {
            return Err("percent fields must be <= 100".into());
        }
        if self.duration_ms < 100 {
            return Err("duration too short".into());
        }
        let n = self.backends.len() as u32;
        for f in &self.faults {
            if let Some(lb) = f.mode.lb().filter(|&lb| lb >= self.lbs) {
                return Err(format!("fault references LB {lb} of {}", self.lbs));
            }
            if f.backend >= n {
                return Err(format!("fault references backend {} of {n}", f.backend));
            }
            let (lo, hi) = (f.from_ms, f.until_ms);
            if lo >= hi {
                return Err(format!("fault window [{lo}, {hi}) ms is empty"));
            }
        }
        for inj in &self.injections {
            if inj.backend >= n {
                return Err(format!(
                    "injection references backend {} of {n}",
                    inj.backend
                ));
            }
        }
        Ok(())
    }
}

/// An integer field: every case-file value is one.
trait Int: Copy + Display + FromStr<Err = ParseIntError> {}

impl Int for u32 {}
impl Int for u64 {}

fn parse<N: Int>(s: &str) -> Result<N, String> {
    s.parse().map_err(|e| format!("bad integer {s:?}: {e}"))
}

/// What [`Scenario::walk`] hands each scalar and list, and a
/// [`Line::walk`] its kind and each of its fields.
trait Schema {
    /// The scalar under `key`, and its value when a case file omits it.
    fn scalar<N: Int>(&mut self, key: &'static str, v: &mut N, default: N) -> Result<(), String>;
    /// The list written one `key = ...` line per element.
    fn list<L: Line>(&mut self, key: &'static str, v: &mut Vec<L>) -> Result<(), String>;
    /// A line's kind: `v`, by its name in `kinds`.
    fn kind<K: Copy>(&mut self, kinds: &[(&'static str, K)], v: &mut K) -> Result<(), String>;
    /// A line's field under `key`.
    fn field<N: Int>(&mut self, key: &'static str, v: &mut N) -> Result<(), String>;
}

/// One element of a list: a line of `k=v` fields, after a kind name
/// for a type with kinds.
trait Line: Default {
    /// Lists the line's fields in the order they are written.
    fn walk<S: Schema>(&mut self, s: &mut S) -> Result<(), String>;
}

impl Line for BackendSpec {
    fn walk<S: Schema>(&mut self, s: &mut S) -> Result<(), String> {
        s.field("median_us", &mut self.median_us)?;
        s.field("sigma_pct", &mut self.sigma_pct)?;
        s.field("workers", &mut self.workers)
    }
}

impl Line for FaultSpec {
    fn walk<S: Schema>(&mut self, s: &mut S) -> Result<(), String> {
        use FaultMode::{Flap, Impair};
        s.kind(&FaultMode::KINDS, &mut self.mode)?;
        if let Flap { lb } | Impair { lb, .. } = &mut self.mode {
            s.field("lb", lb)?;
        }
        s.field("backend", &mut self.backend)?;
        let [from, until] = match self.mode {
            Impair { .. } => ["from_ms", "until_ms"],
            _ => ["down_ms", "up_ms"],
        };
        s.field(from, &mut self.from_ms)?;
        s.field(until, &mut self.until_ms)?;
        if let Impair {
            corrupt_pm,
            duplicate_pm,
            reorder_pm,
            window_us,
            seed,
            ..
        } = &mut self.mode
        {
            s.field("corrupt_pm", corrupt_pm)?;
            s.field("duplicate_pm", duplicate_pm)?;
            s.field("reorder_pm", reorder_pm)?;
            s.field("window_us", window_us)?;
            s.field("seed", seed)?;
        }
        Ok(())
    }
}

impl Line for Injection {
    fn walk<S: Schema>(&mut self, s: &mut S) -> Result<(), String> {
        s.field("backend", &mut self.backend)?;
        s.field("at_ms", &mut self.at_ms)?;
        s.field("extra_us", &mut self.extra_us)
    }
}

/// The writer: `key = value` per scalar, `key = [kind ]k=v k=v ...` per
/// list element.
impl Schema for String {
    fn scalar<N: Int>(&mut self, key: &'static str, v: &mut N, _: N) -> Result<(), String> {
        let _ = writeln!(self, "{key} = {v}");
        Ok(())
    }

    fn list<L: Line>(&mut self, key: &'static str, v: &mut Vec<L>) -> Result<(), String> {
        for item in v {
            self.push_str(key);
            self.push_str(" =");
            item.walk(self)?;
            self.push('\n');
        }
        Ok(())
    }

    fn kind<K: Copy>(&mut self, kinds: &[(&'static str, K)], v: &mut K) -> Result<(), String> {
        let is = |&&(_, k): &&(&str, K)| discriminant(&k) == discriminant(v);
        if let Some((name, _)) = kinds.iter().find(is) {
            self.push(' ');
            self.push_str(name);
        }
        Ok(())
    }

    fn field<N: Int>(&mut self, key: &'static str, v: &mut N) -> Result<(), String> {
        let _ = write!(self, " {key}={v}");
        Ok(())
    }
}

/// The reader: with no line, sets every scalar to its default; with
/// one, reads it into the scalar or list the walk names by its key. A
/// list line's fields are taken once each, by name, in any order; a
/// field given twice, or one nobody takes, is an error, so a typo
/// cannot replay as the default.
#[derive(Default)]
struct Reader<'a> {
    /// The `key = value` line being read.
    line: Option<(&'a str, &'a str)>,
    /// Scalar keys read so far: one given twice is an error.
    seen: Vec<&'static str>,
    /// Some scalar or list took `line`.
    found: bool,
    /// A list line's text not yet split into fields: a kind comes first.
    text: &'a str,
    /// A list line's fields not yet taken, once split.
    pairs: Option<Vec<(&'a str, &'a str)>>,
}

impl<'a> Reader<'a> {
    fn pairs(&mut self) -> Result<&mut Vec<(&'a str, &'a str)>, String> {
        if self.pairs.is_none() {
            let mut pairs: Vec<(&str, &str)> = Vec::new();
            for tok in self.text.split_whitespace() {
                let (k, v) = tok
                    .split_once('=')
                    .ok_or_else(|| format!("expected k=v, got {tok:?}"))?;
                if pairs.iter().any(|&(seen, _)| seen == k) {
                    return Err(format!("field {k:?} given twice"));
                }
                pairs.push((k, v));
            }
            self.pairs = Some(pairs);
        }
        Ok(self.pairs.get_or_insert_with(Vec::new))
    }
}

impl Schema for Reader<'_> {
    fn scalar<N: Int>(&mut self, key: &'static str, v: &mut N, default: N) -> Result<(), String> {
        match self.line {
            None => *v = default,
            Some((k, value)) if k == key => {
                if self.seen.contains(&key) {
                    return Err(format!("{key:?} given twice"));
                }
                self.seen.push(key);
                *v = parse(value)?;
                self.found = true;
            }
            Some(_) => {}
        }
        Ok(())
    }

    fn list<L: Line>(&mut self, key: &'static str, v: &mut Vec<L>) -> Result<(), String> {
        let Some((_, value)) = self.line.filter(|&(k, _)| k == key) else {
            return Ok(());
        };
        (self.text, self.pairs) = (value, None);
        let mut item = L::default();
        item.walk(self)?;
        if let Some((k, _)) = self.pairs()?.first() {
            return Err(format!("unknown field {k:?}"));
        }
        v.push(item);
        self.found = true;
        Ok(())
    }

    fn kind<K: Copy>(&mut self, kinds: &[(&'static str, K)], v: &mut K) -> Result<(), String> {
        let (name, rest) = self.text.split_once(' ').unwrap_or((self.text, ""));
        self.text = rest;
        // A malformed field is reported before an unknown kind.
        self.pairs()?;
        let key = self.line.unwrap_or_default().0;
        let &(_, kind) = kinds
            .iter()
            .find(|&&(n, _)| n == name)
            .ok_or_else(|| format!("unknown {key} kind {name:?}"))?;
        *v = kind;
        Ok(())
    }

    fn field<N: Int>(&mut self, key: &'static str, v: &mut N) -> Result<(), String> {
        let pairs = self.pairs()?;
        let i = pairs
            .iter()
            .position(|&(k, _)| k == key)
            .ok_or_else(|| format!("missing field {key:?}"))?;
        *v = parse(pairs.remove(i).1)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        for seed in 0..64u64 {
            assert_eq!(Scenario::generate(seed), Scenario::generate(seed));
        }
        assert_ne!(Scenario::generate(1), Scenario::generate(2));
    }

    #[test]
    fn generated_scenarios_are_valid_and_round_trip() {
        for seed in 0..128u64 {
            let sc = Scenario::generate(seed);
            sc.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let text = sc.to_text();
            let back =
                Scenario::from_text(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            assert_eq!(back, sc, "seed {seed} did not round-trip");
            // Serialization itself is canonical.
            assert_eq!(back.to_text(), text);
        }
    }

    #[test]
    fn generator_covers_the_config_axes() {
        let scs: Vec<Scenario> = (0..200).map(Scenario::generate).collect();
        assert!(scs.iter().any(|s| s.lbs > 1), "no multi-LB scenario");
        assert!(scs.iter().any(|s| s.lbs == 1), "no single-LB scenario");
        assert!(scs.iter().any(|s| s.gossip_period_ms > 0), "no gossip");
        assert!(
            scs.iter()
                .any(|s| s.faults.iter().any(|f| matches!(f.mode, FaultMode::Crash))),
            "no crash fault"
        );
        assert!(
            scs.iter().any(|s| s
                .faults
                .iter()
                .any(|f| matches!(f.mode, FaultMode::Flap { .. }))),
            "no flap fault"
        );
        assert!(
            scs.iter().any(|s| s
                .faults
                .iter()
                .any(|f| matches!(f.mode, FaultMode::Impair { .. }))),
            "no impairment fault"
        );
        assert!(scs.iter().any(|s| !s.injections.is_empty()), "no injection");
        assert!(scs.iter().any(|s| s.faults.is_empty()), "no quiet scenario");
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let sc = Scenario::generate(3);
        let mut text = String::from("# a comment\n\n");
        text.push_str(&sc.to_text());
        text.push_str("\n# violation: weights_normalized at t=123\n");
        assert_eq!(Scenario::from_text(&text).unwrap(), sc);
    }

    #[test]
    fn malformed_input_reports_the_line() {
        let err = Scenario::from_text("seed = 1\nbogus_key = 2\n").unwrap_err();
        assert!(err.starts_with("line 2"), "{err}");
        let err = Scenario::from_text("fault = warp lb=0\n").unwrap_err();
        assert!(err.contains("unknown fault kind"), "{err}");
        let err = Scenario::from_text("seed = 1\n").unwrap_err();
        assert!(err.contains("two backends"), "{err}");
    }

    #[test]
    fn typos_and_repeats_are_errors_that_name_the_line() {
        let base = Scenario::generate(3).to_text();
        for (extra, want) in [
            (
                "backend = median_us=60 sigma_pct=16 workers=2 wokers=8",
                "unknown field \"wokers\"",
            ),
            (
                "backend = median_us=60 sigma_pct=16 workers=2 workers=8",
                "field \"workers\" given twice",
            ),
            (
                "fault = crash backend=0 down_ms=200 up_ms=300 lb=0",
                "unknown field \"lb\"",
            ),
            ("seed = 2", "\"seed\" given twice"),
        ] {
            let text = format!("{base}{extra}\n");
            let line = text.lines().count();
            let err = Scenario::from_text(&text).unwrap_err();
            assert_eq!(err, format!("line {line}: {want}"));
        }
    }

    #[test]
    fn line_fields_come_in_any_order_and_absent_scalars_take_their_defaults() {
        let text = "\
            backend = workers=2 sigma_pct=16 median_us=60\n\
            backend = sigma_pct=30 median_us=80 workers=4\n\
            fault = impair seed=7 window_us=100 reorder_pm=5 duplicate_pm=2 \
                corrupt_pm=1 until_ms=600 from_ms=300 backend=1 lb=0\n\
            fault = flap up_ms=500 backend=0 down_ms=400 lb=0\n\
            fault = crash up_ms=900 down_ms=700 backend=1\n\
            inject = extra_us=900 backend=1 at_ms=250\n";
        let sc = Scenario::from_text(text).unwrap();
        let want = Scenario {
            seed: 0,
            lbs: 1,
            backends: vec![
                BackendSpec {
                    median_us: 60,
                    sigma_pct: 16,
                    workers: 2,
                },
                BackendSpec {
                    median_us: 80,
                    sigma_pct: 30,
                    workers: 4,
                },
            ],
            connections: 8,
            pipeline: 1,
            get_ratio_pct: 50,
            value_len: 64,
            requests_per_conn: 200,
            duration_ms: 1000,
            gossip_period_ms: 0,
            gossip_mix_pct: 0,
            probation_ms: 2500,
            faults: vec![
                FaultSpec {
                    backend: 1,
                    from_ms: 300,
                    until_ms: 600,
                    mode: FaultMode::Impair {
                        lb: 0,
                        corrupt_pm: 1,
                        duplicate_pm: 2,
                        reorder_pm: 5,
                        window_us: 100,
                        seed: 7,
                    },
                },
                FaultSpec {
                    backend: 0,
                    from_ms: 400,
                    until_ms: 500,
                    mode: FaultMode::Flap { lb: 0 },
                },
                FaultSpec {
                    backend: 1,
                    from_ms: 700,
                    until_ms: 900,
                    mode: FaultMode::Crash,
                },
            ],
            injections: vec![Injection {
                backend: 1,
                at_ms: 250,
                extra_us: 900,
            }],
        };
        assert_eq!(sc, want);
        // A scalar given explicitly overrides its default, wherever its
        // line falls.
        let sc = Scenario::from_text(&format!("{text}lbs = 2\nseed = 5\n")).unwrap();
        assert_eq!((sc.seed, sc.lbs), (5, 2));
    }

    #[test]
    fn validation_rejects_out_of_range_references() {
        let mut sc = Scenario::generate(0);
        sc.faults = vec![FaultSpec {
            backend: 99,
            from_ms: 100,
            until_ms: 200,
            mode: FaultMode::Crash,
        }];
        assert!(sc.validate().is_err());
        let mut sc = Scenario::generate(0);
        sc.faults = vec![FaultSpec {
            backend: 0,
            from_ms: 100,
            until_ms: 200,
            mode: FaultMode::Flap { lb: sc.lbs },
        }];
        assert!(sc.validate().is_err());
        // Case files past the address plan (a 256th backend has no host
        // octet left) or with a worker-less backend (which would panic
        // mid-build) are rejected when read.
        let mut sc = Scenario::generate(0);
        sc.backends = vec![sc.backends[0]; MAX_HOSTS + 1];
        let err = Scenario::from_text(&sc.to_text()).unwrap_err();
        assert!(err.contains("at most 255"), "{err}");
        let mut sc = Scenario::generate(0);
        sc.backends[1].workers = 0;
        let err = Scenario::from_text(&sc.to_text()).unwrap_err();
        assert!(err.contains("workers must be >= 1"), "{err}");
    }
}
