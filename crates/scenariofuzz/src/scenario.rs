//! The scenario spec: a random-but-deterministic cluster configuration
//! derived from a single u64 seed, plus an exact text serialization so
//! minimized violations can be committed as regression cases.
//!
//! Every field is an integer (durations in ms/µs, probabilities in
//! per-mille, ratios in percent): the `to_text`/`from_text` round trip
//! is byte-exact with no float-formatting concerns, and two builds of
//! the same case file construct bit-identical simulations.

use netsim::rng::{derive_seed, SimRng};

/// Derivation label for the scenario-generator RNG stream (keeps it
/// disjoint from the cluster's own `derive_seed` labels, which start
/// at 100).
const GEN_LABEL: u64 = 0xF022;

/// One backend's service profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendSpec {
    /// Median service time (µs) of the log-normal service distribution.
    pub median_us: u32,
    /// Shape parameter σ of the log-normal, in percent (30 = 0.30).
    pub sigma_pct: u32,
    /// Worker parallelism.
    pub workers: u32,
}

/// One scripted fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Crash the backend node at `down_ms`, restart it at `up_ms`.
    Crash {
        /// Backend index.
        backend: u32,
        /// Crash instant (ms).
        down_ms: u32,
        /// Restart instant (ms).
        up_ms: u32,
    },
    /// Flap one LB's forwarding link to one backend (both directions
    /// drop while down).
    Flap {
        /// LB index.
        lb: u32,
        /// Backend index.
        backend: u32,
        /// Link-down instant (ms).
        down_ms: u32,
        /// Link-up instant (ms).
        up_ms: u32,
    },
    /// Stochastically impair the LB→backend direction of one forwarding
    /// link (corrupt/duplicate/reorder, probabilities in per-mille).
    Impair {
        /// LB index.
        lb: u32,
        /// Backend index.
        backend: u32,
        /// Impairment start (ms).
        from_ms: u32,
        /// Impairment end (ms).
        until_ms: u32,
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

/// One scheduled latency injection: `extra_us` added to every LB's
/// forwarding path to `backend` from `at_ms` on (the Fig. 3 event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Backend index.
    pub backend: u32,
    /// Injection instant (ms).
    pub at_ms: u32,
    /// Extra one-way delay (µs).
    pub extra_us: u32,
}

/// A complete generated scenario: topology, workload mix, controller
/// and gossip config, fault schedule, and injections.
#[derive(Debug, Clone, PartialEq, Eq)]
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
            match rng.gen_range(0..3u32) {
                0 => {
                    if crashed.len() + 1 >= n_backends as usize {
                        continue;
                    }
                    let backend = rng.gen_range(0..n_backends);
                    if crashed.contains(&backend) {
                        continue;
                    }
                    crashed.push(backend);
                    let down_ms = rng.gen_range(250..=duration_ms * 2 / 5);
                    let up_ms = down_ms + rng.gen_range(200..=600u32);
                    faults.push(FaultSpec::Crash {
                        backend,
                        down_ms,
                        up_ms,
                    });
                }
                1 => {
                    let lb = rng.gen_range(0..lbs);
                    let backend = rng.gen_range(0..n_backends);
                    let down_ms = rng.gen_range(200..=duration_ms / 2);
                    let up_ms = down_ms + rng.gen_range(100..=400u32);
                    faults.push(FaultSpec::Flap {
                        lb,
                        backend,
                        down_ms,
                        up_ms,
                    });
                }
                _ => {
                    let lb = rng.gen_range(0..lbs);
                    let backend = rng.gen_range(0..n_backends);
                    let from_ms = rng.gen_range(200..=duration_ms / 2);
                    let until_ms = from_ms + rng.gen_range(200..=600u32);
                    faults.push(FaultSpec::Impair {
                        lb,
                        backend,
                        from_ms,
                        until_ms,
                        corrupt_pm: rng.gen_range(0..=20u32),
                        duplicate_pm: rng.gen_range(0..=20u32),
                        reorder_pm: rng.gen_range(0..=50u32),
                        window_us: rng.gen_range(50..=400u32),
                        seed: rng.next_u64(),
                    });
                }
            }
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

    /// Serializes the scenario as the committed case-file format: one
    /// `key = value` line per scalar, one line per backend/fault/
    /// injection, `#` comments allowed. Round-trips exactly through
    /// [`Scenario::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# scenariofuzz case v1\n");
        out.push_str(&format!("seed = {}\n", self.seed));
        out.push_str(&format!("lbs = {}\n", self.lbs));
        out.push_str(&format!("connections = {}\n", self.connections));
        out.push_str(&format!("pipeline = {}\n", self.pipeline));
        out.push_str(&format!("get_ratio_pct = {}\n", self.get_ratio_pct));
        out.push_str(&format!("value_len = {}\n", self.value_len));
        out.push_str(&format!("requests_per_conn = {}\n", self.requests_per_conn));
        out.push_str(&format!("duration_ms = {}\n", self.duration_ms));
        out.push_str(&format!("gossip_period_ms = {}\n", self.gossip_period_ms));
        out.push_str(&format!("gossip_mix_pct = {}\n", self.gossip_mix_pct));
        out.push_str(&format!("probation_ms = {}\n", self.probation_ms));
        for b in &self.backends {
            out.push_str(&format!(
                "backend = median_us={} sigma_pct={} workers={}\n",
                b.median_us, b.sigma_pct, b.workers
            ));
        }
        for f in &self.faults {
            match *f {
                FaultSpec::Crash {
                    backend,
                    down_ms,
                    up_ms,
                } => out.push_str(&format!(
                    "fault = crash backend={backend} down_ms={down_ms} up_ms={up_ms}\n"
                )),
                FaultSpec::Flap {
                    lb,
                    backend,
                    down_ms,
                    up_ms,
                } => out.push_str(&format!(
                    "fault = flap lb={lb} backend={backend} down_ms={down_ms} up_ms={up_ms}\n"
                )),
                FaultSpec::Impair {
                    lb,
                    backend,
                    from_ms,
                    until_ms,
                    corrupt_pm,
                    duplicate_pm,
                    reorder_pm,
                    window_us,
                    seed,
                } => out.push_str(&format!(
                    "fault = impair lb={lb} backend={backend} from_ms={from_ms} \
                     until_ms={until_ms} corrupt_pm={corrupt_pm} duplicate_pm={duplicate_pm} \
                     reorder_pm={reorder_pm} window_us={window_us} seed={seed}\n"
                )),
            }
        }
        for inj in &self.injections {
            out.push_str(&format!(
                "inject = backend={} at_ms={} extra_us={}\n",
                inj.backend, inj.at_ms, inj.extra_us
            ));
        }
        out
    }

    /// Parses the case-file format written by [`Scenario::to_text`].
    /// Blank lines and `#` comments are skipped; unknown keys and fields,
    /// a scalar key or a line's field given twice, malformed lines, and
    /// structurally invalid scenarios are errors.
    pub fn from_text(text: &str) -> Result<Scenario, String> {
        let mut sc = Scenario {
            seed: 0,
            lbs: 1,
            backends: Vec::new(),
            connections: 8,
            pipeline: 1,
            get_ratio_pct: 50,
            value_len: 64,
            requests_per_conn: 200,
            duration_ms: 1000,
            gossip_period_ms: 0,
            gossip_mix_pct: 0,
            probation_ms: 2500,
            faults: Vec::new(),
            injections: Vec::new(),
        };
        let mut scalars_seen: Vec<&str> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let at = |e: String| format!("line {}: {e}", lineno + 1);
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at("expected `key = value`".into()))?;
            let (key, value) = (key.trim(), value.trim());
            if !matches!(key, "backend" | "fault" | "inject") {
                if scalars_seen.contains(&key) {
                    return Err(at(format!("{key:?} given twice")));
                }
                scalars_seen.push(key);
            }
            match key {
                "seed" => sc.seed = parse_u64(value).map_err(at)?,
                "lbs" => sc.lbs = parse_u32(value).map_err(at)?,
                "connections" => sc.connections = parse_u32(value).map_err(at)?,
                "pipeline" => sc.pipeline = parse_u32(value).map_err(at)?,
                "get_ratio_pct" => sc.get_ratio_pct = parse_u32(value).map_err(at)?,
                "value_len" => sc.value_len = parse_u32(value).map_err(at)?,
                "requests_per_conn" => sc.requests_per_conn = parse_u32(value).map_err(at)?,
                "duration_ms" => sc.duration_ms = parse_u32(value).map_err(at)?,
                "gossip_period_ms" => sc.gossip_period_ms = parse_u32(value).map_err(at)?,
                "gossip_mix_pct" => sc.gossip_mix_pct = parse_u32(value).map_err(at)?,
                "probation_ms" => sc.probation_ms = parse_u32(value).map_err(at)?,
                "backend" => {
                    let mut kv = KvList::parse(value).map_err(at)?;
                    sc.backends.push(BackendSpec {
                        median_us: kv.u32("median_us").map_err(at)?,
                        sigma_pct: kv.u32("sigma_pct").map_err(at)?,
                        workers: kv.u32("workers").map_err(at)?,
                    });
                    kv.finish().map_err(at)?;
                }
                "fault" => {
                    let (kind, rest) = value.split_once(' ').unwrap_or((value, ""));
                    let mut kv = KvList::parse(rest).map_err(at)?;
                    let fault = match kind {
                        "crash" => FaultSpec::Crash {
                            backend: kv.u32("backend").map_err(at)?,
                            down_ms: kv.u32("down_ms").map_err(at)?,
                            up_ms: kv.u32("up_ms").map_err(at)?,
                        },
                        "flap" => FaultSpec::Flap {
                            lb: kv.u32("lb").map_err(at)?,
                            backend: kv.u32("backend").map_err(at)?,
                            down_ms: kv.u32("down_ms").map_err(at)?,
                            up_ms: kv.u32("up_ms").map_err(at)?,
                        },
                        "impair" => FaultSpec::Impair {
                            lb: kv.u32("lb").map_err(at)?,
                            backend: kv.u32("backend").map_err(at)?,
                            from_ms: kv.u32("from_ms").map_err(at)?,
                            until_ms: kv.u32("until_ms").map_err(at)?,
                            corrupt_pm: kv.u32("corrupt_pm").map_err(at)?,
                            duplicate_pm: kv.u32("duplicate_pm").map_err(at)?,
                            reorder_pm: kv.u32("reorder_pm").map_err(at)?,
                            window_us: kv.u32("window_us").map_err(at)?,
                            seed: kv.u64("seed").map_err(at)?,
                        },
                        other => return Err(at(format!("unknown fault kind {other:?}"))),
                    };
                    kv.finish().map_err(at)?;
                    sc.faults.push(fault);
                }
                "inject" => {
                    let mut kv = KvList::parse(value).map_err(at)?;
                    sc.injections.push(Injection {
                        backend: kv.u32("backend").map_err(at)?,
                        at_ms: kv.u32("at_ms").map_err(at)?,
                        extra_us: kv.u32("extra_us").map_err(at)?,
                    });
                    kv.finish().map_err(at)?;
                }
                other => return Err(at(format!("unknown key {other:?}"))),
            }
        }
        sc.validate()?;
        Ok(sc)
    }

    /// Structural sanity: at least 2 backends and 1 LB, fault/injection
    /// indices in range, fault windows well-ordered.
    pub fn validate(&self) -> Result<(), String> {
        if self.lbs < 1 {
            return Err("at least one LB".into());
        }
        if self.backends.len() < 2 {
            return Err("at least two backends".into());
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
            let (lb, backend, lo, hi) = match *f {
                FaultSpec::Crash {
                    backend,
                    down_ms,
                    up_ms,
                } => (0, backend, down_ms, up_ms),
                FaultSpec::Flap {
                    lb,
                    backend,
                    down_ms,
                    up_ms,
                } => (lb, backend, down_ms, up_ms),
                FaultSpec::Impair {
                    lb,
                    backend,
                    from_ms,
                    until_ms,
                    ..
                } => (lb, backend, from_ms, until_ms),
            };
            if lb >= self.lbs {
                return Err(format!("fault references LB {lb} of {}", self.lbs));
            }
            if backend >= n {
                return Err(format!("fault references backend {backend} of {n}"));
            }
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

fn parse_u64(s: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|e| format!("bad integer {s:?}: {e}"))
}

fn parse_u32(s: &str) -> Result<u32, String> {
    s.parse::<u32>()
        .map_err(|e| format!("bad integer {s:?}: {e}"))
}

/// A `k=v k=v ...` list on one line. Each field is taken once, by
/// name; a field given twice, or one nobody takes ([`KvList::finish`]),
/// is an error, so a typo cannot replay as the default.
struct KvList<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> KvList<'a> {
    fn parse(s: &'a str) -> Result<KvList<'a>, String> {
        let mut pairs: Vec<(&str, &str)> = Vec::new();
        for tok in s.split_whitespace() {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected k=v, got {tok:?}"))?;
            if pairs.iter().any(|&(seen, _)| seen == k) {
                return Err(format!("field {k:?} given twice"));
            }
            pairs.push((k, v));
        }
        Ok(KvList { pairs })
    }

    fn take(&mut self, key: &str) -> Result<&'a str, String> {
        let i = self
            .pairs
            .iter()
            .position(|&(k, _)| k == key)
            .ok_or_else(|| format!("missing field {key:?}"))?;
        Ok(self.pairs.remove(i).1)
    }

    fn u32(&mut self, key: &str) -> Result<u32, String> {
        parse_u32(self.take(key)?)
    }

    fn u64(&mut self, key: &str) -> Result<u64, String> {
        parse_u64(self.take(key)?)
    }

    /// Every field was taken: none is unknown.
    fn finish(self) -> Result<(), String> {
        match self.pairs.first() {
            Some((k, _)) => Err(format!("unknown field {k:?}")),
            None => Ok(()),
        }
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
            scs.iter().any(|s| s
                .faults
                .iter()
                .any(|f| matches!(f, FaultSpec::Crash { .. }))),
            "no crash fault"
        );
        assert!(
            scs.iter()
                .any(|s| s.faults.iter().any(|f| matches!(f, FaultSpec::Flap { .. }))),
            "no flap fault"
        );
        assert!(
            scs.iter().any(|s| s
                .faults
                .iter()
                .any(|f| matches!(f, FaultSpec::Impair { .. }))),
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
    fn validation_rejects_out_of_range_references() {
        let mut sc = Scenario::generate(0);
        sc.faults = vec![FaultSpec::Crash {
            backend: 99,
            down_ms: 100,
            up_ms: 200,
        }];
        assert!(sc.validate().is_err());
        let mut sc = Scenario::generate(0);
        sc.faults = vec![FaultSpec::Flap {
            lb: sc.lbs,
            backend: 0,
            down_ms: 100,
            up_ms: 200,
        }];
        assert!(sc.validate().is_err());
    }
}
