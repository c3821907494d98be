//! A tiny INI-style scenario-file format, so experiments can be driven
//! from a text file (`cargo run -p bench --bin scenario -- my.conf`)
//! without writing Rust.
//!
//! Format: `[section]` headers, `key = value` pairs, `#` comments. No
//! external parser dependencies — the grammar is 30 lines of code.
//!
//! ```text
//! # two backends, a 1 ms injection, the paper's controller
//! [cluster]
//! seed = 7
//! duration_s = 20
//! backends = 2
//! connections = 16
//! pipeline = 1
//! get_ratio = 0.5
//! requests_per_conn = 200
//!
//! [lb]
//! mode = aware        # aware | baseline | p2c
//! alpha = 0.10
//! margin = 0.10
//!
//! [inject]
//! backend = 0
//! at_s = 8
//! extra_ms = 1
//! ```

use std::collections::BTreeMap;

use lb_dataplane::{LbConfig, RoutingPolicy};
use lbcore::AlphaShift;
use netsim::{Duration, Time};

use crate::topology::{KvCluster, KvClusterConfig, VIP};

/// A parsed scenario file: `sections[section][key] = value`.
#[derive(Debug, Default, Clone)]
pub struct ScenarioFile {
    sections: BTreeMap<String, BTreeMap<String, String>>,
}

/// Errors from parsing or interpreting a scenario file.
#[derive(Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A line was neither a section, a comment, nor `key = value`.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A `key = value` appeared before any `[section]`.
    KeyOutsideSection {
        /// 1-based line number.
        line: usize,
    },
    /// A value did not parse as the expected type.
    BadValue {
        /// `section.key` path.
        key: String,
        /// The raw value.
        value: String,
    },
    /// An enumerated value was not one of the allowed options.
    BadOption {
        /// `section.key` path.
        key: String,
        /// The raw value.
        value: String,
        /// The accepted options.
        allowed: &'static str,
    },
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::Syntax { line, text } => write!(f, "line {line}: cannot parse '{text}'"),
            ConfigError::KeyOutsideSection { line } => {
                write!(f, "line {line}: key outside any [section]")
            }
            ConfigError::BadValue { key, value } => write!(f, "{key}: bad value '{value}'"),
            ConfigError::BadOption {
                key,
                value,
                allowed,
            } => {
                write!(f, "{key}: '{value}' is not one of {allowed}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl ScenarioFile {
    /// Parses the INI-style text.
    pub fn parse(text: &str) -> Result<ScenarioFile, ConfigError> {
        let mut out = ScenarioFile::default();
        let mut current: Option<String> = None;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                let name = name.trim().to_ascii_lowercase();
                out.sections.entry(name.clone()).or_default();
                current = Some(name);
            } else if let Some((k, v)) = line.split_once('=') {
                let Some(section) = &current else {
                    return Err(ConfigError::KeyOutsideSection { line: i + 1 });
                };
                out.sections
                    .get_mut(section)
                    .expect("section inserted on header")
                    .insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
            } else {
                return Err(ConfigError::Syntax {
                    line: i + 1,
                    text: line.to_string(),
                });
            }
        }
        Ok(out)
    }

    /// Raw string lookup.
    pub fn get(&self, section: &str, key: &str) -> Option<&str> {
        self.sections.get(section)?.get(key).map(String::as_str)
    }

    fn typed<T: std::str::FromStr>(
        &self,
        section: &str,
        key: &str,
        default: T,
    ) -> Result<T, ConfigError> {
        match self.get(section, key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ConfigError::BadValue {
                key: format!("{section}.{key}"),
                value: v.to_string(),
            }),
        }
    }
}

/// Everything needed to run a scenario parsed from a file.
pub struct Scenario {
    /// The built cluster (injection already scheduled).
    pub cluster: KvCluster,
    /// How long to run.
    pub duration: Duration,
    /// The injection instant, if any (for reporting).
    pub inject_at: Option<Duration>,
}

/// Interprets a parsed file and builds the cluster.
pub fn build_scenario(file: &ScenarioFile) -> Result<Scenario, ConfigError> {
    let seed: u64 = file.typed("cluster", "seed", 42)?;
    let duration_s: f64 = file.typed("cluster", "duration_s", 20.0)?;
    let n_backends: usize = file.typed("cluster", "backends", 2)?;
    let connections: usize = file.typed("cluster", "connections", 16)?;
    let pipeline: usize = file.typed("cluster", "pipeline", 1)?;
    let get_ratio: f64 = file.typed("cluster", "get_ratio", 0.5)?;
    let requests_per_conn: u64 = file.typed("cluster", "requests_per_conn", 200)?;
    let service_median_us: u64 = file.typed("cluster", "service_median_us", 60)?;

    let mode = file
        .get("lb", "mode")
        .unwrap_or("aware")
        .to_ascii_lowercase();
    let alpha: f64 = file.typed("lb", "alpha", 0.10)?;
    let margin: f64 = file.typed("lb", "margin", 0.10)?;
    if !(0.0..1.0).contains(&alpha) {
        return Err(ConfigError::BadValue {
            key: "lb.alpha".into(),
            value: alpha.to_string(),
        });
    }

    let lb_factory: Box<dyn FnOnce(Vec<std::net::Ipv4Addr>) -> LbConfig> = match mode.as_str() {
        "baseline" | "maglev" => Box::new(|backends| LbConfig::baseline(VIP, backends)),
        "aware" => Box::new(move |backends| {
            let mut ctl = AlphaShift::damped().with_alpha(alpha);
            ctl.margin = margin;
            LbConfig::latency_aware(VIP, backends, Box::new(ctl))
        }),
        "p2c" => Box::new(|backends| {
            let mut lb = LbConfig::latency_aware(VIP, backends, Box::new(AlphaShift::damped()));
            lb.policy = RoutingPolicy::PowerOfTwo;
            lb
        }),
        other => {
            return Err(ConfigError::BadOption {
                key: "lb.mode".into(),
                value: other.into(),
                allowed: "aware | baseline | p2c",
            })
        }
    };

    let mut cfg = KvClusterConfig::fig3_defaults(lb_factory);
    cfg.seed = seed;
    cfg.clients[0].connections = connections;
    cfg.clients[0].pipeline = pipeline;
    cfg.clients[0].get_ratio = get_ratio;
    cfg.clients[0].requests_per_conn = requests_per_conn;
    cfg.backends = (0..n_backends)
        .map(|j| backend::KvServerConfig {
            seed: j as u64,
            service: backend::ServiceDist::LogNormal {
                median: service_median_us * 1_000,
                sigma: 0.3,
            },
            ..backend::KvServerConfig::default()
        })
        .collect();

    let mut cluster = KvCluster::build(cfg);

    let mut inject_at = None;
    if file.sections.contains_key("inject") {
        let backend_idx: usize = file.typed("inject", "backend", 0)?;
        let at_s: f64 = file.typed("inject", "at_s", duration_s / 3.0)?;
        let extra_ms: f64 = file.typed("inject", "extra_ms", 1.0)?;
        if backend_idx >= n_backends {
            return Err(ConfigError::BadValue {
                key: "inject.backend".into(),
                value: backend_idx.to_string(),
            });
        }
        let at = Duration::from_secs_f64(at_s);
        cluster.inject_backend_delay(
            backend_idx,
            Time::ZERO + at,
            Duration::from_secs_f64(extra_ms / 1_000.0),
        );
        inject_at = Some(at);
    }

    Ok(Scenario {
        cluster,
        duration: Duration::from_secs_f64(duration_s),
        inject_at,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_keys_comments() {
        let f = ScenarioFile::parse(
            "# top comment\n[Cluster]\nseed = 9   # trailing\n\n[lb]\nmode = p2c\n",
        )
        .unwrap();
        assert_eq!(f.get("cluster", "seed"), Some("9"));
        assert_eq!(f.get("lb", "mode"), Some("p2c"));
        assert_eq!(f.get("lb", "missing"), None);
    }

    #[test]
    fn rejects_key_outside_section() {
        let err = ScenarioFile::parse("seed = 9\n").unwrap_err();
        assert_eq!(err, ConfigError::KeyOutsideSection { line: 1 });
    }

    #[test]
    fn rejects_garbage_line() {
        let err = ScenarioFile::parse("[a]\nnot a kv pair\n").unwrap_err();
        assert!(matches!(err, ConfigError::Syntax { line: 2, .. }));
    }

    #[test]
    fn build_rejects_bad_mode() {
        let f = ScenarioFile::parse("[lb]\nmode = quantum\n").unwrap();
        match build_scenario(&f) {
            Err(ConfigError::BadOption { .. }) => {}
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("bad mode accepted"),
        }
    }

    #[test]
    fn build_rejects_bad_number() {
        let f = ScenarioFile::parse("[cluster]\nseed = banana\n").unwrap();
        match build_scenario(&f) {
            Err(ConfigError::BadValue { .. }) => {}
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("bad value accepted"),
        }
    }

    #[test]
    fn build_rejects_out_of_range_inject_backend() {
        let f = ScenarioFile::parse("[cluster]\nbackends = 2\n[inject]\nbackend = 5\n").unwrap();
        assert!(build_scenario(&f).is_err());
    }

    #[test]
    fn defaults_fill_in_and_scenario_runs() {
        let f =
            ScenarioFile::parse("[cluster]\nduration_s = 0.5\n[lb]\nmode = baseline\n").unwrap();
        let mut sc = build_scenario(&f).unwrap();
        assert_eq!(sc.inject_at, None);
        sc.cluster.sim.run_for(sc.duration);
        assert!(sc.cluster.client_app(0).stats.completed > 1000);
    }

    #[test]
    fn injection_is_scheduled() {
        let f = ScenarioFile::parse(
            "[cluster]\nduration_s = 1\n[inject]\nbackend = 0\nat_s = 0.3\nextra_ms = 1\n",
        )
        .unwrap();
        let mut sc = build_scenario(&f).unwrap();
        assert_eq!(sc.inject_at, Some(Duration::from_millis(300)));
        sc.cluster.sim.run_for(sc.duration);
        // Post-injection latencies are visibly inflated on backend 0's share.
        let rec = &sc.cluster.client_app(0).recorder;
        assert!(rec.all.quantile(0.99) > 1_000_000);
    }
}
