//! Lint configuration: built-in defaults, optionally overridden by a
//! `simlint.toml` at the workspace root.
//!
//! Only the TOML subset the config actually needs is parsed: `[a.b]`
//! section headers, `key = "string"`, and `key = ["a", "b"]` arrays
//! (single line), with `#` comments. Unknown sections and keys are
//! rejected so typos fail loudly instead of silently disabling a rule.

/// Scopes for every rule, as path prefixes relative to the workspace
/// root (`/`-separated). An entry matches a path when it equals the
/// path or is a directory prefix of it.
#[derive(Debug, Clone)]
pub struct Config {
    /// Paths never scanned at all.
    pub exclude: Vec<String>,
    /// G2: crates where `partial_cmp(…).unwrap()` comparators are banned.
    pub g_comparators: Vec<String>,
    /// G3: crates where narrowing casts of sequence numbers are flagged.
    pub g_seq_cast: Vec<String>,
}

impl Default for Config {
    fn default() -> Config {
        let v = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
        Config {
            exclude: v(&["target", "vendor", "crates/simlint", ".git"]),
            g_comparators: v(&["crates/lbcore/src", "crates/telemetry/src"]),
            g_seq_cast: v(&["crates/netsim", "crates/nettcp", "crates/lb-dataplane"]),
        }
    }
}

impl Config {
    /// Parses `simlint.toml` text over the built-in defaults. A key
    /// that is present replaces the default list wholesale; an error
    /// names the 1-based config line.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let raw_lines: Vec<&str> = text.lines().collect();
        let mut idx = 0;
        while idx < raw_lines.len() {
            let lineno = idx + 1;
            let err = move |msg: String| format!("config line {lineno}: {msg}");
            let mut line = strip_toml_comment(raw_lines[idx]).trim().to_string();
            idx += 1;
            // Join multi-line arrays: `key = [` … `]`.
            while line.contains('[')
                && !line.starts_with('[')
                && !line.contains(']')
                && idx < raw_lines.len()
            {
                line.push(' ');
                line.push_str(strip_toml_comment(raw_lines[idx]).trim());
                idx += 1;
            }
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                section = name.trim().to_string();
                match section.as_str() {
                    "scan" | "rules.g" => {}
                    other => return Err(err(format!("unknown section `[{other}]`"))),
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err(format!("expected `key = value`, got `{line}`")));
            };
            let key = key.trim();
            let values = parse_string_array(value.trim())
                .ok_or_else(|| err(format!("expected a string or [\"…\"] array for `{key}`")))?;
            let target = match (section.as_str(), key) {
                ("scan", "exclude") => &mut cfg.exclude,
                ("rules.g", "comparators") => &mut cfg.g_comparators,
                ("rules.g", "seq_cast") => &mut cfg.g_seq_cast,
                _ => return Err(err(format!("unknown key `{key}` in section `[{section}]`"))),
            };
            *target = values;
        }
        Ok(cfg)
    }

    /// Rule-scope entries that cover none of `paths` (workspace-relative,
    /// `/`-separated). A scope naming a file that was since split or
    /// renamed silently takes that code out of the rule, so the caller
    /// treats a non-empty result as a config error. `exclude` is not a
    /// rule scope and may name paths that do not exist.
    pub fn dead_scopes<'a>(&'a self, paths: &[&str]) -> Vec<&'a str> {
        let mut dead: Vec<&str> = [&self.g_comparators, &self.g_seq_cast]
            .into_iter()
            .flatten()
            .filter(|scope| {
                !paths
                    .iter()
                    .any(|p| Config::in_scope(p, std::slice::from_ref(scope)))
            })
            .map(String::as_str)
            .collect();
        dead.sort_unstable();
        dead.dedup();
        dead
    }

    /// True when `path` (workspace-relative, `/`-separated) is covered
    /// by one of the `scopes` entries.
    pub fn in_scope(path: &str, scopes: &[String]) -> bool {
        scopes.iter().any(|s| {
            let s = s.trim_end_matches('/');
            path == s || path.starts_with(s) && path.as_bytes().get(s.len()) == Some(&b'/')
        })
    }
}

/// Drops a trailing `#` comment (the config grammar has no strings
/// containing `#`, so a plain scan is enough).
fn strip_toml_comment(line: &str) -> &str {
    match line.find('#') {
        Some(p) => &line[..p],
        None => line,
    }
}

/// Parses `"a"` or `["a", "b"]` into a list of strings.
fn parse_string_array(value: &str) -> Option<Vec<String>> {
    if let Some(single) = parse_quoted(value) {
        return Some(vec![single]);
    }
    let inner = value
        .strip_prefix('[')?
        .strip_suffix(']')?
        .trim()
        .trim_end_matches(',');
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner
        .split(',')
        .map(|item| parse_quoted(item.trim()))
        .collect()
}

/// Parses one `"…"` literal.
fn parse_quoted(s: &str) -> Option<String> {
    let body = s.strip_prefix('"')?.strip_suffix('"')?;
    if body.contains('"') {
        return None;
    }
    Some(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_matching_is_prefix_at_path_boundary() {
        let scopes = vec!["crates/netsim".to_string()];
        assert!(Config::in_scope("crates/netsim/src/rng.rs", &scopes));
        assert!(Config::in_scope("crates/netsim", &scopes));
        assert!(!Config::in_scope("crates/netsim2/src/lib.rs", &scopes));
        let cfg = Config::default();
        assert!(Config::in_scope(
            "crates/netsim/src/sim.rs",
            &cfg.g_seq_cast
        ));
        assert!(!Config::in_scope(
            "crates/bench/src/lib.rs",
            &cfg.g_seq_cast
        ));
    }

    #[test]
    fn scope_matching_no_scanned_file_is_reported_by_path() {
        let cfg = Config::parse(
            "[rules.g]\nseq_cast = [\"crates/lb-dataplane/src/node.rs\", \"crates/netsim\"]\n",
        )
        .unwrap();
        // One file under every other scope, and node.rs split away: only
        // its entry covers nothing.
        let mut scanned = vec![
            "crates/lb-dataplane/src/fastpath.rs",
            "crates/lbcore/src/maglev.rs",
            "crates/netsim/src/sim.rs",
            "crates/telemetry/src/journal.rs",
        ];
        assert_eq!(
            cfg.dead_scopes(&scanned),
            vec!["crates/lb-dataplane/src/node.rs"]
        );
        scanned.push("crates/lb-dataplane/src/node.rs");
        assert!(cfg.dead_scopes(&scanned).is_empty());
    }

    #[test]
    fn parse_overrides_defaults() {
        let text = r#"
# comment
[scan]
exclude = ["vendor", "crates/simlint"]

[rules.g]
comparators = "crates/lbcore/src"
seq_cast = [
 "a", # one
 "b",
]
"#;
        let cfg = Config::parse(text).unwrap();
        assert_eq!(cfg.exclude, vec!["vendor", "crates/simlint"]);
        assert_eq!(cfg.g_comparators, vec!["crates/lbcore/src"]);
        assert_eq!(cfg.g_seq_cast, vec!["a", "b"]);
        // Untouched sections keep their defaults.
        let cfg = Config::parse("[rules.g]\nseq_cast = [\"a\"]\n").unwrap();
        assert_eq!(cfg.g_comparators, Config::default().g_comparators);
    }

    #[test]
    fn parse_rejects_unknown_keys_and_sections() {
        assert!(Config::parse("[rules.zz]\n").is_err());
        assert!(Config::parse("[scan]\nfoo = [\"x\"]\n").is_err());
        assert!(Config::parse("[scan]\nexclude = 12\n").is_err());
        assert!(Config::parse("[rules.g]\nseq_cast_typo = [\"x\"]\n").is_err());
        // A scope list of a rule that moved to a stock lint is a typo now:
        // a stale simlint.toml fails loudly instead of reading as a gate.
        assert!(Config::parse("[rules.f1]\nfastpath = [\"crates/netpkt/src\"]\n").is_err());
        assert!(Config::parse("[rules.g]\nfields = [\"crates/netsim\"]\n").is_err());
        // J1 is gone with the journal's four-part schema.
        assert!(
            Config::parse("[rules.j]\njournal = [\"crates/telemetry/src/journal.rs\"]\n").is_err()
        );
    }
}
