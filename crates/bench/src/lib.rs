//! Figure regeneration, capture analysis and scenario fuzzing. Wall
//! rate, memory and allocations per request are measured by `lbbench`,
//! the standalone benchmark under `benchmark/`; this crate only holds
//! the counting allocator behind the tier-1 allocation budget
//! ([`alloc`]).
//!
//! Binaries (run with `cargo run -p bench --release --bin <name>`):
//!
//! * `fig2a` — regenerates Fig. 2(a): `FIXEDTIMEOUT` vs. ground truth.
//! * `fig2b` — regenerates Fig. 2(b): `ENSEMBLETIMEOUT` tracking.
//! * `fig3` — regenerates Fig. 3: p95 GET latency, Maglev vs. aware.
//! * `ablations` — runs one ablation by name, or `all` of them (the
//!   names are in the binary's usage text).
//! * `lbtrace` — analyzes a decision-journal NDJSON capture (see
//!   [`lbtrace`]): sample timelines, weight-shift explanations,
//!   ejection storylines, and the journal-derived reaction metric.
//! * `scenariofuzz` — the seeded scenario-fuzzing campaign: `run` a
//!   seed range against the global invariant suite, `minimize` a
//!   violating seed to a regression case, `replay` a committed case,
//!   `show` a seed's generated scenario.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod lbtrace;
pub mod spans;

/// A checked command line: every `--flag` must be one the binary
/// declared, and every valued flag must be followed by its value.
/// `fig3 --sed 7` or a trailing `fig3 --seed` is an error, not a silent
/// run with the defaults.
#[derive(Debug)]
pub struct Cli {
    usage: String,
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Cli {
    /// Parses `args` (without the program name) against the `bare`
    /// (`--csv`) and `valued` (`--seed N`) flags the binary knows.
    /// Everything not starting with `--` is positional.
    pub fn parse(
        args: &[String],
        usage: &str,
        bare: &[&str],
        valued: &[&str],
    ) -> Result<Cli, String> {
        let mut cli = Cli {
            usage: usage.to_string(),
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                cli.positional.push(a.clone());
                continue;
            }
            if cli.flags.iter().any(|(k, _)| k == a) {
                return Err(format!("{a} given twice"));
            }
            let value = if bare.contains(&a.as_str()) {
                None
            } else if valued.contains(&a.as_str()) {
                match it.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => return Err(format!("{a} needs a value")),
                }
            } else {
                return Err(format!("unknown flag {a}"));
            };
            cli.flags.push((a.clone(), value));
        }
        Ok(cli)
    }

    /// [`Cli::parse`] over the process arguments; on error prints the
    /// reason and the usage text to stderr and exits with status 2.
    pub fn from_env(usage: &str, bare: &[&str], valued: &[&str]) -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Cli::parse(&args, usage, bare, valued).unwrap_or_else(|e| fail(usage, &e))
    }

    /// True if the bare flag was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == flag)
    }

    /// The value of a valued flag, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of a valued flag as an unsigned integer; a value that
    /// is not one is a usage error (exit status 2).
    pub fn number(&self, flag: &str) -> Option<u64> {
        self.value(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| self.fail(&format!("{flag} takes an integer, got {v:?}")))
        })
    }

    /// Positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Prints `msg` and the usage text to stderr; exits with status 2.
    pub fn fail(&self, msg: &str) -> ! {
        fail(&self.usage, msg)
    }
}

fn fail(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}\n{usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::Cli;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Cli::parse(&args, "usage", &["--csv", "--full"], &["--seed", "--out"])
    }

    #[test]
    fn known_flags_values_and_positionals_parse() {
        let cli = parse(&["run", "--seed", "7", "--csv", "file"]).unwrap();
        assert_eq!(cli.positional(), ["run", "file"]);
        assert!(cli.has("--csv") && !cli.has("--full"));
        assert_eq!(cli.number("--seed"), Some(7));
        assert_eq!(cli.value("--out"), None);
    }

    #[test]
    fn unknown_flag_is_an_error() {
        // The typo that used to regenerate the figure with seed 42.
        assert_eq!(parse(&["--sed", "7"]).unwrap_err(), "unknown flag --sed");
    }

    #[test]
    fn valued_flag_without_a_value_is_an_error() {
        assert_eq!(parse(&["--seed"]).unwrap_err(), "--seed needs a value");
        assert_eq!(
            parse(&["--seed", "--csv"]).unwrap_err(),
            "--seed needs a value"
        );
    }

    #[test]
    fn repeated_flag_is_an_error() {
        assert_eq!(
            parse(&["--seed", "1", "--seed", "2"]).unwrap_err(),
            "--seed given twice"
        );
    }
}
