//! The warn-finding baseline: accepted findings committed alongside the
//! code.
//!
//! Deny-tier findings always gate; warn-tier findings gate only when
//! they are *not* in the baseline. The file (`simlint.baseline` at the
//! workspace root) is line-oriented and diff-friendly:
//!
//! ```text
//! # comment
//! G3\tcrates/nettcp/src/conn.rs\tlet skip = seq_len(seg_seq, self.rcv_nxt) as usize;
//! ```
//!
//! Entries match on `(rule, path, trimmed snippet)` — deliberately not
//! on line numbers, so unrelated edits above a baselined finding don't
//! invalidate it. `--update-baseline` rewrites the file from the
//! current warn findings; entries that no longer match anything are
//! reported as stale (non-fatally) so the file can't rot silently.

use crate::rules::{Severity, Violation};

/// One accepted warn finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Rule id (`G3`, …).
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// The offending line, stripped and trimmed.
    pub snippet: String,
}

/// Parses a baseline file. Blank lines and `#` comments are ignored;
/// everything else must be three tab-separated fields; an error names
/// the 1-based line.
pub fn parse(text: &str) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = line.splitn(3, '\t');
        let (Some(rule), Some(path), Some(snippet)) = (fields.next(), fields.next(), fields.next())
        else {
            return Err(format!(
                "baseline line {}: expected three tab-separated fields: rule\\tpath\\tsnippet",
                i + 1
            ));
        };
        entries.push(Entry {
            rule: rule.trim().to_string(),
            path: path.trim().to_string(),
            snippet: snippet.trim().to_string(),
        });
    }
    Ok(entries)
}

/// Renders the current warn findings as baseline text.
pub fn render(violations: &[Violation]) -> String {
    let mut out = String::from(
        "# simlint baseline: accepted warn-tier findings.\n\
         # One per line: rule<TAB>path<TAB>offending source line (trimmed).\n\
         # Matching ignores line numbers, so edits elsewhere don't invalidate entries.\n\
         # Regenerate with: cargo run -p simlint -- --workspace --update-baseline\n",
    );
    let mut lines: Vec<String> = violations
        .iter()
        .filter(|v| v.severity == Severity::Warn)
        .map(|v| format!("{}\t{}\t{}", v.rule, v.path, v.snippet))
        .collect();
    lines.sort();
    lines.dedup();
    for l in &lines {
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// Marks warn findings covered by the baseline (`baselined = true`) and
/// returns the entries that matched nothing — stale leftovers the user
/// should prune.
pub fn apply(violations: &mut [Violation], entries: &[Entry]) -> Vec<Entry> {
    let mut used = vec![false; entries.len()];
    for v in violations.iter_mut() {
        if v.severity != Severity::Warn {
            continue;
        }
        for (k, e) in entries.iter().enumerate() {
            if e.rule == v.rule && e.path == v.path && e.snippet == v.snippet {
                v.baselined = true;
                used[k] = true;
            }
        }
    }
    entries
        .iter()
        .zip(used)
        .filter(|(_, u)| !u)
        .map(|(e, _)| e.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warn(rule: &'static str, path: &str, snippet: &str) -> Violation {
        Violation {
            rule,
            family: "global-order",
            severity: Severity::Warn,
            path: path.to_string(),
            line: 1,
            col: 1,
            msg: String::new(),
            hint: "",
            snippet: snippet.to_string(),
            baselined: false,
        }
    }

    #[test]
    fn roundtrip_and_matching() {
        let mut vs = vec![
            warn("G3", "crates/a/src/x.rs", "let s = seq as usize;"),
            warn("G3", "crates/a/src/x.rs", "let t = other_seq as u32;"),
        ];
        let text = render(&vs);
        let entries = parse(&text).unwrap();
        assert_eq!(entries.len(), 2);
        let stale = apply(&mut vs, &entries);
        assert!(stale.is_empty());
        assert!(vs.iter().all(|v| v.baselined));
    }

    #[test]
    fn unmatched_entries_are_stale() {
        let entries = parse("G3\tcrates/a/src/x.rs\tgone as usize\n").unwrap();
        let mut vs = vec![warn("G3", "crates/a/src/x.rs", "let s = seq as usize;")];
        let stale = apply(&mut vs, &entries);
        assert_eq!(stale.len(), 1);
        assert!(!vs[0].baselined);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse("just one field\n").is_err());
        assert!(parse("# comment\n\n").unwrap().is_empty());
    }

    #[test]
    fn deny_findings_never_enter_the_baseline() {
        let mut v = warn("C5", "p", "unsafe { x }");
        v.severity = Severity::Deny;
        assert_eq!(
            render(&[v]).lines().filter(|l| !l.starts_with('#')).count(),
            0
        );
    }
}
