//! simlint: the two determinism rules no compiler or clippy lint
//! expresses, as a library.
//!
//! The rest of the gate is stock lints (root `Cargo.toml`
//! `[workspace.lints]` + `clippy.toml`; DESIGN.md §6.9). What is left
//! here runs on one layer: [`token`] lexes the source, [`items`] marks
//! the `#[cfg(test)]` regions, and [`rules`] walks both per file — G2
//! (non-total float comparators) and G3 (sequence-number narrowing).
//!
//! [`analyze`] runs the rules over a set of files; [`render_json`]
//! emits the machine-readable report; warn-tier findings are matched
//! against a committed [`baseline`].

pub mod baseline;
pub mod config;
pub mod items;
pub mod rules;
pub mod token;

use config::Config;
use rules::{FileSyntax, Severity, Violation};

/// Runs every rule over `(path, text)` pairs: lexes each file once and
/// applies the rules. Findings come back sorted by (path, line, col,
/// rule).
pub fn analyze(files: &[(String, String)], cfg: &Config) -> Vec<Violation> {
    let mut violations: Vec<Violation> = files
        .iter()
        .flat_map(|(path, text)| rules::check_file(&FileSyntax::parse(path, text), cfg))
        .collect();
    violations
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    violations
}

/// True when the findings should fail the build: any deny-tier
/// finding, or a warn-tier finding the baseline does not cover.
pub fn gates(violations: &[Violation]) -> bool {
    violations
        .iter()
        .any(|v| v.severity == Severity::Deny || !v.baselined)
}

/// Escapes a string for embedding in a JSON literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the findings as a JSON array (one object per finding, with
/// rule, family, severity, position, message, fix hint, snippet, and
/// whether the baseline covers it).
pub fn render_json(violations: &[Violation]) -> String {
    let mut out = String::from("[\n");
    for (i, v) in violations.iter().enumerate() {
        let comma = if i + 1 < violations.len() { "," } else { "" };
        out.push_str(&format!(
            "  {{\"rule\":\"{}\",\"family\":\"{}\",\"severity\":\"{}\",\"path\":\"{}\",\
             \"line\":{},\"col\":{},\"message\":\"{}\",\"hint\":\"{}\",\"snippet\":\"{}\",\
             \"baselined\":{}}}{comma}\n",
            v.rule,
            v.family,
            v.severity.as_str(),
            json_escape(&v.path),
            v.line,
            v.col,
            json_escape(&v.msg),
            json_escape(v.hint),
            json_escape(&v.snippet),
            v.baselined
        ));
    }
    out.push_str("]\n");
    out
}

/// Renders the findings for a terminal, with a one-line summary.
pub fn render_human(violations: &[Violation], files_scanned: usize) -> String {
    let mut out = String::new();
    let mut gating = 0usize;
    let mut baselined = 0usize;
    for v in violations {
        if v.baselined {
            baselined += 1;
            continue;
        }
        gating += 1;
        let level = match v.severity {
            Severity::Deny => "error",
            Severity::Warn => "warning",
        };
        out.push_str(&format!("{level}[{}]: {}\n", v.rule, v.msg));
        out.push_str(&format!("  --> {}:{}:{}\n", v.path, v.line, v.col));
        out.push_str(&format!("  help: {}\n\n", v.hint));
    }
    let covered = if baselined > 0 {
        format!(" ({baselined} baselined)")
    } else {
        String::new()
    };
    if gating == 0 {
        out.push_str(&format!(
            "simlint: clean — {files_scanned} files scanned, 0 gating findings{covered}\n"
        ));
    } else {
        out.push_str(&format!(
            "simlint: {gating} gating finding(s) in {files_scanned} file(s) scanned{covered}\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_is_valid() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn analyze_skips_comments_strings_and_test_code() {
        let src = "pub fn f(v: &mut [f64]) {\n\
                   \x20   // v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
                   \x20   let _ = \"a.partial_cmp(b).unwrap()\";\n\
                   \x20   v.sort_by(|a, b| a.partial_cmp(b).expect(\"nan\")); // why\n\
                   }\n\
                   #[cfg(test)]\nmod tests { fn t(a: f64) { a.partial_cmp(&a).unwrap(); } }\n";
        let files = vec![("crates/lbcore/src/x.rs".to_string(), src.to_string())];
        let vs = analyze(&files, &Config::default());
        assert_eq!(vs.len(), 1);
        assert_eq!((vs[0].rule, vs[0].line, vs[0].col), ("G2", 4, 24));
        // The snippet is the line's tokens: no indent, no trailing comment.
        assert_eq!(
            vs[0].snippet,
            "v.sort_by(|a, b| a.partial_cmp(b).expect(\"nan\"));"
        );
        assert!(gates(&vs));
    }

    #[test]
    fn baselined_warns_do_not_gate() {
        let files = vec![(
            "crates/netsim/src/x.rs".to_string(),
            "pub fn f(seq: u64) -> usize { seq as usize }\n".to_string(),
        )];
        let mut vs = analyze(&files, &Config::default());
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, "G3");
        assert!(gates(&vs));
        let entries = baseline::parse(&baseline::render(&vs)).unwrap();
        let stale = baseline::apply(&mut vs, &entries);
        assert!(stale.is_empty());
        assert!(!gates(&vs));
    }
}
