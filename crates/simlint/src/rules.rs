//! The two rules no stock lint expresses.
//!
//! | rule | tier | bans                                                       |
//! |------|------|------------------------------------------------------------|
//! | G2   | deny | `partial_cmp(..).unwrap()` / `.expect(..)` comparators     |
//! | G3   | warn | narrowing `as` casts of event sequence numbers             |
//!
//! Everything else the determinism gate holds — wall clocks, hash
//! containers, panics on the fast path, float equality, interior
//! mutability, `Rc`, `thread_local!`, `unsafe` — is held by rustc and
//! clippy lints configured in the root `Cargo.toml` and `clippy.toml`
//! (DESIGN.md §6.9 has the table).
//!
//! Severity is two-tier: **deny** findings gate CI outright; **warn**
//! findings gate unless recorded in the committed baseline
//! (`simlint.baseline`). All rules skip `#[cfg(test)]` code. There is no
//! in-source suppression: a G2 finding is fixed, a G3 cast that is
//! provably in range goes in the baseline. (The journal-schema rule J1 is
//! gone: the journal lists its schema once, in one exhaustive match the
//! compiler checks.)

use crate::config::Config;
use crate::items;
use crate::token::{self, Tok, TokKind};

/// How a finding gates the build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Accepted when listed in the committed baseline; otherwise gates.
    Warn,
    /// Always gates.
    Deny,
}

impl Severity {
    /// Stable wire name for `--json`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// One rule violation, pointing at real source coordinates.
#[derive(Debug)]
pub struct Violation {
    /// Rule id (`G2`, `G3`).
    pub rule: &'static str,
    /// Rule family (`global-order`).
    pub family: &'static str,
    /// Deny or warn tier.
    pub severity: Severity,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based character column.
    pub col: usize,
    /// Human-readable description.
    pub msg: String,
    /// How to fix it, one line.
    pub hint: &'static str,
    /// The offending source line, from its first token to its last —
    /// the baseline's line-number-independent match key.
    pub snippet: String,
    /// True when a baseline entry accepted this warn-tier finding.
    pub baselined: bool,
}

/// One file, lexed once for every rule.
pub struct FileSyntax<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// The source text.
    text: &'a str,
    /// The token stream.
    pub toks: Vec<Tok>,
    /// Per token: inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
}

impl<'a> FileSyntax<'a> {
    /// Lexes `text` and marks its test regions.
    pub fn parse(path: &'a str, text: &'a str) -> FileSyntax<'a> {
        let toks = token::lex(text);
        let in_test = items::test_regions(&toks);
        FileSyntax {
            path,
            text,
            toks,
            in_test,
        }
    }

    /// Source line `line` from its first token to the end of its last,
    /// so indentation and a trailing comment are not part of the key.
    fn snippet(&self, line: usize) -> String {
        let on_line = |t: &&Tok| t.line == line;
        let (Some(first), Some(last)) = (
            self.toks.iter().find(on_line),
            self.toks.iter().rev().find(on_line),
        ) else {
            return String::new();
        };
        let raw = self.text.lines().nth(line - 1).unwrap_or("");
        raw.chars()
            .skip(first.col - 1)
            .take(last.col + last.len - first.col)
            .collect()
    }
}

/// A rule's constant half.
struct Rule {
    id: &'static str,
    family: &'static str,
    severity: Severity,
    hint: &'static str,
}

const G2: Rule = Rule {
    id: "G2",
    family: "global-order",
    severity: Severity::Deny,
    hint: "use f64::total_cmp — a total order that cannot panic or misorder",
};
const G3: Rule = Rule {
    id: "G3",
    family: "global-order",
    severity: Severity::Warn,
    hint: "keep event sequence numbers u64 end-to-end, or use usize::try_from",
};

impl Rule {
    /// A finding of this rule at `line:col` of `syn`.
    fn at(&self, syn: &FileSyntax<'_>, line: usize, col: usize, msg: String) -> Violation {
        Violation {
            rule: self.id,
            family: self.family,
            severity: self.severity,
            path: syn.path.to_string(),
            line,
            col,
            msg,
            hint: self.hint,
            snippet: syn.snippet(line),
            baselined: false,
        }
    }
}

/// Runs every applicable per-file rule over one lexed file.
pub fn check_file(syn: &FileSyntax<'_>, cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    if Config::in_scope(syn.path, &cfg.g_comparators) {
        rule_g2(syn, &mut out);
    }
    if Config::in_scope(syn.path, &cfg.g_seq_cast) {
        rule_g3(syn, &mut out);
    }
    out
}

// --------------------------------------------------------------- G rules

/// G2: non-total float comparators — `partial_cmp(..).unwrap()` /
/// `.expect(..)` inside `sort_by`/`max_by`/`min_by` closures. The
/// comparator panics on NaN and defines no total order; `total_cmp` is
/// both total and panic-free. (`clippy::unwrap_used` would catch the
/// `unwrap` only where the panic lints are on, and says nothing about
/// the order.)
fn rule_g2(syn: &FileSyntax<'_>, out: &mut Vec<Violation>) {
    let toks = &syn.toks;
    for (k, t) in toks.iter().enumerate() {
        // `partial_cmp ( … ) . unwrap|expect` — skip the argument list.
        if !t.is_ident("partial_cmp")
            || !toks.get(k + 1).is_some_and(|t| t.is_punct("("))
            || syn.in_test[k]
        {
            continue;
        }
        let close = items::skip_balanced(toks, k + 1, toks.len());
        let followed_by_panic = toks.get(close).is_some_and(|t| t.is_punct("."))
            && toks
                .get(close + 1)
                .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"));
        if followed_by_panic {
            let msg = "non-total float comparator `partial_cmp(…).unwrap()` (panics on NaN and \
                       defines no total order; use `total_cmp`)";
            out.push(G2.at(syn, t.line, t.col, msg.to_string()));
        }
    }
}

/// G3: narrowing casts of event sequence numbers (`… seq … as usize`).
/// Sequence numbers are the tie-breaker that makes the event order
/// total; truncating one on a 32-bit target silently reorders events.
/// Warn-tier: a cast that is provably in-range belongs in the baseline.
/// (`clippy::cast_possible_truncation` flags every narrowing cast in the
/// crate; this one knows which operands order events.)
fn rule_g3(syn: &FileSyntax<'_>, out: &mut Vec<Violation>) {
    let toks = &syn.toks;
    for (k, t) in toks.iter().enumerate() {
        let Some(target) = toks.get(k + 1) else {
            continue;
        };
        let narrow = target.is_ident("usize") || target.is_ident("u32") || target.is_ident("u16");
        if !t.is_ident("as") || !narrow || syn.in_test[k] {
            continue;
        }
        let mut idents = Vec::new();
        operand_idents_back(toks, k, &mut idents);
        if idents.iter().any(|id| is_seq_ident(id)) {
            out.push(G3.at(
                syn,
                t.line,
                t.col,
                format!(
                    "sequence number truncated by `as {}` (event order relies on the full \
                     u64 sequence)",
                    target.text
                ),
            ));
        }
    }
}

/// Identifier naming convention for sequence counters.
fn is_seq_ident(id: &str) -> bool {
    id == "seq" || id == "seqno" || id.starts_with("seq_") || id.ends_with("_seq")
}

/// Collects the identifiers of the postfix expression ending just
/// before token `at` (the operand of an `as` cast): walks back over
/// `ident`, `.`/`::` chains, and balanced `(…)`/`[…]` groups
/// (collecting idents inside them too).
fn operand_idents_back<'t>(toks: &'t [Tok], at: usize, out: &mut Vec<&'t str>) {
    let mut i = at;
    let mut want_primary = true;
    while i > 0 {
        let t = &toks[i - 1];
        if !want_primary {
            if !(t.is_punct(".") || t.is_punct("::")) {
                break;
            }
            i -= 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            let (open, close) = if t.is_punct(")") {
                ("(", ")")
            } else {
                ("[", "]")
            };
            // Back to the matching opener, or to the start of input.
            let mut depth = 0i32;
            while i > 0 {
                i -= 1;
                let tt = &toks[i];
                if tt.is_punct(close) {
                    depth += 1;
                } else if tt.is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if tt.kind == TokKind::Ident {
                    out.push(&tt.text);
                }
            }
            // A call/index: the callee identifier precedes the group.
            if i > 0 && toks[i - 1].kind == TokKind::Ident {
                out.push(&toks[i - 1].text);
                i -= 1;
            }
        } else if t.kind == TokKind::Ident || t.kind == TokKind::Num {
            if t.kind == TokKind::Ident {
                out.push(&t.text);
            }
            i -= 1;
        } else {
            break;
        }
        want_primary = !want_primary;
    }
}
