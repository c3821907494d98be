//! The item layer: the `#[cfg(test)]` regions every rule skips, and the
//! balanced-group skip G2 uses to step over a call's arguments.
//!
//! Like the rest of simlint it is an approximation of Rust, not a
//! compiler front-end: it tracks brace/paren/bracket/angle nesting well
//! enough to find an item's body wherever it sits (inside an `impl`, an
//! inline `mod`), and it degrades safely — a construct it cannot delimit
//! is skipped, never mis-attributed.

use crate::token::{Tok, TokKind};
use std::ops::Range;

/// Flags every token of a `#[cfg(test)]` item, from the attribute to
/// the closing brace of the item's body. An item without a brace body
/// (`#[cfg(test)] use …;`) is left unflagged.
pub fn test_regions(toks: &[Tok]) -> Vec<bool> {
    const ATTR: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let mut flags = vec![false; toks.len()];
    let mut i = 0;
    while i + ATTR.len() <= toks.len() {
        let is_attr = ATTR
            .iter()
            .zip(&toks[i..])
            .all(|(a, t)| matches!(t.kind, TokKind::Punct | TokKind::Ident) && t.text == *a);
        if !is_attr {
            i += 1;
            continue;
        }
        let end = match body_after(toks, i + ATTR.len(), toks.len()) {
            Some(body) => body.end + 1,
            None => i + ATTR.len(),
        };
        flags[i..end.min(toks.len())].fill(true);
        i = end;
    }
    flags
}

/// Scans an item header from `from` for the `{` that opens its body, at
/// bracket and angle depth 0; returns the body's token range (braces
/// excluded), or `None` when a `;` ends the item first. Angle depth
/// guards `where T: Iterator<Item = U>`; `->` is one token, so a `>`
/// here always closes a generic.
fn body_after(toks: &[Tok], from: usize, end: usize) -> Option<Range<usize>> {
    let mut j = from;
    let mut angle = 0i32;
    while j < end {
        let t = &toks[j];
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle = (angle - 1).max(0);
        } else if t.is_punct("(") || t.is_punct("[") {
            j = skip_balanced(toks, j, end);
            continue;
        } else if t.is_punct("{") && angle == 0 {
            return Some(j + 1..skip_balanced(toks, j, end).saturating_sub(1));
        } else if t.is_punct(";") && angle == 0 {
            return None;
        }
        j += 1;
    }
    None
}

/// Index just past the group opened by the `(`, `[` or `{` at `at`.
/// Robust to truncation: returns `end` if the group never closes.
pub fn skip_balanced(toks: &[Tok], at: usize, end: usize) -> usize {
    let open = toks[at].text.as_str();
    let close = match open {
        "(" => ")",
        "[" => "]",
        _ => "}",
    };
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().take(end).skip(at) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::lex;

    #[test]
    fn cfg_test_marks_the_whole_item() {
        let toks = lex(
            "fn a() {}\n#[cfg(test)]\nmod tests { fn b() { x.unwrap(); } }\n\
             #[cfg(test)]\nuse foo::bar;\nfn c() { y.unwrap(); }\n",
        );
        let flags = test_regions(&toks);
        let flag_of = |name: &str| flags[toks.iter().position(|t| t.is_ident(name)).unwrap()];
        assert!(!flag_of("a"));
        assert!(flag_of("tests") && flag_of("b") && flag_of("x"));
        // A braceless `#[cfg(test)]` item opens no region.
        assert!(!flag_of("bar") && !flag_of("c") && !flag_of("y"));
    }
}
