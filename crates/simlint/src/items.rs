//! The item layer: the little structure the J-rule needs from a token
//! stream — an enum's variants, a function's body, and the arms of the
//! `match` expressions inside it — plus the `#[cfg(test)]` regions every
//! rule skips.
//!
//! Like the rest of simlint it is an approximation of Rust, not a
//! compiler front-end: it tracks brace/paren/bracket/angle nesting well
//! enough to find these boundaries wherever they sit (inside an `impl`,
//! an inline `mod`), and it degrades safely — a construct it cannot
//! delimit is skipped, never mis-attributed.

use crate::token::{Tok, TokKind};
use std::ops::Range;

/// One enum variant.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Variant name.
    pub name: String,
    /// 1-based line of the variant name.
    pub line: usize,
}

/// One `match` arm: pattern and body as token index ranges.
#[derive(Debug, Clone)]
pub struct MatchArm {
    /// Tokens of the arm pattern (before `=>`), guards included.
    pub pat: Range<usize>,
    /// Tokens of the arm body.
    pub body: Range<usize>,
}

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

/// The variants of every `enum <name> { … }` in `toks`, with the token
/// index of the `enum` keyword.
pub fn enums_named(toks: &[Tok], name: &str) -> Vec<(usize, Vec<Variant>)> {
    items_named(toks, "enum", name)
        .map(|(at, body)| (at, parse_variants(toks, body)))
        .collect()
}

/// The body token range of every `fn <name>` in `toks` that has one,
/// with the token index of the `fn` keyword.
pub fn fns_named(toks: &[Tok], name: &str) -> Vec<(usize, Range<usize>)> {
    items_named(toks, "fn", name).collect()
}

/// Every `<keyword> <name> … { body }`: the keyword's token index and
/// the body's token range (braces excluded).
fn items_named<'t>(
    toks: &'t [Tok],
    keyword: &'t str,
    name: &'t str,
) -> impl Iterator<Item = (usize, Range<usize>)> + 't {
    (0..toks.len().saturating_sub(1))
        .filter(move |&k| toks[k].is_ident(keyword) && toks[k + 1].is_ident(name))
        .filter_map(move |k| Some((k, body_after(toks, k + 2, toks.len())?)))
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

/// Parses enum variants out of a body token range.
fn parse_variants(toks: &[Tok], range: Range<usize>) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut i = range.start;
    let end = range.end;
    while i < end {
        if toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            i = skip_balanced(toks, i + 1, end);
            continue;
        }
        if toks[i].kind == TokKind::Ident {
            variants.push(Variant {
                name: toks[i].text.clone(),
                line: toks[i].line,
            });
            // Skip the payload / discriminant up to the `,`.
            i = skip_to_comma(toks, i + 1, end);
        }
        i += 1;
    }
    variants
}

/// Every `match` expression whose keyword lies in `range`, as its arms
/// (nested matches included — each gets its own entry).
pub fn find_matches(toks: &[Tok], range: Range<usize>) -> Vec<Vec<MatchArm>> {
    range
        .clone()
        .filter(|&i| toks[i].is_ident("match"))
        .filter_map(|i| parse_match(toks, i, range.end))
        .collect()
}

/// Parses the arms of the `match` at `at`.
fn parse_match(toks: &[Tok], at: usize, end: usize) -> Option<Vec<MatchArm>> {
    // Scrutinee: scan to the `{` at depth 0.
    let mut open = at + 1;
    while open < end && !toks[open].is_punct("{") {
        open = if toks[open].is_punct("(") || toks[open].is_punct("[") {
            skip_balanced(toks, open, end)
        } else {
            open + 1
        };
    }
    if open >= end {
        return None;
    }
    let body = open + 1..skip_balanced(toks, open, end).saturating_sub(1);

    // Arms: pattern up to `=>` (depth 0), then a `{…}` block or an
    // expression up to the `,` at depth 0.
    let mut arms = Vec::new();
    let mut i = body.start;
    while i < body.end {
        let mut arrow = i;
        while arrow < body.end && !toks[arrow].is_punct("=>") {
            arrow = if is_open(&toks[arrow]) {
                skip_balanced(toks, arrow, body.end)
            } else {
                arrow + 1
            };
        }
        if arrow >= body.end {
            break;
        }
        let start = arrow + 1;
        let stop = if start < body.end && toks[start].is_punct("{") {
            skip_balanced(toks, start, body.end)
        } else {
            skip_to_comma(toks, start, body.end)
        };
        arms.push(MatchArm {
            pat: i..arrow,
            body: start..stop,
        });
        i = stop;
        if i < body.end && toks[i].is_punct(",") {
            i += 1;
        }
    }
    Some(arms)
}

fn is_open(t: &Tok) -> bool {
    t.is_punct("(") || t.is_punct("[") || t.is_punct("{")
}

/// Index of the first `,` at depth 0 in `from..end`, or `end`.
fn skip_to_comma(toks: &[Tok], from: usize, end: usize) -> usize {
    let mut i = from;
    while i < end && !toks[i].is_punct(",") {
        i = if is_open(&toks[i]) {
            skip_balanced(toks, i, end)
        } else {
            i + 1
        };
    }
    i
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
    fn finds_enums_and_fns_wherever_they_nest() {
        let toks = lex("pub enum E { A, #[doc = \"b\"] B(u8), C { x: u8 } = 3 }\n\
             impl Foo for Bar { fn m(&self) -> u8 { 1 } }\n\
             mod inner { fn m() {} fn other() {} }\n\
             trait T { fn m(&self); }\n");
        let enums = enums_named(&toks, "E");
        assert_eq!(enums.len(), 1);
        let names: Vec<&str> = enums[0].1.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["A", "B", "C"]);
        // Two bodies; the trait's bodiless `fn m(&self);` is not one.
        assert_eq!(fns_named(&toks, "m").len(), 2);
        assert!(enums_named(&toks, "Missing").is_empty());
    }

    #[test]
    fn generic_fn_bodies_are_found() {
        let toks =
            lex("fn g<T: Iterator<Item = u8>>(it: [T; 2]) -> Vec<u8> where T: Clone { it.len() }");
        let fns = fns_named(&toks, "g");
        assert_eq!(fns.len(), 1);
        assert!(toks[fns[0].1.clone()].iter().any(|t| t.is_ident("len")));
    }

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

    #[test]
    fn match_arms_with_blocks_and_exprs() {
        let toks =
            lex("fn f(e: E) -> u8 { match e { E::A => 1, E::B { x, .. } => { x }, _ => 0 } }");
        let body = fns_named(&toks, "f")[0].1.clone();
        let ms = find_matches(&toks, body);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].len(), 3);
        // Arm 1's pattern holds `E :: B`, its body holds `x`.
        assert!(toks[ms[0][1].pat.clone()].iter().any(|t| t.is_ident("B")));
        assert!(toks[ms[0][1].body.clone()].iter().any(|t| t.is_ident("x")));
    }

    #[test]
    fn nested_matches_are_each_found() {
        let toks = lex("fn f(a: u8, b: u8) -> u8 { match a { 0 => match b { _ => 1 }, _ => 2 } }");
        let body = fns_named(&toks, "f")[0].1.clone();
        assert_eq!(find_matches(&toks, body).len(), 2);
    }
}
