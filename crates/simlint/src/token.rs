//! The token layer: a hand-rolled Rust lexer with source spans.
//!
//! Everything simlint knows about a file it knows from here: the source
//! lexed into identifiers, literals, and punctuation with `(line, col)`
//! spans and comments dropped. That is enough for the rules to walk
//! (`rules.rs`) and for `items.rs` to find `#[cfg(test)]` item bodies.
//!
//! This is a lexer for the subset of Rust the workspace writes, not the
//! full grammar: nested block comments, raw/byte strings, char literals
//! vs. lifetimes, numeric literals with suffixes and exponents, and the
//! three multi-char puncts (`::`, `=>`, `->`). Everything else is
//! single-char punctuation.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `struct`, `match`, names).
    Ident,
    /// Lifetime (`'a`) — kept distinct so `'a>` never confuses
    /// char-literal handling.
    Lifetime,
    /// Numeric literal, suffix included (`1_000u64`, `1e-9`, `0.5`).
    Num,
    /// String literal; `text` is the *contents* (no quotes, escapes kept
    /// verbatim).
    Str,
    /// Char literal; `text` is the contents.
    Char,
    /// Punctuation; `text` is `::`, `=>`, `->`, or a single character.
    Punct,
}

/// One token with its source span.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Kind of token.
    pub kind: TokKind,
    /// Token text (see [`TokKind`] for what it holds per kind).
    pub text: String,
    /// 1-based source line.
    pub line: usize,
    /// 1-based character column of the token start.
    pub col: usize,
    /// Source characters the token spans, quotes and prefixes included.
    pub len: usize,
}

impl Tok {
    /// True for an identifier with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True for punctuation with exactly this text.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// Lexes `src` into tokens. Comments are skipped; every literal becomes
/// a single token. The lexer never fails: unterminated constructs
/// consume to end of input.
pub fn lex(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1usize;
    let mut col = 1usize;

    // Advances past `k` chars, updating line/col.
    macro_rules! bump {
        ($k:expr) => {{
            for _ in 0..$k {
                if i < n {
                    if chars[i] == '\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
        }};
    }

    while i < n {
        let c = chars[i];
        let (start, tline, tcol) = (i, line, col);

        // Emits the token that started at this iteration and ends at `i`.
        macro_rules! push {
            ($kind:expr, $text:expr) => {
                toks.push(Tok {
                    kind: $kind,
                    text: $text,
                    line: tline,
                    col: tcol,
                    len: i - start,
                })
            };
        }
        // Consumes a plain string body from its opening quote; yields
        // the contents (escapes verbatim).
        macro_rules! string_body {
            () => {{
                bump!(1); // opening quote
                let from = i;
                while i < n && chars[i] != '"' {
                    bump!(if chars[i] == '\\' { 2 } else { 1 });
                }
                let text: String = chars[from..i.min(n)].iter().collect();
                bump!(1); // closing quote
                text
            }};
        }

        // Whitespace.
        if c.is_whitespace() {
            bump!(1);
            continue;
        }
        // Line comment.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < n && chars[i] != '\n' {
                bump!(1);
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 0u32;
            while i < n {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    bump!(2);
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    bump!(2);
                    if depth == 0 {
                        break;
                    }
                } else {
                    bump!(1);
                }
            }
            continue;
        }
        // Raw / byte strings: r"…", r#"…"#, br"…", b"…".
        if (c == 'r' || c == 'b') && !prev_is_ident(&chars, i) {
            if let Some((hashes, open_len)) = raw_open(&chars, i) {
                bump!(open_len);
                let from = i;
                while i < n {
                    if chars[i] == '"' && (1..=hashes).all(|k| chars.get(i + k) == Some(&'#')) {
                        break;
                    }
                    bump!(1);
                }
                let text: String = chars[from..i.min(n)].iter().collect();
                bump!(1 + hashes);
                push!(TokKind::Str, text);
                continue;
            }
            if chars.get(i + 1) == Some(&'"') && c == 'b' {
                bump!(1); // the prefix; the rest is a plain string
                let text = string_body!();
                push!(TokKind::Str, text);
                continue;
            }
        }
        // Plain string.
        if c == '"' {
            let text = string_body!();
            push!(TokKind::Str, text);
            continue;
        }
        // Char literal vs. lifetime.
        if c == '\'' {
            if let Some(end) = char_literal_end(&chars, i) {
                let text: String = chars[i + 1..end].iter().collect();
                bump!(end + 1 - i);
                push!(TokKind::Char, text);
            } else {
                // Lifetime: `'` + ident.
                bump!(1);
                let from = i;
                while i < n && is_ident_char(chars[i]) {
                    bump!(1);
                }
                push!(TokKind::Lifetime, chars[from..i].iter().collect());
            }
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            while i < n {
                let d = chars[i];
                if is_ident_char(d) {
                    bump!(1);
                    // Exponent sign: `1e-9`, `2.5E+3`.
                    if (d == 'e' || d == 'E')
                        && matches!(chars.get(i), Some('+') | Some('-'))
                        && chars.get(i + 1).is_some_and(|x| x.is_ascii_digit())
                    {
                        bump!(1);
                    }
                } else if d == '.' && chars.get(i + 1).is_some_and(|x| x.is_ascii_digit()) {
                    bump!(1);
                } else {
                    break;
                }
            }
            push!(TokKind::Num, chars[start..i].iter().collect());
            continue;
        }
        // Identifier / keyword (including raw identifiers r#type).
        if is_ident_start(c) {
            bump!(1);
            while i < n && is_ident_char(chars[i]) {
                bump!(1);
            }
            push!(TokKind::Ident, chars[start..i].iter().collect());
            continue;
        }
        // Multi-char puncts the item layer needs as units; everything
        // else is single-char punctuation.
        let width = match (c, chars.get(i + 1)) {
            (':', Some(':')) | ('=', Some('>')) | ('-', Some('>')) => 2,
            _ => 1,
        };
        bump!(width);
        push!(TokKind::Punct, chars[start..i].iter().collect());
    }
    toks
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && is_ident_char(chars[i - 1])
}

/// Classifies a raw-string opener (`r"`, `r#"`, `br"`) at `i`; returns
/// `(hash_count, opener_len)`.
fn raw_open(chars: &[char], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (chars.get(j) == Some(&'"')).then_some((hashes, j + 1 - i))
}

/// If `'` at `i` opens a char literal, returns the index of its closing
/// quote; `None` for lifetimes.
fn char_literal_end(chars: &[char], i: usize) -> Option<usize> {
    let n = chars.len();
    if i + 1 >= n {
        return None;
    }
    if chars[i + 1] == '\\' {
        let mut j = i + 3;
        while j < n && chars[j] != '\'' && chars[j] != '\n' {
            j += 1;
        }
        return (j < n && chars[j] == '\'').then_some(j);
    }
    (i + 2 < n && chars[i + 2] == '\'' && chars[i + 1] != '\'').then_some(i + 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn lexes_idents_puncts_and_spans() {
        let toks = lex("fn foo() -> u8 {\n    1\n}\n");
        assert!(toks[0].is_ident("fn"));
        assert!(toks[1].is_ident("foo"));
        assert!(toks[4].is_punct("->"));
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        let one = toks.iter().find(|t| t.kind == TokKind::Num).unwrap();
        assert_eq!((one.line, one.col), (2, 5));
        // `len` is the source span, delimiters and prefixes included.
        let lens: Vec<usize> = lex("br#\"a\"# 'x' \"s\\\"\" -> id")
            .iter()
            .map(|t| t.len)
            .collect();
        assert_eq!(lens, [7, 3, 5, 2, 2]);
    }

    #[test]
    fn string_contents_are_kept() {
        let toks = texts("let s = \"weight_update\";");
        assert!(toks.contains(&(TokKind::Str, "weight_update".to_string())));
        let toks = texts(r##"let r = r#"raw "x" body"#;"##);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains("raw")));
    }

    #[test]
    fn escaped_quotes_stay_inside_string() {
        let toks = texts("let s = \"a\\\"b\"; let k = 1;");
        assert!(toks.contains(&(TokKind::Str, "a\\\"b".to_string())));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "k"));
    }

    #[test]
    fn comments_are_skipped() {
        let toks = texts("a // panic!()\n/* RefCell */ b");
        let idents: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(idents, ["a", "b"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { '\\'' }");
        assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Char && t.text == "\\'"));
    }

    #[test]
    fn numbers_with_suffixes_and_exponents() {
        let toks = texts("1_000u64 + 0.5 + 1e-9 + 2.5E+3");
        let nums: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Num)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(nums, ["1_000u64", "0.5", "1e-9", "2.5E+3"]);
    }

    #[test]
    fn double_colon_and_fat_arrow_are_units() {
        let toks = lex("JournalEvent::Sample { .. } => \"sample\"");
        assert!(toks.iter().any(|t| t.is_punct("::")));
        assert!(toks.iter().any(|t| t.is_punct("=>")));
    }
}
