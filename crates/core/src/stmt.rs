//! Source-level statement utilities shared by every entry point.
//!
//! Three consumers read raw assess statement text: the `assess-check` batch
//! linter, the interactive REPL, and the `assess-serve` network service.
//! All three need the same comment-aware scanning — splitting a script into
//! statements on `;`, deciding whether an interactive buffer is complete,
//! and (for the server's shared result cache) reducing a statement to a
//! canonical normal form so textual variants of the same statement share
//! one cache entry.
//!
//! The scanner understands exactly two lexical islands of the assess
//! syntax: `'…'` string literals (with `''` escaping a quote) and `--` line
//! comments outside strings. Everything else is treated as plain text, so
//! these helpers never need the full parser and work on ill-formed input
//! too (the parser reports the real error later, with correct offsets).

/// Blanks `--` line comments (outside strings) with spaces, preserving the
/// byte length and line structure of the source so spans and line/column
/// positions computed on the cleaned text match the original.
pub fn strip_comments(source: &str) -> String {
    let mut clean: Vec<u8> = source.as_bytes().to_vec();
    let mut in_string = false;
    let mut i = 0;
    while i < clean.len() {
        match clean[i] {
            b'\'' => in_string = !in_string,
            b'-' if !in_string && clean.get(i + 1) == Some(&b'-') => {
                while i < clean.len() && clean[i] != b'\n' {
                    clean[i] = b' ';
                    i += 1;
                }
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    // The replacement is byte-for-byte, so the vector is still the source's
    // UTF-8 (comments are ASCII-blanked in place).
    String::from_utf8(clean).unwrap_or_else(|_| source.to_string())
}

/// Splits a script into `(byte offset, statement text)` pairs on `;`,
/// ignoring semicolons inside `'…'` strings and `--` comments. Offsets
/// index into the original source, so diagnostics can be shifted to
/// whole-file positions.
pub fn split_statements(source: &str) -> Vec<(usize, String)> {
    let clean = strip_comments(source);
    let mut out = Vec::new();
    let mut start = 0usize;
    let bytes = clean.as_bytes();
    let mut in_string = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'\'' => in_string = !in_string,
            b';' if !in_string => {
                push_statement(&clean, start, i, &mut out);
                start = i + 1;
            }
            _ => {}
        }
    }
    push_statement(&clean, start, clean.len(), &mut out);
    out
}

fn push_statement(source: &str, start: usize, end: usize, out: &mut Vec<(usize, String)>) {
    let piece = source.get(start..end).unwrap_or("");
    let trimmed = piece.trim_start();
    let offset = start + (piece.len() - trimmed.len());
    let trimmed = trimmed.trim_end();
    if !trimmed.is_empty() {
        out.push((offset, trimmed.to_string()));
    }
}

/// Whether an interactive buffer holds at least one complete (`;`-terminated)
/// statement, accounting for strings and comments: a `;` inside `'…'` or
/// after `--` does not terminate, and a trailing comment after the `;` does
/// not un-terminate.
pub fn is_terminated(buffer: &str) -> bool {
    let clean = strip_comments(buffer);
    let mut in_string = false;
    let mut terminated = false;
    for b in clean.bytes() {
        match b {
            b'\'' => in_string = !in_string,
            b';' if !in_string => terminated = true,
            _ if b.is_ascii_whitespace() => {}
            _ => terminated = false,
        }
    }
    terminated
}

/// Keywords of the assess syntax, matched case-insensitively by the parser.
/// `normalize` lowercases exactly these words so `ASSESS` and `assess`
/// produce the same cache key while member and measure identifiers keep
/// their case (identifier resolution is case-sensitive).
pub const KEYWORDS: &[&str] = &[
    "with",
    "for",
    "by",
    "assess",
    "against",
    "using",
    "labels",
    "in",
    "past",
    "sibling",
    "ancestor",
    "benchmark",
    "property",
    "inf",
];

/// Reduces a statement to its cache-key normal form:
///
/// * `--` comments are removed;
/// * every maximal run of whitespace (including none, around punctuation)
///   becomes exactly one separating space between tokens;
/// * keywords are lowercased (the parser matches them case-insensitively);
/// * string literals are kept verbatim, quotes included;
/// * a `+` or `-` right after a word's final `e` or `E` stays in the word,
///   so a number keeps its exponent sign as the lexer reads it: `1e-5` is
///   one token and `1e - 5` three.
///
/// Every other character is kept, `;` included, so a text the parser
/// refuses (`… labels q;`) never shares a normal form with one it accepts.
/// Two statements normalize to identical strings only if they lex to the
/// same tokens, up to the ASCII case of an identifier spelled like a
/// keyword — the equivalence the server's shared result cache keys on. The
/// normal form is *not* parsed: ill-formed input still normalizes
/// deterministically (and then misses the cache or fails in the parser as
/// usual).
pub fn normalize(statement: &str) -> String {
    let clean = strip_comments(statement);
    let mut out = String::with_capacity(clean.len());
    let mut chars = clean.chars().peekable();
    let push_token = |out: &mut String, token: &str| {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(token);
    };
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '\'' {
            // String literal, kept verbatim (with `''` escapes).
            let mut lit = String::new();
            lit.push(c);
            chars.next();
            while let Some(&d) = chars.peek() {
                lit.push(d);
                chars.next();
                if d == '\'' {
                    if chars.peek() == Some(&'\'') {
                        lit.push('\'');
                        chars.next();
                    } else {
                        break;
                    }
                }
            }
            push_token(&mut out, &lit);
        } else if c.is_alphanumeric() || c == '_' || c == '#' || c == '.' {
            // Word-ish run: identifiers, numbers, dotted references. Dots
            // stay inside the run so `SSB_EXPECTED.revenue` and `1.5` stay
            // single tokens, and so does a `+`/`-` right after an `e` or
            // `E`: the lexer reads `1e-5` as one number. An identifier
            // ending in `e` keeps the sign too, which can only key texts
            // apart, never join them.
            let mut word = String::new();
            while let Some(&d) = chars.peek() {
                if d.is_alphanumeric()
                    || d == '_'
                    || d == '#'
                    || d == '.'
                    || ((d == '+' || d == '-') && word.ends_with(['e', 'E']))
                {
                    word.push(d);
                    chars.next();
                } else {
                    break;
                }
            }
            if KEYWORDS.iter().any(|k| word.eq_ignore_ascii_case(k)) {
                word.make_ascii_lowercase();
            } else if let Some((prefix, rest)) = word.split_once('.') {
                // `BENCHMARK.m` — the prefix is keyword-like (the parser
                // matches it case-insensitively), the measure is not.
                if prefix.eq_ignore_ascii_case("benchmark") {
                    word = format!("benchmark.{rest}");
                }
            }
            push_token(&mut out, &word);
        } else {
            // Punctuation: one token per character, so `assess*` and
            // `assess *` normalize identically.
            push_token(&mut out, &c.to_string());
            chars.next();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_semicolons_outside_strings() {
        let src = "with A by x assess m labels q;\nwith B by y assess m labels {[0,1]: 'a;b'};";
        let parts = split_statements(src);
        assert_eq!(parts.len(), 2);
        assert!(parts[0].1.starts_with("with A"));
        assert!(parts[1].1.contains("'a;b'"));
        assert_eq!(parts[1].0, src.find("with B").unwrap());
    }

    #[test]
    fn blanks_comments_but_keeps_offsets() {
        let src = "-- header comment\nwith A by x assess m labels q;";
        let parts = split_statements(src);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].0, src.find("with A").unwrap());
    }

    #[test]
    fn quoted_double_dash_is_not_a_comment() {
        let src = "with A for l = '--x' by x assess m labels q;";
        let parts = split_statements(src);
        assert_eq!(parts.len(), 1);
        assert!(parts[0].1.contains("'--x'"));
    }

    #[test]
    fn termination_respects_strings_and_comments() {
        assert!(is_terminated("with A by x assess m labels q;"));
        assert!(is_terminated("with A by x assess m labels q; -- done"));
        assert!(is_terminated("with A by x assess m labels q;   "));
        assert!(!is_terminated("with A by x assess m labels q"));
        assert!(!is_terminated("with A for l = 'a;"));
        assert!(!is_terminated("with A by x -- not done;"));
    }

    #[test]
    fn normalize_collapses_whitespace_and_comments() {
        let a = "with SSB  by year,  mfgr\n  assess revenue against 5 labels q;";
        let b = "with SSB by year, mfgr -- target\nassess revenue against 5 labels q ;";
        assert_eq!(normalize(a), normalize(b));
        assert_eq!(normalize(a), "with SSB by year , mfgr assess revenue against 5 labels q ;");
        // A `;` is a token like any other punctuation: the parser refuses it.
        assert_ne!(normalize(a), normalize(a.trim_end_matches(';')));
    }

    #[test]
    fn normalize_lowercases_keywords_only() {
        let a = "WITH SSB BY year ASSESS revenue AGAINST 5 LABELS q";
        let b = "with SSB by year assess revenue against 5 labels q";
        assert_eq!(normalize(a), normalize(b));
        // Identifier case is preserved: `SSB` stays upper, `Year` ≠ `year`.
        assert_ne!(normalize("with ssb by year assess m labels q"), normalize(b));
    }

    #[test]
    fn normalize_keeps_strings_verbatim() {
        let a = "with SSB for c_region = 'ASIA  --x' by year assess m labels q";
        let n = normalize(a);
        assert!(n.contains("'ASIA  --x'"), "{n}");
        // Case inside strings matters.
        assert_ne!(normalize(a), normalize(&a.replace("ASIA", "asia")));
    }

    #[test]
    fn normalize_is_punctuation_insensitive() {
        assert_eq!(
            normalize("with SSB by year assess* m against past 4 labels q"),
            normalize("with SSB by year ASSESS * m against PAST 4 labels q")
        );
        assert_ne!(normalize("with SSB by year labels q"), normalize("with SSB by year labels q;"));
        assert_eq!(normalize("labels {[0, 0.9): bad}"), normalize("labels { [ 0 , 0.9 ) : bad }"));
    }

    #[test]
    fn normalize_keys_apart_texts_the_parser_refuses() {
        let t = "with SSB by year assess revenue against 5 labels q";
        // Each pair lexes differently: the first of each is refused.
        for (refused, accepted) in [
            (format!("{t};"), t.to_string()),
            (t.replace("SSB by", "SSB; by"), t.to_string()),
            (t.replace("5", "1e - 5"), t.replace("5", "1e-5")),
            (t.replace("5", "1.5e + 3"), t.replace("5", "1.5e+3")),
        ] {
            assert_ne!(normalize(&refused), normalize(&accepted), "{refused}");
        }
        assert_eq!(normalize("against 1e-5"), "against 1e-5");
        assert_eq!(normalize("against .5E+3"), "against .5E+3");
        assert_eq!(normalize("against a.1e-5"), "against a.1e-5");
    }
}
