//! Concurrency guarantees behind the serving layer: one shared
//! [`AssessRunner`] must give N concurrent clients exactly the answers a
//! serial client would get, and the cache-key normalization that
//! `assess-serve` keys its shared result cache on must be invariant under
//! every cosmetic rewrite of a statement (whitespace, comments, keyword
//! case) while never conflating semantically different statements.

mod common;

use std::sync::Arc;

use assess_core::exec::AssessRunner;
use assess_core::stmt;
use olap_engine::Engine;
use proptest::prelude::*;

/// A mixed batch covering every benchmark type the SALES fixture supports.
fn batch() -> Vec<&'static str> {
    vec![
        "with SALES by country assess quantity against 200 \
         using ratio(quantity, 200) \
         labels {[0, 0.9): bad, [0.9, 1.1]: fine, (1.1, inf]: good}",
        "with SALES for country = 'Italy' by product, country \
         assess quantity against country = 'France' \
         using ratio(quantity, benchmark.quantity) labels quartiles",
        "with SALES for month = 'm5' by store, month \
         assess quantity against past 3 \
         using ratio(quantity, benchmark.quantity) \
         labels {[0, 0.9): worse, [0.9, 1.1]: flat, (1.1, inf]: better}",
        "with SALES by product assess quantity \
         using percOfTotal(quantity) labels quartiles",
    ]
}

fn run_to_csv(runner: &AssessRunner, text: &str) -> String {
    let statement = assess_sql::parse(text).expect("batch statement parses");
    let (cube, _) = runner.run_auto(&statement).expect("batch statement runs");
    cube.to_csv()
}

/// N threads hammering one shared runner with the same mixed batch get
/// byte-identical CSV output to serial execution — the executor pool of
/// `assess-serve` relies on exactly this.
#[test]
fn concurrent_batches_match_serial_execution() {
    let runner = Arc::new(AssessRunner::new(Engine::new(common::catalog())));
    let statements = batch();
    let serial: Vec<String> = statements.iter().map(|text| run_to_csv(&runner, text)).collect();

    const THREADS: usize = 16;
    const ROUNDS: usize = 4;
    let handles: Vec<_> = (0..THREADS)
        .map(|thread| {
            let runner = runner.clone();
            let statements = statements.clone();
            std::thread::spawn(move || {
                let mut out = Vec::new();
                for round in 0..ROUNDS {
                    // Rotate the starting statement per thread and round so
                    // different statements genuinely overlap in time.
                    for i in 0..statements.len() {
                        let idx = (thread + round + i) % statements.len();
                        out.push((idx, run_to_csv(&runner, statements[idx])));
                    }
                }
                out
            })
        })
        .collect();
    for handle in handles {
        for (idx, csv) in handle.join().expect("worker thread panicked") {
            assert_eq!(
                csv, serial[idx],
                "statement {idx} produced different bytes under concurrency"
            );
        }
    }
}

// --------------------------------------------------------- normalization

/// Keywords whose case the property test scrambles (identifiers like
/// `SALES` must keep their case — the parser treats them as names).
const KEYWORDS: &[&str] =
    &["with", "for", "by", "assess", "against", "using", "labels", "past", "benchmark"];

/// Canonical statement used as the normalization anchor.
const CANON: &str = "with SALES for country = 'Italy' by product, country \
                     assess quantity against past 3 \
                     using ratio(quantity, benchmark.quantity) labels quartiles";

/// Re-renders `CANON` with mutated inter-token whitespace, injected `--`
/// comments, and scrambled keyword case, driven by the `choices` stream.
fn mutate(choices: &[(u8, u8)]) -> String {
    let tokens: Vec<&str> = CANON.split_whitespace().collect();
    let mut out = String::new();
    for (i, token) in tokens.iter().enumerate() {
        let (ws, case) = choices.get(i).copied().unwrap_or((0, 0));
        if i > 0 {
            match ws % 4 {
                0 => out.push(' '),
                1 => out.push_str("  \t"),
                2 => out.push('\n'),
                _ => out.push_str(" -- a comment\n "),
            }
        }
        if KEYWORDS.contains(token) {
            match case % 3 {
                0 => out.push_str(token),
                1 => out.push_str(&token.to_ascii_uppercase()),
                _ => {
                    let mut chars = token.chars();
                    if let Some(first) = chars.next() {
                        out.push(first.to_ascii_uppercase());
                        out.push_str(chars.as_str());
                    }
                }
            }
        } else {
            out.push_str(token);
        }
    }
    out
}

/// Pieces of statement text for the key-soundness property, split on
/// spaces: keywords and identifiers, numbers whose exponent sign may be
/// spaced off (a `~` is a gap inside a piece), punctuation the lexer
/// refuses (`;`, `+`), and string literals holding `--` or `;`.
const PIECES: &str = "with SALES by assess against labels past inf benchmark quantity \
     1e~-~5 1.5e~+~3 .5E~-3 x1e~-~5 2e5e~-~3 e 5 - + ; ; . , ( ) * = 'a--b' 'x;y' 'it''s'";

/// Renders `pieces` as one text: the `sep`-th separator before each piece
/// and in its gaps (the existing cosmetic rewrites, plus none at all),
/// keywords in the `case`-th spelling, and a `;` left out when `drop` is 0.
fn render(pieces: &[(usize, u8, u8, u8)]) -> String {
    let all: Vec<&str> = PIECES.split(' ').collect();
    let mut out = String::new();
    for &(piece, sep, case, drop) in pieces {
        let text = all[piece];
        if text == ";" && drop == 0 {
            continue;
        }
        let sep = ["", " ", "  \t", "\n", " -- a comment\n "][usize::from(sep) % 5];
        out.push_str(sep);
        if stmt::KEYWORDS.contains(&text) {
            match case % 3 {
                0 => out.push_str(text),
                1 => out.push_str(&text.to_ascii_uppercase()),
                _ => out.push_str(&(text[..1].to_ascii_uppercase() + &text[1..])),
            }
        } else {
            out.push_str(&text.replace('~', sep));
        }
    }
    out
}

/// What the served pipeline's lexer reads from a text: its tokens, with an
/// identifier spelled like a keyword in lower case, or the lexer's message.
fn lexed(text: &str) -> Result<Vec<assess_sql::Token>, String> {
    let fold = |token| match token {
        assess_sql::Token::Ident(word)
            if stmt::KEYWORDS.iter().any(|k| word.eq_ignore_ascii_case(k)) =>
        {
            assess_sql::Token::Ident(word.to_ascii_lowercase())
        }
        other => other,
    };
    assess_sql::tokenize(&stmt::strip_comments(text))
        .map(|tokens| tokens.into_iter().map(fold).collect())
        .map_err(|e| e.message)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every cosmetic mutation normalizes to the same cache key and still
    /// parses — so `assess-serve`'s result cache serves one entry for all
    /// of them.
    #[test]
    fn normalization_is_invariant_under_cosmetic_rewrites(
        choices in proptest::collection::vec((0u8..8, 0u8..6), 40)
    ) {
        let mutated = mutate(&choices);
        prop_assert_eq!(stmt::normalize(&mutated), stmt::normalize(CANON));
        // The serving pipeline blanks comments (length-preserving) before
        // parsing; after that, every mutant must still parse.
        prop_assert!(
            assess_sql::parse(&stmt::strip_comments(&mutated)).is_ok(),
            "mutated statement no longer parses:\n{}",
            mutated
        );
    }

    /// The cache key is sound: two texts with one normal form lex to the
    /// same tokens, up to the case of an identifier spelled like a keyword
    /// (DESIGN §5e), so a hit answers nothing the parser would refuse or
    /// read differently. The second text repeats the first's pieces with
    /// its own separators, keyword case and `;`s.
    #[test]
    fn one_normal_form_means_one_token_stream(
        pieces in proptest::collection::vec(
            (0..PIECES.split(' ').count(), 0u8..5, 0u8..16, 0u8..3, 0u8..3, 0u8..3, 0u8..3),
            1..24,
        )
    ) {
        // A second separator of 5..16 repeats the first, so that many pairs
        // share a normal form.
        let a: Vec<_> =
            pieces.iter().map(|&(p, sep, _, case, _, drop, _)| (p, sep, case, drop)).collect();
        let b: Vec<_> = pieces
            .iter()
            .map(|&(p, sep, sep_b, _, case, _, drop)| {
                (p, if sep_b < 5 { sep_b } else { sep }, case, drop)
            })
            .collect();
        let (a, b) = (render(&a), render(&b));
        if stmt::normalize(&a) == stmt::normalize(&b) {
            prop_assert_eq!(lexed(&a), lexed(&b), "{:?} and {:?} share a key", a, b);
        }
    }

    /// Semantically different statements never normalize to the same key:
    /// changing any number, member name, or measure changes the key.
    #[test]
    fn normalization_keeps_semantic_differences(window in 1u32..9) {
        let other = CANON.replace("past 3", &format!("past {window}"));
        if window == 3 {
            prop_assert_eq!(stmt::normalize(&other), stmt::normalize(CANON));
        } else {
            prop_assert_ne!(stmt::normalize(&other), stmt::normalize(CANON));
        }
    }
}
