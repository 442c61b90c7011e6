//! Codec properties: the writer's output is byte-for-byte what the plain
//! tree-copying writer (kept below as the oracle) produced, compact and
//! pretty; a written tree parses back bit for bit; and the parser's
//! integer fast path reads what `str::parse::<f64>` reads.

use proptest::prelude::*;
use serde_json::{from_str, to_string, to_string_pretty, Value};

/// The writer as it stood before it wrote in place: `format!` per number,
/// one `char` at a time per string.
mod oracle {
    use serde_json::Value;

    pub fn write(value: &Value, indent: Option<usize>) -> String {
        let mut out = String::new();
        write_value(value, &mut out, indent, 0);
        out
    }

    fn write_value(value: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(n) => write_number(*n, out),
            Value::String(s) => write_escaped(s, out),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_value(item, out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, item)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(key, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(item, out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * depth));
        }
    }

    fn write_number(n: f64, out: &mut String) {
        if !n.is_finite() {
            out.push_str("null");
        } else {
            out.push_str(&format!("{n}"));
        }
    }

    fn write_escaped(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

const TWO_53: f64 = 9_007_199_254_740_992.0;

/// Finite numbers around every edge the writer and parser branch on.
fn number() -> impl Strategy<Value = f64> {
    let edges = vec![
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 3.0,
        TWO_53 - 1.0,
        TWO_53,
        TWO_53 + 2.0,
        -(TWO_53 - 1.0),
        -TWO_53,
        -(TWO_53 + 2.0),
        1e15 - 1.0,
        1e15,
        1e16 + 2.0,
        1e300,
        -1e300,
        f64::MAX,
        f64::MIN,
        1_234_567_890_123_456_789.0,
        0.1,
        -2.5,
    ];
    prop_oneof![
        (0..edges.len()).prop_map(move |i| edges[i]),
        any::<f64>(),
        (-1e15f64..1e15).prop_map(f64::trunc),
        (-1e20f64..1e20).prop_map(f64::trunc),
        any::<u64>().prop_map(f64::from_bits).prop_filter("finite", |n| n.is_finite()),
    ]
}

/// Strings mixing plain ASCII runs with everything the writer escapes and
/// multi-byte characters it must copy whole.
fn text() -> impl Strategy<Value = String> {
    let specials = ['"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}', '\u{7f}'];
    let wide = ['é', 'Ł', '€', '中', '\u{1F600}', '\u{FFFD}', '\u{10FFFF}'];
    let piece = prop_oneof![
        "[a-z0-9 /]{1,6}",
        (0..specials.len()).prop_map(move |i| specials[i].to_string()),
        (0u32..0x20).prop_map(|c| char::from_u32(c).map(String::from).unwrap_or_default()),
        (0..wide.len()).prop_map(move |i| wide[i].to_string()),
    ];
    collection::vec(piece, 0..6).prop_map(|pieces| pieces.concat())
}

fn leaf() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        number().prop_map(Value::Number),
        number().prop_map(Value::Number),
        text().prop_map(Value::String),
    ]
}

fn tree(depth: u32) -> BoxedStrategy<Value> {
    if depth == 0 {
        return leaf().boxed();
    }
    prop_oneof![
        leaf(),
        collection::vec(tree(depth - 1), 0..5).prop_map(Value::Array),
        collection::vec((text(), tree(depth - 1)), 0..5).prop_map(Value::Object),
    ]
    .boxed()
}

/// Equality that tells `-0` from `0`: the codec must keep every bit.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => x.to_bits() == y.to_bits(),
        (Value::Array(xs), Value::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
        }
        (Value::Object(xs), Value::Object(ys)) => {
            xs.len() == ys.len()
                && xs.iter().zip(ys).all(|((kx, x), (ky, y))| kx == ky && same_bits(x, y))
        }
        _ => a == b,
    }
}

/// Number texts the parser's fast path takes (an optional `-` and at most
/// fifteen digits, leading zeros included) and ones just past it.
fn number_text() -> impl Strategy<Value = String> {
    (any::<bool>(), "[0-9]{1,15}", "[0-9]{16,20}", 0u8..3).prop_map(|(minus, short, long, pick)| {
        let digits = match pick {
            0 => short,
            1 => long,
            _ => short.trim_start_matches('0').to_string() + "0",
        };
        format!("{}{digits}", if minus { "-" } else { "" })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn output_is_byte_identical_to_the_oracle(v in tree(3)) {
        prop_assert_eq!(to_string(&v).unwrap(), oracle::write(&v, None));
        prop_assert_eq!(to_string_pretty(&v).unwrap(), oracle::write(&v, Some(2)));
    }

    #[test]
    fn written_trees_parse_back_bit_for_bit(v in tree(3)) {
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let back: Value = from_str(&text).unwrap();
            prop_assert!(same_bits(&back, &v), "{text} read back as {back:?}");
        }
    }

    #[test]
    fn integer_fast_path_equals_str_parse(text in number_text()) {
        let parsed: Value = from_str(&text).unwrap();
        let expected = text.parse::<f64>().unwrap();
        prop_assert_eq!(parsed.as_f64().map(f64::to_bits), Some(expected.to_bits()), "{}", text);
    }
}

#[test]
fn non_finite_numbers_write_as_null() {
    for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let v = Value::Array(vec![Value::Number(n)]);
        assert_eq!(to_string(&v).unwrap(), "[null]");
        assert_eq!(to_string(&v).unwrap(), oracle::write(&v, None));
    }
}
