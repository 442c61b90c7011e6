//! Offline stand-in for the `serde_json` crate.
//!
//! Renders the workspace serde shim's [`Value`] tree to JSON text
//! ([`to_string`], [`to_string_pretty`]) and parses JSON text back into a
//! [`Value`] ([`from_str`]). The grammar is full JSON; numbers are kept as
//! `f64` like `serde_json`'s default arbitrary-precision-off mode.

use std::fmt::{self, Write as _};

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error { message: message.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.message)
    }
}

impl std::error::Error for Error {}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

pub type Result<T> = std::result::Result<T, Error>;

/// Serializes a value as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.as_value(), &mut out, None, 0);
    Ok(out)
}

/// Serializes a value as two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.as_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any [`Deserialize`] type; a [`Value`] is handed
/// the parsed tree itself.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let mut parser = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!("trailing characters at offset {}", parser.pos)));
    }
    T::from_owned(value).map_err(Error::new)
}

/// The deepest nesting of arrays and objects a document may have
/// (`serde_json`'s default). The parser recurses once per level, so the cap
/// is what keeps a hostile frame from overflowing a reader thread's stack.
pub const MAX_DEPTH: usize = 128;

/// Integral values below this magnitude are exact in an `f64` and are
/// written, and read, as plain integers.
const EXACT_INTEGER: f64 = 9_007_199_254_740_992.0; // 2^53

/// Digit strings this short are below 10^15 < 2^53, so the parser folds
/// them into an exact `f64` without `str::parse`.
const FAST_DIGITS: usize = 15;

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

/// Writes `n` as its `Display` form straight into `out`. `Display` never
/// uses an exponent, prints integral values without a fraction (`3`, not
/// `3.0`) and keeps the sign of zero (`-0`); an exact integer other than
/// `-0` prints the same digits as integer formatting, which is cheaper.
fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; serde_json renders them as null.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < EXACT_INTEGER && !(n == 0.0 && n.is_sign_negative()) {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Writes `s` quoted, copying each run of bytes that needs no escape in one
/// piece. Only `"`, `\` and control characters are escaped; every byte
/// that is one of them is ASCII, so the runs split on char boundaries.
fn write_escaped(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`, at most [`MAX_DEPTH`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!("expected `{}` at offset {}", b as char, self.pos)))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at offset {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid literal at offset {}", self.pos)))
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits = self.pos;
        let mut integer = 0u64;
        while let Some(b) = self.peek().filter(u8::is_ascii_digit) {
            integer = integer.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
            self.pos += 1;
        }
        let whole = (1..=FAST_DIGITS).contains(&(self.pos - digits))
            && !matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        if whole {
            // Below 10^15 the conversion is exact, and negating keeps `-0`.
            let n = integer as f64;
            return Ok(Value::Number(if negative { -n } else { n }));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| Error::new(format!("invalid number `{text}` at offset {start}")))
    }

    /// The four hex digits at `at`, as a code unit.
    fn hex4(&self, at: usize) -> Result<u32> {
        let digits =
            self.bytes.get(at..at + 4).ok_or_else(|| Error::new("truncated \\u escape"))?;
        digits.iter().try_fold(0u32, |code, &b| {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| Error::new(format!("invalid \\u escape at offset {at}")))?;
            Ok(code << 4 | digit)
        })
    }

    /// The low surrogate escaped at `at`, if one is there.
    fn low_surrogate(&self, at: usize) -> Option<u32> {
        if self.bytes.get(at..at + 2) != Some(b"\\u") {
            return None;
        }
        self.hex4(at + 2).ok().filter(|code| (0xDC00..=0xDFFF).contains(code))
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // A run ends at an ASCII byte or the end, so it is whole UTF-8.
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            // RFC 8259 §7: a character outside the BMP is
                            // escaped as a surrogate pair; a lone surrogate
                            // names no character and reads as U+FFFD.
                            let code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            let c = match code {
                                0xD800..=0xDBFF => {
                                    self.low_surrogate(self.pos + 1).and_then(|low| {
                                        self.pos += 6;
                                        char::from_u32(
                                            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00),
                                        )
                                    })
                                }
                                _ => char::from_u32(code),
                            };
                            out.push(c.unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(Error::new(format!(
                                "invalid escape {:?} at offset {}",
                                other.map(|b| b as char),
                                self.pos
                            )))
                        }
                    }
                    self.pos += 1;
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    /// Parses an array or object one level deeper, refusing past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::new(format!("expected `,` or `]` at {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error::new(format!("expected `,` or `}}` at {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Value::Object(vec![
            ("name".into(), Value::String("Łódź \"x\"\n".into())),
            ("nums".into(), Value::Array(vec![Value::Number(1.0), Value::Number(-2.5)])),
            ("ok".into(), Value::Bool(true)),
            ("nothing".into(), Value::Null),
        ]);
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let back: Value = from_str(&text).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn parses_standalone_documents() {
        let v: Value = from_str(" [1, 2.5e2, \"a\", null, {\"k\": false}] ").unwrap();
        assert_eq!(v[1], 250.0);
        assert_eq!(v[4]["k"].as_bool(), Some(false));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "12abc", "\"unterminated"] {
            assert!(from_str::<Value>(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(to_string(&Value::Number(56.0)).unwrap(), "56");
        assert_eq!(to_string(&Value::Number(0.5)).unwrap(), "0.5");
        assert_eq!(to_string(&Value::Number(-0.0)).unwrap(), "-0");
        assert_eq!(
            to_string(&Value::Number(-9_007_199_254_740_991.0)).unwrap(),
            "-9007199254740991"
        );
        assert_eq!(to_string(&Value::Number(1e300)).unwrap(), format!("{}", 1e300));
        let zero: Value = from_str("-0").unwrap();
        assert!(zero.as_f64().is_some_and(|z| z == 0.0 && z.is_sign_negative()));
    }

    /// RFC 8259 §7: a character outside the Basic Multilingual Plane is
    /// escaped as a UTF-16 surrogate pair, which is how Python's default
    /// `json.dumps` sends it.
    #[test]
    fn unicode_escapes_decode_surrogate_pairs() {
        let parse = |text: &str| from_str::<Value>(text).map(|v| v.as_str().map(str::to_string));
        assert_eq!(parse(r#""\ud83d\ude00""#), Ok(Some("\u{1F600}".into())));
        assert_eq!(parse(r#""a\u00e9\u0041""#), Ok(Some("aéA".into())));
        // A lone surrogate names no character.
        assert_eq!(parse(r#""\ud83d""#), Ok(Some("\u{FFFD}".into())));
        assert_eq!(parse(r#""\ude00x""#), Ok(Some("\u{FFFD}x".into())));
        assert_eq!(parse(r#""\ud83d\u0041""#), Ok(Some("\u{FFFD}A".into())));
        assert_eq!(parse(r#""\ud83d\ud83d\ude00""#), Ok(Some("\u{FFFD}\u{1F600}".into())));
        // Exactly four hex digits: no sign, no short form.
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u004""#, r#""\u00g1""#, r#""\u12"#] {
            assert!(from_str::<Value>(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(from_str::<Value>(&objects).is_err());
        // Siblings do not add up: depth is how many are open at once.
        let wide = format!("[{}]", vec![nested(MAX_DEPTH - 1); 3].join(","));
        assert!(from_str::<Value>(&wide).is_ok());
    }

    /// A frame of a hundred thousand brackets is refused, on a thread with
    /// the default stack a server's reader thread has, instead of
    /// overflowing it.
    #[test]
    fn deep_documents_are_refused_on_a_default_stack() {
        let text = format!(r#"{{"x":{}"#, "[".repeat(100_000));
        let parsed = std::thread::spawn(move || from_str::<Value>(&text).is_err()).join();
        assert_eq!(parsed.ok(), Some(true));
    }
}
