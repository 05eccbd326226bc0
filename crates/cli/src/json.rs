//! Minimal JSON support — emission and a small parser — with no external
//! dependencies. The scanner's machine-readable output is flat and fully
//! known at compile time, so a hand-rolled emitter is simpler than a
//! serialization framework.
//!
//! The parser, [`Value::parse`], decodes every `--serve` request line
//! (and lets tests round-trip the output instead of string-matching it).
//! Request lines come from outside the program, so it guarantees two
//! things on any input: it runs in time linear in the input (each byte
//! is looked at a bounded number of times; string contents are copied a
//! run at a time), and it never recurses deeper than [`MAX_DEPTH`] —
//! deeper nesting is a position-annotated error, not a stack overflow.

use std::fmt::Write as _;

/// Escapes `s` as the *contents* of a JSON string literal (no quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses one JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a position-annotated message on malformed input, and on
    /// arrays or objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut pos = 0usize;
        let v = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }
}

/// The deepest array/object nesting [`Value::parse`] accepts. The parser
/// recurses once per level, so without a cap a request line of a few
/// hundred thousand `[` overflows the stack and aborts the process.
pub const MAX_DEPTH: usize = 128;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

/// Parses the value at `*pos`, which sits inside `depth` open arrays or
/// objects.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Value, String> {
    let b = text.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(format!("unexpected end of input at byte {}", *pos)),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'"') => Ok(Value::Str(parse_string(text, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(text, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(text, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(text, pos),
    }
}

/// Reads a number in the JSON grammar only:
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`. Spellings
/// `f64::from_str` would also take (`+1`, `.5`, `1.`, `01`, `1e`, `inf`)
/// are errors.
fn parse_number(text: &str, pos: &mut usize) -> Result<Value, String> {
    let b = text.as_bytes();
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match b.get(*pos) {
        Some(b'0') if b.get(*pos + 1).is_some_and(u8::is_ascii_digit) => {
            return Err(format!("leading zero in number at byte {start}"));
        }
        Some(b'0'..=b'9') => {
            digits(pos);
        }
        _ => return Err(format!("invalid number at byte {start}")),
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(pos) == 0 {
            return Err(format!("missing fraction digits at byte {}", *pos));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(pos) == 0 {
            return Err(format!("missing exponent digits at byte {}", *pos));
        }
    }
    // Every byte taken is ASCII, so the slice is on char boundaries.
    let s = &text[start..*pos];
    s.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number `{s}` at byte {start}"))
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

/// Reads the four hex digits of a `\uXXXX` escape starting at `at`:
/// exactly four ASCII hex digits, no sign.
fn parse_hex4(text: &str, at: usize) -> Result<u32, String> {
    let Some(hex) = text.as_bytes().get(at..at + 4) else {
        return Err(format!("truncated \\u escape at byte {at}"));
    };
    if !hex.iter().all(u8::is_ascii_hexdigit) {
        return Err(format!("bad \\u escape at byte {at}"));
    }
    // Four ASCII hex digits: one char each, and they fit a u32.
    Ok(hex.iter().fold(0, |n, &d| {
        n * 16 + (d as char).to_digit(16).expect("hex digit")
    }))
}

/// Decodes the string literal at `*pos` in one pass: each run of bytes
/// between delimiters is copied as one slice of `text`. The delimiters
/// `"` and `\` are ASCII, so every run starts and ends on a char
/// boundary and is already valid UTF-8.
fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let b = text.as_bytes();
    let open = *pos;
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        let run = *pos;
        while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
            *pos += 1;
        }
        out.push_str(&text[run..*pos]);
        match b.get(*pos) {
            None => return Err(format!("unterminated string starting at byte {open}")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            // The run stopped at `\`: an escape.
            _ => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let n = parse_hex4(text, *pos + 1)?;
                        *pos += 4;
                        match n {
                            // High surrogate: must pair with an
                            // immediately following `\uXXXX` low
                            // surrogate; the pair combines into one
                            // astral-plane scalar. Decoding the halves
                            // independently would mangle every character
                            // above U+FFFF into two replacement chars.
                            0xD800..=0xDBFF => {
                                if b.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                                    return Err(format!(
                                        "lone high surrogate \\u{n:04x} at byte {}",
                                        *pos - 4
                                    ));
                                }
                                let lo = parse_hex4(text, *pos + 3)?;
                                if !(0xDC00..=0xDFFF).contains(&lo) {
                                    return Err(format!(
                                        "high surrogate \\u{n:04x} followed by \\u{lo:04x} \
                                         (not a low surrogate) at byte {}",
                                        *pos - 4
                                    ));
                                }
                                *pos += 6;
                                let c = 0x10000 + ((n - 0xD800) << 10) + (lo - 0xDC00);
                                out.push(char::from_u32(c).expect("valid surrogate pair"));
                            }
                            // Low surrogate with no preceding high half.
                            0xDC00..=0xDFFF => {
                                return Err(format!(
                                    "lone low surrogate \\u{n:04x} at byte {}",
                                    *pos - 4
                                ));
                            }
                            _ => out.push(char::from_u32(n).expect("non-surrogate BMP scalar")),
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn parses_round_trip() {
        let text = r#"{"a": [1, 2.5, -3], "b": "x\ny", "c": true, "d": null, "e": {}}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("d"), Some(&Value::Null));
        assert_eq!(v.get("e"), Some(&Value::Obj(Vec::new())));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("12 34").is_err());
        assert!(Value::parse("\"abc").is_err());
    }

    #[test]
    fn escaped_output_parses_back() {
        let original = "weird \"quotes\" and \\slashes\\ and\nnewlines";
        let doc = format!("{{\"s\": \"{}\"}}", escape(original));
        let v = Value::parse(&doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(original));
    }

    #[test]
    fn surrogate_pairs_combine_into_astral_scalars() {
        // U+1F600 (emoji) and U+10348 (Gothic hwair) as escaped pairs.
        let v = Value::parse("\"\\uD83D\\uDE00 and \\uD800\\uDF48\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600} and \u{10348}"));
        // BMP escapes are unaffected.
        let v = Value::parse("\"A\\uFFFD\"").unwrap();
        assert_eq!(v.as_str(), Some("A\u{FFFD}"));
    }

    #[test]
    fn astral_text_round_trips_through_escape_and_parse() {
        // `escape` passes astral chars through as raw UTF-8; the parser
        // must accept both that and the escaped-pair spelling, decoding
        // to the same string.
        let original = "emoji \u{1F600}, Gothic \u{10348}, music \u{1D11E}";
        let doc = format!("{{\"s\": \"{}\"}}", escape(original));
        let v = Value::parse(&doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(original));
        let escaped =
            "{\"s\": \"emoji \\uD83D\\uDE00, Gothic \\uD800\\uDF48, music \\uD834\\uDD1E\"}";
        let v = Value::parse(escaped).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(original));
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        // Bare high half: end of string, non-escape follower, wrong escape.
        assert!(Value::parse("\"\\uD83D\"").is_err());
        assert!(Value::parse("\"\\uD83Dx\"").is_err());
        assert!(Value::parse("\"\\uD83D\\n\"").is_err());
        // Bare low half.
        assert!(Value::parse("\"\\uDE00\"").is_err());
        // Two high halves in a row.
        assert!(Value::parse("\"\\uD83D\\uD83D\"").is_err());
    }

    #[test]
    fn nesting_is_capped_with_a_positioned_error() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Value::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        // Objects count too, and a line far past the cap (which used to
        // overflow the stack) is an ordinary error.
        let objs = format!(
            "{}1{}",
            "{\"k\": ".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Value::parse(&objs).unwrap_err().contains("nesting deeper"));
        assert!(Value::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn signed_unicode_escape_is_rejected() {
        // `from_str_radix` took a leading `+`, so this decoded to "A".
        let err = Value::parse("\"\\u+041\"").unwrap_err();
        assert!(err.contains("at byte 3"), "{err}");
        assert_eq!(Value::parse("\"\\u0041\""), Ok(Value::Str("A".into())));
    }

    #[test]
    fn plus_signed_number_is_rejected() {
        let err = Value::parse("+1").unwrap_err();
        assert!(err.contains("at byte 0"), "{err}");
    }

    #[test]
    fn number_without_integer_part_is_rejected() {
        let err = Value::parse("[.5]").unwrap_err();
        assert!(err.contains("at byte 1"), "{err}");
    }

    #[test]
    fn number_without_fraction_digits_is_rejected() {
        let err = Value::parse("1.").unwrap_err();
        assert!(err.contains("at byte 2"), "{err}");
        assert!(Value::parse("[1.]").is_err());
    }

    #[test]
    fn number_with_leading_zero_is_rejected() {
        let err = Value::parse("01").unwrap_err();
        assert!(err.contains("at byte 0"), "{err}");
        assert!(Value::parse("-01").is_err());
        assert_eq!(Value::parse("0"), Ok(Value::Num(0.0)));
        assert_eq!(Value::parse("-0.5"), Ok(Value::Num(-0.5)));
    }

    #[test]
    fn number_without_exponent_digits_is_rejected() {
        let err = Value::parse("1e").unwrap_err();
        assert!(err.contains("at byte 2"), "{err}");
        assert!(Value::parse("1e+").is_err());
        assert_eq!(Value::parse("1e3"), Ok(Value::Num(1000.0)));
        assert_eq!(Value::parse("2.5E-1"), Ok(Value::Num(0.25)));
    }

    #[test]
    fn every_error_names_a_byte_offset() {
        for bad in [
            "",
            "[1, ",
            "\"abc",
            "{\"k\": \"v",
            "\"\\u12",
            "\"\\uzzzz\"",
            "\"\\u00é\"",
            "\"\\uD83D\\u12",
            "-",
            "[1,]",
            "nul",
            "{1: 2}",
        ] {
            let err = Value::parse(bad).unwrap_err();
            assert!(err.contains("at byte "), "{bad:?}: {err}");
        }
    }
}
