//! Minimal JSON support: a value model, a writer, and a
//! recursive-descent parser.
//!
//! The workspace is offline (no serde); this module is just enough JSON
//! for trace sinks, metric snapshots, and the CI trace validator. The
//! writer emits compact output with keys in insertion order; non-finite
//! numbers become `null` (JSON has no NaN/inf).

use std::fmt;

/// A JSON value. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (written as an integer when it is one).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion-ordered `(key, value)` pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object (`None` for non-objects or missing
    /// keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Whether this is an object.
    pub fn is_object(&self) -> bool {
        matches!(self, JsonValue::Object(_))
    }
}

/// Appends a JSON string literal (with escapes) to `out`.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a JSON number to `out` (`null` for NaN/inf, integer form
/// when the value is integral).
pub fn write_number(out: &mut String, n: f64) {
    use std::fmt::Write as _;
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl JsonValue {
    /// Serializes compactly into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => write_number(out, *n),
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The workspace writes
/// four levels at most (the metrics snapshot); the cap keeps a hostile
/// document from overflowing the parser's stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document (RFC 8259); trailing non-whitespace is an
/// error.
///
/// Numbers follow the JSON grammar (no `+1`, `01`, `.5` or `1.`),
/// strings hold no unescaped control characters, and an escaped
/// surrogate pair decodes to the one scalar it encodes. Safe on hostile
/// input: nesting deeper than 128 levels, non-finite numbers (`1e999`),
/// `\u` escapes without four hex digits and lone surrogates are errors,
/// every error message is one line, and time is linear in the input's
/// length.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut pos = 0;
    let value = parse_value(input, &mut pos, 0)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos != input.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

/// Parses the value at `pos`, which sits inside `depth` open arrays and
/// objects.
fn parse_value(input: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'"') => Ok(JsonValue::String(parse_string(input, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(parse_value(input, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(input, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(input, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Object(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(input, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_string(input: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = input.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => out.push(parse_unicode_escape(input, pos)?),
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(c) if *c < 0x20 => {
                return Err(format!("unescaped control character at byte {}", *pos))
            }
            Some(_) => {
                // Copy the run up to the next quote, backslash or control
                // character in one go: all are ASCII, so the run ends on a
                // char boundary.
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\' | 0..=0x1f) {
                    *pos += 1;
                }
                out.push_str(&input[start..*pos]);
            }
        }
    }
}

/// Decodes the `\u` escape whose `u` is at `pos`, with the escaped low
/// surrogate after it when it is a high one, and leaves `pos` on the last
/// hex digit read.
fn parse_unicode_escape(input: &str, pos: &mut usize) -> Result<char, String> {
    let at = *pos;
    let unit = |from: usize| {
        input
            .get(from..from + 4)
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
    };
    let hi = unit(at + 1).ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
    *pos += 4;
    let lone = || format!("lone surrogate \\u{hi:04x} at byte {at}");
    let code = match hi {
        // A high surrogate and the escaped low one after it encode one
        // scalar past U+FFFF.
        0xD800..=0xDBFF => {
            let lo = unit(at + 7)
                .filter(|lo| {
                    input.get(at + 5..at + 7) == Some("\\u") && (0xDC00..=0xDFFF).contains(lo)
                })
                .ok_or_else(lone)?;
            *pos += 6;
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        }
        0xDC00..=0xDFFF => return Err(lone()),
        code => code,
    };
    Ok(char::from_u32(code).expect("no surrogate is left"))
}

fn parse_number(input: &str, pos: &mut usize) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    if start == *pos {
        return Err(format!("expected value at byte {start}"));
    }
    // A valid number is never followed by one of the scanned characters,
    // so the scanned run is a number exactly when it matches the grammar.
    let text = &input[start..*pos];
    if !is_json_number(text.as_bytes()) {
        return Err(format!("invalid number {text:?} at byte {start}"));
    }
    // JSON has no NaN or infinity, and `write` could only emit `null`.
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(JsonValue::Number(n)),
        _ => Err(format!("non-finite number {text:?}")),
    }
}

/// Whether `text` is a number of RFC 8259's grammar:
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn is_json_number(text: &[u8]) -> bool {
    let mut i = usize::from(text.first() == Some(&b'-'));
    let digits = |i: &mut usize| {
        let from = *i;
        while text.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i - from
    };
    let int = i;
    let int_digits = digits(&mut i);
    if int_digits == 0 || (int_digits > 1 && text[int] == b'0') {
        return false;
    }
    if text.get(i) == Some(&b'.') {
        i += 1;
        if digits(&mut i) == 0 {
            return false;
        }
    }
    if matches!(text.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(text.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if digits(&mut i) == 0 {
            return false;
        }
    }
    i == text.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_is_compact_and_ordered() {
        let v = JsonValue::Object(vec![
            ("event".into(), JsonValue::String("ping".into())),
            ("n".into(), JsonValue::Number(1.0)),
            ("ok".into(), JsonValue::Bool(true)),
            ("x".into(), JsonValue::Null),
        ]);
        assert_eq!(
            v.to_string(),
            "{\"event\":\"ping\",\"n\":1,\"ok\":true,\"x\":null}"
        );
    }

    #[test]
    fn numbers_render_integers_without_dot() {
        let mut out = String::new();
        write_number(&mut out, 42.0);
        assert_eq!(out, "42");
        out.clear();
        write_number(&mut out, 1.5);
        assert_eq!(out, "1.5");
        out.clear();
        write_number(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn strings_escape_control_chars() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn parser_roundtrips_writer_output() {
        let v = JsonValue::Object(vec![
            ("s".into(), JsonValue::String("hé\n\"x\"".into())),
            (
                "a".into(),
                JsonValue::Array(vec![
                    JsonValue::Number(1.0),
                    JsonValue::Number(-2.5),
                    JsonValue::Bool(false),
                    JsonValue::Null,
                ]),
            ),
            ("o".into(), JsonValue::Object(vec![])),
        ]);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nope").is_err());
        assert!(parse("1e999").is_err());
        assert!(parse("-1e999").is_err());
        assert!(parse("\"\\u+041\"").is_err());
        assert!(parse("\"\\u004\"").is_err());
        assert_eq!(parse("\"\\u0041\"").unwrap(), JsonValue::String("A".into()));
        // Numbers outside the JSON grammar, which `f64::from_str` takes.
        for bad in [
            "+1", "01", "-01", ".5", "1.", "-", "1e", "1e+", "1.e5", "--1", "[01]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        for (good, n) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("0.5", 0.5),
            ("-1.25e+3", -1250.0),
        ] {
            assert_eq!(parse(good).unwrap(), JsonValue::Number(n), "{good:?}");
        }
        assert_eq!(parse("10E-1").unwrap(), JsonValue::Number(1.0));
        // Unescaped control characters.
        assert!(parse("\"a\u{1}b\"").is_err());
        assert!(parse("\"\t\"").is_err());
        assert!(parse("\"\n\"").is_err());
        // Lone surrogates, and a high one followed by something else.
        assert!(parse("\"\\ud83d\"").is_err());
        assert!(parse("\"\\ude00\"").is_err());
        assert!(parse("\"\\ud83dx\"").is_err());
        assert!(parse("\"\\ud83d\\u0041\"").is_err());
        assert!(parse("\"\\ud83d\\ud83d\"").is_err());
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        let face = JsonValue::String("\u{1F600}".into());
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap(), face);
        assert_eq!(parse("\"\\uD83D\\uDE00\"").unwrap(), face);
        assert_eq!(parse(&face.to_string()).unwrap(), face);
        // The pair sits among other escapes and text.
        assert_eq!(
            parse("\"a\\ud83d\\ude00\\n\\udbff\\udfffz\"").unwrap(),
            JsonValue::String("a\u{1F600}\n\u{10FFFF}z".into())
        );
    }

    /// Every way the corpus disturbs a seed: each truncation, each
    /// single-character deletion, and each substitution or insertion of
    /// a character from `alphabet`.
    fn mutants(seed: &str, alphabet: &str) -> Vec<String> {
        let cuts: Vec<usize> = seed
            .char_indices()
            .map(|(i, _)| i)
            .chain([seed.len()])
            .collect();
        let mut out = Vec::new();
        for (n, &i) in cuts.iter().enumerate() {
            let (head, tail) = seed.split_at(i);
            out.push(head.to_owned());
            out.extend(alphabet.chars().map(|c| format!("{head}{c}{tail}")));
            if let Some(&j) = cuts.get(n + 1) {
                out.push(format!("{head}{}", &seed[j..]));
                out.extend(alphabet.chars().map(|c| format!("{head}{c}{}", &seed[j..])));
            }
        }
        out
    }

    /// The parser's hostile-input corpus: mutants of a trace line and a
    /// metrics snapshot as `obs` renders them and of literals, documents
    /// nested 100,000 deep and a 100,000-character string. No input may
    /// panic or overflow the stack; an accepted document re-serializes
    /// and re-parses to an equal value, and every error is one line.
    #[test]
    fn hostile_corpus_parses_or_errors_in_one_line() {
        use crate::registry::MetricsRegistry;
        use crate::trace::{JsonLinesSink, TraceEvent, TraceSink};

        let mut sink = JsonLinesSink::new(Vec::new());
        sink.emit(
            &TraceEvent::new("point_done")
                .with("method", "HCAM")
                .with("rt", 3u64)
                .with("ms", 0.25)
                .with("ok", true),
        );
        let trace = String::from_utf8(sink.into_inner()).unwrap();
        let metrics = MetricsRegistry::new();
        metrics.counter_add("kernel.plan_hits", 7);
        metrics.gauge_max("serve.peak", 2);
        metrics.observe("rt", 5);
        metrics.wall_add("sweep.point_ms", 1.5);
        let snapshot = metrics.snapshot().to_json().to_string();
        let literals = [
            "1e999",
            "-0.5e-3",
            "\"h\\u00e9\\n\"",
            "[true,false,null]",
            "{}",
        ];
        let mut seeds = vec![trace.trim_end().to_owned(), snapshot];
        seeds.extend(literals.map(String::from));

        let alphabet = "{}[]:,\"\\/ 019-+.eEtfnu";
        let mut inputs: Vec<String> = seeds.iter().flat_map(|s| mutants(s, alphabet)).collect();
        inputs.push("[".repeat(100_000));
        inputs.push("{\"a\":".repeat(100_000));
        inputs.push(format!("\"{}\"", "é".repeat(100_000)));
        let mut accepted = 0;
        for input in &inputs {
            match parse(input) {
                Ok(v) => {
                    accepted += 1;
                    assert_eq!(parse(&v.to_string()).as_ref(), Ok(&v), "input {input:?}");
                }
                Err(e) => assert!(!e.is_empty() && !e.contains('\n'), "{e:?} for {input:?}"),
            }
        }
        assert!(accepted > 0 && accepted < inputs.len());
    }

    #[test]
    fn get_and_accessors() {
        let v = parse("{\"event\":\"e\",\"n\":3}").unwrap();
        assert!(v.is_object());
        assert_eq!(v.get("event").and_then(JsonValue::as_str), Some("e"));
        assert_eq!(v.get("n").and_then(JsonValue::as_f64), Some(3.0));
        assert!(v.get("missing").is_none());
    }
}
