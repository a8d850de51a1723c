//! Minimal JSON support: string escaping and number formatting for the
//! exporters, plus a small recursive-descent parser used by the schema
//! validator and tests. The workspace builds offline with no external
//! crates, so this stands in for serde at the scale telemetry needs.

use std::collections::BTreeMap;
use std::fmt;

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so the cap keeps a hostile document from
/// overflowing the stack; the workspace's own documents nest under 10.
const MAX_DEPTH: usize = 128;

/// Renders `s` as a quoted JSON string with the mandatory escapes.
#[must_use]
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Renders a float as a JSON value (`null` for non-finite readings —
/// JSON has no NaN/Infinity literals).
#[must_use]
pub fn number(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        // `{}` prints integers bare; keep them valid JSON numbers as-is.
        if s == "-0" {
            s = "0".to_owned();
        }
        s
    } else {
        "null".to_owned()
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` (also produced for non-finite numbers on export).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order preserved via sorted map).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup; `None` for non-objects or missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value map, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }
}

/// Where and why parsing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is an error.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing content after document"));
    }
    Ok(value)
}

fn err(offset: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        offset,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), ParseError> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected `{}`", c as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(err(*pos, format!("nesting deeper than {MAX_DEPTH} levels")))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(_) => Err(err(*pos, "unexpected character")),
        None => Err(err(*pos, "unexpected end of input")),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, ParseError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected `{word}`")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "bad utf-8"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, format!("bad number `{text}`")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
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
                    Some(b'u') => out.push(parse_unicode_escape(bytes, pos)?),
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash. Both
                // are ASCII, so the run is whole UTF-8 scalars.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| err(start, "bad utf-8 in string"))?;
                out.push_str(run);
            }
        }
    }
}

/// Decodes the `\u` escape whose `u` is at `pos`, leaving `pos` on its
/// last hex digit. A character outside the BMP arrives as an escaped
/// UTF-16 high surrogate followed by an escaped low one; a surrogate
/// without its partner is not a character and is an error.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Result<char, ParseError> {
    let unit = |at: usize| hex4(bytes, at).ok_or_else(|| err(at, "bad \\u escape"));
    let mut code = unit(*pos + 1)?;
    *pos += 4;
    if (0xD800..0xDC00).contains(&code) && bytes.get(*pos + 1..*pos + 3) == Some(b"\\u") {
        let low = unit(*pos + 3)?;
        if (0xDC00..0xE000).contains(&low) {
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            *pos += 6;
        }
    }
    char::from_u32(code).ok_or_else(|| err(*pos, "unpaired surrogate in \\u escape"))
}

/// The value of the four hex digits at `at`, if four are there.
fn hex4(bytes: &[u8], at: usize) -> Option<u32> {
    let digits = bytes.get(at..at + 4)?;
    digits
        .iter()
        .try_fold(0, |code, &b| Some(code << 4 | char::from(b).to_digit(16)?))
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected `,` or `]`")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(err(*pos, "expected `,` or `}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips() {
        let raw = "a \"quoted\"\nline\twith \\ and unicode µ";
        let quoted = string(raw);
        let parsed = parse(&quoted).unwrap();
        assert_eq!(parsed, Json::Str(raw.to_owned()));
    }

    #[test]
    fn numbers_render_and_parse() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(parse("1e-3").unwrap(), Json::Num(1e-3));
        assert_eq!(parse("-42").unwrap(), Json::Num(-42.0));
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, true, null, "x"], "b": {"c": 2.5}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_num(), Some(2.5));
    }

    #[test]
    fn control_characters_are_escaped() {
        let quoted = string("bell\u{7}");
        assert!(quoted.contains("\\u0007"), "{quoted}");
        assert_eq!(parse(&quoted).unwrap(), Json::Str("bell\u{7}".to_owned()));
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert_eq!(
            err.message,
            format!("nesting deeper than {MAX_DEPTH} levels")
        );
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn a_one_mib_string_parses_in_linear_time() {
        let line = "line µ \"quoted\"\twith escapes\n";
        let text = line.repeat((1 << 20) / line.len() + 1);
        let doc = format!("{{\"spec\":{}}}", string(&text));
        let started = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        let took = started.elapsed();
        assert_eq!(
            parsed.get("spec").and_then(Json::as_str),
            Some(text.as_str())
        );
        assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        // How encoders such as Python's `json.dumps` send U+1F600.
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("\u{1f600}".to_owned())
        );
        assert_eq!(
            parse(r#""a\uD83D\uDE00b\u00e9""#).unwrap(),
            Json::Str("a\u{1f600}b\u{e9}".to_owned())
        );
    }

    #[test]
    fn unpaired_surrogates_are_errors() {
        for doc in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
        ] {
            let err = parse(doc).unwrap_err();
            assert_eq!(err.message, "unpaired surrogate in \\u escape", "{doc}");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        for doc in [r#""\u+041""#, r#""\u004""#, r#""\u00 41""#, r#""\u""#] {
            let err = parse(doc).unwrap_err();
            assert_eq!(err.message, "bad \\u escape", "{doc}");
        }
        assert_eq!(parse(r#""\u0041""#).unwrap(), Json::Str("A".to_owned()));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("nulle").is_err());
    }
}
