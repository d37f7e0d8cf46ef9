//! A minimal, dependency-free JSON reader and string escaper.
//!
//! The repo is built offline (no serde); every JSON document it writes
//! (bench rows, Chrome traces, `gcrd` replies, verifier reports) is
//! rendered by hand with [`escape_into`], so this parser only needs to
//! cover standard JSON: objects, arrays, strings with escapes, numbers,
//! booleans, and null. Nesting deeper than 128 containers is rejected
//! with an error rather than recursing without bound.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Deepest container nesting [`parse`] accepts. Every document the repo
/// writes or reads nests at most about 4 deep; the limit keeps the
/// recursive descent far inside any thread's stack.
const MAX_DEPTH: usize = 128;

/// Appends `s` to `out` escaped for a JSON string literal: `"`, `\`,
/// `\n`, `\r` and `\t` get their short escapes, other control
/// characters `\u00XX`; everything else is copied as is.
///
/// Every byte that needs escaping is ASCII, so the scan runs over bytes
/// and copies each maximal run between escapes with one `push_str`; a
/// run never splits a multi-byte character.
pub fn escape_into(out: &mut String, s: &str) {
    out.reserve(s.len());
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object. Key order is not preserved; the bench artifacts never
    /// rely on it.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object, if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first malformed byte.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the JSON document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal (expected null/true/false)"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            // Decode the maximal run of unescaped bytes with one UTF-8
            // check. `"` and `\` never occur inside a multi-byte UTF-8
            // sequence, so the run always ends on a character boundary.
            let start = self.pos;
            let rest = &self.bytes[start..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            let text = std::str::from_utf8(&rest[..run]).map_err(|e| JsonError {
                offset: start + e.valid_up_to(),
                message: "invalid UTF-8 in string",
            })?;
            out.push_str(text);
            self.pos = start + run;
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err(self.err("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let end = self.pos + 4;
                    let hex = self
                        .bytes
                        .get(self.pos..end)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or_else(|| self.err("truncated \\u escape"))?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
                    self.pos = end;
                    // Surrogate pairs never appear in the bench
                    // artifacts; map lone surrogates to U+FFFD.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return Err(self.err("unknown escape character")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_bench_shaped_document() {
        let doc = r#"{
            "params": {"stream_len": 5000, "seed": 7, "groups": 4},
            "runs": [
                {"benchmark": "r1", "objective": "nearest-neighbor",
                 "pruned": {"wall_ms": 12.5}, "identical_topology": true},
                {"benchmark": "r1", "objective": "equation-3",
                 "pruned": {"wall_ms": -3.25e1}, "identical_topology": false}
            ]
        }"#;
        let v = parse(doc).unwrap();
        let runs = v.get("runs").and_then(Json::as_array).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].get("benchmark").and_then(Json::as_str), Some("r1"));
        assert_eq!(
            runs[0]
                .get("pruned")
                .and_then(|p| p.get("wall_ms"))
                .and_then(Json::as_f64),
            Some(12.5)
        );
        assert_eq!(
            runs[1]
                .get("pruned")
                .and_then(|p| p.get("wall_ms"))
                .and_then(Json::as_f64),
            Some(-32.5)
        );
        assert_eq!(
            runs[1].get("identical_topology").and_then(Json::as_bool),
            Some(false)
        );
    }

    #[test]
    fn strings_decode_escapes_and_unicode() {
        let v = parse(r#""a\\b\n\t\"\u0041 π""#).unwrap();
        assert_eq!(v.as_str(), Some("a\\b\n\t\"A π"));
    }

    #[test]
    fn megabyte_string_decodes_in_one_pass() {
        // ASCII, 2-, 3- and 4-byte characters and escapes, ~1 MiB in all.
        let unit = "plain ascii π→😀 \"q\" \\ \n";
        let expected = unit.repeat((1 << 20) / unit.len());
        let literal = format!(
            "\"{}\"",
            expected
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        );
        assert!(literal.len() > 1 << 20);
        assert_eq!(parse(&literal).unwrap().as_str(), Some(expected.as_str()));
    }

    #[test]
    fn invalid_utf8_reports_the_offset_of_the_bad_byte() {
        let mut bytes = vec![b'"'];
        bytes.extend(std::iter::repeat_n(b'a', 500_000));
        bytes.push(0xff);
        bytes.extend(std::iter::repeat_n(b'a', 500_000));
        bytes.push(b'"');
        let mut p = Parser {
            bytes: &bytes,
            pos: 0,
            depth: 0,
        };
        let err = p.string().unwrap_err();
        assert_eq!(err.offset, 500_001);
        assert_eq!(err.message, "invalid UTF-8 in string");
    }

    #[test]
    fn unterminated_string_reports_the_end_of_input() {
        let err = parse("\"abc\\n def").unwrap_err();
        assert_eq!(err.offset, 10);
        assert_eq!(err.message, "unterminated string");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "{}x",
            "\"\\q\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_to_the_limit_parses_and_one_more_is_an_error() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert_eq!(err.message, "nesting too deep");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(parse(&objects).unwrap_err().message, "nesting too deep");
    }

    /// A megabyte of `[` on a default-stack spawned thread (how `gcrd`
    /// parses requests) is an error, not a stack overflow.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(1 << 20);
        let result = std::thread::spawn(move || parse(&deep).map(|_| ()))
            .join()
            .unwrap();
        assert_eq!(result.unwrap_err().message, "nesting too deep");
    }

    /// The char-at-a-time escaper `escape_into` replaced: the reference
    /// its output must equal byte for byte.
    fn escape_char_by_char(out: &mut String, s: &str) {
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
    }

    fn assert_escapes_like_the_oracle(s: &str) {
        // A non-empty prefix checks that the escaper appends.
        let (mut ours, mut oracle) = (String::from("{"), String::from("{"));
        escape_into(&mut ours, s);
        escape_char_by_char(&mut oracle, s);
        assert_eq!(ours, oracle, "escaping {s:?}");
    }

    #[test]
    fn escape_matches_the_char_by_char_oracle() {
        let every_control: String = (0u8..0x20).map(char::from).collect();
        for s in [
            "",
            "\"",
            "\\",
            "plain ascii, no escapes",
            "\"quoted\" and \\back\\slashed\\",
            "π, 中文 and 🦀: two-, three- and four-byte UTF-8",
            "\u{1f}é\u{0}中\n🦀\"",
            "ends with a control\u{7}",
            "\u{7f} is not a control character",
            &every_control,
            &format!("{every_control}mid{every_control}"),
        ] {
            assert_escapes_like_the_oracle(s);
        }
    }

    #[test]
    fn escape_uses_short_escapes_and_hex_for_other_controls() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\re\tf\u{1}g\u{1f}π");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fπ");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Escaping matches the char-by-char oracle, and parsing the
        /// result returns the original text, for strings mixing quotes,
        /// backslashes, `\r`, other control characters and non-ASCII.
        #[test]
        fn escape_round_trips_through_parse(chars in prop::collection::vec(
            prop_oneof![
                Just('"'),
                Just('\\'),
                Just('\r'),
                (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
                (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
                (0x80u32..0xd800).prop_map(|c| char::from_u32(c).unwrap()),
                (0x1_0000u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap()),
            ],
            0..40,
        )) {
            let s: String = chars.into_iter().collect();
            assert_escapes_like_the_oracle(&s);
            let mut literal = String::from("\"");
            escape_into(&mut literal, &s);
            literal.push('"');
            prop_assert_eq!(parse(&literal), Ok(Json::String(s)));
        }
    }

    #[test]
    fn empty_containers_and_null() {
        assert_eq!(parse("[]").unwrap(), Json::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Object(BTreeMap::new()));
        assert_eq!(parse(" null ").unwrap(), Json::Null);
    }
}
