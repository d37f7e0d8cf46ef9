//! A minimal, dependency-free JSON reader for the benchmark artifacts.
//!
//! The repo is built offline (no serde); the bench JSON files are written
//! by hand-rolled formatters, so this parser only needs to cover standard
//! JSON: objects, arrays, strings with escapes, numbers, booleans, and
//! null. It is used by `bench_diff` to compare two `BENCH_greedy.json`
//! files.

use std::collections::BTreeMap;
use std::fmt;

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
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
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
    fn empty_containers_and_null() {
        assert_eq!(parse("[]").unwrap(), Json::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Object(BTreeMap::new()));
        assert_eq!(parse(" null ").unwrap(), Json::Null);
    }
}
