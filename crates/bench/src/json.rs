//! The workspace's one JSON reader: the wire protocol of `mpsoc-server`
//! and the perf ledger ([`crate::ledger`]) are both read through it.
//!
//! The vendored `serde` shim is serialize-only, so the workspace carries
//! its own hand-written recursive-descent parser. It lives in this crate
//! (and `mpsoc-server` re-exports it as `mpsoc_server::json`) because the
//! ledger reader needs it and `mpsoc-server` already depends on
//! `mpsoc-bench`. It accepts the full JSON grammar with three deliberate
//! simplifications that are fine for a request protocol of small integers
//! and short names:
//!
//! * numbers are held as `f64`, so integers are exact up to 2^53 (the
//!   typed accessors reject anything non-integral or out of range);
//! * `\uXXXX` escapes outside the basic multilingual plane must come as
//!   surrogate pairs, matching what any JSON encoder emits;
//! * arrays and objects nest at most [`MAX_DEPTH`] deep — the parser
//!   recurses once per level and request lines come off a socket, so an
//!   unbounded depth is a remotely triggered stack overflow.
//!
//! The writing side is the `serde` shim's; its string escaper is
//! re-exported here so a caller building a line by hand needs one import.

use std::collections::BTreeMap;
use std::fmt;

pub use serde::write_json_string;

/// Deepest array/object nesting [`parse`] accepts. The wire protocol
/// nests 2 deep and the perf ledger 4.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are unique; a duplicate key keeps the last value,
    /// like every mainstream JSON decoder.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The number, if this is a finite one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) if n.is_finite() => Some(*n),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the first offending byte.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.into(),
            at: self.pos,
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one container, refusing to open more than [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let ch = if (0xd800..0xdc00).contains(&unit) {
                                // High surrogate: the low half must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(code).ok_or_else(|| self.err("bad code point"))?
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.err("lone low surrogate"))?
                            };
                            out.push(ch);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(lead) => {
                    // Copy one UTF-8 scalar. The input is a &str, so the
                    // encoding is valid and the lead byte gives the length;
                    // validating only those bytes keeps a long string linear.
                    let len = match lead {
                        0x00..=0x7f => 1,
                        0x80..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xff => 4,
                    };
                    let scalar = &self.bytes[self.pos..self.pos + len];
                    out.push_str(std::str::from_utf8(scalar).expect("input was a str"));
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let unit = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        // The final `pos += 1` in the escape arm is skipped by the caller's
        // `continue`, so consume nothing extra here.
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_request_shaped_object() {
        let v = parse(
            r#"{"id": 7, "cmd": "simulate", "protocol": "stbus-t3", "scale": 2, "deep": {"a": [1, 2.5, -3]}, "flag": true, "none": null}"#,
        )
        .expect("parses");
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("simulate"));
        assert_eq!(v.get("flag").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("none"), Some(&Json::Null));
        let deep = v.get("deep").and_then(|d| d.get("a")).expect("nested");
        assert_eq!(
            deep.as_array(),
            Some(&[Json::Num(1.0), Json::Num(2.5), Json::Num(-3.0)][..])
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "nul",
            "\"unterminated",
            "{} trailing",
            "{\"a\": 01x}",
            "\"\\q\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn integer_accessor_is_strict() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("42.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("\"42\"").unwrap().as_u64(), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\n\t\"\\ \u00e9 \ud83d\ude00""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\n\t\"\\ \u{e9} \u{1f600}"));
        let mut out = String::new();
        write_json_string("a\n\"x\"\\\u{1}", &mut out);
        assert_eq!(out, r#""a\n\"x\"\\\u0001""#);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\":".repeat(n) + "0" + &"}".repeat(n);
        let mixed = "[{\"k\":".repeat(MAX_DEPTH / 2) + "0" + &"}]".repeat(MAX_DEPTH / 2);
        for (at_cap, over_cap) in [
            (arrays(MAX_DEPTH), arrays(MAX_DEPTH + 1)),
            (objects(MAX_DEPTH), objects(MAX_DEPTH + 1)),
            (mixed.clone(), format!("{{\"k\":{mixed}}}")),
        ] {
            assert!(parse(&at_cap).is_ok(), "should accept {at_cap}");
            let err = parse(&over_cap).expect_err("one level too many");
            assert_eq!(err.message, "nesting too deep");
            assert!(over_cap[err.at..].starts_with(['[', '{']));
        }
        // What used to overflow the stack: never closed, far past the cap.
        let err = parse(&"[".repeat(60_000)).expect_err("too deep");
        assert_eq!(
            (err.message.as_str(), err.at),
            ("nesting too deep", MAX_DEPTH)
        );
        // Siblings do not accumulate depth.
        assert!(parse(&format!("[{}[]]", "[],".repeat(1000))).is_ok());
    }

    #[test]
    fn float_accessor_takes_any_finite_number() {
        assert_eq!(parse("2.5").unwrap().as_f64(), Some(2.5));
        assert_eq!(parse("-3").unwrap().as_f64(), Some(-3.0));
        assert_eq!(parse("1e999").unwrap().as_f64(), None);
        assert_eq!(parse("true").unwrap().as_f64(), None);
    }

    #[test]
    fn multi_byte_scalars_are_copied_whole() {
        let v = parse("{\"s\":\"a\u{e9}\u{20ac}\u{1f600}z\"}").expect("parses");
        assert_eq!(
            v.get("s").and_then(Json::as_str),
            Some("a\u{e9}\u{20ac}\u{1f600}z")
        );
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let v = parse(r#"{"a": 1, "a": 2}"#).expect("parses");
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2));
    }
}
