//! The workspace's one JSON implementation: a [`Value`] tree with a compact
//! and a pretty writer, a strict parser, and the two formatting primitives
//! ([`esc`], [`fmt_f64`]) every hand-laid-out JSON artifact shares.
//!
//! Integers are kept exact: a number literal without sign, fraction or
//! exponent that fits a `u64` parses to [`Value::Int`], so seeds up to
//! `u64::MAX` survive a round trip bit-for-bit. Every other number is an
//! `f64`, written in Rust's shortest round-trip form. Objects keep their
//! keys sorted, so every writer's output is deterministic, and the parser
//! rejects a document that repeats a key.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed (or to-be-written) JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, exact.
    Int(u64),
    /// Any other number.
    Float(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, keys sorted.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// An object from `(key, value)` members (a repeated key keeps the
    /// last value).
    pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Member `key` of an object (`None` for absent keys and non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The number as an `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(n) => Some(n as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The exact integer, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(n) => Some(n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Indented rendering: two spaces per level, `"key": value`, one
    /// member per line; empty containers stay `[]` / `{}`.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(f) => out.push_str(&fmt_f64(*f)),
            Value::Str(s) => {
                let _ = write!(out, "\"{}\"", esc(s));
            }
            Value::Array(items) => {
                write_members(out, depth, ('[', ']'), items.iter().map(|v| (None, v)))
            }
            Value::Object(map) => write_members(
                out,
                depth,
                ('{', '}'),
                map.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Write a container's members; `depth` is `None` for compact output.
fn write_members<'a>(
    out: &mut String,
    depth: Option<usize>,
    (open, close): (char, char),
    members: impl Iterator<Item = (Option<&'a str>, &'a Value)>,
) {
    out.push(open);
    let mut empty = true;
    for (key, value) in members {
        if !empty {
            out.push(',');
        }
        empty = false;
        if let Some(d) = depth {
            out.push('\n');
            out.push_str(&"  ".repeat(d + 1));
        }
        if let Some(k) = key {
            let _ = write!(out, "\"{}\":", esc(k));
            if depth.is_some() {
                out.push(' ');
            }
        }
        value.write(out, depth.map(|d| d + 1));
    }
    if let (Some(d), false) = (depth, empty) {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(close);
}

/// Compact rendering: no whitespace between tokens.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

/// Deterministic float formatting: Rust's shortest round-trip `Display`
/// (so `20.0` is written `20`), with non-finite values mapped to 0 (they
/// never appear in valid metrics).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escape a string for embedding between JSON quotes.
pub fn esc(s: &str) -> String {
    if s.chars().all(|c| c != '"' && c != '\\' && c >= ' ') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Parse one JSON document (surrounding whitespace allowed, nothing else).
///
/// # Errors
///
/// A message naming the offset (or the repeated key) of the first problem.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        chars: text.chars().collect(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(format!("json: trailing data at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn skip_ws(&mut self) {
        while self
            .chars
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<char, String> {
        self.skip_ws();
        self.chars
            .get(self.pos)
            .copied()
            .ok_or_else(|| "json: unexpected end of input".to_string())
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        let found = self.peek()?;
        if found == c {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "json: expected {c:?} at offset {}, found {found:?}",
                self.pos
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            '{' => self.object(),
            '[' => self.array(),
            '"' => Ok(Value::Str(self.string()?)),
            't' => self.literal("true", Value::Bool(true)),
            'f' => self.literal("false", Value::Bool(false)),
            'n' => self.literal("null", Value::Null),
            c if c == '-' || c.is_ascii_digit() => self.number(),
            c => Err(format!("json: unexpected {c:?} at offset {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        for w in word.chars() {
            if self.chars.get(self.pos) != Some(&w) {
                return Err(format!("json: bad literal at offset {}", self.pos));
            }
            self.pos += 1;
        }
        Ok(v)
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == '}' {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            let key = self.string()?;
            self.expect(':')?;
            let val = self.value()?;
            if map.contains_key(&key) {
                return Err(format!("json: duplicate key {key:?}"));
            }
            map.insert(key, val);
            match self.peek()? {
                ',' => self.pos += 1,
                '}' => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                c => return Err(format!("json: expected , or }} found {c:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        if self.peek()? == ']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                ',' => self.pos += 1,
                ']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                c => return Err(format!("json: expected , or ] found {c:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            let c = self.next_char("json: unterminated string")?;
            match c {
                '"' => return Ok(out),
                '\\' => match self.next_char("json: unterminated escape")? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let h = self
                                .next_char("json: bad \\u escape")?
                                .to_digit(16)
                                .ok_or_else(|| "json: bad \\u escape".to_string())?;
                            code = code * 16 + h;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    e => return Err(format!("json: bad escape \\{e}")),
                },
                c => out.push(c),
            }
        }
    }

    fn next_char(&mut self, eof: &str) -> Result<char, String> {
        let c = self
            .chars
            .get(self.pos)
            .copied()
            .ok_or_else(|| eof.to_string())?;
        self.pos += 1;
        Ok(c)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .chars
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        {
            self.pos += 1;
        }
        let s: String = self.chars[start..self.pos].iter().collect();
        if let Ok(n) = s.parse::<u64>() {
            return Ok(Value::Int(n));
        }
        s.parse::<f64>()
            .map(Value::Float)
            .map_err(|e| format!("json: bad number {s:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(esc("plain.name"), "plain.name");
        assert_eq!(esc("a\"b"), "a\\\"b");
        assert_eq!(esc("a\\b"), "a\\\\b");
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("a\u{1}b"), "a\\u0001b");
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v =
            parse(r#"{"a": ["x\n", {"b": true, "c": null}, -2.5e1]}"#).expect("document parses");
        let Some(Value::Array(a)) = v.get("a") else {
            panic!("array")
        };
        assert_eq!(a[0], Value::Str("x\n".into()));
        assert_eq!(a[1].get("b"), Some(&Value::Bool(true)));
        assert_eq!(a[2], Value::Float(-25.0));
    }

    #[test]
    fn integers_stay_exact_to_u64_max() {
        for n in [0, 1, (1u64 << 53) + 1, u64::MAX] {
            let v = parse(&Value::Int(n).to_string()).expect("integer parses");
            assert_eq!(v.as_u64(), Some(n));
        }
        // One past u64::MAX, a sign or a fraction makes it a float.
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap(), Value::Float(-1.0));
        assert_eq!(parse("1.0").unwrap(), Value::Float(1.0));
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for f in [0.1, 1.0 / 3.0, 2068800.0, 1e-300, f64::MAX] {
            let back = parse(&Value::Float(f).to_string()).unwrap();
            assert_eq!(back.as_f64().map(f64::to_bits), Some(f.to_bits()));
        }
        assert_eq!(fmt_f64(20.0), "20");
        assert_eq!(fmt_f64(f64::NAN), "0");
    }

    #[test]
    fn writers_compact_and_pretty() {
        let v = parse(r#"{"b": [1, "x"], "a": {}, "c": []}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"a":{},"b":[1,"x"],"c":[]}"#);
        assert_eq!(
            v.to_pretty(),
            "{\n  \"a\": {},\n  \"b\": [\n    1,\n    \"x\"\n  ],\n  \"c\": []\n}"
        );
        assert_eq!(parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "{} trailing",
            "[1,]",
            "{\"a\" 1}",
            "\"open",
            "tru",
            "-",
            "{\"k\": 1, \"k\": 2}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert!(parse("{\"k\": 1, \"k\": 2}").unwrap_err().contains("\"k\""));
    }
}
