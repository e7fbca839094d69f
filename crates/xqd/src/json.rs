//! Minimal JSON — just enough for the xqd line protocol and the bench
//! report writers. Std-only by the repo's dependency policy.
//!
//! The subset is deliberate: objects, arrays, strings (with `\uXXXX`
//! escapes), i64/f64 numbers, booleans, null. No comments, no trailing
//! commas, no BOM handling — protocol lines are machine-generated.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Object keys are kept in a `BTreeMap` so rendering is
/// deterministic — byte-identical responses matter to the chaos soak's
/// differential check.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Integers are kept exact; anything with a fraction or exponent
    /// parses as [`Value::Float`].
    Int(i64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9e15 => Some(*f as i64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// `obj.get("key")` convenience that flattens the object lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Render to a compact single-line string (no whitespace), suitable
    /// for the line-delimited protocol.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            Value::Float(f) => {
                if f.is_finite() {
                    let _ = fmt::Write::write_fmt(out, format_args!("{f}"));
                    // `{}` renders 3.0 as "3"; keep it a JSON number either way.
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_json_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Convenience: build an object from `(key, value)` pairs.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Parse error with a byte offset for operator-facing diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

/// Recursion guard: protocol messages are flat; anything deeper than
/// this is hostile input, not a real request.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair: require the low half.
                                self.pos += 1; // past last hex digit
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            } else {
                                char::from_u32(first).ok_or_else(|| self.err("bad code point"))?
                            };
                            s.push(c);
                            // hex4 leaves pos on the last hex digit; advance
                            // past it below like the single-char escapes.
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar. The input came from a &str so
                    // the encoding is already valid.
                    let start = self.pos;
                    let len = utf8_len(self.bytes[start]);
                    let end = (start + len).min(self.bytes.len());
                    s.push_str(std::str::from_utf8(&self.bytes[start..end]).map_err(|_| {
                        JsonError {
                            offset: start,
                            message: "invalid utf-8".to_string(),
                        }
                    })?);
                    self.pos = end;
                }
            }
        }
    }

    /// Reads four hex digits starting at `self.pos`, leaving `self.pos`
    /// on the *last* digit (the caller's shared `self.pos += 1` finishes
    /// the advance).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for i in 0..4 {
            let b = self
                .bytes
                .get(self.pos + i)
                .copied()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
        }
        self.pos += 3;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // Invariant: the scanned slice contains only ASCII number
        // characters (digits, sign, dot, exponent), so it is valid UTF-8.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_protocol_shapes() {
        let cases = [
            r#"{"id":1,"op":"query","query":"1 + 1"}"#,
            r#"{"a":[1,2.5,-3],"b":true,"c":null,"d":"x\"y\\z"}"#,
            r#"[]"#,
            r#"{}"#,
            r#""é☃""#,
        ];
        for case in cases {
            let v = parse(case).unwrap();
            let rendered = v.render();
            assert_eq!(parse(&rendered).unwrap(), v, "case {case}");
        }
    }

    #[test]
    fn escapes_control_characters_on_render() {
        let v = Value::Str("a\nb\tc\u{1}".to_string());
        assert_eq!(v.render(), r#""a\nb\tc\u0001""#);
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse(r#""😀""#).unwrap(),
            Value::Str("\u{1F600}".to_string())
        );
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn malformed_inputs_error_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            "[1,2",
            "tru",
            "1.2.3",
            r#""unterminated"#,
            "\u{7f}nope",
            "{\"a\":1} extra",
            &("[".repeat(200) + &"]".repeat(200)),
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn deterministic_object_key_order() {
        let v = parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        assert_eq!(v.render(), r#"{"a":2,"m":3,"z":1}"#);
    }
}
