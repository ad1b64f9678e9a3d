//! Offline build shim for `serde_json`.
//!
//! The workspace builds hermetically with no registry access, and nothing
//! in it derives `serde::Serialize`: every document is built as a
//! [`Value`] by hand. So the generic `to_string<T: Serialize>` entry point
//! of the real crate does not exist here. Instead this shim implements the
//! *value half* of `serde_json` for real: the [`Value`] tree, a serializer
//! with correct JSON string escaping, and a strict parser. That is exactly
//! the subset the observability stack needs — building trace/report
//! documents programmatically and re-parsing them for validation — and it
//! round-trips: `from_str(&to_string(&v))? == v` for every finite value.

use std::fmt::Write as _;

/// A JSON value.
///
/// Objects preserve insertion order (like `serde_json`'s `preserve_order`
/// feature) so emitted documents are deterministic and diff-friendly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as f64; integers up to 2^53 are exact).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with insertion-ordered keys.
    Object(Map),
}

/// Insertion-ordered string→value map.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert, replacing an existing key in place.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        let key = key.into();
        let value = value.into();
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => self.entries.push((key, value)),
        }
    }

    /// Value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut m = Map::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}
impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Number(n as f64)
    }
}
impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Number(f64::from(n))
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Number(n as f64)
    }
}
impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Number(n as f64)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Array(v)
    }
}
impl From<Map> for Value {
    fn from(m: Map) -> Self {
        Value::Object(m)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Self {
        o.map_or(Value::Null, Into::into)
    }
}

impl Value {
    /// The value at `key` when this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements when this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The string when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The integer when this is a number with an exact u64 value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The bool when this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Escape `s` into `out` as a JSON string literal (quotes included).
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; the real crate errors — we emit null, which
        // keeps the document parseable (callers should not produce these).
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_escaped(out, s),
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
                if let Some(w) = indent {
                    out.push('\n');
                    out.push_str(&" ".repeat(w * (level + 1)));
                }
                write_value(out, item, indent, level + 1);
            }
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * level));
            }
            out.push(']');
        }
        Value::Object(m) => {
            if m.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(w) = indent {
                    out.push('\n');
                    out.push_str(&" ".repeat(w * (level + 1)));
                }
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * level));
            }
            out.push('}');
        }
    }
}

/// Serialize a [`Value`] to its compact JSON text.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, None, 0);
    out
}

/// Serialize a [`Value`] to pretty-printed (2-space indented) JSON text.
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, Some(2), 0);
    out
}

/// A parse error with the byte offset where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for Error {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

const MAX_DEPTH: usize = 128;

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, Error> {
        Err(Error {
            message: msg.into(),
            offset: self.pos,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.err(format!("expected '{lit}'"))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        if self.depth >= MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                self.depth += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return self.err("expected ',' or ']'"),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                self.depth += 1;
                let mut map = Map::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value()?;
                    map.insert(key, val);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(Value::Object(map));
                        }
                        _ => return self.err("expected ',' or '}'"),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => self.err(format!("unexpected character '{}'", c as char)),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(cp) = hex else {
                                return self.err("bad \\u escape");
                            };
                            self.pos += 4;
                            // Surrogate pair?
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes.get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
                                    return self.err("lone high surrogate");
                                }
                                let lo = self
                                    .bytes
                                    .get(self.pos + 3..self.pos + 7)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok());
                                let Some(lo) = lo.filter(|l| (0xDC00..0xE000).contains(l)) else {
                                    return self.err("bad low surrogate");
                                };
                                self.pos += 6;
                                0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                cp
                            };
                            match char::from_u32(c) {
                                Some(c) => out.push(c),
                                None => return self.err("invalid code point"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return self.err("control character in string"),
                Some(c) if c < 0x80 => {
                    // ASCII fast path — no UTF-8 validation needed.
                    out.push(c as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one multi-byte UTF-8 scalar. Validate at most
                    // 4 bytes, never the whole remaining input (that would
                    // make string parsing quadratic in document size).
                    let end = (self.pos + 4).min(self.bytes.len());
                    let chunk = &self.bytes[self.pos..end];
                    let c = match std::str::from_utf8(chunk) {
                        Ok(s) => s.chars().next(),
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&chunk[..e.valid_up_to()])
                                .expect("validated prefix")
                                .chars()
                                .next()
                        }
                        Err(_) => None,
                    };
                    let Some(c) = c else {
                        return self.err("invalid UTF-8");
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits0 = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits0 {
            return self.err("expected digits");
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac0 = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac0 {
                return self.err("expected fraction digits");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp0 = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp0 {
                return self.err("expected exponent digits");
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        match text.parse::<f64>() {
            Ok(n) => Ok(Value::Number(n)),
            Err(_) => self.err("bad number"),
        }
    }
}

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters");
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: &[(&str, Value)]) -> Value {
        let mut m = Map::new();
        for (k, v) in pairs {
            m.insert(*k, v.clone());
        }
        Value::Object(m)
    }

    #[test]
    fn escaping_round_trips() {
        let nasty = "quote\" backslash\\ newline\n tab\t ctrl\u{01} unicode\u{2603}";
        let v = obj(&[("name", Value::from(nasty))]);
        let s = to_string(&v);
        let back = from_str(&s).expect("round trip parses");
        assert_eq!(back.get("name").and_then(Value::as_str), Some(nasty));
    }

    #[test]
    fn numbers_integers_and_floats() {
        let v = Value::Array(vec![
            Value::from(0u64),
            Value::from(-5i64),
            Value::from(1.5),
            Value::from(1e-9),
            Value::from(9007199254740992.0), // 2^53
        ]);
        let s = to_string(&v);
        let back = from_str(&s).unwrap();
        assert_eq!(back, v);
        assert!(s.contains("-5"));
        assert!(!s.contains("-5.0"), "integers render without fraction");
    }

    #[test]
    fn parses_standard_documents() {
        let v = from_str(r#"{"a": [1, 2.5, null, true], "b": {"c": "d"}, "e": []}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 4);
        assert_eq!(
            v.get("b").unwrap().get("c").and_then(Value::as_str),
            Some("d")
        );
        assert_eq!(v.get("e").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{'a':1}",
            "[1 2]",
            "01x",
            "\"\\q\"",
            "[1] extra",
            "nul",
            "+1",
        ] {
            assert!(from_str(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        let v = from_str(r#""\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé😀"));
        assert!(from_str(r#""\ud800""#).is_err(), "lone surrogate rejected");
    }

    #[test]
    fn object_insertion_order_preserved_and_replaced() {
        let mut m = Map::new();
        m.insert("z", Value::from(1u64));
        m.insert("a", Value::from(2u64));
        m.insert("z", Value::from(3u64));
        let s = to_string(&Value::Object(m));
        assert_eq!(s, r#"{"z":3,"a":2}"#);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = obj(&[
            ("k", Value::Array(vec![Value::from(1u64), Value::Null])),
            ("s", Value::from("x")),
        ]);
        let pretty = to_string_pretty(&v);
        assert!(pretty.contains('\n'));
        assert_eq!(from_str(&pretty).unwrap(), v);
    }

    #[test]
    fn as_u64_bounds() {
        assert_eq!(Value::from(5u64).as_u64(), Some(5));
        assert_eq!(Value::from(5.5).as_u64(), None);
        assert_eq!(Value::from(-1i64).as_u64(), None);
    }

    /// String parsing must be linear in document size: a megabyte-scale
    /// document (the size class of `accprof` traces) parses in well under
    /// a second. The pre-fix parser revalidated the whole remaining input
    /// per character, which turned this into minutes.
    #[test]
    fn large_documents_parse_in_linear_time() {
        let long_ascii = "x".repeat(1 << 20);
        let long_unicode = "é☃".repeat(1 << 17);
        let v = obj(&[
            ("a", Value::from(long_ascii.as_str())),
            ("u", Value::from(long_unicode.as_str())),
        ]);
        let s = to_string(&v);
        let t0 = std::time::Instant::now();
        let back = from_str(&s).expect("parses");
        assert!(
            t0.elapsed().as_secs() < 5,
            "megabyte-scale parse took {:?}",
            t0.elapsed()
        );
        assert_eq!(back, v);
    }

    #[test]
    fn deep_nesting_bounded() {
        let s = "[".repeat(1000) + &"]".repeat(1000);
        assert!(from_str(&s).is_err(), "depth limit enforced");
    }
}
