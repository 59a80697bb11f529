//! The one JSON module: a value tree with ordered objects, its compact
//! renderer ([`Value`]'s `Display`) and its parser ([`parse`]).
//!
//! Every document the library writes — the `dgemm-telem-v1`
//! [`crate::telemetry::GemmReport`], the service's `/status`, chrome
//! traces and the `dgemm-tune-v3` tuning DB — is built as a [`Value`] and
//! rendered here, so string escaping and number formatting live in one
//! place: unsigned integers are exact at any `u64`, floats print Rust's
//! shortest round-trip digits, and a non-finite float (JSON has none)
//! renders as `null`. The tuning DB and the tests read documents back
//! through [`parse`]. No serde: the grammar the documents use is small.

#![forbid(unsafe_code)]

use std::fmt::{self, Write as _};

/// A JSON value, parsed or to be rendered.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer, exact at any `u64`.
    Uint(u64),
    /// Any other number; a non-finite one renders as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; its fields keep their order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object, to be filled with [`Value::field`].
    #[must_use]
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// This object with `key: value` appended (any other value is
    /// returned as it is).
    #[must_use]
    pub fn field(mut self, key: impl Into<String>, value: impl Into<Value>) -> Value {
        if let Value::Obj(fields) = &mut self {
            fields.push((key.into(), value.into()));
        }
        self
    }

    /// The first field named `key`, if this is an object that has one.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a finite one (integers included).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Uint(n) => Some(*n as f64),
            Value::Num(x) if x.is_finite() => Some(*x),
            _ => None,
        }
    }

    /// The integer, if this is a non-negative one written without a
    /// fraction or exponent.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Uint(n) => Some(*n),
            _ => None,
        }
    }

    /// The items, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Uint(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Uint(n as u64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Num(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// Compact rendering: no whitespace, fields in order.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Uint(n) => write!(f, "{n}"),
            Value::Num(x) if x.is_finite() => write!(f, "{x}"),
            Value::Num(_) => f.write_str("null"),
            Value::Str(s) => write_str(f, s),
            Value::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
            Value::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// `s` as a JSON string: quotes, backslashes and control characters
/// escaped, everything else (non-ASCII included) as it is.
fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for ch in s.chars() {
        match ch {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Parse one JSON document. `None` on malformed input or on anything
/// but whitespace after the value.
#[must_use]
pub fn parse(text: &str) -> Option<Value> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.ws();
    (p.i == p.s.len()).then_some(v)
}

/// Arrays and objects nested deeper than this do not parse: the
/// documents nest three levels, and the bound keeps a corrupt file (the
/// tuning DB is read from disk) from recursing the stack away.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.s.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    /// Skip whitespace, then take `b` if it comes next.
    fn eat(&mut self, b: u8) -> Option<()> {
        self.ws();
        (self.s.get(self.i) == Some(&b)).then(|| self.i += 1)
    }

    fn value(&mut self) -> Option<Value> {
        self.ws();
        let rest = &self.s[self.i..];
        for (word, v) in [("true", true), ("false", false)] {
            if rest.starts_with(word.as_bytes()) {
                self.i += word.len();
                return Some(Value::Bool(v));
            }
        }
        if rest.starts_with(b"null") {
            self.i += 4;
            return Some(Value::Null);
        }
        match rest.first()? {
            b'{' => self
                .items(b'}', |p| {
                    let key = p.string()?;
                    p.eat(b':')?;
                    Some((key, p.value()?))
                })
                .map(Value::Obj),
            b'[' => self.items(b']', Self::value).map(Value::Arr),
            b'"' => self.string().map(Value::Str),
            _ => self.number(),
        }
    }

    /// The comma-separated items after an opening bracket, through
    /// `close`.
    fn items<T>(&mut self, close: u8, item: impl Fn(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        if self.depth == MAX_DEPTH {
            return None;
        }
        self.depth += 1;
        self.i += 1;
        let mut items = Vec::new();
        if self.eat(close).is_none() {
            loop {
                items.push(item(self)?);
                if self.eat(b',').is_none() {
                    self.eat(close)?;
                    break;
                }
            }
        }
        self.depth -= 1;
        Some(items)
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // The run up to the next quote, escape or control byte ends
            // on a UTF-8 boundary: those bytes are ASCII.
            let run = self.s[self.i..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)?;
            out.push_str(std::str::from_utf8(&self.s[self.i..self.i + run]).ok()?);
            self.i += run + 1;
            match self.s[self.i - 1] {
                b'"' => return Some(out),
                b'\\' => {}
                _ => return None,
            }
            self.i += 1;
            out.push(match *self.s.get(self.i - 1)? {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let hex = std::str::from_utf8(self.s.get(self.i..self.i + 4)?).ok()?;
                    self.i += 4;
                    // No document writes a surrogate pair; reject one
                    // rather than mangle it.
                    char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                }
                _ => return None,
            });
        }
    }

    /// A number: [`Value::Uint`] when it is digits alone and fits a
    /// `u64`, [`Value::Num`] otherwise.
    fn number(&mut self) -> Option<Value> {
        let len = self.s[self.i..]
            .iter()
            .take_while(|c| matches!(c, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .count();
        let text = std::str::from_utf8(&self.s[self.i..self.i + len]).ok()?;
        self.i += len;
        match text.parse::<u64>() {
            Ok(n) if text.bytes().all(|b| b.is_ascii_digit()) => Some(Value::Uint(n)),
            _ => text.parse().ok().map(Value::Num),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        parse(&v.to_string()).expect("rendered JSON parses")
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = parse(r#"{"a":[1,2,{"b":"x\ny A"}],"c":true,"d":null}"#).unwrap();
        let a = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].get("b").and_then(Value::as_str), Some("x\ny A"));
        assert_eq!(v.get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("d"), Some(&Value::Null));
        assert!(parse(" [ 1 , \"x\" ] ").is_some(), "whitespace is allowed");
        let nested = |depth| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_some());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_none());
        assert!(
            parse(&"[".repeat(1 << 20)).is_none(),
            "hostile nesting fails, not overflows"
        );
        for bad in [
            "",
            "{not json",
            "[1,]",
            "{\"a\" 1}",
            "\"\\q\"",
            "tru",
            "[1] x",
        ] {
            assert!(parse(bad).is_none(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn json_escape_handles_quotes_and_controls() {
        let s = Value::from("a\"b\\c\nd\u{1}é∑😀");
        assert_eq!(s.to_string(), "\"a\\\"b\\\\c\\u000ad\\u0001é∑😀\"");
        assert_eq!(round_trip(&s), s);
        assert_eq!(
            parse(r#""\u00e9\/\t\r\b\f""#).and_then(|v| v.as_str().map(str::to_owned)),
            Some("é/\t\r\u{8}\u{c}".to_owned())
        );
    }

    #[test]
    fn every_value_kind_round_trips() {
        let doc = Value::obj()
            .field("null", Value::Null)
            .field("yes", true)
            .field("no", false)
            .field("uint", 42u64)
            .field("float", 0.1 + 0.2)
            .field("negative", -2.5e-300)
            .field("big", 1e300)
            .field("str", "s")
            .field(
                "arr",
                Value::Arr(vec![1usize.into(), Value::obj(), Value::Arr(vec![])]),
            )
            .field("nested", Value::obj().field("k", "v"));
        assert_eq!(round_trip(&doc), doc);
        assert!(doc.to_string().starts_with(
            "{\"null\":null,\"yes\":true,\"no\":false,\"uint\":42,\"float\":0.30000000000000004,"
        ));
        // Fields keep their order, and the first of a repeated key wins.
        let twice = Value::obj()
            .field("b", 1u64)
            .field("a", 2u64)
            .field("b", 3u64);
        assert_eq!(twice.to_string(), "{\"b\":1,\"a\":2,\"b\":3}");
        assert_eq!(twice.get("b").and_then(Value::as_u64), Some(1));
        assert_eq!(Value::Null.field("k", 1u64), Value::Null);
    }

    #[test]
    fn integers_are_exact_and_non_finite_floats_render_null() {
        let max = Value::from(u64::MAX);
        assert_eq!(max.to_string(), "18446744073709551615");
        assert_eq!(round_trip(&max).as_u64(), Some(u64::MAX));
        assert_eq!(
            parse("18446744073709551616"),
            Some(Value::Num(2f64.powi(64)))
        );
        // An integer reads as a float too; a float, a negative or an
        // exponent form never as an integer.
        assert_eq!(parse("10").and_then(|v| v.as_f64()), Some(10.0));
        for not_uint in ["-3", "2.5", "1e3", "1.0"] {
            assert_eq!(parse(not_uint).and_then(|v| v.as_u64()), None, "{not_uint}");
        }
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::from(x).to_string(), "null");
        }
        assert_eq!(Value::from(None::<f64>).to_string(), "null");
        assert_eq!(Value::from(Some(1.5)).to_string(), "1.5");
    }
}
