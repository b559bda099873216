//! Offline shim for the subset of `serde_json` used by this workspace:
//! the [`Value`] tree, [`Map`], the [`json!`] macro for flat object
//! literals, [`to_string`] / [`to_string_pretty`], and a full
//! recursive-descent parser ([`from_str`]). No serde derive integration
//! — consumers build and walk `Value`s by hand. The bench harness uses
//! it for baselines and the `cqchase-service` wire protocol for its
//! newline-delimited JSON requests, so `to_string`/`from_str` must
//! round-trip every value tree (enforced by `tests/proptest_json.rs`).

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;

/// A JSON number: integer or floating point.
#[derive(Debug, Clone, PartialEq)]
pub enum Number {
    /// A signed integer.
    Int(i64),
    /// An unsigned integer too large for `i64`.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::Int(i) => write!(f, "{i}"),
            Number::UInt(u) => write!(f, "{u}"),
            Number::Float(x) if x.is_finite() => {
                // Keep a float marker (`.` or exponent) so the value
                // re-parses as a float — upstream does the same.
                let s = format!("{x}");
                if s.contains(['.', 'e', 'E']) {
                    write!(f, "{s}")
                } else {
                    write!(f, "{s}.0")
                }
            }
            // JSON has no NaN/inf; mirror serde_json by emitting null.
            Number::Float(_) => write!(f, "null"),
        }
    }
}

/// A JSON object with sorted keys (like upstream's default `Map`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map<K = String, V = Value> {
    entries: BTreeMap<K, V>,
}

impl Map<String, Value> {
    /// An empty object.
    pub fn new() -> Self {
        Map {
            entries: BTreeMap::new(),
        }
    }

    /// Inserts a key/value pair, returning any previous value.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        self.entries.insert(key, value)
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.get(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the object is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterator over entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter()
    }
}

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map<String, Value>),
}

impl Value {
    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The object, if this is one.
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `i64`, when numeric and representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(Number::Int(i)) => Some(*i),
            Value::Number(Number::UInt(u)) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// The value as a `u64`, when numeric and representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::Int(i)) => u64::try_from(*i).ok(),
            Value::Number(Number::UInt(u)) => Some(*u),
            _ => None,
        }
    }

    /// The value as an `f64`, when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(Number::Int(i)) => Some(*i as f64),
            Value::Number(Number::UInt(u)) => Some(*u as f64),
            Value::Number(Number::Float(f)) => Some(*f),
            _ => None,
        }
    }
}

/// Shared "missing entry" value for `Index` (upstream does the same).
static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        match self {
            Value::Object(m) => m.get(key).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

macro_rules! impl_eq_via {
    ($conv:ident / $repr:ty => $($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.$conv() == Some(*other as $repr)
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}

impl_eq_via!(as_i64 / i64 => i8, i16, i32, i64, u8, u16, u32);
impl_eq_via!(as_f64 / f64 => f32, f64);

impl PartialEq<u64> for Value {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}

impl PartialEq<usize> for Value {
    fn eq(&self, other: &usize) -> bool {
        self.as_u64() == Some(*other as u64)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Number(Number::Int(v as i64))
            }
        }
    )*};
}

impl_from_int!(i8, i16, i32, i64, u8, u16, u32);

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        match i64::try_from(v) {
            Ok(i) => Value::Number(Number::Int(i)),
            Err(_) => Value::Number(Number::UInt(v)),
        }
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::from(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(Number::Float(v))
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::Number(Number::Float(f64::from(v)))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_owned())
    }
}

impl From<Map<String, Value>> for Value {
    fn from(v: Map<String, Value>) -> Value {
        Value::Object(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Value {
    /// Compact single-line JSON rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) => write!(f, "{n}"),
            Value::String(s) => {
                let mut out = String::new();
                escape_into(s, &mut out);
                write!(f, "{out}")
            }
            Value::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Object(map) => {
                write!(f, "{{")?;
                for (i, (k, item)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    let mut key = String::new();
                    escape_into(k, &mut key);
                    write!(f, "{key}:{item}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Serialization or parse failure. Serialization never fails in this
/// shim (the type is kept so call sites can `.unwrap()` exactly as with
/// upstream serde_json); parse failures carry a byte offset and message.
#[derive(Debug, Default)]
pub struct Error {
    detail: Option<(usize, &'static str)>,
}

impl Error {
    fn parse(at: usize, msg: &'static str) -> Error {
        Error {
            detail: Some((at, msg)),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.detail {
            Some((at, msg)) => write!(f, "JSON parse error at byte {at}: {msg}"),
            None => write!(f, "serialization error"),
        }
    }
}

impl std::error::Error for Error {}

/// Parses a JSON document into a [`Value`] (recursive descent over the
/// full JSON grammar; `\u` escapes are decoded, surrogate pairs
/// included). Trailing non-whitespace is an error, like upstream.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::parse(pos, "trailing characters"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &'static [u8], msg: &'static str) -> Result<(), Error> {
    if b.len() - *pos >= lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(Error::parse(*pos, msg))
    }
}

/// Deepest array/object nesting [`from_str`] accepts — upstream
/// serde_json's default recursion limit. The parser recurses once per
/// level, so without a cap a line of `[` bytes overflows the stack and
/// aborts the process instead of returning an error.
const MAX_DEPTH: usize = 128;

/// One more nesting level below `depth`, or an error past [`MAX_DEPTH`].
fn nest(depth: usize, pos: usize) -> Result<usize, Error> {
    if depth >= MAX_DEPTH {
        Err(Error::parse(pos, "nesting too deep"))
    } else {
        Ok(depth + 1)
    }
}

/// Parses one value that sits inside `depth` open arrays/objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(Error::parse(*pos, "unexpected end of input")),
        Some(b'n') => expect(b, pos, b"null", "expected `null`").map(|()| Value::Null),
        Some(b't') => expect(b, pos, b"true", "expected `true`").map(|()| Value::Bool(true)),
        Some(b'f') => expect(b, pos, b"false", "expected `false`").map(|()| Value::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Value::String),
        Some(b'[') => {
            let depth = nest(depth, *pos)?;
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(b, pos, depth)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(Error::parse(*pos, "expected `,` or `]`")),
                }
            }
        }
        Some(b'{') => {
            let depth = nest(depth, *pos)?;
            *pos += 1;
            let mut map = Map::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b":", "expected `:`")?;
                map.insert(key, parse_value(b, pos, depth)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(map));
                    }
                    _ => return Err(Error::parse(*pos, "expected `,` or `}`")),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, Error> {
    expect(b, pos, b"\"", "expected string")?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(Error::parse(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or(Error::parse(*pos, "bad escape"))?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hi = parse_hex4(b, pos)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: a second \uXXXX must follow.
                            expect(b, pos, b"\\u", "expected low surrogate")?;
                            let lo = parse_hex4(b, pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(Error::parse(*pos, "invalid low surrogate"));
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or(Error::parse(*pos, "invalid unicode escape"))?,
                        );
                    }
                    _ => return Err(Error::parse(*pos, "unknown escape")),
                }
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is
                // always a char boundary walk).
                let rest = &b[*pos..];
                let s = std::str::from_utf8(rest).map_err(|_| Error::parse(*pos, "bad utf-8"))?;
                let c = s.chars().next().expect("nonempty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u32, Error> {
    if b.len() - *pos < 4 {
        return Err(Error::parse(*pos, "short unicode escape"));
    }
    let s = std::str::from_utf8(&b[*pos..*pos + 4])
        .map_err(|_| Error::parse(*pos, "bad unicode escape"))?;
    let v = u32::from_str_radix(s, 16).map_err(|_| Error::parse(*pos, "bad unicode escape"))?;
    *pos += 4;
    Ok(v)
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && b[*pos].is_ascii_digit() {
        *pos += 1;
    }
    let mut is_float = false;
    if b.get(*pos) == Some(&b'.') {
        is_float = true;
        *pos += 1;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        is_float = true;
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("digits are ASCII");
    if text.is_empty() || text == "-" {
        return Err(Error::parse(start, "expected a value"));
    }
    let num = if !is_float {
        if let Ok(i) = text.parse::<i64>() {
            Number::Int(i)
        } else if let Ok(u) = text.parse::<u64>() {
            Number::UInt(u)
        } else {
            Number::Float(
                text.parse::<f64>()
                    .map_err(|_| Error::parse(start, "bad number"))?,
            )
        }
    } else {
        Number::Float(
            text.parse::<f64>()
                .map_err(|_| Error::parse(start, "bad number"))?,
        )
    };
    Ok(Value::Number(num))
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    const STEP: &str = "  ";
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => escape_into(s, out),
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
                out.push('\n');
                out.push_str(&STEP.repeat(indent + 1));
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&STEP.repeat(indent));
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&STEP.repeat(indent + 1));
                escape_into(k, out);
                out.push_str(": ");
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&STEP.repeat(indent));
            out.push('}');
        }
    }
}

/// Pretty-prints a [`Value`] with two-space indentation.
pub fn to_string_pretty(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(value, 0, &mut out);
    Ok(out)
}

/// Serializes a [`Value`] compactly on one line (no interior newlines —
/// the representation the newline-delimited service protocol relies
/// on). Same output as the `Display` impl; the `Result` mirrors
/// upstream's signature.
pub fn to_string(value: &Value) -> Result<String, Error> {
    Ok(value.to_string())
}

/// Builds a [`Value`] from a flat object literal (`json!({ "k": expr })`)
/// or any single `Into<Value>` expression.
#[macro_export]
macro_rules! json {
    ({ $($key:literal : $val:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $(map.insert($key.to_string(), $crate::Value::from($val));)*
        $crate::Value::Object(map)
    }};
    ($other:expr) => {
        $crate::Value::from($other)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_and_pretty() {
        let v = json!({ "b": 2, "a": vec![1, 2], "s": "x\"y" });
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains("\"a\": ["));
        assert!(s.contains("\"s\": \"x\\\"y\""));
        // Keys are sorted like upstream's default map.
        assert!(s.find("\"a\"").unwrap() < s.find("\"b\"").unwrap());
    }

    #[test]
    fn numbers_format() {
        assert_eq!(Number::Int(-3).to_string(), "-3");
        assert_eq!(Number::Float(1.5).to_string(), "1.5");
        assert_eq!(Number::Float(2.0).to_string(), "2.0");
        assert_eq!(Number::Float(f64::NAN).to_string(), "null");
    }

    #[test]
    fn nested_value_passthrough() {
        let inner = json!({ "x": 1 });
        let outer = json!({ "inner": inner, "flag": true });
        match outer {
            Value::Object(m) => {
                assert!(matches!(m.get("inner"), Some(Value::Object(_))));
                assert_eq!(m.get("flag"), Some(&Value::Bool(true)));
            }
            _ => panic!("expected object"),
        }
    }

    #[test]
    fn parse_roundtrips_pretty_output() {
        let doc = json!({
            "name": "bench",
            "speedup": 194.47,
            "count": 42,
            "neg": -7,
            "flag": true,
            "nothing": Value::Null,
        });
        let text = to_string_pretty(&doc).unwrap();
        assert_eq!(from_str(&text).unwrap(), doc);
        // Arrays, nesting, escapes, unicode.
        let v = from_str(r#"[1, 2.5, "a\\n\u00e9", {"k": []}, null]"#).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items.len(), 5);
        assert_eq!(items[1].as_f64(), Some(2.5));
        assert_eq!(items[2].as_str(), Some("a\\né"));
        // Errors: trailing garbage, bad literals.
        assert!(from_str("{} extra").is_err());
        assert!(from_str("nulx").is_err());
        assert!(from_str("[1,").is_err());
    }

    #[test]
    fn nesting_bomb_is_an_error_not_a_stack_overflow() {
        // Far under any request-line cap, and deep enough to overflow a
        // 2 MiB thread stack if every level recursed.
        let bomb = "[".repeat(100_000);
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || from_str(&bomb).map_err(|e| e.to_string()))
            .unwrap()
            .join()
            .expect("the parser must not overflow the stack");
        assert!(parsed.unwrap_err().contains("nesting too deep"));
        // The cap itself: 128 levels parse, 129 do not.
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str(&nested(MAX_DEPTH)).is_ok());
        assert!(from_str(&nested(MAX_DEPTH + 1)).is_err());
        assert!(from_str(&format!("{}1{}", "{\"k\":".repeat(129), "}".repeat(129))).is_err());
    }
}
