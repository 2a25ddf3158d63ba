//! A dependency-free JSON value: builder, serializer, and a small parser.
//!
//! The crates-io registry is unreachable in this repository's build
//! environment, so the experiment reports (`target/reports/<name>.json`)
//! are produced without serde. [`JsonValue`] covers exactly what the
//! reports need: objects with ordered keys, arrays, strings with correct
//! escaping, unsigned integers (the statistics counters), and floats
//! (derived metrics). The parser exists so reports can be validated
//! round-trip by tests and by `evaluate check`.
//!
//! # Examples
//!
//! ```
//! use silo_types::JsonValue;
//!
//! let v = JsonValue::object()
//!     .field("name", "fig11")
//!     .field("cells", JsonValue::array([1u64, 2, 3]))
//!     .build();
//! let text = v.to_string();
//! assert_eq!(text, r#"{"name":"fig11","cells":[1,2,3]}"#);
//! assert_eq!(JsonValue::parse(&text).unwrap(), v);
//! ```

use std::fmt;

/// A JSON document node.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (statistics counters are `u64`).
    Uint(u64),
    /// A float. Non-finite values serialize as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Uint(v)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Uint(v as u64)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

/// Chained builder for [`JsonValue::Obj`].
#[derive(Default)]
pub struct JsonObject {
    fields: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// Appends a field.
    pub fn field(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> JsonValue {
        JsonValue::Obj(self.fields)
    }
}

impl JsonValue {
    /// Starts an object builder.
    pub fn object() -> JsonObject {
        JsonObject::default()
    }

    /// Builds an array from anything convertible to values.
    pub fn array<T: Into<JsonValue>>(items: impl IntoIterator<Item = T>) -> JsonValue {
        JsonValue::Arr(items.into_iter().map(Into::into).collect())
    }

    /// The value of `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Uint(n) => Some(*n as f64),
            JsonValue::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The exact unsigned value if this is an integer. Unlike
    /// [`JsonValue::as_f64`], counters above 2^53 survive without
    /// rounding, which is what the stats deserializers require.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Uint(n) => Some(*n),
            _ => None,
        }
    }

    /// Parses a JSON document. Accepts exactly what [`fmt::Display`]
    /// emits plus ordinary whitespace and signed/scientific numbers.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

fn escape_into(out: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    out.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => write!(out, "{c}")?,
        }
    }
    out.write_str("\"")
}

impl fmt::Display for JsonValue {
    /// Compact serialization (no insignificant whitespace).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Uint(n) => write!(f, "{n}"),
            JsonValue::Float(x) if !x.is_finite() => f.write_str("null"),
            // Rust's shortest round-trip float formatting; force a decimal
            // point so floats stay floats across a round trip.
            JsonValue::Float(x) if x.fract() == 0.0 && x.abs() < 1e15 => write!(f, "{x:.1}"),
            JsonValue::Float(x) => write!(f, "{x}"),
            JsonValue::Str(s) => escape_into(f, s),
            JsonValue::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape_into(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogate pairs never occur in this crate's output.
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance one full UTF-8 character.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if !text.contains(['.', 'e', 'E', '-']) {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(JsonValue::Uint(n));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::Float)
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_display() {
        let v = JsonValue::object()
            .field("a", 1u64)
            .field("b", 2.5)
            .field("c", "x")
            .field("d", JsonValue::array(["y", "z"]))
            .field("e", JsonValue::Null)
            .build();
        assert_eq!(
            v.to_string(),
            r#"{"a":1,"b":2.5,"c":"x","d":["y","z"],"e":null}"#
        );
    }

    #[test]
    fn escaping_covers_specials_and_controls() {
        let v = JsonValue::Str("a\"b\\c\nd\te\u{1}f".to_string());
        assert_eq!(v.to_string(), r#""a\"b\\c\nd\te\u0001f""#);
    }

    #[test]
    fn round_trip_is_identity() {
        let v = JsonValue::object()
            .field("name", "weird \"chars\" \\ \n\t ключ")
            .field("uint", u64::MAX)
            .field("float", 0.1_f64)
            .field("whole_float", 3.0_f64)
            .field("neg", -1.5_f64)
            .field("flag", true)
            .field("none", JsonValue::Null)
            .field(
                "nested",
                JsonValue::array([JsonValue::object().field("k", 7u64).build()]),
            )
            .build();
        let text = v.to_string();
        let back = JsonValue::parse(&text).expect("parses");
        assert_eq!(back, v);
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn whole_floats_stay_floats() {
        let text = JsonValue::Float(64.0).to_string();
        assert_eq!(text, "64.0");
        assert_eq!(JsonValue::parse(&text).unwrap(), JsonValue::Float(64.0));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(JsonValue::Float(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn accessors() {
        let v = JsonValue::parse(r#"{"a": [1, 2.5, "s"], "b": {"c": null}}"#).unwrap();
        let arr = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("s"));
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&JsonValue::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn as_u64_is_exact_and_integer_only() {
        assert_eq!(JsonValue::Uint(u64::MAX).as_u64(), Some(u64::MAX));
        assert_eq!(JsonValue::Float(3.0).as_u64(), None);
        assert_eq!(JsonValue::Str("3".into()).as_u64(), None);
        // Round-trips through text without the f64 precision cliff.
        let big = u64::MAX - 1;
        let back = JsonValue::parse(&JsonValue::Uint(big).to_string()).unwrap();
        assert_eq!(back.as_u64(), Some(big));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("1 2").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }
}
