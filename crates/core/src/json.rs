//! Minimal hand-rolled JSON: emission *and* parsing.
//!
//! The workspace builds with **zero external dependencies** (no serde),
//! so every machine-readable artifact — the `--trace` JSONL stream and
//! `pba-run verify --json` — goes through this one escaping/formatting
//! module ([`escape`], [`number`], [`JsonObject`], [`u64_array`]). The
//! recursive-descent parser ([`parse`], [`Json`]) reads those artifacts
//! back, as the trace round-trip test does.
//!
//! ## Number fidelity
//!
//! Unsigned integer tokens (all digits, no sign/fraction/exponent) are
//! stored as [`Json::UInt`] and round-trip exactly across the full
//! `u64` range — seeds survive with no decimal-string workaround. Every
//! other numeric token falls back to `f64` ([`Json::Num`]), where
//! integers are exact only up to 2^53.

use std::collections::BTreeMap;
use std::fmt;

/// Escape `s` for inclusion inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Format an `f64` as a JSON number (`null` for NaN/infinity, which JSON
/// cannot represent).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Incremental `{"k": v, …}` builder; keys are emitted in insertion order.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, key: &str) -> &mut String {
        if self.buf.is_empty() {
            self.buf.push('{');
        } else {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(&escape(key));
        self.buf.push_str("\":");
        &mut self.buf
    }

    /// Add a string field (escaped).
    pub fn str(mut self, key: &str, value: &str) -> Self {
        let escaped = escape(value);
        let buf = self.key(key);
        buf.push('"');
        buf.push_str(&escaped);
        buf.push('"');
        self
    }

    /// Add an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key).push_str(&value.to_string());
        self
    }

    /// Add a float field (`null` when not finite).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        let rendered = number(value);
        self.key(key).push_str(&rendered);
        self
    }

    /// Add a pre-rendered JSON value (array, object, literal) verbatim.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.key(key).push_str(value);
        self
    }

    /// Close the object and return its text.
    pub fn finish(mut self) -> String {
        if self.buf.is_empty() {
            self.buf.push('{');
        }
        self.buf.push('}');
        self.buf
    }
}

/// Render a slice of `u64` as a JSON array.
pub fn u64_array(values: &[u64]) -> String {
    let cells: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", cells.join(","))
}

/// A parsed JSON value.
///
/// Plain unsigned integer tokens parse as [`UInt`](Json::UInt) (exact
/// over all of `u64`); every other number is [`Num`](Json::Num) — an
/// `f64` with the usual 2^53 integer caveat. Objects keep their keys in
/// a `BTreeMap`, so iteration order is sorted, not insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    UInt(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Field `key` of an object (`None` for other variants or a missing
    /// key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The object map itself.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array items.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value as an `f64` (exact-integer tokens included,
    /// with the usual loss of precision above 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::UInt(v) => Some(*v as f64),
            _ => None,
        }
    }
}

/// Parser error: what went wrong and the character offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    msg: String,
    pos: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at offset {}", self.msg, self.pos)
    }
}

impl std::error::Error for ParseError {}

/// Parse one complete JSON value; trailing non-whitespace is an error.
///
/// Recursive-descent, strict enough to reject truncated or malformed
/// input: the zero-dependency workspace supplies its own reader. This is
/// the single parser behind the trace round-trip test and the cluster
/// wire codec.
pub fn parse(s: &str) -> Result<Json, ParseError> {
    let chars: Vec<char> = s.chars().collect();
    let mut pos = 0usize;
    let v = parse_value(&chars, &mut pos)?;
    skip_ws(&chars, &mut pos);
    if pos != chars.len() {
        return Err(err("trailing data", pos));
    }
    Ok(v)
}

fn err(msg: impl Into<String>, pos: usize) -> ParseError {
    ParseError {
        msg: msg.into(),
        pos,
    }
}

fn skip_ws(b: &[char], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn parse_value(b: &[char], pos: &mut usize) -> Result<Json, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some('{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    other => return Err(err(format!("non-string key {other:?}"), *pos)),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&':') {
                    return Err(err("expected ':'", *pos));
                }
                *pos += 1;
                map.insert(key, parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    other => return Err(err(format!("expected ',' or '}}', got {other:?}"), *pos)),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    other => return Err(err(format!("expected ',' or ']', got {other:?}"), *pos)),
                }
            }
        }
        Some('"') => {
            *pos += 1;
            let mut out = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err(err("unterminated string", *pos)),
                    Some('"') => {
                        *pos += 1;
                        return Ok(Json::Str(out));
                    }
                    Some('\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some('"') => out.push('"'),
                            Some('\\') => out.push('\\'),
                            Some('/') => out.push('/'),
                            Some('n') => out.push('\n'),
                            Some('r') => out.push('\r'),
                            Some('t') => out.push('\t'),
                            Some('u') => {
                                if *pos + 4 >= b.len() {
                                    return Err(err("truncated \\u escape", *pos));
                                }
                                let hex: String = b[*pos + 1..*pos + 5].iter().collect();
                                let code = u32::from_str_radix(&hex, 16)
                                    .map_err(|e| err(e.to_string(), *pos))?;
                                out.push(char::from_u32(code).ok_or(err("bad codepoint", *pos))?);
                                *pos += 4;
                            }
                            other => return Err(err(format!("bad escape {other:?}"), *pos)),
                        }
                        *pos += 1;
                    }
                    Some(&c) => {
                        out.push(c);
                        *pos += 1;
                    }
                }
            }
        }
        Some('t') if b[*pos..].starts_with(&['t', 'r', 'u', 'e']) => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some('f') if b[*pos..].starts_with(&['f', 'a', 'l', 's', 'e']) => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some('n') if b[*pos..].starts_with(&['n', 'u', 'l', 'l']) => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len() && matches!(b[*pos], '0'..='9' | '-' | '+' | '.' | 'e' | 'E') {
                *pos += 1;
            }
            let text: String = b[start..*pos].iter().collect();
            // All-digit tokens keep full u64 fidelity (seeds!); anything
            // signed, fractional, exponential, or too large falls back
            // to f64.
            if !text.is_empty() && text.chars().all(|c| c.is_ascii_digit()) {
                if let Ok(v) = text.parse::<u64>() {
                    return Ok(Json::UInt(v));
                }
            }
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| err(format!("bad number '{text}'"), start))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn object_builder_renders_valid_json() {
        let s = JsonObject::new()
            .str("name", "x\"y")
            .u64("count", 3)
            .f64("rate", 1.5)
            .f64("bad", f64::NAN)
            .raw("arr", &u64_array(&[1, 2]))
            .finish();
        assert_eq!(
            s,
            r#"{"name":"x\"y","count":3,"rate":1.5,"bad":null,"arr":[1,2]}"#
        );
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn builder_output_parses_back() {
        let s = JsonObject::new()
            .str("t", "hello\nworld")
            .u64("n", 42)
            .f64("x", -0.5)
            .raw("a", "[1,[2,3],{}]")
            .raw("flag", "true")
            .raw("nil", "null")
            .finish();
        let v = parse(&s).unwrap();
        assert_eq!(v.get("t").unwrap().as_str(), Some("hello\nworld"));
        assert_eq!(v.get("n"), Some(&Json::UInt(42)));
        assert_eq!(v.get("x").unwrap().as_f64(), Some(-0.5));
        assert_eq!(v.get("flag"), Some(&Json::Bool(true)));
        assert_eq!(v.get("nil"), Some(&Json::Null));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].as_arr().unwrap().len(), 2);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":1"#).is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse(r#""unterminated"#).is_err());
        assert!(parse("1 2").is_err(), "trailing data must be rejected");
        assert!(parse("nul").is_err());
        assert!(parse(r#""bad \u00""#).is_err(), "truncated \\u escape");
    }

    #[test]
    fn parse_handles_escapes_and_numbers() {
        let v = parse(r#"{"s":"tab\tnl\nuniA","neg":-3.5e2}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("tab\tnl\nuniA"));
        assert_eq!(v.get("neg").unwrap().as_f64(), Some(-350.0));
    }

    #[test]
    fn unsigned_tokens_keep_full_u64_fidelity() {
        assert_eq!(parse("42").unwrap(), Json::UInt(42));
        assert_eq!(parse("-1").unwrap(), Json::Num(-1.0));
        assert_eq!(parse("1.5").unwrap(), Json::Num(1.5));
        // Above 2^53 an f64 would drift; the UInt variant keeps every
        // bit, all the way to u64::MAX.
        assert_eq!(
            parse("9007199254740993").unwrap(),
            Json::UInt(9_007_199_254_740_993)
        );
        assert_eq!(parse("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
        // But a float-shaped token stays a float even when integral.
        assert_eq!(parse("4.0").unwrap(), Json::Num(4.0));
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
    }
}
