//! A minimal JSON value, writers, and recursive-descent parser.
//!
//! The one JSON codec of the workspace: the Chrome trace-event export,
//! flight dumps, metric snapshots, the live plane, and every artifact the
//! bench harnesses write under `results/` and `bench/` go through [`Json`].
//! Objects keep insertion order in memory and in the compact form
//! ([`Json::write`]); the artifact form ([`Json::pretty`]) is indented with
//! keys sorted, so a regenerated file diffs cleanly against a committed
//! one. Numbers are `f64`.
//!
//! Values are built with [`json!`](crate::json!) and the `From` impls
//! below, and read with [`Json::get`] / indexing and the `as_*` accessors.

use std::fmt;
use std::ops::Index;

/// A JSON document node.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers are f64 (integers up to 2^53 are exact, which covers
    /// every counter and nanosecond value this crate produces).
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (None for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize compactly into `out`, object keys in insertion order.
    pub fn write(&self, out: &mut String) {
        self.write_at(out, None);
    }

    /// The artifact form: two-space indent, object keys sorted.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_at(&mut out, Some(0));
        out
    }

    /// `depth` is the nesting level of the pretty form, `None` for compact.
    fn write_at(&self, out: &mut String, depth: Option<usize>) {
        // Separator before an item of a container (or, with `last`, before
        // its closing bracket) at `depth`.
        let sep = |out: &mut String, first: bool, last: bool| {
            if !first && !last {
                out.push(',');
            }
            if let Some(d) = depth {
                out.push('\n');
                for _ in 0..d + usize::from(!last) {
                    out.push_str("  ");
                }
            }
        };
        let inner = depth.map(|d| d + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // Rust's shortest-roundtrip float formatting; integral
                    // values print without a fractional part.
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null"); // JSON has no Inf/NaN
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(v) => {
                out.push('[');
                for (i, e) in v.iter().enumerate() {
                    sep(out, i == 0, false);
                    e.write_at(out, inner);
                }
                if !v.is_empty() {
                    sep(out, false, true);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                let member = |out: &mut String, i: usize, (k, v): &(String, Json)| {
                    sep(out, i == 0, false);
                    write_escaped(k, out);
                    out.push_str(if depth.is_some() { ": " } else { ":" });
                    v.write_at(out, inner);
                };
                out.push('{');
                if depth.is_some() {
                    let mut sorted: Vec<&(String, Json)> = fields.iter().collect();
                    sorted.sort_by(|a, b| a.0.cmp(&b.0));
                    for (i, f) in sorted.into_iter().enumerate() {
                        member(out, i, f);
                    }
                } else {
                    // The compact form is on the trace-export and
                    // live-shipping paths: no allocation here.
                    for (i, f) in fields.iter().enumerate() {
                        member(out, i, f);
                    }
                }
                if !fields.is_empty() {
                    sep(out, false, true);
                }
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

/// `v["key"]`: the member, or `Json::Null` where there is none — a chain
/// of lookups into a document of unknown shape ends in an `as_*`
/// returning `None`, never in a panic.
impl Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&Json::Null)
    }
}

/// `v["ok"] == true`.
impl PartialEq<bool> for Json {
    fn eq(&self, b: &bool) -> bool {
        *self == Json::Bool(*b)
    }
}

macro_rules! json_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}
json_from_number!(f64, i32, i64, u32, u64, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// By reference, for values borrowed out of an iterator.
impl<T: Clone + Into<Json>> From<&T> for Json {
    fn from(v: &T) -> Json {
        v.clone().into()
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>, const N: usize> From<[T; N]> for Json {
    fn from(v: [T; N]) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Build a [`Json`] from a literal shaped like the JSON it makes:
/// `json!({ "key": expr, .. })` or `json!(expr)`, where each `expr` is
/// anything with a `From` impl above (another `Json`, a `Vec` or an array
/// of them included). An object *inside* one is an expression like any
/// other, so it is spelled with its own `json!`.
#[macro_export]
macro_rules! json {
    ({ $($key:tt : $value:expr),* $(,)? }) => {
        $crate::Json::Obj(vec![$(($key.to_string(), $crate::Json::from($value))),*])
    };
    ($value:expr) => {
        $crate::Json::from($value)
    };
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

/// Parse failure: message plus byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    pub msg: String,
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

/// Deepest array / object nesting [`Json::parse`] follows. Every document
/// this workspace writes is a handful of levels deep; the cap keeps a
/// hostile `[[[[…` from overflowing the parser's stack.
pub const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn nested(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pair handling for completeness.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    // A high surrogate followed by anything
                                    // but a low one is not a character.
                                    (self.hex4()?.checked_sub(0xdc00))
                                        .filter(|lo| *lo < 0x400)
                                        .and_then(|lo| {
                                            char::from_u32(0x10000 + ((cp - 0xd800) << 10) + lo)
                                        })
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) -> Json {
        Json::parse(&v.to_string()).expect("reparse")
    }

    #[test]
    fn scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(
            Json::parse("\"a b\"").unwrap(),
            Json::Str("a b".to_string())
        );
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("smooth+residual".into())),
            ("ts".into(), Json::Num(1234.567)),
            (
                "args".into(),
                Json::Obj(vec![
                    ("level".into(), Json::Num(0.0)),
                    ("flops".into(), Json::Num(8.0 * 4096.0)),
                ]),
            ),
            (
                "arr".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(3.0)]),
            ),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn string_escapes_roundtrip() {
        for s in [
            "quote\"back\\slash",
            "line\nbreak\ttab",
            "µs σ — unicode",
            "\u{1}",
        ] {
            let v = Json::Str(s.to_string());
            assert_eq!(roundtrip(&v), v, "{s:?}");
        }
        // \u escapes parse, including a surrogate pair.
        assert_eq!(
            Json::parse("\"\\u00b5\\ud83d\\ude00\"").unwrap(),
            Json::Str("µ😀".to_string())
        );
    }

    #[test]
    fn integral_floats_print_without_fraction() {
        assert_eq!(Json::Num(1.0).to_string(), "1");
        assert_eq!(Json::Num(0.001).to_string(), "0.001");
    }

    #[test]
    fn getters() {
        let v = Json::parse("{\"a\": 1, \"b\": [\"x\"]}").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("b").and_then(Json::as_arr).map(|a| a.len()), Some(1));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }

    #[test]
    fn parse_errors() {
        for bad in ["", "{", "[1,", "\"open", "{\"k\" 1}", "nul", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn hostile_nesting_and_lone_surrogates_are_errors_not_crashes() {
        let deep = "[".repeat(200_000);
        assert!(Json::parse(&deep).is_err());
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        // High surrogate followed by a non-low escape.
        assert!(Json::parse(r#""\ud800\u0041""#).is_err());
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1f600}")
        );
    }

    #[test]
    fn the_macro_builds_what_the_literal_says() {
        let rows = vec![json!({"id": "a", "ratio": 1.5}), json!({"id": "b"})];
        let label = String::from("fused");
        let v = json!({
            "schema": 2u64,
            "label": &label,
            "paper": [1.58, 1.46, 1.0],
            "grid": 128i64,
            "rows": rows,
            "nested": json!({"ok": true, "none": Json::Null}),
        });
        let text = r#"{"schema":2,"label":"fused","paper":[1.58,1.46,1],"grid":128,
            "rows":[{"id":"a","ratio":1.5},{"id":"b"}],"nested":{"ok":true,"none":null}}"#;
        assert_eq!(v, Json::parse(text).unwrap());
        assert_eq!(json!([1u64, 2]), Json::parse("[1,2]").unwrap());
        assert_eq!(json!({}), Json::Obj(vec![]));
    }

    #[test]
    fn indexing_never_panics() {
        let v = json!({"rows": vec![json!({"id": "a"})], "ok": true});
        assert_eq!(v["rows"].as_arr().unwrap()[0]["id"].as_str(), Some("a"));
        assert_eq!(v["rows"]["id"], Json::Null);
        assert_eq!(v["missing"]["deeper"].as_f64(), None);
        assert!(v["ok"] == true && v["rows"] != true);
    }

    #[test]
    fn pretty_is_indented_sorted_and_reparses() {
        let v =
            json!({"b": [1u64, 2], "a": json!({"z": "s", "y": Json::Arr(vec![])}), "c": json!({})});
        let want = "{\n  \"a\": {\n    \"y\": [],\n    \"z\": \"s\"\n  },\n  \"b\": [\n    1,\n    2\n  ],\n  \"c\": {}\n}";
        assert_eq!(v.pretty(), want);
        // Same members; only the key order differs from insertion order.
        let back = Json::parse(&v.pretty()).unwrap();
        assert_eq!(
            back.to_string(),
            r#"{"a":{"y":[],"z":"s"},"b":[1,2],"c":{}}"#
        );
        assert_eq!(json!(1.5).pretty(), "1.5");
    }

    #[test]
    fn key_order_preserved() {
        let v = Json::parse("{\"z\": 1, \"a\": 2}").unwrap();
        match &v {
            Json::Obj(fields) => {
                assert_eq!(fields[0].0, "z");
                assert_eq!(fields[1].0, "a");
            }
            _ => panic!("not an object"),
        }
    }
}
