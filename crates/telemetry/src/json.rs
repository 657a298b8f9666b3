//! The workspace's one JSON: an owned value tree ([`Json`]), a strict
//! RFC 8259 parser ([`Json::parse`]) and a writer ([`Json::write`], plus the
//! [`push_seq`]/[`push_opt`] helpers for code that streams into a `String`
//! without building a tree). Trace lines, flat JSONL artifacts, benchmark
//! reports and checkpoints are all read through this parser.
//!
//! **Number typing** is decided once, here, by syntax: a token without
//! fraction or exponent that fits `u64` (or, when negative, `i64`) parses
//! exactly as [`Json::U64`]/[`Json::I64`]; everything else — including `-0`,
//! which must re-print with its sign — parses as [`Json::F64`]. Checkpoints
//! store every float as the decimal of its bit pattern (up to 2⁶⁴−1), so the
//! integer path must be exact. The writer prints non-finite floats as `null`
//! (JSON has no NaN/Inf); readers that want the float back map `null` to NaN.
//! Written text is canonical: parsing it and writing again gives the same
//! bytes.
//!
//! The parser never panics and never recurses deeper than [`MAX_DEPTH`]
//! containers, whatever the input.

use std::fmt::{self, Write as _};

use crate::event::{push_json_f64, push_json_str};

/// Deepest container nesting the parser accepts. Real artifacts nest about
/// ten deep; the cap keeps recursion (parse, drop, clone, write) inside a
/// small thread stack on hostile input.
pub const MAX_DEPTH: usize = 64;

/// An owned JSON value. Objects preserve insertion order so artifacts are
/// diffable with plain text tools.
#[derive(Clone, Debug)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Two values are equal when they write the same text, so `F64(2.0)`,
/// `U64(2)` and a re-parsed `2` are one value (and a non-finite float equals
/// `null`): a tree built in memory compares equal to itself read back.
impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        self.to_json() == other.to_json()
    }
}

impl Json {
    /// Object field by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Any number as `f64` (JSON does not distinguish, so readers do not).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::F64(v) => Some(v),
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            _ => None,
        }
    }

    /// A non-negative whole number below 2⁶⁴, however it was spelled.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 && v < 18_446_744_073_709_551_616.0 => {
                Some(v as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Compact single-line encoding.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write(&mut out);
        out
    }

    /// Append the compact encoding to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => push_json_f64(out, *v),
            Json::Str(s) => push_json_str(out, s),
            Json::Arr(items) => push_seq(out, items, |out, item| item.write(out)),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            i: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.i != text.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

/// Convenience: an object from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Stream `items` as a JSON array, `item` writing each element; the
/// brackets and commas are written here.
pub fn push_seq<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

/// Stream an optional value: `some` writes a present one, `None` is `null`.
pub fn push_opt<T>(out: &mut String, v: Option<T>, some: impl FnOnce(&mut String, T)) {
    match v {
        Some(x) => some(out, x),
        None => out.push_str("null"),
    }
}

/// Parse failure with the byte offset it was detected at.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    pub offset: usize,
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.i,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.i).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.i += hit as usize;
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("malformed literal"))
        }
    }

    /// One value, leading whitespace skipped. The only recursive function:
    /// arrays and objects are parsed inline so a nesting level costs one
    /// frame.
    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        let (close, is_obj) = match self.peek() {
            Some(b'n') => return self.literal("null", Json::Null),
            Some(b't') => return self.literal("true", Json::Bool(true)),
            Some(b'f') => return self.literal("false", Json::Bool(false)),
            Some(b'"') => return self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => return self.number(),
            Some(b'[') => (b']', false),
            Some(b'{') => (b'}', true),
            Some(_) => return Err(self.err("expected a value")),
            None => return Err(self.err("unexpected end of input")),
        };
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        self.depth += 1;
        self.i += 1;
        let mut items = Vec::new();
        let mut fields = Vec::new();
        self.skip_ws();
        if !self.eat(close) {
            loop {
                if is_obj {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(b':') {
                        return Err(self.err("expected ':'"));
                    }
                    fields.push((key, self.value()?));
                } else {
                    items.push(self.value()?);
                }
                self.skip_ws();
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.err("expected ',' or a closing bracket"));
                }
            }
        }
        self.depth -= 1;
        Ok(if is_obj {
            Json::Obj(fields)
        } else {
            Json::Arr(items)
        })
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        if self.i == start {
            return Err(self.err("expected a digit"));
        }
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (\. [0-9]+)? ([eE] [+-]? [0-9]+)?`, typed as the
    /// module docs describe.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        let negative = self.eat(b'-');
        // A leading zero stands alone: "01" ends after the "0".
        if !self.eat(b'0') {
            self.digits()?;
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.i += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            self.digits()?;
        }
        let tok = &self.text[start..self.i];
        if integral && negative {
            // "-0" stays a float: I64(0) would re-print without the sign.
            if tok == "-0" {
                return Ok(Json::F64(-0.0));
            }
            if let Ok(v) = tok.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        } else if integral {
            if let Ok(v) = tok.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        match tok.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::F64(v)),
            _ => Err(self.err("number out of range")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if !self.eat(b'"') {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        // Unescaped text is copied in runs. Runs end only at ASCII bytes, so
        // the slices below always fall on char boundaries of `text`.
        let mut run = self.i;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.i]);
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.i]);
                    self.i += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.err("bad escape")),
                    };
                    out.push(c);
                    self.i += 1;
                    run = self.i;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => self.i += 1,
            }
        }
    }

    /// Four hex digits after the cursor (which is on the `u`); leaves the
    /// cursor on the last digit.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0;
        for _ in 0..4 {
            self.i += 1;
            let d = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("bad \\u escape"))?;
            v = (v << 4) | d;
        }
        Ok(v)
    }

    /// `\uXXXX`, or a `\uD8xx\uDCxx` surrogate pair; lone surrogates are
    /// errors. Cursor as in [`Parser::hex4`].
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            self.i += 1;
            if !self.eat(b'\\') || self.peek() != Some(b'u') {
                return Err(self.err("unpaired high surrogate"));
            }
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("lone surrogate"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn grammar_accepts_and_rejects() {
        for (text, want) in [
            ("-0", Json::F64(-0.0)),
            ("0", Json::U64(0)),
            ("1e-7", Json::F64(1e-7)),
            ("-3E+2", Json::F64(-300.0)),
            ("2.5", Json::F64(2.5)),
            ("18446744073709551615", Json::U64(u64::MAX)),
            ("-9223372036854775808", Json::I64(i64::MIN)),
            ("18446744073709551616", Json::F64(18446744073709551616.0)),
            ("\"😀\"", Json::Str("😀".into())),
            ("\"\\ud83d\\ude00 \\u00e9\"", Json::Str("😀 é".into())),
            (
                "\"\\b\\f\\n\\r\\t\\/\\\\\\\"\"",
                Json::Str("\u{8}\u{c}\n\r\t/\\\"".into()),
            ),
            (" [ ] ", Json::Arr(vec![])),
            ("{ }\n", Json::Obj(vec![])),
            (
                "[1,\"x\",null,true]",
                Json::Arr(vec![
                    Json::U64(1),
                    Json::Str("x".into()),
                    Json::Null,
                    Json::Bool(true),
                ]),
            ),
        ] {
            let got = Json::parse(text).unwrap_or_else(|e| panic!("rejected {text}: {e}"));
            // Variant-exact, not just text-equal: the typing rule is the contract.
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{text}");
        }
        for bad in [
            "",
            " ",
            "+5",
            ".5",
            "1.",
            "01",
            "-",
            "-a",
            "1e",
            "1e+",
            "1.e3",
            "1e999",
            "--1",
            "{} x",
            "12 34",
            "nul",
            "tru",
            "[1,2",
            "[1,]",
            "[,1]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{a:1}",
            "\"abc",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u12g4\"",
            "\"\\ud800\"",
            "\"\\ud800\\n\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "\"a\u{1}b\"",
            "\"a\nb\"",
            "\"a\tb\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn written_text_is_canonical() {
        let doc = obj(vec![
            ("name", Json::Str("solve \"quick\"\u{1}".into())),
            ("samples", Json::Arr(vec![Json::F64(0.1), Json::F64(2.0)])),
            ("bits", Json::U64(u64::MAX)),
            ("neg", Json::I64(-3)),
            ("nz", Json::F64(-0.0)),
            ("nan", Json::F64(f64::NAN)),
            ("ok", Json::Bool(true)),
            ("missing", Json::Null),
        ]);
        let text = doc.to_json();
        assert!(text.contains("\"samples\":[0.1,2]") && text.contains("\"nan\":null"));
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.to_json(), text);
        assert_eq!(back, doc);
        // Read back, the whole float is an integer and the NaN a null.
        assert!(matches!(
            back.get("samples").unwrap().as_arr().unwrap()[1],
            Json::U64(2)
        ));
        assert_eq!(back.get("nan"), Some(&Json::Null));
        assert_eq!(back.get("bits").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn accessors_are_strict_about_kind_and_range() {
        let v = Json::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\ny"}"#)
            .unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_f64(), None);
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("e").unwrap().get("x"), None);
        for (text, want) in [
            ("42", Some(42)),
            ("4e1", Some(40)),
            ("-1", None),
            ("1.5", None),
            ("18446744073709551616", None),
            ("\"7\"", None),
        ] {
            assert_eq!(Json::parse(text).unwrap().as_u64(), want, "{text}");
        }
    }

    #[test]
    fn hostile_nesting_is_an_error_on_a_small_stack() {
        let handle = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                for open in ["[", "{\"a\":", "[{\"a\":"] {
                    assert!(Json::parse(&open.repeat(300_000)).is_err());
                }
                // At the cap, every recursive operation on the tree fits too.
                let deep = Json::parse(&nested(MAX_DEPTH)).unwrap();
                assert_eq!(deep.clone(), deep);
                assert_eq!(deep.to_json().len(), 2 * MAX_DEPTH);
            })
            .unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn stream_helpers_match_the_tree_writer() {
        let mut out = String::new();
        push_seq(&mut out, [Some(1u64), None, Some(3)], |out, x| {
            push_opt(out, x, |out, v| {
                let _ = write!(out, "{v}");
            })
        });
        assert_eq!(out, "[1,null,3]");
        assert_eq!(Json::parse(&out).unwrap().to_json(), out);
    }
}
