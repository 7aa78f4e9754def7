//! Minimal, self-contained JSON reader/writer for nested values.
//!
//! The evaluation datasets of the paper are JSON (Twitter) and XML-derived
//! records (DBLP). This module provides enough JSON support for examples,
//! golden tests, and persisting generated workloads — without adding a
//! dependency beyond the approved crate set.
//!
//! Mapping: JSON object → [`DataItem`] (insertion order preserved), JSON
//! array → [`Value::Bag`] (lists are ordered and may contain duplicates),
//! number → `Int` when integral without exponent/fraction, else `Double`.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::label::Label;
use crate::value::{DataItem, Value};

/// Error raised on malformed JSON input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Default nesting depth cap for [`parse`]. Deep enough for any real
/// dataset, shallow enough that adversarial `[[[[…` input errors out long
/// before the recursive-descent parser can exhaust the stack.
pub const DEFAULT_MAX_DEPTH: usize = 128;

/// Parses one JSON document into a [`Value`], capped at
/// [`DEFAULT_MAX_DEPTH`] levels of object/array nesting.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    parse_with_depth(input, DEFAULT_MAX_DEPTH)
}

/// Parses one JSON document, rejecting input nested deeper than
/// `max_depth` levels of objects/arrays with a [`JsonError`] instead of
/// recursing (the parser descends once per level, so unbounded nesting
/// would overflow the stack).
pub fn parse_with_depth(input: &str, max_depth: usize) -> Result<Value, JsonError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
        max_depth,
        scratch: SCRATCH.take(),
    };
    let result = p.document();
    p.scratch.reset();
    SCRATCH.set(p.scratch);
    result
}

/// Parses newline-delimited JSON (one top-level item per line), the format
/// used to persist generated workloads.
pub fn parse_lines(input: &str) -> Result<Vec<DataItem>, JsonError> {
    input
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| match parse(line)? {
            Value::Item(d) => Ok(d),
            _ => Err(JsonError {
                offset: 0,
                message: "expected a JSON object per line".into(),
            }),
        })
        .collect()
}

/// Serializes a value as compact JSON. Sets are emitted as arrays (the
/// bag/set distinction is a schema property, not re-readable from JSON).
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

/// Serializes a data item as a compact JSON object.
pub fn item_to_string(item: &DataItem) -> String {
    let mut out = String::new();
    write_item(&mut out, item);
    out
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Double(d) => {
            if d.fract() == 0.0 && d.is_finite() {
                let _ = write!(out, "{d:.1}");
            } else {
                let _ = write!(out, "{d}");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Item(d) => write_item(out, d),
        Value::Bag(vs) | Value::Set(vs) => {
            out.push('[');
            for (i, v) in vs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, v);
            }
            out.push(']');
        }
    }
}

fn write_item(out: &mut String, item: &DataItem) {
    out.push('{');
    for (i, (n, v)) in item.fields().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(out, n);
        out.push(':');
        write_value(out, v);
    }
    out.push('}');
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Buffers a thread's parses share, so that a document costs one
/// exact-size allocation per container and per string and nothing else.
#[derive(Default)]
struct Scratch {
    /// Fields of every object still open, outermost first; an object owns
    /// the tail from the length it found on entry.
    fields: Vec<(Label, Value)>,
    /// Elements of every array still open, likewise.
    elems: Vec<Value>,
    /// Unescaped text of the current string, when it has an escape.
    text: String,
}

impl Scratch {
    /// Capacity kept between parses; one huge document must not pin its
    /// high-water mark to the thread.
    const KEEP: usize = 1 << 12;

    /// Drops what an interrupted parse left behind and trims the buffers.
    fn reset(&mut self) {
        self.fields.clear();
        self.elems.clear();
        self.fields.shrink_to(Self::KEEP);
        self.elems.shrink_to(Self::KEEP);
        self.text.shrink_to(Self::KEEP);
    }
}

thread_local! {
    // Taken for the duration of a parse and put back afterwards: a panic
    // in between leaves an empty default behind, never a half-built stack.
    static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
}

/// Moves the tail of a scratch stack into a vector of exactly its size.
fn take_exact<T>(stack: &mut Vec<T>, base: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(stack.len() - base);
    out.extend(stack.drain(base..));
    out
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    max_depth: usize,
    scratch: Scratch,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
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
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn document(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters"));
        }
        Ok(v)
    }

    /// Guards one level of descent into an object or array.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, JsonError>) -> Result<Value, JsonError> {
        if self.depth >= self.max_depth {
            return Err(self.err(format!("nesting depth exceeds limit of {}", self.max_depth)));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => Ok(Value::Str(Arc::from(self.string()?))),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(self.err(format!("unexpected character `{}`", c as char))),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let base = self.scratch.fields.len();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Item(DataItem::new()));
        }
        loop {
            self.skip_ws();
            let key = Label::new(self.string()?);
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            // Interned labels are equal exactly when they share an allocation.
            let open = &self.scratch.fields[base..];
            if open
                .iter()
                .any(|(k, _)| Arc::ptr_eq(k.as_arc(), key.as_arc()))
            {
                return Err(self.err(format!("duplicate key `{key}`")));
            }
            self.scratch.fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => {
                    let fields = take_exact(&mut self.scratch.fields, base);
                    return Ok(Value::Item(DataItem::from_parts(fields)));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let base = self.scratch.elems.len();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Bag(Vec::new()));
        }
        loop {
            self.skip_ws();
            let elem = self.value()?;
            self.scratch.elems.push(elem);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Bag(take_exact(&mut self.scratch.elems, base))),
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// Reads a string token. Text without an escape — nearly every key and
    /// value — is borrowed from the input, which is a `&str` and therefore
    /// valid UTF-8 already; escaped text is assembled in the scratch buffer.
    /// Every cut falls on an ASCII byte (`"` or `\`), so the slices below
    /// are on character boundaries.
    fn string(&mut self) -> Result<&str, JsonError> {
        self.expect(b'"')?;
        let mut run = self.pos;
        let mut escaped = false;
        loop {
            // Plain text: nothing to do until the next quote, backslash or
            // control byte.
            let rest = &self.bytes[self.pos..];
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    let tail = &self.input[run..self.pos];
                    self.pos += 1;
                    if !escaped {
                        return Ok(tail);
                    }
                    self.scratch.text.push_str(tail);
                    return Ok(&self.scratch.text);
                }
                b'\\' => {
                    if !escaped {
                        self.scratch.text.clear();
                        escaped = true;
                    }
                    self.scratch.text.push_str(&self.input[run..self.pos]);
                    self.pos += 1;
                    let c = self.escape()?;
                    self.scratch.text.push(c);
                    run = self.pos;
                }
                _ => {
                    self.pos += 1;
                    return Err(self.err("control character in string"));
                }
            }
        }
    }

    /// The character denoted by the escape whose backslash was just read.
    fn escape(&mut self) -> Result<char, JsonError> {
        Ok(match self.bump().ok_or_else(|| self.err("bad escape"))? {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let mut code = self.hex4(self.pos)?;
                self.pos += 4;
                // A high surrogate directly followed by an escaped low one
                // is one scalar (how JSON spells anything beyond U+FFFF);
                // either half on its own is no codepoint.
                if (0xD800..0xDC00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
                    if let Ok(low @ 0xDC00..=0xDFFF) = self.hex4(self.pos + 2) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        self.pos += 6;
                    }
                }
                char::from_u32(code).ok_or_else(|| self.err("invalid codepoint"))?
            }
            c => return Err(self.err(format!("bad escape `\\{}`", c as char))),
        })
    }

    /// The four hex digits of a `\u` escape, starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| self.err("short \\u escape"))?;
        std::str::from_utf8(hex)
            .ok()
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_double = false;
        if self.peek() == Some(b'.') {
            is_double = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_double = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.input[start..self.pos];
        if is_double {
            text.parse::<f64>()
                .map(Value::Double)
                .map_err(|_| self.err("invalid number"))
        } else {
            match text.parse::<i64>() {
                Ok(i) => Ok(Value::Int(i)),
                // Valid JSON integers are unbounded; beyond i64 the value
                // degrades to the nearest double, like every other reader
                // without a bignum type. An empty digit string (bare `-`)
                // fails the f64 parse too and stays an error.
                Err(_) => text
                    .parse::<f64>()
                    .map(Value::Double)
                    .map_err(|_| self.err("invalid integer")),
            }
        }
    }
}

/// The byte-at-a-time parser this module shipped before the borrowing
/// kernel, kept verbatim as the oracle of the differential tests: values,
/// error offsets and error messages must all agree with it.
#[cfg(test)]
mod reference {
    use super::{DataItem, JsonError, Value, DEFAULT_MAX_DEPTH};

    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            max_depth: DEFAULT_MAX_DEPTH,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        depth: usize,
        max_depth: usize,
    }

    impl<'a> Parser<'a> {
        fn err(&self, message: impl Into<String>) -> JsonError {
            JsonError {
                offset: self.pos,
                message: message.into(),
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn bump(&mut self) -> Option<u8> {
            let b = self.peek()?;
            self.pos += 1;
            Some(b)
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
                Err(self.err(format!("expected `{}`", b as char)))
            }
        }

        /// Guards one level of descent into an object or array.
        fn nested(
            &mut self,
            f: fn(&mut Self) -> Result<Value, JsonError>,
        ) -> Result<Value, JsonError> {
            if self.depth >= self.max_depth {
                return Err(self.err(format!("nesting depth exceeds limit of {}", self.max_depth)));
            }
            self.depth += 1;
            let v = f(self);
            self.depth -= 1;
            v
        }

        fn value(&mut self) -> Result<Value, JsonError> {
            match self.peek().ok_or_else(|| self.err("unexpected end"))? {
                b'{' => self.nested(Self::object),
                b'[' => self.nested(Self::array),
                b'"' => Ok(Value::Str(self.string()?.into())),
                b't' => self.literal("true", Value::Bool(true)),
                b'f' => self.literal("false", Value::Bool(false)),
                b'n' => self.literal("null", Value::Null),
                b'-' | b'0'..=b'9' => self.number(),
                c => Err(self.err(format!("unexpected character `{}`", c as char))),
            }
        }

        fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(self.err(format!("expected `{word}`")))
            }
        }

        fn object(&mut self) -> Result<Value, JsonError> {
            self.expect(b'{')?;
            let mut item = DataItem::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Item(item));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                if item.get(&key).is_some() {
                    return Err(self.err(format!("duplicate key `{key}`")));
                }
                item.push(key, value);
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b'}') => return Ok(Value::Item(item)),
                    _ => return Err(self.err("expected `,` or `}`")),
                }
            }
        }

        fn array(&mut self) -> Result<Value, JsonError> {
            self.expect(b'[')?;
            let mut elems = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Bag(elems));
            }
            loop {
                self.skip_ws();
                elems.push(self.value()?);
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b']') => return Ok(Value::Bag(elems)),
                    _ => return Err(self.err("expected `,` or `]`")),
                }
            }
        }

        fn string(&mut self) -> Result<String, JsonError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.bump().ok_or_else(|| self.err("unterminated string"))? {
                    b'"' => return Ok(out),
                    b'\\' => match self.bump().ok_or_else(|| self.err("bad escape"))? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.err("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid codepoint"))?,
                            );
                        }
                        c => return Err(self.err(format!("bad escape `\\{}`", c as char))),
                    },
                    c if c < 0x20 => return Err(self.err("control character in string")),
                    c => {
                        // Re-assemble multi-byte UTF-8 sequences.
                        if c < 0x80 {
                            out.push(c as char);
                        } else {
                            let start = self.pos - 1;
                            let width = utf8_width(c);
                            let end = start + width;
                            let slice = self
                                .bytes
                                .get(start..end)
                                .ok_or_else(|| self.err("truncated UTF-8"))?;
                            let s = std::str::from_utf8(slice)
                                .map_err(|_| self.err("invalid UTF-8"))?;
                            out.push_str(s);
                            self.pos = end;
                        }
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, JsonError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            let mut is_double = false;
            if self.peek() == Some(b'.') {
                is_double = true;
                self.pos += 1;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                is_double = true;
                self.pos += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
            if is_double {
                text.parse::<f64>()
                    .map(Value::Double)
                    .map_err(|_| self.err("invalid number"))
            } else {
                match text.parse::<i64>() {
                    Ok(i) => Ok(Value::Int(i)),
                    // Valid JSON integers are unbounded; beyond i64 the value
                    // degrades to the nearest double, like every other reader
                    // without a bignum type. An empty digit string (bare `-`)
                    // fails the f64 parse too and stays an error.
                    Err(_) => text
                        .parse::<f64>()
                        .map(Value::Double)
                        .map_err(|_| self.err("invalid integer")),
                }
            }
        }
    }

    fn utf8_width(first: u8) -> usize {
        match first {
            0xC0..=0xDF => 2,
            0xE0..=0xEF => 3,
            _ => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use pebble_workloads::{DblpConfig, TwitterConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    #[test]
    fn parse_nested_tweet() {
        let v = parse(
            r#"{"text":"Hello @ls","user":{"id_str":"lp"},"user_mentions":[{"id_str":"ls"}],"retweet_cnt":0}"#,
        )
        .unwrap();
        let d = v.as_item().unwrap();
        assert_eq!(
            d.get("user").unwrap().as_item().unwrap().get("id_str"),
            Some(&Value::str("lp"))
        );
        assert_eq!(d.get("retweet_cnt"), Some(&Value::Int(0)));
        assert!(matches!(d.get("user_mentions"), Some(Value::Bag(v)) if v.len() == 1));
    }

    #[test]
    fn roundtrip_compact() {
        let src = r#"{"a":1,"b":[1,2.5,"x"],"c":{"d":true,"e":null}}"#;
        let v = parse(src).unwrap();
        assert_eq!(to_string(&v), src);
    }

    #[test]
    fn numbers() {
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("2.5").unwrap(), Value::Double(2.5));
        assert_eq!(parse("1e3").unwrap(), Value::Double(1000.0));
    }

    #[test]
    fn integer_overflow_falls_back_to_double() {
        // i64::MAX parses exactly as an integer; one past it overflows and
        // degrades to the nearest double instead of erroring out.
        assert_eq!(parse("9223372036854775807").unwrap(), Value::Int(i64::MAX));
        assert_eq!(
            parse("9223372036854775808").unwrap(),
            Value::Double(9223372036854775808.0)
        );
        assert_eq!(parse("-9223372036854775808").unwrap(), Value::Int(i64::MIN));
        assert_eq!(
            parse("-9223372036854775809").unwrap(),
            Value::Double(-9223372036854775809.0)
        );
        // u64::MAX and beyond-f64-precision magnitudes round-trip through
        // serialization: parse → write → parse is a fixed point even though
        // the decimal digits are no longer exact.
        for src in ["18446744073709551615", "123456789012345678901234567890"] {
            let v = parse(src).unwrap();
            let expect = Value::Double(src.parse::<f64>().unwrap());
            assert_eq!(v, expect, "{src}");
            assert_eq!(parse(&to_string(&v)).unwrap(), v, "{src}");
        }
        // A lone minus sign is still a parse error, not a NaN.
        assert!(parse("-").is_err());
        assert!(parse("{\"a\":-}").is_err());
    }

    #[test]
    fn string_escapes() {
        assert_eq!(parse(r#""a\n\"b\"A""#).unwrap(), Value::str("a\n\"b\"A"));
        let v = Value::str("tab\tnl\nq\"");
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
    }

    #[test]
    fn escaped_surrogate_pairs_combine() {
        // JSON spells anything beyond U+FFFF as two \u escapes.
        let v = parse(r#""\ud83d\ude00 \uD83D\uDE00""#).unwrap();
        assert_eq!(v, Value::str("😀 😀"));
        // The writer emits raw UTF-8, so the round trip is a fixed point.
        assert_eq!(to_string(&v), "\"😀 😀\"");
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
        // A lone or mis-ordered half is still no codepoint, reported right
        // after the four hex digits of the offending escape.
        for (src, offset) in [
            (r#""\ud83d""#, 7),
            (r#""\ude00""#, 7),
            (r#""\ude00\ud83d""#, 7),
            (r#""\ud83d\u0041""#, 7),
            (r#""\ud83dx""#, 7),
        ] {
            let err = parse(src).unwrap_err();
            assert_eq!(
                (err.offset, err.message.as_str()),
                (offset, "invalid codepoint"),
                "{src}"
            );
            assert_eq!(reference::parse(src), Err(err), "{src}");
        }
        // The one pinned divergence from the reference parser.
        let old = reference::parse(r#""\ud83d\ude00""#).unwrap_err();
        assert_eq!((old.offset, old.message.as_str()), (7, "invalid codepoint"));
    }

    #[test]
    fn unicode_passthrough() {
        let v = parse(r#""héllo 世界""#).unwrap();
        assert_eq!(v, Value::str("héllo 世界"));
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
    }

    #[test]
    fn errors_have_offsets() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a":1,"a":2}"#).is_err());
        assert!(parse("1 2").is_err());
    }

    #[test]
    fn depth_cap_boundary() {
        // Exactly at the cap parses; one level past it is a typed error.
        let at = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_with_depth(&at(3), 3).is_ok());
        let err = parse_with_depth(&at(4), 3).unwrap_err();
        assert!(err.message.contains("nesting depth exceeds limit of 3"));
        // The default cap holds for realistic nesting and rejects the
        // adversarial case without touching the recursion limit.
        assert!(parse(&at(DEFAULT_MAX_DEPTH)).is_ok());
        assert!(parse(&at(DEFAULT_MAX_DEPTH + 1)).is_err());
        assert!(parse(&at(100_000)).is_err());
        // Depth resets between siblings: wide-but-shallow input is fine.
        assert!(parse_with_depth("[[1],[2],[3]]", 2).is_ok());
    }

    #[test]
    fn parse_lines_ndjson() {
        let items = parse_lines("{\"a\":1}\n\n{\"a\":2}\n").unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].get("a"), Some(&Value::Int(2)));
        assert!(parse_lines("[1]\n").is_err());
    }

    /// Both parsers on one input: values, error offsets and error messages
    /// must all agree.
    fn agree(src: &str) -> Result<Value, JsonError> {
        let new = parse(src);
        assert_eq!(reference::parse(src), new, "parsers diverge on {src:?}");
        new
    }

    /// 2 000 generated tweets and 2 000 DBLP records as NDJSON lines. The
    /// generators build items of the *library* build of this crate, not of
    /// the test build, so they reach the parsers as text through a file.
    fn corpus() -> &'static [String] {
        static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
        CORPUS.get_or_init(|| {
            let tweets = pebble_workloads::twitter::generate(&TwitterConfig::sized(2000));
            let dblp = pebble_workloads::dblp::generate(&DblpConfig::sized(2000));
            let records = [
                &tweets,
                &dblp.articles,
                &dblp.inproceedings,
                &dblp.proceedings,
                &dblp.persons,
                &dblp.other,
            ];
            let path = std::env::temp_dir()
                .join(format!("pebble-json-corpus-{}.ndjson", std::process::id()));
            pebble_dataflow::io::write_ndjson(&path, records.into_iter().flatten()).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            let lines: Vec<String> = text.lines().map(str::to_owned).collect();
            assert_eq!(lines.len(), 4000);
            lines
        })
    }

    /// Twenty lines spread over both halves of the corpus.
    fn sample_lines() -> impl Iterator<Item = &'static String> {
        corpus().iter().step_by(200)
    }

    #[test]
    fn differential_generated_corpus() {
        for line in corpus() {
            let v = agree(line).unwrap();
            assert_eq!(&to_string(&v), line);
        }
    }

    #[test]
    fn differential_every_prefix() {
        for line in sample_lines() {
            for end in (0..line.len()).filter(|&end| line.is_char_boundary(end)) {
                assert!(agree(&line[..end]).is_err(), "{:?}", &line[..end]);
            }
        }
    }

    #[test]
    fn differential_single_byte_mutations() {
        // Structural bytes are drawn as often as all other ASCII together,
        // so a mutation regularly lands on the grammar.
        const STRUCTURAL: &[u8] = b"\"\\{}[],:-+.eEu0tfn \t\n\x01\x7f";
        let lines: Vec<&String> = sample_lines().collect();
        let mut rng = StdRng::seed_from_u64(22);
        let (mut accepted, mut rejected) = (0, 0);
        while accepted + rejected < 5000 {
            let mut bytes = lines[rng.gen_range(0..lines.len())].clone().into_bytes();
            let at = rng.gen_range(0..bytes.len());
            let with = if rng.gen_bool(0.5) {
                STRUCTURAL[rng.gen_range(0..STRUCTURAL.len())]
            } else {
                rng.gen_range(0u8..0x80)
            };
            // ASCII for ASCII keeps the line valid UTF-8.
            if !bytes[at].is_ascii() || bytes[at] == with {
                continue;
            }
            bytes[at] = with;
            match agree(std::str::from_utf8(&bytes).unwrap()) {
                Ok(_) => accepted += 1,
                Err(_) => rejected += 1,
            }
        }
        assert!(accepted > 100 && rejected > 100, "{accepted} / {rejected}");
    }

    #[test]
    fn differential_hand_list() {
        let deep =
            |n: usize, open: &str, close: &str| format!("{}1{}", open.repeat(n), close.repeat(n));
        let cases: Vec<String> = [
            // Every escape, alone and between plain runs.
            r#""\" \\ \/ \n \t \r \b \f \u00e9 \u0000""#,
            r#""\u00e9""#,
            r#""\u0000""#,
            r#""\u00E9x\u00e9""#,
            r#""a\nb\tc""#,
            r#""\q""#,
            r#""\é""#,
            r#""\"#,
            r#""\u12""#,
            r#""\u12"#,
            r#""\u12G4""#,
            r#""\u+123""#,
            r#""\u-123""#,
            r#""\uéé""#,
            r#""\u1é""#,
            // Multi-byte UTF-8 next to an escape and next to the quotes.
            r#""é\né""#,
            r#""世\u00e9界""#,
            r#""\\世""#,
            r#""😀\"😀""#,
            r#"{"ключ":"значение","k\u00e9y":"v"}"#,
            // Raw control bytes.
            "\"a\u{1}b\"",
            "\"a\nb\"",
            "\"\t\"",
            "\"a\u{0}\"",
            "\"\u{7f}\"",
            "{\"a\u{1f}\":1}",
            // Duplicate keys: depth 1, depth 3, spelled with an escape,
            // behind a failing value; equal names in different objects.
            r#"{"a":1,"a":2}"#,
            r#"{"a":1,"b":2,"a":3,"c":4}"#,
            r#"{"x":{"y":{"a":1,"b":2,"a":3}}}"#,
            r#"{"a":1,"\u0061":2}"#,
            r#"{"a":1,"a":}"#,
            r#"{"a":1,"a":[1,}"#,
            r#"{"a":{"a":{"a":1}},"b":[{"a":1},{"a":2}]}"#,
            r#"[{"a":1,"b":[{"a":1,"a":2}]}]"#,
            // Numbers.
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "-",
            "-0",
            "01",
            "1.",
            "1.5e3",
            "1E-2",
            "1e",
            "1e+",
            ".5",
            "1.2.3",
            "1 2",
            "[1-2]",
            r#"{"a":-}"#,
            // Empty containers, literals, truncations, stray tokens.
            "{}",
            "[]",
            "[{}]",
            r#"{"a":[],"b":{}}"#,
            "[[],[[]],{}]",
            "true",
            "false",
            "null",
            "tru",
            "nul",
            "falsey",
            "",
            " ",
            "\"",
            "\"abc",
            "{",
            "[",
            "]",
            "}",
            "[1",
            "[1,]",
            "[1 2]",
            "[,1]",
            r#"{"a""#,
            r#"{"a"}"#,
            r#"{"a":"#,
            r#"{"a":1"#,
            r#"{"a":1,}"#,
            r#"{"a":1 "b":2}"#,
            "{a:1}",
            "{1:1}",
            "{} x",
            r#""a" "b""#,
            "[1]]",
            "@",
            "é",
            // Whitespace around every token.
            " { \"a\" : [ 1 , 2.5 , \"x\" , true , null ] , \"b\" : { } , \"c\" : [ ] } ",
            "\t{\n\"a\"\r:\t1\n,\r\n\"b\" :\t[\n]\n}\r\n",
            "\u{b}1",
            "1\u{c}",
        ]
        .into_iter()
        .map(str::to_owned)
        .chain([
            deep(128, "[", "]"),
            deep(129, "[", "]"),
            deep(128, "{\"a\":", "}"),
            deep(129, "{\"a\":", "}"),
            deep(64, "[{\"a\":", "}]"),
            deep(65, "[{\"a\":", "}]"),
        ])
        .collect();
        for case in &cases {
            let _ = agree(case);
        }
        // The list exercises both outcomes.
        assert!(cases.iter().filter(|c| parse(c).is_ok()).count() > 30);
        assert!(cases.iter().filter(|c| parse(c).is_err()).count() > 50);
    }

    /// Asserts that no container below `v` owns a slot it does not use.
    fn assert_exact(v: &Value) {
        match v {
            Value::Item(d) => {
                assert_eq!(d.spare_capacity(), 0, "{d}");
                d.fields().for_each(|(_, v)| assert_exact(v));
            }
            Value::Bag(vs) | Value::Set(vs) => {
                assert_eq!(vs.len(), vs.capacity(), "{v}");
                vs.iter().for_each(assert_exact);
            }
            _ => {}
        }
    }

    #[test]
    fn containers_are_allocated_exactly() {
        for line in sample_lines() {
            assert_exact(&parse(line).unwrap());
        }
        // Sizes around the growth steps of a doubling vector, nested so
        // that inner containers close while outer ones are still open.
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 9, 33, 100] {
            let elems: Vec<String> = (0..n).map(|i| format!("[{i},{{\"k\":[{i}]}}]")).collect();
            let fields: Vec<String> = (0..n).map(|i| format!("\"f{i}\":{{\"g\":{i}}}")).collect();
            let src = format!(
                "{{\"list\":[{}],\"obj\":{{{}}}}}",
                elems.join(","),
                fields.join(",")
            );
            assert_exact(&parse(&src).unwrap());
        }
    }

    #[test]
    fn scratch_survives_errors() {
        // A parse that fails with containers open must not leak their
        // fields or elements into the next document on this thread.
        assert!(parse(r#"{"a":1,"b":[1,2,{"c":3,"d":"#).is_err());
        assert!(parse(r#"[1,2,{"a":1,"a":2}]"#).is_err());
        let v = parse(r#"{"x":[7],"y":{"z":"esc\naped"}}"#).unwrap();
        assert_eq!(to_string(&v), r#"{"x":[7],"y":{"z":"esc\naped"}}"#);
    }
}
