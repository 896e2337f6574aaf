//! The canonical on-disk instance format (JSON): a minimal JSON parser,
//! a one-pass typed reader for instance documents, and the canonical
//! writer.
//!
//! The allowed dependency set contains no data-format crate, so the
//! readers and the writer are hand rolled.
//!
//! * **Reading.** [`InstanceFile::parse`] first runs a typed reader that
//!   walks the bytes once, straight into items and edges, and applies
//!   every schema check. It accepts or declines; it never reports. A
//!   document it declines — malformed, or only unusual, such as one with
//!   a duplicate or escaped key — is read again by the tree walk: the
//!   strict recursive-descent [`parse`] into a [`Json`] tree that tracks
//!   the **line** of every value, then a schema walk over the tree. Only
//!   the tree walk builds errors, so schema errors name the offending
//!   field *and* line — the contract the batch tooling relies on when a
//!   10 000-file shard run rejects one input. Both readers share the
//!   number-token grammar and every schema rule.
//! * **Writing.** One canonical writer serves two sinks: a `String`
//!   ([`InstanceFile::to_json`], [`canonical_json`]) and the FNV-1a
//!   hasher behind [`crate::InstanceDigest::of_instance`], which it feeds
//!   one line at a time without ever holding the document.
//!
//! On-disk schema (`InstanceFile`):
//!
//! ```json
//! {
//!   "format": "spp-instance",
//!   "version": 1,
//!   "items": [
//!     {"id": 0, "w": 5.00000000000000000e-1, "h": 1.00000000000000000e0, "release": 0.00000000000000000e0}
//!   ],
//!   "edges": [
//!     [0, 1]
//!   ]
//! }
//! ```
//!
//! Floats are written exactly as `{:.17e}` writes them, so
//! `parse ∘ serialize` is the identity bit-for-bit; an integer kernel
//! writes the usual range and `core::fmt` the rest. A zero release is
//! written as `0.00000000000000000e0` whatever its sign, so equal
//! instances write equal bytes. Edges are stored as raw `[pred, succ]` id
//! pairs; cycle checking belongs to the DAG layer (`spp-dag`), which this
//! crate deliberately does not depend on.

use std::fmt::Write as _;
use std::io::Write as _;

use crate::error::CoreError;
use crate::instance::Instance;
use crate::item::Item;

// ---------------------------------------------------------------------------
// Low-level JSON values
// ---------------------------------------------------------------------------

/// A parsed JSON value (payload only; the line lives in [`JsonValue`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl Json {
    /// Human name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// A JSON value together with the 1-based line it started on.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonValue {
    pub json: Json,
    pub line: usize,
}

/// A syntax error from the low-level parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonSyntaxError {
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for JsonSyntaxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for JsonSyntaxError {}

/// The number-token grammar both readers share: an optional `-`, digits,
/// an optional `.` and digits, an optional exponent. Returns the end of
/// the token starting at `start` and its `str::parse::<f64>` value, `None`
/// where that rejects the token (`-`, `1e`, …).
fn lex_number(bytes: &[u8], start: usize) -> (usize, Option<f64>) {
    let digits = |mut at: usize| {
        while bytes.get(at).is_some_and(u8::is_ascii_digit) {
            at += 1;
        }
        at
    };
    let mut end = digits(start + usize::from(bytes.get(start) == Some(&b'-')));
    if bytes.get(end) == Some(&b'.') {
        end = digits(end + 1);
    }
    if matches!(bytes.get(end), Some(b'e' | b'E')) {
        end += 1;
        end = digits(end + usize::from(matches!(bytes.get(end), Some(b'+' | b'-'))));
    }
    let token = std::str::from_utf8(&bytes[start..end]).expect("number tokens are ASCII");
    (end, token.parse().ok())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn err(&self, msg: impl Into<String>) -> JsonSyntaxError {
        JsonSyntaxError {
            line: self.line,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonSyntaxError> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => {
                Err(self.err(format!("expected {:?}, found {:?}", b as char, got as char)))
            }
            None => Err(self.err(format!("expected {:?}, found end of input", b as char))),
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonSyntaxError> {
        self.skip_ws();
        let line = self.line;
        let json = match self.peek() {
            Some(b'{') => self.parse_object()?,
            Some(b'[') => self.parse_array()?,
            Some(b'"') => Json::Str(self.parse_string()?),
            Some(b't') | Some(b'f') => self.parse_bool()?,
            Some(b'n') => {
                self.parse_keyword("null")?;
                Json::Null
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => Json::Num(self.parse_number()?),
            Some(c) => return Err(self.err(format!("unexpected character {:?}", c as char))),
            None => return Err(self.err("unexpected end of input")),
        };
        Ok(JsonValue { json, line })
    }

    fn parse_keyword(&mut self, kw: &str) -> Result<(), JsonSyntaxError> {
        for want in kw.bytes() {
            match self.bump() {
                Some(got) if got == want => {}
                _ => return Err(self.err(format!("expected keyword {kw:?}"))),
            }
        }
        Ok(())
    }

    fn parse_bool(&mut self) -> Result<Json, JsonSyntaxError> {
        if self.peek() == Some(b't') {
            self.parse_keyword("true")?;
            Ok(Json::Bool(true))
        } else {
            self.parse_keyword("false")?;
            Ok(Json::Bool(false))
        }
    }

    fn parse_number(&mut self) -> Result<f64, JsonSyntaxError> {
        let start = self.pos;
        let (end, value) = lex_number(self.bytes, start);
        self.pos = end;
        value.ok_or_else(|| {
            let token = std::str::from_utf8(&self.bytes[start..end]).expect("ascii slice");
            self.err(format!("invalid number {token:?}"))
        })
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonSyntaxError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self
                .bump()
                .and_then(|c| (c as char).to_digit(16))
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            code = code * 16 + d;
        }
        Ok(code)
    }

    fn parse_string(&mut self) -> Result<String, JsonSyntaxError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let unit = self.parse_hex4()?;
                        let code = if (0xD800..=0xDBFF).contains(&unit) {
                            // High surrogate: JSON encodes astral-plane
                            // characters as a \uXXXX\uXXXX pair.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("high surrogate not followed by \\u escape"));
                            }
                            let low = self.parse_hex4()?;
                            if !(0xDC00..=0xDFFF).contains(&low) {
                                return Err(self.err("invalid low surrogate in \\u pair"));
                            }
                            0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                        } else {
                            unit
                        };
                        out.push(
                            char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))?,
                        );
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(c) if c < 0x80 => out.push(c as char),
                Some(first) => {
                    // Re-decode a multi-byte UTF-8 sequence (input is &str,
                    // so the bytes are valid UTF-8 by construction).
                    let len = match first {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump();
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, JsonSyntaxError> {
        self.expect(b'[')?;
        let mut vals = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Json::Arr(vals));
        }
        loop {
            vals.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Json::Arr(vals)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, JsonSyntaxError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Json::Obj(fields)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

/// Parse one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(text: &str) -> Result<JsonValue, JsonSyntaxError> {
    let mut p = Parser::new(text);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.peek().is_some() {
        return Err(p.err("trailing characters after JSON document"));
    }
    Ok(v)
}

/// Escape a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

// ---------------------------------------------------------------------------
// Schema layer: the instance file
// ---------------------------------------------------------------------------

/// A schema error: which field is wrong, on which line, and why.
#[derive(Debug, Clone, PartialEq)]
pub enum FileFormatError {
    /// The document is not JSON at all.
    Syntax(JsonSyntaxError),
    /// The document is JSON but violates the `spp-instance` schema.
    Field {
        /// Dotted/indexed path of the offending field, e.g. `items[3].w`.
        field: String,
        /// 1-based line the offending value starts on.
        line: usize,
        msg: String,
    },
}

impl std::fmt::Display for FileFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileFormatError::Syntax(e) => write!(f, "invalid JSON: {e}"),
            FileFormatError::Field { field, line, msg } => {
                write!(f, "field {field} (line {line}): {msg}")
            }
        }
    }
}

impl std::error::Error for FileFormatError {}

impl From<JsonSyntaxError> for FileFormatError {
    fn from(e: JsonSyntaxError) -> Self {
        FileFormatError::Syntax(e)
    }
}

fn field_err(field: &str, line: usize, msg: impl Into<String>) -> FileFormatError {
    FileFormatError::Field {
        field: field.to_string(),
        line,
        msg: msg.into(),
    }
}

/// The on-disk instance document: items plus raw precedence edges.
///
/// This is the *transport* form — it stores exactly what the file stores.
/// [`InstanceFile::instance`] builds the validated [`Instance`]; pairing
/// the edges with a checked DAG is the caller's job (`spp-gen::fileio`),
/// because `spp-core` does not depend on the graph crate.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceFile {
    pub items: Vec<Item>,
    pub edges: Vec<(usize, usize)>,
}

/// Current schema version written by [`InstanceFile::to_json`].
pub const INSTANCE_FORMAT_VERSION: u64 = 1;

/// The `format` tag written by [`InstanceFile::to_json`].
pub const INSTANCE_FORMAT_NAME: &str = "spp-instance";

impl InstanceFile {
    pub fn new(items: Vec<Item>, edges: Vec<(usize, usize)>) -> Self {
        InstanceFile { items, edges }
    }

    /// Build the validated [`Instance`] (ids must be exactly `0..n`).
    pub fn instance(&self) -> Result<Instance, CoreError> {
        Instance::new(self.items.clone())
    }

    /// Canonical serialization: fixed field order, one item / edge per
    /// line, floats as `{:.17e}` writes them so the round-trip is exact.
    /// See [`canonical_json`].
    pub fn to_json(&self) -> String {
        canonical_json(&self.items, &self.edges)
    }

    /// Parse and schema-check a document produced by [`Self::to_json`]
    /// (or written by hand). Items may appear in any order; their ids must
    /// be exactly `0..n`. Every schema violation names the offending
    /// field path and the line it starts on.
    ///
    /// The typed reader reads every document it accepts; the tree walk
    /// reads the rest and builds every error (see the module docs).
    pub fn parse(text: &str) -> Result<Self, FileFormatError> {
        TypedReader::read(text).map_or_else(|| Self::parse_tree(text), Ok)
    }

    /// The tree walk: [`parse`] into a [`Json`] tree, then a schema walk
    /// over it that names the field and line of the first violation.
    fn parse_tree(text: &str) -> Result<Self, FileFormatError> {
        let doc = parse(text)?;
        let obj = as_obj(&doc, "$")?;

        // Reject unknown top-level fields so typos ("edgs") are named
        // instead of silently dropped.
        for (key, val) in obj {
            if !matches!(key.as_str(), "format" | "version" | "items" | "edges") {
                return Err(field_err(key, val.line, "unknown field"));
            }
        }

        let format = get_field(obj, &doc, "format")?;
        match &format.json {
            Json::Str(s) if s == INSTANCE_FORMAT_NAME => {}
            Json::Str(s) => {
                return Err(field_err(
                    "format",
                    format.line,
                    format!("expected {INSTANCE_FORMAT_NAME:?}, found {s:?}"),
                ))
            }
            other => {
                return Err(field_err(
                    "format",
                    format.line,
                    format!("expected string, found {}", other.type_name()),
                ))
            }
        }

        let version = get_field(obj, &doc, "version")?;
        let v = as_u64(version, "version")?;
        if v != INSTANCE_FORMAT_VERSION {
            return Err(field_err(
                "version",
                version.line,
                format!("unsupported version {v} (this build reads {INSTANCE_FORMAT_VERSION})"),
            ));
        }

        let items_val = get_field(obj, &doc, "items")?;
        let items_arr = as_arr(items_val, "items")?;
        let mut items: Vec<Item> = Vec::with_capacity(items_arr.len());
        for (i, iv) in items_arr.iter().enumerate() {
            items.push(parse_item(iv, i)?);
        }
        if let Some(index) = sort_by_id(&mut items) {
            return Err(field_err(
                "items",
                items_val.line,
                format!(
                    "item ids must be exactly 0..{}; missing id {index}",
                    items.len()
                ),
            ));
        }

        let edges_val = get_field(obj, &doc, "edges")?;
        let edges_arr = as_arr(edges_val, "edges")?;
        let mut edges = Vec::with_capacity(edges_arr.len());
        for (i, ev) in edges_arr.iter().enumerate() {
            let path = format!("edges[{i}]");
            let pair = as_arr(ev, &path)?;
            if pair.len() != 2 {
                return Err(field_err(
                    &path,
                    ev.line,
                    format!("expected [pred, succ], found {} elements", pair.len()),
                ));
            }
            let u = as_u64(&pair[0], &format!("{path}[0]"))? as usize;
            let v = as_u64(&pair[1], &format!("{path}[1]"))? as usize;
            for (endpoint, which) in [(u, "[0]"), (v, "[1]")] {
                if endpoint >= items.len() {
                    return Err(field_err(
                        &format!("{path}{which}"),
                        ev.line,
                        format!("id {endpoint} out of range (n = {})", items.len()),
                    ));
                }
            }
            edges.push((u, v));
        }

        Ok(InstanceFile { items, edges })
    }
}

/// Typed accessor: the value must be an object; `path` names it in the
/// error. (These accessors are public so every schema layer built on this
/// parser — instance files here, shard reports in `spp-engine` — shares
/// one implementation and one error style.)
pub fn as_obj<'a>(
    v: &'a JsonValue,
    path: &str,
) -> Result<&'a Vec<(String, JsonValue)>, FileFormatError> {
    match &v.json {
        Json::Obj(fields) => Ok(fields),
        other => Err(field_err(
            path,
            v.line,
            format!("expected object, found {}", other.type_name()),
        )),
    }
}

/// Typed accessor: the value must be an array.
pub fn as_arr<'a>(v: &'a JsonValue, path: &str) -> Result<&'a Vec<JsonValue>, FileFormatError> {
    match &v.json {
        Json::Arr(vals) => Ok(vals),
        other => Err(field_err(
            path,
            v.line,
            format!("expected array, found {}", other.type_name()),
        )),
    }
}

/// Typed accessor: the value must be a number.
pub fn as_num(v: &JsonValue, path: &str) -> Result<f64, FileFormatError> {
    match &v.json {
        Json::Num(x) => Ok(*x),
        other => Err(field_err(
            path,
            v.line,
            format!("expected number, found {}", other.type_name()),
        )),
    }
}

/// Typed accessor: the value must be a non-negative integer.
pub fn as_u64(v: &JsonValue, path: &str) -> Result<u64, FileFormatError> {
    let x = as_num(v, path)?;
    non_negative_integer(x).ok_or_else(|| {
        field_err(
            path,
            v.line,
            format!("expected a non-negative integer, found {x}"),
        )
    })
}

/// Typed accessor: the value must be a string.
pub fn as_str<'a>(v: &'a JsonValue, path: &str) -> Result<&'a str, FileFormatError> {
    match &v.json {
        Json::Str(s) => Ok(s),
        other => Err(field_err(
            path,
            v.line,
            format!("expected string, found {}", other.type_name()),
        )),
    }
}

/// Look up a required field of an object (`doc` supplies the error line
/// when the field is absent).
pub fn get_field<'a>(
    obj: &'a [(String, JsonValue)],
    doc: &JsonValue,
    name: &str,
) -> Result<&'a JsonValue, FileFormatError> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| field_err(name, doc.line, "missing required field"))
}

fn parse_item(v: &JsonValue, index: usize) -> Result<Item, FileFormatError> {
    let path = format!("items[{index}]");
    let fields = as_obj(v, &path)?;
    for (key, val) in fields {
        if !matches!(key.as_str(), "id" | "w" | "h" | "release") {
            return Err(field_err(
                &format!("{path}.{key}"),
                val.line,
                "unknown field",
            ));
        }
    }
    let get = |name: &str| -> Result<&JsonValue, FileFormatError> {
        fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, fv)| fv)
            .ok_or_else(|| field_err(&format!("{path}.{name}"), v.line, "missing required field"))
    };
    let id = as_u64(get("id")?, &format!("{path}.id"))? as usize;
    let w = as_num(get("w")?, &format!("{path}.w"))?;
    let h = as_num(get("h")?, &format!("{path}.h"))?;
    let release = as_num(get("release")?, &format!("{path}.release"))?;
    let item = Item::with_release(id, w, h, release);
    // Domain checks here so the error carries the field path + line
    // instead of a bare CoreError at Instance construction.
    if !width_ok(w) {
        return Err(field_err(
            &format!("{path}.w"),
            get("w")?.line,
            format!("width {w} outside (0, 1]"),
        ));
    }
    if !height_ok(h) {
        return Err(field_err(
            &format!("{path}.h"),
            get("h")?.line,
            format!("height {h} must be positive and finite"),
        ));
    }
    if !release_ok(release) {
        return Err(field_err(
            &format!("{path}.release"),
            get("release")?.line,
            format!("release {release} must be non-negative and finite"),
        ));
    }
    Ok(item)
}

// ---------------------------------------------------------------------------
// Schema rules both readers apply
// ---------------------------------------------------------------------------

/// An id or edge endpoint: a non-negative, integral, finite number.
fn non_negative_integer(x: f64) -> Option<u64> {
    (x >= 0.0 && x.fract() == 0.0 && x.is_finite()).then_some(x as u64)
}

fn width_ok(w: f64) -> bool {
    w.is_finite() && w > 0.0 && w <= 1.0
}

fn height_ok(h: f64) -> bool {
    h.is_finite() && h > 0.0
}

fn release_ok(release: f64) -> bool {
    release.is_finite() && release >= 0.0
}

/// Sort items by id; the first index that does not hold its own id, if
/// any (ids must be exactly `0..n`).
fn sort_by_id(items: &mut [Item]) -> Option<usize> {
    items.sort_by_key(|it| it.id);
    (0..items.len()).find(|&index| items[index].id != index)
}

// ---------------------------------------------------------------------------
// Typed reader: the one-pass path of `InstanceFile::parse`
// ---------------------------------------------------------------------------

/// Reads an `spp-instance` document in one pass over its bytes, straight
/// into items and edges: no [`Json`] tree, no `String` keys, no path
/// strings. It accepts only documents the tree walk accepts, with the
/// same result, and returns `None` for everything else — including valid
/// documents with a duplicate or escaped key, which the tree walk then
/// reads.
struct TypedReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> TypedReader<'a> {
    fn read(text: &'a str) -> Option<InstanceFile> {
        let mut r = TypedReader {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let file = r.document()?;
        r.skip_ws();
        (r.pos == r.bytes.len()).then_some(file)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, then consume `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.bytes.get(self.pos) == Some(&b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Option<()> {
        self.eat(b).then_some(())
    }

    /// A string without escapes.
    fn string(&mut self) -> Option<&'a [u8]> {
        self.expect(b'"')?;
        let rest: &'a [u8] = &self.bytes[self.pos..];
        let len = rest.iter().position(|&b| b == b'"' || b == b'\\')?;
        self.pos += len + 1;
        (rest[len] == b'"').then_some(&rest[..len])
    }

    /// The members of an object, each handed to `member` after its key.
    fn object(&mut self, mut member: impl FnMut(&mut Self, &'a [u8]) -> Option<()>) -> Option<()> {
        self.expect(b'{')?;
        if self.eat(b'}') {
            return Some(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            member(self, key)?;
            if !self.eat(b',') {
                return self.expect(b'}');
            }
        }
    }

    /// The elements of an array, each read by `element`.
    fn array(&mut self, mut element: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        self.expect(b'[')?;
        if self.eat(b']') {
            return Some(());
        }
        loop {
            element(self)?;
            if !self.eat(b',') {
                return self.expect(b']');
            }
        }
    }

    fn number(&mut self) -> Option<f64> {
        self.skip_ws();
        // Where the tree walk lexes a number.
        if !matches!(self.bytes.get(self.pos), Some(b'-' | b'0'..=b'9')) {
            return None;
        }
        let (end, value) = lex_number(self.bytes, self.pos);
        self.pos = end;
        value
    }

    fn integer(&mut self) -> Option<u64> {
        non_negative_integer(self.number()?)
    }

    fn document(&mut self) -> Option<InstanceFile> {
        let (mut format, mut version) = (false, false);
        let (mut items, mut edges) = (None, None);
        self.object(|r, key| match key {
            b"format" if !format => {
                format = true;
                (r.string()? == INSTANCE_FORMAT_NAME.as_bytes()).then_some(())
            }
            b"version" if !version => {
                version = true;
                (r.integer()? == INSTANCE_FORMAT_VERSION).then_some(())
            }
            b"items" if items.is_none() => {
                items = Some(r.items()?);
                Some(())
            }
            b"edges" if edges.is_none() => {
                edges = Some(r.edges()?);
                Some(())
            }
            _ => None,
        })?;
        let (items, edges) = (items?, edges?);
        let n = items.len();
        (format && version && edges.iter().all(|&(u, v)| u < n && v < n))
            .then_some(InstanceFile { items, edges })
    }

    fn items(&mut self) -> Option<Vec<Item>> {
        let mut items = Vec::new();
        self.array(|r| {
            items.push(r.item()?);
            Some(())
        })?;
        sort_by_id(&mut items).is_none().then_some(items)
    }

    fn item(&mut self) -> Option<Item> {
        let mut fields = [None; 4];
        self.object(|r, key| {
            let slot = match key {
                b"id" => 0,
                b"w" => 1,
                b"h" => 2,
                b"release" => 3,
                _ => return None,
            };
            fields[slot].replace(r.number()?).is_none().then_some(())
        })?;
        let [id, w, h, release] = fields;
        let (id, w, h, release) = (non_negative_integer(id?)?, w?, h?, release?);
        let item = Item::with_release(id as usize, w, h, release);
        (width_ok(w) && height_ok(h) && release_ok(release)).then_some(item)
    }

    fn edges(&mut self) -> Option<Vec<(usize, usize)>> {
        let mut edges = Vec::new();
        self.array(|r| {
            r.expect(b'[')?;
            let u = r.integer()?;
            r.expect(b',')?;
            let v = r.integer()?;
            r.expect(b']')?;
            edges.push((u as usize, v as usize));
            Some(())
        })?;
        Some(edges)
    }
}

// ---------------------------------------------------------------------------
// The canonical writer
// ---------------------------------------------------------------------------

/// The canonical document of `items` and `edges`, edges in the order
/// given (callers sort them): fixed field order, one item / edge per
/// line, floats as `{:.17e}` writes them.
pub fn canonical_json(items: &[Item], edges: &[(usize, usize)]) -> String {
    let mut out = Vec::new();
    write_canonical(items, edges, |line| out.extend_from_slice(line));
    String::from_utf8(out).expect("the canonical writer writes ASCII")
}

/// The one canonical writer: hands the document of `items` and `edges`
/// to `sink` a line at a time, through one reused buffer.
pub(crate) fn write_canonical(
    items: &[Item],
    edges: &[(usize, usize)],
    mut sink: impl FnMut(&[u8]),
) {
    let mut line = Vec::with_capacity(128);
    write!(
        line,
        "{{\n  \"format\": \"{INSTANCE_FORMAT_NAME}\",\n  \"version\": {INSTANCE_FORMAT_VERSION},\n  \"items\": ["
    )
    .expect("writing to a Vec cannot fail");
    sink(&line);
    for (i, it) in items.iter().enumerate() {
        line.clear();
        line.extend_from_slice(b"\n    {\"id\": ");
        push_usize(&mut line, it.id);
        line.extend_from_slice(b", \"w\": ");
        push_sci17(&mut line, it.w);
        line.extend_from_slice(b", \"h\": ");
        push_sci17(&mut line, it.h);
        line.extend_from_slice(b", \"release\": ");
        // `-0.0` is the one negative zero validation lets through (w and
        // h must be > 0); it writes as `0.0` so equal instances digest
        // equally.
        push_sci17(&mut line, if it.release == 0.0 { 0.0 } else { it.release });
        line.push(b'}');
        if i + 1 < items.len() {
            line.push(b',');
        }
        sink(&line);
    }
    sink(if items.is_empty() {
        b"],\n  \"edges\": ["
    } else {
        b"\n  ],\n  \"edges\": ["
    });
    for (i, &(u, v)) in edges.iter().enumerate() {
        line.clear();
        line.extend_from_slice(b"\n    [");
        push_usize(&mut line, u);
        line.extend_from_slice(b", ");
        push_usize(&mut line, v);
        line.push(b']');
        if i + 1 < edges.len() {
            line.push(b',');
        }
        sink(&line);
    }
    sink(if edges.is_empty() {
        b"]\n}\n"
    } else {
        b"\n  ]\n}\n"
    });
}

fn push_usize(out: &mut Vec<u8>, mut v: usize) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// `10^p` for `p ≤ 22`: `m · 10^22 < 2^127` for a 53-bit significand `m`.
const POW10: [u128; 23] = {
    let mut table = [1u128; 23];
    let mut p = 1;
    while p < table.len() {
        table[p] = table[p - 1] * 10;
        p += 1;
    }
    table
};

/// Append `x` exactly as `format!("{x:.17e}")` writes it: 18 significant
/// digits, correctly rounded, half to even.
///
/// For `|x|` in `[1e-5, 2^128)` the digits are
/// `round_half_even(m · 2^e · 10^(17−k))` for `|x| = m · 2^e` and
/// `k = floor(log10 |x|)`, computed exactly in `u128` as `core::fmt`'s
/// exact mode computes them with bignums. Zero, subnormals, non-finite
/// values and the rest of the range, where the product outgrows `u128`,
/// go to `core::fmt`.
fn push_sci17(out: &mut Vec<u8>, x: f64) {
    const E17: u128 = 100_000_000_000_000_000;
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    if !(x.abs() >= 1e-5 && biased < 1023 + 128) {
        write!(out, "{x:.17e}").expect("writing to a Vec cannot fail");
        return;
    }
    if x < 0.0 {
        out.push(b'-');
    }
    let m = u128::from((bits & ((1 << 52) - 1)) | (1 << 52));
    let e = biased - 1075;
    // floor((biased − 1023) · log10 2) never exceeds k and misses it by at
    // most one; k ≥ −5 because |x| ≥ 1e-5.
    let mut k = (((biased - 1023) * 78_913) >> 18).max(-5);
    let (mut q, mut up) = scaled(m, e, 17 - k);
    if q >= 10 * E17 {
        k += 1;
        (q, up) = scaled(m, e, 17 - k);
    }
    debug_assert!((E17..10 * E17).contains(&q), "{x:e}: digits {q}");
    let mut d = (q + u128::from(up)) as u64;
    if u128::from(d) == 10 * E17 {
        d /= 10;
        k += 1;
    }
    // d ∈ [10^17, 10^18): eighteen digits, as two nine-digit halves.
    let mut digits = [0u8; 18];
    for (half, mut v) in digits
        .chunks_exact_mut(9)
        .zip([d / 1_000_000_000, d % 1_000_000_000])
    {
        for slot in half.iter_mut().rev() {
            *slot = b'0' + (v % 10) as u8;
            v /= 10;
        }
    }
    out.push(digits[0]);
    out.push(b'.');
    out.extend_from_slice(&digits[1..]);
    out.push(b'e');
    if k < 0 {
        out.push(b'-');
    }
    push_usize(out, k.unsigned_abs() as usize);
}

/// `floor(m · 2^e · 10^p)`, and whether rounding half to even takes it
/// one up. Exact for `p ≤ 22` and, where `p < 0`, `0 ≤ e ≤ 75`.
fn scaled(m: u128, e: i32, p: i32) -> (u128, bool) {
    if p < 0 {
        // |x| ≥ 10^18 > 2^53, so e > 0, and m · 2^e < 2^128.
        let (n, d) = (m << e, POW10[p.unsigned_abs() as usize]);
        let (q, rem) = (n / d, n % d);
        return (q, 2 * rem > d || (2 * rem == d && q & 1 == 1));
    }
    let n = m * POW10[p as usize];
    if e >= 0 {
        return (n << e, false);
    }
    let s = e.unsigned_abs();
    let (q, rem, half) = (n >> s, n & ((1 << s) - 1), 1u128 << (s - 1));
    (q, rem > half || (rem == half && q & 1 == 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::SplitMix64;

    fn sample() -> InstanceFile {
        InstanceFile::new(
            vec![
                Item::with_release(0, 0.5, 1.0, 0.0),
                Item::with_release(1, 0.25, 2.0, 1.5),
                Item::with_release(2, 1.0, 0.125, 0.0),
            ],
            vec![(0, 1), (1, 2)],
        )
    }

    #[test]
    fn roundtrip_is_identity() {
        let f = sample();
        let text = f.to_json();
        let back = InstanceFile::parse(&text).unwrap();
        assert_eq!(f, back);
        // And serialization is canonical: serialize ∘ parse ∘ serialize = serialize.
        assert_eq!(text, back.to_json());
    }

    #[test]
    fn empty_instance_roundtrips() {
        let f = InstanceFile::new(vec![], vec![]);
        assert_eq!(InstanceFile::parse(&f.to_json()).unwrap(), f);
    }

    #[test]
    fn items_in_any_order_are_sorted() {
        let text = r#"{"format": "spp-instance", "version": 1,
            "items": [{"id": 1, "w": 0.5, "h": 1, "release": 0},
                      {"id": 0, "w": 0.25, "h": 2, "release": 0}],
            "edges": []}"#;
        let f = InstanceFile::parse(text).unwrap();
        assert_eq!(f.items[0].id, 0);
        assert_eq!(f.items[0].w, 0.25);
        assert!(f.instance().is_ok());
    }

    #[test]
    fn errors_name_field_and_line() {
        // Non-numeric width on line 4 of the document.
        let text = "{\"format\": \"spp-instance\",\n \"version\": 1,\n \"items\": [\n  {\"id\": 0, \"w\": \"wide\", \"h\": 1, \"release\": 0}\n ],\n \"edges\": []}";
        let err = InstanceFile::parse(text).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("items[0].w"), "{msg}");
        assert!(msg.contains("line 4"), "{msg}");

        // Edge referencing a nonexistent item.
        let text = "{\"format\": \"spp-instance\", \"version\": 1,\n \"items\": [{\"id\": 0, \"w\": 0.5, \"h\": 1, \"release\": 0}],\n \"edges\": [[0, 7]]}";
        let err = InstanceFile::parse(text).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("edges[0][1]"), "{msg}");
        assert!(msg.contains("line 3"), "{msg}");
    }

    #[test]
    fn unknown_fields_rejected_by_name() {
        let text = "{\"format\": \"spp-instance\", \"version\": 1,\n \"items\": [], \"edges\": [],\n \"edgs\": []}";
        let msg = InstanceFile::parse(text).unwrap_err().to_string();
        assert!(msg.contains("edgs"), "{msg}");

        let text = "{\"format\": \"spp-instance\", \"version\": 1,\n \"items\": [{\"id\": 0, \"w\": 0.5, \"h\": 1, \"release\": 0, \"color\": 3}], \"edges\": []}";
        let msg = InstanceFile::parse(text).unwrap_err().to_string();
        assert!(msg.contains("items[0].color"), "{msg}");
    }

    #[test]
    fn wrong_format_or_version_rejected() {
        let text = "{\"format\": \"gif\", \"version\": 1, \"items\": [], \"edges\": []}";
        let msg = InstanceFile::parse(text).unwrap_err().to_string();
        assert!(msg.contains("format") && msg.contains("gif"), "{msg}");

        let text = "{\"format\": \"spp-instance\", \"version\": 99, \"items\": [], \"edges\": []}";
        let msg = InstanceFile::parse(text).unwrap_err().to_string();
        assert!(msg.contains("version") && msg.contains("99"), "{msg}");
    }

    #[test]
    fn domain_violations_name_the_field() {
        let text = "{\"format\": \"spp-instance\", \"version\": 1,\n \"items\": [{\"id\": 0, \"w\": 1.5, \"h\": 1, \"release\": 0}], \"edges\": []}";
        let msg = InstanceFile::parse(text).unwrap_err().to_string();
        assert!(
            msg.contains("items[0].w") && msg.contains("(0, 1]"),
            "{msg}"
        );

        let text = "{\"format\": \"spp-instance\", \"version\": 1,\n \"items\": [{\"id\": 0, \"w\": 0.5, \"h\": 1, \"release\": -2}], \"edges\": []}";
        let msg = InstanceFile::parse(text).unwrap_err().to_string();
        assert!(msg.contains("items[0].release"), "{msg}");
    }

    #[test]
    fn gapped_ids_rejected() {
        let text = "{\"format\": \"spp-instance\", \"version\": 1,\n \"items\": [{\"id\": 0, \"w\": 0.5, \"h\": 1, \"release\": 0},\n {\"id\": 2, \"w\": 0.5, \"h\": 1, \"release\": 0}], \"edges\": []}";
        let msg = InstanceFile::parse(text).unwrap_err().to_string();
        assert!(msg.contains("missing id 1"), "{msg}");
    }

    #[test]
    fn syntax_errors_carry_lines() {
        let err = InstanceFile::parse("{\n \"format\": \"spp-instance\",\n oops\n}").unwrap_err();
        match err {
            FileFormatError::Syntax(e) => assert_eq!(e.line, 3),
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn json_parser_handles_generic_documents() {
        let v = parse(r#"{"a": [1, -2.5e3, true, null, "x\nA"], "b": {}}"#).unwrap();
        let obj = match &v.json {
            Json::Obj(f) => f,
            _ => panic!(),
        };
        let arr = match &obj[0].1.json {
            Json::Arr(a) => a,
            _ => panic!(),
        };
        assert_eq!(arr[0].json, Json::Num(1.0));
        assert_eq!(arr[1].json, Json::Num(-2500.0));
        assert_eq!(arr[2].json, Json::Bool(true));
        assert_eq!(arr[3].json, Json::Null);
        assert_eq!(arr[4].json, Json::Str("x\nA".into()));
        assert!(parse("{,}").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("[1] trailing").is_err());
    }

    #[test]
    fn escape_covers_control_characters() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_fail() {
        // U+1F600 written as a JSON surrogate pair.
        let v = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.json, Json::Str("\u{1F600}".into()));
        // Literal (non-escaped) astral characters pass through too.
        let v = parse("\"\u{1F600}\"").unwrap();
        assert_eq!(v.json, Json::Str("\u{1F600}".into()));
        // Lone high surrogate, lone low surrogate, malformed pair.
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\ude00""#).is_err());
        assert!(parse(r#""\ud83dx""#).is_err());
        assert!(parse(r#""\ud83dA""#).is_err());
    }

    fn assert_sci17(x: f64) {
        let mut out = Vec::new();
        push_sci17(&mut out, x);
        assert_eq!(
            std::str::from_utf8(&out).unwrap(),
            format!("{x:.17e}"),
            "bits {:#018x}",
            x.to_bits()
        );
    }

    /// The float kernel against `core::fmt` on fixed edge cases, powers
    /// of 2 and 10 at ±1 ulp, dyadic values, exact ties at the 18th
    /// digit, instance-like ranges, and `draws` random bit patterns over
    /// all of `f64` and over the kernel's own range.
    fn sci17_sweep(draws: usize) {
        let mut rng = SplitMix64::new(17);
        let near = |x: f64| {
            let b = x.to_bits();
            [f64::from_bits(b - 1), x, f64::from_bits(b + 1)]
        };
        let mut xs = vec![0.0, f64::INFINITY, f64::NAN, f64::MAX, f64::MIN_POSITIVE];
        let bounds = [
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            1e-5,
            2f64.powi(128),
        ];
        xs.extend(bounds.map(near).concat());
        for p in -1074..=1023 {
            let bits = if p < -1022 {
                1 << (p + 1074)
            } else {
                ((p + 1023) as u64) << 52
            };
            xs.extend(near(f64::from_bits(bits)));
        }
        for p in -323..=308 {
            xs.extend(near(format!("1e{p}").parse().unwrap()));
        }
        for i in 1..4096 {
            xs.extend([i as f64 / 8.0, i as f64 / 1024.0, i as f64 / 1048576.0]);
        }
        // Exact ties: an odd j / 2^s in [10^a, 10^(a+1)) has a + s + 1
        // significant digits, the last a 5; s = 18 − a makes that 19.
        for a in -5i32..=15 {
            let s = 18 - a;
            let lo = (10f64.powi(a) * 2f64.powi(s)).ceil() as u64;
            let hi = ((10f64.powi(a + 1) * 2f64.powi(s)) as u64).min(1 << 53);
            for _ in 0..500 {
                let j = (lo + rng.next_below(hi - lo)) | 1;
                xs.push(j as f64 / 2f64.powi(s));
            }
        }
        let between = |rng: &mut SplitMix64, lo: f64, hi: f64| lo + (hi - lo) * rng.next_f64();
        for _ in 0..draws {
            xs.extend([
                1.0 - rng.next_f64(),
                between(&mut rng, 0.05, 1.5),
                between(&mut rng, 0.0, 1000.0),
                f64::from_bits(rng.next_u64()),
                f64::from_bits(((1006 + rng.next_below(145)) << 52) | (rng.next_u64() >> 12)),
            ]);
        }
        for x in xs {
            assert_sci17(x);
            assert_sci17(-x);
        }
    }

    #[test]
    fn sci17_kernel_matches_core_fmt() {
        sci17_sweep(20_000);
    }

    #[test]
    #[ignore = "long run: cargo test --release -p spp-core -- --ignored"]
    fn sci17_kernel_matches_core_fmt_long() {
        sci17_sweep(3_000_000);
    }

    /// An `InstanceFile` with every float as its bits, so `-0.0` and
    /// `0.0` differ.
    fn exact(f: &InstanceFile) -> (Vec<[u64; 4]>, Vec<(usize, usize)>) {
        let items = f.items.iter();
        let bits = |it: &Item| {
            [
                it.id as u64,
                it.w.to_bits(),
                it.h.to_bits(),
                it.release.to_bits(),
            ]
        };
        (items.map(bits).collect(), f.edges.clone())
    }

    /// An instance shaped like one of the suite's families: uniform
    /// rectangles on a chain or a layered DAG, release-time arrivals, or
    /// a tall/wide mix.
    fn suite_like(rng: &mut SplitMix64, family: u64, n: usize) -> InstanceFile {
        let mut between = |lo: f64, hi: f64| lo + (hi - lo) * rng.next_f64();
        let mut t = 0.0;
        let items = (0..n)
            .map(|i| match family {
                0 | 1 => Item::new(i, between(0.05, 0.95), between(0.05, 1.0)),
                2 => {
                    t += between(0.0, 0.5);
                    Item::with_release(i, between(0.25, 1.0), between(0.05, 1.0), t)
                }
                _ if i % 2 == 0 => Item::new(i, between(0.6, 1.0), between(0.02, 0.1)),
                _ => Item::new(i, between(0.02, 0.1), between(0.6, 1.5)),
            })
            .collect();
        let mut edges: Vec<(usize, usize)> = match family {
            0 => (1..n).map(|v| (v - 1, v)).collect(),
            1 => (4..n)
                .map(|v| (v - 1 - rng.next_below(4) as usize, v))
                .collect(),
            _ => Vec::new(),
        };
        edges.sort_unstable();
        InstanceFile::new(items, edges)
    }

    /// `f` written by hand in one of six styles: reordered keys, items
    /// out of id order, odd whitespace, integer-spelled and shortest or
    /// upper-case-exponent floats.
    fn hand_written(f: &InstanceFile, style: usize) -> String {
        let ws = [" ", "", "\n\t ", "\r\n", "  ", "\n"][style % 6];
        let num = |x: f64| match style % 3 {
            0 => format!("{x}"),
            1 => format!("{x:e}"),
            _ => format!("{x:.17E}"),
        };
        let mut items: Vec<String> = f
            .items
            .iter()
            .map(|it| {
                let mut fields = [
                    format!("\"id\":{ws}{}", num(it.id as f64)),
                    format!("\"w\":{ws}{}", num(it.w)),
                    format!("\"h\":{ws}{}", num(it.h)),
                    format!("\"release\":{ws}{}", num(it.release)),
                ];
                fields.rotate_left(style % 4);
                format!("{{{ws}{}{ws}}}", fields.join(&format!(",{ws}")))
            })
            .collect();
        if style % 2 == 1 {
            items.reverse();
        }
        let edges: Vec<String> = f
            .edges
            .iter()
            .map(|&(u, v)| format!("[{ws}{},{ws}{}{ws}]", num(u as f64), num(v as f64)))
            .collect();
        let sep = format!(",{ws}");
        let mut top = [
            format!("\"format\":{ws}\"spp-instance\""),
            format!("\"version\":{ws}{}", num(1.0)),
            format!("\"items\":{ws}[{ws}{}{ws}]", items.join(&sep)),
            format!("\"edges\":{ws}[{ws}{}{ws}]", edges.join(&sep)),
        ];
        top.rotate_right(style % 4);
        format!("{ws}{{{ws}{}{ws}}}{ws}", top.join(&sep))
    }

    /// Canonical bodies of suite-shaped instances and hand-written
    /// variants of the small ones, all valid.
    fn ingest_corpus() -> Vec<String> {
        let mut rng = SplitMix64::new(16);
        let mut corpus = Vec::new();
        for (i, n) in [0, 1, 2, 3, 5, 8, 12, 16, 40, 200].into_iter().enumerate() {
            for family in 0..4 {
                let f = suite_like(&mut rng, family, n);
                corpus.push(f.to_json());
                if n <= 16 {
                    corpus.push(hand_written(&f, i + family as usize));
                }
            }
        }
        corpus
    }

    /// Valid documents the typed reader declines and the tree walk reads.
    fn declined_variants(canonical: &str) -> Vec<String> {
        [
            ("\"w\":", "\"\\u0077\":"),
            ("\"format\":", "\"form\\u0061t\":"),
            ("\"id\": 0,", "\"id\": 0, \"w\": 0.5,"),
            ("\"version\": 1,", "\"version\": 1, \"edges\": [],"),
        ]
        .iter()
        .map(|(from, to)| canonical.replacen(from, to, 1))
        .collect()
    }

    #[test]
    fn typed_reader_reads_every_plain_document() {
        let corpus = ingest_corpus();
        for doc in &corpus {
            let typed = TypedReader::read(doc).unwrap_or_else(|| panic!("declined {doc}"));
            assert_eq!(
                exact(&typed),
                exact(&InstanceFile::parse_tree(doc).unwrap())
            );
        }
        // `-0` is a valid release, and it writes back as the `0` it equals.
        let canonical = sample().to_json();
        let negative_zero =
            canonical.replace("\"release\": 0.00000000000000000e0", "\"release\": -0");
        let typed = TypedReader::read(&negative_zero).unwrap();
        assert!(typed.items[0].release.is_sign_negative());
        assert_eq!(
            exact(&typed),
            exact(&InstanceFile::parse_tree(&negative_zero).unwrap())
        );
        assert_eq!(typed.to_json(), canonical);
        for doc in declined_variants(&canonical) {
            assert!(TypedReader::read(&doc).is_none(), "{doc}");
            assert!(InstanceFile::parse(&doc).is_ok(), "{doc}");
        }
    }

    /// `doc` with one to three byte flips (digit for digit, from an
    /// alphabet of JSON tokens, or one bit), truncations, deletions or
    /// splices from a `donor`; the bytes stay ASCII.
    fn mutate(rng: &mut SplitMix64, doc: &str, donor: &str) -> String {
        const ALPHABET: &[u8] = b"0123456789-+.eE\"\\,:{}[] \n\tidwhr";
        let mut bytes = doc.as_bytes().to_vec();
        let span = |rng: &mut SplitMix64, len: usize| {
            let start = rng.next_below(len as u64 + 1) as usize;
            start..(start + rng.next_below(17) as usize).min(len)
        };
        for _ in 0..=rng.next_below(3) {
            match rng.next_below(4) {
                0 if !bytes.is_empty() => {
                    let at = rng.next_below(bytes.len() as u64) as usize;
                    bytes[at] = match rng.next_below(3) {
                        0 if bytes[at].is_ascii_digit() => b'0' + rng.next_below(10) as u8,
                        1 => ALPHABET[rng.next_below(ALPHABET.len() as u64) as usize],
                        _ => bytes[at] ^ (1 << rng.next_below(7)),
                    };
                }
                1 => bytes.truncate(rng.next_below(bytes.len() as u64 + 1) as usize),
                2 => drop(bytes.drain(span(rng, bytes.len()))),
                _ => {
                    let from = span(rng, donor.len());
                    let to = span(rng, bytes.len());
                    bytes.splice(to, donor.as_bytes()[from].iter().copied());
                }
            }
        }
        String::from_utf8(bytes).expect("mutations keep the bytes ASCII")
    }

    /// `InstanceFile::parse` against the tree walk alone on `iterations`
    /// mutated documents: the same file bit for bit, or the same error.
    fn differential_mutation(iterations: usize) {
        let mut corpus = ingest_corpus();
        corpus.extend(declined_variants(&sample().to_json()));
        let mut rng = SplitMix64::new(1);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..iterations {
            let doc = &corpus[rng.next_below(corpus.len() as u64) as usize];
            let donor = &corpus[rng.next_below(corpus.len() as u64) as usize];
            let text = mutate(&mut rng, doc, donor);
            match (InstanceFile::parse(&text), InstanceFile::parse_tree(&text)) {
                (Ok(fast), Ok(tree)) => {
                    assert_eq!(exact(&fast), exact(&tree), "{text}");
                    accepted += usize::from(TypedReader::read(&text).is_some());
                }
                (Err(fast), Err(tree)) => {
                    assert_eq!(fast.to_string(), tree.to_string(), "{text}");
                    rejected += 1;
                }
                (fast, tree) => panic!("readers disagree on {text:?}: {fast:?} vs {tree:?}"),
            }
        }
        // Both outcomes must be common, or the mutations test nothing.
        assert!(accepted * 20 > iterations, "typed reader took {accepted}");
        assert!(rejected * 4 > iterations, "only {rejected} rejected");
    }

    #[test]
    fn typed_reader_agrees_with_tree_walk_under_mutation() {
        differential_mutation(4_000);
    }

    #[test]
    #[ignore = "long run: cargo test --release -p spp-core -- --ignored"]
    fn typed_reader_agrees_with_tree_walk_under_mutation_long() {
        differential_mutation(1_000_000);
    }
}
