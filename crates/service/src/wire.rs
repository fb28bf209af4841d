//! The line-delimited JSON wire protocol of the sweep service.
//!
//! Every frame exchanged between `sweep serve` and `sweep submit` is one
//! line of JSON terminated by `\n` — the rustengan/Maelstrom shape: a
//! blocking reader can parse frames with nothing but `read_line`, and a
//! human can drive the daemon with `nc -U`.  The crate's own peers read
//! lines through the bounded frame reader in [`crate::net`], which hands
//! each complete line to [`decode_line`].  This codec is the project's one
//! serializer: it is written around a small JSON [`Value`] model and two
//! traits:
//!
//! * [`ToWire`] — renders a type into a [`Value`];
//! * [`FromWire`] — rebuilds a type from a [`Value`], rejecting missing
//!   fields, wrong types and out-of-range numbers with a [`WireError`]
//!   instead of panicking.
//!
//! Scalars, `String`, `Value`, [`QueryKind`], [`ErrorKind`], `Vec<T>`,
//! `[T; N]` and `Option<T>` implement both traits.  A plain record — a JSON object of
//! its fields under their own names — gets its pair from one
//! `wire_record!` line listing the fields in wire order; an optional field
//! is left out when `None` and read as `None` when absent.  What is written
//! by hand is what is not encoded field by field: the [`Value`] parser, the
//! [`QueryKind`]/[`ErrorKind`] names, [`QueryResult`] (keyed by its query),
//! [`Frame`] and its inline variants, the counter/gauge pairs of a
//! [`MetricsSnapshot`], the tuple arrays of [`Thm3Acc`] and [`Fig4Acc`], and
//! the flattened [`SweepStats`].
//!
//! The frame grammar (the full lifecycle is diagrammed in
//! `docs/ARCHITECTURE.md`):
//!
//! ```text
//! client → server   {"type":"hello","token":s}              (TCP auth, first frame)
//!                   {"type":"job", ...JobSpec}
//!                   {"type":"cancel","job":N}
//!                   {"type":"shutdown"}
//!                   {"type":"stats"}                        (metrics snapshot request)
//! server → client   {"type":"shard-done", ...ShardDone}     (per shard)
//!                   {"type":"job-done", ...JobDone}         (terminal, success)
//!                   {"type":"error", ...ErrorFrame}         (terminal, failure)
//!                   {"type":"cancel-ack","job":N,"found":b} (cancel ack)
//!                   {"type":"shutting-down"}                (shutdown ack)
//!                   {"type":"stats-result", ...}            (metrics snapshot)
//! worker → server   {"type":"register","fold":s}            (join the fleet)
//!                   {"type":"heartbeat","worker":N}         (liveness, periodic)
//!                   {"type":"lease-done", ...LeaseDone}     (shard executed)
//!                   {"type":"lease-failed", ...LeaseFailed} (shard rejected)
//! server → worker   {"type":"registered", ...,"fold":s}     (worker id + TTLs)
//!                   {"type":"lease", ...LeaseGrant}         (one shard to run)
//! ```

use std::collections::BTreeMap;
use std::fmt;

use sweep::experiments::{
    Fig4Acc, Fig4Row, Prop2ExhaustiveRow, Prop2Report, Prop2Targeted, Thm1Case, Thm1Outcome,
    Thm3Acc, Thm3Row,
};
use sweep::{CursorStats, SweepStats};
use telemetry::{HistogramSnapshot, MetricsSnapshot};

// ---------------------------------------------------------------------------
// The JSON value model.
// ---------------------------------------------------------------------------

/// A parsed JSON value.
///
/// Integers and floats are kept apart (`1` vs `1.0` on the wire) so integer
/// fields round-trip exactly — including `u128` scope sizes, which a lossy
/// `f64` model would corrupt.  Objects preserve field order, making
/// encoding deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent.
    Int(i128),
    /// A number with a fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, fields in encoding order.
    Object(Vec<(String, Value)>),
}

/// A wire-level encode/decode failure: malformed JSON, a missing field, a
/// type mismatch, or an out-of-range number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What went wrong, naming the offending field or byte offset.
    pub message: String,
}

impl WireError {
    fn new(message: impl Into<String>) -> Self {
        WireError { message: message.into() }
    }

    /// Names what failed to decode: `must be …` becomes `<what> must be …`.
    fn at(mut self, what: &str) -> Self {
        self.message.insert(0, ' ');
        self.message.insert_str(0, what);
        self
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error: {}", self.message)
    }
}

impl std::error::Error for WireError {}

/// Renders a type into a wire [`Value`].
pub trait ToWire {
    /// Returns the wire representation of `self`.
    fn to_wire(&self) -> Value;

    /// The value of a record field holding `self`, or `None` to leave the
    /// field out (what `Option` does with `None`).
    fn to_wire_field(&self) -> Option<Value> {
        Some(self.to_wire())
    }
}

/// Rebuilds a type from a wire [`Value`].
pub trait FromWire: Sized {
    /// Parses `value` into `Self`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] naming the missing field or type mismatch.
    fn from_wire(value: &Value) -> Result<Self, WireError>;

    /// What a record field of this type reads as when it is absent, or
    /// `None` if the field is required (`Option` reads as `None`).
    fn from_absent_field() -> Option<Self> {
        None
    }
}

fn type_error(expected: &str, value: &Value) -> WireError {
    WireError::new(format!("must be {expected}, got {value:?}"))
}

fn int<T: TryFrom<i128>>(value: &Value, range_error: &'static str) -> Result<T, WireError> {
    match value {
        Value::Int(i) => T::try_from(*i).map_err(|_| WireError::new(range_error)),
        _ => Err(type_error("an integer", value)),
    }
}

/// Every integer the protocol carries fits the wire's `i128` integers: the
/// one `u128`, a scope size, is bounded by the engine (`ExhaustiveSource`
/// rejects spaces beyond `usize::MAX`).
macro_rules! wire_int {
    ($($int:ty),*) => {$(
        impl ToWire for $int {
            fn to_wire(&self) -> Value {
                Value::Int(i128::try_from(*self).expect("wire integers fit i128"))
            }
        }

        impl FromWire for $int {
            fn from_wire(value: &Value) -> Result<Self, WireError> {
                int(value, concat!("out of ", stringify!($int), " range"))
            }
        }
    )*};
}

wire_int!(u64, u32, usize, u128, i64);

impl ToWire for bool {
    fn to_wire(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromWire for bool {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        match value {
            Value::Bool(b) => Ok(*b),
            _ => Err(type_error("a boolean", value)),
        }
    }
}

impl ToWire for f64 {
    fn to_wire(&self) -> Value {
        Value::Float(*self)
    }
}

/// A float field accepts an integer.
impl FromWire for f64 {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        match value {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            _ => Err(type_error("a number", value)),
        }
    }
}

impl ToWire for String {
    fn to_wire(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromWire for String {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(type_error("a string", value)),
        }
    }
}

/// An opaque payload (an accumulator in its own codec) travels as is.
impl ToWire for Value {
    fn to_wire(&self) -> Value {
        self.clone()
    }
}

impl FromWire for Value {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        Ok(value.clone())
    }
}

fn entries(value: &Value) -> Result<&[Value], WireError> {
    match value {
        Value::Array(items) => Ok(items),
        _ => Err(type_error("an array", value)),
    }
}

/// A list renders as a wire array of its elements.
impl<T: ToWire> ToWire for Vec<T> {
    fn to_wire(&self) -> Value {
        Value::Array(self.iter().map(ToWire::to_wire).collect())
    }
}

impl<T: FromWire> FromWire for Vec<T> {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        entries(value)?.iter().map(T::from_wire).collect()
    }
}

/// A fixed-length array renders like a list and must read back with
/// exactly `N` entries.
impl<T: ToWire, const N: usize> ToWire for [T; N] {
    fn to_wire(&self) -> Value {
        Value::Array(self.iter().map(ToWire::to_wire).collect())
    }
}

impl<T: FromWire + Copy + Default, const N: usize> FromWire for [T; N] {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        let items = entries(value)?;
        if items.len() != N {
            return Err(WireError::new(format!("must have exactly {N} entries")));
        }
        let mut array = [T::default(); N];
        for (slot, item) in array.iter_mut().zip(items) {
            *slot = T::from_wire(item).map_err(|e| e.at("entry"))?;
        }
        Ok(array)
    }
}

/// An optional record field: left out when `None`, read as `None` when
/// absent.  A present field must hold a `T` (`null` is not `None`).
impl<T: ToWire> ToWire for Option<T> {
    fn to_wire(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToWire::to_wire)
    }

    fn to_wire_field(&self) -> Option<Value> {
        self.as_ref().map(ToWire::to_wire)
    }
}

impl<T: FromWire> FromWire for Option<T> {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        T::from_wire(value).map(Some)
    }

    fn from_absent_field() -> Option<Self> {
        Some(None)
    }
}

/// Emits the `ToWire`/`FromWire` pair of a plain record: a JSON object
/// holding each listed field under its own name, in the order listed.
///
/// `wire_record!(Type, "prefix" { field, … })` names the record `prefix`
/// in its decode errors (`scope.n must be an integer, got …`);
/// `wire_record!(Type, "prefix", tag "name" { … })` also writes
/// `"type":"name"` first, for the records that are whole frames (the tag is
/// read by [`Frame`]'s decoder, not here).  Each field is encoded and
/// decoded by its own type's impls, and the error text is built only on
/// the error path.
macro_rules! wire_record {
    ($record:ty, $prefix:literal $(, tag $tag:literal)? { $($field:ident),+ $(,)? }) => {
        impl ToWire for $record {
            fn to_wire(&self) -> Value {
                let mut fields = Vec::with_capacity(1 + [$(stringify!($field)),+].len());
                $(fields.push(("type".into(), Value::Str($tag.into())));)?
                $(
                    if let Some(value) = self.$field.to_wire_field() {
                        fields.push((stringify!($field).into(), value));
                    }
                )+
                Value::Object(fields)
            }
        }

        impl FromWire for $record {
            fn from_wire(value: &Value) -> Result<Self, WireError> {
                Ok(Self {
                    $($field: value.field(
                        stringify!($field),
                        concat!($prefix, ".", stringify!($field)),
                    )?,)+
                })
            }
        }
    };
}

/// Builds an object from `(name, value)` pairs.
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.into_iter().map(|(name, value)| (name.to_owned(), value)).collect())
}

/// Builds a frame object: its `"type"` tag, then `fields`.
fn tagged<const N: usize>(tag: &str, fields: [(&str, Value); N]) -> Value {
    let mut object = Vec::with_capacity(N + 1);
    object.push(("type".to_owned(), Value::Str(tag.to_owned())));
    object.extend(fields.map(|(name, value)| (name.to_owned(), value)));
    Value::Object(object)
}

/// Appends `field` to a tagged object under `key`, unless it is absent.
fn with_field<T: ToWire>(value: Value, key: &str, field: &T) -> Value {
    match (value, field.to_wire_field()) {
        (Value::Object(mut object), Some(field)) => {
            object.push((key.to_owned(), field));
            Value::Object(object)
        }
        (value, _) => value,
    }
}

fn missing(key: &str) -> WireError {
    WireError::new(format!("missing field {key:?}"))
}

impl Value {
    /// Looks up a field of an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Decodes the field `key` of an object, naming it `what` in a decode
    /// error; an absent field is an error unless `T` is optional.
    fn field<T: FromWire>(&self, key: &str, what: &str) -> Result<T, WireError> {
        match self.get(key) {
            Some(value) => T::from_wire(value).map_err(|e| e.at(what)),
            None => T::from_absent_field().ok_or_else(|| missing(key)),
        }
    }

    /// Renders the value as compact JSON (no whitespace).
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
            Value::Int(i) => {
                out.push_str(&i.to_string());
            }
            Value::Float(f) => {
                // `{:?}` is Rust's shortest round-trip rendering; non-finite
                // values are not representable in JSON and must not reach
                // the encoder (frames only carry finite wall times).
                debug_assert!(f.is_finite(), "non-finite float on the wire");
                let text = format!("{f:?}");
                // Guarantee the Int/Float distinction survives: a float
                // always renders with a '.' or exponent.
                if text.contains('.') || text.contains('e') || text.contains('E') {
                    out.push_str(&text);
                } else {
                    out.push_str(&text);
                    out.push_str(".0");
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
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value from `text`, rejecting trailing garbage.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] naming the byte offset of the first problem —
    /// truncated input, stray bytes after the value, bad escapes, numbers
    /// out of range, or nesting beyond the depth limit.
    pub fn parse(text: &str) -> Result<Value, WireError> {
        let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
        parser.skip_whitespace();
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(WireError::new(format!(
                "trailing bytes after the value at offset {}",
                parser.pos
            )));
        }
        Ok(value)
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum nesting depth the parser accepts — far above any frame this
/// protocol produces, low enough that adversarial input cannot blow the
/// stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn error(&self, message: impl Into<String>) -> WireError {
        WireError::new(format!("{} at offset {}", message.into(), self.pos))
    }

    fn expect(&mut self, byte: u8) -> Result<(), WireError> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, WireError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_whitespace();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    self.skip_whitespace();
                    items.push(self.value(depth + 1)?);
                    self.skip_whitespace();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.error("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_whitespace();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_whitespace();
                    let key = self.string()?;
                    self.skip_whitespace();
                    self.expect(b':')?;
                    self.skip_whitespace();
                    let value = self.value(depth + 1)?;
                    fields.push((key, value));
                    self.skip_whitespace();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return Err(self.error("expected ',' or '}'")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&other) => Err(self.error(format!("unexpected byte {:?}", other as char))),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, WireError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {text:?}")))
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| self.error("invalid UTF-8"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape =
                        *self.bytes.get(self.pos).ok_or_else(|| self.error("truncated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogates never appear in the frames this
                            // protocol encodes; reject rather than build
                            // invalid UTF-8.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.error("invalid \\u escape"))?;
                            let mut buffer = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buffer).as_bytes());
                        }
                        other => {
                            return Err(self.error(format!("invalid escape '\\{}'", other as char)));
                        }
                    }
                }
                Some(&byte) if byte < 0x20 => {
                    return Err(self.error("raw control byte in string"));
                }
                Some(&byte) => {
                    out.push(byte);
                    self.pos += 1;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, WireError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = self
                .bytes
                .get(self.pos)
                .and_then(|&b| (b as char).to_digit(16))
                .ok_or_else(|| self.error("invalid \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.bytes.get(self.pos) == Some(&byte);
        self.pos += usize::from(next);
        next
    }

    /// Consumes a run of decimal digits; `false` if there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// Scans an RFC 8259 number, `-? (0 | [1-9][0-9]*) (.[0-9]+)?
    /// ([eE][+-]?[0-9]+)?`, before `str::parse` sees it: std would also
    /// take leading zeros (`007`) and bare dots (`1.`, `-.5`).
    fn number(&mut self) -> Result<Value, WireError> {
        let start = self.pos;
        self.eat(b'-');
        let mut malformed = !self.eat(b'0') && !self.digits();
        let fraction = self.eat(b'.');
        malformed |= fraction && !self.digits();
        let exponent = self.eat(b'e') || self.eat(b'E');
        if exponent && !self.eat(b'+') {
            self.eat(b'-');
        }
        malformed |= exponent && !self.digits();
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if malformed {
            Err(self.error(format!("invalid number {text:?}")))
        } else if fraction || exponent {
            text.parse::<f64>()
                .ok()
                .filter(|f| f.is_finite())
                .map(Value::Float)
                .ok_or_else(|| self.error(format!("invalid number {text:?}")))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| self.error(format!("integer {text:?} out of range")))
        }
    }
}

// ---------------------------------------------------------------------------
// Frames.
// ---------------------------------------------------------------------------

/// Which query a job runs — the paper experiments the one-shot `sweep` CLI
/// exposes, served repeatedly by the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Theorem 1 exhaustive unbeatability (shard-cacheable).
    Thm1,
    /// The Theorem 1 fold over the exhaustive send-omission space
    /// (shard-cacheable; its fingerprints carry `model=omission`).
    Omission,
    /// Theorem 3 seeded random decision-time bound (shard-cacheable).
    Thm3,
    /// Fig. 4 uniform-gap family (shard-cacheable).
    Fig4,
    /// Proposition 2 connectivity report (job-level cacheable).
    Prop2,
}

impl QueryKind {
    /// Every query kind, in wire order.
    pub const ALL: [QueryKind; 5] =
        [QueryKind::Thm1, QueryKind::Omission, QueryKind::Thm3, QueryKind::Fig4, QueryKind::Prop2];

    /// The wire (and fingerprint) name of the query.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Thm1 => "thm1",
            QueryKind::Omission => "omission",
            QueryKind::Thm3 => "thm3",
            QueryKind::Fig4 => "fig4",
            QueryKind::Prop2 => "prop2",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Rejects unknown query names.
    pub fn parse(name: &str) -> Result<Self, WireError> {
        QueryKind::ALL
            .into_iter()
            .find(|kind| kind.name() == name)
            .ok_or_else(|| WireError::new(format!("unknown query {name:?}")))
    }
}

/// A query travels as its name.
impl ToWire for QueryKind {
    fn to_wire(&self) -> Value {
        Value::Str(self.name().into())
    }
}

impl FromWire for QueryKind {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        QueryKind::parse(&String::from_wire(value)?)
    }
}

pub use sweep::experiments::ScopeSpec;

wire_record!(ScopeSpec, "scope" { n, t, k, max_value, max_crash_round, partial_delivery });

/// A submitted sweep job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Client-chosen identifier echoed in every frame of the job.
    pub id: u64,
    /// The query to run.
    pub query: QueryKind,
    /// Optional custom scope (Theorem 1 and omission jobs only; the
    /// built-in cases are run when absent).
    pub scope: Option<ScopeSpec>,
    /// Shard count; `0` lets the daemon pick `4 × workers`.
    pub shards: usize,
    /// Seed for seeded scenario sources (part of the job fingerprint).
    pub seed: u64,
    /// Whether the daemon may read and populate its shard-accumulator
    /// cache for this job (`false` forces a fully cold execution and
    /// leaves the cache untouched).
    pub shard_cache: bool,
}

wire_record!(JobSpec, "job", tag "job" { id, query, scope, shards, seed, shard_cache });

/// One shard of one case, described self-containedly so a remote worker
/// can rebuild the scenario source and execute the fold with nothing but
/// this frame.  The coordinator always sends the explicit scope of the
/// case (even for built-in Theorem 1 cases), so worker and coordinator
/// cannot disagree about what the shard covers.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// The query the shard belongs to.
    pub query: QueryKind,
    /// Sub-sweep index within the job (selects the built-in case for
    /// Theorem 3).
    pub case: usize,
    /// Explicit scope of the case (Theorem 1 only; `None` for the seeded
    /// and fixed-family queries, whose scopes are built in).
    pub scope: Option<ScopeSpec>,
    /// Seed for seeded scenario sources.
    pub seed: u64,
    /// Shard count of the case — the worker recomputes the identical
    /// block-aligned partition from it.
    pub shards: usize,
    /// Which shard of that partition to execute.
    pub shard: usize,
}

wire_record!(TaskSpec, "task" { query, case, scope, seed, shards, shard });

/// Server → worker: one shard to execute.  The `(lease, generation)` pair
/// identifies the grant; a completion that no longer names an assigned
/// grant (the worker expired and its shard fell back to the local pool
/// meanwhile) is dropped by the coordinator, so the shard enters the fold
/// exactly once.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseGrant {
    /// Lease id, unique per daemon process.
    pub lease: u64,
    /// Grant generation, echoed by the worker's answer.
    pub generation: u64,
    /// What to execute.
    pub task: TaskSpec,
}

wire_record!(LeaseGrant, "lease", tag "lease" { lease, generation, task });

/// Worker → server: a leased shard finished; `payload` is the wire
/// rendering of the per-shard reducer accumulator (lossless — the
/// accumulators are integers and booleans throughout, so a remote fold
/// merges bit-identically to a local one).
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseDone {
    /// Lease id echoed from the grant.
    pub lease: u64,
    /// Generation echoed from the grant.
    pub generation: u64,
    /// The worker id that executed the shard.
    pub worker: u64,
    /// First scenario index the worker actually covered.
    pub start: usize,
    /// Past-the-end scenario index the worker actually covered.
    pub end: usize,
    /// Execution statistics of the shard.
    pub stats: SweepStats,
    /// The accumulator, as rendered by its `ToWire` impl.
    pub payload: Value,
}

wire_record!(LeaseDone, "lease-done", tag "lease-done" {
    lease, generation, worker, start, end, stats, payload,
});

/// Worker → server: a leased shard could not be executed (the model
/// rejected the task's parameters).  The shard falls back to the local
/// pool, which surfaces the same rejection as a typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseFailed {
    /// Lease id echoed from the grant.
    pub lease: u64,
    /// Generation echoed from the grant.
    pub generation: u64,
    /// Human-readable description of the rejection.
    pub message: String,
}

wire_record!(LeaseFailed, "lease-failed", tag "lease-failed" { lease, generation, message });

/// The engine's statistics travel flat: one field per counter of its
/// nested cache, run-reuse and cursor stats.
impl ToWire for SweepStats {
    fn to_wire(&self) -> Value {
        object([
            ("scenarios", self.scenarios.to_wire()),
            ("cache_hits", self.cache.hits.to_wire()),
            ("cache_misses", self.cache.misses.to_wire()),
            ("runs_simulated", self.runs.simulated.to_wire()),
            ("runs_reused", self.runs.reused.to_wire()),
            ("cursor_materialized", self.cursor.materialized.to_wire()),
            ("cursor_stepped", self.cursor.stepped.to_wire()),
            ("patterns_unranked", self.cursor.patterns_unranked.to_wire()),
        ])
    }
}

impl FromWire for SweepStats {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        Ok(SweepStats {
            scenarios: value.field("scenarios", "stats.scenarios")?,
            cache: knowledge::CacheStats {
                hits: value.field("cache_hits", "stats.cache_hits")?,
                misses: value.field("cache_misses", "stats.cache_misses")?,
            },
            runs: set_consensus::RunReuseStats {
                simulated: value.field("runs_simulated", "stats.runs_simulated")?,
                reused: value.field("runs_reused", "stats.runs_reused")?,
            },
            cursor: CursorStats {
                materialized: value.field("cursor_materialized", "stats.cursor_materialized")?,
                stepped: value.field("cursor_stepped", "stats.cursor_stepped")?,
                patterns_unranked: value.field("patterns_unranked", "stats.patterns_unranked")?,
            },
        })
    }
}

/// One shard of a job finished (either replayed from the accumulator cache
/// or executed on the worker pool).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardDone {
    /// Job id.
    pub job: u64,
    /// Sub-sweep index within the job (Theorem 1 runs one per `(n, t, k)`
    /// case).
    pub case: usize,
    /// Number of sub-sweeps in the job.
    pub cases: usize,
    /// Shard index within the case.
    pub shard: usize,
    /// Shard count of the case.
    pub shards: usize,
    /// First scenario index of the shard.
    pub start: usize,
    /// Past-the-end scenario index of the shard.
    pub end: usize,
    /// `true` if the accumulator was replayed from the cache (its `stats`
    /// are then all zero).
    pub cached: bool,
    /// Execution statistics of this shard alone.
    pub stats: SweepStats,
}

wire_record!(ShardDone, "shard-done", tag "shard-done" {
    job, case, cases, shard, shards, start, end, cached, stats,
});

/// The final result of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Theorem 1 rows.
    Thm1(Vec<Thm1Case>),
    /// Omission-scan rows (the Theorem 1 row shape over the send-omission
    /// space).
    Omission(Vec<Thm1Case>),
    /// Theorem 3 rows.
    Thm3(Vec<Thm3Row>),
    /// Fig. 4 rows.
    Fig4(Vec<Fig4Row>),
    /// The Proposition 2 report.
    Prop2(Prop2Report),
}

wire_record!(Thm1Case, "thm1" {
    n, t, k, adversaries, correctness_violations, beaten_by, structure_violations,
});
wire_record!(Thm3Row, "thm3" { n, t, k, f, runs, worst, bound, violations });
wire_record!(Fig4Row, "fig4" { k, t, n, bound, latest, violations });
wire_record!(Prop2ExhaustiveRow, "prop2" {
    n, t, states, with_capacity, connected, counterexamples,
});
wire_record!(Prop2Targeted, "prop2" {
    hidden_capacity, executions, star_states, star_facets, star_betti, star_connected,
    link_betti, link_connected,
});
wire_record!(Prop2Report, "prop2" { exhaustive, targeted });

// ---------------------------------------------------------------------------
// Per-shard accumulators — the payloads of the persisted cache store and
// of `lease-done` frames.  One `Value` model (and one torn-input
// discipline) covers both surfaces.
// ---------------------------------------------------------------------------

wire_record!(Thm1Outcome, "thm1-acc" { violations, beaten, structure });

/// `per_f` travels as `[f, worst, runs]` triples in `f` order.
impl ToWire for Thm3Acc {
    fn to_wire(&self) -> Value {
        let per_f = self
            .per_f
            .iter()
            .map(|(f, (worst, runs))| {
                Value::Array(vec![f.to_wire(), worst.to_wire(), runs.to_wire()])
            })
            .collect();
        object([("per_f", Value::Array(per_f)), ("violations", self.violations.to_wire())])
    }
}

impl FromWire for Thm3Acc {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        let triples = value.get("per_f").ok_or_else(|| missing("per_f"))?;
        let mut per_f = BTreeMap::new();
        for triple in entries(triples).map_err(|e| e.at("thm3-acc.per_f"))? {
            let [f, worst, runs] = entries(triple).map_err(|e| e.at("thm3-acc.per_f entry"))?
            else {
                return Err(WireError::new("thm3-acc.per_f entries must be [f, worst, runs]"));
            };
            per_f.insert(
                usize::from_wire(f).map_err(|e| e.at("thm3-acc.per_f f"))?,
                (
                    u32::from_wire(worst).map_err(|e| e.at("thm3-acc.per_f worst"))?,
                    u64::from_wire(runs).map_err(|e| e.at("thm3-acc.per_f runs"))?,
                ),
            );
        }
        Ok(Thm3Acc { per_f, violations: value.field("violations", "thm3-acc.violations")? })
    }
}

/// The map travels as `[index, l0, l1, l2, l3, violations]` rows in index
/// order.
impl ToWire for Fig4Acc {
    fn to_wire(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|(index, (latest, violations))| {
                    let mut row = vec![index.to_wire()];
                    row.extend(latest.iter().map(ToWire::to_wire));
                    row.push(violations.to_wire());
                    Value::Array(row)
                })
                .collect(),
        )
    }
}

impl FromWire for Fig4Acc {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        let mut acc = Fig4Acc::new();
        for row in entries(value).map_err(|e| e.at("fig4-acc"))? {
            let cells = entries(row).map_err(|e| e.at("fig4-acc entry"))?;
            let [index, l0, l1, l2, l3, violations] = cells else {
                return Err(WireError::new(
                    "fig4-acc entries must be [index, l0, l1, l2, l3, violations]",
                ));
            };
            let mut latest = [0u32; 4];
            for (slot, cell) in latest.iter_mut().zip([l0, l1, l2, l3]) {
                *slot = u32::from_wire(cell).map_err(|e| e.at("fig4-acc latest entry"))?;
            }
            acc.insert(
                usize::from_wire(index).map_err(|e| e.at("fig4-acc index"))?,
                (latest, u64::from_wire(violations).map_err(|e| e.at("fig4-acc violations"))?),
            );
        }
        Ok(acc)
    }
}

/// A result travels as its query's name and the rows (or report) of that
/// query.
impl ToWire for QueryResult {
    fn to_wire(&self) -> Value {
        let (query, rows) = match self {
            QueryResult::Thm1(rows) => (QueryKind::Thm1, rows.to_wire()),
            QueryResult::Omission(rows) => (QueryKind::Omission, rows.to_wire()),
            QueryResult::Thm3(rows) => (QueryKind::Thm3, rows.to_wire()),
            QueryResult::Fig4(rows) => (QueryKind::Fig4, rows.to_wire()),
            QueryResult::Prop2(report) => (QueryKind::Prop2, report.to_wire()),
        };
        object([("query", query.to_wire()), ("rows", rows)])
    }
}

impl FromWire for QueryResult {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        Ok(match value.field("query", "result.query")? {
            QueryKind::Thm1 => QueryResult::Thm1(value.field("rows", "result.rows")?),
            QueryKind::Omission => QueryResult::Omission(value.field("rows", "result.rows")?),
            QueryKind::Thm3 => QueryResult::Thm3(value.field("rows", "result.rows")?),
            QueryKind::Fig4 => QueryResult::Fig4(value.field("rows", "result.rows")?),
            QueryKind::Prop2 => QueryResult::Prop2(value.field("rows", "result.rows")?),
        })
    }
}

/// The terminal success frame of a job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDone {
    /// Job id.
    pub job: u64,
    /// The final, fully merged result.
    pub result: QueryResult,
    /// Statistics of the **executed** work only — a fully cache-warm job
    /// reports zero scenarios here (the acceptance signal of the
    /// incremental cache).
    pub stats: SweepStats,
    /// Shards the job was partitioned into, over all cases.
    pub shards_total: u64,
    /// Shards replayed from the accumulator cache.
    pub shards_cached: u64,
    /// Shards executed on the worker pool.
    pub shards_executed: u64,
    /// Remote workers registered when the job finished.
    pub fleet_workers: u64,
    /// Of the executed shards, how many ran on remote workers.
    pub shards_remote: u64,
    /// Leases of the job that a worker lost (expired, disconnected or
    /// unreachable) and whose shards the local pool re-ran.
    pub leases_requeued: u64,
    /// Server-side wall time of the job in milliseconds.
    pub wall_ms: f64,
}

wire_record!(JobDone, "job-done", tag "job-done" {
    job, result, stats, shards_total, shards_cached, shards_executed, fleet_workers,
    shards_remote, leases_requeued, wall_ms,
});

/// Machine-readable classification of an [`ErrorFrame`] — what failed, so
/// clients can react (retry a [`ErrorKind::QueueFull`] rejection, treat
/// [`ErrorKind::Cancelled`] as expected) without parsing the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// The request itself violated the protocol (malformed frame, custom
    /// scope on the wrong query, …).
    Protocol,
    /// The daemon already serves
    /// [`ServeOptions::MAX_CONNECTIONS`](crate::ServeOptions::MAX_CONNECTIONS)
    /// connections; reconnect later.  The wire name stays `queue-full`, so
    /// clients of every version decode it.
    QueueFull,
    /// The job was revoked by a `cancel` frame.
    Cancelled,
    /// A replayed shard's stored range is not the range the job's
    /// partition gives that shard — a forged or corrupted cache entry,
    /// refused before it can reach the merge.
    Merge,
    /// The sweep engine rejected the job's parameters mid-execution.
    Model,
    /// The connection failed the shared-secret handshake on a
    /// token-protected TCP endpoint.
    Unauthorized,
    /// Anything else server-side.
    Internal,
}

impl ErrorKind {
    /// The wire name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::QueueFull => "queue-full",
            ErrorKind::Cancelled => "cancelled",
            ErrorKind::Merge => "merge",
            ErrorKind::Model => "model",
            ErrorKind::Unauthorized => "unauthorized",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parses a wire name.  Unknown names (a newer server) and absent
    /// kinds (an older server) both map to [`ErrorKind::Internal`] rather
    /// than failing: the error frame must stay decodable across versions.
    pub fn parse(name: &str) -> Self {
        match name {
            "protocol" => ErrorKind::Protocol,
            "queue-full" => ErrorKind::QueueFull,
            "cancelled" => ErrorKind::Cancelled,
            "merge" => ErrorKind::Merge,
            "model" => ErrorKind::Model,
            "unauthorized" => ErrorKind::Unauthorized,
            _ => ErrorKind::Internal,
        }
    }
}

/// A kind travels as its name; an absent kind reads as
/// [`ErrorKind::Internal`], like an unknown one.
impl ToWire for ErrorKind {
    fn to_wire(&self) -> Value {
        Value::Str(self.name().into())
    }
}

impl FromWire for ErrorKind {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        String::from_wire(value).map(|name| ErrorKind::parse(&name))
    }

    fn from_absent_field() -> Option<Self> {
        Some(ErrorKind::Internal)
    }
}

/// The terminal failure frame of a job (or of a malformed request outside
/// any job).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// Job id, when the failure belongs to one.
    pub job: Option<u64>,
    /// What class of failure this is.
    pub kind: ErrorKind,
    /// Human-readable description.
    pub message: String,
}

wire_record!(ErrorFrame, "error", tag "error" { job, kind, message });

wire_record!(HistogramSnapshot, "histogram" {
    name, count, sum_us, max_us, p50_us, p95_us, p99_us,
});

/// Renders a `[[name, value], …]` metrics section.
fn metric_pairs<T: ToWire>(pairs: &[(String, T)]) -> Value {
    Value::Array(
        pairs.iter().map(|(name, v)| Value::Array(vec![name.to_wire(), v.to_wire()])).collect(),
    )
}

/// Decodes a metrics section, naming a bad `[name, value]` pair `pair`.
fn metric_pairs_from<T: FromWire>(
    section: Vec<Value>,
    pair: &str,
) -> Result<Vec<(String, T)>, WireError> {
    section.iter().map(|entry| metric_pair(entry).map_err(|e| e.at(pair))).collect()
}

fn metric_pair<T: FromWire>(entry: &Value) -> Result<(String, T), WireError> {
    match entries(entry)? {
        [name, value] => Ok((String::from_wire(name)?, T::from_wire(value)?)),
        _ => Err(WireError::new("must be a [name, value] pair")),
    }
}

/// Counters and gauges travel as `[name, value]` pairs, histograms as
/// records.
impl ToWire for MetricsSnapshot {
    fn to_wire(&self) -> Value {
        tagged(
            "stats-result",
            [
                ("counters", metric_pairs(&self.counters)),
                ("gauges", metric_pairs(&self.gauges)),
                ("histograms", self.histograms.to_wire()),
            ],
        )
    }
}

impl FromWire for MetricsSnapshot {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        Ok(MetricsSnapshot {
            counters: metric_pairs_from(
                value.field("counters", "stats-result.counters")?,
                "stats-result counter",
            )?,
            gauges: metric_pairs_from(
                value.field("gauges", "stats-result.gauges")?,
                "stats-result gauge",
            )?,
            histograms: value.field("histograms", "stats-result.histograms")?,
        })
    }
}

/// One frame of the protocol — the tagged union that travels as one JSON
/// line.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: run this job.
    Job(JobSpec),
    /// Client → server: revoke a running job by its id.
    Cancel {
        /// Id of the job to revoke.
        job: u64,
    },
    /// Client → server: finish running jobs, then exit.
    Shutdown,
    /// Server → client: shutdown acknowledged.
    ShuttingDown,
    /// Server → client: cancel acknowledged.  `found` reports whether the
    /// job was known (running) when the cancel arrived; the
    /// revoked job itself still terminates with an
    /// [`ErrorKind::Cancelled`] error frame on its own connection.
    CancelAck {
        /// Id echoed from the cancel request.
        job: u64,
        /// Whether the job was running.
        found: bool,
    },
    /// Server → client: one shard finished.
    ShardDone(ShardDone),
    /// Server → client: the job finished.
    JobDone(JobDone),
    /// Server → client: the job (or request) failed.
    Error(ErrorFrame),
    /// Client → server: shared-secret auth handshake.  Required as the
    /// first frame on a token-protected TCP endpoint; ignored elsewhere.
    Hello {
        /// The shared secret.
        token: String,
    },
    /// Worker → server: join the fleet (this connection becomes a worker
    /// session and stops accepting job frames).
    Register {
        /// The worker's fold semantics (`fingerprint::code_version`); the
        /// coordinator refuses a worker whose shards would fold
        /// differently from its own.  Absent from workers that predate it.
        fold: Option<String>,
    },
    /// Server → worker: registration accepted.
    Registered {
        /// Assigned worker id, echoed in heartbeats and completions.
        worker: u64,
        /// Lease TTL the coordinator enforces, in milliseconds.
        lease_ttl_ms: u64,
        /// Heartbeat cadence the worker should keep, in milliseconds.
        heartbeat_ms: u64,
        /// The coordinator's fold semantics; a worker leaves a coordinator
        /// whose value differs or is absent.
        fold: Option<String>,
    },
    /// Worker → server: still alive (extends the worker's TTL deadline).
    Heartbeat {
        /// The worker id from `registered`.
        worker: u64,
    },
    /// Server → worker: execute this shard.
    Lease(LeaseGrant),
    /// Worker → server: the leased shard finished.
    LeaseDone(LeaseDone),
    /// Worker → server: the leased shard was rejected by the model.
    LeaseFailed(LeaseFailed),
    /// Client → server: dump the daemon's metrics snapshot.
    Stats,
    /// Server → client: the metrics snapshot (the answer to
    /// [`Frame::Stats`]).
    StatsResult(MetricsSnapshot),
}

impl ToWire for Frame {
    fn to_wire(&self) -> Value {
        match self {
            Frame::Job(spec) => spec.to_wire(),
            Frame::Cancel { job } => tagged("cancel", [("job", job.to_wire())]),
            Frame::Shutdown => tagged("shutdown", []),
            Frame::ShuttingDown => tagged("shutting-down", []),
            Frame::CancelAck { job, found } => {
                tagged("cancel-ack", [("job", job.to_wire()), ("found", found.to_wire())])
            }
            Frame::ShardDone(frame) => frame.to_wire(),
            Frame::JobDone(frame) => frame.to_wire(),
            Frame::Error(frame) => frame.to_wire(),
            Frame::Hello { token } => tagged("hello", [("token", token.to_wire())]),
            Frame::Register { fold } => with_field(tagged("register", []), "fold", fold),
            Frame::Registered { worker, lease_ttl_ms, heartbeat_ms, fold } => with_field(
                tagged(
                    "registered",
                    [
                        ("worker", worker.to_wire()),
                        ("lease_ttl_ms", lease_ttl_ms.to_wire()),
                        ("heartbeat_ms", heartbeat_ms.to_wire()),
                    ],
                ),
                "fold",
                fold,
            ),
            Frame::Heartbeat { worker } => tagged("heartbeat", [("worker", worker.to_wire())]),
            Frame::Lease(frame) => frame.to_wire(),
            Frame::LeaseDone(frame) => frame.to_wire(),
            Frame::LeaseFailed(frame) => frame.to_wire(),
            Frame::Stats => tagged("stats", []),
            Frame::StatsResult(snapshot) => snapshot.to_wire(),
        }
    }
}

impl FromWire for Frame {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        let tag: String = value.field("type", "frame type")?;
        Ok(match tag.as_str() {
            "job" => Frame::Job(JobSpec::from_wire(value)?),
            "cancel" => Frame::Cancel { job: value.field("job", "cancel.job")? },
            "shutdown" => Frame::Shutdown,
            "shutting-down" => Frame::ShuttingDown,
            "cancel-ack" => Frame::CancelAck {
                job: value.field("job", "cancel-ack.job")?,
                found: value.field("found", "cancel-ack.found")?,
            },
            "shard-done" => Frame::ShardDone(ShardDone::from_wire(value)?),
            "job-done" => Frame::JobDone(JobDone::from_wire(value)?),
            "error" => Frame::Error(ErrorFrame::from_wire(value)?),
            "hello" => Frame::Hello { token: value.field("token", "hello.token")? },
            "register" => Frame::Register { fold: value.field("fold", "register.fold")? },
            "registered" => Frame::Registered {
                worker: value.field("worker", "registered.worker")?,
                lease_ttl_ms: value.field("lease_ttl_ms", "registered.lease_ttl_ms")?,
                heartbeat_ms: value.field("heartbeat_ms", "registered.heartbeat_ms")?,
                fold: value.field("fold", "registered.fold")?,
            },
            "heartbeat" => Frame::Heartbeat { worker: value.field("worker", "heartbeat.worker")? },
            "lease" => Frame::Lease(LeaseGrant::from_wire(value)?),
            "lease-done" => Frame::LeaseDone(LeaseDone::from_wire(value)?),
            "lease-failed" => Frame::LeaseFailed(LeaseFailed::from_wire(value)?),
            "stats" => Frame::Stats,
            "stats-result" => Frame::StatsResult(MetricsSnapshot::from_wire(value)?),
            other => return Err(WireError::new(format!("unknown frame type {other:?}"))),
        })
    }
}

/// Encodes a frame as one newline-terminated JSON line.
pub fn encode_line(frame: &Frame) -> String {
    let mut line = frame.to_wire().render();
    line.push('\n');
    line
}

/// Decodes one line (with or without its trailing newline) into a frame.
///
/// # Errors
///
/// Returns a [`WireError`] for malformed JSON, unknown frame types, and
/// missing or ill-typed fields — including truncated input, which always
/// fails (a prefix of a valid frame is never itself a valid frame).
pub fn decode_line(line: &str) -> Result<Frame, WireError> {
    Frame::from_wire(&Value::parse(line.trim_end_matches(['\r', '\n']))?)
}

/// Decodes one line of a frame stream, as the crate's frame reader reads
/// it: `None` for a blank line or a retired frame type, which the reader
/// skips; otherwise as [`decode_line`].
///
/// # Errors
///
/// As [`decode_line`]: a frame type that is neither known nor retired is
/// still an error.
pub fn decode_stream_line(line: &str) -> Result<Option<Frame>, WireError> {
    if line.trim().is_empty() {
        return Ok(None);
    }
    let value = Value::parse(line.trim_end_matches(['\r', '\n']))?;
    match value.get("type") {
        // Retired: daemons built as `0.1.0+fold.v3` before this arm was
        // added streamed a `partial` frame, a preview of the case's prefix
        // fold, at every shard completion.  Coordinators built before the
        // `lease-revoke` skip was added sent that frame to an expired
        // worker, which only logged it.
        Some(Value::Str(tag)) if tag == "partial" || tag == "lease-revoke" => Ok(None),
        _ => Frame::from_wire(&value).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_render_and_reparse() {
        let value = Value::Object(vec![
            ("null".into(), Value::Null),
            ("flag".into(), Value::Bool(true)),
            ("int".into(), Value::Int(-42)),
            ("big".into(), Value::Int(167_890_000_000_000_000_000_000)),
            ("float".into(), Value::Float(1.5)),
            ("whole_float".into(), Value::Float(2.0)),
            ("text".into(), Value::Str("line\n\"quoted\" \\ tab\t".into())),
            ("array".into(), Value::Array(vec![Value::Int(1), Value::Str("two".into())])),
        ]);
        let rendered = value.render();
        assert_eq!(Value::parse(&rendered).unwrap(), value);
        // Int/Float distinction survives the round trip.
        assert!(rendered.contains("\"whole_float\":2.0"));
        assert!(rendered.contains("\"big\":167890000000000000000000"));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\":1,}",
            "\"unterminated",
            "01x",
            "nul",
            "{\"a\":1}trailing",
            "1e999",
            "\"bad escape \\q\"",
            "170141183460469231731687303715884105728", // i128::MAX + 1
            // Numbers std's parsers accept but RFC 8259 forbids.
            "01",
            "-007",
            "1.",
            "-.5",
            "1.e3",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
        assert!(decode_line("{\"type\":\"cancel\",\"job\":007}").is_err());
        for (good, value) in [
            ("0", Value::Int(0)),
            ("-0", Value::Int(0)),
            ("0.5", Value::Float(0.5)),
            ("1e5", Value::Float(1e5)),
            ("-1.5E-3", Value::Float(-1.5e-3)),
        ] {
            assert_eq!(Value::parse(good), Ok(value), "rejected {good:?}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let mut bomb = String::new();
        for _ in 0..100 {
            bomb.push('[');
        }
        assert!(Value::parse(&bomb).is_err());
    }

    #[test]
    fn unknown_frame_types_are_rejected() {
        assert!(decode_line("{\"type\":\"launch-missiles\"}").is_err());
        assert!(decode_line("{\"no_type\":1}").is_err());
        assert!(decode_line("[]").is_err());
    }
}
