//! The line-delimited JSON wire protocol of the sweep service.
//!
//! Every frame exchanged between `sweep serve` and `sweep submit` is one
//! line of JSON terminated by `\n` — the rustengan/Maelstrom shape: a
//! blocking reader can parse frames with nothing but `read_line`, and a
//! human can drive the daemon with `nc -U`.  The vendored `serde` stubs do
//! not serialize (see `vendor/README.md`), so the codec here is hand
//! rolled around a small JSON [`Value`] model and two traits:
//!
//! * [`ToWire`] — renders a type into a [`Value`] (the analogue of
//!   `serde::Serialize`);
//! * [`FromWire`] — rebuilds a type from a [`Value`] (the analogue of
//!   `serde::Deserialize`), rejecting missing fields, wrong types and
//!   out-of-range numbers with a [`WireError`] instead of panicking.
//!
//! **Swapping in the real serde** (once the build environment has network
//! access): `Value` is isomorphic to `serde_json::Value` with ordered
//! object fields, and each `ToWire`/`FromWire` impl is the explicit form
//! of a `#[derive(Serialize, Deserialize)]` plus `#[serde(tag = "type")]`
//! on [`Frame`].  The swap replaces the impls with derives and
//! [`encode_line`]/[`decode_line`] with `serde_json::to_string`/
//! `from_str`; the on-wire format is designed to come out identical, so
//! old clients keep working.
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
//!                   {"type":"partial", ...Partial}          (per prefix growth)
//!                   {"type":"job-done", ...JobDone}         (terminal, success)
//!                   {"type":"error", ...ErrorFrame}         (terminal, failure)
//!                   {"type":"cancel-ack","job":N,"found":b} (cancel ack)
//!                   {"type":"shutting-down"}                (shutdown ack)
//!                   {"type":"stats-result", ...}            (metrics snapshot)
//! worker → server   {"type":"register"}                     (join the fleet)
//!                   {"type":"heartbeat","worker":N}         (liveness, periodic)
//!                   {"type":"lease-done", ...LeaseDone}     (shard executed)
//!                   {"type":"lease-failed", ...LeaseFailed} (shard rejected)
//! server → worker   {"type":"registered", ...}              (worker id + TTLs)
//!                   {"type":"lease", ...LeaseGrant}         (one shard to run)
//!                   {"type":"lease-revoke","lease":N,...}   (grant withdrawn)
//! ```

use std::fmt;

use adversary::PatternModel;
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
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error: {}", self.message)
    }
}

impl std::error::Error for WireError {}

/// Renders a type into a wire [`Value`] — the hand-rolled analogue of
/// `serde::Serialize` (see the module docs for the swap path).
pub trait ToWire {
    /// Returns the wire representation of `self`.
    fn to_wire(&self) -> Value;
}

/// Rebuilds a type from a wire [`Value`] — the hand-rolled analogue of
/// `serde::Deserialize`.
pub trait FromWire: Sized {
    /// Parses `value` into `Self`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] naming the missing field or type mismatch.
    fn from_wire(value: &Value) -> Result<Self, WireError>;
}

/// A list renders as a wire array of its elements.
impl<T: ToWire> ToWire for Vec<T> {
    fn to_wire(&self) -> Value {
        Value::Array(self.iter().map(ToWire::to_wire).collect())
    }
}

impl<T: FromWire> FromWire for Vec<T> {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        value.as_array("list")?.iter().map(T::from_wire).collect()
    }
}

impl Value {
    /// Looks up a field of an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a required field, with a clear error when absent.
    fn field(&self, key: &str) -> Result<&Value, WireError> {
        self.get(key).ok_or_else(|| WireError::new(format!("missing field {key:?}")))
    }

    fn as_i128(&self, what: &str) -> Result<i128, WireError> {
        match self {
            Value::Int(i) => Ok(*i),
            _ => Err(WireError::new(format!("{what} must be an integer, got {self:?}"))),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, WireError> {
        u64::try_from(self.as_i128(what)?)
            .map_err(|_| WireError::new(format!("{what} out of u64 range")))
    }

    fn as_u32(&self, what: &str) -> Result<u32, WireError> {
        u32::try_from(self.as_i128(what)?)
            .map_err(|_| WireError::new(format!("{what} out of u32 range")))
    }

    fn as_usize(&self, what: &str) -> Result<usize, WireError> {
        usize::try_from(self.as_i128(what)?)
            .map_err(|_| WireError::new(format!("{what} out of usize range")))
    }

    fn as_u128(&self, what: &str) -> Result<u128, WireError> {
        u128::try_from(self.as_i128(what)?)
            .map_err(|_| WireError::new(format!("{what} out of u128 range")))
    }

    fn as_f64(&self, what: &str) -> Result<f64, WireError> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            _ => Err(WireError::new(format!("{what} must be a number, got {self:?}"))),
        }
    }

    fn as_bool(&self, what: &str) -> Result<bool, WireError> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err(WireError::new(format!("{what} must be a boolean, got {self:?}"))),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, WireError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(WireError::new(format!("{what} must be a string, got {self:?}"))),
        }
    }

    fn as_array(&self, what: &str) -> Result<&[Value], WireError> {
        match self {
            Value::Array(items) => Ok(items),
            _ => Err(WireError::new(format!("{what} must be an array, got {self:?}"))),
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

    fn number(&mut self) -> Result<Value, WireError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if is_float {
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

    /// The query folding this one's experiment over `model`'s pattern
    /// space, or `None` if it has no variant there (Theorem 1 is the only
    /// experiment with a send-omission twin).
    pub fn with_model(self, model: PatternModel) -> Option<Self> {
        let thm1 = matches!(self, QueryKind::Thm1 | QueryKind::Omission);
        match model {
            PatternModel::Crash => Some(self),
            PatternModel::Omission => thm1.then_some(QueryKind::Omission),
        }
    }
}

pub use sweep::experiments::ScopeSpec;

impl ToWire for ScopeSpec {
    fn to_wire(&self) -> Value {
        Value::Object(vec![
            ("n".into(), Value::Int(self.n as i128)),
            ("t".into(), Value::Int(self.t as i128)),
            ("k".into(), Value::Int(self.k as i128)),
            ("max_value".into(), Value::Int(self.max_value as i128)),
            ("max_crash_round".into(), Value::Int(self.max_crash_round as i128)),
            ("partial_delivery".into(), Value::Bool(self.partial_delivery)),
        ])
    }
}

impl FromWire for ScopeSpec {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        Ok(ScopeSpec {
            n: value.field("n")?.as_usize("scope.n")?,
            t: value.field("t")?.as_usize("scope.t")?,
            k: value.field("k")?.as_usize("scope.k")?,
            max_value: value.field("max_value")?.as_u64("scope.max_value")?,
            max_crash_round: value.field("max_crash_round")?.as_u32("scope.max_crash_round")?,
            partial_delivery: value.field("partial_delivery")?.as_bool("scope.partial_delivery")?,
        })
    }
}

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

impl ToWire for JobSpec {
    fn to_wire(&self) -> Value {
        let mut fields = vec![
            ("type".into(), Value::Str("job".into())),
            ("id".into(), Value::Int(self.id as i128)),
            ("query".into(), Value::Str(self.query.name().into())),
        ];
        if let Some(scope) = &self.scope {
            fields.push(("scope".into(), scope.to_wire()));
        }
        fields.push(("shards".into(), Value::Int(self.shards as i128)));
        fields.push(("seed".into(), Value::Int(self.seed as i128)));
        fields.push(("shard_cache".into(), Value::Bool(self.shard_cache)));
        Value::Object(fields)
    }
}

impl FromWire for JobSpec {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        Ok(JobSpec {
            id: value.field("id")?.as_u64("job.id")?,
            query: QueryKind::parse(value.field("query")?.as_str("job.query")?)?,
            scope: match value.get("scope") {
                Some(scope) => Some(ScopeSpec::from_wire(scope)?),
                None => None,
            },
            shards: value.field("shards")?.as_usize("job.shards")?,
            seed: value.field("seed")?.as_u64("job.seed")?,
            shard_cache: value.field("shard_cache")?.as_bool("job.shard_cache")?,
        })
    }
}

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

impl ToWire for TaskSpec {
    fn to_wire(&self) -> Value {
        let mut fields = vec![
            ("query".into(), Value::Str(self.query.name().into())),
            ("case".into(), Value::Int(self.case as i128)),
        ];
        if let Some(scope) = &self.scope {
            fields.push(("scope".into(), scope.to_wire()));
        }
        fields.push(("seed".into(), Value::Int(self.seed as i128)));
        fields.push(("shards".into(), Value::Int(self.shards as i128)));
        fields.push(("shard".into(), Value::Int(self.shard as i128)));
        Value::Object(fields)
    }
}

impl FromWire for TaskSpec {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        Ok(TaskSpec {
            query: QueryKind::parse(value.field("query")?.as_str("task.query")?)?,
            case: value.field("case")?.as_usize("task.case")?,
            scope: match value.get("scope") {
                Some(scope) => Some(ScopeSpec::from_wire(scope)?),
                None => None,
            },
            seed: value.field("seed")?.as_u64("task.seed")?,
            shards: value.field("shards")?.as_usize("task.shards")?,
            shard: value.field("shard")?.as_usize("task.shard")?,
        })
    }
}

/// Server → worker: one shard to execute.  The `(lease, generation)` pair
/// identifies the grant; a completion carrying a stale generation (the
/// lease expired and was re-queued meanwhile) is dropped by the
/// coordinator, which is what makes dead-worker re-queue idempotent.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseGrant {
    /// Lease id, unique per daemon process.
    pub lease: u64,
    /// Grant generation — bumped every time the same shard is re-leased.
    pub generation: u64,
    /// What to execute.
    pub task: TaskSpec,
}

impl ToWire for LeaseGrant {
    fn to_wire(&self) -> Value {
        Value::Object(vec![
            ("type".into(), Value::Str("lease".into())),
            ("lease".into(), Value::Int(self.lease as i128)),
            ("generation".into(), Value::Int(self.generation as i128)),
            ("task".into(), self.task.to_wire()),
        ])
    }
}

impl FromWire for LeaseGrant {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        Ok(LeaseGrant {
            lease: value.field("lease")?.as_u64("lease.lease")?,
            generation: value.field("generation")?.as_u64("lease.generation")?,
            task: TaskSpec::from_wire(value.field("task")?)?,
        })
    }
}

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

impl ToWire for LeaseDone {
    fn to_wire(&self) -> Value {
        Value::Object(vec![
            ("type".into(), Value::Str("lease-done".into())),
            ("lease".into(), Value::Int(self.lease as i128)),
            ("generation".into(), Value::Int(self.generation as i128)),
            ("worker".into(), Value::Int(self.worker as i128)),
            ("start".into(), Value::Int(self.start as i128)),
            ("end".into(), Value::Int(self.end as i128)),
            ("stats".into(), self.stats.to_wire()),
            ("payload".into(), self.payload.clone()),
        ])
    }
}

impl FromWire for LeaseDone {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        Ok(LeaseDone {
            lease: value.field("lease")?.as_u64("lease-done.lease")?,
            generation: value.field("generation")?.as_u64("lease-done.generation")?,
            worker: value.field("worker")?.as_u64("lease-done.worker")?,
            start: value.field("start")?.as_usize("lease-done.start")?,
            end: value.field("end")?.as_usize("lease-done.end")?,
            stats: SweepStats::from_wire(value.field("stats")?)?,
            payload: value.field("payload")?.clone(),
        })
    }
}

/// Worker → server: a leased shard could not be executed (the model
/// rejected the task's parameters).  Deterministic failures re-queue like
/// crashes do, and surface as typed errors once the local fallback hits
/// the same rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseFailed {
    /// Lease id echoed from the grant.
    pub lease: u64,
    /// Generation echoed from the grant.
    pub generation: u64,
    /// Human-readable description of the rejection.
    pub message: String,
}

impl ToWire for LeaseFailed {
    fn to_wire(&self) -> Value {
        Value::Object(vec![
            ("type".into(), Value::Str("lease-failed".into())),
            ("lease".into(), Value::Int(self.lease as i128)),
            ("generation".into(), Value::Int(self.generation as i128)),
            ("message".into(), Value::Str(self.message.clone())),
        ])
    }
}

impl FromWire for LeaseFailed {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        Ok(LeaseFailed {
            lease: value.field("lease")?.as_u64("lease-failed.lease")?,
            generation: value.field("generation")?.as_u64("lease-failed.generation")?,
            message: value.field("message")?.as_str("lease-failed.message")?.to_owned(),
        })
    }
}

impl ToWire for SweepStats {
    fn to_wire(&self) -> Value {
        Value::Object(vec![
            ("scenarios".into(), Value::Int(self.scenarios as i128)),
            ("cache_hits".into(), Value::Int(self.cache.hits as i128)),
            ("cache_misses".into(), Value::Int(self.cache.misses as i128)),
            ("runs_simulated".into(), Value::Int(self.runs.simulated as i128)),
            ("runs_reused".into(), Value::Int(self.runs.reused as i128)),
            ("cursor_materialized".into(), Value::Int(self.cursor.materialized as i128)),
            ("cursor_stepped".into(), Value::Int(self.cursor.stepped as i128)),
            ("patterns_unranked".into(), Value::Int(self.cursor.patterns_unranked as i128)),
        ])
    }
}

impl FromWire for SweepStats {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        Ok(SweepStats {
            scenarios: value.field("scenarios")?.as_u64("stats.scenarios")?,
            cache: knowledge::CacheStats {
                hits: value.field("cache_hits")?.as_u64("stats.cache_hits")?,
                misses: value.field("cache_misses")?.as_u64("stats.cache_misses")?,
            },
            runs: set_consensus::RunReuseStats {
                simulated: value.field("runs_simulated")?.as_u64("stats.runs_simulated")?,
                reused: value.field("runs_reused")?.as_u64("stats.runs_reused")?,
            },
            cursor: CursorStats {
                materialized: value
                    .field("cursor_materialized")?
                    .as_u64("stats.cursor_materialized")?,
                stepped: value.field("cursor_stepped")?.as_u64("stats.cursor_stepped")?,
                patterns_unranked: value
                    .field("patterns_unranked")?
                    .as_u64("stats.patterns_unranked")?,
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

impl ToWire for ShardDone {
    fn to_wire(&self) -> Value {
        Value::Object(vec![
            ("type".into(), Value::Str("shard-done".into())),
            ("job".into(), Value::Int(self.job as i128)),
            ("case".into(), Value::Int(self.case as i128)),
            ("cases".into(), Value::Int(self.cases as i128)),
            ("shard".into(), Value::Int(self.shard as i128)),
            ("shards".into(), Value::Int(self.shards as i128)),
            ("start".into(), Value::Int(self.start as i128)),
            ("end".into(), Value::Int(self.end as i128)),
            ("cached".into(), Value::Bool(self.cached)),
            ("stats".into(), self.stats.to_wire()),
        ])
    }
}

impl FromWire for ShardDone {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        Ok(ShardDone {
            job: value.field("job")?.as_u64("shard-done.job")?,
            case: value.field("case")?.as_usize("shard-done.case")?,
            cases: value.field("cases")?.as_usize("shard-done.cases")?,
            shard: value.field("shard")?.as_usize("shard-done.shard")?,
            shards: value.field("shards")?.as_usize("shard-done.shards")?,
            start: value.field("start")?.as_usize("shard-done.start")?,
            end: value.field("end")?.as_usize("shard-done.end")?,
            cached: value.field("cached")?.as_bool("shard-done.cached")?,
            stats: SweepStats::from_wire(value.field("stats")?)?,
        })
    }
}

/// The fold over the completed *prefix* of a case's shards grew — the
/// streaming preview of the final fold.  (Only a contiguous prefix can be
/// previewed: the `Reducer` laws cover merging adjacent slices in order,
/// nothing else.)
#[derive(Debug, Clone, PartialEq)]
pub struct Partial {
    /// Job id.
    pub job: u64,
    /// Sub-sweep index within the job.
    pub case: usize,
    /// Shards of the contiguous completed prefix.
    pub shards_done: usize,
    /// Shard count of the case.
    pub shards: usize,
    /// Scenarios covered by the prefix.
    pub scenarios_done: u64,
    /// The prefix fold: the case's reducer accumulator in its wire codec
    /// (the rendering the cache store and `lease-done` frames carry).
    pub fold: Value,
}

impl ToWire for Partial {
    fn to_wire(&self) -> Value {
        Value::Object(vec![
            ("type".into(), Value::Str("partial".into())),
            ("job".into(), Value::Int(self.job as i128)),
            ("case".into(), Value::Int(self.case as i128)),
            ("shards_done".into(), Value::Int(self.shards_done as i128)),
            ("shards".into(), Value::Int(self.shards as i128)),
            ("scenarios_done".into(), Value::Int(self.scenarios_done as i128)),
            ("fold".into(), self.fold.clone()),
        ])
    }
}

impl FromWire for Partial {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        Ok(Partial {
            job: value.field("job")?.as_u64("partial.job")?,
            case: value.field("case")?.as_usize("partial.case")?,
            shards_done: value.field("shards_done")?.as_usize("partial.shards_done")?,
            shards: value.field("shards")?.as_usize("partial.shards")?,
            scenarios_done: value.field("scenarios_done")?.as_u64("partial.scenarios_done")?,
            fold: value.field("fold")?.clone(),
        })
    }
}

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

impl ToWire for Thm1Case {
    fn to_wire(&self) -> Value {
        Value::Object(vec![
            ("n".into(), Value::Int(self.n as i128)),
            ("t".into(), Value::Int(self.t as i128)),
            ("k".into(), Value::Int(self.k as i128)),
            (
                "adversaries".into(),
                // Scope sizes are bounded by the engine (ExhaustiveSource
                // rejects spaces beyond usize::MAX), so they always fit the
                // wire's i128 integer model.
                Value::Int(i128::try_from(self.adversaries).expect("scope size fits i128")),
            ),
            ("correctness_violations".into(), Value::Int(self.correctness_violations as i128)),
            ("beaten_by".into(), Value::Int(self.beaten_by as i128)),
            ("structure_violations".into(), Value::Int(self.structure_violations as i128)),
        ])
    }
}

impl FromWire for Thm1Case {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        Ok(Thm1Case {
            n: value.field("n")?.as_usize("thm1.n")?,
            t: value.field("t")?.as_usize("thm1.t")?,
            k: value.field("k")?.as_usize("thm1.k")?,
            adversaries: value.field("adversaries")?.as_u128("thm1.adversaries")?,
            correctness_violations: value
                .field("correctness_violations")?
                .as_u64("thm1.correctness_violations")?,
            beaten_by: value.field("beaten_by")?.as_usize("thm1.beaten_by")?,
            structure_violations: value
                .field("structure_violations")?
                .as_u64("thm1.structure_violations")?,
        })
    }
}

impl ToWire for Thm3Row {
    fn to_wire(&self) -> Value {
        Value::Object(vec![
            ("n".into(), Value::Int(self.n as i128)),
            ("t".into(), Value::Int(self.t as i128)),
            ("k".into(), Value::Int(self.k as i128)),
            ("f".into(), Value::Int(self.f as i128)),
            ("runs".into(), Value::Int(self.runs as i128)),
            ("worst".into(), Value::Int(self.worst as i128)),
            ("bound".into(), Value::Int(self.bound as i128)),
            ("violations".into(), Value::Int(self.violations as i128)),
        ])
    }
}

impl FromWire for Thm3Row {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        Ok(Thm3Row {
            n: value.field("n")?.as_usize("thm3.n")?,
            t: value.field("t")?.as_usize("thm3.t")?,
            k: value.field("k")?.as_usize("thm3.k")?,
            f: value.field("f")?.as_usize("thm3.f")?,
            runs: value.field("runs")?.as_u64("thm3.runs")?,
            worst: value.field("worst")?.as_u32("thm3.worst")?,
            bound: value.field("bound")?.as_u32("thm3.bound")?,
            violations: value.field("violations")?.as_u64("thm3.violations")?,
        })
    }
}

impl ToWire for Fig4Row {
    fn to_wire(&self) -> Value {
        Value::Object(vec![
            ("k".into(), Value::Int(self.k as i128)),
            ("t".into(), Value::Int(self.t as i128)),
            ("n".into(), Value::Int(self.n as i128)),
            ("bound".into(), Value::Int(self.bound as i128)),
            (
                "latest".into(),
                Value::Array(self.latest.iter().map(|&l| Value::Int(l as i128)).collect()),
            ),
            ("violations".into(), Value::Int(self.violations as i128)),
        ])
    }
}

impl FromWire for Fig4Row {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        let latest_values = value.field("latest")?.as_array("fig4.latest")?;
        if latest_values.len() != 4 {
            return Err(WireError::new("fig4.latest must have exactly 4 entries"));
        }
        let mut latest = [0u32; 4];
        for (slot, entry) in latest_values.iter().enumerate() {
            latest[slot] = entry.as_u32("fig4.latest entry")?;
        }
        Ok(Fig4Row {
            k: value.field("k")?.as_usize("fig4.k")?,
            t: value.field("t")?.as_usize("fig4.t")?,
            n: value.field("n")?.as_usize("fig4.n")?,
            bound: value.field("bound")?.as_usize("fig4.bound")?,
            latest,
            violations: value.field("violations")?.as_u64("fig4.violations")?,
        })
    }
}

impl ToWire for Prop2ExhaustiveRow {
    fn to_wire(&self) -> Value {
        Value::Object(vec![
            ("n".into(), Value::Int(self.n as i128)),
            ("t".into(), Value::Int(self.t as i128)),
            ("states".into(), Value::Int(self.states as i128)),
            ("with_capacity".into(), Value::Int(self.with_capacity as i128)),
            ("connected".into(), Value::Int(self.connected as i128)),
            ("counterexamples".into(), Value::Int(self.counterexamples as i128)),
        ])
    }
}

impl FromWire for Prop2ExhaustiveRow {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        Ok(Prop2ExhaustiveRow {
            n: value.field("n")?.as_usize("prop2.n")?,
            t: value.field("t")?.as_usize("prop2.t")?,
            states: value.field("states")?.as_usize("prop2.states")?,
            with_capacity: value.field("with_capacity")?.as_usize("prop2.with_capacity")?,
            connected: value.field("connected")?.as_usize("prop2.connected")?,
            counterexamples: value.field("counterexamples")?.as_usize("prop2.counterexamples")?,
        })
    }
}

fn usize_array(values: &[usize]) -> Value {
    Value::Array(values.iter().map(|&v| Value::Int(v as i128)).collect())
}

fn usize_vec(value: &Value, what: &str) -> Result<Vec<usize>, WireError> {
    value.as_array(what)?.iter().map(|entry| entry.as_usize(what)).collect()
}

impl ToWire for Prop2Targeted {
    fn to_wire(&self) -> Value {
        Value::Object(vec![
            ("hidden_capacity".into(), Value::Int(self.hidden_capacity as i128)),
            ("executions".into(), Value::Int(self.executions as i128)),
            ("star_states".into(), Value::Int(self.star_states as i128)),
            ("star_facets".into(), Value::Int(self.star_facets as i128)),
            ("star_betti".into(), usize_array(&self.star_betti)),
            ("star_connected".into(), Value::Bool(self.star_connected)),
            ("link_betti".into(), usize_array(&self.link_betti)),
            ("link_connected".into(), Value::Bool(self.link_connected)),
        ])
    }
}

impl FromWire for Prop2Targeted {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        Ok(Prop2Targeted {
            hidden_capacity: value.field("hidden_capacity")?.as_usize("prop2.hidden_capacity")?,
            executions: value.field("executions")?.as_usize("prop2.executions")?,
            star_states: value.field("star_states")?.as_usize("prop2.star_states")?,
            star_facets: value.field("star_facets")?.as_usize("prop2.star_facets")?,
            star_betti: usize_vec(value.field("star_betti")?, "prop2.star_betti")?,
            star_connected: value.field("star_connected")?.as_bool("prop2.star_connected")?,
            link_betti: usize_vec(value.field("link_betti")?, "prop2.link_betti")?,
            link_connected: value.field("link_connected")?.as_bool("prop2.link_connected")?,
        })
    }
}

impl ToWire for Prop2Report {
    fn to_wire(&self) -> Value {
        Value::Object(vec![
            ("exhaustive".into(), self.exhaustive.to_wire()),
            ("targeted".into(), self.targeted.to_wire()),
        ])
    }
}

impl FromWire for Prop2Report {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        Ok(Prop2Report {
            exhaustive: Vec::from_wire(value.field("exhaustive")?)?,
            targeted: Prop2Targeted::from_wire(value.field("targeted")?)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Per-shard accumulators — the payloads of the persisted cache store, of
// `lease-done` frames and of `partial` previews.  One `Value` model (and
// one torn-input discipline) covers every surface.
// ---------------------------------------------------------------------------

impl ToWire for Thm1Outcome {
    fn to_wire(&self) -> Value {
        Value::Object(vec![
            ("violations".into(), Value::Int(self.violations as i128)),
            ("beaten".into(), Value::Array(self.beaten.iter().map(|&b| Value::Bool(b)).collect())),
            ("structure".into(), Value::Int(self.structure as i128)),
        ])
    }
}

impl FromWire for Thm1Outcome {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        let beaten_values = value.field("beaten")?.as_array("thm1-acc.beaten")?;
        if beaten_values.len() != 2 {
            return Err(WireError::new("thm1-acc.beaten must have exactly 2 entries"));
        }
        let mut beaten = [false; 2];
        for (slot, entry) in beaten_values.iter().enumerate() {
            beaten[slot] = entry.as_bool("thm1-acc.beaten entry")?;
        }
        Ok(Thm1Outcome {
            violations: value.field("violations")?.as_u64("thm1-acc.violations")?,
            beaten,
            structure: value.field("structure")?.as_u64("thm1-acc.structure")?,
        })
    }
}

impl ToWire for Thm3Acc {
    fn to_wire(&self) -> Value {
        Value::Object(vec![
            (
                "per_f".into(),
                Value::Array(
                    self.per_f
                        .iter()
                        .map(|(&f, &(worst, runs))| {
                            Value::Array(vec![
                                Value::Int(f as i128),
                                Value::Int(worst as i128),
                                Value::Int(runs as i128),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("violations".into(), Value::Int(self.violations as i128)),
        ])
    }
}

impl FromWire for Thm3Acc {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        let mut per_f = std::collections::BTreeMap::new();
        for entry in value.field("per_f")?.as_array("thm3-acc.per_f")? {
            let triple = entry.as_array("thm3-acc.per_f entry")?;
            if triple.len() != 3 {
                return Err(WireError::new("thm3-acc.per_f entries must be [f, worst, runs]"));
            }
            per_f.insert(
                triple[0].as_usize("thm3-acc.per_f f")?,
                (
                    triple[1].as_u32("thm3-acc.per_f worst")?,
                    triple[2].as_u64("thm3-acc.per_f runs")?,
                ),
            );
        }
        Ok(Thm3Acc { per_f, violations: value.field("violations")?.as_u64("thm3-acc.violations")? })
    }
}

impl ToWire for Fig4Acc {
    fn to_wire(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|(&index, &(latest, violations))| {
                    let mut row = vec![Value::Int(index as i128)];
                    row.extend(latest.iter().map(|&l| Value::Int(l as i128)));
                    row.push(Value::Int(violations as i128));
                    Value::Array(row)
                })
                .collect(),
        )
    }
}

impl FromWire for Fig4Acc {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        let mut acc = Fig4Acc::new();
        for entry in value.as_array("fig4-acc")? {
            let row = entry.as_array("fig4-acc entry")?;
            if row.len() != 6 {
                return Err(WireError::new(
                    "fig4-acc entries must be [index, l0, l1, l2, l3, violations]",
                ));
            }
            let mut latest = [0u32; 4];
            for (slot, cell) in row[1..5].iter().enumerate() {
                latest[slot] = cell.as_u32("fig4-acc latest entry")?;
            }
            acc.insert(
                row[0].as_usize("fig4-acc index")?,
                (latest, row[5].as_u64("fig4-acc violations")?),
            );
        }
        Ok(acc)
    }
}

impl ToWire for QueryResult {
    fn to_wire(&self) -> Value {
        let (query, rows) = match self {
            QueryResult::Thm1(rows) => ("thm1", rows.to_wire()),
            QueryResult::Omission(rows) => ("omission", rows.to_wire()),
            QueryResult::Thm3(rows) => ("thm3", rows.to_wire()),
            QueryResult::Fig4(rows) => ("fig4", rows.to_wire()),
            QueryResult::Prop2(report) => ("prop2", report.to_wire()),
        };
        Value::Object(vec![("query".into(), Value::Str(query.into())), ("rows".into(), rows)])
    }
}

impl FromWire for QueryResult {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        let rows = value.field("rows")?;
        Ok(match QueryKind::parse(value.field("query")?.as_str("result.query")?)? {
            QueryKind::Thm1 => QueryResult::Thm1(Vec::from_wire(rows)?),
            QueryKind::Omission => QueryResult::Omission(Vec::from_wire(rows)?),
            QueryKind::Thm3 => QueryResult::Thm3(Vec::from_wire(rows)?),
            QueryKind::Fig4 => QueryResult::Fig4(Vec::from_wire(rows)?),
            QueryKind::Prop2 => QueryResult::Prop2(Prop2Report::from_wire(rows)?),
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
    /// Lease re-queues the job survived (expired or failed grants that
    /// were re-leased or fell back to local execution).
    pub leases_requeued: u64,
    /// Server-side wall time of the job in milliseconds.
    pub wall_ms: f64,
}

impl ToWire for JobDone {
    fn to_wire(&self) -> Value {
        Value::Object(vec![
            ("type".into(), Value::Str("job-done".into())),
            ("job".into(), Value::Int(self.job as i128)),
            ("result".into(), self.result.to_wire()),
            ("stats".into(), self.stats.to_wire()),
            ("shards_total".into(), Value::Int(self.shards_total as i128)),
            ("shards_cached".into(), Value::Int(self.shards_cached as i128)),
            ("shards_executed".into(), Value::Int(self.shards_executed as i128)),
            ("fleet_workers".into(), Value::Int(self.fleet_workers as i128)),
            ("shards_remote".into(), Value::Int(self.shards_remote as i128)),
            ("leases_requeued".into(), Value::Int(self.leases_requeued as i128)),
            ("wall_ms".into(), Value::Float(self.wall_ms)),
        ])
    }
}

impl FromWire for JobDone {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        Ok(JobDone {
            job: value.field("job")?.as_u64("job-done.job")?,
            result: QueryResult::from_wire(value.field("result")?)?,
            stats: SweepStats::from_wire(value.field("stats")?)?,
            shards_total: value.field("shards_total")?.as_u64("job-done.shards_total")?,
            shards_cached: value.field("shards_cached")?.as_u64("job-done.shards_cached")?,
            shards_executed: value.field("shards_executed")?.as_u64("job-done.shards_executed")?,
            fleet_workers: value.field("fleet_workers")?.as_u64("job-done.fleet_workers")?,
            shards_remote: value.field("shards_remote")?.as_u64("job-done.shards_remote")?,
            leases_requeued: value.field("leases_requeued")?.as_u64("job-done.leases_requeued")?,
            wall_ms: value.field("wall_ms")?.as_f64("job-done.wall_ms")?,
        })
    }
}

/// Machine-readable classification of an [`ErrorFrame`] — what failed, so
/// clients can react (retry a [`ErrorKind::QueueFull`] rejection, treat
/// [`ErrorKind::Cancelled`] as expected) without parsing the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// The request itself violated the protocol (malformed frame, custom
    /// scope on the wrong query, …).
    Protocol,
    /// The daemon's bounded job queue was full; resubmit later.
    QueueFull,
    /// The job was revoked by a `cancel` frame.
    Cancelled,
    /// A cached/fresh accumulator set failed the shard-merge
    /// preconditions (out-of-order or gapped partition).
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

impl ToWire for ErrorFrame {
    fn to_wire(&self) -> Value {
        let mut fields = vec![("type".into(), Value::Str("error".into()))];
        if let Some(job) = self.job {
            fields.push(("job".into(), Value::Int(job as i128)));
        }
        fields.push(("kind".into(), Value::Str(self.kind.name().into())));
        fields.push(("message".into(), Value::Str(self.message.clone())));
        Value::Object(fields)
    }
}

impl FromWire for ErrorFrame {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        Ok(ErrorFrame {
            job: match value.get("job") {
                Some(job) => Some(job.as_u64("error.job")?),
                None => None,
            },
            kind: match value.get("kind") {
                Some(kind) => ErrorKind::parse(kind.as_str("error.kind")?),
                None => ErrorKind::Internal,
            },
            message: value.field("message")?.as_str("error.message")?.to_owned(),
        })
    }
}

impl ToWire for MetricsSnapshot {
    fn to_wire(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(name, v)| Value::Array(vec![Value::Str(name.clone()), Value::Int(*v as i128)]))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(name, v)| Value::Array(vec![Value::Str(name.clone()), Value::Int(*v as i128)]))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|h| {
                Value::Object(vec![
                    ("name".into(), Value::Str(h.name.clone())),
                    ("count".into(), Value::Int(h.count as i128)),
                    ("sum_us".into(), Value::Int(h.sum_us as i128)),
                    ("max_us".into(), Value::Int(h.max_us as i128)),
                    ("p50_us".into(), Value::Float(h.p50_us)),
                    ("p95_us".into(), Value::Float(h.p95_us)),
                    ("p99_us".into(), Value::Float(h.p99_us)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("type".into(), Value::Str("stats-result".into())),
            ("counters".into(), Value::Array(counters)),
            ("gauges".into(), Value::Array(gauges)),
            ("histograms".into(), Value::Array(histograms)),
        ])
    }
}

/// Decodes one `[name, value]` metric pair.
fn metric_pair(entry: &Value, what: &str) -> Result<(String, i128), WireError> {
    let pair = entry.as_array(what)?;
    if pair.len() != 2 {
        return Err(WireError::new(format!("{what} must be a [name, value] pair")));
    }
    Ok((pair[0].as_str(what)?.to_owned(), pair[1].as_i128(what)?))
}

impl FromWire for MetricsSnapshot {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        let counters = value
            .field("counters")?
            .as_array("stats-result.counters")?
            .iter()
            .map(|entry| {
                let (name, v) = metric_pair(entry, "stats-result counter")?;
                let v = u64::try_from(v)
                    .map_err(|_| WireError::new("stats-result counter out of u64 range"))?;
                Ok((name, v))
            })
            .collect::<Result<_, WireError>>()?;
        let gauges = value
            .field("gauges")?
            .as_array("stats-result.gauges")?
            .iter()
            .map(|entry| {
                let (name, v) = metric_pair(entry, "stats-result gauge")?;
                let v = i64::try_from(v)
                    .map_err(|_| WireError::new("stats-result gauge out of i64 range"))?;
                Ok((name, v))
            })
            .collect::<Result<_, WireError>>()?;
        let histograms = value
            .field("histograms")?
            .as_array("stats-result.histograms")?
            .iter()
            .map(|h| {
                Ok(HistogramSnapshot {
                    name: h.field("name")?.as_str("histogram.name")?.to_owned(),
                    count: h.field("count")?.as_u64("histogram.count")?,
                    sum_us: h.field("sum_us")?.as_u64("histogram.sum_us")?,
                    max_us: h.field("max_us")?.as_u64("histogram.max_us")?,
                    p50_us: h.field("p50_us")?.as_f64("histogram.p50_us")?,
                    p95_us: h.field("p95_us")?.as_f64("histogram.p95_us")?,
                    p99_us: h.field("p99_us")?.as_f64("histogram.p99_us")?,
                })
            })
            .collect::<Result<_, WireError>>()?;
        Ok(MetricsSnapshot { counters, gauges, histograms })
    }
}

/// One frame of the protocol — the tagged union that travels as one JSON
/// line.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: run this job.
    Job(JobSpec),
    /// Client → server: revoke a queued or running job by its id.
    Cancel {
        /// Id of the job to revoke.
        job: u64,
    },
    /// Client → server: finish queued jobs, then exit.
    Shutdown,
    /// Server → client: shutdown acknowledged.
    ShuttingDown,
    /// Server → client: cancel acknowledged.  `found` reports whether the
    /// job was known (queued or running) when the cancel arrived; the
    /// revoked job itself still terminates with an
    /// [`ErrorKind::Cancelled`] error frame on its own connection.
    CancelAck {
        /// Id echoed from the cancel request.
        job: u64,
        /// Whether the job was queued or running.
        found: bool,
    },
    /// Server → client: one shard finished.
    ShardDone(ShardDone),
    /// Server → client: the completed prefix fold grew.
    Partial(Partial),
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
    Register,
    /// Server → worker: registration accepted.
    Registered {
        /// Assigned worker id, echoed in heartbeats and completions.
        worker: u64,
        /// Lease TTL the coordinator enforces, in milliseconds.
        lease_ttl_ms: u64,
        /// Heartbeat cadence the worker should keep, in milliseconds.
        heartbeat_ms: u64,
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
    /// Server → worker: a grant was withdrawn (its TTL lapsed before the
    /// completion arrived); any in-flight result for it will be dropped.
    LeaseRevoke {
        /// Lease id of the withdrawn grant.
        lease: u64,
        /// Generation of the withdrawn grant.
        generation: u64,
    },
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
            Frame::Cancel { job } => Value::Object(vec![
                ("type".into(), Value::Str("cancel".into())),
                ("job".into(), Value::Int(*job as i128)),
            ]),
            Frame::Shutdown => Value::Object(vec![("type".into(), Value::Str("shutdown".into()))]),
            Frame::ShuttingDown => {
                Value::Object(vec![("type".into(), Value::Str("shutting-down".into()))])
            }
            Frame::CancelAck { job, found } => Value::Object(vec![
                ("type".into(), Value::Str("cancel-ack".into())),
                ("job".into(), Value::Int(*job as i128)),
                ("found".into(), Value::Bool(*found)),
            ]),
            Frame::ShardDone(frame) => frame.to_wire(),
            Frame::Partial(frame) => frame.to_wire(),
            Frame::JobDone(frame) => frame.to_wire(),
            Frame::Error(frame) => frame.to_wire(),
            Frame::Hello { token } => Value::Object(vec![
                ("type".into(), Value::Str("hello".into())),
                ("token".into(), Value::Str(token.clone())),
            ]),
            Frame::Register => Value::Object(vec![("type".into(), Value::Str("register".into()))]),
            Frame::Registered { worker, lease_ttl_ms, heartbeat_ms } => Value::Object(vec![
                ("type".into(), Value::Str("registered".into())),
                ("worker".into(), Value::Int(*worker as i128)),
                ("lease_ttl_ms".into(), Value::Int(*lease_ttl_ms as i128)),
                ("heartbeat_ms".into(), Value::Int(*heartbeat_ms as i128)),
            ]),
            Frame::Heartbeat { worker } => Value::Object(vec![
                ("type".into(), Value::Str("heartbeat".into())),
                ("worker".into(), Value::Int(*worker as i128)),
            ]),
            Frame::Lease(frame) => frame.to_wire(),
            Frame::LeaseDone(frame) => frame.to_wire(),
            Frame::LeaseRevoke { lease, generation } => Value::Object(vec![
                ("type".into(), Value::Str("lease-revoke".into())),
                ("lease".into(), Value::Int(*lease as i128)),
                ("generation".into(), Value::Int(*generation as i128)),
            ]),
            Frame::LeaseFailed(frame) => frame.to_wire(),
            Frame::Stats => Value::Object(vec![("type".into(), Value::Str("stats".into()))]),
            Frame::StatsResult(snapshot) => snapshot.to_wire(),
        }
    }
}

impl FromWire for Frame {
    fn from_wire(value: &Value) -> Result<Self, WireError> {
        match value.field("type")?.as_str("frame type")? {
            "job" => Ok(Frame::Job(JobSpec::from_wire(value)?)),
            "cancel" => Ok(Frame::Cancel { job: value.field("job")?.as_u64("cancel.job")? }),
            "shutdown" => Ok(Frame::Shutdown),
            "shutting-down" => Ok(Frame::ShuttingDown),
            "cancel-ack" => Ok(Frame::CancelAck {
                job: value.field("job")?.as_u64("cancel-ack.job")?,
                found: value.field("found")?.as_bool("cancel-ack.found")?,
            }),
            "shard-done" => Ok(Frame::ShardDone(ShardDone::from_wire(value)?)),
            "partial" => Ok(Frame::Partial(Partial::from_wire(value)?)),
            "job-done" => Ok(Frame::JobDone(JobDone::from_wire(value)?)),
            "error" => Ok(Frame::Error(ErrorFrame::from_wire(value)?)),
            "hello" => {
                Ok(Frame::Hello { token: value.field("token")?.as_str("hello.token")?.to_owned() })
            }
            "register" => Ok(Frame::Register),
            "registered" => Ok(Frame::Registered {
                worker: value.field("worker")?.as_u64("registered.worker")?,
                lease_ttl_ms: value.field("lease_ttl_ms")?.as_u64("registered.lease_ttl_ms")?,
                heartbeat_ms: value.field("heartbeat_ms")?.as_u64("registered.heartbeat_ms")?,
            }),
            "heartbeat" => {
                Ok(Frame::Heartbeat { worker: value.field("worker")?.as_u64("heartbeat.worker")? })
            }
            "lease" => Ok(Frame::Lease(LeaseGrant::from_wire(value)?)),
            "lease-done" => Ok(Frame::LeaseDone(LeaseDone::from_wire(value)?)),
            "lease-revoke" => Ok(Frame::LeaseRevoke {
                lease: value.field("lease")?.as_u64("lease-revoke.lease")?,
                generation: value.field("generation")?.as_u64("lease-revoke.generation")?,
            }),
            "lease-failed" => Ok(Frame::LeaseFailed(LeaseFailed::from_wire(value)?)),
            "stats" => Ok(Frame::Stats),
            "stats-result" => Ok(Frame::StatsResult(MetricsSnapshot::from_wire(value)?)),
            other => Err(WireError::new(format!("unknown frame type {other:?}"))),
        }
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
        ] {
            assert!(Value::parse(bad).is_err(), "accepted malformed input {bad:?}");
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
