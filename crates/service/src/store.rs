//! The one backend of the shard-accumulator cache.
//!
//! Every daemon caches through exactly one [`DurableStore`]: memory-only
//! by default ([`DurableStore::in_memory`]), persisted under `--cache-dir`
//! ([`DurableStore::open`]).  [`ShardCache`](crate::cache::ShardCache) is
//! the typed front over it.  The store provides:
//!
//! * **byte-budgeted LRU eviction** — the store never holds more than its
//!   budget of serialized entries, evicting least-recently-used shards
//!   first (a replay bumps recency); accounting is exposed through
//!   [`StoreAccounting`] and the daemon's stats line;
//! * **an append-log + periodic snapshot** on disk — every insert is one
//!   CRC-framed line appended to `cache.log`; when the log outgrows the
//!   live set it is compacted into `cache.snap` (written to a temp file
//!   and atomically renamed).  Restarts replay snapshot + log;
//! * **fault tolerance** — a torn or corrupted line (a crashed daemon
//!   mid-append, bitrot) invalidates **from that line on**: the valid
//!   prefix loads, the damaged tail is dropped and scrubbed by an
//!   immediate compaction, and nothing ever panics.  Entries whose key
//!   embeds a stale `code_version` are dropped at load — the
//!   `docs/ARCHITECTURE.md` invalidation rule extended across restarts.
//!
//! Keys are opaque canonical strings (rendered JSON of
//! [`ShardKey`](crate::fingerprint::ShardKey), see
//! [`ShardKey::canonical_string`](crate::fingerprint::ShardKey::canonical_string));
//! payloads are rendered wire [`Value`]s.  The store itself never
//! interprets an accumulator — decoding (and the final say on replay)
//! stays in the typed [`ShardCache`](crate::cache::ShardCache) above it.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use telemetry::Histogram;

use crate::wire::Value;
use crate::ServiceError;

/// One serialized shard entry: the shard's scenario range and the rendered
/// wire value of its accumulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredEntry {
    /// First scenario index covered by the accumulator.
    pub start: usize,
    /// Past-the-end scenario index.
    pub end: usize,
    /// The accumulator, rendered as one wire [`Value`] JSON string.
    pub payload: String,
}

/// A point-in-time accounting snapshot of a [`DurableStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreAccounting {
    /// Live entries.
    pub entries: usize,
    /// Serialized bytes of the live entries (key + payload + framing).
    pub bytes: u64,
    /// The byte budget, if bounded.
    pub budget: Option<u64>,
    /// Entries evicted over the store's lifetime (including load-time
    /// evictions when a restart replays more than the budget holds).
    pub evictions: u64,
    /// Entries replayed from disk at open.
    pub loaded: usize,
    /// Damaged log/snapshot lines dropped at open (torn tail, CRC
    /// mismatch).
    pub dropped_damaged: usize,
    /// Entries dropped at open because their key embeds a different code
    /// version.
    pub dropped_stale: usize,
}

impl fmt::Display for StoreAccounting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} entries, {} B", self.entries, self.bytes)?;
        match self.budget {
            Some(budget) => write!(f, " / {budget} B budget")?,
            None => write!(f, " (unbounded)")?,
        }
        write!(f, ", {} evicted", self.evictions)
    }
}

// ---------------------------------------------------------------------------
// CRC framing.
// ---------------------------------------------------------------------------

/// The IEEE CRC-32 table, generated at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of `bytes` — the per-line integrity check of the log and
/// snapshot files.  A flipped byte that still parses as JSON (a digit, a
/// flag) would otherwise replay a *wrong* accumulator bit-identically to a
/// right one; the checksum turns silent corruption into a dropped line.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in bytes {
        crc = CRC_TABLE[((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Frames one line body as `<crc32 hex> <body>\n`.
fn frame_line(body: &str) -> String {
    format!("{:08x} {body}\n", crc32(body.as_bytes()))
}

/// Unframes one line: splits off and verifies the CRC prefix, returning
/// the body.  `None` means the line is damaged (torn, corrupted, or not
/// ours at all).
fn unframe_line(line: &str) -> Option<&str> {
    let line = line.strip_suffix('\n').unwrap_or(line);
    let (crc_text, body) = line.split_once(' ')?;
    if crc_text.len() != 8 {
        return None;
    }
    let expected = u32::from_str_radix(crc_text, 16).ok()?;
    (crc32(body.as_bytes()) == expected).then_some(body)
}

// ---------------------------------------------------------------------------
// The line grammar.
// ---------------------------------------------------------------------------

/// First line of both files: the format version, so a future layout change
/// can refuse (rather than misread) old files.
const FORMAT_VERSION: i128 = 1;

fn header_body() -> String {
    Value::Object(vec![("format".into(), Value::Int(FORMAT_VERSION))]).render()
}

/// Renders one entry as a line body.  The key string is itself rendered
/// JSON, so it is embedded *raw* (not re-escaped); parsing the body and
/// re-rendering the `key`/`payload` fields reproduces both strings exactly
/// (the wire `Value` model round-trips byte-identically).
fn entry_body(key: &str, entry: &StoredEntry) -> String {
    format!(
        "{{\"key\":{key},\"start\":{},\"end\":{},\"payload\":{}}}",
        entry.start, entry.end, entry.payload
    )
}

/// Parses one entry body back into `(key, entry)`.  `None` means the body
/// is not a well-formed entry (treated exactly like a CRC failure).
fn parse_entry_body(body: &str) -> Option<(String, StoredEntry)> {
    let value = Value::parse(body).ok()?;
    let key = value.get("key")?;
    if !matches!(key, Value::Object(_)) {
        return None;
    }
    let start = match value.get("start")? {
        Value::Int(i) => usize::try_from(*i).ok()?,
        _ => return None,
    };
    let end = match value.get("end")? {
        Value::Int(i) => usize::try_from(*i).ok()?,
        _ => return None,
    };
    let payload = value.get("payload")?;
    Some((key.render(), StoredEntry { start, end, payload: payload.render() }))
}

/// Reads the `code_version` field out of a canonical key string.
fn key_code_version(key: &str) -> Option<String> {
    match Value::parse(key).ok()?.get("code_version")? {
        Value::Str(version) => Some(version.clone()),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------------

/// Approximate framing overhead per entry (ranges, CRC, field names) added
/// to `key.len() + payload.len()` for budget accounting — close to the
/// on-disk line size without re-rendering on every bookkeeping step.
const ENTRY_OVERHEAD: u64 = 64;

/// Compaction trigger: the log is rewritten into the snapshot once it
/// holds more than this many bytes *and* more than twice the live set
/// (overwrites and evictions make log bytes dead).
const COMPACT_MIN_LOG_BYTES: u64 = 64 * 1024;

#[derive(Debug)]
struct Entry {
    stored: StoredEntry,
    bytes: u64,
    recency: u64,
}

#[derive(Debug)]
struct DiskBacking {
    dir: PathBuf,
    log: BufWriter<File>,
    log_bytes: u64,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<String, Entry>,
    /// recency sequence → key; the leftmost entry is the eviction victim.
    by_recency: BTreeMap<u64, String>,
    next_recency: u64,
    bytes: u64,
    evictions: u64,
    loaded: usize,
    dropped_damaged: usize,
    dropped_stale: usize,
    disk: Option<DiskBacking>,
}

/// The shard-accumulator store: a byte-budgeted LRU map, optionally
/// persisted as an append-log + snapshot pair under a cache directory.
///
/// All methods take `&self` and are thread-safe — one store instance is
/// shared by every connection and pool worker of the daemon.  See the
/// module docs for the disk layout and recovery rules.
#[derive(Debug)]
pub struct DurableStore {
    inner: Mutex<Inner>,
    budget: Option<u64>,
    /// Per-insert latency (memory bookkeeping + log append + eviction).
    append_us: Histogram,
    /// Per-compaction latency (snapshot rewrite + log truncation).
    compact_us: Histogram,
    /// Wall time of the open-time snapshot/log replay, microseconds.
    recovery_us: AtomicU64,
}

impl DurableStore {
    /// Creates a memory-only store with an optional byte budget — the
    /// daemon's store without `--cache-dir` (bounded by `--cache-budget`
    /// when one is given).
    pub fn in_memory(budget: Option<u64>) -> Self {
        DurableStore {
            inner: Mutex::new(Inner::default()),
            budget,
            append_us: Histogram::new(),
            compact_us: Histogram::new(),
            recovery_us: AtomicU64::new(0),
        }
    }

    /// Opens (or creates) a persisted store under `dir`, replaying
    /// `cache.snap` then `cache.log`.
    ///
    /// Damaged lines drop the remainder of their file (torn tails from a
    /// killed daemon, bitrot); entries whose key embeds a code version
    /// other than `current_version` are dropped as stale.  If anything was
    /// dropped, the files are immediately compacted so the damage cannot
    /// resurface.  Entries beyond the byte budget are evicted
    /// oldest-first while loading.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (unreadable directory, permissions);
    /// damaged *content* is recovered, never an error and never a panic.
    pub fn open(
        dir: impl Into<PathBuf>,
        budget: Option<u64>,
        current_version: &str,
    ) -> Result<Self, ServiceError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| ServiceError::io(format!("creating cache dir {}", dir.display()), e))?;
        let recovery_start = Instant::now();
        let mut inner = Inner::default();
        let mut needs_scrub = false;
        for file in [dir.join("cache.snap"), dir.join("cache.log")] {
            needs_scrub |= load_file(&file, &mut inner, current_version, budget)?;
        }
        inner.loaded = inner.entries.len();
        let recovery_us = recovery_start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let log_path = dir.join("cache.log");
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
            .map_err(|e| ServiceError::io(format!("opening {}", log_path.display()), e))?;
        let mut log_bytes = log.metadata().map(|m| m.len()).unwrap_or(0);
        let mut log = BufWriter::new(log);
        if log_bytes == 0 {
            // A fresh (or just-truncated) log starts with the header line;
            // a failed write only degrades durability of later appends.
            let line = frame_line(&header_body());
            if log.write_all(line.as_bytes()).and_then(|()| log.flush()).is_ok() {
                log_bytes = line.len() as u64;
            }
        }
        inner.disk = Some(DiskBacking { dir, log, log_bytes });
        let store = DurableStore {
            inner: Mutex::new(inner),
            budget,
            append_us: Histogram::new(),
            compact_us: Histogram::new(),
            recovery_us: AtomicU64::new(recovery_us),
        };
        if needs_scrub {
            let mut inner = store.inner.lock().expect("cache store lock");
            // Best-effort: scrub failures leave the damage on disk, where
            // the next open will recover it again.
            let _ = compact(&mut inner);
        }
        Ok(store)
    }

    /// Looks up an entry by its canonical key string, bumping its recency.
    pub fn load(&self, key: &str) -> Option<StoredEntry> {
        let mut inner = self.inner.lock().expect("cache store lock");
        let entry = inner.entries.get(key)?;
        let (stored, old_recency) = (entry.stored.clone(), entry.recency);
        // Bump recency: a replayed shard is warm again.
        let recency = inner.next_recency;
        inner.next_recency += 1;
        inner.by_recency.remove(&old_recency);
        inner.by_recency.insert(recency, key.to_owned());
        inner.entries.get_mut(key).expect("entry present").recency = recency;
        Some(stored)
    }

    /// Inserts (or overwrites) an entry, then evicts least-recently-used
    /// entries until the store is back within its byte budget.
    pub fn store(&self, key: &str, entry: StoredEntry) {
        let mut inner = self.inner.lock().expect("cache store lock");
        let append_start = Instant::now();
        insert_entry(&mut inner, self.budget, key.to_owned(), entry, true);
        self.append_us.observe(append_start.elapsed());
        let should_compact = inner
            .disk
            .as_ref()
            .is_some_and(|d| d.log_bytes > COMPACT_MIN_LOG_BYTES && d.log_bytes > 2 * inner.bytes);
        if should_compact {
            let compact_start = Instant::now();
            let _ = compact(&mut inner);
            self.compact_us.observe(compact_start.elapsed());
        }
    }

    /// Returns the current accounting snapshot.
    pub fn accounting(&self) -> StoreAccounting {
        let inner = self.inner.lock().expect("cache store lock");
        StoreAccounting {
            entries: inner.entries.len(),
            bytes: inner.bytes,
            budget: self.budget,
            evictions: inner.evictions,
            loaded: inner.loaded,
            dropped_damaged: inner.dropped_damaged,
            dropped_stale: inner.dropped_stale,
        }
    }

    /// Per-insert latency histogram (memory bookkeeping + log append +
    /// eviction), for the daemon's metrics snapshot.
    pub fn append_timings(&self) -> &Histogram {
        &self.append_us
    }

    /// Per-compaction latency histogram (snapshot rewrite + log
    /// truncation), for the daemon's metrics snapshot.
    pub fn compact_timings(&self) -> &Histogram {
        &self.compact_us
    }

    /// Wall time of the open-time snapshot/log replay, in microseconds
    /// (zero for an in-memory store).
    pub fn recovery_us(&self) -> u64 {
        self.recovery_us.load(Ordering::Relaxed)
    }
}

fn entry_bytes(key: &str, entry: &StoredEntry) -> u64 {
    key.len() as u64 + entry.payload.len() as u64 + ENTRY_OVERHEAD
}

/// Replays one snapshot/log file into `inner`.  Returns whether anything
/// was dropped (damage or staleness) and the file should be scrubbed.
fn load_file(
    path: &Path,
    inner: &mut Inner,
    current_version: &str,
    budget: Option<u64>,
) -> Result<bool, ServiceError> {
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(ServiceError::io(format!("opening {}", path.display()), e)),
    };
    let mut reader = BufReader::new(file);
    let mut line = String::new();
    let mut first = true;
    let mut dropped = false;
    loop {
        line.clear();
        let read = match reader.read_line(&mut line) {
            Ok(read) => read,
            Err(_) => {
                // Unreadable bytes (not valid UTF-8, I/O error mid-file):
                // the tail from here on is damage.
                inner.dropped_damaged += 1;
                return Ok(true);
            }
        };
        if read == 0 {
            return Ok(dropped);
        }
        let Some(body) = unframe_line(&line) else {
            inner.dropped_damaged += 1;
            return Ok(true);
        };
        if first {
            first = false;
            if body == header_body() {
                continue;
            }
            // A foreign or future-format header: drop the whole file.
            inner.dropped_damaged += 1;
            return Ok(true);
        }
        let Some((key, stored)) = parse_entry_body(body) else {
            inner.dropped_damaged += 1;
            return Ok(true);
        };
        if key_code_version(&key).as_deref() != Some(current_version) {
            inner.dropped_stale += 1;
            dropped = true;
            continue;
        }
        insert_entry(inner, budget, key, stored, false);
    }
}

/// Inserts `stored` under `key`, bumps recency, enforces the budget, and
/// (when `append` is set) writes the log line.
fn insert_entry(
    inner: &mut Inner,
    budget: Option<u64>,
    key: String,
    stored: StoredEntry,
    append: bool,
) {
    if append {
        if let Some(disk) = inner.disk.as_mut() {
            let line = frame_line(&entry_body(&key, &stored));
            // A failed append degrades durability, not correctness: the
            // in-memory entry stays valid for this process's lifetime.
            if disk.log.write_all(line.as_bytes()).and_then(|()| disk.log.flush()).is_ok() {
                disk.log_bytes += line.len() as u64;
            }
        }
    }
    let bytes = entry_bytes(&key, &stored);
    let recency = inner.next_recency;
    inner.next_recency += 1;
    if let Some(old) = inner.entries.remove(&key) {
        inner.bytes -= old.bytes;
        inner.by_recency.remove(&old.recency);
    }
    inner.bytes += bytes;
    inner.by_recency.insert(recency, key.clone());
    inner.entries.insert(key, Entry { stored, bytes, recency });
    if let Some(budget) = budget {
        while inner.bytes > budget {
            let Some((&victim_recency, _)) = inner.by_recency.iter().next() else { break };
            let victim_key = inner.by_recency.remove(&victim_recency).expect("victim key");
            let victim = inner.entries.remove(&victim_key).expect("victim entry");
            inner.bytes -= victim.bytes;
            inner.evictions += 1;
        }
    }
}

/// Rewrites the snapshot from the live set (recency order, oldest first,
/// so a reload reproduces today's LRU order) and truncates the log.
fn compact(inner: &mut Inner) -> std::io::Result<()> {
    let Some(disk) = inner.disk.as_mut() else { return Ok(()) };
    let snap_path = disk.dir.join("cache.snap");
    let tmp_path = disk.dir.join("cache.snap.tmp");
    {
        let mut tmp = BufWriter::new(File::create(&tmp_path)?);
        tmp.write_all(frame_line(&header_body()).as_bytes())?;
        for key in inner.by_recency.values() {
            let entry = &inner.entries[key];
            tmp.write_all(frame_line(&entry_body(key, &entry.stored)).as_bytes())?;
        }
        let tmp = tmp.into_inner().map_err(|e| e.into_error())?;
        tmp.sync_all()?;
    }
    std::fs::rename(&tmp_path, &snap_path)?;
    let log_path = disk.dir.join("cache.log");
    let log = OpenOptions::new().create(true).write(true).truncate(true).open(&log_path)?;
    let mut log = BufWriter::new(log);
    let header = frame_line(&header_body());
    log.write_all(header.as_bytes())?;
    log.flush()?;
    disk.log = log;
    disk.log_bytes = header.len() as u64;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::{code_version, JobFingerprint};

    fn key(shard: usize) -> String {
        JobFingerprint {
            query: "thm1".into(),
            model: "crash".into(),
            scope: "n=3,t=1,k=1".into(),
            protocols: "optmin".into(),
            seed: 0,
            shards: 8,
            code_version: code_version(),
        }
        .shard(shard)
        .canonical_string()
    }

    fn entry(shard: usize, payload: &str) -> StoredEntry {
        StoredEntry { start: shard * 10, end: shard * 10 + 10, payload: payload.into() }
    }

    #[test]
    fn crc_framing_round_trips_and_rejects_damage() {
        let body = entry_body(&key(0), &entry(0, "{\"violations\":3}"));
        let line = frame_line(&body);
        assert_eq!(unframe_line(&line), Some(body.as_str()));
        let mut corrupted = line.clone();
        // Flip one payload digit — still valid JSON, caught only by CRC.
        corrupted = corrupted.replace(":3}", ":4}");
        assert_ne!(corrupted, line);
        assert_eq!(unframe_line(&corrupted), None);
        assert_eq!(unframe_line("not a framed line"), None);
        assert_eq!(unframe_line(""), None);
    }

    #[test]
    fn entry_bodies_round_trip_key_and_payload_exactly() {
        let payload = "{\"per_f\":[[1,2,3]],\"violations\":0}";
        let body = entry_body(&key(3), &entry(3, payload));
        let (parsed_key, parsed) = parse_entry_body(&body).expect("well-formed body");
        assert_eq!(parsed_key, key(3));
        assert_eq!(parsed, entry(3, payload));
    }

    #[test]
    fn in_memory_store_replays_and_bumps_recency() {
        let store = DurableStore::in_memory(None);
        assert_eq!(store.load(&key(0)), None);
        store.store(&key(0), entry(0, "{}"));
        assert_eq!(store.load(&key(0)), Some(entry(0, "{}")));
        let accounting = store.accounting();
        assert_eq!(accounting.entries, 1);
        assert!(accounting.bytes > 0);
        assert_eq!(accounting.evictions, 0);
    }

    #[test]
    fn budget_evicts_least_recently_used_first() {
        let one = entry_bytes(&key(0), &entry(0, "{\"v\":1}"));
        // Room for two entries, not three.
        let store = DurableStore::in_memory(Some(2 * one + one / 2));
        store.store(&key(0), entry(0, "{\"v\":1}"));
        store.store(&key(1), entry(1, "{\"v\":1}"));
        // Touch shard 0 so shard 1 is now the LRU victim.
        assert!(store.load(&key(0)).is_some());
        store.store(&key(2), entry(2, "{\"v\":1}"));
        assert!(store.load(&key(0)).is_some(), "recently used entry must survive");
        assert_eq!(store.load(&key(1)), None, "LRU entry must be evicted");
        assert!(store.load(&key(2)).is_some());
        let accounting = store.accounting();
        assert_eq!(accounting.evictions, 1);
        assert!(accounting.bytes <= accounting.budget.unwrap());
    }

    #[test]
    fn disk_store_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("sweep-store-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = DurableStore::open(&dir, None, &code_version()).expect("open");
            store.store(&key(0), entry(0, "{\"violations\":7}"));
            store.store(&key(1), entry(1, "{\"violations\":9}"));
        }
        let reopened = DurableStore::open(&dir, None, &code_version()).expect("reopen");
        assert_eq!(reopened.load(&key(0)), Some(entry(0, "{\"violations\":7}")));
        assert_eq!(reopened.load(&key(1)), Some(entry(1, "{\"violations\":9}")));
        assert_eq!(reopened.accounting().loaded, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_code_versions_are_dropped_at_open() {
        let dir = std::env::temp_dir().join(format!("sweep-store-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = DurableStore::open(&dir, None, &code_version()).expect("open");
            store.store(&key(0), entry(0, "{}"));
        }
        let reopened = DurableStore::open(&dir, None, "0.0.0+fold.v0").expect("reopen");
        assert_eq!(reopened.load(&key(0)), None);
        let accounting = reopened.accounting();
        assert_eq!((accounting.loaded, accounting.dropped_stale), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
