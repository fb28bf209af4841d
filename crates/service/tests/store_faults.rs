//! Fault-injection tests for the durable cache store: every strict prefix
//! of the append-log (a daemon killed mid-append) and random byte
//! corruption (bitrot) must load with the damaged tail dropped — or refuse
//! cleanly — and never panic; the byte-budgeted LRU eviction must agree
//! with a reference model and never exceed its budget; and an evicted,
//! recomputed shard must replay bit-identically.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service::cache::ShardCache;
use service::fingerprint::{code_version, JobFingerprint};
use service::{DurableStore, StoredEntry};
use sweep::experiments::Thm1Outcome;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh private directory; the caller removes it when done.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sweep-store-faults-{tag}-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fingerprint(shards: usize) -> JobFingerprint {
    JobFingerprint {
        query: "thm1".into(),
        model: "crash".into(),
        scope: "n=3,t=1,k=1,maxv=1,mcr=2,pd=true".into(),
        protocols: "optmin,earlyfloodmin,floodmin".into(),
        seed: 0,
        shards,
        code_version: code_version(),
    }
}

fn key(shard: usize) -> String {
    fingerprint(8).shard(shard).canonical_string()
}

fn entry(shard: usize) -> StoredEntry {
    StoredEntry {
        start: shard * 25,
        end: shard * 25 + 25,
        payload: format!("{{\"violations\":{shard},\"beaten\":[true,false],\"structure\":0}}"),
    }
}

/// Builds a store with `count` entries on disk and returns the raw bytes
/// of its append-log.
fn populated_log(dir: &PathBuf, count: usize) -> Vec<u8> {
    {
        let store = DurableStore::open(dir, None, &code_version()).expect("open");
        for shard in 0..count {
            store.store(&key(shard), entry(shard));
        }
    }
    std::fs::read(dir.join("cache.log")).expect("log bytes")
}

/// Every strict prefix of the log (every possible torn tail a SIGKILL can
/// leave) loads without panicking; exactly the fully framed entry lines
/// load, with their exact original contents, and the accounting matches.
#[test]
fn every_strict_prefix_of_the_log_recovers_the_intact_lines() {
    let source_dir = temp_dir("prefix-src");
    let log = populated_log(&source_dir, 4);
    std::fs::remove_dir_all(&source_dir).expect("cleanup source");

    let dir = temp_dir("prefix");
    for cut in 0..log.len() {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create prefix dir");
        std::fs::write(dir.join("cache.log"), &log[..cut]).expect("write prefix");
        let store = DurableStore::open(&dir, None, &code_version())
            .unwrap_or_else(|e| panic!("open must recover a torn log (cut {cut}): {e}"));
        let mut live = 0;
        for shard in 0..4 {
            if let Some(loaded) = store.load(&key(shard)) {
                assert_eq!(loaded, entry(shard), "cut {cut}: a loaded entry must be exact");
                live += 1;
            }
        }
        // Complete lines in the prefix, minus the header line, are exactly
        // the replayable entries (distinct keys, so no overwrites).  A cut
        // that removes only a line's trailing newline leaves the body —
        // and its CRC — intact, so that line still loads.
        let complete_lines =
            log[..cut].iter().filter(|&&b| b == b'\n').count() + usize::from(log[cut] == b'\n');
        assert_eq!(live, complete_lines.saturating_sub(1), "cut {cut}: wrong live count");
        assert_eq!(store.accounting().entries, live, "cut {cut}: accounting disagrees");

        // A damaged open scrubs the files: reopening the same directory
        // reports no damage and the same live set.
        drop(store);
        let scrubbed = DurableStore::open(&dir, None, &code_version()).expect("reopen scrubbed");
        let accounting = scrubbed.accounting();
        assert_eq!(accounting.dropped_damaged, 0, "cut {cut}: damage must be scrubbed");
        assert_eq!(accounting.entries, live, "cut {cut}: scrub must not lose entries");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Random byte corruption anywhere in the log never panics the open, and
/// whatever still loads is byte-exact: the CRC framing turns silent
/// corruption into dropped lines, never into wrong replays.
#[test]
fn random_byte_corruption_never_panics_and_never_replays_wrong_bytes() {
    let source_dir = temp_dir("corrupt-src");
    let log = populated_log(&source_dir, 4);
    std::fs::remove_dir_all(&source_dir).expect("cleanup source");

    let mut rng = StdRng::seed_from_u64(0xBAD5EED);
    let dir = temp_dir("corrupt");
    for trial in 0..250 {
        let mut corrupted = log.clone();
        for _ in 0..rng.random_range(1..4u64) {
            let index = rng.random_range(0..corrupted.len() as u64) as usize;
            corrupted[index] ^= rng.random_range(1..256u64) as u8;
        }
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create corrupt dir");
        std::fs::write(dir.join("cache.log"), &corrupted).expect("write corrupted");
        let store = DurableStore::open(&dir, None, &code_version())
            .unwrap_or_else(|e| panic!("trial {trial}: open must survive corruption: {e}"));
        for shard in 0..4 {
            if let Some(loaded) = store.load(&key(shard)) {
                assert_eq!(
                    loaded,
                    entry(shard),
                    "trial {trial}: corruption must never alter a replayed entry"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A persisted store written under one code version refuses to replay
/// under another: the entries are dropped as stale at open, not served.
#[test]
fn persisted_entries_from_another_code_version_refuse_to_replay() {
    let dir = temp_dir("stale");
    {
        let store = DurableStore::open(&dir, None, &code_version()).expect("open");
        for shard in 0..3 {
            store.store(&key(shard), entry(shard));
        }
    }
    let future = DurableStore::open(&dir, None, "9.9.9+fold.v999").expect("reopen as future");
    let accounting = future.accounting();
    assert_eq!(accounting.entries, 0, "no stale entry may replay");
    assert_eq!(accounting.dropped_stale, 3);
    for shard in 0..3 {
        assert_eq!(future.load(&key(shard)), None);
    }
    // The scrub rewrote the files: the stale entries are gone for good,
    // and reopening under the *original* version finds an empty store
    // rather than resurrected stale data.
    drop(future);
    let back = DurableStore::open(&dir, None, &code_version()).expect("reopen as original");
    assert_eq!(back.accounting().entries, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cross-model cache isolation (satellite acceptance): crash and omission
/// fingerprints over the same `(n, t, k)` shape produce distinct shard
/// keys at every index, and a shard cache populated by one model's job
/// replays nothing into the other model's lookups, while the first
/// model's entries stay replayable.
#[test]
fn crash_and_omission_caches_never_collide_on_the_same_scope() {
    let crash = fingerprint(8);
    let omission = JobFingerprint {
        query: "omission".into(),
        model: "omission".into(),
        scope: "n=3,t=1,k=1,maxv=1,rounds=2".into(),
        ..crash.clone()
    };
    // Even with identical query and scope strings (a hypothetical future
    // scope-string collision), the model field alone keeps keys disjoint.
    let twin = JobFingerprint { model: "omission".into(), ..crash.clone() };
    for shard in 0..8 {
        assert_ne!(crash.shard(shard).canonical_string(), omission.shard(shard).canonical_string());
        assert_ne!(crash.shard(shard), twin.shard(shard));
        assert_ne!(crash.shard(shard).canonical_string(), twin.shard(shard).canonical_string());
    }

    // A cache written under the crash model: omission lookups only miss.
    let cache = ShardCache::new(DurableStore::in_memory(None));
    let acc = Thm1Outcome { violations: 3, beaten: [false, true], structure: 1 };
    for shard in 0..8 {
        cache.insert(&crash.shard(shard), (shard * 25, shard * 25 + 25), &acc);
    }
    for shard in 0..8 {
        assert_eq!(cache.get::<Thm1Outcome>(&omission.shard(shard)), None, "cross-model replay");
        assert_eq!(cache.get::<Thm1Outcome>(&twin.shard(shard)), None, "model field ignored");
    }
    // The crash entries themselves stay replayable through the shared
    // store — isolation, not destruction.
    for shard in 0..8 {
        assert_eq!(cache.get(&crash.shard(shard)), Some((acc, (shard * 25, shard * 25 + 25))));
    }
}

/// Reference LRU model for the eviction property test: a recency-ordered
/// list (front = victim) plus a byte total, using the store's own
/// per-entry byte measure (derived empirically below).
struct LruModel {
    overhead: u64,
    budget: u64,
    entries: Vec<(String, StoredEntry, u64)>,
    bytes: u64,
    evictions: u64,
}

impl LruModel {
    fn entry_bytes(&self, key: &str, entry: &StoredEntry) -> u64 {
        key.len() as u64 + entry.payload.len() as u64 + self.overhead
    }

    fn store(&mut self, key: &str, entry: StoredEntry) {
        if let Some(index) = self.entries.iter().position(|(k, _, _)| k == key) {
            let (_, _, bytes) = self.entries.remove(index);
            self.bytes -= bytes;
        }
        let bytes = self.entry_bytes(key, &entry);
        self.entries.push((key.to_owned(), entry, bytes));
        self.bytes += bytes;
        while self.bytes > self.budget {
            let (_, _, bytes) = self.entries.remove(0);
            self.bytes -= bytes;
            self.evictions += 1;
        }
    }

    fn load(&mut self, key: &str) -> Option<StoredEntry> {
        let index = self.entries.iter().position(|(k, _, _)| k == key)?;
        let entry = self.entries.remove(index);
        let stored = entry.1.clone();
        self.entries.push(entry);
        Some(stored)
    }
}

/// The byte-budgeted store never exceeds its budget, and its live set,
/// eviction count and per-key contents track a reference LRU model over a
/// random operation sequence.
#[test]
fn eviction_matches_a_reference_lru_model_and_never_exceeds_the_budget() {
    // Derive the store's per-entry overhead empirically so the model uses
    // the same byte measure without depending on a private constant.
    let probe = DurableStore::in_memory(None);
    probe.store(&key(0), entry(0));
    let overhead = probe.accounting().bytes - key(0).len() as u64 - entry(0).payload.len() as u64;

    let mut rng = StdRng::seed_from_u64(0x11C4);
    let keys: Vec<String> = (0..16).map(key).collect();
    let budget = 6 * (keys[0].len() as u64 + 40 + overhead);
    let store = DurableStore::in_memory(Some(budget));
    let mut model = LruModel { overhead, budget, entries: Vec::new(), bytes: 0, evictions: 0 };

    for step in 0..2000 {
        let k = &keys[rng.random_range(0..keys.len() as u64) as usize];
        if rng.random_bool(0.6) {
            let payload = format!("{{\"v\":{}}}", "9".repeat(rng.random_range(1..60u64) as usize));
            let stored = StoredEntry { start: 0, end: 25, payload };
            store.store(k, stored.clone());
            model.store(k, stored);
        } else {
            assert_eq!(store.load(k), model.load(k), "step {step}: load disagrees with model");
        }
        let accounting = store.accounting();
        assert!(
            accounting.bytes <= budget,
            "step {step}: {} B exceeds the {budget} B budget",
            accounting.bytes
        );
        assert_eq!(accounting.bytes, model.bytes, "step {step}: byte accounting diverged");
        assert_eq!(accounting.entries, model.entries.len(), "step {step}: live set diverged");
        assert_eq!(accounting.evictions, model.evictions, "step {step}: evictions diverged");
    }
    // Final deep check: every model entry is present and exact.
    let survivors: Vec<(String, StoredEntry)> =
        model.entries.iter().map(|(k, stored, _)| (k.clone(), stored.clone())).collect();
    for (k, stored) in survivors {
        assert_eq!(store.load(&k), Some(stored));
    }
}

/// An evicted shard that is recomputed and re-inserted replays
/// bit-identically — through the full typed `ShardCache` path, so the
/// wire encoding round-trip is part of the property.
#[test]
fn evicted_then_recomputed_shards_replay_bit_identically() {
    let acc = Thm1Outcome { violations: 7, beaten: [true, false], structure: 2 };
    let shard_key = |s: usize| fingerprint(8).shard(s);

    // A budget that holds two entries, not three.
    let probe = DurableStore::in_memory(None);
    probe.store(&key(0), StoredEntry { start: 0, end: 25, payload: String::new() });
    let one = probe.accounting().bytes + 60; // payload ≈ rendered Thm1Outcome
    let cache = ShardCache::new(DurableStore::in_memory(Some(2 * one + one / 2)));
    let store = cache.store();

    cache.insert(&shard_key(0), (0, 25), &acc);
    let first_payload =
        store.load(&shard_key(0).canonical_string()).expect("present before eviction").payload;

    // Fill past the budget so shard 0 (least recently used) is evicted.
    cache.insert(&shard_key(1), (25, 50), &acc);
    cache.insert(&shard_key(2), (50, 75), &acc);
    assert_eq!(cache.get::<Thm1Outcome>(&shard_key(0)), None, "LRU shard must have been evicted");
    assert!(store.accounting().evictions >= 1);

    // "Recompute" the shard (the accumulator is a pure fold, so it is the
    // same value) and re-insert: the replay is bit-identical, payload and
    // range included.
    cache.insert(&shard_key(0), (0, 25), &acc);
    assert_eq!(cache.get(&shard_key(0)), Some((acc, (0, 25))));
    let second_payload =
        store.load(&shard_key(0).canonical_string()).expect("present after re-insert").payload;
    assert_eq!(first_payload, second_payload, "recomputed payload must be byte-identical");
}
