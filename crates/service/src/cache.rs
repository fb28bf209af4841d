//! The incremental shard-accumulator cache.
//!
//! Every sweep fold is shard- and thread-invariant — bit-identical at any
//! shard and thread count — which is exactly the property that makes a
//! *completed per-shard reducer accumulator* reusable across
//! requests: a repeated (or overlapping, as long as the shard partition
//! matches) query replays the cached accumulators and only executes the
//! cold shards.  This module is the typed front over the daemon's one
//! [`DurableStore`]: `server` decides what to look up and insert, and
//! checks every replayed range against the partition it just computed
//! before the accumulator reaches the merge.
//!
//! Every lookup and insert round-trips through the store's
//! canonical-string keys and rendered wire payloads, so the byte
//! accounting, eviction and (with `--cache-dir`) persistence have a single
//! authority.  Entries carry the shard's scenario range, so a forged or
//! corrupted range surfaces as a typed merge error downstream instead of a
//! silently wrong fold.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::fingerprint::{code_version, ShardKey};
use crate::store::{DurableStore, StoredEntry};
use crate::wire::{FromWire, ToWire, Value};

/// The daemon's shard cache: a [`DurableStore`] plus lifetime hit/miss
/// counters per fingerprint query name.
///
/// One instance lives for the whole daemon process, so every connection,
/// job and query shares it (the keys embed the query name, so one
/// keyspace holds every accumulator type).
#[derive(Debug)]
pub struct ShardCache {
    store: DurableStore,
    /// `[hits, misses]` per fingerprint query name.
    lookups: Mutex<HashMap<String, [u64; 2]>>,
}

impl ShardCache {
    /// Creates a cache over `store`.
    pub fn new(store: DurableStore) -> Self {
        ShardCache { store, lookups: Mutex::new(HashMap::new()) }
    }

    /// The store behind the cache, for accounting and timings.
    pub fn store(&self) -> &DurableStore {
        &self.store
    }

    /// Looks up the accumulator and stored scenario range of a shard,
    /// counting the hit or miss under the key's query name.
    ///
    /// Keys whose embedded code version differs from this process's
    /// [`code_version`] are refused outright (counted as misses) — the
    /// cache-invalidation rule, which keeps the persisted store from
    /// replaying accumulators across fold-semantics changes.  An entry
    /// whose payload fails to decode as an `A` is likewise refused as a
    /// miss — damage degrades to recomputation, never to a panic.
    pub fn get<A: FromWire>(&self, key: &ShardKey) -> Option<(A, (usize, usize))> {
        let entry = (key.job.code_version == code_version())
            .then(|| self.store.load(&key.canonical_string()))
            .flatten()
            .and_then(|entry| {
                let value = Value::parse(&entry.payload).ok()?;
                Some((A::from_wire(&value).ok()?, (entry.start, entry.end)))
            });
        let mut lookups = self.lookups.lock().expect("shard cache lock");
        lookups.entry(key.job.query.clone()).or_default()[usize::from(entry.is_none())] += 1;
        entry
    }

    /// Stores the accumulator of a completed shard together with the
    /// scenario range it covers.
    pub fn insert<A: ToWire>(&self, key: &ShardKey, range: (usize, usize), acc: &A) {
        self.store.store(
            &key.canonical_string(),
            StoredEntry { start: range.0, end: range.1, payload: acc.to_wire().render() },
        );
    }

    /// Lifetime lookup hits of `query`'s shards.
    pub fn hits(&self, query: &str) -> u64 {
        self.count(query, 0)
    }

    /// Lifetime lookup misses of `query`'s shards.
    pub fn misses(&self, query: &str) -> u64 {
        self.count(query, 1)
    }

    fn count(&self, query: &str, index: usize) -> u64 {
        self.lookups.lock().expect("shard cache lock").get(query).map_or(0, |counts| counts[index])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::JobFingerprint;
    use sweep::experiments::{Thm1Outcome, Thm3Acc};

    fn key(shard: usize, version: &str) -> ShardKey {
        JobFingerprint {
            query: "thm1".into(),
            model: "crash".into(),
            scope: "n=3,t=1,k=1".into(),
            protocols: "optmin".into(),
            seed: 0,
            shards: 2,
            code_version: version.into(),
        }
        .shard(shard)
    }

    fn cache() -> ShardCache {
        ShardCache::new(DurableStore::in_memory(None))
    }

    #[test]
    fn cache_replays_only_matching_keys() {
        let cache = cache();
        let acc = Thm3Acc { per_f: [(1, (3, 40))].into_iter().collect(), violations: 0 };
        assert_eq!(cache.store().accounting().entries, 0);
        assert_eq!(cache.get::<Thm3Acc>(&key(0, &code_version())), None);
        cache.insert(&key(0, &code_version()), (0, 100), &acc);
        assert_eq!(cache.get(&key(0, &code_version())), Some((acc, (0, 100))));
        assert_eq!(cache.get::<Thm3Acc>(&key(1, &code_version())), None);
        assert_eq!(cache.store().accounting().entries, 1);
        assert_eq!((cache.hits("thm1"), cache.misses("thm1")), (1, 2));
        assert_eq!((cache.hits("thm3"), cache.misses("thm3")), (0, 0), "counted per query");
    }

    #[test]
    fn stale_code_versions_never_replay() {
        let cache = cache();
        let stale = key(0, "0.0.0+fold.v0");
        cache.insert(&stale, (0, 100), &Thm1Outcome::default());
        // Even though the exact key is present, a version mismatch with the
        // running process refuses the replay.
        assert_eq!(cache.get::<Thm1Outcome>(&stale), None);
        assert_eq!(cache.misses("thm1"), 1);
    }

    #[test]
    fn accumulators_and_ranges_round_trip_through_the_store() {
        let cache = cache();
        let acc = Thm1Outcome { violations: 3, beaten: [true, false], structure: 1 };
        assert_eq!(cache.get::<Thm1Outcome>(&key(0, &code_version())), None);
        cache.insert(&key(0, &code_version()), (40, 80), &acc);
        assert_eq!(cache.get(&key(0, &code_version())), Some((acc, (40, 80))));
        assert_eq!(cache.store().accounting().entries, 1);
        // A stale key is refused before the store is even consulted.
        assert_eq!(cache.get::<Thm1Outcome>(&key(0, "0.0.0+fold.v0")), None);
    }

    #[test]
    fn undecodable_payloads_are_refused_as_misses() {
        let cache = cache();
        let k = key(0, &code_version());
        // A payload that parses as JSON but is not a Thm1Outcome.
        cache
            .store()
            .store(&k.canonical_string(), StoredEntry { start: 0, end: 10, payload: "[]".into() });
        assert_eq!(
            cache.get::<Thm1Outcome>(&k),
            None,
            "undecodable payloads must degrade to a miss"
        );
        assert_eq!(cache.misses("thm1"), 1);
    }
}
