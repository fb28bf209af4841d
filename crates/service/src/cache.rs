//! The incremental shard-accumulator cache.
//!
//! Every sweep fold is shard- and thread-invariant — bit-identical at any
//! shard and thread count — which is exactly the property that makes a
//! *completed per-shard reducer accumulator* reusable across
//! requests: a repeated (or overlapping, as long as the shard partition
//! matches) query replays the cached accumulators and only executes the
//! cold shards.  This module is the typed front: `server` decides what to
//! look up and insert, and `sweep::try_merge_shard_outcomes` re-validates
//! the reducer-law preconditions when cached and fresh accumulators are
//! merged back into a fold.
//!
//! Two backends sit behind the same API:
//!
//! * **typed in-memory** (the default) — a plain `HashMap<ShardKey, _>`,
//!   zero serialization cost, dies with the process;
//! * **a [`CacheStore`]** ([`ShardCache::with_store`]) — every lookup and
//!   insert round-trips through the store's canonical-string keys and
//!   rendered wire payloads, buying byte-budgeted eviction and (with
//!   `store::DurableStore` on a cache dir) persistence across restarts.
//!   The store path is the *only* path when configured, so the byte
//!   accounting has a single authority.  Entries carry the shard's
//!   scenario range; a replay uses the stored range verbatim, so a forged
//!   or corrupted range surfaces as a typed merge error downstream instead
//!   of a silently wrong fold.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::fingerprint::{code_version, ShardKey};
use crate::store::{CacheStore, StoredEntry};
use crate::wire::{FromWire, ToWire, Value};

/// An in-memory cache entry: the accumulator plus the scenario range its
/// shard covers.
type RangedAcc<A> = (A, (usize, usize));

/// A thread-safe map from [`ShardKey`] to a completed accumulator and its
/// scenario range, with hit/miss counters — typed and in-memory by
/// default, routed through a [`CacheStore`] when one is configured.
///
/// One instance per accumulator type lives for the whole daemon process
/// (see `server::DaemonCaches`), so every connection and job shares it.
#[derive(Debug)]
pub struct ShardCache<A> {
    map: Mutex<HashMap<ShardKey, RangedAcc<A>>>,
    store: Option<Arc<dyn CacheStore>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<A> Default for ShardCache<A> {
    fn default() -> Self {
        ShardCache {
            map: Mutex::new(HashMap::new()),
            store: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<A: Clone + ToWire + FromWire> ShardCache<A> {
    /// Creates an empty, purely in-memory cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a cache routed through `store` — typically one
    /// `store::DurableStore` shared by every typed cache of the daemon
    /// (the keys embed the query name, so one keyspace holds them all).
    pub fn with_store(store: Arc<dyn CacheStore>) -> Self {
        ShardCache { store: Some(store), ..Self::default() }
    }

    /// Looks up the accumulator and stored scenario range of a shard,
    /// counting the hit or miss.
    ///
    /// Keys whose embedded code version differs from this process's
    /// [`code_version`] are refused outright (counted as misses) — the
    /// cache-invalidation rule, which keeps the persisted store from
    /// replaying accumulators across fold-semantics changes.  On the store
    /// path an entry whose payload fails to decode is likewise refused as
    /// a miss — damage degrades to recomputation, never to a panic.
    pub fn get(&self, key: &ShardKey) -> Option<(A, (usize, usize))> {
        let entry = if key.job.code_version != code_version() {
            None
        } else if let Some(store) = &self.store {
            store.load(&key.canonical_string()).and_then(|entry| {
                let acc = Value::parse(&entry.payload)
                    .ok()
                    .as_ref()
                    .and_then(|value| A::from_wire(value).ok())?;
                Some((acc, (entry.start, entry.end)))
            })
        } else {
            self.map.lock().expect("shard cache lock").get(key).cloned()
        };
        match &entry {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        entry
    }

    /// Stores the accumulator of a completed shard together with the
    /// scenario range it covers.
    pub fn insert(&self, key: ShardKey, range: (usize, usize), acc: A) {
        if let Some(store) = &self.store {
            store.store(
                &key.canonical_string(),
                StoredEntry { start: range.0, end: range.1, payload: acc.to_wire().render() },
            );
        } else {
            self.map.lock().expect("shard cache lock").insert(key, (acc, range));
        }
    }

    /// Number of cached shard accumulators (on the store path: live store
    /// entries, across every accumulator type sharing the store).
    pub fn len(&self) -> usize {
        match &self.store {
            Some(store) => store.accounting().entries,
            None => self.map.lock().expect("shard cache lock").len(),
        }
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::JobFingerprint;
    use crate::store::DurableStore;

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

    #[test]
    fn cache_replays_only_matching_keys() {
        let cache: ShardCache<sweep::experiments::Thm3Acc> = ShardCache::new();
        let acc = sweep::experiments::Thm3Acc {
            per_f: [(1, (3, 40))].into_iter().collect(),
            violations: 0,
        };
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key(0, &code_version())), None);
        cache.insert(key(0, &code_version()), (0, 100), acc.clone());
        assert_eq!(cache.get(&key(0, &code_version())), Some((acc, (0, 100))));
        assert_eq!(cache.get(&key(1, &code_version())), None);
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn stale_code_versions_never_replay() {
        let cache: ShardCache<sweep::experiments::Thm1Outcome> = ShardCache::new();
        let stale = key(0, "0.0.0+fold.v0");
        cache.insert(stale.clone(), (0, 100), sweep::experiments::Thm1Outcome::default());
        // Even though the exact key is present, a version mismatch with the
        // running process refuses the replay.
        assert_eq!(cache.get(&stale), None);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn store_path_round_trips_accumulators_and_ranges() {
        let store = Arc::new(DurableStore::in_memory(None));
        let cache: ShardCache<sweep::experiments::Thm1Outcome> =
            ShardCache::with_store(store.clone());
        let acc =
            sweep::experiments::Thm1Outcome { violations: 3, beaten: [true, false], structure: 1 };
        assert_eq!(cache.get(&key(0, &code_version())), None);
        cache.insert(key(0, &code_version()), (40, 80), acc);
        assert_eq!(cache.get(&key(0, &code_version())), Some((acc, (40, 80))));
        assert_eq!(cache.len(), 1);
        assert_eq!(store.accounting().entries, 1);
        // A stale key is refused before the store is even consulted.
        assert_eq!(cache.get(&key(0, "0.0.0+fold.v0")), None);
    }

    #[test]
    fn store_path_refuses_undecodable_payloads_as_misses() {
        use crate::store::{CacheStore, StoredEntry};
        let store = Arc::new(DurableStore::in_memory(None));
        let k = key(0, &code_version());
        // A payload that parses as JSON but is not a Thm1Outcome.
        store.store(&k.canonical_string(), StoredEntry { start: 0, end: 10, payload: "[]".into() });
        let cache: ShardCache<sweep::experiments::Thm1Outcome> = ShardCache::with_store(store);
        assert_eq!(cache.get(&k), None, "undecodable payloads must degrade to a miss");
        assert_eq!(cache.misses(), 1);
    }
}
