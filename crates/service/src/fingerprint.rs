//! Job and shard fingerprints: the keys of the incremental
//! shard-accumulator cache.
//!
//! A cached accumulator may only be replayed for a request that would have
//! recomputed it **bit-identically**, so the key must pin down everything
//! the fold value depends on:
//!
//! * the **query** (reducer id) and its **protocol set** — what is folded;
//! * the **scope** — which scenarios are folded (enumeration parameters,
//!   or the case shape for fixed/random sources), including the sub-sweep
//!   case index for multi-case jobs;
//! * the **seed** — which scenarios a seeded random source draws;
//! * the **shard partition** (`shards` + the shard index) — which slice of
//!   the enumeration the accumulator covers.  Shard boundaries come from
//!   `sweep::shard_ranges`, so equal `(len, shards, block)` means equal
//!   ranges;
//! * the **code version** — see [`code_version`].
//!
//! Deliberately *not* in the key: the thread and worker counts.  Folds are
//! shard- and thread-invariant (the determinism tests pin this across
//! shard and thread counts), so keying on them would only shrink hit
//! rates.
//!
//! The query, model, scope-string and protocol-set fields of a sharded
//! query come from its `sweep::experiments::Query` descriptor.

use std::fmt;

/// Returns the code-version component of every fingerprint:
/// `<crate version>+fold.v<N>` with `N = sweep::FOLD_SEMANTICS_VERSION`.
///
/// **Invalidation rule:** a cached accumulator is replayed only when its
/// key — including this string — matches exactly; [`crate::cache::ShardCache`]
/// additionally refuses lookups whose key embeds a *different* code
/// version outright.  Whenever a change could alter any fold bit (a new
/// enumeration order, a reducer change, a shard-alignment change), bumping
/// `FOLD_SEMANTICS_VERSION` turns every stale accumulator into a miss
/// instead of a wrong answer.  Within one daemon process the version is
/// constant; the rule matters the moment keys outlive the process (a
/// `--cache-dir` store) or several daemon builds share a store.
pub fn code_version() -> String {
    format!("{}+fold.v{}", env!("CARGO_PKG_VERSION"), sweep::FOLD_SEMANTICS_VERSION)
}

/// Identity of one sub-sweep (one case) of a job — everything that
/// determines the fold except the shard index.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JobFingerprint {
    /// Reducer id (`"thm1"`, `"omission"`, `"thm3"`, `"fig4"`, `"prop2"`).
    pub query: String,
    /// Pattern-space discriminant (`PatternModel::name()`), so a crash-
    /// and an omission-space fold over the *same* `(n, t, k)` shape can
    /// never replay each other's accumulators even if their scope strings
    /// were ever to collide.
    pub model: String,
    /// Canonical scope string of the case (`Query::scope_string`).
    pub scope: String,
    /// Protocol set folded by the job, in batch order.
    pub protocols: String,
    /// Seed of seeded scenario sources (zero where unused).
    pub seed: u64,
    /// Number of shards the case is partitioned into.
    pub shards: usize,
    /// Code version the accumulators were computed under.
    pub code_version: String,
}

impl JobFingerprint {
    /// Returns the key of one shard of this case.
    pub fn shard(&self, shard: usize) -> ShardKey {
        ShardKey { job: self.clone(), shard }
    }
}

impl fmt::Display for JobFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}@{}] protocols={} seed={} shards={} {}",
            self.query,
            self.model,
            self.scope,
            self.protocols,
            self.seed,
            self.shards,
            self.code_version
        )
    }
}

/// The key of one cached shard accumulator: a case fingerprint plus the
/// shard index within its deterministic partition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShardKey {
    /// The case the shard belongs to.
    pub job: JobFingerprint,
    /// Shard index in `0..job.shards`.
    pub shard: usize,
}

impl ShardKey {
    /// Renders the key as its canonical string — the identity used by the
    /// [`DurableStore`](crate::store::DurableStore), where keys outlive
    /// the process and must survive a restart byte-identically.
    ///
    /// The rendering is the compact wire-JSON object of every key field in
    /// a fixed order; two keys are equal iff their canonical strings are.
    pub fn canonical_string(&self) -> String {
        use crate::wire::Value;
        Value::Object(vec![
            ("query".into(), Value::Str(self.job.query.clone())),
            ("model".into(), Value::Str(self.job.model.clone())),
            ("scope".into(), Value::Str(self.job.scope.clone())),
            ("protocols".into(), Value::Str(self.job.protocols.clone())),
            ("seed".into(), Value::Int(self.job.seed as i128)),
            ("shards".into(), Value::Int(self.job.shards as i128)),
            ("shard".into(), Value::Int(self.shard as i128)),
            ("code_version".into(), Value::Str(self.job.code_version.clone())),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep::experiments::{Fig4Query, Query, ScopeSpec, Thm1Query, Thm3Query};

    #[test]
    fn scope_strings_are_injective_over_the_fields() {
        for query in [Thm1Query::CRASH, Thm1Query::OMISSION] {
            let base = ScopeSpec::builtin(3, 1, 2);
            let mut seen = std::collections::HashSet::new();
            for scope in [
                base,
                ScopeSpec { n: 4, ..base },
                ScopeSpec { t: 2, ..base },
                ScopeSpec { k: 1, ..base },
                ScopeSpec { max_value: 1, ..base },
                ScopeSpec { max_crash_round: 3, ..base },
                ScopeSpec { partial_delivery: false, ..base },
            ] {
                let scope = query.scoped_case(&scope).expect("thm1 takes scopes");
                seen.insert(query.scope_string(&scope));
            }
            // Omission scopes have no delivery flag to tell apart.
            let distinct = if query == Thm1Query::CRASH { 7 } else { 6 };
            assert_eq!(seen.len(), distinct, "{} scope strings collide", query.name());
        }
    }

    /// Persisted shard caches are keyed on these bytes: changing any of
    /// them orphans every stored accumulator of the query.
    #[test]
    fn descriptor_fingerprint_fields_are_pinned() {
        let (crash, omission) = (Thm1Query::CRASH, Thm1Query::OMISSION);
        assert_eq!(crash.name(), "thm1");
        assert_eq!(crash.scope_string(&crash.cases()[3]), "n=5,t=2,k=2,maxv=2,mcr=2,pd=false");
        assert_eq!(omission.name(), "omission");
        assert_eq!(omission.scope_string(&omission.cases()[1]), "n=4,t=1,k=1,maxv=1,rounds=2");
        assert_eq!(Thm3Query.scope_string(&Thm3Query.cases()[2]), "n=12,t=9,k=4,samples=400");
        assert_eq!(Fig4Query.scope_string(&()), "uniform-gap builtin k*rounds");
        assert_eq!(
            [Thm1Query::PROTOCOLS, Thm3Query::PROTOCOLS, Fig4Query::PROTOCOLS],
            [
                "optmin,earlyfloodmin,floodmin",
                "upmin",
                "upmin,optmin,earlyuniformfloodmin,floodmin"
            ]
        );
    }

    #[test]
    fn shard_keys_differ_per_shard_and_version() {
        let fingerprint = JobFingerprint {
            query: "thm1".into(),
            model: "crash".into(),
            scope: "n=3,t=1,k=1".into(),
            protocols: "optmin".into(),
            seed: 0,
            shards: 4,
            code_version: code_version(),
        };
        assert_ne!(fingerprint.shard(0), fingerprint.shard(1));
        let stale = JobFingerprint { code_version: "0.0.0+fold.v0".into(), ..fingerprint.clone() };
        assert_ne!(fingerprint.shard(0), stale.shard(0));
        let omission = JobFingerprint { model: "omission".into(), ..fingerprint.clone() };
        assert_ne!(fingerprint.shard(0), omission.shard(0), "model must enter the key");
        assert!(code_version().contains("+fold.v"));
    }

    #[test]
    fn canonical_strings_are_injective_and_reparse() {
        let fingerprint = JobFingerprint {
            query: "thm1".into(),
            model: "crash".into(),
            scope: "n=3,t=1,k=1".into(),
            protocols: "optmin".into(),
            seed: 0,
            shards: 4,
            code_version: code_version(),
        };
        let canonical = fingerprint.shard(1).canonical_string();
        assert_ne!(canonical, fingerprint.shard(2).canonical_string());
        let omission = JobFingerprint { model: "omission".into(), ..fingerprint.clone() };
        assert_ne!(
            canonical,
            omission.shard(1).canonical_string(),
            "persisted keys must carry the model discriminant"
        );
        let parsed = crate::wire::Value::parse(&canonical).expect("canonical keys are JSON");
        assert_eq!(parsed.render(), canonical, "rendering must be a fixed point");
        assert_eq!(
            parsed.get("code_version"),
            Some(&crate::wire::Value::Str(code_version())),
            "persisted stores read the version out of the key"
        );
    }
}
