//! Cross-adversary, view-keyed memoization of knowledge analyses.
//!
//! Exhaustive sweeps execute protocols against every adversary of a scope,
//! and most enumerated adversaries induce *identical* views for most nodes:
//! a view is determined by the failure pattern alone up to input relabeling,
//! and the input vectors are swept as a cross product.  The structural part
//! of a [`ViewAnalysis`] — seen/hidden classification, provable crashes,
//! hidden capacity, direct observations — is a function of that pattern
//! only, so it can be computed once per distinct [`ViewKey`] and shared
//! across every adversary (and every run) that revisits it.  A hit
//! recomputes only the stored analysis's value-dependent fields (`Vals`,
//! persistence against concrete values) through
//! [`ViewAnalysis::refresh_values`], in place, and hands out another
//! [`Rc`] of it: nothing is copied unless the caller still holds the
//! previous result for that view (then [`Rc::make_mut`] copies it once,
//! and the held result keeps describing its own run).  A lookup writes the
//! key's words ([`ViewKey::encode`]) into a buffer the cache keeps and
//! probes its [`WordMap`] with the borrowed slice, so a hit allocates
//! nothing and only a new pattern's insert allocates a key.
//!
//! The batch executor does not consult this cache: it keeps one analysis
//! per node and refills it in place.  The cache serves job code that
//! analyzes extra nodes itself (Proposition 2's per-run scan).
//! [`AnalysisCache`] is a cheaply clonable handle over shared interior
//! state, so a runner (`set_consensus::BatchRunner`) and the job closures
//! it serves can share one without borrow gymnastics.  It is deliberately
//! **not** thread-safe: the sweep engine gives every worker thread its own
//! runner, which keeps it lock-free and the fold results bit-identical at
//! any parallelism (a cache hit returns an analysis equal, `==`, to what
//! [`ViewAnalysis::new`] would return).

use std::cell::RefCell;
use std::rc::Rc;

use synchrony::{ModelError, Node, Run, ViewKey, WordMap};

use crate::analysis::validate_node;
use crate::ViewAnalysis;

/// Upper bound on stored view patterns per cache.
///
/// Distinct patterns are bounded by `failure patterns × nodes`, which stays
/// tiny on today's scopes (the exhaustive Theorem 1 sweep stores ~4.3k), but
/// scopes the lazy `AdversarySpace` can now address would grow a naive map
/// without limit.  Once full, the cache keeps serving hits from what it
/// holds and constructs the rest uncached — peak memory stays bounded and
/// results are unaffected (hits and misses construct identical analyses).
const MAX_ENTRIES: usize = 1 << 20;

/// Hit/miss counters of an [`AnalysisCache`].
///
/// A *miss* is a full construction of an analysis; a *hit* is one avoided
/// by recomputing only the value-dependent fields, so `misses` equals the
/// number of full constructions performed.  The same pair counts the batch
/// executor's per-node slots (`set_consensus::BatchRunner::analysis_stats`):
/// a miss there is an in-place recompute, a hit a value-only refresh.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a full structural construction.
    pub misses: u64,
}

impl CacheStats {
    /// Returns the total number of analyses requested.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Returns the number of full `ViewAnalysis` constructions performed
    /// (the misses).
    pub fn constructions(&self) -> u64 {
        self.misses
    }

    /// Returns the number of constructions avoided (the hits).
    pub fn constructions_avoided(&self) -> u64 {
        self.hits
    }

    /// Returns the hit rate in `[0, 1]` (`0` when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Adds another counter pair into this one (for aggregating per-worker
    /// caches into sweep-level stats).
    pub fn merge(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

#[derive(Debug)]
struct CacheInner {
    /// Stored analyses keyed by [`ViewKey::encode`]'s words.
    map: WordMap<Box<[u64]>, Rc<ViewAnalysis>>,
    /// The probe buffer: each lookup writes its key here and probes the map
    /// with the borrowed slice, so only an insert allocates a key.
    key: Vec<u64>,
    stats: CacheStats,
}

/// A view-keyed, cross-adversary cache of knowledge analyses.
///
/// Cloning the handle shares the underlying cache (single-threaded interior
/// mutability); see the module docs for the sharing and determinism
/// contract.
///
/// ```
/// use knowledge::{AnalysisCache, ViewAnalysis};
/// use synchrony::{Adversary, InputVector, Node, Run, SystemParams, Time};
///
/// let params = SystemParams::new(3, 1)?;
/// let cache = AnalysisCache::new();
/// let node = Node::new(2, Time::new(1));
/// for values in [[0u64, 1, 2], [2, 1, 0], [1, 1, 1]] {
///     let adversary = Adversary::failure_free(InputVector::from_values(values))?;
///     let run = Run::generate(params, adversary, Time::new(1))?;
///     // Identical to an uncached analysis, bit for bit.
///     assert_eq!(*cache.analyze(&run, node)?, ViewAnalysis::new(&run, node)?);
/// }
/// // Three input vectors, one failure pattern: one construction, two hits.
/// assert_eq!(cache.stats().misses, 1);
/// assert_eq!(cache.stats().hits, 2);
/// # Ok::<(), synchrony::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AnalysisCache {
    inner: Rc<RefCell<CacheInner>>,
}

impl AnalysisCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        AnalysisCache {
            inner: Rc::new(RefCell::new(CacheInner {
                map: WordMap::default(),
                key: Vec::new(),
                stats: CacheStats::default(),
            })),
        }
    }

    /// Analyzes the node `⟨i, m⟩` of `run`, reusing the stored analysis of
    /// any previously seen run whose view at that node has the same pattern
    /// ([`ViewKey`]).  The result is identical (`==`) to
    /// [`ViewAnalysis::new`].
    ///
    /// The result shares the stored analysis: a hit refreshes it in place,
    /// and copies it first only if an earlier result for the same view is
    /// still held.  Drop each result before the next lookup to keep hits
    /// copy-free.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ViewAnalysis::new`].
    pub fn analyze(&self, run: &Run, node: Node) -> Result<Rc<ViewAnalysis>, ModelError> {
        // Reject invalid nodes up front: key extraction reads the run's
        // structures directly and must only ever see validated nodes.
        validate_node(run, node)?;
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        ViewKey::encode(run, node, &mut inner.key);
        if let Some(stored) = inner.map.get_mut(inner.key.as_slice()) {
            Rc::make_mut(stored).refresh_values(run);
            let analysis = Rc::clone(stored);
            inner.stats.hits += 1;
            return Ok(analysis);
        }
        let analysis = Rc::new(ViewAnalysis::new(run, node)?);
        inner.stats.misses += 1;
        if inner.map.len() < MAX_ENTRIES {
            inner.map.insert(inner.key.as_slice().into(), Rc::clone(&analysis));
        }
        Ok(analysis)
    }

    /// Returns a snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.borrow().stats
    }

    /// Returns the number of distinct view patterns stored.
    pub fn len(&self) -> usize {
        self.inner.borrow().map.len()
    }

    /// Returns `true` if no pattern is stored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every stored pattern and resets the counters.
    pub fn clear(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.map.clear();
        inner.stats = CacheStats::default();
    }
}

impl Default for AnalysisCache {
    fn default() -> Self {
        AnalysisCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synchrony::{Adversary, FailurePattern, InputVector, SystemParams, Time};

    fn run_with(inputs: [u64; 4], build: impl FnOnce(&mut FailurePattern)) -> Run {
        let params = SystemParams::new(4, 2).unwrap();
        let mut failures = FailurePattern::crash_free(4);
        build(&mut failures);
        let adversary = Adversary::new(InputVector::from_values(inputs), failures).unwrap();
        Run::generate(params, adversary, Time::new(3)).unwrap()
    }

    /// Every (node, adversary) pair analyzed through the cache must be
    /// bit-identical to the uncached analysis — including value-dependent
    /// fields like persistence, across input relabelings and distinct
    /// failure patterns.
    #[test]
    fn cached_analyses_match_uncached_everywhere() {
        let cache = AnalysisCache::new();
        let runs = [
            run_with([0, 1, 2, 3], |_| {}),
            run_with([3, 2, 1, 0], |_| {}),
            run_with([0, 1, 2, 3], |f| {
                f.crash(0, 1, [1]).unwrap();
            }),
            run_with([9, 1, 1, 1], |f| {
                f.crash(0, 1, [1]).unwrap();
            }),
            run_with([0, 1, 2, 3], |f| {
                f.crash(0, 1, [1]).unwrap();
                f.crash(1, 2, [2]).unwrap();
            }),
        ];
        for run in &runs {
            for i in 0..4 {
                for m in 0..=3u32 {
                    let node = Node::new(i, Time::new(m));
                    if !run.is_active(i, Time::new(m)) {
                        assert!(cache.analyze(run, node).is_err());
                        continue;
                    }
                    let cached = cache.analyze(run, node).unwrap();
                    let reference = ViewAnalysis::new(run, node).unwrap();
                    assert_eq!(
                        *cached,
                        reference,
                        "divergence at {node} of {}",
                        run.to_adversary()
                    );
                }
            }
        }
        let stats = cache.stats();
        assert!(stats.hits > 0, "input relabelings must hit the cache");
        assert_eq!(stats.lookups(), stats.hits + stats.misses);
        assert!(stats.hit_rate() > 0.0);
    }

    /// A hit refreshes the stored analysis in place, so a result still held
    /// by the caller must be copied off first: it keeps describing its own
    /// run while later lookups of the same view describe theirs, and the
    /// counters are those of one construction and hits for the rest.
    #[test]
    fn held_results_survive_later_hits_on_the_same_view() {
        let crash = |f: &mut FailurePattern| {
            f.crash(0, 1, [1]).unwrap();
        };
        let runs = [
            run_with([0, 1, 2, 3], crash),
            run_with([9, 9, 1, 1], crash),
            run_with([3, 2, 1, 0], crash),
            run_with([5, 0, 5, 0], crash),
        ];
        let node = Node::new(1, Time::new(2));
        let cache = AnalysisCache::new();
        let first = cache.analyze(&runs[0], node).unwrap();
        let second = cache.analyze(&runs[1], node).unwrap();
        let held = [first, second];
        for run in &runs[2..] {
            let fresh = cache.analyze(run, node).unwrap();
            assert_eq!(*fresh, ViewAnalysis::new(run, node).unwrap());
            // Dropped before the next lookup: that one refreshes in place.
            drop(fresh);
        }
        for (analysis, run) in held.iter().zip(&runs) {
            assert_eq!(**analysis, ViewAnalysis::new(run, node).unwrap());
        }
        assert_ne!(held[0].vals(), held[1].vals(), "the two held results differ");
        assert_eq!(cache.stats(), CacheStats { hits: 3, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    /// Invalid nodes must surface the same `Err` as `ViewAnalysis::new` —
    /// never a panic from key extraction.
    #[test]
    fn invalid_nodes_error_instead_of_panicking() {
        let run = run_with([0, 1, 2, 3], |f| {
            f.crash_silent(0, 1).unwrap();
        });
        let cache = AnalysisCache::new();
        assert!(cache.analyze(&run, Node::new(0, Time::new(2))).is_err(), "inactive");
        assert!(cache.analyze(&run, Node::new(9, Time::new(1))).is_err(), "no such process");
        assert!(cache.analyze(&run, Node::new(1, Time::new(9))).is_err(), "beyond horizon");
        assert!(cache.is_empty());
    }

    #[test]
    fn clones_share_state_and_clear_resets() {
        let cache = AnalysisCache::new();
        let handle = cache.clone();
        let run = run_with([0, 1, 2, 3], |_| {});
        cache.analyze(&run, Node::new(0, Time::new(1))).unwrap();
        handle.analyze(&run, Node::new(0, Time::new(1))).unwrap();
        assert_eq!(handle.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(handle.is_empty());
        assert_eq!(handle.stats(), CacheStats::default());
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut a = CacheStats { hits: 2, misses: 3 };
        a.merge(CacheStats { hits: 5, misses: 7 });
        assert_eq!(a, CacheStats { hits: 7, misses: 10 });
        assert_eq!(a.constructions(), 10);
        assert_eq!(a.constructions_avoided(), 7);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
