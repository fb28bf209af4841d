//! Cross-adversary, view-keyed memoization of knowledge analyses.
//!
//! Exhaustive sweeps execute protocols against every adversary of a scope,
//! and most enumerated adversaries induce *identical* views for most nodes:
//! a view is determined by the failure pattern alone up to input relabeling,
//! and the input vectors are swept as a cross product.  The structural part
//! of a [`ViewAnalysis`] — seen/hidden classification, provable crashes,
//! hidden capacity, direct observations, persistence witness supports — is
//! a function of that pattern only, so it can be computed once per distinct
//! [`ViewKey`] and shared across every adversary (and every run) that
//! revisits it.  Only the cheap value-dependent fields (`Vals`, `Lows`,
//! persistence against concrete values) are recomputed per run.
//!
//! [`AnalysisCache`] is a cheaply clonable handle over shared interior
//! state, so an executor (`set_consensus::BatchRunner`) and the job closures
//! it serves can consult the *same* cache without borrow gymnastics.  It is
//! deliberately **not** thread-safe: the sweep engine gives every worker
//! thread its own cache, which keeps the hot path lock-free and the fold
//! results bit-identical at any parallelism (a cache hit reconstructs a
//! `ViewAnalysis` equal, `==`, to what [`ViewAnalysis::new`] would return).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use synchrony::{ModelError, Node, Run, ViewKey};

use crate::analysis::{validate_node, ViewStructure};
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
/// A *miss* is a full structural construction (the expensive part of
/// [`ViewAnalysis::new`]); a *hit* is a construction avoided, so `misses`
/// equals the number of structural constructions performed.
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
    map: HashMap<ViewKey, ViewStructure>,
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
///     assert_eq!(cache.analyze(&run, node)?, ViewAnalysis::new(&run, node)?);
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
                map: HashMap::new(),
                stats: CacheStats::default(),
            })),
        }
    }

    /// Analyzes the node `⟨i, m⟩` of `run`, reusing the cached structural
    /// analysis of any previously seen run whose view at that node has the
    /// same pattern ([`ViewKey`]).  The result is identical (`==`) to
    /// [`ViewAnalysis::new`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ViewAnalysis::new`].
    pub fn analyze(&self, run: &Run, node: Node) -> Result<ViewAnalysis, ModelError> {
        self.with_structure(run, node, |structure| structure.complete(run))
    }

    /// Looks up (or computes and stores) the structural analysis of the
    /// node, returning a clone of the [`ViewStructure`] — the entry point of
    /// the per-structure memo ([`crate::StructureMemo`]), which keeps the
    /// clone alive across every input overlay of the structure.  Counts in
    /// the same hit/miss statistics as [`AnalysisCache::analyze`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ViewAnalysis::new`].
    pub(crate) fn structure_for(&self, run: &Run, node: Node) -> Result<ViewStructure, ModelError> {
        self.with_structure(run, node, ViewStructure::clone)
    }

    /// The lookup-or-compute core shared by [`AnalysisCache::analyze`] and
    /// [`AnalysisCache::structure_for`]: validates the node, resolves its
    /// [`ViewStructure`] (from the map on a hit, computed — and stored, up
    /// to [`MAX_ENTRIES`] — on a miss),
    /// counts the hit/miss, and hands the structure to `use_structure`.
    fn with_structure<T>(
        &self,
        run: &Run,
        node: Node,
        use_structure: impl FnOnce(&ViewStructure) -> T,
    ) -> Result<T, ModelError> {
        // Reject invalid nodes up front: key extraction reads the run's
        // structures directly and must only ever see validated nodes.
        validate_node(run, node)?;
        let mut inner = self.inner.borrow_mut();
        let key = ViewKey::from_run(run, node);
        if let Some(structure) = inner.map.get(&key) {
            let result = use_structure(structure);
            inner.stats.hits += 1;
            return Ok(result);
        }
        let structure = ViewStructure::compute(run, node)?;
        let result = use_structure(&structure);
        inner.stats.misses += 1;
        if inner.map.len() < MAX_ENTRIES {
            inner.map.insert(key, structure);
        }
        Ok(result)
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
                    assert_eq!(cached, reference, "divergence at {node} of {}", run.to_adversary());
                }
            }
        }
        let stats = cache.stats();
        assert!(stats.hits > 0, "input relabelings must hit the cache");
        assert_eq!(stats.lookups(), stats.hits + stats.misses);
        assert!(stats.hit_rate() > 0.0);
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
