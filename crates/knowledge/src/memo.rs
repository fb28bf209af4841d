//! Per-structure memoization of node analyses.
//!
//! [`crate::AnalysisCache`] shares the structural part of an analysis across
//! adversaries, but every lookup still pays for a `synchrony::ViewKey`
//! extraction, a hash-map probe, and a full [`ViewAnalysis`] rebuild.  When
//! the executor *knows* the run's communication structure is unchanged from
//! the previous run — the structure-major sweep order, where a whole block
//! of input vectors rides one failure pattern — all of that is redundant:
//! the node's structural analysis is byte-identical, and only the three
//! value-dependent fields need refreshing.
//!
//! [`StructureMemo`] exploits exactly that: it pins one completed analysis
//! per node of the *current* structure and, while the structure stays
//! valid, serves each node by refreshing `vals`/`prev_vals`/`persistent` in
//! place — no key extraction, no hashing, no clones.  The caller (the
//! `set-consensus` batch executor) is responsible for calling
//! [`StructureMemo::invalidate`] whenever the run structure is re-simulated;
//! the memo itself cannot observe that.

use synchrony::{ModelError, Node, Run};

use crate::analysis::{validate_node, ViewStructure};
use crate::{AnalysisCache, ViewAnalysis};

#[derive(Debug)]
struct MemoSlot {
    structure: ViewStructure,
    analysis: ViewAnalysis,
}

/// A per-node memo of analyses for one communication structure.
///
/// The memo is the innermost reuse layer of structure-major sweep
/// execution, sitting *in front of* an [`AnalysisCache`]:
///
/// * while the current structure stays valid, a node's analysis is served
///   from its slot by recompleting the value-dependent fields in place
///   (allocation-free);
/// * the first visit to a node after [`StructureMemo::invalidate`] goes
///   through the cache's structure lookup, so distinct failure patterns
///   that induce the same view still share one structural construction
///   across patterns.
///
/// Serving a node from the memo is observationally identical (`==`) to
/// [`ViewAnalysis::new`]; the memo can only change how fast an analysis is
/// produced.
#[derive(Debug, Default)]
pub struct StructureMemo {
    /// Slot of node `⟨i, m⟩` at index `m · stride + i`.
    slots: Vec<Option<MemoSlot>>,
    stride: usize,
}

impl StructureMemo {
    /// Creates an empty memo.
    pub fn new() -> Self {
        StructureMemo::default()
    }

    /// Drops every pinned analysis.  Must be called whenever the run
    /// structure the memo was built against changes (a re-simulation, new
    /// parameters, a new horizon).
    pub fn invalidate(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
    }

    /// Returns the analysis of the node `⟨i, m⟩` of `run` — from the memo
    /// when the node was already analyzed under the current structure,
    /// through `cache` otherwise.  The result is identical (`==`) to
    /// [`ViewAnalysis::new`].
    ///
    /// The caller must have kept the invalidation contract: every run since
    /// the last [`StructureMemo::invalidate`] must share the current run's
    /// communication structure.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ViewAnalysis::new`].
    pub fn analyze(
        &mut self,
        cache: &AnalysisCache,
        run: &Run,
        node: Node,
    ) -> Result<&ViewAnalysis, ModelError> {
        validate_node(run, node)?;
        if self.stride != run.n() {
            // A different system size reshuffles the slot indexing; the
            // caller invalidates on any parameter change, but the stride
            // must follow even across empty memos.
            self.stride = run.n();
            self.slots.clear();
        }
        let index = node.time.index() * self.stride + node.process.index();
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        let slot = &mut self.slots[index];
        match slot {
            Some(memo) => {
                memo.structure.recomplete(run, &mut memo.analysis);
            }
            None => {
                let structure = cache.structure_for(run, node)?;
                let analysis = structure.complete(run);
                *slot = Some(MemoSlot { structure, analysis });
            }
        }
        Ok(&slot.as_ref().expect("the slot was just filled").analysis)
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

    /// Across a block of input overlays on one structure, every memoized
    /// analysis must be bit-identical to the uncached reference — including
    /// the value-dependent persistence fields the recompletion refreshes.
    #[test]
    fn memoized_analyses_match_uncached_across_input_overlays() {
        let crash = |f: &mut FailurePattern| {
            f.crash(0, 1, [1]).unwrap();
            f.crash(1, 2, [2]).unwrap();
        };
        let cache = AnalysisCache::new();
        let mut memo = StructureMemo::new();
        for inputs in [[0u64, 1, 2, 3], [3, 2, 1, 0], [9, 1, 1, 1], [2, 2, 2, 2]] {
            let run = run_with(inputs, crash);
            for m in 0..=3u32 {
                for i in 0..4 {
                    let node = Node::new(i, Time::new(m));
                    if !run.is_active(i, Time::new(m)) {
                        assert!(memo.analyze(&cache, &run, node).is_err());
                        continue;
                    }
                    let reference = ViewAnalysis::new(&run, node).unwrap();
                    let memoized = memo.analyze(&cache, &run, node).unwrap();
                    assert_eq!(memoized, &reference, "memo diverged at {node} under {inputs:?}");
                }
            }
        }
        // 4 input overlays × the active nodes: only the first pass misses
        // the memo (and populates the cache); the cache sees no lookups at
        // all afterwards.
        let stats = cache.stats();
        assert_eq!(stats.lookups(), stats.misses, "one cache visit per node, ever");
    }

    /// After an invalidation the memo must refill through the cache — and a
    /// *different* structure must produce the new structure's analyses, not
    /// stale ones.
    #[test]
    fn invalidation_switches_structures_correctly() {
        let cache = AnalysisCache::new();
        let mut memo = StructureMemo::new();
        let node = Node::new(3, Time::new(2));

        let chain = run_with([0, 1, 2, 3], |f| {
            f.crash(0, 1, [1]).unwrap();
        });
        let free = run_with([0, 1, 2, 3], |_| {});
        assert_eq!(
            memo.analyze(&cache, &chain, node).unwrap(),
            &ViewAnalysis::new(&chain, node).unwrap()
        );

        memo.invalidate();
        assert_eq!(
            memo.analyze(&cache, &free, node).unwrap(),
            &ViewAnalysis::new(&free, node).unwrap()
        );
        // The free run sees all four initial values; the chain run's
        // observer provably cannot - the two structures really differ.
        assert_ne!(
            ViewAnalysis::new(&chain, node).unwrap(),
            ViewAnalysis::new(&free, node).unwrap()
        );
    }
}
