//! Sharded, work-stealing scenario sweeps over the adversary space.
//!
//! The experimental claims of *Unbeatable Set Consensus via Topological and
//! Combinatorial Reasoning* are universally quantified — unbeatability of
//! `Optmin[k]`, the Theorem 3 bound for `u-Pmin[k]` — so verifying them
//! means executing protocols against *every* adversary of a scope (or very
//! many random ones).  Those runs are mutually independent, which makes the
//! sweep embarrassingly parallel; this crate is the engine that exploits
//! that:
//!
//! * [`ScenarioSource`] — a deterministic, *randomly-addressable* stream of
//!   [`Scenario`]s.  [`source::ExhaustiveSource`] seeks into the adversary
//!   enumeration via `adversary::AdversarySpace`, [`source::RandomSource`]
//!   derives scenario `i` from a counter-based seed so any shard can start
//!   anywhere, and [`source::FixedSource`] adapts the named scenario
//!   families (e.g. the Fig. 4 uniform-gap family).  Sources additionally
//!   advertise their *structure block*
//!   ([`ScenarioSource::structure_block`]): the number of consecutive
//!   scenarios sharing one failure pattern, so the engine can cut shard
//!   boundaries pattern-contiguously — and offer a [`ScenarioCursor`]
//!   ([`ScenarioSource::cursor`]) that writes consecutive scenarios into a
//!   caller-owned scratch instead of materializing them per index; the
//!   exhaustive source's *block cursor* unranks each failure pattern once
//!   per block and steps the mixed-radix input code in place, so a worker's
//!   steady state allocates nothing per scenario;
//! * [`sweep`] (and [`sweep_with_stats`]) — partitions the scenario space
//!   into deterministic contiguous shards (aligned to the source's
//!   structure block) and lets worker threads *steal* shards from a shared
//!   queue; every worker owns a `set_consensus::BatchRunner`, so run,
//!   transcript and analysis buffers are reused across all the runs it
//!   executes.  Two cross-adversary reuse layers ride on top, always on
//!   and invisible to the fold: a `knowledge::AnalysisCache` shares the
//!   structural part of every node's knowledge analysis between all the
//!   adversaries the worker visits, and the runner executes
//!   *structure-major* — every scenario that repeats the previous failure
//!   pattern (the whole input-vector block of an exhaustive scope) skips
//!   the run simulation outright and only swaps the input overlay
//!   (`synchrony::RunStructure`).  Shards are walked through the source's
//!   cursor into a per-worker scratch scenario.  All counters are reported
//!   through [`SweepStats`].  The partition ([`shard_ranges`]) and the
//!   per-shard kernel ([`fold_shard_stats`]) are public: the `service`
//!   daemon schedules the same shards over its own worker pool and remote
//!   workers, and replays completed ones from its shard cache;
//! * [`Reducer`] — folds per-run outcomes (decision-time histograms, check
//!   violations, domination counters, …) into per-shard accumulators that
//!   are merged in shard order.  The reducer law
//!   `merge(fold(A), fold(B)) == fold(A ++ B)` makes the final result
//!   **independent of the shard and thread counts** — the same
//!   [`SweepConfig::seed`] yields bit-identical folds at `--threads 1` and
//!   `--threads 64`;
//! * [`experiments`] — the paper's headline experiments (Theorem 1,
//!   Theorem 3, Fig. 4, Proposition 2) ported onto the engine; the `sweep`
//!   CLI binary in the `bench_harness` crate is a thin formatting wrapper
//!   around them.
//!
//! The three reuse layers — analysis cache, run-structure memo, block
//! cursor — are documented as one system in `docs/ARCHITECTURE.md` at the
//! repository root.
//!
//! # The stderr stats line
//!
//! The `sweep` CLI prints the engine's [`SweepStats`] as a one-line
//! stderr trailer (stdout stays parallelism-invariant for diffing).  Its
//! fields, in order:
//!
//! ```text
//! sweep stats: <S> scenarios;
//!   knowledge analyses: <L> requested, <C> constructed, <H> served from cache (hit rate <..>%);
//!   run structures: <sim> simulated, <reu> reused (reuse rate <..>%);
//!   scenarios: <st> stepped in place, <mat> materialized, <pat> patterns unranked (in-place rate <..>%)
//! ```
//!
//! * `<S>` — [`SweepStats::scenarios`], the number of scenarios executed.
//! * `<L>`/`<C>`/`<H>` — the [`knowledge::CacheStats`] of the per-worker
//!   analysis caches, summed: `ViewAnalysis` lookups requested, full
//!   constructions actually performed, and constructions avoided (served
//!   structurally from the view-keyed cache).  `hit rate` is `H / L`.
//! * `<sim>`/`<reu>` — the [`set_consensus::RunReuseStats`] of the
//!   per-worker runners, summed: communication structures simulated from
//!   scratch vs. reused outright because the failure pattern repeated.
//!   `reuse rate` is `reu / (sim + reu)`.
//! * `<st>`/`<mat>`/`<pat>` — the [`CursorStats`] of the per-shard
//!   scenario cursors, summed: scenarios stepped in place inside a
//!   worker's scratch vs. materialized wholesale (a fresh
//!   pattern/input/adversary allocation, as `nth` would do), plus the
//!   number of failure patterns unranked (once per structure block).  On
//!   an exhaustive source, steady state shows `mat` equal to the number of
//!   non-empty shards and `pat` equal to the number of pattern blocks —
//!   zero per-scenario allocations; sources without a block cursor
//!   (random, fixed) count every scenario as `materialized`.  `in-place
//!   rate` is `st / (st + mat)`.
//!
//! The counters describe *how* the fold was computed and may legally vary
//! with the shard/thread counts; the fold value itself never does.
//!
//! # Quickstart
//!
//! ```
//! use adversary::enumerate::{AdversarySpace, EnumerationConfig};
//! use set_consensus::{Optmin, TaskParams, TaskVariant};
//! use sweep::source::ExhaustiveSource;
//! use sweep::{reduce, sweep, SweepConfig};
//! use synchrony::SystemParams;
//!
//! // Every adversary of a small scope, checked under Optmin[2].
//! let scope = EnumerationConfig::small(3, 1, 2);
//! let params = TaskParams::new(SystemParams::new(3, 1)?, 2)?;
//! let source = ExhaustiveSource::new(
//!     AdversarySpace::new(scope)?,
//!     params,
//!     TaskVariant::Nonuniform,
//! )?;
//!
//! // Fold correctness violations across the space, in parallel.  The
//! // checks go through the runner's scratch (`count_violations`), so the
//! // steady state of each worker allocates nothing per scenario.
//! let violations = sweep(
//!     &source,
//!     &SweepConfig::default(),
//!     &reduce::Count,
//!     |runner, scenario| {
//!         runner.execute_one(&Optmin, &scenario.params, &scenario.adversary)?;
//!         Ok(runner.count_violations(&scenario.params, scenario.variant))
//!     },
//! )?;
//! assert_eq!(violations, 0);
//! # Ok::<(), synchrony::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod experiments;
pub mod reduce;
pub mod source;

pub use engine::{
    fold_shard_stats, shard_ranges, sweep, sweep_with_stats, CursorStats, Reducer, Scenario,
    ScenarioCursor, ScenarioSource, SweepConfig, SweepStats, FOLD_SEMANTICS_VERSION,
};
