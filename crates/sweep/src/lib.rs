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
//!   boundaries pattern-contiguously — and step from one scenario of a
//!   block to the next ([`ScenarioSource::step_within_block`]); the
//!   exhaustive source rewrites only the input values there, so a shard
//!   builds one scenario per pattern block.  The Theorem 1 and
//!   omission sources walk their scope *up to process relabeling*
//!   ([`source::ExhaustiveSource::up_to_relabeling`]): one failure pattern
//!   per relabeling orbit, every scenario carrying its orbit size as its
//!   [`Scenario::weight`];
//! * [`sweep`] (and [`sweep_with_stats`]) — partitions the scenario space
//!   into deterministic contiguous shards (aligned to the source's
//!   structure block) and lets workers *steal* shards from a shared queue,
//!   the calling thread being the first of them (at one thread nothing is
//!   spawned).  A multi-case query ([`experiments::fold_cases`]) is one
//!   such region: its workers build every case's source, then drain one
//!   queue of every `(case, shard)` pair, with no barrier between cases.
//!   Every worker owns a `set_consensus::BatchRunner` per case, so run,
//!   transcript and analysis buffers are reused across all the runs it
//!   executes in that case.  The runner executes *structure-major*, always on and
//!   invisible to the fold: every scenario that repeats the previous
//!   failure pattern (the whole input-vector block of an exhaustive scope)
//!   skips the run simulation outright and only swaps the input overlay
//!   (`synchrony::RunStructure`), and its per-node knowledge analyses are
//!   then refreshed in place, values only.  Each shard is one loop over its range
//!   ([`fold_shard_stats`]).  All counters are reported
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
//!   `--threads 64`.  The engine folds each outcome with its scenario's
//!   weight through [`Reducer::fold_weighted`], whose law is "`w` repeated
//!   folds";
//! * [`experiments`] — the paper's headline experiments (Theorem 1,
//!   Theorem 3, Fig. 4, Proposition 2) ported onto the engine; the `sweep`
//!   CLI binary in the `bench_harness` crate is a thin formatting wrapper
//!   around them.
//!
//! The reuse layers — symmetry reduction, the shard walk, run structures
//! with their per-node analysis slots — are documented as one system in
//! `docs/ARCHITECTURE.md` at the repository root.
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
//!   For `thm1` and `omission` that is orbit representatives × input
//!   vectors (10,923 and 936 for the built-in cases), not the scope's
//!   adversary count (167,890 and 14,256), which the tables report.
//! * `<L>`/`<C>`/`<H>` — the per-worker runners'
//!   `set_consensus::BatchRunner::analysis_stats`, summed as
//!   [`knowledge::CacheStats`]: every `ViewAnalysis` the runners handed
//!   out (`L = C + H`), of which `C` were full in-place recomputes of a
//!   node slot (the first analysis of a node after a re-simulation) and
//!   `H` value-only refreshes of a slot whose structure was reused, or of
//!   a time-0 slot, which sees only its own node in every run of the same
//!   `(n, t)`.  So `thm3`, whose patterns never repeat, reads 23,196
//!   requested, 11,226 constructed and 11,970 served at `--threads 1`:
//!   the time-0 nodes of every run but the first of each case (a second
//!   worker moves 30 from served to constructed with its own first runs).  Job code's own lookups
//!   through `BatchRunner::cache` (Proposition 2) add their misses to `C`
//!   and hits to `H`.  `hit rate` is `H / L`.
//! * `<sim>`/`<reu>` — the [`set_consensus::RunReuseStats`] of the
//!   per-worker runners, summed: communication structures started afresh
//!   (their rows then simulated as far as the batch reads them) vs. reused
//!   outright because the failure pattern repeated.  `reuse rate` is
//!   `reu / (sim + reu)`.
//! * `<st>`/`<mat>`/`<pat>` — the [`CursorStats`] of the shard walks,
//!   summed: scenarios stepped in place from the previous scenario of
//!   their structure block vs. built fresh through
//!   [`ScenarioSource::scenario`] (at each shard start and block
//!   boundary), plus the number of pattern blocks opened.  On an
//!   exhaustive source with more than one input vector per pattern, `mat`
//!   and `pat` both equal the number of pattern
//!   blocks (shard boundaries never split one) and `st` is every other
//!   scenario; random and fixed sources are blocks of one, so every
//!   scenario counts in `mat` and `pat` is 0.  `in-place rate` is
//!   `st / (st + mat)`.
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
    check_count, check_shard_count, check_thread_count, fold_shard_stats, shard_ranges, sweep,
    sweep_with_stats, CursorStats, Reducer, Scenario, ScenarioSource, SweepConfig, SweepStats,
    FOLD_SEMANTICS_VERSION, MAX_SHARDS, MAX_THREADS,
};
