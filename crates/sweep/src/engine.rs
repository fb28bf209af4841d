//! The sharded, work-stealing sweep loop.

use std::borrow::Borrow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

use knowledge::CacheStats;
use set_consensus::{BatchRunner, RunReuseStats, TaskParams, TaskVariant};
use synchrony::{Adversary, ModelError};

/// Execution parameters of a sweep.
///
/// A sweep is deterministic in `(source, reducer, job, seed)`: neither
/// `shards` nor `threads` may change the fold result (see [`Reducer`] for
/// the laws that guarantee this; the shard-determinism integration tests
/// enforce it).  How a shard is executed is not configurable: every worker
/// owns a [`BatchRunner`] (per-node analysis slots, run-structure reuse)
/// and walks its shards through [`fold_shard_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Number of deterministic shards the scenario space is partitioned
    /// into; `0` picks `4 × threads`.  More shards mean finer-grained work
    /// stealing.  Shard boundaries are aligned to the source's
    /// [`ScenarioSource::structure_block`] so run-structure reuse survives
    /// any shard count.
    pub shards: usize,
    /// Number of worker threads; `0` picks the machine's available
    /// parallelism, `1` runs fully sequentially on the calling thread.
    pub threads: usize,
    /// Seed forwarded to seeded scenario sources (ignored by exhaustive and
    /// fixed sources).
    pub seed: u64,
}

impl SweepConfig {
    /// A fully sequential configuration: one shard, one thread.
    pub fn sequential() -> Self {
        SweepConfig { shards: 1, threads: 1, seed: Self::DEFAULT_SEED }
    }

    /// The default seed, matching the seed the pre-engine experiment
    /// binaries used.
    pub const DEFAULT_SEED: u64 = 1605;

    /// Resolves `threads = 0` to the machine's available parallelism.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            thread::available_parallelism().map(usize::from).unwrap_or(1)
        }
    }

    /// Resolves `shards = 0` to `4 × resolved_threads()`.
    pub fn resolved_shards(&self) -> usize {
        if self.shards > 0 {
            self.shards
        } else {
            self.resolved_threads() * 4
        }
    }
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig { shards: 0, threads: 0, seed: Self::DEFAULT_SEED }
    }
}

/// Scenario-production counters of one sweep: how each scenario reached its
/// job, summed over every shard.
///
/// A shard walk builds a fresh scenario ([`ScenarioSource::scenario`]) at
/// its range start and at every structure-block boundary, and derives every
/// other scenario from the previous one in the same block
/// ([`ScenarioSource::step_within_block`]).  On an exhaustive source that
/// is one fresh scenario per pattern block (shard boundaries are
/// block-aligned) with only the inputs rewritten inside a block; random
/// and fixed sources are blocks of one, so every scenario is fresh.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CursorStats {
    /// Scenarios built fresh through [`ScenarioSource::scenario`].
    pub materialized: u64,
    /// Scenarios derived in place from the previous one of their block.
    pub stepped: u64,
    /// Pattern blocks opened by sources whose blocks span several
    /// scenarios — `0` for random and fixed sources.
    pub patterns_unranked: u64,
}

impl CursorStats {
    /// Returns the fraction of scenarios derived in place, in `[0, 1]`
    /// (`0` when nothing was produced).
    pub fn in_place_rate(&self) -> f64 {
        let total = self.materialized + self.stepped;
        if total == 0 {
            0.0
        } else {
            self.stepped as f64 / total as f64
        }
    }

    /// Adds another shard's counters into this one.
    pub fn merge(&mut self, other: CursorStats) {
        self.materialized += other.materialized;
        self.stepped += other.stepped;
        self.patterns_unranked += other.patterns_unranked;
    }
}

/// Execution statistics of one sweep, aggregated over every worker.
///
/// The statistics describe *how* the fold was computed (they may legally
/// vary with shard and thread counts, e.g. fewer cache hits when the space
/// is split across more per-worker caches); the fold value itself never
/// does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Number of scenarios executed.
    pub scenarios: u64,
    /// Knowledge-analysis counters summed over the per-worker runners
    /// (`BatchRunner::analysis_stats`): node-slot recomputes and
    /// `AnalysisCache` misses as misses, value-only slot refreshes and
    /// cache hits as hits (all zeros for jobs that never request an
    /// analysis).
    pub cache: CacheStats,
    /// Run-structure simulation counters summed over the per-worker
    /// runners: how many communication structures were simulated vs. reused
    /// outright across input vectors.
    pub runs: RunReuseStats,
    /// Scenario-production counters summed over the shards: how many
    /// scenarios were built fresh vs. stepped in place, and how many
    /// pattern blocks were opened.
    pub cursor: CursorStats,
}

impl SweepStats {
    /// Adds another sweep's statistics into this one (for experiments that
    /// chain several sweeps).
    pub fn merge(&mut self, other: SweepStats) {
        self.scenarios += other.scenarios;
        self.cache.merge(other.cache);
        self.runs.merge(other.runs);
        self.cursor.merge(other.cursor);
    }

    /// Renders the statistics as the canonical one-line stderr trailer the
    /// `sweep` CLI and the `sweep serve` daemon print — the format
    /// documented field by field in the crate docs ("The stderr stats
    /// line").  Every consumer (the `sweep` CLI, the service daemon and
    /// client) goes through this one renderer so the line stays greppable
    /// across the whole stack.
    pub fn stats_line(&self) -> String {
        format!(
            "sweep stats: {} scenarios; knowledge analyses: {} requested, {} constructed, \
             {} served from cache (hit rate {:.1}%); run structures: {} simulated, \
             {} reused (reuse rate {:.1}%); scenarios: {} stepped in place, {} materialized, \
             {} patterns unranked (in-place rate {:.1}%)",
            self.scenarios,
            self.cache.lookups(),
            self.cache.constructions(),
            self.cache.constructions_avoided(),
            self.cache.hit_rate() * 100.0,
            self.runs.simulated,
            self.runs.reused,
            self.runs.reuse_rate() * 100.0,
            self.cursor.stepped,
            self.cursor.materialized,
            self.cursor.patterns_unranked,
            self.cursor.in_place_rate() * 100.0,
        )
    }
}

/// One unit of sweep work: a task instance plus the adversary to run it
/// against.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Position of this scenario in its source's enumeration order.
    pub index: usize,
    /// The task parameters `(n, t, k)` the scenario is executed under.
    pub params: TaskParams,
    /// Which agreement variant the scenario's checks should use.
    pub variant: TaskVariant,
    /// The adversary.
    pub adversary: Adversary,
    /// How many scenarios of the full scope this one stands for: the size
    /// of its failure pattern's relabeling orbit when the source lists one
    /// pattern per orbit, `1` otherwise.  The engine folds the scenario's
    /// outcome with this weight ([`Reducer::fold_weighted`]).
    pub weight: u64,
}

/// A deterministic, randomly-addressable stream of scenarios.
///
/// Random addressability (`scenario(index)` in roughly constant time) is
/// what lets shards seek to their slice of the space without replaying a
/// sequential generator; see `sweep::source` for the implementations.
pub trait ScenarioSource: Sync {
    /// Total number of scenarios.
    fn len(&self) -> usize;

    /// Returns `true` if the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the scenario at `index < len()`.
    ///
    /// # Errors
    ///
    /// Returns an error if the scenario cannot be constructed (a degenerate
    /// configuration, typically caught at source construction instead).
    fn scenario(&self, index: usize) -> Result<Scenario, ModelError>;

    /// The number of consecutive scenarios that share one communication
    /// structure (failure pattern), starting at every multiple of the
    /// returned value — `1` if scenarios have no such structure-major
    /// blocking.
    ///
    /// The engine aligns shard boundaries to multiples of this block so a
    /// worker's [`BatchRunner`] can reuse one simulated [`synchrony::Run`]
    /// structure across a whole block regardless of the `--shards` and
    /// `--threads` settings, and steps from one scenario of a block to the
    /// next with [`ScenarioSource::step_within_block`].  For a source that
    /// keeps the default step this is purely an efficiency hint: any value
    /// is correct (the fold never depends on shard boundaries), a
    /// misaligned value only costs extra simulations.
    fn structure_block(&self) -> usize {
        1
    }

    /// Turns `scenario`, the scenario just before `index` in the same
    /// structure block, into the scenario at `index` — the shard walk's
    /// step inside a block (see [`fold_shard_stats`]).
    ///
    /// The default rebuilds it through [`ScenarioSource::scenario`].
    /// `source::ExhaustiveSource` overrides it to rewrite only the input
    /// values, since a block shares its failure pattern and weight.  Either
    /// way the result must equal `scenario(index)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the scenario cannot be constructed (same
    /// conditions as [`ScenarioSource::scenario`]).
    fn step_within_block(&self, scenario: &mut Scenario, index: usize) -> Result<(), ModelError> {
        *scenario = self.scenario(index)?;
        Ok(())
    }
}

/// Folds per-scenario outcomes into a shard accumulator and merges shard
/// accumulators.
///
/// Implementations must satisfy `merge(fold(A), fold(B)) == fold(A ++ B)`
/// for consecutive slices `A`, `B` of the scenario order (concatenation
/// compatibility).  Together with the engine's contiguous sharding and
/// in-order merge, this makes the sweep result independent of the shard and
/// thread counts — the property the shard-determinism tests pin down.
/// Counters, histograms, keyed maxima/minima and keyed first-writer maps
/// all qualify; anything sensitive to global interleaving does not.
pub trait Reducer: Sync {
    /// Per-scenario outcome produced by the job closure.  `Clone`, so a
    /// weighted fold can repeat it.
    type Item: Send + Clone;
    /// Shard accumulator.
    type Acc: Send;

    /// The accumulator of an empty shard (the fold identity).
    fn empty(&self) -> Self::Acc;

    /// Folds one outcome into a shard accumulator.
    fn fold(&self, acc: &mut Self::Acc, item: Self::Item);

    /// Folds one outcome that stands for `weight` scenarios — the outcome
    /// of an orbit representative, weighted by its orbit size.
    ///
    /// The law is the default body: the result must equal `weight`
    /// repeated [`Reducer::fold`]s of the item (none for `weight = 0`).
    /// Override it only with something cheaper that obeys the law, such
    /// as multiplying counts and OR-ing flags once.
    fn fold_weighted(&self, acc: &mut Self::Acc, item: Self::Item, weight: u64) {
        if weight == 0 {
            return;
        }
        for _ in 1..weight {
            self.fold(acc, item.clone());
        }
        self.fold(acc, item);
    }

    /// Merges two adjacent shard accumulators (`left` covers earlier
    /// scenario indices).
    fn merge(&self, left: Self::Acc, right: Self::Acc) -> Self::Acc;
}

/// The largest shard count a partition may have.  A count that arrives from
/// outside — a `--shards` flag, a daemon job, a worker lease — is checked
/// against it ([`check_shard_count`]) before [`shard_ranges`] allocates one
/// range per shard.  Counts above a source's block count stay legal: the
/// trailing shards come out empty.
pub const MAX_SHARDS: usize = 65_536;

/// Returns `count` if it is at most `limit`; `what` names the counted
/// items in the error (`"shards"`, `"threads"`).
///
/// # Errors
///
/// Returns [`ModelError::InvalidTaskParameter`] for a larger count.
pub fn check_count(count: usize, limit: usize, what: &str) -> Result<usize, ModelError> {
    if count > limit {
        return Err(ModelError::InvalidTaskParameter {
            reason: format!("{count} {what} exceed the limit of {limit}"),
        });
    }
    Ok(count)
}

/// [`check_count`] of a shard count against [`MAX_SHARDS`].
///
/// # Errors
///
/// As [`check_count`].
pub fn check_shard_count(shards: usize) -> Result<usize, ModelError> {
    check_count(shards, MAX_SHARDS, "shards")
}

/// The largest thread count a caller may ask for.  A count that arrives
/// from outside is checked against it before any thread is spawned:
/// `--threads` by [`check_thread_count`], a daemon's `--workers` by
/// `service::ServeOptions::check_bounds`.  It also keeps
/// the default shard count (`4 × threads`) under [`MAX_SHARDS`].
pub const MAX_THREADS: usize = 1_024;

/// [`check_count`] of a thread count against [`MAX_THREADS`].
///
/// # Errors
///
/// As [`check_count`].
pub fn check_thread_count(threads: usize) -> Result<usize, ModelError> {
    check_count(threads, MAX_THREADS, "threads")
}

/// Splits `0..total` into `shards` contiguous ranges whose boundaries fall
/// on multiples of `block`, keeping the per-shard block counts near-equal.
///
/// With `block = 1` this is the classic near-equal partition.  With a
/// larger block — the structure-major case, where `block` consecutive
/// scenarios share one failure pattern — every shard starts at a fresh
/// pattern, so cutting the space never splits a reuse run across workers.
/// When there are fewer blocks than shards, trailing shards come out empty;
/// the fold is indifferent (a shard of an empty range folds to the reducer
/// identity).
///
/// Public because external shard schedulers (the `service` daemon) must cut
/// the space exactly as the in-process engine does: the per-shard
/// accumulator cache is keyed on shard boundaries, so both sides have to
/// agree on them bit-for-bit.
pub fn shard_ranges(total: usize, shards: usize, block: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1);
    let block = block.max(1);
    let blocks = total.div_ceil(block);
    let base = blocks / shards;
    let extra = blocks % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start_block = 0usize;
    for shard in 0..shards {
        let len = base + usize::from(shard < extra);
        let start = (start_block * block).min(total);
        let end = ((start_block + len) * block).min(total);
        ranges.push((start, end));
        start_block += len;
    }
    ranges
}

/// Version tag of the fold semantics of this engine: the enumeration
/// order, the shard-range computation and the reducer merge discipline.
///
/// Cached per-shard accumulators are only replayable while all three are
/// unchanged, so every persisted or cross-process shard-accumulator key
/// (see `service::fingerprint` in the `service` crate) embeds this value.
/// **Bump it whenever a change could alter any fold bit** — a new
/// enumeration order, a different shard alignment rule, a reducer-law
/// change — and every stale accumulator silently becomes a cache miss
/// instead of a wrong answer.
///
/// Version 3: Theorem 1 and omission sources list one failure pattern per
/// relabeling orbit, so their shard ranges index the reduced space.
pub const FOLD_SEMANTICS_VERSION: u32 = 3;

/// Snapshots a runner's cumulative counters so a per-shard delta can be
/// taken around one shard fold.
fn runner_counters(runner: &BatchRunner) -> (CacheStats, RunReuseStats) {
    (runner.analysis_stats(), runner.run_stats())
}

/// Folds the scenarios of one contiguous index range into a fresh
/// accumulator, using a caller-owned runner, and reports the statistics of
/// **this shard alone**: the runner's analysis and run-reuse counters are
/// snapshotted around the fold, so the numbers stay per-shard even on a
/// long-lived runner.
///
/// This is the single-shard kernel of every execution path: the worker
/// threads of [`sweep_with_stats`], the `service` daemon's persistent
/// worker pool and its remote `sweep worker` processes.  The walk builds
/// one scenario through [`ScenarioSource::scenario`] at the range start
/// and at each [`ScenarioSource::structure_block`] boundary, and reaches
/// every other index with [`ScenarioSource::step_within_block`].
///
/// # Errors
///
/// Returns the first job or source error of the range.
pub fn fold_shard_stats<S, R, F>(
    source: &S,
    reducer: &R,
    job: &F,
    runner: &mut BatchRunner,
    range: (usize, usize),
) -> Result<(R::Acc, SweepStats), ModelError>
where
    S: ScenarioSource + ?Sized,
    R: Reducer,
    F: Fn(&mut BatchRunner, &Scenario) -> Result<R::Item, ModelError>,
{
    let before = runner_counters(runner);
    let block = source.structure_block().max(1);
    let mut acc = reducer.empty();
    let mut cursor = CursorStats::default();
    let mut current: Option<Scenario> = None;
    for index in range.0..range.1 {
        let scenario = match current.as_mut() {
            Some(scenario) if index % block != 0 => {
                source.step_within_block(scenario, index)?;
                cursor.stepped += 1;
                scenario
            }
            _ => {
                cursor.materialized += 1;
                cursor.patterns_unranked += u64::from(block > 1);
                current.insert(source.scenario(index)?)
            }
        };
        reducer.fold_weighted(&mut acc, job(runner, scenario)?, scenario.weight);
    }
    let after = runner_counters(runner);
    let stats = SweepStats {
        scenarios: (range.1 - range.0) as u64,
        cache: CacheStats {
            hits: after.0.hits - before.0.hits,
            misses: after.0.misses - before.0.misses,
        },
        runs: RunReuseStats {
            simulated: after.1.simulated - before.1.simulated,
            reused: after.1.reused - before.1.reused,
        },
        cursor,
    };
    Ok((acc, stats))
}

/// Runs `job` on every scenario of `source` and folds the outcomes with
/// `reducer`.
///
/// Equivalent to [`sweep_with_stats`] with the statistics discarded.
///
/// # Errors
///
/// Returns the job or source error of the lowest-indexed failing shard;
/// remaining shards are abandoned as soon as possible.
pub fn sweep<S, R, F>(
    source: &S,
    config: &SweepConfig,
    reducer: &R,
    job: F,
) -> Result<R::Acc, ModelError>
where
    S: ScenarioSource + ?Sized,
    R: Reducer,
    F: Fn(&mut BatchRunner, &Scenario) -> Result<R::Item, ModelError> + Sync,
{
    sweep_with_stats(source, config, reducer, job).map(|(acc, _)| acc)
}

/// Runs `job` on every scenario of `source`, folds the outcomes with
/// `reducer`, and reports execution statistics (scenario, analysis,
/// run-structure-reuse and scenario-production counters) alongside the fold.
///
/// The scenario space is partitioned into [`SweepConfig::resolved_shards`]
/// contiguous shards, with boundaries aligned to the source's
/// [`ScenarioSource::structure_block`]; workers *steal* shards from a
/// shared queue (an atomic cursor), so a slow shard never idles the other
/// workers.  The calling thread is the first worker: it spawns only
/// `min(threads, shards) − 1` helpers, and none at one thread.  Each worker
/// owns a [`BatchRunner`] — with per-node analysis slots refilled in place
/// and run-structure reuse across same-pattern scenarios — so
/// run/transcript/analysis buffers and whole communication structures are
/// reused across every scenario the worker executes.  Each shard is walked
/// by [`fold_shard_stats`], which builds one scenario per structure block
/// and steps the rest in place.  Shard accumulators are merged in shard
/// order, which — given the [`Reducer`] laws — makes the fold identical for
/// every shard/thread count, including the fully sequential path; only the
/// statistics may differ between parallelisms.
///
/// This is the one-source case of the parallel region behind
/// `experiments::fold_cases`, which drains the shards of every case of a
/// query from one queue.
///
/// # Errors
///
/// Returns the job or source error of the lowest-indexed failing shard;
/// remaining shards are abandoned as soon as possible.
pub fn sweep_with_stats<S, R, F>(
    source: &S,
    config: &SweepConfig,
    reducer: &R,
    job: F,
) -> Result<(R::Acc, SweepStats), ModelError>
where
    S: ScenarioSource + ?Sized,
    R: Reducer,
    F: Fn(&mut BatchRunner, &Scenario) -> Result<R::Item, ModelError> + Sync,
{
    let mut folds = fold_region::<_, S, _, _, _>(1, |_| Ok(source), config, reducer, &job)?;
    let (_, acc, stats) = folds.pop().expect("one case folded");
    Ok((acc, stats))
}

/// Folds `cases` scenario sources with one reducer and one job in a single
/// parallel region, and returns each case's source, fold and statistics in
/// case order.
///
/// The region runs on the calling thread plus `min(threads, cases ×
/// shards) − 1` helpers (none at one thread), in two phases on the same
/// workers:
///
/// 1. the workers build the case sources (`build(case)`) and cut their
///    shard ranges, taking cases from an atomic cursor;
/// 2. they drain one queue of every `(case, shard)` pair in that order,
///    each folding through [`fold_shard_stats`] on a [`BatchRunner`] it
///    keeps across the shards of a case.  A pair whose source another
///    worker is still building waits for it.
///
/// Every case cuts [`SweepConfig::resolved_shards`] shards with
/// [`shard_ranges`] and merges its shard accumulators in shard order, so
/// each fold is the one a per-case [`sweep_with_stats`] makes.
///
/// # Errors
///
/// Returns the error of the lowest failing `(case, shard)`, a case's
/// source error counting before its shard errors; work past a known error
/// is skipped.
pub(crate) fn fold_region<T, S, R, F, B>(
    cases: usize,
    build: B,
    config: &SweepConfig,
    reducer: &R,
    job: &F,
) -> Result<Vec<(T, R::Acc, SweepStats)>, ModelError>
where
    T: Borrow<S> + Send + Sync,
    S: ScenarioSource + ?Sized,
    R: Reducer,
    F: Fn(&mut BatchRunner, &Scenario) -> Result<R::Item, ModelError> + Sync,
    B: Fn(usize) -> Result<T, ModelError> + Sync,
{
    let shards = config.resolved_shards();
    let tasks = cases * shards;
    // Work keys order errors: case `c`'s source is key `c · (shards + 1)`,
    // and its shard `s` the key `s + 1` above it.
    let key = |case: usize, slot: usize| case * (shards + 1) + slot;
    // Each case's source and shard ranges (`None`: the build failed),
    // and each pair's shard fold.
    let sources: Vec<OnceLock<_>> = (0..cases).map(|_| OnceLock::new()).collect();
    let folded = Mutex::new((0..tasks).map(|_| None).collect::<Vec<_>>());
    let first_error: Mutex<Option<(usize, ModelError)>> = Mutex::new(None);
    // The lowest key known to fail; no work above it is started.
    let bound = AtomicUsize::new(usize::MAX);
    let (next_case, next_task) = (AtomicUsize::new(0), AtomicUsize::new(0));

    let fail = |at: usize, error: ModelError| {
        let mut slot = first_error.lock().expect("sweep error lock");
        if slot.as_ref().is_none_or(|(k, _)| at < *k) {
            *slot = Some((at, error));
        }
        bound.fetch_min(at, Ordering::Relaxed);
    };
    let source_of = |case: usize| {
        let built = sources[case].get_or_init(|| match build(case) {
            Ok(owned) => {
                let source = owned.borrow();
                let ranges = shard_ranges(source.len(), shards, source.structure_block());
                Some((owned, ranges))
            }
            Err(error) => {
                fail(key(case, 0), error);
                None
            }
        });
        built.as_ref()
    };
    let work = || {
        loop {
            let case = next_case.fetch_add(1, Ordering::Relaxed);
            if case >= cases || key(case, 0) > bound.load(Ordering::Relaxed) {
                break;
            }
            source_of(case);
        }
        let (mut runner, mut runner_case) = (BatchRunner::new(), None);
        loop {
            let task = next_task.fetch_add(1, Ordering::Relaxed);
            let (case, shard) = (task / shards, task % shards);
            let at = key(case, shard + 1);
            if task >= tasks || at > bound.load(Ordering::Relaxed) {
                break;
            }
            // A new case starts a new runner, so the work counters at one
            // thread are those of a per-case `sweep_with_stats`.
            if runner_case.replace(case).is_some_and(|last| last != case) {
                runner = BatchRunner::new();
            }
            // `None`: the source failed, and the bound already stops here.
            let Some((source, ranges)) = source_of(case) else { continue };
            match fold_shard_stats(source.borrow(), reducer, job, &mut runner, ranges[shard]) {
                Ok(shard_fold) => {
                    folded.lock().expect("sweep outcome lock")[task] = Some(shard_fold)
                }
                Err(error) => fail(at, error),
            }
        }
    };

    let workers = config.resolved_threads().min(tasks);
    if workers <= 1 {
        work();
    } else {
        thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });
    }
    if let Some((_, error)) = first_error.into_inner().expect("sweep error lock") {
        return Err(error);
    }

    // Merge each case in shard order: the only order the `Reducer` laws
    // cover.
    let mut folded = folded.into_inner().expect("sweep outcome lock").into_iter();
    let mut folds = Vec::with_capacity(cases);
    for built in sources {
        let (source, _) = built.into_inner().flatten().expect("every source built");
        let mut acc = reducer.empty();
        let mut stats = SweepStats::default();
        for slot in folded.by_ref().take(shards) {
            let (shard_acc, shard_stats) = slot.expect("every shard folded");
            acc = reducer.merge(acc, shard_acc);
            stats.merge(shard_stats);
        }
        folds.push((source, acc, stats));
    }
    Ok(folds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::Count;
    use synchrony::{InputVector, SystemParams};

    /// `len` copies of one failure-free scenario whose walk fails at the
    /// indices `fails`, naming its case and the index in the error.
    struct Faulty {
        case: usize,
        len: usize,
        fails: &'static [usize],
    }

    fn fault(reason: String) -> ModelError {
        ModelError::InvalidTaskParameter { reason }
    }

    impl ScenarioSource for Faulty {
        fn len(&self) -> usize {
            self.len
        }

        fn scenario(&self, index: usize) -> Result<Scenario, ModelError> {
            if self.fails.contains(&index) {
                return Err(fault(format!("case {} scenario {index}", self.case)));
            }
            Ok(Scenario {
                index,
                params: TaskParams::new(SystemParams::new(3, 1)?, 1)?,
                variant: TaskVariant::Nonuniform,
                adversary: Adversary::failure_free(InputVector::from_values([0, 1, 1]))?,
                weight: 1,
            })
        }
    }

    /// Each plan lists per case whether its source fails to build and which
    /// scenarios fail in its shards (40 scenarios, shards of 10), with the
    /// error the region must return.
    #[test]
    fn a_region_returns_the_error_of_its_lowest_failing_case_and_shard() {
        type Plan = &'static [(bool, &'static [usize])];
        let plans: [(Plan, Option<&str>); 5] = [
            (&[(false, &[]), (false, &[25, 7]), (true, &[])], Some("case 1 scenario 7")),
            (&[(false, &[]), (true, &[]), (false, &[0])], Some("case 1 source")),
            (&[(false, &[39]), (true, &[]), (false, &[0])], Some("case 0 scenario 39")),
            (&[(false, &[]), (false, &[]), (true, &[])], Some("case 2 source")),
            (&[(false, &[]), (false, &[]), (false, &[])], None),
        ];
        for (plan, expected) in plans {
            for threads in [1, 3] {
                let config = SweepConfig { shards: 4, threads, ..SweepConfig::default() };
                let build = |case: usize| match plan[case] {
                    (true, _) => Err(fault(format!("case {case} source"))),
                    (false, fails) => Ok(Faulty { case, len: 40, fails }),
                };
                let job = |_: &mut BatchRunner, _: &Scenario| Ok(1);
                let folded =
                    fold_region::<_, Faulty, _, _, _>(plan.len(), build, &config, &Count, &job);
                match (folded, expected) {
                    (Err(ModelError::InvalidTaskParameter { reason }), Some(expected)) => {
                        assert_eq!(reason, expected, "{plan:?} at {threads} threads");
                    }
                    (Ok(folds), None) => {
                        let counts: Vec<u64> = folds.iter().map(|(_, acc, _)| *acc).collect();
                        assert_eq!(counts, [40, 40, 40], "{plan:?} at {threads} threads");
                    }
                    (other, _) => panic!("{plan:?} at {threads} threads: {:?}", other.map(|_| ())),
                }
            }
        }
    }

    /// The caller is a worker: a sweep that needs one worker runs every job
    /// on the calling thread.
    #[test]
    fn a_one_worker_sweep_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let source = Faulty { case: 0, len: 12, fails: &[] };
        for config in [
            SweepConfig { shards: 3, threads: 1, ..SweepConfig::default() },
            SweepConfig { shards: 1, threads: 4, ..SweepConfig::default() },
        ] {
            let (count, _) = sweep_with_stats(&source, &config, &Count, |_, _| {
                assert_eq!(thread::current().id(), caller, "{config:?}");
                Ok(1)
            })
            .unwrap();
            assert_eq!(count, 12);
        }
    }

    #[test]
    fn shard_ranges_cover_the_space_contiguously() {
        for total in [0usize, 1, 7, 64, 65] {
            for shards in [1usize, 2, 3, 8, 100] {
                let ranges = shard_ranges(total, shards, 1);
                assert_eq!(ranges.len(), shards);
                assert_eq!(ranges.first().unwrap().0, 0);
                assert_eq!(ranges.last().unwrap().1, total);
                for window in ranges.windows(2) {
                    assert_eq!(window[0].1, window[1].0);
                }
                let sizes: Vec<usize> = ranges.iter().map(|(s, e)| e - s).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced shards: {sizes:?}");
            }
        }
    }

    #[test]
    fn shard_ranges_align_to_structure_blocks() {
        for (total, block) in [(64usize, 8usize), (65, 8), (7, 16), (120, 5), (33, 1)] {
            for shards in [1usize, 2, 3, 8, 100] {
                let ranges = shard_ranges(total, shards, block);
                assert_eq!(ranges.len(), shards);
                assert_eq!(ranges.first().unwrap().0, 0);
                assert_eq!(ranges.last().unwrap().1, total);
                for window in ranges.windows(2) {
                    assert_eq!(window[0].1, window[1].0, "shards must stay contiguous");
                }
                for &(start, end) in &ranges {
                    assert!(
                        start % block == 0 || start == total,
                        "shard start {start} must open a fresh block (or be empty at the end)"
                    );
                    assert!(
                        end % block == 0 || end == total,
                        "shard end {end} must close a block (or the space)"
                    );
                }
                // Near-equal in *blocks*, not scenarios.
                let block_counts: Vec<usize> =
                    ranges.iter().map(|(s, e)| (e - s).div_ceil(block)).collect();
                let (min, max) =
                    (block_counts.iter().min().unwrap(), block_counts.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced block counts: {block_counts:?}");
            }
        }
    }

    #[test]
    fn config_resolution_defaults_are_sane() {
        let config = SweepConfig::default();
        assert!(config.resolved_threads() >= 1);
        assert_eq!(config.resolved_shards(), config.resolved_threads() * 4);
        assert_eq!(SweepConfig::sequential().resolved_threads(), 1);
        assert_eq!(SweepConfig::sequential().resolved_shards(), 1);
    }

    #[test]
    fn sweep_stats_merge_adds_counters() {
        let mut stats = SweepStats {
            scenarios: 3,
            cache: CacheStats { hits: 1, misses: 2 },
            runs: RunReuseStats { simulated: 1, reused: 4 },
            cursor: CursorStats { materialized: 1, stepped: 2, patterns_unranked: 1 },
        };
        stats.merge(SweepStats {
            scenarios: 4,
            cache: CacheStats { hits: 10, misses: 20 },
            runs: RunReuseStats { simulated: 2, reused: 8 },
            cursor: CursorStats { materialized: 1, stepped: 3, patterns_unranked: 2 },
        });
        assert_eq!(stats.scenarios, 7);
        assert_eq!(stats.cache, CacheStats { hits: 11, misses: 22 });
        assert_eq!(stats.runs, RunReuseStats { simulated: 3, reused: 12 });
        assert_eq!(stats.cursor, CursorStats { materialized: 2, stepped: 5, patterns_unranked: 3 });
    }

    #[test]
    fn cursor_stats_rates_are_well_defined() {
        assert_eq!(CursorStats::default().in_place_rate(), 0.0);
        let stats = CursorStats { materialized: 1, stepped: 3, patterns_unranked: 1 };
        assert!((stats.in_place_rate() - 0.75).abs() < 1e-12);
    }
}
