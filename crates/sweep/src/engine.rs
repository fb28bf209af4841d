//! The sharded, work-stealing sweep loop.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
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
/// owns a [`BatchRunner`] (view-keyed analysis cache, run-structure reuse)
/// and walks its shards through [`ScenarioSource::cursor`].
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
/// job, summed over every shard cursor.
///
/// This is [`adversary::enumerate::CursorCounters`] — one definition for
/// the whole stack, read here as "scenarios" rather than "adversaries".
/// For a block-cursor source, steady state means **zero per-scenario
/// pattern/input allocations**: `materialized` equals the number of
/// non-empty shards (one wholesale construction each), `patterns_unranked`
/// the number of structure blocks, and every other scenario is `stepped` in
/// place.  For sources without an in-place representation every scenario
/// counts as `materialized`, the per-index [`ScenarioSource::scenario`]
/// cost.
pub use adversary::enumerate::CursorCounters as CursorStats;

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
    /// Knowledge-analysis cache counters summed over the per-worker caches
    /// (all zeros for jobs that never request an analysis).
    pub cache: CacheStats,
    /// Run-structure simulation counters summed over the per-worker
    /// runners: how many communication structures were simulated vs. reused
    /// outright across input vectors.
    pub runs: RunReuseStats,
    /// Scenario-production counters summed over the per-shard cursors: how
    /// many scenarios were materialized wholesale vs. stepped in place, and
    /// how many failure patterns were unranked.
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
    /// `--threads` settings.  Purely an efficiency hint: any value is
    /// correct (the fold never depends on shard boundaries), a misaligned
    /// value only costs extra simulations.
    fn structure_block(&self) -> usize {
        1
    }

    /// Returns a cursor over the half-open index range `start..end` — the
    /// engine's shard access path.
    ///
    /// The default implementation materializes each scenario through
    /// [`ScenarioSource::scenario`] (counting it in
    /// [`CursorStats::materialized`]), so any source gets a correct cursor
    /// for free.  Sources with an in-place representation override it:
    /// `source::ExhaustiveSource` wraps the block cursor of
    /// `adversary::enumerate::AdversarySpace`, which unranks the failure
    /// pattern once per structure block and then only steps the mixed-radix
    /// input code inside the worker's scratch scenario.  Either way the
    /// yielded sequence must be identical to `scenario(start..end)`: the
    /// cursor changes how fast a shard is walked, never what it folds.
    fn cursor(&self, start: usize, end: usize) -> Box<dyn ScenarioCursor + '_> {
        Box::new(NthCursor {
            source: self,
            next: start,
            end: end.min(self.len()),
            stats: CursorStats::default(),
        })
    }
}

/// A position-tracking producer of consecutive scenarios that writes into a
/// caller-owned scratch slot instead of returning fresh allocations — see
/// [`ScenarioSource::cursor`].
pub trait ScenarioCursor {
    /// Writes the next scenario of the range into `scratch` and returns
    /// `true`, or returns `false` (leaving `scratch` untouched) once the
    /// range is exhausted.
    ///
    /// A `None` scratch is populated on the first call; a `Some` scratch is
    /// either stepped in place (block-cursor sources) or overwritten.  The
    /// caller must not modify the scratch between calls.
    ///
    /// # Errors
    ///
    /// Returns an error if the scenario cannot be constructed (same
    /// conditions as [`ScenarioSource::scenario`]).
    fn next(&mut self, scratch: &mut Option<Scenario>) -> Result<bool, ModelError>;

    /// Returns the production counters accumulated by this cursor.
    fn stats(&self) -> CursorStats;
}

/// The fallback cursor behind the default [`ScenarioSource::cursor`]:
/// materializes every scenario per index.
struct NthCursor<'a, S: ?Sized> {
    source: &'a S,
    next: usize,
    end: usize,
    stats: CursorStats,
}

impl<S: ScenarioSource + ?Sized> ScenarioCursor for NthCursor<'_, S> {
    fn next(&mut self, scratch: &mut Option<Scenario>) -> Result<bool, ModelError> {
        if self.next >= self.end {
            return Ok(false);
        }
        *scratch = Some(self.source.scenario(self.next)?);
        self.next += 1;
        self.stats.materialized += 1;
        Ok(true)
    }

    fn stats(&self) -> CursorStats {
        self.stats
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
    /// Per-scenario outcome produced by the job closure.
    type Item: Send;
    /// Shard accumulator.
    type Acc: Send;

    /// The accumulator of an empty shard (the fold identity).
    fn empty(&self) -> Self::Acc;

    /// Folds one outcome into a shard accumulator.
    fn fold(&self, acc: &mut Self::Acc, item: Self::Item);

    /// Merges two adjacent shard accumulators (`left` covers earlier
    /// scenario indices).
    fn merge(&self, left: Self::Acc, right: Self::Acc) -> Self::Acc;
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
pub const FOLD_SEMANTICS_VERSION: u32 = 2;

/// Snapshots a runner's cumulative counters so a per-shard delta can be
/// taken around one shard fold.
fn runner_counters(runner: &BatchRunner) -> (CacheStats, RunReuseStats) {
    (runner.cache().stats(), runner.run_stats())
}

/// Folds the scenarios of one contiguous index range into a fresh
/// accumulator, using a caller-owned runner and scratch slot, and reports
/// the statistics of **this shard alone**: the runner's cache and
/// run-reuse counters are snapshotted around the fold, so the numbers stay
/// per-shard even on a long-lived runner.
///
/// This is the single-shard kernel of every execution path: the worker
/// threads of [`sweep_with_stats`], the `service` daemon's persistent
/// worker pool and its remote `sweep worker` processes.  The range is
/// walked through the source's [`ScenarioSource::cursor`].
///
/// # Errors
///
/// Returns the first job or source error of the range.
pub fn fold_shard_stats<S, R, F>(
    source: &S,
    reducer: &R,
    job: &F,
    runner: &mut BatchRunner,
    scratch: &mut Option<Scenario>,
    range: (usize, usize),
) -> Result<(R::Acc, SweepStats), ModelError>
where
    S: ScenarioSource + ?Sized,
    R: Reducer,
    F: Fn(&mut BatchRunner, &Scenario) -> Result<R::Item, ModelError>,
{
    let before = runner_counters(runner);
    let mut acc = reducer.empty();
    let mut cursor = source.cursor(range.0, range.1);
    while cursor.next(scratch)? {
        let scenario = scratch.as_ref().expect("the cursor just yielded a scenario");
        reducer.fold(&mut acc, job(runner, scenario)?);
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
        cursor: cursor.stats(),
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
/// `reducer`, and reports execution statistics (scenario, analysis-cache,
/// run-structure-reuse and scenario-cursor counters) alongside the fold.
///
/// The scenario space is partitioned into [`SweepConfig::resolved_shards`]
/// contiguous shards, with boundaries aligned to the source's
/// [`ScenarioSource::structure_block`]; worker threads *steal* shards from
/// a shared queue (an atomic cursor), so a slow shard never idles the other
/// workers.  Each worker owns a [`BatchRunner`] — with a cross-adversary
/// [`knowledge::AnalysisCache`] and run-structure reuse across same-pattern
/// scenarios — so run/transcript buffers, cached view analyses and whole
/// communication structures are reused across every scenario the worker
/// executes.  Each shard is walked through the source's
/// [`ScenarioSource::cursor`] into a per-worker scratch [`Scenario`], so
/// block-cursor sources materialize nothing per scenario in steady state.
/// Shard accumulators are merged in shard order, which — given the
/// [`Reducer`] laws — makes the fold identical for every shard/thread
/// count, including the fully sequential path; only the statistics may
/// differ between parallelisms.
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
    let threads = config.resolved_threads();
    let ranges = shard_ranges(source.len(), config.resolved_shards(), source.structure_block());
    let fold = |runner: &mut BatchRunner, scratch: &mut Option<Scenario>, shard: usize| {
        fold_shard_stats(source, reducer, &job, runner, scratch, ranges[shard])
    };

    let mut folded: Vec<Option<(R::Acc, SweepStats)>> = (0..ranges.len()).map(|_| None).collect();
    if threads <= 1 || ranges.len() <= 1 {
        let mut runner = BatchRunner::new();
        let mut scratch = None;
        for (shard, slot) in folded.iter_mut().enumerate() {
            *slot = Some(fold(&mut runner, &mut scratch, shard)?);
        }
    } else {
        let next_shard = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let slots = Mutex::new(&mut folded);
        let first_error: Mutex<Option<(usize, ModelError)>> = Mutex::new(None);

        thread::scope(|scope| {
            for _ in 0..threads.min(ranges.len()) {
                scope.spawn(|| {
                    let mut runner = BatchRunner::new();
                    let mut scratch = None;
                    loop {
                        if failed.load(Ordering::Relaxed) {
                            break;
                        }
                        let shard = next_shard.fetch_add(1, Ordering::Relaxed);
                        if shard >= ranges.len() {
                            break;
                        }
                        match fold(&mut runner, &mut scratch, shard) {
                            Ok(shard_fold) => {
                                slots.lock().expect("sweep outcome lock")[shard] = Some(shard_fold);
                            }
                            Err(error) => {
                                failed.store(true, Ordering::Relaxed);
                                let mut slot = first_error.lock().expect("sweep error lock");
                                if slot.as_ref().is_none_or(|(s, _)| shard < *s) {
                                    *slot = Some((shard, error));
                                }
                            }
                        }
                    }
                });
            }
        });

        if let Some((_, error)) = first_error.into_inner().expect("sweep error lock") {
            return Err(error);
        }
    }

    // Merge in shard order: the only order the `Reducer` laws cover.
    let mut acc = reducer.empty();
    let mut stats = SweepStats::default();
    for slot in folded {
        let (shard_acc, shard_stats) = slot.expect("every shard folded");
        acc = reducer.merge(acc, shard_acc);
        stats.merge(shard_stats);
    }
    Ok((acc, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(CursorStats::default().total(), 0);
        let stats = CursorStats { materialized: 1, stepped: 3, patterns_unranked: 1 };
        assert_eq!(stats.total(), 4);
        assert!((stats.in_place_rate() - 0.75).abs() < 1e-12);
    }
}
