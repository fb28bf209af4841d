//! Shard-determinism contract of the sweep engine: for a fixed seed and
//! scenario family, the fold result is identical for every shard and thread
//! count (1, 2 and 8 shards) — and the engine's reused runner (analysis
//! cache, run-structure reuse, block cursor) produces exactly the
//! transcripts of one-shot `set_consensus::execute`.

use std::collections::BTreeSet;

use adversary::enumerate::{AdversarySpace, EnumerationConfig};
use adversary::{OmissionConfig, RandomConfig};
use knowledge::ViewAnalysis;
use set_consensus::{
    check, execute, EarlyFloodMin, FloodMin, Optmin, Protocol, TaskParams, TaskVariant, UPmin,
};
use sweep::experiments;
use sweep::reduce::{Count, DecisionTimeHistogram};
use sweep::source::{ExhaustiveSource, RandomSource};
use sweep::{shard_ranges, sweep, sweep_with_stats, ScenarioSource, SweepConfig};
use synchrony::{Node, SystemParams, Time};

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn exhaustive_source() -> ExhaustiveSource {
    let scope = EnumerationConfig::small(3, 1, 1);
    let params = TaskParams::new(SystemParams::new(3, 1).unwrap(), 1).unwrap();
    ExhaustiveSource::new(AdversarySpace::new(scope).unwrap(), params, TaskVariant::Nonuniform)
        .unwrap()
}

fn omission_exhaustive_source() -> ExhaustiveSource {
    let scope = OmissionConfig::small(3, 1, 1);
    let params = TaskParams::new(SystemParams::new(3, 1).unwrap(), 1).unwrap();
    ExhaustiveSource::new(AdversarySpace::omission(scope).unwrap(), params, TaskVariant::Nonuniform)
        .unwrap()
}

fn random_source(seed: u64) -> RandomSource {
    let params = TaskParams::new(SystemParams::new(6, 3).unwrap(), 2).unwrap();
    RandomSource::new(RandomConfig::new(6, 3, 2), params, TaskVariant::Uniform, seed, 120)
}

/// The same exhaustive family folds to the same decision-time histogram for
/// 1, 2 and 8 shards, at every thread count.
#[test]
fn exhaustive_histogram_is_shard_invariant() {
    let source = exhaustive_source();
    let job = |runner: &mut set_consensus::BatchRunner, scenario: &sweep::Scenario| {
        let (run, transcript) =
            runner.execute_one(&Optmin, &scenario.params, &scenario.adversary)?;
        Ok((0..run.n())
            .filter_map(|i| transcript.decision_time(i).map(Time::value))
            .max()
            .unwrap_or(0))
    };
    let reference =
        sweep(&source, &SweepConfig::sequential(), &DecisionTimeHistogram, job).unwrap();
    assert!(!reference.is_empty());
    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            let config = SweepConfig { shards, threads, ..SweepConfig::default() };
            let fold = sweep(&source, &config, &DecisionTimeHistogram, job).unwrap();
            assert_eq!(fold, reference, "histogram diverged at shards={shards}, threads={threads}");
        }
    }
}

/// The same seed over a random family folds identically for 1, 2 and 8
/// shards; a different seed folds differently.
#[test]
fn random_family_fold_is_seed_deterministic_and_shard_invariant() {
    let job = |runner: &mut set_consensus::BatchRunner, scenario: &sweep::Scenario| {
        let (run, transcript) =
            runner.execute_one(&UPmin, &scenario.params, &scenario.adversary)?;
        let violations =
            check::check(run, transcript, &scenario.params, scenario.variant).len() as u64;
        // Mix failure counts into the fold so it is sensitive to which
        // adversaries were actually generated, not just to correctness.
        Ok(violations * 1_000_000 + run.num_failures() as u64)
    };
    let reference = sweep(&random_source(42), &SweepConfig::sequential(), &Count, job).unwrap();
    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            let config = SweepConfig { shards, threads, seed: 42 };
            let fold = sweep(&random_source(42), &config, &Count, job).unwrap();
            assert_eq!(
                fold, reference,
                "random fold diverged at shards={shards}, threads={threads}"
            );
        }
    }
    let other_seed = sweep(&random_source(43), &SweepConfig::sequential(), &Count, job).unwrap();
    assert_ne!(reference, other_seed, "distinct seeds should explore distinct spaces");
}

/// The ported experiments themselves are shard- and thread-invariant (the
/// acceptance criterion behind `sweep <exp> --threads 1` matching any other
/// parallelism).  Fig. 4 and Theorem 3 are the cheap ones; Theorem 1 and
/// Proposition 2 are covered by the same engine path.
#[test]
fn ported_experiments_are_parallelism_invariant() {
    let sequential = SweepConfig::sequential();
    let fig4_reference = experiments::fig4(&sequential).unwrap();
    let thm3_reference = experiments::thm3(&sequential).unwrap();
    for shards in SHARD_COUNTS {
        let config = SweepConfig { shards, threads: 4, ..SweepConfig::default() };
        assert_eq!(experiments::fig4(&config).unwrap(), fig4_reference);
        assert_eq!(experiments::thm3(&config).unwrap(), thm3_reference);
    }
}

/// Sampled indices of an exhaustive source for the one-shot oracle: the
/// first, middle and last index of 17 pattern blocks spread evenly over
/// the space (the first and last block included), plus both ends of every
/// shard of `config`'s partition.
fn oracle_indices(source: &ExhaustiveSource, config: &SweepConfig) -> BTreeSet<usize> {
    const SPREAD: usize = 16;
    let (total, block) = (source.len(), source.structure_block());
    let blocks = total.div_ceil(block);
    let mut indices = BTreeSet::new();
    for step in 0..=SPREAD {
        let start = step * (blocks - 1) / SPREAD * block;
        let end = (start + block).min(total);
        indices.extend([start, start + (end - start) / 2, end - 1]);
    }
    for (start, end) in shard_ranges(total, config.resolved_shards(), block) {
        if start < end {
            indices.extend([start, end - 1]);
        }
    }
    indices
}

/// The one-shot oracle: on every built-in Theorem 1 and omission scope,
/// the transcripts the engine's reused runner produces at the sampled
/// indices equal one-shot `execute` on `source.scenario(i)` for Optmin,
/// EarlyFloodMin and FloodMin.  The runner's analysis-cache handle — warmed
/// by every pattern the worker swept before — must also agree with
/// `ViewAnalysis::new` at every active node there.  On the side, the whole
/// sweep simulates and unranks each failure pattern exactly once.
#[test]
fn reused_runner_matches_one_shot_execute_on_every_builtin_scope() {
    let config = SweepConfig { shards: 7, threads: 2, ..SweepConfig::default() };
    let mut sources = Vec::new();
    for (n, t, k) in experiments::THM1_CASES {
        let source = experiments::thm1_source(experiments::thm1_scope(n, t, k), k).unwrap();
        sources.push((format!("crash ({n},{t},{k})"), source));
    }
    for (n, t, k) in experiments::OMISSION_CASES {
        let source = experiments::omission_source(experiments::omission_scope(n, t, k), k).unwrap();
        sources.push((format!("omission ({n},{t},{k})"), source));
    }

    for (label, source) in &sources {
        let samples = oracle_indices(source, &config);
        let job = |runner: &mut set_consensus::BatchRunner, scenario: &sweep::Scenario| {
            let protocols: [&dyn Protocol; 3] = [&Optmin, &EarlyFloodMin, &FloodMin];
            let analyzer = runner.cache().clone();
            let (run, transcripts) =
                runner.execute_batch(&protocols, &scenario.params, &scenario.adversary)?;
            if !samples.contains(&scenario.index) {
                return Ok(0);
            }
            let index = scenario.index;
            let oracle = source.scenario(index)?;
            assert_eq!(scenario.adversary, oracle.adversary, "{label}: cursor ≠ scenario({index})");
            for (protocol, transcript) in protocols.iter().zip(transcripts) {
                let (_, expected) = execute(*protocol, &oracle.params, oracle.adversary.clone())?;
                assert_eq!(transcript, &expected, "{label}: {} at {index}", protocol.name());
            }
            for m in 0..=run.horizon().index() {
                let time = Time::new(m as u32);
                for i in (0..run.n()).filter(|&i| run.is_active(i, time)) {
                    let node = Node::new(i, time);
                    let expected = ViewAnalysis::new(run, node)?;
                    assert_eq!(
                        analyzer.analyze(run, node)?,
                        expected,
                        "{label}: {node} at {index}"
                    );
                }
            }
            Ok(1)
        };
        let (checked, stats) = sweep_with_stats(source, &config, &Count, job).unwrap();
        assert_eq!(checked, samples.len() as u64, "{label}: every sample was checked");
        let patterns = source.space().num_patterns() as u64;
        assert_eq!(stats.runs.simulated, patterns, "{label}: one simulation per pattern");
        assert_eq!(stats.cursor.patterns_unranked, patterns, "{label}: one unranking per pattern");
    }
}

/// The engine's counter invariants at every shard/thread count: pattern-
/// aligned shard boundaries keep every pattern block in one shard, so the
/// sweep simulates and unranks each failure pattern exactly once, and the
/// block cursor materializes one scenario wholesale per non-empty shard
/// and steps every other one in place.
#[test]
fn engine_counters_hold_at_every_parallelism() {
    let source = exhaustive_source();
    let patterns = source.space().num_patterns() as u64;
    let block = source.structure_block();
    let total = ScenarioSource::len(&source);
    assert_eq!(patterns * source.space().inputs_per_pattern() as u64, total as u64);

    let job = |runner: &mut set_consensus::BatchRunner, scenario: &sweep::Scenario| {
        runner.execute_one(&Optmin, &scenario.params, &scenario.adversary)?;
        Ok(runner.count_violations(&scenario.params, scenario.variant))
    };
    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            let config = SweepConfig { shards, threads, ..SweepConfig::default() };
            let (violations, stats) = sweep_with_stats(&source, &config, &Count, job).unwrap();
            assert_eq!(violations, 0);
            let at = format!("shards={shards}, threads={threads}");
            assert_eq!(stats.scenarios, total as u64, "{at}");
            assert_eq!(stats.runs.simulated, patterns, "{at} split a pattern block");
            assert_eq!(stats.runs.reused, total as u64 - patterns, "{at}");
            let nonempty_shards =
                shard_ranges(total, shards, block).iter().filter(|(s, e)| s < e).count() as u64;
            assert_eq!(stats.cursor.materialized, nonempty_shards, "{at}");
            assert_eq!(stats.cursor.patterns_unranked, patterns, "{at}");
            assert_eq!(stats.cursor.stepped, total as u64 - nonempty_shards, "{at}");
        }
    }
}

/// Cross-space determinism: the shard×thread bit-identity matrix holds for
/// **both** pattern spaces under the real Theorem-1 fold.  A third pattern
/// space joins the matrix by adding one line to the source list.
#[test]
fn both_pattern_spaces_fold_shard_invariantly() {
    use sweep::experiments::{thm1_job, Thm1Reducer};

    for (label, source) in
        [("crash", exhaustive_source()), ("omission", omission_exhaustive_source())]
    {
        let reference = sweep(&source, &SweepConfig::sequential(), &Thm1Reducer, thm1_job).unwrap();
        for shards in SHARD_COUNTS {
            for threads in THREAD_COUNTS {
                let config = SweepConfig { shards, threads, ..SweepConfig::default() };
                let fold = sweep(&source, &config, &Thm1Reducer, thm1_job).unwrap();
                assert_eq!(
                    fold, reference,
                    "{label} fold diverged at shards={shards}, threads={threads}"
                );
            }
        }
    }
}

/// FNV-1a over every adversary of the space in rank order: the pattern's
/// `Display` rendering (crash-only output is unchanged by the omission
/// extension, making the digest comparable across the refactor) plus the
/// raw input values.  Pins the enumeration *order*, not just its counts.
fn enumeration_digest(space: &AdversarySpace) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    for index in 0..space.len() {
        let adversary = space.nth(index);
        eat(format!("{}", adversary.failures()).as_bytes());
        for (_, value) in adversary.inputs().iter() {
            eat(&value.get().to_le_bytes());
        }
    }
    hash
}

/// Golden pin (satellite acceptance): the crash-space enumeration and its
/// exhaustive Theorem-1 fold are byte-identical to the pre-refactor seed.
/// The scope sizes come from the seed commit's `sweep thm1` table; the
/// `(3, 1, 1)` case is cheap enough to re-fold end to end, and its
/// all-zero accumulator plus the enumeration-order digest pin both the
/// fold values and the rank order itself.  If the `PatternSpace` plumbing
/// ever perturbs crash enumeration, this fails before any service cache
/// can replay a wrong accumulator.
#[test]
fn crash_space_golden_pins_survive_the_pattern_space_refactor() {
    use sweep::experiments::{Thm1Outcome, Thm1Reducer};

    let golden_sizes = [200u128, 25_616, 129_681, 12_393];
    for (&(n, t, k), golden) in experiments::THM1_CASES.iter().zip(golden_sizes) {
        let space = AdversarySpace::new(experiments::thm1_scope(n, t, k)).unwrap();
        assert_eq!(space.len(), golden, "scope size changed for ({n}, {t}, {k})");
    }

    let source = experiments::thm1_source(experiments::thm1_scope(3, 1, 1), 1).unwrap();
    let acc =
        sweep(&source, &SweepConfig::sequential(), &Thm1Reducer, experiments::thm1_job).unwrap();
    assert_eq!(
        acc,
        Thm1Outcome::default(),
        "the (3,1,1) crash fold must stay all-zero (no violations, nothing beaten)"
    );
    assert_eq!(
        enumeration_digest(source.space()),
        0xd154_88c1_183c_1435,
        "crash (3,1,1) enumeration order drifted"
    );

    // The omission twin of the digest pin: freezes the omission order too,
    // so cached omission accumulators stay replayable across sessions.
    let omission = omission_exhaustive_source();
    assert_eq!(omission.space().len(), 800);
    assert_eq!(
        enumeration_digest(omission.space()),
        0x0c3d_1a3e_e236_211d,
        "omission (3,1,1) enumeration order drifted"
    );
}
