//! Scenario sources: adapters from the `adversary` generators to the
//! engine's randomly-addressable [`ScenarioSource`] interface.

use adversary::enumerate::AdversarySpace;
use adversary::{RandomAdversaries, RandomConfig};
use set_consensus::{TaskParams, TaskVariant};
use synchrony::ModelError;

use crate::engine::{Scenario, ScenarioSource};

/// The exhaustive adversary space of an enumeration scope, every adversary
/// executed under the same task parameters.
///
/// A source built by [`ExhaustiveSource::new`] walks every adversary of the
/// space.  One built by [`ExhaustiveSource::up_to_relabeling`] walks the
/// orbit representatives of its failure patterns instead, each scenario
/// weighted by its pattern's orbit size; either way [`Self::space`] is the
/// whole scope.
///
/// Random access is delegated to [`AdversarySpace::nth`], so a shard's
/// first scenario costs the same as any other — no sequential replay.
/// Inside a pattern block the shard walk rewrites only the input values
/// ([`ScenarioSource::step_within_block`]).
#[derive(Debug, Clone)]
pub struct ExhaustiveSource {
    space: AdversarySpace,
    /// What the scenarios index: `space` itself, or its orbit
    /// representatives.
    walked: AdversarySpace,
    params: TaskParams,
    variant: TaskVariant,
}

impl ExhaustiveSource {
    /// Wraps an adversary space; every scenario has weight 1.
    ///
    /// # Errors
    ///
    /// Returns an error if the space is too large to index on this platform
    /// (more than `usize::MAX` adversaries).
    pub fn new(
        space: AdversarySpace,
        params: TaskParams,
        variant: TaskVariant,
    ) -> Result<Self, ModelError> {
        Self::walking(space.clone(), space, params, variant)
    }

    /// Wraps an adversary space up to process relabeling: the scenarios
    /// are the orbit representatives of its failure patterns crossed with
    /// every input vector ([`AdversarySpace::up_to_relabeling`]), each
    /// weighted by its orbit size; a space too large to list its orbits is
    /// walked whole.  Folds equal those of [`ExhaustiveSource::new`] only
    /// for jobs whose outcome relabeling does not change.
    ///
    /// # Errors
    ///
    /// Returns an error if the space is too large to index or breaks the
    /// relabeling contract.
    pub fn up_to_relabeling(
        space: AdversarySpace,
        params: TaskParams,
        variant: TaskVariant,
    ) -> Result<Self, ModelError> {
        let walked = space.up_to_relabeling()?;
        Self::walking(space, walked, params, variant)
    }

    fn walking(
        space: AdversarySpace,
        walked: AdversarySpace,
        params: TaskParams,
        variant: TaskVariant,
    ) -> Result<Self, ModelError> {
        if walked.len() > usize::MAX as u128 {
            return Err(ModelError::InvalidTaskParameter {
                reason: format!(
                    "enumeration scope of {} adversaries exceeds the addressable sweep size",
                    walked.len()
                ),
            });
        }
        Ok(ExhaustiveSource { space, walked, params, variant })
    }

    /// Returns the whole adversary space of the scope — also for a source
    /// that walks only its orbit representatives.
    pub fn space(&self) -> &AdversarySpace {
        &self.space
    }

    /// The weight of the scenario at `index`: its pattern's orbit size.
    fn weight(&self, index: usize) -> u64 {
        self.walked.pattern_weight((index / self.structure_block()) as u128)
    }
}

impl ScenarioSource for ExhaustiveSource {
    fn len(&self) -> usize {
        self.walked.len() as usize
    }

    fn scenario(&self, index: usize) -> Result<Scenario, ModelError> {
        Ok(Scenario {
            index,
            params: self.params,
            variant: self.variant,
            adversary: self.walked.nth(index as u128),
            weight: self.weight(index),
        })
    }

    /// The enumeration is pattern-major: each failure pattern spans one
    /// contiguous block of `inputs_per_pattern()` scenarios, so a whole
    /// block shares one communication structure.  (The cast cannot
    /// truncate: the constructor rejects spaces beyond `usize::MAX`, and a
    /// block never exceeds the space.)
    fn structure_block(&self) -> usize {
        self.walked.inputs_per_pattern() as usize
    }

    /// A block shares its failure pattern and weight, so stepping inside
    /// it only rewrites the input values: the mixed-radix input code
    /// `index mod structure_block()` decoded with process 0 least
    /// significant, as [`AdversarySpace::nth`] decodes it.
    ///
    /// (`u64` arithmetic cannot overflow: the constructor rejects spaces
    /// beyond `usize::MAX`, so `max_value + 1` and the code both fit.)
    fn step_within_block(&self, scenario: &mut Scenario, index: usize) -> Result<(), ModelError> {
        let base = self.walked.max_value() + 1;
        let mut code = (index % self.structure_block()) as u64;
        for process in 0..self.walked.n() {
            scenario.adversary.set_input(process, code % base);
            code /= base;
        }
        scenario.index = index;
        Ok(())
    }
}

/// A counter-based stream of seeded random scenarios.
///
/// Scenario `i` is drawn from a fresh generator seeded with
/// `mix(seed, i)`, not from position `i` of one sequential stream.  This
/// is what makes the source randomly addressable — and therefore makes the
/// sweep result independent of how the space is sharded, which a shared
/// sequential generator could never be.
#[derive(Debug, Clone)]
pub struct RandomSource {
    config: RandomConfig,
    params: TaskParams,
    variant: TaskVariant,
    seed: u64,
    count: usize,
}

impl RandomSource {
    /// Creates a stream of `count` scenarios from the given seed.
    pub fn new(
        config: RandomConfig,
        params: TaskParams,
        variant: TaskVariant,
        seed: u64,
        count: usize,
    ) -> Self {
        RandomSource { config, params, variant, seed, count }
    }

    /// SplitMix64-style mixing of the stream seed and the scenario index
    /// into a per-scenario generator seed.
    fn stream_seed(seed: u64, index: u64) -> u64 {
        let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl ScenarioSource for RandomSource {
    fn len(&self) -> usize {
        self.count
    }

    fn scenario(&self, index: usize) -> Result<Scenario, ModelError> {
        let seed = Self::stream_seed(self.seed, index as u64);
        let adversary = RandomAdversaries::new(self.config, seed).next_adversary();
        Ok(Scenario { index, params: self.params, variant: self.variant, adversary, weight: 1 })
    }
}

/// A pre-materialized list of scenarios — the adapter for the named
/// scenario families of `adversary::scenarios`, where each point of the
/// family may carry different task parameters.
#[derive(Debug, Clone, Default)]
pub struct FixedSource {
    scenarios: Vec<Scenario>,
}

impl FixedSource {
    /// Wraps a list of scenarios, re-indexing them by position.
    pub fn new(mut scenarios: Vec<Scenario>) -> Self {
        for (index, scenario) in scenarios.iter_mut().enumerate() {
            scenario.index = index;
        }
        FixedSource { scenarios }
    }
}

impl ScenarioSource for FixedSource {
    fn len(&self) -> usize {
        self.scenarios.len()
    }

    fn scenario(&self, index: usize) -> Result<Scenario, ModelError> {
        Ok(self.scenarios[index].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{fold_shard_stats, Reducer};
    use adversary::enumerate::EnumerationConfig;
    use adversary::OmissionConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use set_consensus::BatchRunner;
    use synchrony::SystemParams;

    fn params() -> TaskParams {
        TaskParams::new(SystemParams::new(3, 1).unwrap(), 1).unwrap()
    }

    #[test]
    fn exhaustive_source_matches_space_order() {
        let space = AdversarySpace::new(EnumerationConfig::small(3, 1, 1)).unwrap();
        let source =
            ExhaustiveSource::new(space.clone(), params(), TaskVariant::Nonuniform).unwrap();
        assert_eq!(source.len() as u128, space.len());
        for index in [0usize, 1, source.len() - 1] {
            let scenario = source.scenario(index).unwrap();
            assert_eq!(scenario.index, index);
            assert_eq!(scenario.adversary, space.nth(index as u128));
        }
    }

    /// Records every scenario the walk hands its job, once each: the
    /// weight is checked on the recorded scenario instead of being folded.
    struct Record;

    impl Reducer for Record {
        type Item = Scenario;
        type Acc = Vec<Scenario>;

        fn empty(&self) -> Vec<Scenario> {
            Vec::new()
        }

        fn fold(&self, acc: &mut Vec<Scenario>, item: Scenario) {
            acc.push(item);
        }

        fn fold_weighted(&self, acc: &mut Vec<Scenario>, item: Scenario, _weight: u64) {
            acc.push(item);
        }

        fn merge(&self, mut left: Vec<Scenario>, right: Vec<Scenario>) -> Vec<Scenario> {
            left.extend(right);
            left
        }
    }

    /// The ranges the walk is checked on: the whole space, empty ranges
    /// (at the start, inside and at the end), a range that starts and ends
    /// mid-block across two boundaries, and seeded random ranges — long
    /// ones and ones of up to three blocks.
    fn walk_ranges(total: usize, block: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
        let mut ranges = vec![
            (0, total),
            (0, 0),
            (total / 2, total / 2),
            (total, total),
            (block / 2, (2 * block + block / 2).min(total)),
        ];
        for _ in 0..12 {
            let a = rng.random_range(0..total as u64) as usize;
            let b = rng.random_range(0..=total as u64) as usize;
            ranges.push((a.min(b), a.max(b)));
            let span = rng.random_range(0..=(3 * block) as u64) as usize;
            ranges.push((a, (a + span).min(total)));
        }
        ranges
    }

    /// Seeded property test of the shard walk: over random ranges of crash
    /// and omission spaces (full and up to relabeling), a random source
    /// and a fixed source, `fold_shard_stats` hands its job exactly
    /// `scenario(i)` for every index of the range — index, parameters,
    /// variant, adversary and weight — and its counters add up: one fresh
    /// scenario per pattern block touched, every scenario fresh for blocks
    /// of one.
    #[test]
    fn walk_matches_per_index_scenarios() {
        let crash_scopes = [
            EnumerationConfig::small(3, 1, 1),
            EnumerationConfig {
                n: 4,
                t: 2,
                max_value: 2,
                max_crash_round: 2,
                partial_delivery: false,
            },
        ];
        let omission_scopes = [
            OmissionConfig::small(3, 1, 1),
            OmissionConfig { n: 4, t: 1, max_value: 1, rounds: 2 },
        ];
        let mut sources: Vec<(String, Box<dyn ScenarioSource>)> = Vec::new();
        let spaces = crash_scopes
            .iter()
            .map(|&scope| (format!("crash {scope:?}"), AdversarySpace::new(scope).unwrap()))
            .chain(omission_scopes.iter().map(|&scope| {
                (format!("omission {scope:?}"), AdversarySpace::omission(scope).unwrap())
            }));
        for (label, space) in spaces {
            let params = TaskParams::new(SystemParams::new(space.n(), 1).unwrap(), 1).unwrap();
            let reduced =
                ExhaustiveSource::up_to_relabeling(space.clone(), params, TaskVariant::Uniform);
            sources.push((format!("{label} up to relabeling"), Box::new(reduced.unwrap())));
            let full = ExhaustiveSource::new(space, params, TaskVariant::Nonuniform).unwrap();
            sources.push((label, Box::new(full)));
        }
        let random =
            RandomSource::new(RandomConfig::new(5, 2, 2), params(), TaskVariant::Uniform, 3, 40);
        sources.push(("random".into(), Box::new(random)));
        sources.push(("fixed fig4".into(), Box::new(crate::experiments::fig4_source().unwrap().0)));

        let mut rng = StdRng::seed_from_u64(0x5A1C);
        let mut runner = BatchRunner::new();
        let job = |_: &mut BatchRunner, scenario: &Scenario| Ok(scenario.clone());
        for (label, source) in &sources {
            let (total, block) = (source.len(), source.structure_block());
            for (start, end) in walk_ranges(total, block, &mut rng) {
                let at = format!("{label}, range {start}..{end}");
                let (walked, stats) =
                    fold_shard_stats(source.as_ref(), &Record, &job, &mut runner, (start, end))
                        .unwrap();
                assert_eq!(walked.len(), end - start, "{at}");
                for (scenario, index) in walked.iter().zip(start..end) {
                    let expected = source.scenario(index).unwrap();
                    assert_eq!(scenario.index, index, "{at}");
                    assert_eq!(scenario.params, expected.params, "{at}: params of {index}");
                    assert_eq!(scenario.variant, expected.variant, "{at}: variant of {index}");
                    assert_eq!(scenario.adversary, expected.adversary, "{at}: adversary {index}");
                    assert_eq!(scenario.weight, expected.weight, "{at}: weight of {index}");
                }
                let blocks_touched =
                    if start == end { 0 } else { (end - 1) / block - start / block + 1 } as u64;
                let cursor = stats.cursor;
                assert_eq!(stats.scenarios, (end - start) as u64, "{at}");
                assert_eq!(cursor.materialized + cursor.stepped, stats.scenarios, "{at}");
                assert_eq!(cursor.materialized, blocks_touched, "{at}");
                let opened = if block > 1 { blocks_touched } else { 0 };
                assert_eq!(cursor.patterns_unranked, opened, "{at}");
            }
        }
    }

    #[test]
    fn random_source_is_deterministic_and_addressable() {
        let config = RandomConfig::new(5, 2, 2);
        let source = RandomSource::new(config, params(), TaskVariant::Uniform, 7, 10);
        let again = RandomSource::new(config, params(), TaskVariant::Uniform, 7, 10);
        let other_seed = RandomSource::new(config, params(), TaskVariant::Uniform, 8, 10);
        for index in 0..source.len() {
            let a = source.scenario(index).unwrap().adversary;
            // Same (seed, index) ⇒ same adversary, in any access order.
            assert_eq!(a, again.scenario(index).unwrap().adversary);
            assert_ne!(a, other_seed.scenario(index).unwrap().adversary);
        }
        // Distinct indices almost surely differ.
        let first = source.scenario(0).unwrap().adversary;
        let differing = (1..10).filter(|&i| source.scenario(i).unwrap().adversary != first).count();
        assert!(differing > 5, "suspiciously repetitive stream");
    }

    #[test]
    fn fixed_source_reindexes() {
        let adversary = AdversarySpace::new(EnumerationConfig::small(3, 1, 1)).unwrap().nth(0);
        let scenario = Scenario {
            index: 99,
            params: params(),
            variant: TaskVariant::Uniform,
            adversary,
            weight: 1,
        };
        let source = FixedSource::new(vec![scenario.clone(), scenario]);
        assert_eq!(source.scenario(0).unwrap().index, 0);
        assert_eq!(source.scenario(1).unwrap().index, 1);
    }
}
