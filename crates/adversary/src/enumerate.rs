//! Exhaustive enumeration of adversaries for small systems.
//!
//! Unbeatability is a statement about *all* runs; for small systems the space
//! of adversaries is finite and can be enumerated outright, which is how the
//! experiment harness spot-checks the paper's optimality claims (the
//! experiment E7 scopes in README's "Paper section → module" table).  The
//! enumeration covers every input vector over `{0, …, max_value}` and every
//! failure pattern with at most `t` crashes in rounds `1 … max_crash_round`,
//! with every possible delivery subset in the crashing round.

use std::sync::Arc;

use synchrony::{Adversary, FailurePattern, InputVector, ModelError};

use crate::space::{OmissionConfig, OmissionSpace, PatternModel, PatternSpace};
use crate::symmetry::OrbitSpace;

/// The scope of an exhaustive enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumerationConfig {
    /// Number of processes.
    pub n: usize,
    /// Maximum number of crashes per adversary.
    pub t: usize,
    /// Largest initial value (the domain is `{0, …, max_value}`).
    pub max_value: u64,
    /// Latest round in which a crash may occur.
    pub max_crash_round: u32,
    /// Whether crashing processes may deliver to arbitrary subsets (`true`) or
    /// only crash silently (`false`), which shrinks the space considerably.
    pub partial_delivery: bool,
}

impl EnumerationConfig {
    /// A small default scope suitable for exhaustive checks in tests.
    pub fn small(n: usize, t: usize, max_value: u64) -> Self {
        EnumerationConfig { n, t, max_value, max_crash_round: 2, partial_delivery: true }
    }

    /// Returns the number of input vectors the scope contains.
    pub fn num_input_vectors(&self) -> u128 {
        (self.max_value as u128 + 1).pow(self.n as u32)
    }

    /// Returns the number of failure patterns the scope contains.
    pub fn num_failure_patterns(&self) -> u128 {
        // Per crashing process: a round and (optionally) a delivery subset of
        // the other n - 1 processes.
        let per_process: u128 = if self.partial_delivery {
            self.max_crash_round as u128 * (1u128 << (self.n - 1))
        } else {
            self.max_crash_round as u128
        };
        // Sum over the number of crashing processes (0..=t) of
        // C(n, crashes) * per_process^crashes.
        (0..=self.t.min(self.n))
            .map(|crashes| binomial(self.n, crashes) * per_process.pow(crashes as u32))
            .sum()
    }

    /// Returns the total number of adversaries the scope contains.
    pub fn num_adversaries(&self) -> u128 {
        self.num_input_vectors() * self.num_failure_patterns()
    }
}

fn binomial(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let mut result: u128 = 1;
    for i in 0..k {
        result = result * (n - i) as u128 / (i + 1) as u128;
    }
    result
}

/// Number of delivery-subset choices per crash (`2^(n-1)` under partial
/// delivery, `1` when crashes are silent).
fn delivery_choices(config: &EnumerationConfig) -> u128 {
    if config.partial_delivery {
        1u128 << (config.n - 1)
    } else {
        1
    }
}

/// Number of `(round, delivery subset)` choices per crashing process.
fn per_crash_choices(config: &EnumerationConfig) -> u128 {
    config.max_crash_round as u128 * delivery_choices(config)
}

/// Decodes delivery mask `mask` for a crash of `process`: bit `b` selects
/// the `b`-th process other than `process`, in increasing index order — the
/// bit convention shared by both pattern-space enumerations (the omission
/// space reads the same masks as *dropped* receivers).
pub(crate) fn delivered_from_mask(
    n: usize,
    process: usize,
    mask: u128,
) -> impl Iterator<Item = usize> {
    (0..n - 1).filter(move |bit| mask & (1u128 << bit) != 0).map(move |bit| {
        if bit < process {
            bit
        } else {
            bit + 1
        }
    })
}

/// Subtree sizes of the generic recursive fault enumeration with `s`
/// choices per faulty process: `counts[from][budget]` is the number of
/// patterns the recursion emits when it may still pick processes
/// `from … n − 1` with `budget` faults left.  `counts[0][t]` is therefore
/// the total pattern count, and the table (size `O(n · t)`, built in
/// `O(n² · t)`) is all the state lazy unranking needs — for the crash space
/// (`s = max_crash_round · delivery_choices`) and the omission space's
/// per-round digits (`s = 2^(n−1) − 1`) alike.
///
/// Sizes are exact in `u128`; scopes beyond that are far outside anything
/// addressable anyway (`num_failure_patterns` makes the same assumption).
pub(crate) fn subtree_table(n: usize, t: usize, s: u128) -> Vec<Vec<u128>> {
    let mut counts = vec![vec![1u128; t + 1]; n + 1];
    for from in (0..n).rev() {
        for budget in 1..=t {
            let mut total = 1u128;
            for p in from..n {
                total += s * counts[p + 1][budget - 1];
            }
            counts[from][budget] = total;
        }
    }
    counts
}

/// The crash space's subtree table (see [`subtree_table`]).
fn subtree_counts(config: &EnumerationConfig) -> Vec<Vec<u128>> {
    subtree_table(config.n, config.t, per_crash_choices(config))
}

/// Decodes the failure pattern at position `rank` of the preorder emitted by
/// [`extend_patterns`], given that enumeration's subtree-size table.
fn unrank_pattern(
    config: &EnumerationConfig,
    counts: &[Vec<u128>],
    mut rank: u128,
) -> FailurePattern {
    let d = delivery_choices(config);
    let s = per_crash_choices(config);
    let mut pattern = FailurePattern::crash_free(config.n);
    let mut from = 0usize;
    let mut budget = config.t;
    loop {
        debug_assert!(rank < counts[from][budget], "pattern rank outside the subtree");
        if rank == 0 {
            return pattern;
        }
        // Skip the subtree root (the pattern as crashed so far), then walk
        // the per-process blocks: process `p` contributes `s` choices of
        // `(round, delivery mask)`, each heading a subtree rooted at `p + 1`
        // with one less crash in the budget.
        rank -= 1;
        let mut p = from;
        loop {
            debug_assert!(p < config.n, "pattern rank exhausted the process blocks");
            let sub = counts[p + 1][budget - 1];
            let block = s * sub;
            if rank < block {
                let choice = rank / sub;
                rank %= sub;
                let round = (choice / d) as u32 + 1;
                let mask = choice % d;
                pattern
                    .crash(p, round, delivered_from_mask(config.n, p, mask))
                    .expect("unranked crash parameters are always valid");
                from = p + 1;
                budget -= 1;
                break;
            }
            rank -= block;
            p += 1;
        }
    }
}

/// Decodes the failure pattern at position `rank` of the enumeration order
/// of [`failure_patterns`] without materializing the space: `O(n² · t)` for
/// the one-off subtree table, then `O(n · t)` per pattern.  [`AdversarySpace`]
/// keeps the table across calls.
///
/// # Rank/unrank invariant
///
/// Unranking is the exact inverse of the enumeration order: for every
/// `rank < num_failure_patterns()`,
/// `failure_pattern_at(config, rank) == failure_patterns(config)[rank]`,
/// and distinct ranks decode to distinct patterns (the enumeration never
/// repeats a pattern).
///
/// ```
/// use adversary::enumerate::{failure_pattern_at, failure_patterns, EnumerationConfig};
///
/// let config = EnumerationConfig::small(3, 2, 1);
/// let all = failure_patterns(&config);
/// assert_eq!(all.len() as u128, config.num_failure_patterns());
/// for (rank, expected) in all.iter().enumerate() {
///     assert_eq!(&failure_pattern_at(&config, rank as u128), expected);
/// }
/// ```
///
/// # Panics
///
/// Panics if `rank ≥ num_failure_patterns()`.
pub fn failure_pattern_at(config: &EnumerationConfig, rank: u128) -> FailurePattern {
    assert!(
        rank < config.num_failure_patterns(),
        "pattern rank {rank} outside the scope of {config:?}"
    );
    unrank_pattern(config, &subtree_counts(config), rank)
}

/// Enumerates every input vector in the scope.
pub fn input_vectors(config: &EnumerationConfig) -> Vec<InputVector> {
    let total = config.num_input_vectors();
    let mut out = Vec::with_capacity(total as usize);
    for code in 0..total {
        out.push(input_vector_at(config, code));
    }
    out
}

/// Decodes the input vector at position `code` of the enumeration order
/// (mixed-radix, least significant process first) in `O(n)`, without
/// materializing the rest of the space.
///
/// # Rank/unrank invariant
///
/// The code is a mixed-radix numeral in base `max_value + 1` with process 0
/// as the least significant digit: `input_vector_at(config, code)` assigns
/// process `p` the value `(code / base^p) % base`.
///
/// ```
/// use adversary::enumerate::{input_vector_at, input_vectors, EnumerationConfig};
///
/// let config = EnumerationConfig::small(3, 1, 2);
/// let all = input_vectors(&config);
/// for (code, expected) in all.iter().enumerate() {
///     assert_eq!(&input_vector_at(&config, code as u128), expected);
/// }
/// // Mixed radix, least significant process first: code 5 in base 3 is
/// // (2, 1, 0).
/// assert_eq!(input_vector_at(&config, 5), synchrony::InputVector::from_values([2, 1, 0]));
/// ```
///
/// # Panics
///
/// Panics if `code ≥ num_input_vectors()`.
pub fn input_vector_at(config: &EnumerationConfig, code: u128) -> InputVector {
    assert!(code < config.num_input_vectors(), "input code {code} outside the scope of {config:?}");
    decode_input(config.n, config.max_value, code)
}

/// Enumerates every failure pattern in the scope.
pub fn failure_patterns(config: &EnumerationConfig) -> Vec<FailurePattern> {
    let mut out = Vec::new();
    let mut current = FailurePattern::crash_free(config.n);
    extend_patterns(config, 0, &mut current, &mut out);
    out
}

fn extend_patterns(
    config: &EnumerationConfig,
    from: usize,
    current: &mut FailurePattern,
    out: &mut Vec<FailurePattern>,
) {
    out.push(current.clone());
    if current.num_faulty() >= config.t {
        return;
    }
    // Delivery subsets are iterated as bare bitmasks — materializing all
    // `2^(n-1)` subsets as `Vec<Vec<usize>>` per recursion step (as an
    // earlier version did) dominated the allocation profile of every
    // enumeration under `partial_delivery`.
    for process in from..config.n {
        for round in 1..=config.max_crash_round {
            for mask in 0..delivery_choices(config) {
                let mut next = current.clone();
                next.crash(process, round, delivered_from_mask(config.n, process, mask))
                    .expect("enumerated crash parameters are always valid");
                extend_patterns(config, process + 1, &mut next, out);
            }
        }
    }
}

/// Enumerates every adversary in the scope.
///
/// # Errors
///
/// Returns an error only if the configuration itself is degenerate (fewer
/// than two processes).
pub fn adversaries(config: &EnumerationConfig) -> Result<Vec<Adversary>, ModelError> {
    if config.n < 2 {
        return Err(ModelError::TooFewProcesses { n: config.n });
    }
    let inputs = input_vectors(config);
    let patterns = failure_patterns(config);
    let mut out = Vec::with_capacity(inputs.len() * patterns.len());
    for pattern in &patterns {
        for input in &inputs {
            out.push(Adversary::new(input.clone(), pattern.clone())?);
        }
    }
    Ok(out)
}

/// The crash-fault [`PatternSpace`]: the paper's `t`-crash model, with
/// patterns unranked on demand against the subtree-count table of the
/// recursive enumeration behind [`failure_patterns`].
#[derive(Debug, Clone)]
pub struct CrashSpace {
    config: EnumerationConfig,
    /// Subtree sizes of the recursive pattern enumeration (see
    /// `subtree_counts`) — the only per-scope state unranking needs.
    subtree: Vec<Vec<u128>>,
    num_patterns: u128,
}

impl CrashSpace {
    /// Prepares the lazy pattern unranker for the scope, in `O(n² · t)` time
    /// and `O(n · t)` memory regardless of the scope's size.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is degenerate (fewer than two
    /// processes).
    pub fn new(config: EnumerationConfig) -> Result<Self, ModelError> {
        if config.n < 2 {
            return Err(ModelError::TooFewProcesses { n: config.n });
        }
        let subtree = subtree_counts(&config);
        let num_patterns = subtree[0][config.t];
        debug_assert_eq!(num_patterns, config.num_failure_patterns());
        Ok(CrashSpace { config, subtree, num_patterns })
    }

    /// Returns the enumeration scope.
    pub fn config(&self) -> &EnumerationConfig {
        &self.config
    }
}

impl PatternSpace for CrashSpace {
    fn model(&self) -> PatternModel {
        PatternModel::Crash
    }

    fn n(&self) -> usize {
        self.config.n
    }

    fn max_value(&self) -> u64 {
        self.config.max_value
    }

    fn fault_rounds(&self) -> u32 {
        self.config.max_crash_round
    }

    fn num_patterns(&self) -> u128 {
        self.num_patterns
    }

    fn pattern_at(&self, rank: u128) -> FailurePattern {
        assert!(
            rank < self.num_patterns,
            "pattern rank {rank} outside the scope of {:?}",
            self.config
        );
        unrank_pattern(&self.config, &self.subtree, rank)
    }
}

/// A randomly-addressable view of an enumeration scope, built for sharded
/// sweeps (see the `sweep` crate): a [`PatternSpace`] crossed with the
/// mixed-radix input-vector enumeration.
///
/// Nothing is materialized: input vectors are decoded from their mixed-radix
/// code and failure patterns are **unranked** on demand against the space's
/// `O(n · t)` table of subtree sizes ([`CrashSpace`] for the paper's crash
/// model, [`OmissionSpace`] for mobile send omissions — the crossing and
/// blocking below are model-agnostic).
/// [`AdversarySpace::nth`] therefore runs in `O(n · t)` per adversary with
/// peak memory independent of the scope size, which is what lets shards of a
/// sweep seek to their slice of scopes whose pattern space alone would never
/// fit in memory (`n ≳ 6` under partial delivery).
///
/// The ordering is identical to [`adversaries`]: the adversary at index `i`
/// combines failure pattern `i / num_input_vectors()` (in the pattern
/// space's rank order) with input code `i % num_input_vectors()`.
///
/// ```
/// use adversary::enumerate::{adversaries, AdversarySpace, EnumerationConfig};
///
/// let config = EnumerationConfig::small(3, 1, 1);
/// let space = AdversarySpace::new(config).unwrap();
/// let all = adversaries(&config).unwrap();
/// assert_eq!(space.len(), all.len() as u128);
/// assert_eq!(space.nth(17), all[17]);
/// ```
#[derive(Debug, Clone)]
pub struct AdversarySpace {
    space: Arc<dyn PatternSpace>,
    num_patterns: u128,
    num_inputs: u128,
}

impl AdversarySpace {
    /// Builds the crash-model space of the scope: prepares the lazy pattern
    /// unranker and input-vector decoder, in `O(n² · t)` time and `O(n · t)`
    /// memory regardless of the scope's size.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is degenerate (fewer than two
    /// processes).
    pub fn new(config: EnumerationConfig) -> Result<Self, ModelError> {
        Ok(Self::from_pattern_space(Arc::new(CrashSpace::new(config)?)))
    }

    /// Builds the send-omission space of the scope (see
    /// [`OmissionSpace`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is degenerate (fewer than two
    /// processes).
    pub fn omission(config: OmissionConfig) -> Result<Self, ModelError> {
        Ok(Self::from_pattern_space(Arc::new(OmissionSpace::new(config)?)))
    }

    /// Crosses an arbitrary conforming [`PatternSpace`] with the input
    /// enumeration of its scope.
    pub fn from_pattern_space(space: Arc<dyn PatternSpace>) -> Self {
        let num_patterns = space.num_patterns();
        let num_inputs = (space.max_value() as u128 + 1).pow(space.n() as u32);
        AdversarySpace { space, num_patterns, num_inputs }
    }

    /// The same scope up to process relabeling: the orbit representatives
    /// of this space's patterns (see [`OrbitSpace`]) crossed with every
    /// input vector, each pattern weighted by its orbit size.  A pattern
    /// space too large to list its orbits ([`OrbitSpace::is_listable`]) is
    /// returned whole, every pattern of weight 1: it folds to the same
    /// result, only slower.
    ///
    /// # Errors
    ///
    /// Returns an error if the pattern space breaks the relabeling
    /// contract.
    pub fn up_to_relabeling(&self) -> Result<Self, ModelError> {
        if !OrbitSpace::is_listable(self.space.as_ref()) {
            return Ok(self.clone());
        }
        Ok(Self::from_pattern_space(Arc::new(OrbitSpace::new(self.space.clone())?)))
    }

    /// Returns how many patterns of the full scope the pattern at `rank`
    /// stands for ([`PatternSpace::weight`]).
    pub fn pattern_weight(&self, rank: u128) -> u64 {
        self.space.weight(rank)
    }

    /// Returns the fault-model discriminant of the underlying pattern space.
    pub fn model(&self) -> PatternModel {
        self.space.model()
    }

    /// Returns the number of processes of the scope.
    pub fn n(&self) -> usize {
        self.space.n()
    }

    /// Returns the largest initial value of the scope's input domain.
    pub fn max_value(&self) -> u64 {
        self.space.max_value()
    }

    /// Decodes the failure pattern at position `rank` of the pattern space's
    /// rank order.
    ///
    /// # Panics
    ///
    /// Panics if `rank ≥ num_patterns()`.
    pub fn pattern_at(&self, rank: u128) -> FailurePattern {
        self.space.pattern_at(rank)
    }

    /// Returns the total number of adversaries in the space.
    pub fn len(&self) -> u128 {
        self.num_patterns * self.num_inputs
    }

    /// Returns the number of input vectors crossed with each failure
    /// pattern — the length of a *structure-major block*: adversaries
    /// `p · inputs_per_pattern() .. (p + 1) · inputs_per_pattern()` all
    /// share failure pattern `p` and therefore induce one communication
    /// structure.  The sweep engine aligns shard boundaries to this block
    /// so run-structure reuse survives any sharding.
    pub fn inputs_per_pattern(&self) -> u128 {
        self.num_inputs
    }

    /// Returns the number of failure patterns in the space.
    pub fn num_patterns(&self) -> u128 {
        self.num_patterns
    }

    /// Returns `true` if the space contains no adversary (never the case for
    /// a valid configuration, which always contains the crash-free pattern).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the adversary at position `index` of the enumeration order.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ len()`.
    pub fn nth(&self, index: u128) -> Adversary {
        assert!(index < self.len(), "adversary index {index} outside the space");
        let pattern = self.space.pattern_at(index / self.num_inputs);
        let input = decode_input(self.space.n(), self.space.max_value(), index % self.num_inputs);
        Adversary::new(input, pattern).expect("enumerated adversaries are always well formed")
    }
}

/// Decodes the input vector at mixed-radix `code` over `n` processes with
/// values in `{0, …, max_value}` — the model-independent half of
/// [`AdversarySpace::nth`].
fn decode_input(n: usize, max_value: u64, code: u128) -> InputVector {
    let base = max_value as u128 + 1;
    let mut values = Vec::with_capacity(n);
    let mut rest = code;
    for _ in 0..n {
        values.push((rest % base) as u64);
        rest /= base;
    }
    InputVector::from_values(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_matches_the_materialized_enumeration() {
        let config = EnumerationConfig {
            n: 3,
            t: 1,
            max_value: 1,
            max_crash_round: 2,
            partial_delivery: true,
        };
        let space = AdversarySpace::new(config).unwrap();
        let all = adversaries(&config).unwrap();
        assert_eq!(space.len(), all.len() as u128);
        assert!(!space.is_empty());
        for (i, expected) in all.iter().enumerate() {
            assert_eq!(&space.nth(i as u128), expected, "divergence at index {i}");
        }
    }

    /// Seeded-loop property test for the satellite acceptance: across a
    /// batch of small scopes — crucially including `partial_delivery` ones —
    /// lazy unranking agrees with the materialized enumeration at *every*
    /// index.
    #[test]
    fn lazy_unranking_matches_materialization_on_every_scope() {
        let scopes = [
            EnumerationConfig {
                n: 3,
                t: 1,
                max_value: 1,
                max_crash_round: 2,
                partial_delivery: true,
            },
            EnumerationConfig {
                n: 3,
                t: 2,
                max_value: 1,
                max_crash_round: 2,
                partial_delivery: true,
            },
            EnumerationConfig {
                n: 4,
                t: 2,
                max_value: 0,
                max_crash_round: 1,
                partial_delivery: true,
            },
            EnumerationConfig {
                n: 4,
                t: 3,
                max_value: 0,
                max_crash_round: 2,
                partial_delivery: false,
            },
            EnumerationConfig {
                n: 5,
                t: 2,
                max_value: 0,
                max_crash_round: 2,
                partial_delivery: false,
            },
            EnumerationConfig {
                n: 2,
                t: 0,
                max_value: 2,
                max_crash_round: 1,
                partial_delivery: true,
            },
            // A failure budget beyond n − 1, exercising the budget clamp.
            EnumerationConfig {
                n: 3,
                t: 5,
                max_value: 0,
                max_crash_round: 1,
                partial_delivery: true,
            },
        ];
        for config in scopes {
            let patterns = failure_patterns(&config);
            assert_eq!(patterns.len() as u128, config.num_failure_patterns(), "{config:?}");
            for (rank, expected) in patterns.iter().enumerate() {
                assert_eq!(
                    &failure_pattern_at(&config, rank as u128),
                    expected,
                    "pattern divergence at rank {rank} of {config:?}"
                );
            }
            let space = AdversarySpace::new(config).unwrap();
            let all = adversaries(&config).unwrap();
            assert_eq!(space.len(), all.len() as u128, "{config:?}");
            for (index, expected) in all.iter().enumerate() {
                assert_eq!(
                    &space.nth(index as u128),
                    expected,
                    "adversary divergence at index {index} of {config:?}"
                );
            }
        }
    }

    /// `AdversarySpace::new` must not materialize the pattern space: this
    /// scope holds ~10^12 failure patterns, which would exhaust memory
    /// instantly if the old `Vec<FailurePattern>` were still built, yet
    /// `nth` addresses both ends of it.
    #[test]
    fn space_construction_is_independent_of_scope_size() {
        let config = EnumerationConfig {
            n: 8,
            t: 4,
            max_value: 1,
            max_crash_round: 3,
            partial_delivery: true,
        };
        assert!(config.num_failure_patterns() > 1u128 << 36);
        let space = AdversarySpace::new(config).unwrap();
        assert_eq!(space.len(), config.num_adversaries());
        // The first adversary is the crash-free one over the all-zero input.
        let first = space.nth(0);
        assert_eq!(first.num_failures(), 0);
        // The last pattern in preorder is the lone crash of the final
        // process with the largest round/delivery choice (its subtree is a
        // leaf — no process after it can extend the pattern).
        let last = space.nth(space.len() - 1);
        assert_eq!(last.num_failures(), 1);
        assert_eq!(
            last.failures().crash_round(config.n - 1).map(|r| r.number()),
            Some(config.max_crash_round)
        );
        assert!(last.inputs().check_max_value(1).is_ok());
        // Spot-check agreement with a sequential replay at a shard boundary
        // deep inside the space (patterns only, inputs are closed-form).
        let rank = space.len() / 3 / config.num_input_vectors();
        let direct = failure_pattern_at(&config, rank);
        assert!(direct.num_faulty() <= 4);
    }

    #[test]
    fn space_rejects_degenerate_scopes() {
        assert!(AdversarySpace::new(EnumerationConfig::small(1, 0, 1)).is_err());
    }

    #[test]
    fn counts_match_the_enumeration() {
        let config = EnumerationConfig {
            n: 3,
            t: 1,
            max_value: 1,
            max_crash_round: 2,
            partial_delivery: true,
        };
        assert_eq!(input_vectors(&config).len() as u128, config.num_input_vectors());
        assert_eq!(failure_patterns(&config).len() as u128, config.num_failure_patterns());
        let all = adversaries(&config).unwrap();
        assert_eq!(all.len() as u128, config.num_adversaries());
    }

    #[test]
    fn silent_only_enumeration_is_much_smaller() {
        let with = EnumerationConfig {
            n: 3,
            t: 2,
            max_value: 1,
            max_crash_round: 2,
            partial_delivery: true,
        };
        let without = EnumerationConfig { partial_delivery: false, ..with };
        assert!(without.num_failure_patterns() < with.num_failure_patterns());
        assert_eq!(failure_patterns(&without).len() as u128, without.num_failure_patterns());
    }

    #[test]
    fn every_enumerated_adversary_respects_the_budget() {
        let config = EnumerationConfig::small(3, 2, 1);
        for adversary in adversaries(&config).unwrap() {
            assert!(adversary.num_failures() <= 2);
            assert_eq!(adversary.n(), 3);
            assert!(adversary.inputs().check_max_value(1).is_ok());
        }
    }

    #[test]
    fn patterns_are_pairwise_distinct() {
        let config = EnumerationConfig {
            n: 3,
            t: 1,
            max_value: 0,
            max_crash_round: 1,
            partial_delivery: true,
        };
        let patterns = failure_patterns(&config);
        for (i, a) in patterns.iter().enumerate() {
            for b in patterns.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn degenerate_configurations_are_rejected() {
        let config = EnumerationConfig::small(1, 0, 1);
        assert!(adversaries(&config).is_err());
    }

    #[test]
    fn binomial_coefficients_are_correct() {
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(3, 4), 0);
    }
}
