//! Symmetry reduction: failure patterns up to process relabeling.
//!
//! Both fault models are symmetric under renaming processes: relabeling a
//! pattern of a scope by a permutation π of `0 … n − 1` gives another
//! pattern of the same scope.  The protocols of the Theorem 1 sweep decide
//! from id-free knowledge, so a scenario and its relabeled image fold to
//! the same outcome, and relabeling a pattern permutes the input vectors
//! bijectively.  The fold over a pattern's whole relabeling *orbit* is
//! therefore the orbit size times the fold over any one member.
//!
//! [`OrbitSpace`] lists one member per orbit — the one of lowest rank in
//! the full space — in full-space rank order, together with the orbit's
//! size, and serves that list as a [`PatternSpace`] whose
//! [`PatternSpace::weight`] is the orbit size.  The built-in Theorem 1
//! scopes shrink from 3,278 patterns to 207, the omission scan's from 941
//! to 68.
//!
//! # Listing
//!
//! Each pattern is keyed by its packed per-round delivery matrix over
//! rounds `1 … fault_rounds + 1`: row `(r, i)` holds the receivers of
//! `i`'s round-`r` message, with `i`'s own bit set while it still sends.
//! The key determines the pattern within a space (a crash shows as its
//! partial row followed by empty rows, an omission as a partial row), and
//! relabeling a pattern permutes its key's rows and bits.  The listing
//! keys every pattern once, then walks each orbit from its lowest-rank
//! member through the `n − 1` adjacent transpositions, which generate all
//! relabelings: `O(patterns · n)` key permutations in total, instead of
//! `n!` per orbit.

use std::collections::HashMap;
use std::sync::Arc;

use synchrony::{FailurePattern, ModelError};

use crate::space::{PatternModel, PatternSpace};

/// The most memory an orbit listing may take, in bytes
/// ([`OrbitSpace::listing_bytes`]).  A space whose listing would take more
/// is walked whole by [`AdversarySpace::up_to_relabeling`], which folds to
/// the same result, only slower.  Which scopes are listed decides how
/// their shards are cut, so changing this bound changes fold semantics.
///
/// [`AdversarySpace::up_to_relabeling`]: crate::AdversarySpace::up_to_relabeling
pub const MAX_LISTING_BYTES: u128 = 256 << 20;

/// The listing's bytes per pattern besides its packed key: a hash-map
/// slot (a key reference and a rank, 24 B, with its control byte and up
/// to 16/7 over-allocation), a seen flag, a stack slot and, at worst, an
/// orbit of its own (a representative and a size).
const BYTES_PER_PATTERN: u128 = 96;

/// The most processes a listed space may range over: a delivery row is
/// one `u64` mask, and a row of all `n` bits must fit below bit 64.
const MAX_LISTED_PROCESSES: usize = 63;

/// A pattern space up to process relabeling: the lowest-rank member of
/// every relabeling orbit of a full space, in the full space's rank order,
/// each weighted by its orbit size.  See the [module docs](self).
///
/// ```
/// use std::sync::Arc;
/// use adversary::enumerate::{CrashSpace, EnumerationConfig};
/// use adversary::symmetry::OrbitSpace;
/// use adversary::PatternSpace;
///
/// let full = Arc::new(CrashSpace::new(EnumerationConfig::small(3, 1, 1))?);
/// let orbits = OrbitSpace::new(full.clone())?;
/// assert_eq!((full.num_patterns(), orbits.num_patterns()), (25, 7));
/// // The orbit sizes add up to the full space.
/// let total: u64 = (0..orbits.num_patterns()).map(|rank| orbits.weight(rank)).sum();
/// assert_eq!(u128::from(total), full.num_patterns());
/// // Rank 0 is the crash-free pattern, alone in its orbit.
/// assert_eq!((orbits.representative(0), orbits.weight(0)), (0, 1));
/// # Ok::<(), synchrony::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OrbitSpace {
    full: Arc<dyn PatternSpace>,
    /// Full-space rank of each orbit's lowest-rank member, ascending.
    representatives: Vec<u128>,
    /// Number of distinct patterns in each orbit.
    sizes: Vec<u64>,
}

impl OrbitSpace {
    /// Lists the relabeling orbits of `full`.
    ///
    /// # Errors
    ///
    /// Returns an error if the listing would take more than
    /// [`MAX_LISTING_BYTES`] or the space has more than 63 processes, or if
    /// the space breaks the pattern-space contract: two ranks with one
    /// delivery matrix, or a pattern whose relabeling lies outside the
    /// space.
    pub fn new(full: Arc<dyn PatternSpace>) -> Result<Self, ModelError> {
        let (n, total) = (full.n(), full.num_patterns());
        if !Self::is_listable(full.as_ref()) {
            return Err(refusal(format!(
                "a {} space of {total} patterns over {n} processes is too large to list its \
                 relabeling orbits (at most {MAX_LISTING_BYTES} bytes and \
                 {MAX_LISTED_PROCESSES} processes)",
                full.model()
            )));
        }
        let total = total as usize;
        let layout = KeyLayout::new(n, full.fault_rounds());

        // Every pattern's key, in one flat arena, and the rank of each key.
        let mut keys = vec![0u64; total * layout.words];
        let mut rows = Vec::new();
        for (rank, key) in keys.chunks_exact_mut(layout.words).enumerate() {
            layout.rows_of(&full.pattern_at(rank as u128), &mut rows);
            layout.pack(&rows, key);
        }
        let mut rank_of: HashMap<&[u64], usize> = HashMap::with_capacity(total);
        for (rank, key) in keys.chunks_exact(layout.words).enumerate() {
            if let Some(other) = rank_of.insert(key, rank) {
                return Err(broken(full.model(), format!("ranks {other} and {rank} coincide")));
            }
        }

        // Walk each orbit from its lowest-rank member, which the rank-order
        // scan meets first.
        let mut seen = vec![false; total];
        let mut representatives = Vec::new();
        let mut sizes = Vec::new();
        let mut stack = Vec::new();
        let (mut swapped, mut image) = (Vec::new(), vec![0u64; layout.words]);
        for first in 0..total {
            if seen[first] {
                continue;
            }
            seen[first] = true;
            stack.push(first);
            let mut size = 0u64;
            while let Some(rank) = stack.pop() {
                size += 1;
                layout.unpack(&keys[rank * layout.words..][..layout.words], &mut rows);
                for swap in 0..n - 1 {
                    swapped.clone_from(&rows);
                    transpose(&mut swapped, n, swap);
                    layout.pack(&swapped, &mut image);
                    let Some(&next) = rank_of.get(image.as_slice()) else {
                        let (a, b) = (swap, swap + 1);
                        let what = format!("swapping {a} and {b} maps rank {rank} outside it");
                        return Err(broken(full.model(), what));
                    };
                    if !seen[next] {
                        seen[next] = true;
                        stack.push(next);
                    }
                }
            }
            representatives.push(first as u128);
            sizes.push(size);
        }
        Ok(OrbitSpace { full, representatives, sizes })
    }

    /// Returns the bytes listing the orbits of `full` takes: its packed
    /// keys and 96 bytes more per pattern.  `None` if its
    /// delivery rows do not fit a `u64` (more than 63 processes).
    pub fn listing_bytes(full: &dyn PatternSpace) -> Option<u128> {
        (full.n() <= MAX_LISTED_PROCESSES).then(|| {
            let key_bytes = 8 * KeyLayout::new(full.n(), full.fault_rounds()).words as u128;
            full.num_patterns().saturating_mul(key_bytes + BYTES_PER_PATTERN)
        })
    }

    /// Returns whether [`OrbitSpace::new`] lists `full` rather than refuse
    /// it for its size.
    pub fn is_listable(full: &dyn PatternSpace) -> bool {
        Self::listing_bytes(full).is_some_and(|bytes| bytes <= MAX_LISTING_BYTES)
    }

    /// Returns the full-space rank of the orbit representative at `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank ≥ num_patterns()`.
    pub fn representative(&self, rank: u128) -> u128 {
        self.representatives[rank as usize]
    }
}

impl PatternSpace for OrbitSpace {
    fn model(&self) -> PatternModel {
        self.full.model()
    }

    fn n(&self) -> usize {
        self.full.n()
    }

    fn max_value(&self) -> u64 {
        self.full.max_value()
    }

    fn fault_rounds(&self) -> u32 {
        self.full.fault_rounds()
    }

    fn num_patterns(&self) -> u128 {
        self.representatives.len() as u128
    }

    fn pattern_at(&self, rank: u128) -> FailurePattern {
        self.full.pattern_at(self.representative(rank))
    }

    /// The orbit size of the representative at `rank`.
    fn weight(&self, rank: u128) -> u64 {
        self.sizes[rank as usize]
    }
}

fn refusal(reason: String) -> ModelError {
    ModelError::InvalidTaskParameter { reason }
}

fn broken(model: PatternModel, what: String) -> ModelError {
    refusal(format!("the {model} pattern space breaks the relabeling contract: {what}"))
}

/// How a delivery matrix packs into `u64` words: `rounds × n` rows of `n`
/// bits each, row `(r, i)` at index `r · n + i`, as many whole rows per
/// word as fit.
#[derive(Debug, Clone, Copy)]
struct KeyLayout {
    n: usize,
    rounds: usize,
    rows_per_word: usize,
    words: usize,
}

impl KeyLayout {
    fn new(n: usize, fault_rounds: u32) -> Self {
        // One round past the last fault tells a crash in that round from
        // a correct process.
        let rounds = fault_rounds as usize + 1;
        let rows_per_word = 64 / n;
        KeyLayout { n, rounds, rows_per_word, words: (rounds * n).div_ceil(rows_per_word) }
    }

    /// Writes the delivery matrix of `pattern` into `rows`: bit `j` of row
    /// `(r, i)` is set when `i`'s round-`r + 1` message reaches `j`.
    fn rows_of(&self, pattern: &FailurePattern, rows: &mut Vec<u64>) {
        let n = self.n;
        rows.clear();
        rows.resize(self.rounds * n, (1u64 << n) - 1);
        for (p, crash) in pattern.faulty() {
            let (p, round) = (p.index(), crash.round().number() as usize);
            rows[(round - 1) * n + p] = mask(crash.delivered().as_words()) | 1 << p;
            for later in round..self.rounds {
                rows[later * n + p] = 0;
            }
        }
        for ((p, round), dropped) in pattern.omission_faults() {
            rows[(round.number() as usize - 1) * n + p.index()] &= !mask(dropped.as_words());
        }
    }

    fn pack(&self, rows: &[u64], key: &mut [u64]) {
        for (word, chunk) in key.iter_mut().zip(rows.chunks(self.rows_per_word)) {
            *word = chunk
                .iter()
                .enumerate()
                .fold(0, |word, (slot, &row)| word | row << (slot * self.n));
        }
    }

    fn unpack(&self, key: &[u64], rows: &mut Vec<u64>) {
        let row_mask = (1u64 << self.n) - 1;
        rows.clear();
        for (index, &word) in key.iter().enumerate() {
            let in_word = self.rows_per_word.min(self.rounds * self.n - index * self.rows_per_word);
            rows.extend((0..in_word).map(|slot| word >> (slot * self.n) & row_mask));
        }
    }
}

/// The first word of a process set: its mask over processes `0 … 63`.
fn mask(words: &[u64]) -> u64 {
    words.first().copied().unwrap_or(0)
}

/// Relabels a delivery matrix by the transposition of processes `a` and
/// `a + 1`: their rows trade places in every round, and their bits trade
/// places in every row.
fn transpose(rows: &mut [u64], n: usize, a: usize) {
    let b = a + 1;
    for round in rows.chunks_exact_mut(n) {
        round.swap(a, b);
        for row in round.iter_mut() {
            let differ = (*row >> a ^ *row >> b) & 1;
            *row ^= differ << a | differ << b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{AdversarySpace, CrashSpace, EnumerationConfig};
    use crate::space::{OmissionConfig, OmissionSpace};

    fn orbit_counts(space: Arc<dyn PatternSpace>) -> (u128, u128) {
        let orbits = OrbitSpace::new(space.clone()).unwrap();
        (space.num_patterns(), orbits.num_patterns())
    }

    /// The orbit counts of the built-in Theorem 1 and omission scopes.
    #[test]
    fn builtin_scopes_fall_into_their_orbit_counts() {
        let crash = |n, t, k: u64, partial_delivery| {
            let config =
                EnumerationConfig { n, t, max_value: k, max_crash_round: 2, partial_delivery };
            Arc::new(CrashSpace::new(config).unwrap()) as Arc<dyn PatternSpace>
        };
        assert_eq!(orbit_counts(crash(3, 1, 1, true)), (25, 7));
        assert_eq!(orbit_counts(crash(4, 2, 1, true)), (1_601, 97));
        assert_eq!(orbit_counts(crash(4, 2, 2, true)), (1_601, 97));
        assert_eq!(orbit_counts(crash(5, 2, 2, false)), (51, 6));
        let omission = |n, t| {
            let config = OmissionConfig::small(n, t, 1);
            Arc::new(OmissionSpace::new(config).unwrap()) as Arc<dyn PatternSpace>
        };
        assert_eq!(orbit_counts(omission(3, 1)), (100, 19));
        assert_eq!(orbit_counts(omission(4, 1)), (841, 49));
    }

    #[test]
    fn a_transposition_swaps_rows_and_bits() {
        // Three processes, one round: p0 → {p0, p2}, p1 → {p1}, p2 → all.
        let mut rows = vec![0b101, 0b010, 0b111];
        transpose(&mut rows, 3, 1);
        assert_eq!(rows, vec![0b011, 0b111, 0b100]);
    }

    #[test]
    fn keys_round_trip_through_packing() {
        let layout = KeyLayout::new(5, 2);
        assert_eq!((layout.rows_per_word, layout.words), (12, 2));
        let rows: Vec<u64> = (0..15).map(|i| (i * 7 + 3) % 32).collect();
        let mut key = vec![0u64; layout.words];
        layout.pack(&rows, &mut key);
        let mut back = Vec::new();
        layout.unpack(&key, &mut back);
        assert_eq!(back, rows);
    }

    /// A space whose listing would outgrow [`MAX_LISTING_BYTES`] is refused
    /// by `OrbitSpace::new` and walked whole, at weight 1, by
    /// `AdversarySpace::up_to_relabeling`.
    #[test]
    fn oversized_spaces_are_refused_and_walked_whole() {
        let config = EnumerationConfig {
            n: 8,
            t: 4,
            max_value: 1,
            max_crash_round: 3,
            partial_delivery: true,
        };
        let full = Arc::new(CrashSpace::new(config).unwrap());
        let bytes = OrbitSpace::listing_bytes(full.as_ref()).unwrap();
        assert!(bytes > MAX_LISTING_BYTES, "{bytes} bytes");
        let error = OrbitSpace::new(full).unwrap_err();
        assert_eq!(
            error.to_string(),
            "invalid task parameter: a crash space of 1525204061185 patterns over 8 processes is \
             too large to list its relabeling orbits (at most 268435456 bytes and 63 processes)"
        );
        let space = AdversarySpace::new(config).unwrap();
        let walked = space.up_to_relabeling().unwrap();
        assert_eq!((walked.len(), walked.pattern_weight(12_345)), (space.len(), 1));
        assert_eq!(walked.pattern_at(12_345), space.pattern_at(12_345));
    }

    /// The listing cost of a built-in scope, and the budget's reach: the
    /// complete (6,2,2) crash scope lists, n = 6, t = 3 with crashes up to
    /// round 3 is walked whole.
    #[test]
    fn listing_costs_are_bounded_by_the_budget() {
        let crash = |n, t, max_crash_round| {
            let config =
                EnumerationConfig { n, t, max_value: 2, max_crash_round, partial_delivery: true };
            CrashSpace::new(config).unwrap()
        };
        assert_eq!(OrbitSpace::listing_bytes(&crash(4, 2, 2)), Some(1_601 * (8 + 96)));
        assert!(OrbitSpace::is_listable(&crash(6, 2, 2)));
        assert!(!OrbitSpace::is_listable(&crash(6, 3, 3)));
    }
}
