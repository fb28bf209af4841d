//! Seeded random adversary generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use synchrony::{Adversary, FailurePattern, InputVector};

/// Configuration of a random adversary distribution.
///
/// Values are drawn uniformly from `{0, …, max_value}`; each process
/// independently crashes with probability `crash_probability` (subject to the
/// budget `t`), at a uniformly random round in `{1, …, max_crash_round}`,
/// delivering its final messages to a uniformly random subset of processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomConfig {
    /// Number of processes.
    pub n: usize,
    /// Maximum number of crashes per adversary.
    pub t: usize,
    /// Largest initial value (the domain is `{0, …, max_value}`).
    pub max_value: u64,
    /// Latest round in which a crash may occur.
    pub max_crash_round: u32,
    /// Per-process crash probability (before the budget is applied).
    pub crash_probability: f64,
}

impl RandomConfig {
    /// A reasonable default distribution for a system of `n` processes with
    /// failure bound `t` and value domain `{0, …, k}`.
    pub fn new(n: usize, t: usize, k: usize) -> Self {
        RandomConfig {
            n,
            t,
            max_value: k as u64,
            max_crash_round: (t / k.max(1)) as u32 + 1,
            crash_probability: 0.5,
        }
    }
}

/// A deterministic, seeded generator of random adversaries.
///
/// ```
/// use adversary::{RandomConfig, RandomAdversaries};
///
/// let mut gen = RandomAdversaries::new(RandomConfig::new(6, 3, 2), 42);
/// let batch = gen.batch(10);
/// assert_eq!(batch.len(), 10);
/// for adversary in &batch {
///     assert!(adversary.num_failures() <= 3);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RandomAdversaries {
    config: RandomConfig,
    rng: StdRng,
}

impl RandomAdversaries {
    /// Creates a generator with the given configuration and seed.
    pub fn new(config: RandomConfig, seed: u64) -> Self {
        RandomAdversaries { config, rng: StdRng::seed_from_u64(seed) }
    }

    /// Returns the generator's configuration.
    pub fn config(&self) -> &RandomConfig {
        &self.config
    }

    /// Draws the next adversary from the distribution.
    pub fn next_adversary(&mut self) -> Adversary {
        let c = &self.config;
        let inputs: Vec<u64> = (0..c.n).map(|_| self.rng.random_range(0..=c.max_value)).collect();
        let mut failures = FailurePattern::crash_free(c.n);
        let mut crashed = 0;
        for p in 0..c.n {
            if crashed >= c.t || !self.rng.random_bool(c.crash_probability) {
                continue;
            }
            let round = self.rng.random_range(1..=c.max_crash_round.max(1));
            let delivered: Vec<usize> = (0..c.n).filter(|_| self.rng.random_bool(0.5)).collect();
            failures
                .crash(p, round, delivered)
                .expect("generated crash parameters are always in range");
            crashed += 1;
        }
        Adversary::new(InputVector::from_values(inputs), failures)
            .expect("generated adversaries are always well formed")
    }

    /// Draws a batch of adversaries.
    pub fn batch(&mut self, count: usize) -> Vec<Adversary> {
        (0..count).map(|_| self.next_adversary()).collect()
    }
}

impl Iterator for RandomAdversaries {
    type Item = Adversary;

    fn next(&mut self) -> Option<Adversary> {
        Some(self.next_adversary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = RandomConfig::new(5, 2, 2);
        let a: Vec<Adversary> = RandomAdversaries::new(config, 7).batch(5);
        let b: Vec<Adversary> = RandomAdversaries::new(config, 7).batch(5);
        assert_eq!(a, b);
        let c: Vec<Adversary> = RandomAdversaries::new(config, 8).batch(5);
        assert_ne!(a, c);
    }

    #[test]
    fn budget_and_value_domain_are_respected() {
        let config =
            RandomConfig { n: 8, t: 3, max_value: 2, max_crash_round: 2, crash_probability: 0.9 };
        let mut gen = RandomAdversaries::new(config, 1);
        for adversary in gen.batch(50) {
            assert!(adversary.num_failures() <= 3);
            assert!(adversary.inputs().check_max_value(2).is_ok());
            for (_, fault) in adversary.failures().faulty() {
                assert!(fault.round().number() <= 2);
            }
        }
    }

    #[test]
    fn iterator_interface_yields_adversaries() {
        let config = RandomConfig::new(4, 1, 1);
        let gen = RandomAdversaries::new(config, 3);
        assert_eq!(gen.take(7).count(), 7);
    }
}
