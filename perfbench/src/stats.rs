//! Order statistics, a seeded generator, and the per-run sample store.

use std::collections::BTreeMap;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

/// The median of `values`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of p50/p90/p99 that has at least ten samples beyond it,
/// as `(label, value)`; `None` below 20 samples.
pub fn reportable_tail(values: &[f64]) -> Option<(&'static str, f64)> {
    [("p99", 99), ("p90", 90), ("p50", 50)]
        .into_iter()
        .find(|&(_, percent)| values.len() * (100 - percent) >= 1000)
        .map(|(label, percent)| (label, quantile(values, percent as f64 / 100.0)))
}

/// SplitMix64: the benchmark's only source of randomness, so every input a
/// run generates is a function of its `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed` and a stream tag, so independent
    /// draws from one seed do not correlate.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut mix = SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        mix.next_u64();
        mix
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Wall times in milliseconds, one series per operation kind, in the
/// order the kinds were first recorded.
#[derive(Debug, Default)]
pub struct Walls {
    series: BTreeMap<String, Vec<f64>>,
    order: Vec<String>,
}

impl Walls {
    /// Records one operation of `kind` that took `ms`.
    pub fn record(&mut self, kind: &str, ms: f64) {
        if !self.series.contains_key(kind) {
            self.order.push(kind.to_owned());
        }
        self.series.entry(kind.to_owned()).or_default().push(ms);
    }

    /// The samples of one kind (empty if never recorded).
    pub fn of(&self, kind: &str) -> &[f64] {
        self.series.get(kind).map_or(&[], Vec::as_slice)
    }

    /// Every sample of every kind.
    pub fn all(&self) -> Vec<f64> {
        self.series.values().flatten().copied().collect()
    }

    /// Total recorded time, in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.series.values().flatten().sum()
    }

    /// The recorded kinds, in first-seen order.
    pub fn kinds(&self) -> &[String] {
        &self.order
    }

    /// Geometric mean over the kinds of each kind's median: every kind
    /// weighs the same whatever its size or how often the mix drew it.
    pub fn gmean_of_medians(&self) -> f64 {
        let logs: Vec<f64> = self.order.iter().map(|kind| median(self.of(kind)).ln()).collect();
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }

    /// Operations per second if every operation took its kind's median
    /// wall, each kind weighted by how often it ran: Σ n / Σ n·median.  A
    /// burst of slow operations moves a median little, where it would move
    /// a count over the total wall as much as it lasted.
    pub fn ops_per_s_at_medians(&self) -> f64 {
        let (ops, ms) = self.series.values().fold((0.0, 0.0), |(ops, ms), samples| {
            let n = samples.len() as f64;
            (ops + n, ms + n * median(samples))
        });
        ops / (ms / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tails_need_ten_samples_beyond_them() {
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(reportable_tail(&values).map(|(label, _)| label), Some("p90"));
        assert_eq!(reportable_tail(&values[..19]).map(|(label, _)| label), None);
        assert_eq!(reportable_tail(&values[..20]).map(|(label, _)| label), Some("p50"));
    }

    #[test]
    fn the_generator_is_a_function_of_its_seed() {
        let draw = |seed| (0..4).map(|_| SplitMix::new(seed, 1).next_u64()).collect::<Vec<_>>();
        assert_eq!(draw(7), draw(7));
        assert_ne!(SplitMix::new(7, 1).next_u64(), SplitMix::new(8, 1).next_u64());
        assert_ne!(SplitMix::new(7, 1).next_u64(), SplitMix::new(7, 2).next_u64());
    }

    #[test]
    fn gmean_weighs_kinds_equally() {
        let mut walls = Walls::default();
        for ms in [1.0, 1.0, 1.0, 1.0] {
            walls.record("small", ms);
        }
        walls.record("big", 100.0);
        assert!((walls.gmean_of_medians() - 10.0).abs() < 1e-9);
        assert_eq!(walls.kinds(), ["small".to_owned(), "big".to_owned()]);
    }

    #[test]
    fn throughput_at_medians_ignores_a_burst() {
        let mut walls = Walls::default();
        for ms in [1.0, 1.0, 1.0, 1.0] {
            walls.record("small", ms);
        }
        walls.record("big", 100.0);
        assert!((walls.ops_per_s_at_medians() - 5.0 / 0.104).abs() < 1e-9);
        walls.record("big", 1e6);
        walls.record("big", 100.0);
        assert!((walls.ops_per_s_at_medians() - 7.0 / 0.304).abs() < 1e-9);
    }
}
