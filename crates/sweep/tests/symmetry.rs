//! Proof obligation of the symmetry reduction: the crash and send-omission
//! models are symmetric under renaming processes, and every protocol the
//! Theorem 1 job folds decides from id-free knowledge.  So relabeling an
//! adversary by a permutation π relabels every decision by π, and the
//! job's outcome does not change.  That is what lets a sweep fold one
//! failure pattern per relabeling orbit, weighted by the orbit's size.
//!
//! Seeded loop: random adversaries from every built-in Theorem 1 and
//! omission scope, each under a random permutation.  The decision check
//! also covers the uniform protocols u-Pmin and `EarlyUniformFloodMin`,
//! so a fold of theirs may use the same reduction.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use set_consensus::{
    execute, BatchRunner, EarlyFloodMin, EarlyUniformFloodMin, FloodMin, Optmin, Protocol, UPmin,
};
use sweep::experiments::{self, ScopeSpec, Thm1Reducer, OMISSION_CASES, THM1_CASES};
use sweep::reduce::Count;
use sweep::source::ExhaustiveSource;
use sweep::{sweep, Scenario, ScenarioSource, SweepConfig};
use synchrony::{Adversary, FailurePattern, InputVector};

/// Adversaries drawn per scope.
const DRAWS: usize = 64;

/// `π·α`: process `π[p]` plays the role process `p` plays in `α` — its
/// input, its crash (round and relabeled delivery set) and its send
/// omissions (relabeled dropped sets).
fn relabel(adversary: &Adversary, pi: &[usize]) -> Adversary {
    let n = adversary.n();
    let mut values = vec![0u64; n];
    for (p, value) in adversary.inputs().iter() {
        values[pi[p.index()]] = value.get();
    }
    let mut pattern = FailurePattern::crash_free(n);
    for (p, crash) in adversary.failures().faulty() {
        let delivered = crash.delivered().iter().map(|q| pi[q.index()]);
        pattern.crash(pi[p.index()], crash.round().number(), delivered).unwrap();
    }
    for ((p, round), dropped) in adversary.failures().omission_faults() {
        let dropped = dropped.iter().map(|q| pi[q.index()]);
        pattern.omit(pi[p.index()], round.number(), dropped).unwrap();
    }
    Adversary::new(InputVector::from_values(values), pattern).unwrap()
}

/// A uniform random permutation of `0..n` (Fisher–Yates).
fn permutation(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut pi: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        pi.swap(i, rng.random_range(0..=i));
    }
    pi
}

/// Every built-in Theorem 1 and omission source, labeled.
fn builtin_sources() -> Vec<(String, ExhaustiveSource)> {
    let mut sources = Vec::new();
    for (n, t, k) in THM1_CASES {
        let source = experiments::thm1_source(experiments::thm1_scope(n, t, k), k).unwrap();
        sources.push((format!("crash ({n},{t},{k})"), source));
    }
    for (n, t, k) in OMISSION_CASES {
        let source = experiments::omission_source(experiments::omission_scope(n, t, k), k).unwrap();
        sources.push((format!("omission ({n},{t},{k})"), source));
    }
    sources
}

#[test]
fn relabeling_an_adversary_relabels_every_decision_and_keeps_the_thm1_outcome() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0019);
    let protocols: [&dyn Protocol; 5] =
        [&Optmin, &EarlyFloodMin, &FloodMin, &UPmin, &EarlyUniformFloodMin];
    for (label, source) in builtin_sources() {
        let space = source.space();
        let template = source.scenario(0).unwrap();
        let params = template.params;
        for _ in 0..DRAWS {
            let index = rng.random_range(0..space.len() as u64) as u128;
            let alpha = space.nth(index);
            let pi = permutation(&mut rng, alpha.n());
            let image = relabel(&alpha, &pi);
            let at = format!("{label}: adversary {index} under π = {pi:?}");

            for protocol in protocols {
                let (_, before) = execute(protocol, &params, alpha.clone()).unwrap();
                let (_, after) = execute(protocol, &params, image.clone()).unwrap();
                for p in 0..alpha.n() {
                    assert_eq!(
                        after.decision(pi[p]),
                        before.decision(p),
                        "{at}: {} at process {p}",
                        protocol.name()
                    );
                }
            }

            let scenario = |adversary: Adversary| Scenario { adversary, ..template.clone() };
            let outcome =
                experiments::thm1_job(&mut BatchRunner::new(), &scenario(alpha.clone())).unwrap();
            let relabeled =
                experiments::thm1_job(&mut BatchRunner::new(), &scenario(image)).unwrap();
            assert_eq!(relabeled, outcome, "{at}: thm1_job outcome");
        }
    }
}

/// The full-space twin of a reduced source: the same scope and task,
/// every adversary walked with weight 1.
fn full_twin(source: &ExhaustiveSource) -> ExhaustiveSource {
    let template = source.scenario(0).unwrap();
    ExhaustiveSource::new(source.space().clone(), template.params, template.variant).unwrap()
}

/// Reduced folds equal full folds: on every built-in Theorem 1 and
/// omission scope, plus `(4,1,1)`, `(4,2,2)` without partial delivery and
/// the omission scope `(3,1,2)`, the Theorem 1 fold over the orbit
/// representatives equals the fold over the whole space at every
/// shard/thread count — and the weights add up to the whole space.
#[test]
fn reduced_folds_equal_full_folds() {
    let mut sources = builtin_sources();
    let silent = ScopeSpec { partial_delivery: false, ..ScopeSpec::builtin(4, 2, 2) };
    sources.push((
        "crash (4,1,1)".into(),
        experiments::thm1_source(experiments::thm1_scope(4, 1, 1), 1).unwrap(),
    ));
    sources.push((
        "crash (4,2,2) silent".into(),
        experiments::thm1_source(silent.to_crash(), 2).unwrap(),
    ));
    sources.push((
        "omission (3,1,2)".into(),
        experiments::omission_source(experiments::omission_scope(3, 1, 2), 2).unwrap(),
    ));

    let count = |_: &mut BatchRunner, _: &Scenario| Ok(1u64);
    for (label, reduced) in &sources {
        let full = full_twin(reduced);
        assert!(reduced.len() < full.len(), "{label}: the reduction lists fewer scenarios");
        let config = SweepConfig { threads: 2, ..SweepConfig::default() };
        let reference = sweep(&full, &config, &Thm1Reducer, experiments::thm1_job).unwrap();
        for shards in [1, 3, 7] {
            for threads in [1, 2] {
                let config = SweepConfig { shards, threads, ..SweepConfig::default() };
                let at = format!("{label} at shards={shards}, threads={threads}");
                let fold = sweep(reduced, &config, &Thm1Reducer, experiments::thm1_job).unwrap();
                assert_eq!(fold, reference, "{at}: reduced fold ≠ full fold");
                let weights = sweep(reduced, &config, &Count, count).unwrap();
                assert_eq!(u128::from(weights), reduced.space().len(), "{at}: weights");
            }
        }
    }
}
