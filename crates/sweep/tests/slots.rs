//! Stale-slot property of the batch executor: a `BatchRunner` keeps one
//! knowledge analysis per node slot for its whole lifetime and refills it
//! in place, so any analysis left over from an earlier run, pattern, system
//! size or horizon would show up as a divergence from a fresh
//! `ViewAnalysis::new`.  One runner walks a seeded interleaving of the
//! Theorem 3 random cases, the Fig. 4 family and exhaustive (4, 2, 2)
//! pattern blocks, and every analysis it hands out is compared.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use knowledge::ViewAnalysis;
use set_consensus::{BatchRunner, Optmin, Protocol, UPmin};
use sweep::experiments::{fig4_source, thm1_scope, thm1_source, thm3_source, THM3_CASES};
use sweep::{Scenario, ScenarioSource};

/// Runs `scenario` through `runner`, observed, and checks every node's
/// analysis against a fresh one; returns the number of nodes checked.
fn check_every_node(runner: &mut BatchRunner, scenario: &Scenario) -> usize {
    let protocols: [&dyn Protocol; 2] = [&UPmin, &Optmin];
    let mut checked = 0;
    runner
        .execute_batch_observed(
            &protocols,
            &scenario.params,
            &scenario.adversary,
            |run, node, analysis, _| {
                let fresh = ViewAnalysis::new(run, node)?;
                assert_eq!(analysis, &fresh, "stale slot at {node} of scenario {}", scenario.index);
                checked += 1;
                Ok(())
            },
        )
        .unwrap();
    checked
}

#[test]
fn slots_refilled_across_patterns_sizes_and_horizons_match_fresh_analyses() {
    let thm3: Vec<_> =
        THM3_CASES.iter().map(|&(n, t, k)| thm3_source(n, t, k, 41).unwrap()).collect();
    let (fig4, _) = fig4_source().unwrap();
    let exhaustive = thm1_source(thm1_scope(4, 2, 2), 2).unwrap();
    let block = exhaustive.structure_block();
    assert!(block > 1, "an exhaustive pattern block must hold several input vectors");

    let mut rng = StdRng::seed_from_u64(2016);
    let mut runner = BatchRunner::new();
    let mut shapes = BTreeSet::new();
    let mut shape_changes = 0;
    let mut last_shape = None;
    let mut nodes = 0;
    let mut previous: Option<Scenario> = None;
    for _ in 0..60 {
        let mut batch: Vec<Scenario> = match rng.random_range(0..4u32) {
            // A Theorem 3 case, with a pattern no other scenario shares.
            0 => {
                let source = &thm3[rng.random_range(0..thm3.len())];
                vec![source.scenario(rng.random_range(0..source.len())).unwrap()]
            }
            // A Fig. 4 point (n up to 83: several bitmap words).
            1 => vec![fig4.scenario(rng.random_range(0..fig4.len())).unwrap()],
            // A run of input vectors over one exhaustive pattern, which
            // reuses the structure after its first scenario.
            2 => {
                let start = rng.random_range(0..exhaustive.len() / block) * block;
                let take = rng.random_range(2..=block.min(6));
                (start..start + take).map(|index| exhaustive.scenario(index).unwrap()).collect()
            }
            // The previous scenario again: a repeated pattern.
            _ => previous.iter().cloned().collect(),
        };
        // The plain batch loop skips nodes once every protocol decided, so
        // a later run of the same structure finds slots it never refilled.
        if rng.random_bool(0.3) {
            if let Some(first) = batch.first() {
                let protocols: [&dyn Protocol; 1] = [&UPmin];
                runner.execute_batch(&protocols, &first.params, &first.adversary).unwrap();
            }
        }
        for scenario in batch.drain(..) {
            let shape = (scenario.adversary.n(), scenario.params.horizon());
            shapes.insert(shape);
            shape_changes += usize::from(last_shape.is_some_and(|last| last != shape));
            last_shape = Some(shape);
            nodes += check_every_node(&mut runner, &scenario);
            previous = Some(scenario);
        }
    }

    let runs = runner.run_stats();
    let analyses = runner.analysis_stats();
    assert!(runs.simulated > 0 && runs.reused > 0, "both structure paths must run: {runs:?}");
    assert!(analyses.hits > 0 && analyses.misses > 0, "both slot paths must run: {analyses:?}");
    assert!(shapes.len() >= 4, "too few (n, horizon) shapes: {shapes:?}");
    assert!(shape_changes >= 10, "the interleaving changed n or the horizon {shape_changes} times");
    assert!(nodes > 1000, "only {nodes} nodes checked");
}
