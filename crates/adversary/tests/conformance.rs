//! The cross-space conformance suite of the `PatternSpace` contract.
//!
//! Every rankable pattern space must satisfy the same laws (see
//! `adversary::space`): ranks are a total order agreeing with the
//! materialized reference enumeration, subtree-count totals equal the
//! space length, and every space is closed under relabeling processes,
//! its orbit listing agreeing with a brute-force grouping over all `n!`
//! relabelings.  The shard walk over these spaces is checked in the
//! `sweep` crate (`walk_matches_per_index_scenarios`).  The suite
//! below runs one generic harness against **both** implemented spaces,
//! so a third space gets its contract checked by adding one case list.

use std::collections::{BTreeSet, HashMap};

use adversary::enumerate::{self, AdversarySpace, EnumerationConfig};
use adversary::space::{omission_patterns, OmissionConfig, PatternModel};
use synchrony::FailurePattern;

/// The crash-space cases: the small scopes the paper experiments sweep,
/// with both delivery regimes and every crash-round horizon exercised.
fn crash_cases() -> Vec<(AdversarySpace, Vec<FailurePattern>)> {
    [
        EnumerationConfig::small(3, 1, 1),
        EnumerationConfig { n: 4, t: 2, max_value: 1, max_crash_round: 1, partial_delivery: true },
        EnumerationConfig { n: 4, t: 2, max_value: 2, max_crash_round: 2, partial_delivery: false },
        EnumerationConfig { n: 3, t: 1, max_value: 1, max_crash_round: 0, partial_delivery: true },
    ]
    .into_iter()
    .map(|config| {
        let space = AdversarySpace::new(config).expect("valid crash scope");
        assert_eq!(space.model(), PatternModel::Crash);
        (space, enumerate::failure_patterns(&config))
    })
    .collect()
}

/// The omission-space cases: both round horizons, a saturated budget
/// (`t = n`, clamped mobile omitters), and the built-in scan shapes.
fn omission_cases() -> Vec<(AdversarySpace, Vec<FailurePattern>)> {
    [
        OmissionConfig::small(3, 1, 1),
        OmissionConfig { n: 4, t: 1, max_value: 1, rounds: 2 },
        OmissionConfig { n: 3, t: 2, max_value: 1, rounds: 1 },
        OmissionConfig { n: 3, t: 3, max_value: 1, rounds: 1 },
    ]
    .into_iter()
    .map(|config| {
        let space = AdversarySpace::omission(config).expect("valid omission scope");
        assert_eq!(space.model(), PatternModel::Omission);
        (space, omission_patterns(&config))
    })
    .collect()
}

/// Law 1 + 2: `pattern_at` agrees with the materialized reference at
/// every rank, and the counting tables sum to exactly the reference
/// length (no rank unreachable, none double-covered).
fn assert_rank_unrank_agrees(space: &AdversarySpace, reference: &[FailurePattern]) {
    assert_eq!(
        space.num_patterns(),
        reference.len() as u128,
        "{:?}: counting tables disagree with the reference enumeration",
        space.model()
    );
    for (rank, expected) in reference.iter().enumerate() {
        let got = space.pattern_at(rank as u128);
        assert_eq!(&got, expected, "{:?}: rank {rank} unranks wrong", space.model());
    }
    assert_eq!(
        space.len(),
        space.num_patterns() * space.inputs_per_pattern(),
        "{:?}: adversary count must be patterns × inputs",
        space.model()
    );
}

/// `π·F`: process `π[p]` fails as process `p` fails in `F`, towards
/// relabeled receivers.
fn relabel(pattern: &FailurePattern, pi: &[usize]) -> FailurePattern {
    let mut image = FailurePattern::crash_free(pattern.n());
    for (p, crash) in pattern.faulty() {
        let delivered = crash.delivered().iter().map(|q| pi[q.index()]);
        image.crash(pi[p.index()], crash.round().number(), delivered).unwrap();
    }
    for ((p, round), dropped) in pattern.omission_faults() {
        image.omit(pi[p.index()], round.number(), dropped.iter().map(|q| pi[q.index()])).unwrap();
    }
    image
}

/// Every permutation of `0..n`.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for shorter in permutations(n - 1) {
        for slot in 0..n {
            let mut pi = shorter.clone();
            pi.insert(slot, n - 1);
            out.push(pi);
        }
    }
    out
}

/// Law 3: the space is closed under relabeling, and its orbit listing is
/// the brute-force grouping of the reference under all `n!` relabelings —
/// each orbit's lowest-rank member, in rank order, with the orbit's size.
fn assert_orbits_match_brute_force(space: &AdversarySpace, reference: &[FailurePattern]) {
    let rank_of: HashMap<String, usize> =
        reference.iter().enumerate().map(|(rank, pattern)| (pattern.to_string(), rank)).collect();
    assert_eq!(rank_of.len(), reference.len(), "{:?}: renderings must be distinct", space.model());
    let relabelings = permutations(space.n());
    let mut grouped = vec![false; reference.len()];
    let mut expected = Vec::new();
    for (rank, pattern) in reference.iter().enumerate() {
        if grouped[rank] {
            continue;
        }
        let orbit: BTreeSet<usize> = relabelings
            .iter()
            .map(|pi| {
                let image = relabel(pattern, pi);
                *rank_of.get(&image.to_string()).unwrap_or_else(|| {
                    panic!("{:?}: {pattern} relabeled by {pi:?} leaves the space", space.model())
                })
            })
            .collect();
        orbit.iter().for_each(|&member| grouped[member] = true);
        expected.push((rank, orbit.len() as u64));
    }

    let orbits = space.up_to_relabeling().expect("a conforming space lists its orbits");
    let listed: Vec<(usize, u64)> = (0..orbits.num_patterns())
        .map(|rank| (rank_of[&orbits.pattern_at(rank).to_string()], orbits.pattern_weight(rank)))
        .collect();
    assert_eq!(listed, expected, "{:?}: orbit listing", space.model());
    assert_eq!(orbits.inputs_per_pattern(), space.inputs_per_pattern());
}

#[test]
fn crash_space_ranks_agree_with_the_reference() {
    for (space, reference) in crash_cases() {
        assert_rank_unrank_agrees(&space, &reference);
    }
}

#[test]
fn omission_space_ranks_agree_with_the_reference() {
    for (space, reference) in omission_cases() {
        assert_rank_unrank_agrees(&space, &reference);
    }
}

/// Cross-space sanity: the two models never produce equal patterns
/// beyond the failure-free one, and their spaces disagree in size on the
/// same `(n, t)` shape — a guard against one space accidentally
/// delegating to the other.
#[test]
fn the_two_spaces_are_genuinely_different() {
    let crash = AdversarySpace::new(EnumerationConfig::small(3, 1, 1)).unwrap();
    let omission = AdversarySpace::omission(OmissionConfig::small(3, 1, 1)).unwrap();
    assert_ne!(crash.len(), omission.len());
    // Rank 0 is failure-free in both (the empty pattern sorts first).
    assert_eq!(crash.pattern_at(0), omission.pattern_at(0));
    assert!(!crash.pattern_at(0).has_omissions());
    // Every other omission pattern omits without crashing anyone.
    for rank in 1..omission.num_patterns() {
        let pattern = omission.pattern_at(rank);
        assert!(pattern.has_omissions(), "omission rank {rank} must omit");
        assert_eq!(pattern.num_faulty(), 0, "omission senders never crash");
    }
}

#[test]
fn crash_orbits_match_brute_force_relabeling() {
    for (space, reference) in crash_cases() {
        assert_orbits_match_brute_force(&space, &reference);
    }
}

#[test]
fn omission_orbits_match_brute_force_relabeling() {
    for (space, reference) in omission_cases() {
        assert_orbits_match_brute_force(&space, &reference);
    }
}
