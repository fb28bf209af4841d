//! Adversary families taken from the paper's figures.
//!
//! * [`hidden_path`] — the Fig. 1 scenario: a single chain of crashing
//!   processes carries a value the observer never sees, keeping a hidden path
//!   alive.
//! * [`hidden_capacity_chains`] — the Fig. 2 scenario: `k` disjoint crash
//!   chains keep the observer's hidden capacity at `k` for `depth` rounds.
//! * [`uniform_gap`] — a Fig. 4-style family: every correct process discovers
//!   at least `k` new failures in every round (so every failure-counting
//!   protocol from the literature stays undecided until `⌊t/k⌋ + 1`), yet the
//!   hidden capacity of every correct process collapses at time 2, letting
//!   `u-Pmin[k]` (and `Optmin[k]`) decide at time 2.

use synchrony::{Adversary, FailurePattern, InputVector, ModelError, PidSet, ProcessId};

/// The Fig. 1 scenario: process 0 holds the value 0 and crashes in round 1
/// reaching only process 1; process `j` (for `1 ≤ j < chain_len`) crashes in
/// round `j + 1` reaching only process `j + 1`.  All other processes hold the
/// value 1 and never crash.
///
/// With respect to any untouched observer at time `chain_len`, a hidden path
/// exists: at every time `ℓ ≤ chain_len` the node `⟨ℓ, ℓ⟩` is hidden.
///
/// # Errors
///
/// Returns an error if the system is too small to host the chain plus at
/// least two untouched processes.
pub fn hidden_path(n: usize, chain_len: usize) -> Result<Adversary, ModelError> {
    if n < chain_len + 2 {
        return Err(ModelError::InvalidTaskParameter {
            reason: format!(
                "a hidden path of length {chain_len} needs at least {} processes, got {n}",
                chain_len + 2
            ),
        });
    }
    let mut inputs = vec![1u64; n];
    inputs[0] = 0;
    let mut failures = FailurePattern::crash_free(n);
    for j in 0..chain_len {
        failures.crash(j, (j + 1) as u32, [j + 1])?;
    }
    Adversary::new(InputVector::from_values(inputs), failures)
}

/// A Fig. 2 scenario with its distinguished observer.
#[derive(Debug, Clone, PartialEq)]
pub struct HiddenCapacityScenario {
    /// The adversary realizing the scenario.
    pub adversary: Adversary,
    /// The observer process whose hidden capacity stays at `k`.
    pub observer: ProcessId,
    /// The agreement degree the scenario was built for.
    pub k: usize,
    /// The number of rounds for which the hidden capacity is maintained.
    pub depth: usize,
}

/// The Fig. 2 scenario: `k` disjoint crash chains of length `depth` keep the
/// observer's hidden capacity at `k` through time `depth`.
///
/// Chain `b` (for `0 ≤ b < k`) consists of processes `b, k + b, 2k + b, …`;
/// the layer-`ℓ` member crashes in round `ℓ + 1` delivering only to the
/// layer-`(ℓ+1)` member.  The layer-0 member of chain `b` holds the low value
/// `b`; every process outside the chains holds the high value `k`.  The
/// observer is the last process.
///
/// # Errors
///
/// Returns an error if the system is too small: `n ≥ k · (depth + 1) + 2`.
pub fn hidden_capacity_chains(
    n: usize,
    k: usize,
    depth: usize,
) -> Result<HiddenCapacityScenario, ModelError> {
    let chain_members = k * (depth + 1);
    if k == 0 || n < chain_members + 2 {
        return Err(ModelError::InvalidTaskParameter {
            reason: format!(
                "k = {k} chains of depth {depth} need at least {} processes, got {n}",
                chain_members + 2
            ),
        });
    }
    let mut inputs = vec![k as u64; n];
    let mut failures = FailurePattern::crash_free(n);
    for b in 0..k {
        inputs[b] = b as u64;
        for layer in 0..depth {
            let member = layer * k + b;
            let successor = (layer + 1) * k + b;
            failures.crash(member, (layer + 1) as u32, [successor])?;
        }
    }
    let adversary = Adversary::new(InputVector::from_values(inputs), failures)?;
    Ok(HiddenCapacityScenario { adversary, observer: ProcessId::new(n - 1), k, depth })
}

/// A Fig. 4-style scenario with its bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct UniformGapScenario {
    /// The adversary realizing the scenario.
    pub adversary: Adversary,
    /// The agreement degree the scenario was built for.
    pub k: usize,
    /// The failure bound the scenario was built for (`t = k · rounds`).
    pub t: usize,
    /// The number of "blocked" rounds: failure-counting protocols decide only
    /// at time `rounds + 1 = ⌊t/k⌋ + 1`.
    pub rounds: usize,
    /// The relay process: it receives the silent group's round-1 messages and
    /// the proof of the visible group's crash, and re-broadcasts both in
    /// round 2.
    pub relay: ProcessId,
    /// The set of processes that never crash.
    pub correct: PidSet,
}

/// A Fig. 4-style family: the adversary on which `u-Pmin[k]` (and
/// `Optmin[k]`) decide at time 2 while every failure-counting protocol stays
/// undecided until `⌊t/k⌋ + 1`.
///
/// Construction, for `rounds = R ≥ 2` and `t = k · R`:
///
/// * **Group A** (`k` processes) crashes in round 1 delivering only to the
///   *relay* `h`.  Every correct process therefore discovers `k` new failures
///   in round 1, yet A's initial values reach everyone at time 2 through `h`.
/// * **Group B** (`k` processes) crashes in round 1 delivering to everyone
///   *except* `h`.  Correct processes receive B's round-1 messages, so they
///   miss B for the first time in round 2 (`k` new failures in round 2) —
///   but `h` observed B's silence in round 1 and its round-2 broadcast proves
///   to everyone that B crashed in round 1, so B's time-1 nodes are
///   *guaranteed crashed*, not hidden.
/// * **Groups A₃ … A_R** (`k` processes each) crash silently in rounds
///   `3 … R`, providing the `k` new failures those rounds need.  The relay
///   `h` is a member of A₃ when `R ≥ 3` (it has done its job by then).
/// * Every process starts with the high value `k`, so the surviving minimum
///   is `k` and it trivially persists.
///
/// At time 2 every correct process has seen every initial value (hidden
/// capacity 0 < `k`) and knows its minimum persists, so `u-Pmin[k]` decides
/// at time 2; the failure-counting baselines see `≥ k` new failures in every
/// round and wait for `⌊t/k⌋ + 1`.
///
/// # Errors
///
/// Returns an error if `k = 0`, `rounds < 2`, or the system cannot host
/// `k · rounds` faulty plus `extra_correct ≥ 2` correct processes.
pub fn uniform_gap(
    k: usize,
    rounds: usize,
    extra_correct: usize,
) -> Result<UniformGapScenario, ModelError> {
    if k == 0 || rounds < 2 {
        return Err(ModelError::InvalidTaskParameter {
            reason: format!(
                "the uniform-gap family needs k ≥ 1 and rounds ≥ 2, got k = {k}, rounds = {rounds}"
            ),
        });
    }
    if extra_correct < 2 {
        return Err(ModelError::InvalidTaskParameter {
            reason: "the uniform-gap family needs at least two correct processes".to_owned(),
        });
    }
    let t = k * rounds;
    let n = t + extra_correct;

    // Process layout: group A = 0..k, group B = k..2k, groups A₃…A_R follow,
    // correct processes at the end.
    let group_a: Vec<usize> = (0..k).collect();
    let group_b: Vec<usize> = (k..2 * k).collect();
    let relay = if rounds >= 3 { 2 * k } else { t };

    let inputs = InputVector::uniform(n, k as u64);
    let mut failures = FailurePattern::crash_free(n);
    for &a in &group_a {
        failures.crash(a, 1, [relay])?;
    }
    for &b in &group_b {
        let everyone_but_relay: Vec<usize> = (0..n).filter(|&p| p != relay).collect();
        failures.crash(b, 1, everyone_but_relay)?;
    }
    for round in 3..=rounds {
        for slot in 0..k {
            let member = (round - 1) * k + slot;
            failures.crash_silent(member, round as u32)?;
        }
    }

    let adversary = Adversary::new(inputs, failures)?;
    let correct: PidSet = (t..n).collect();
    Ok(UniformGapScenario { adversary, k, t, rounds, relay: ProcessId::new(relay), correct })
}

#[cfg(test)]
mod tests {
    use super::*;
    use knowledge::ViewAnalysis;
    use synchrony::{Node, Run, SystemParams, Time};

    fn run(adversary: &Adversary, t: usize, horizon: u32) -> Run {
        let params = SystemParams::new(adversary.n(), t).unwrap();
        Run::generate(params, adversary.clone(), Time::new(horizon)).unwrap()
    }

    #[test]
    fn hidden_path_keeps_the_value_invisible_to_the_observer() {
        let adversary = hidden_path(6, 3).unwrap();
        let run = run(&adversary, 3, 4);
        let observer = Node::new(5, Time::new(3));
        let analysis = ViewAnalysis::new(&run, observer).unwrap();
        assert!(!analysis.vals().contains(0u64));
        assert!(analysis.has_hidden_path());
        // The chain's endpoint has received the value.
        let endpoint = ViewAnalysis::new(&run, Node::new(3, Time::new(3))).unwrap();
        assert!(endpoint.vals().contains(0u64));
    }

    #[test]
    fn hidden_path_requires_enough_processes() {
        assert!(hidden_path(4, 3).is_err());
        assert!(hidden_path(5, 3).is_ok());
    }

    #[test]
    fn hidden_capacity_chains_maintain_exactly_k() {
        for k in 1..=3usize {
            let scenario = hidden_capacity_chains(3 * (k + 1) + k + 2, k, 2).unwrap();
            let t = scenario.adversary.num_failures();
            let run = run(&scenario.adversary, t, 3);
            for m in 1..=2u32 {
                let analysis =
                    ViewAnalysis::new(&run, Node::new(scenario.observer, Time::new(m))).unwrap();
                assert_eq!(analysis.hidden_capacity(), k, "k = {k}, time {m}");
                assert!(analysis.is_high(k));
            }
        }
    }

    #[test]
    fn hidden_capacity_chain_endpoints_hold_distinct_low_values() {
        let scenario = hidden_capacity_chains(12, 3, 2).unwrap();
        let t = scenario.adversary.num_failures();
        let run = run(&scenario.adversary, t, 3);
        for b in 0..3usize {
            let endpoint = 2 * 3 + b;
            let analysis = ViewAnalysis::new(&run, Node::new(endpoint, Time::new(2))).unwrap();
            let lows = analysis.lows(3);
            assert_eq!(lows.len(), 1, "chain {b} endpoint sees exactly its own low value");
            assert!(lows.contains(b as u64));
        }
    }

    #[test]
    fn uniform_gap_blocks_failure_counting_but_collapses_hidden_capacity() {
        let scenario = uniform_gap(3, 4, 3).unwrap();
        let run = run(&scenario.adversary, scenario.t, scenario.rounds as u32 + 2);
        for i in scenario.correct.iter() {
            // Every round up to R reveals at least k new failures…
            let late =
                ViewAnalysis::new(&run, Node::new(i, Time::new(scenario.rounds as u32))).unwrap();
            assert!(
                late.observations().every_round_reveals_at_least(scenario.k),
                "process {i} saw a clean round"
            );
            // …yet the hidden capacity is already below k at time 2.
            let at_two = ViewAnalysis::new(&run, Node::new(i, Time::new(2))).unwrap();
            assert!(at_two.hidden_capacity() < scenario.k);
            assert!(at_two.knows_will_persist(at_two.min_value()));
            // And at time 1 the hidden capacity is still exactly k (nobody can
            // decide earlier than time 2).
            let at_one = ViewAnalysis::new(&run, Node::new(i, Time::new(1))).unwrap();
            assert_eq!(at_one.hidden_capacity(), scenario.k);
        }
    }

    #[test]
    fn uniform_gap_respects_the_failure_budget() {
        for (k, rounds) in [(1usize, 3usize), (2, 2), (2, 5), (3, 3), (4, 2)] {
            let scenario = uniform_gap(k, rounds, 2).unwrap();
            assert_eq!(scenario.t, k * rounds);
            assert!(scenario.adversary.num_failures() <= scenario.t);
            assert_eq!(scenario.adversary.n(), scenario.t + 2);
        }
    }

    #[test]
    fn uniform_gap_rejects_degenerate_parameters() {
        assert!(uniform_gap(0, 3, 2).is_err());
        assert!(uniform_gap(2, 1, 2).is_err());
        assert!(uniform_gap(2, 3, 1).is_err());
    }
}
