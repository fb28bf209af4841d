//! Integration tests for the Appendix E wire implementation against the
//! protocols, and for the scenario generators the examples rely on.

use adversary::{scenarios, RandomAdversaries, RandomConfig};
use set_consensus::{execute, Optmin, TaskParams, UPmin};
use synchrony::{Run, SystemParams, Time, WireRun};

/// Lemma 6: on the adversaries the protocols actually run on, the wire
/// implementation reconstructs full-information knowledge and keeps per-pair
/// traffic bounded, so decision times are unchanged.
#[test]
fn wire_implementation_supports_the_protocols() {
    for seed in 0..10u64 {
        let (n, t, k) = (10usize, 6usize, 2usize);
        let system = SystemParams::new(n, t).unwrap();
        let params = TaskParams::new(system, k).unwrap();
        let adversary = RandomAdversaries::new(
            RandomConfig { crash_probability: 0.6, ..RandomConfig::new(n, t, k) },
            seed,
        )
        .next_adversary();
        let (run, optmin) = execute(&Optmin, &params, adversary.clone()).unwrap();
        let (_, upmin) = execute(&UPmin, &params, adversary).unwrap();
        let wire = WireRun::simulate(&run);
        assert!(wire.matches_full_information(&run));
        // Per-pair traffic stays far below the quadratic flooding regime.
        assert!(wire.stats().n_log_n_constant() < 64.0);
        // Decisions exist for correct processes under both protocols.
        assert!(optmin.all_correct_decided(&run));
        assert!(upmin.all_correct_decided(&run));
    }
}

/// Lemma 6 as `n` grows: over seeded random runs of `t / k + 2` rounds with
/// `t = n / 2`, the worst per-pair traffic stays within a constant multiple of
/// `n log₂ n` bits, and the wire knowledge always matches the fip.
#[test]
fn wire_traffic_per_pair_stays_within_n_log_n() {
    for n in [4usize, 8, 16, 32] {
        let (t, k) = (n / 2, 2usize);
        let rounds = (t / k + 2) as u32;
        let system = SystemParams::new(n, t).unwrap();
        let mut generator = RandomAdversaries::new(
            RandomConfig {
                max_crash_round: rounds - 1,
                crash_probability: 0.6,
                ..RandomConfig::new(n, t, k)
            },
            99,
        );
        let mut worst_bits = 0u64;
        for _ in 0..20 {
            let run = Run::generate(system, generator.next_adversary(), Time::new(rounds)).unwrap();
            let wire = WireRun::simulate(&run);
            assert!(wire.matches_full_information(&run), "n = {n}");
            worst_bits = worst_bits.max(wire.stats().max_pair_bits());
        }
        let constant = worst_bits as f64 / (n as f64 * (n as f64).log2());
        assert!(constant <= 6.0, "n = {n}: {worst_bits} bits is {constant:.2} n log2 n");
    }
}

/// The Fig. 4 family keeps working at larger scale (the example's default and
/// beyond): correct processes decide at time 2 under u-Pmin[k] for t up to 40.
#[test]
fn uniform_gap_scales_with_t() {
    for rounds in [2usize, 10, 20] {
        let k = 2usize;
        let scenario = scenarios::uniform_gap(k, rounds, 2).unwrap();
        let system = SystemParams::new(scenario.adversary.n(), scenario.t).unwrap();
        let params = TaskParams::new(system, k).unwrap();
        let (run, transcript) = execute(&UPmin, &params, scenario.adversary.clone()).unwrap();
        for i in scenario.correct.iter() {
            assert_eq!(transcript.decision_time(i), Some(Time::new(2)), "rounds = {rounds}");
        }
        assert!(transcript.all_correct_decided(&run));
    }
}

/// The hidden-path scenario generalizes to longer chains and keeps its
/// defining property: the observer is unaware of the value for exactly the
/// chain's duration.
#[test]
fn hidden_path_duration_matches_chain_length() {
    for chain_len in 1..=5usize {
        let n = chain_len + 3;
        let adversary = scenarios::hidden_path(n, chain_len).unwrap();
        let system = SystemParams::new(n, chain_len).unwrap();
        let run = Run::generate(system, adversary, Time::new(chain_len as u32 + 1)).unwrap();
        let observer = n - 1;
        // Unaware up to and including time = chain_len…
        for m in 0..=chain_len {
            let analysis = knowledge::ViewAnalysis::new(
                &run,
                synchrony::Node::new(observer, Time::new(m as u32)),
            )
            .unwrap();
            assert!(!analysis.vals().contains(0u64), "chain {chain_len}, time {m}");
        }
        // …and aware one round later (the chain endpoint is correct and
        // relays the value).
        let analysis = knowledge::ViewAnalysis::new(
            &run,
            synchrony::Node::new(observer, Time::new(chain_len as u32 + 1)),
        )
        .unwrap();
        assert!(analysis.vals().contains(0u64));
    }
}
