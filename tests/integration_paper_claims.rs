//! Integration tests spanning all crates: the paper's figure-level claims,
//! reproduced end to end on the scenario families of the `adversary` crate.

use adversary::enumerate::{self, EnumerationConfig};
use adversary::{lemma2, scenarios, RandomAdversaries, RandomConfig};
use knowledge::ViewAnalysis;
use set_consensus::{
    check, compare, compare_last_decider, execute, execute_on_run, DominationRelation,
    EarlyFloodMin, EarlyUniformFloodMin, FloodMin, Opt0, Optmin, Protocol, TaskParams, TaskVariant,
    UPmin,
};
use synchrony::{Node, Run, SystemParams, Time, Value, View};

/// Fig. 1: a hidden path forces the observer of `Opt0` to wait, while the
/// chain endpoint (which received the hidden 0) decides immediately.  For
/// every chain length, the path is still hidden from the observer at time
/// `chain_len`, and the observer decides one round later, once it collapses.
#[test]
fn fig1_hidden_path_delays_opt0() {
    for chain_len in 1..=6usize {
        let n = chain_len + 3;
        let adversary = scenarios::hidden_path(n, chain_len).unwrap();
        let params =
            TaskParams::with_max_value(SystemParams::new(n, chain_len).unwrap(), 1, 1).unwrap();
        let (run, transcript) = execute(&Opt0, &params, adversary).unwrap();
        let observer = n - 1;
        let chain_end = Time::new(chain_len as u32);
        let analysis = ViewAnalysis::new(&run, Node::new(observer, chain_end)).unwrap();
        assert!(analysis.has_hidden_path(), "chain {chain_len}");
        assert_eq!(transcript.decision_time(observer), Some(chain_end + 1), "chain {chain_len}");
        assert_eq!(transcript.decision_time(chain_len), Some(chain_end), "chain {chain_len}");
        assert_eq!(transcript.decision_value(chain_len), Some(Value::new(0)));
        assert!(check::check(&run, &transcript, &params, TaskVariant::Nonuniform).is_empty());
    }
}

/// Fig. 2 + Lemma 2: the observer of the hidden-capacity chains has hidden
/// capacity exactly `k`, the chains admit an indistinguishable witness run in
/// which every chain node holds its chain's low value, and `Optmin[k]` keeps
/// the observer undecided while its hidden capacity is `k`.
#[test]
fn fig2_hidden_capacity_blocks_optmin_and_admits_witness_runs() {
    for k in 2..=4usize {
        for depth in 1..=3usize {
            let scenario =
                scenarios::hidden_capacity_chains(k * (depth + 1) + 3, k, depth).unwrap();
            let t = scenario.adversary.num_failures();
            let system = SystemParams::new(scenario.adversary.n(), t).unwrap();
            let params = TaskParams::new(system, k).unwrap();
            let run =
                Run::generate(system, scenario.adversary.clone(), Time::new(depth as u32 + 2))
                    .unwrap();
            let observer = Node::new(scenario.observer, Time::new(depth as u32));
            let capacity = ViewAnalysis::new(&run, observer).unwrap().hidden_capacity();
            assert_eq!(capacity, k, "k={k}, depth={depth}");
            let transcript = execute_on_run(&Optmin, &params, &run).unwrap();
            // The observer cannot decide while its hidden capacity is at least k.
            assert!(transcript.decision_time(scenario.observer).unwrap() > observer.time);
            assert!(check::check(&run, &transcript, &params, TaskVariant::Nonuniform).is_empty());

            // Lemma 2 witness run: indistinguishable to the observer, with one
            // chain per value, each carrying its value along every layer.
            let values: Vec<Value> = (0..k as u64).map(Value::new).collect();
            let (witness, witness_run) = lemma2::witness_run(&run, observer, &values).unwrap();
            assert!(View::extract(&run, observer)
                .indistinguishable_from(&View::extract(&witness_run, observer)));
            assert_eq!(witness.chains.len(), k);
            for (b, chain) in witness.chains.iter().enumerate() {
                for (layer, &member) in chain.iter().enumerate() {
                    let node = Node::new(member, Time::new(layer as u32));
                    let analysis = ViewAnalysis::new(&witness_run, node).unwrap();
                    assert!(analysis.vals().contains(values[b]), "k={k}, depth={depth}, {node}");
                }
            }
        }
    }
}

/// Fig. 3 / Lemma 1: in the witness run, each hidden chain endpoint is low
/// with a unique low value and decides it under `Optmin[k]` at the observer's
/// time, so all `k` low values are decided and the observer, still
/// undecided, has no high decision left.
#[test]
fn fig3_lemma1_low_values_are_all_decided_in_the_witness_run() {
    let k = 3usize;
    let depth = 2usize;
    let scenario = scenarios::hidden_capacity_chains(k * (depth + 1) + 3, k, depth).unwrap();
    let t = scenario.adversary.num_failures();
    let system = SystemParams::new(scenario.adversary.n(), t).unwrap();
    let params = TaskParams::new(system, k).unwrap();
    let run =
        Run::generate(system, scenario.adversary.clone(), Time::new(depth as u32 + 2)).unwrap();
    let observer = Node::new(scenario.observer, Time::new(depth as u32));
    let values: Vec<Value> = (0..k as u64).map(Value::new).collect();
    let (witness, witness_run) = lemma2::witness_run(&run, observer, &values).unwrap();
    let transcript = execute_on_run(&Optmin, &params, &witness_run).unwrap();
    assert!(transcript.decision_time(observer.process).is_none_or(|time| time > observer.time));
    let mut decided_lows = std::collections::BTreeSet::new();
    for (b, chain) in witness.chains.iter().enumerate() {
        let endpoint = chain[depth];
        let lows =
            ViewAnalysis::new(&witness_run, Node::new(endpoint, observer.time)).unwrap().lows(k);
        assert_eq!(lows.len(), 1, "chain {b} endpoint has one low value");
        assert_eq!(lows.min(), Some(values[b]), "chain {b} endpoint's low value");
        let decision = transcript.decision_value(endpoint).unwrap();
        assert_eq!(decision, values[b], "chain {b} endpoint decides its hidden low value");
        assert_eq!(transcript.decision_time(endpoint), Some(observer.time));
        decided_lows.insert(decision);
    }
    assert_eq!(decided_lows.len(), k, "all k low values are decided by hidden processes");
}

/// Fig. 4 / §5: on the uniform-gap family, `u-Pmin[k]` decides at time 2 while
/// the failure-counting baselines and `FloodMin` wait until `⌊t/k⌋ + 1`.
#[test]
fn fig4_uniform_gap_separates_u_pmin_from_all_baselines() {
    for (k, rounds) in [(2usize, 4usize), (3, 5)] {
        let scenario = scenarios::uniform_gap(k, rounds, 3).unwrap();
        let system = SystemParams::new(scenario.adversary.n(), scenario.t).unwrap();
        let params = TaskParams::new(system, k).unwrap();
        let bound = params.worst_case_decision_time();

        let (run, upmin) = execute(&UPmin, &params, scenario.adversary.clone()).unwrap();
        let (_, optmin) = execute(&Optmin, &params, scenario.adversary.clone()).unwrap();
        let (_, early) =
            execute(&EarlyUniformFloodMin, &params, scenario.adversary.clone()).unwrap();
        let (_, flood) = execute(&FloodMin, &params, scenario.adversary.clone()).unwrap();

        for i in scenario.correct.iter() {
            assert_eq!(upmin.decision_time(i), Some(Time::new(2)), "k={k}, rounds={rounds}");
            assert_eq!(optmin.decision_time(i), Some(Time::new(2)));
            assert_eq!(early.decision_time(i), Some(bound));
            assert_eq!(flood.decision_time(i), Some(bound));
        }
        assert!(check::check(&run, &upmin, &params, TaskVariant::Uniform).is_empty());
    }
}

/// Theorem 1 spot-check: over an exhaustive small scope, no implemented
/// competitor strictly dominates `Optmin[k]`, while `Optmin[k]` strictly
/// dominates both baselines.
#[test]
fn exhaustive_domination_check_matches_theorem_one() {
    let (n, t, k) = (4usize, 2usize, 2usize);
    let config = EnumerationConfig {
        n,
        t,
        max_value: k as u64,
        max_crash_round: 2,
        partial_delivery: false,
    };
    let adversaries = enumerate::adversaries(&config).unwrap();
    let params = TaskParams::new(SystemParams::new(n, t).unwrap(), k).unwrap();
    for competitor in [&EarlyFloodMin as &dyn Protocol, &FloodMin as &dyn Protocol] {
        let report = compare(&Optmin, competitor, &params, &adversaries).unwrap();
        assert!(report.first_dominates(), "{report}");
        assert_eq!(report.relation(), DominationRelation::FirstStrictlyDominates, "{report}");
    }
}

/// Theorem 2: `Optmin[k]` is last-decider unbeatable, so no competitor
/// ever makes the last correct decision of a run strictly earlier.  Checked
/// exhaustively on the (4, 2, 1) and (4, 2, 2) scopes of the sibling tests
/// and on seeded random (9, 6, 2) and (10, 6, 3) adversaries.
#[test]
fn no_competitor_finishes_a_run_before_optmin() {
    let mut cases: Vec<(TaskParams, Vec<_>)> = Vec::new();
    for (n, t, k) in [(4usize, 2usize, 1usize), (4, 2, 2)] {
        let config = EnumerationConfig {
            n,
            t,
            max_value: k as u64,
            max_crash_round: 2,
            partial_delivery: false,
        };
        let params = TaskParams::new(SystemParams::new(n, t).unwrap(), k).unwrap();
        cases.push((params, enumerate::adversaries(&config).unwrap()));
    }
    for (n, t, k) in [(9usize, 6usize, 2usize), (10, 6, 3)] {
        let params = TaskParams::new(SystemParams::new(n, t).unwrap(), k).unwrap();
        let random = RandomConfig { crash_probability: 0.6, ..RandomConfig::new(n, t, k) };
        cases.push((params, RandomAdversaries::new(random, 7).batch(200)));
    }
    for (params, adversaries) in &cases {
        for competitor in [&EarlyFloodMin as &dyn Protocol, &FloodMin] {
            let report = compare_last_decider(&Optmin, competitor, params, adversaries).unwrap();
            assert_eq!(report.num_adversaries(), adversaries.len());
            let beaten: Vec<_> =
                report.second_earlier().iter().map(|&i| adversaries[i].to_string()).collect();
            assert!(
                beaten.is_empty(),
                "{} finishes before Optmin[{}] with n={} t={} on {beaten:?}",
                competitor.name(),
                params.k(),
                params.system().n(),
                params.system().t(),
            );
        }
    }
}

/// Correctness of every protocol over an exhaustive small scope, for both task
/// variants.
#[test]
fn exhaustive_correctness_check() {
    let (n, t, k) = (4usize, 2usize, 2usize);
    let config = EnumerationConfig {
        n,
        t,
        max_value: k as u64,
        max_crash_round: 2,
        partial_delivery: false,
    };
    let adversaries = enumerate::adversaries(&config).unwrap();
    let params = TaskParams::new(SystemParams::new(n, t).unwrap(), k).unwrap();
    for adversary in &adversaries {
        for protocol in [&Optmin as &dyn Protocol, &EarlyFloodMin, &FloodMin] {
            let (run, transcript) = execute(protocol, &params, adversary.clone()).unwrap();
            assert!(
                check::check(&run, &transcript, &params, TaskVariant::Nonuniform).is_empty(),
                "{} on {}",
                protocol.name(),
                adversary
            );
        }
        for protocol in [&UPmin as &dyn Protocol, &EarlyUniformFloodMin, &FloodMin] {
            let (run, transcript) = execute(protocol, &params, adversary.clone()).unwrap();
            assert!(
                check::check(&run, &transcript, &params, TaskVariant::Uniform).is_empty(),
                "{} on {}",
                protocol.name(),
                adversary
            );
        }
    }
}

/// The Lemma 3 structural fact, checked exhaustively: Optmin[k] decides
/// exactly when the process is low or its hidden capacity has dropped below
/// `k`, never earlier and never later.
#[test]
fn optmin_decides_exactly_at_the_knowledge_threshold() {
    let (n, t, k) = (4usize, 2usize, 2usize);
    let config = EnumerationConfig {
        n,
        t,
        max_value: k as u64,
        max_crash_round: 2,
        partial_delivery: false,
    };
    let adversaries = enumerate::adversaries(&config).unwrap();
    let params = TaskParams::new(SystemParams::new(n, t).unwrap(), k).unwrap();
    for adversary in &adversaries {
        let (run, transcript) = execute(&Optmin, &params, adversary.clone()).unwrap();
        for i in 0..n {
            for m in 0..=run.horizon().index() {
                let time = Time::new(m as u32);
                if !run.is_active(i, time) {
                    continue;
                }
                let analysis = ViewAnalysis::new(&run, Node::new(i, time)).unwrap();
                let enabled = analysis.is_low(k) || analysis.hidden_capacity() < k;
                let decided = transcript.decision_time(i).is_some_and(|d| d <= time);
                assert_eq!(enabled, decided, "process {i} at time {time} in {adversary}");
            }
        }
    }
}
