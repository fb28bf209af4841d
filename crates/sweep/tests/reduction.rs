//! Reduction pins for the plain batch loop: the `thm3` and `fig4` folds
//! that the library jobs produce through a reused `BatchRunner` equal the
//! folds of an unreduced job that runs one-shot `set_consensus::execute`
//! per protocol on a fresh, full-horizon `Run::generate`, and checks each
//! transcript with the free `check::check`.  A runner optimization that
//! changes what a job reads or how far a run is simulated must leave these
//! folds unchanged.

use set_consensus::{
    check, execute, EarlyUniformFloodMin, FloodMin, Optmin, Protocol, TaskVariant, UPmin,
};
use sweep::experiments::{self, Fig4Reducer, Query, Thm3Query, Thm3Reducer};
use sweep::{sweep, Scenario, SweepConfig};
use synchrony::{ModelError, Time};

/// One-shot `(latest correct decision, uniform violations)` of `protocol`
/// on the scenario.
fn one_shot(protocol: &dyn Protocol, scenario: &Scenario) -> Result<(u32, u64), ModelError> {
    let (run, transcript) = execute(protocol, &scenario.params, scenario.adversary.clone())?;
    assert_eq!(run.horizon(), scenario.params.horizon());
    let latest = transcript.last_correct_decision_time(&run).map_or(0, Time::value);
    let violations =
        check::check(&run, &transcript, &scenario.params, TaskVariant::Uniform).len() as u64;
    Ok((latest, violations))
}

#[test]
fn thm3_folds_equal_one_shot_execution() {
    let one_shot_job = |_: &mut set_consensus::BatchRunner, scenario: &Scenario| {
        let (latest, violations) = one_shot(&UPmin, scenario)?;
        Ok((scenario.adversary.failures().num_faulty(), latest, violations))
    };
    for seed in [SweepConfig::DEFAULT_SEED, 777] {
        let config = SweepConfig { seed, shards: 5, threads: 2 };
        for case in Thm3Query.cases() {
            let source = Thm3Query.source(&case, seed).unwrap();
            let library = sweep(&source, &config, &Thm3Reducer, Thm3Query::JOB).unwrap();
            let reference = sweep(&source, &config, &Thm3Reducer, one_shot_job).unwrap();
            assert_eq!(library, reference, "thm3 {case:?} at seed {seed}");
            assert!(!library.per_f.is_empty());
        }
    }
}

#[test]
fn fig4_fold_equals_one_shot_execution() {
    let one_shot_job = |_: &mut set_consensus::BatchRunner, scenario: &Scenario| {
        let protocols: [&dyn Protocol; 4] = [&UPmin, &Optmin, &EarlyUniformFloodMin, &FloodMin];
        let mut latest = [0u32; 4];
        let mut violations = 0u64;
        for (slot, protocol) in protocols.into_iter().enumerate() {
            let (time, count) = one_shot(protocol, scenario)?;
            latest[slot] = time;
            violations += count;
        }
        Ok((scenario.index, latest, violations))
    };
    let (source, shapes) = experiments::fig4_source().unwrap();
    let config = SweepConfig { shards: 3, threads: 2, ..SweepConfig::default() };
    let library = sweep(&source, &config, &Fig4Reducer, experiments::fig4_job).unwrap();
    let reference = sweep(&source, &config, &Fig4Reducer, one_shot_job).unwrap();
    assert_eq!(library, reference);
    assert_eq!(library.len(), shapes.len());
}
