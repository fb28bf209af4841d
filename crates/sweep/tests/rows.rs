//! Row conformance of the demand-driven run simulation: one reused `Run`
//! is re-targeted at every pattern of the Theorem 3 distributions, the
//! Fig. 4 family and the omission scopes, then extended one row at a time.
//! Every simulated delivery row must equal `FailurePattern::delivers` read
//! process by process (empty for a crashed receiver), a row past the
//! frontier must panic instead of returning a stale row of an earlier
//! pattern, and the finished run must equal `Run::generate`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use adversary::enumerate::AdversarySpace;
use set_consensus::{TaskParams, TaskVariant};
use sweep::experiments::{self, THM3_CASES};
use sweep::source::ExhaustiveSource;
use sweep::{Scenario, ScenarioSource};
use synchrony::{PidSet, Round, Run, SystemParams, Time};

/// The panic message of reading row `time` of `run`, if it panics.
fn row_panic(run: &Run, time: Time) -> Option<String> {
    let read = catch_unwind(AssertUnwindSafe(|| {
        run.seen(0, time);
    }));
    read.err().map(|payload| match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(_) => String::from("<non-string panic>"),
    })
}

/// Re-targets `reused` at `scenario`, walks its rows up to the horizon and
/// checks each against the definition; returns the number of rows checked.
fn check_rows(reused: &mut Option<Run>, scenario: &Scenario) -> usize {
    let system = scenario.params.system();
    let horizon = scenario.params.horizon();
    let adversary = &scenario.adversary;
    let run = match reused {
        Some(run) => {
            run.retarget(system, adversary, horizon).unwrap();
            run
        }
        None => reused.insert(Run::generate(system, adversary.clone(), horizon).unwrap()),
    };
    let failures = adversary.failures();
    let n = system.n();
    let mut rows = 0;
    for m in 0..=horizon.index() {
        let time = Time::new(m as u32);
        if run.frontier() < time {
            let message = row_panic(run, time).expect("a row past the frontier must panic");
            assert!(message.contains("simulate_through"), "unhelpful panic: {message}");
            run.simulate_through(time);
        }
        assert!(run.frontier() >= time);
        for i in 0..n {
            let expected: PidSet = if m == 0 {
                PidSet::singleton(i)
            } else if failures.is_active_at(i, time) {
                (0..n).filter(|&j| failures.delivers(j, Round::new(m as u32), i)).collect()
            } else {
                PidSet::new()
            };
            assert_eq!(run.heard_from(i, time), &expected, "row {m} of p{i} in {adversary}");
            assert_eq!(run.is_active(i, time), failures.is_active_at(i, time));
        }
        rows += 1;
    }
    for i in 0..n {
        assert_eq!(run.is_correct(i), failures.is_correct(i));
    }
    let generated = Run::generate(system, adversary.clone(), horizon).unwrap();
    assert_eq!(*run, generated, "{adversary}");
    rows
}

#[test]
fn demand_driven_rows_match_the_delivery_definition() {
    let mut scenarios: Vec<Scenario> = Vec::new();
    for (n, t, k) in THM3_CASES {
        let source = experiments::thm3_source(n, t, k, 41).unwrap();
        scenarios.extend((0..source.len()).map(|index| source.scenario(index).unwrap()));
    }
    let (fig4, _) = experiments::fig4_source().unwrap();
    scenarios.extend((0..fig4.len()).map(|index| fig4.scenario(index).unwrap()));
    let mut omissions = 0;
    for (n, t, k) in experiments::OMISSION_CASES {
        let space = AdversarySpace::omission(experiments::omission_scope(n, t, k)).unwrap();
        let params = TaskParams::new(SystemParams::new(n, t).unwrap(), k).unwrap();
        let source = ExhaustiveSource::new(space, params, TaskVariant::Nonuniform).unwrap();
        let block = source.structure_block();
        for index in (0..source.len()).step_by(block) {
            let scenario = source.scenario(index).unwrap();
            omissions += usize::from(scenario.adversary.failures().has_omissions());
            scenarios.push(scenario);
        }
    }
    assert!(omissions > 100, "only {omissions} omission patterns");

    let mut reused = None;
    let rows: usize = scenarios.iter().map(|scenario| check_rows(&mut reused, scenario)).sum();
    assert!(rows > 5000, "only {rows} rows checked");
}
