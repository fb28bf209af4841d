//! `Opt0` — the unbeatable nonuniform (1-set) consensus protocol of
//! Castañeda, Gonczarowski and Moses (2014), reviewed in §3 of the paper.
//!
//! > **Protocol `Opt0`** (for an undecided process `i` at time `m`):
//! > if seen 0 then `decide(0)`
//! > else if some time `ℓ ≤ m` contains no hidden node then `decide(1)`.
//!
//! `Opt0` is exactly `Optmin[1]` over binary inputs: "seen 0" is being *low*
//! for `k = 1`, and "some time contains no hidden node" is hidden capacity
//! `< 1`.  The type is kept separate so that examples and experiments can
//! refer to the protocol under its published name.

use synchrony::Value;

use crate::{DecisionContext, Optmin, Protocol};

/// The unbeatable nonuniform binary consensus protocol `Opt0`.
///
/// Use it with task parameters where `k = 1` and the value domain is
/// `{0, 1}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Opt0;

impl Protocol for Opt0 {
    fn name(&self) -> &str {
        "Opt0"
    }

    fn decide(&self, ctx: &DecisionContext<'_>) -> Option<Value> {
        debug_assert_eq!(ctx.k(), 1, "Opt0 is the k = 1 instance of Optmin[k]");
        Optmin.decide(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check, execute, TaskParams, TaskVariant};
    use synchrony::{Adversary, FailurePattern, InputVector, SystemParams, Time};

    fn params(n: usize, t: usize) -> TaskParams {
        TaskParams::new(SystemParams::new(n, t).unwrap(), 1).unwrap()
    }

    #[test]
    fn sees_zero_and_decides_zero_immediately() {
        let params = params(3, 1);
        let adversary = Adversary::failure_free(InputVector::from_values([0, 1, 1])).unwrap();
        let (run, transcript) = execute(&Opt0, &params, adversary).unwrap();
        assert_eq!(transcript.decision_value(0), Some(Value::new(0)));
        assert_eq!(transcript.decision_time(0), Some(Time::ZERO));
        // Everyone agrees on 0 after hearing about it.
        for i in 1..3 {
            assert_eq!(transcript.decision_value(i), Some(Value::new(0)));
        }
        assert!(check::check(&run, &transcript, &params, TaskVariant::Nonuniform).is_empty());
    }

    #[test]
    fn all_ones_run_decides_one_after_one_clean_round() {
        let params = params(4, 2);
        let adversary = Adversary::failure_free(InputVector::from_values([1, 1, 1, 1])).unwrap();
        let (_, transcript) = execute(&Opt0, &params, adversary).unwrap();
        for i in 0..4 {
            assert_eq!(transcript.decision_value(i), Some(Value::new(1)));
            assert_eq!(transcript.decision_time(i), Some(Time::new(1)));
        }
    }

    #[test]
    fn hidden_path_blocks_the_decision_on_one() {
        // The Fig. 1 adversary: p0 holds 0, crashes in round 1 reaching only
        // p1; p1 crashes in round 2 reaching only p2.  Process p3 cannot
        // decide 1 at time 2 because a hidden path may be carrying the 0.
        let params = params(5, 3);
        let mut failures = FailurePattern::crash_free(5);
        failures.crash(0, 1, [1]).unwrap();
        failures.crash(1, 2, [2]).unwrap();
        let adversary =
            Adversary::new(InputVector::from_values([0, 1, 1, 1, 1]), failures).unwrap();
        let (run, transcript) = execute(&Opt0, &params, adversary).unwrap();
        assert!(transcript.decision_time(3).unwrap() >= Time::new(3));
        // p2 received the hidden value and decides 0.
        assert_eq!(transcript.decision_value(2), Some(Value::new(0)));
        // Agreement among correct processes still holds.
        assert!(check::check(&run, &transcript, &params, TaskVariant::Nonuniform).is_empty());
    }

    #[test]
    fn matches_optmin_with_k_equal_one_everywhere() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let params = params(5, 3);
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let inputs: Vec<u64> = (0..5).map(|_| rng.random_range(0..=1)).collect();
            let mut failures = FailurePattern::crash_free(5);
            let mut crashed = 0;
            for p in 0..5usize {
                if crashed >= 3 || !rng.random_bool(0.4) {
                    continue;
                }
                let delivered: Vec<usize> = (0..5).filter(|_| rng.random_bool(0.5)).collect();
                failures.crash(p, rng.random_range(1..=3), delivered).unwrap();
                crashed += 1;
            }
            let adversary = Adversary::new(InputVector::from_values(inputs), failures).unwrap();
            let (_, opt0) = execute(&Opt0, &params, adversary.clone()).unwrap();
            let (_, optmin) = execute(&Optmin, &params, adversary).unwrap();
            for i in 0..5 {
                assert_eq!(opt0.decision(i), optmin.decision(i), "seed {seed}, process {i}");
            }
        }
    }
}
