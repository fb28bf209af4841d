//! Correctness checkers for `k`-set consensus transcripts.
//!
//! A protocol for (nonuniform) `k`-set consensus must satisfy, in every run:
//!
//! * **`k`-Agreement** — the set of values decided by correct processes has
//!   cardinality at most `k` (all decided values, for the uniform variant);
//! * **Decision** — every correct process decides;
//! * **Validity** — a value may be decided only if some process started with
//!   it.
//!
//! [`check`] evaluates all three against a run/transcript pair and returns
//! the list of violations (empty for a correct execution).
//!
//! # Allocation-free checking
//!
//! The free functions allocate a fresh violation list (and the value sets
//! behind Validity and Agreement) per call — fine for one-shot use, pure
//! overhead when a sweep checks three protocols against every adversary of
//! an exhaustive scope.  [`CheckScratch`] is the batch counterpart: it owns
//! the buffers, *clears* them instead of reallocating, and returns a
//! borrowed view of the violations.  Every `BatchRunner` carries one (see
//! `BatchRunner::batch_parts`), so sweep jobs check in steady state without
//! allocating at all.  Both paths produce identical violation lists — the
//! free functions are thin wrappers over a throwaway scratch.
//!
//! ```
//! use set_consensus::{check::CheckScratch, execute, check, Optmin, TaskParams, TaskVariant};
//! use synchrony::{Adversary, InputVector, SystemParams};
//!
//! let params = TaskParams::new(SystemParams::new(3, 1)?, 1)?;
//! let adversary = Adversary::failure_free(InputVector::from_values([0, 1, 1]))?;
//! let (run, transcript) = execute(&Optmin, &params, adversary)?;
//!
//! let mut scratch = CheckScratch::new();
//! let violations = scratch.check(&run, &transcript, &params, TaskVariant::Nonuniform);
//! assert!(violations.is_empty());
//! // The scratch path and the one-shot path agree exactly.
//! assert_eq!(violations, check::check(&run, &transcript, &params, TaskVariant::Nonuniform));
//! # Ok::<(), synchrony::ModelError>(())
//! ```

use std::fmt;

use synchrony::{ProcessId, Run, Time, Value, ValueSet};

use crate::{TaskParams, TaskVariant, Transcript};

/// A violation of one of the `k`-set consensus properties in a specific run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A process decided a value that no process started with.
    Validity {
        /// The offending process.
        process: ProcessId,
        /// The decided value.
        value: Value,
    },
    /// More than `k` distinct values were decided (by correct processes for
    /// the nonuniform variant, by any process for the uniform variant).
    Agreement {
        /// The full set of decided values counted by the variant.
        values: ValueSet,
        /// The agreement degree that was exceeded.
        k: usize,
    },
    /// A correct process never decided within the simulated horizon.
    MissingDecision {
        /// The undecided correct process.
        process: ProcessId,
    },
    /// A process decided at a time when it was no longer active (this would
    /// indicate an executor bug rather than a protocol bug).
    DecisionAfterCrash {
        /// The offending process.
        process: ProcessId,
        /// The recorded decision time.
        time: Time,
    },
    /// A process decided a value outside the task's value domain.
    ValueOutOfDomain {
        /// The offending process.
        process: ProcessId,
        /// The decided value.
        value: Value,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Validity { process, value } => {
                write!(f, "{process} decided {value}, which no process started with")
            }
            Violation::Agreement { values, k } => {
                write!(f, "{} distinct values {} decided, exceeding k = {k}", values.len(), values)
            }
            Violation::MissingDecision { process } => {
                write!(f, "correct process {process} never decided")
            }
            Violation::DecisionAfterCrash { process, time } => {
                write!(f, "{process} decided at {time} after having crashed")
            }
            Violation::ValueOutOfDomain { process, value } => {
                write!(f, "{process} decided {value}, outside the task's value domain")
            }
        }
    }
}

/// Reusable buffers for checking many run/transcript pairs without
/// per-check allocations.
///
/// The scratch holds the violation list and the decided-value buffer the
/// Agreement check needs; every check *clears* them (keeping their
/// capacity) instead of reallocating, and hands back a borrowed
/// `&[Violation]` view valid until the next check.  The Validity check
/// reads the run's distinct input values from its `synchrony::ValueIndex`.
/// Only an actual Agreement violation allocates (its payload carries an
/// owned [`ValueSet`]), which never happens on the paper's correct
/// protocols.
///
/// The violation list is identical, element for element, to what the free
/// functions return for the same inputs — they are implemented on top of a
/// throwaway scratch.
#[derive(Debug, Default)]
pub struct CheckScratch {
    violations: Vec<Violation>,
    /// Sorted distinct decided values counted by the variant.
    decided: Vec<Value>,
}

impl CheckScratch {
    /// Creates an empty scratch; buffers are allocated lazily by the first
    /// check and reused from then on.
    pub fn new() -> Self {
        CheckScratch::default()
    }

    /// Checks a transcript against the `k`-set consensus specification and
    /// returns every violation found (empty means the execution is
    /// correct), as a view borrowed until the next check.
    pub fn check(
        &mut self,
        run: &Run,
        transcript: &Transcript,
        params: &TaskParams,
        variant: TaskVariant,
    ) -> &[Violation] {
        self.violations.clear();
        self.validity_into(run, transcript, params);
        self.agreement_into(run, transcript, params, variant);
        self.decision_into(run, transcript);
        self.sanity_into(run, transcript);
        &self.violations
    }

    /// Appends the Validity violations (and the value-domain side
    /// condition) to the violation buffer.  The `∃v` set is the run's
    /// distinct input values ([`synchrony::ValueIndex::values`]).
    fn validity_into(&mut self, run: &Run, transcript: &Transcript, params: &TaskParams) {
        let present = run.value_index().values();
        for (process, decision) in transcript.decisions() {
            if present.binary_search(&decision.value).is_err() {
                self.violations.push(Violation::Validity { process, value: decision.value });
            }
            if decision.value.get() > params.max_value() {
                self.violations
                    .push(Violation::ValueOutOfDomain { process, value: decision.value });
            }
        }
    }

    /// Appends the (`k`- or Uniform-`k`-) Agreement violation, if any, to
    /// the violation buffer.
    fn agreement_into(
        &mut self,
        run: &Run,
        transcript: &Transcript,
        params: &TaskParams,
        variant: TaskVariant,
    ) {
        self.decided.clear();
        match variant {
            TaskVariant::Nonuniform => self.decided.extend(
                transcript.decisions().filter(|(p, _)| run.is_correct(*p)).map(|(_, d)| d.value),
            ),
            TaskVariant::Uniform => {
                self.decided.extend(transcript.decisions().map(|(_, d)| d.value));
            }
        }
        self.decided.sort_unstable();
        self.decided.dedup();
        if self.decided.len() > params.k() {
            // A violation is the one place the scratch allocates: the
            // payload carries its own value set.
            let values: ValueSet = self.decided.iter().copied().collect();
            self.violations.push(Violation::Agreement { values, k: params.k() });
        }
    }

    /// Appends the Decision violations to the violation buffer: every
    /// correct process decides.
    fn decision_into(&mut self, run: &Run, transcript: &Transcript) {
        self.violations.extend(
            (0..run.n())
                .filter(|&i| run.is_correct(i) && transcript.decision(i).is_none())
                .map(|i| Violation::MissingDecision { process: ProcessId::new(i) }),
        );
    }

    /// Appends the internal-consistency violations to the violation buffer:
    /// nobody decides after crashing.
    fn sanity_into(&mut self, run: &Run, transcript: &Transcript) {
        self.violations.extend(
            transcript
                .decisions()
                .filter(|(p, d)| !run.is_active(*p, d.time))
                .map(|(process, d)| Violation::DecisionAfterCrash { process, time: d.time }),
        );
    }
}

/// Checks a transcript against the `k`-set consensus specification and
/// returns every violation found (empty means the execution is correct).
///
/// One-shot wrapper over [`CheckScratch`]; batch callers should hold a
/// scratch instead (every `BatchRunner` carries one).
pub fn check(
    run: &Run,
    transcript: &Transcript,
    params: &TaskParams,
    variant: TaskVariant,
) -> Vec<Violation> {
    let mut scratch = CheckScratch::new();
    scratch.check(run, transcript, params, variant);
    scratch.violations
}

/// Checks only the Validity property (and the value-domain side condition).
pub fn check_validity(run: &Run, transcript: &Transcript, params: &TaskParams) -> Vec<Violation> {
    let mut scratch = CheckScratch::new();
    scratch.validity_into(run, transcript, params);
    scratch.violations
}

/// Checks only the (`k`- or Uniform-`k`-) Agreement property.
pub fn check_agreement(
    run: &Run,
    transcript: &Transcript,
    params: &TaskParams,
    variant: TaskVariant,
) -> Vec<Violation> {
    let mut scratch = CheckScratch::new();
    scratch.agreement_into(run, transcript, params, variant);
    scratch.violations
}

/// Checks only the Decision property: every correct process decides.
pub fn check_decision(run: &Run, transcript: &Transcript) -> Vec<Violation> {
    let mut scratch = CheckScratch::new();
    scratch.decision_into(run, transcript);
    scratch.violations
}

/// Internal consistency checks on the transcript relative to the run: nobody
/// decides after crashing.
pub fn check_sanity(run: &Run, transcript: &Transcript) -> Vec<Violation> {
    let mut scratch = CheckScratch::new();
    scratch.sanity_into(run, transcript);
    scratch.violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decision, Transcript};
    use synchrony::{Adversary, FailurePattern, InputVector, SystemParams};

    fn run_and_params() -> (Run, TaskParams) {
        let system = SystemParams::new(3, 1).unwrap();
        let params = TaskParams::new(system, 1).unwrap();
        let mut failures = FailurePattern::crash_free(3);
        failures.crash_silent(2, 2).unwrap();
        let adversary = Adversary::new(InputVector::from_values([0, 1, 1]), failures).unwrap();
        let run = Run::generate(system, adversary, Time::new(3)).unwrap();
        (run, params)
    }

    fn transcript(decisions: Vec<Option<Decision>>) -> Transcript {
        Transcript::new("test".to_owned(), decisions, Time::new(3))
    }

    fn decided(time: u32, value: u64) -> Option<Decision> {
        Some(Decision { time: Time::new(time), value: Value::new(value) })
    }

    #[test]
    fn clean_transcript_has_no_violations() {
        let (run, params) = run_and_params();
        let t = transcript(vec![decided(1, 0), decided(1, 0), decided(1, 0)]);
        assert!(check(&run, &t, &params, TaskVariant::Nonuniform).is_empty());
        assert!(check(&run, &t, &params, TaskVariant::Uniform).is_empty());
    }

    #[test]
    fn validity_catches_invented_values() {
        let (run, params) = run_and_params();
        let t = transcript(vec![decided(1, 1), decided(1, 5), None]);
        let violations = check_validity(&run, &t, &params);
        assert!(violations.iter().any(|v| matches!(v, Violation::Validity { .. })));
        assert!(violations.iter().any(|v| matches!(v, Violation::ValueOutOfDomain { .. })));
    }

    #[test]
    fn agreement_counts_only_correct_processes_in_the_nonuniform_variant() {
        let (run, params) = run_and_params();
        // p2 (faulty) decides 1, correct processes decide 0: the nonuniform
        // variant tolerates it for k = 1, the uniform one does not.
        let t = transcript(vec![decided(1, 0), decided(1, 0), decided(1, 1)]);
        assert!(check_agreement(&run, &t, &params, TaskVariant::Nonuniform).is_empty());
        assert_eq!(check_agreement(&run, &t, &params, TaskVariant::Uniform).len(), 1);
    }

    #[test]
    fn decision_requires_correct_processes_to_decide() {
        let (run, _params) = run_and_params();
        let t = transcript(vec![decided(1, 0), None, None]);
        let violations = check_decision(&run, &t);
        // p1 is correct and undecided; p2 is faulty so it is excused.
        assert_eq!(violations, vec![Violation::MissingDecision { process: ProcessId::new(1) }]);
    }

    #[test]
    fn sanity_flags_decisions_after_the_crash() {
        let (run, _params) = run_and_params();
        // p2 crashes in round 2 (inactive from time 2 on) but "decides" at 3.
        let t = transcript(vec![decided(1, 0), decided(1, 0), decided(3, 0)]);
        let violations = check_sanity(&run, &t);
        assert_eq!(violations.len(), 1);
        assert!(matches!(violations[0], Violation::DecisionAfterCrash { .. }));
    }

    /// The reused scratch must produce, check after check, exactly the
    /// violation lists of the one-shot functions — including when earlier
    /// checks left non-empty buffers behind.
    #[test]
    fn scratch_matches_one_shot_checks_across_reuse() {
        let (run, params) = run_and_params();
        let transcripts = [
            transcript(vec![decided(1, 0), decided(1, 0), decided(1, 0)]),
            transcript(vec![decided(1, 1), decided(1, 5), None]),
            transcript(vec![decided(1, 0), decided(1, 0), decided(3, 1)]),
            transcript(vec![None, None, None]),
        ];
        let mut scratch = CheckScratch::new();
        for variant in [TaskVariant::Nonuniform, TaskVariant::Uniform] {
            for t in &transcripts {
                let expected = check(&run, t, &params, variant);
                assert_eq!(scratch.check(&run, t, &params, variant), expected.as_slice());
            }
        }
    }

    #[test]
    fn violations_have_readable_messages() {
        let (run, params) = run_and_params();
        let t = transcript(vec![decided(1, 0), decided(1, 1), None]);
        for v in check(&run, &t, &params, TaskVariant::Uniform) {
            assert!(!v.to_string().is_empty());
        }
    }
}
