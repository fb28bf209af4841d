//! Decision transcripts: who decided what, and when.

use std::fmt;

use synchrony::{ProcessId, Run, Time, Value, ValueSet};

/// A single decision: the time at which it was taken and the decided value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Decision {
    /// The time at which the process decided.
    pub time: Time,
    /// The decided value.
    pub value: Value,
}

/// The decisions taken by every process when a protocol is executed against a
/// run.
///
/// Faulty processes may appear with decisions they took before crashing —
/// these count towards Uniform `k`-Agreement but not towards the nonuniform
/// variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transcript {
    pub(crate) protocol: String,
    pub(crate) decisions: Vec<Option<Decision>>,
    pub(crate) horizon: Time,
}

impl Transcript {
    /// Creates a transcript from per-process decisions.
    pub fn new(protocol: String, decisions: Vec<Option<Decision>>, horizon: Time) -> Self {
        Transcript { protocol, decisions, horizon }
    }

    /// Returns the name of the protocol that produced the transcript.
    pub fn protocol(&self) -> &str {
        &self.protocol
    }

    /// Returns the number of processes covered.
    pub fn n(&self) -> usize {
        self.decisions.len()
    }

    /// Returns the horizon up to which the execution was simulated.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Returns the decision of `process`, if it decided at all.
    pub fn decision(&self, process: impl Into<ProcessId>) -> Option<Decision> {
        self.decisions[process.into().index()]
    }

    /// Returns the time at which `process` decided, if it did.
    pub fn decision_time(&self, process: impl Into<ProcessId>) -> Option<Time> {
        self.decision(process).map(|d| d.time)
    }

    /// Returns the value decided by `process`, if any.
    pub fn decision_value(&self, process: impl Into<ProcessId>) -> Option<Value> {
        self.decision(process).map(|d| d.value)
    }

    /// Iterates over `(process, decision)` pairs for processes that decided.
    pub fn decisions(&self) -> impl Iterator<Item = (ProcessId, Decision)> + '_ {
        self.decisions.iter().enumerate().filter_map(|(i, d)| d.map(|d| (ProcessId::new(i), d)))
    }

    /// Returns the set of values decided by *any* process (the relevant set
    /// for Uniform `k`-Agreement).
    pub fn decided_values(&self) -> ValueSet {
        self.decisions().map(|(_, d)| d.value).collect()
    }

    /// Returns the set of values decided by processes that are correct in
    /// `run` (the relevant set for nonuniform `k`-Agreement).
    pub fn decided_values_of_correct(&self, run: &Run) -> ValueSet {
        self.decisions().filter(|(p, _)| run.is_correct(*p)).map(|(_, d)| d.value).collect()
    }

    /// Returns `true` if every process that is correct in `run` decided.
    pub fn all_correct_decided(&self, run: &Run) -> bool {
        (0..self.n()).all(|i| !run.is_correct(i) || self.decision(i).is_some())
    }

    /// Returns the latest decision time over all decisions in the transcript,
    /// or `None` if nobody decided.
    pub fn last_decision_time(&self) -> Option<Time> {
        self.decisions().map(|(_, d)| d.time).max()
    }

    /// Returns the latest decision time over the processes that are correct in
    /// `run`, or `None` if no correct process decided.
    pub fn last_correct_decision_time(&self, run: &Run) -> Option<Time> {
        self.decisions().filter(|(p, _)| run.is_correct(*p)).map(|(_, d)| d.time).max()
    }

    /// Returns the number of processes that decided.
    pub fn num_decided(&self) -> usize {
        self.decisions.iter().filter(|d| d.is_some()).count()
    }
}

impl fmt::Display for Transcript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.protocol)?;
        for (i, d) in self.decisions.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match d {
                Some(d) => write!(f, "p{i}→{}@{}", d.value, d.time)?,
                None => write!(f, "p{i}→⊥")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synchrony::{Adversary, FailurePattern, InputVector, SystemParams};

    fn transcript() -> Transcript {
        Transcript::new(
            "Test".to_owned(),
            vec![
                Some(Decision { time: Time::new(1), value: Value::new(0) }),
                None,
                Some(Decision { time: Time::new(2), value: Value::new(1) }),
            ],
            Time::new(3),
        )
    }

    fn run_where_p2_crashes() -> Run {
        let params = SystemParams::new(3, 1).unwrap();
        let mut failures = FailurePattern::crash_free(3);
        failures.crash_silent(2, 3).unwrap();
        let adversary = Adversary::new(InputVector::from_values([0, 1, 1]), failures).unwrap();
        Run::generate(params, adversary, Time::new(3)).unwrap()
    }

    #[test]
    fn accessors_report_decisions() {
        let t = transcript();
        assert_eq!(t.protocol(), "Test");
        assert_eq!(t.n(), 3);
        assert_eq!(t.decision_time(0), Some(Time::new(1)));
        assert_eq!(t.decision_value(2), Some(Value::new(1)));
        assert_eq!(t.decision(1), None);
        assert_eq!(t.num_decided(), 2);
        assert_eq!(t.last_decision_time(), Some(Time::new(2)));
        assert_eq!(t.decided_values().len(), 2);
    }

    #[test]
    fn correct_only_views_exclude_faulty_deciders() {
        let t = transcript();
        let run = run_where_p2_crashes();
        // p2 decided but is faulty; p1 never decided but is correct.
        assert_eq!(t.decided_values_of_correct(&run).len(), 1);
        assert!(!t.all_correct_decided(&run));
        assert_eq!(t.last_correct_decision_time(&run), Some(Time::new(1)));
    }

    #[test]
    fn display_lists_every_process() {
        let s = transcript().to_string();
        assert!(s.contains("p0→0@1"));
        assert!(s.contains("p1→⊥"));
    }
}
