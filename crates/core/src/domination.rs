//! Domination and unbeatability comparisons between protocols (§2.2, §4.2.1).
//!
//! A protocol `Q` *dominates* `P` (over a set of adversaries) if, whenever a
//! process decides in `P[α]` at time `m`, it decides in `Q[α]` no later than
//! `m`; it *strictly dominates* `P` if in addition some process decides
//! strictly earlier in some run.  A protocol is *unbeatable* if no correct
//! protocol strictly dominates it.  The paper also considers *last-decider*
//! domination, which compares the times of the last decision in each run.
//!
//! Exhaustively quantifying over all protocols is impossible, but these
//! comparisons let us verify every relation the paper claims between the
//! protocols it discusses: `Optmin[k]` dominates every implemented competitor,
//! `u-Pmin[k]` strictly dominates the uniform baselines (often by a large
//! margin), and no implemented protocol beats `Optmin[k]` anywhere.

use std::fmt;

use serde::{Deserialize, Serialize};

use synchrony::{Adversary, ModelError, ProcessId, Run, Time};

use crate::{BatchRunner, Protocol, TaskParams, Transcript};

/// The possible relations between two protocols over a set of adversaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DominationRelation {
    /// Identical decision times everywhere.
    Equivalent,
    /// The first protocol decides no later everywhere and strictly earlier
    /// somewhere.
    FirstStrictlyDominates,
    /// The second protocol decides no later everywhere and strictly earlier
    /// somewhere.
    SecondStrictlyDominates,
    /// Each protocol is strictly earlier somewhere: neither dominates.
    Incomparable,
}

impl fmt::Display for DominationRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DominationRelation::Equivalent => "equivalent",
            DominationRelation::FirstStrictlyDominates => "first strictly dominates",
            DominationRelation::SecondStrictlyDominates => "second strictly dominates",
            DominationRelation::Incomparable => "incomparable",
        };
        f.write_str(s)
    }
}

/// A witness that one protocol decided strictly earlier than another for a
/// specific process in a specific adversary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImprovementWitness {
    /// Index of the adversary in the compared set.
    pub adversary_index: usize,
    /// The process that decided earlier.
    pub process: ProcessId,
    /// Decision time under the earlier protocol.
    pub earlier: Time,
    /// Decision time under the later protocol (or `None` if it never decided).
    pub later: Option<Time>,
}

/// The outcome of comparing two protocols over a set of adversaries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DominationReport {
    first: String,
    second: String,
    adversaries: usize,
    /// Witnesses where the first protocol was strictly earlier.
    first_improvements: Vec<ImprovementWitness>,
    /// Witnesses where the second protocol was strictly earlier.
    second_improvements: Vec<ImprovementWitness>,
}

impl DominationReport {
    /// Returns the name of the first protocol.
    pub fn first(&self) -> &str {
        &self.first
    }

    /// Returns the name of the second protocol.
    pub fn second(&self) -> &str {
        &self.second
    }

    /// Returns the number of adversaries compared.
    pub fn num_adversaries(&self) -> usize {
        self.adversaries
    }

    /// Returns the witnesses where the first protocol decided strictly
    /// earlier than the second.
    pub fn first_improvements(&self) -> &[ImprovementWitness] {
        &self.first_improvements
    }

    /// Returns the witnesses where the second protocol decided strictly
    /// earlier than the first.
    pub fn second_improvements(&self) -> &[ImprovementWitness] {
        &self.second_improvements
    }

    /// Returns the relation between the two protocols over the compared set.
    pub fn relation(&self) -> DominationRelation {
        match (self.first_improvements.is_empty(), self.second_improvements.is_empty()) {
            (true, true) => DominationRelation::Equivalent,
            (false, true) => DominationRelation::FirstStrictlyDominates,
            (true, false) => DominationRelation::SecondStrictlyDominates,
            (false, false) => DominationRelation::Incomparable,
        }
    }

    /// Returns `true` if the first protocol (weakly) dominates the second:
    /// nowhere later.
    pub fn first_dominates(&self) -> bool {
        self.second_improvements.is_empty()
    }

    /// Returns `true` if the second protocol (weakly) dominates the first.
    pub fn second_dominates(&self) -> bool {
        self.first_improvements.is_empty()
    }

    /// Returns the largest improvement (in rounds) achieved by the first
    /// protocol over the second, taking an undecided process in the second
    /// protocol as an improvement by the full horizon.
    pub fn max_first_improvement(&self) -> u32 {
        self.first_improvements
            .iter()
            .map(|w| w.later.map_or(u32::MAX, |l| l.value()) - w.earlier.value())
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for DominationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} vs {} over {} adversaries: {} ({} / {} strict improvements)",
            self.first,
            self.second,
            self.adversaries,
            self.relation(),
            self.first_improvements.len(),
            self.second_improvements.len()
        )
    }
}

/// Compares two already-computed transcripts on the same run and records per
/// process which protocol decided strictly earlier.
fn compare_transcripts(
    adversary_index: usize,
    run: &Run,
    first: &Transcript,
    second: &Transcript,
    first_improvements: &mut Vec<ImprovementWitness>,
    second_improvements: &mut Vec<ImprovementWitness>,
) {
    for i in 0..run.n() {
        let a = first.decision_time(i);
        let b = second.decision_time(i);
        match (a, b) {
            (Some(a), Some(b)) if a < b => first_improvements.push(ImprovementWitness {
                adversary_index,
                process: ProcessId::new(i),
                earlier: a,
                later: Some(b),
            }),
            (Some(a), Some(b)) if b < a => second_improvements.push(ImprovementWitness {
                adversary_index,
                process: ProcessId::new(i),
                earlier: b,
                later: Some(a),
            }),
            (Some(a), None) => first_improvements.push(ImprovementWitness {
                adversary_index,
                process: ProcessId::new(i),
                earlier: a,
                later: None,
            }),
            (None, Some(b)) => second_improvements.push(ImprovementWitness {
                adversary_index,
                process: ProcessId::new(i),
                earlier: b,
                later: None,
            }),
            _ => {}
        }
    }
}

/// Runs both protocols on every adversary and produces a [`DominationReport`].
///
/// Both protocols execute as one [`BatchRunner`] batch per adversary, so
/// the run is simulated once, its per-node analyses are shared between the
/// two protocols, and the run/transcript buffers are reused across the
/// whole comparison — the same steady-state path the sweep engine uses.
///
/// # Errors
///
/// Propagates any model error raised while simulating the runs.
pub fn compare(
    first: &dyn Protocol,
    second: &dyn Protocol,
    params: &TaskParams,
    adversaries: &[Adversary],
) -> Result<DominationReport, ModelError> {
    let mut first_improvements = Vec::new();
    let mut second_improvements = Vec::new();
    let mut runner = BatchRunner::new();
    for (index, adversary) in adversaries.iter().enumerate() {
        let (run, transcripts) = runner.execute_batch(&[first, second], params, adversary)?;
        compare_transcripts(
            index,
            run,
            &transcripts[0],
            &transcripts[1],
            &mut first_improvements,
            &mut second_improvements,
        );
    }
    Ok(DominationReport {
        first: first.name().to_owned(),
        second: second.name().to_owned(),
        adversaries: adversaries.len(),
        first_improvements,
        second_improvements,
    })
}

/// The last-decider comparison of §4.2.1: for each adversary, compares the
/// time of the *last* decision taken under each protocol.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LastDeciderReport {
    first: String,
    second: String,
    /// Adversary indices where the first protocol's last decision is strictly
    /// earlier than the second's.
    first_earlier: Vec<usize>,
    /// Adversary indices where the second protocol's last decision is strictly
    /// earlier than the first's.
    second_earlier: Vec<usize>,
    adversaries: usize,
}

impl LastDeciderReport {
    /// Returns the relation between the two protocols under last-decider
    /// domination.
    pub fn relation(&self) -> DominationRelation {
        match (self.first_earlier.is_empty(), self.second_earlier.is_empty()) {
            (true, true) => DominationRelation::Equivalent,
            (false, true) => DominationRelation::FirstStrictlyDominates,
            (true, false) => DominationRelation::SecondStrictlyDominates,
            (false, false) => DominationRelation::Incomparable,
        }
    }

    /// Returns the adversary indices where the first protocol finished
    /// strictly earlier.
    pub fn first_earlier(&self) -> &[usize] {
        &self.first_earlier
    }

    /// Returns the adversary indices where the second protocol finished
    /// strictly earlier.
    pub fn second_earlier(&self) -> &[usize] {
        &self.second_earlier
    }

    /// Returns the number of adversaries compared.
    pub fn num_adversaries(&self) -> usize {
        self.adversaries
    }
}

/// Runs both protocols on every adversary and compares last decision times.
///
/// Shares one [`BatchRunner`] batch per adversary, like [`compare`].
///
/// # Errors
///
/// Propagates any model error raised while simulating the runs.
pub fn compare_last_decider(
    first: &dyn Protocol,
    second: &dyn Protocol,
    params: &TaskParams,
    adversaries: &[Adversary],
) -> Result<LastDeciderReport, ModelError> {
    let mut first_earlier = Vec::new();
    let mut second_earlier = Vec::new();
    let mut runner = BatchRunner::new();
    for (index, adversary) in adversaries.iter().enumerate() {
        let (_, transcripts) = runner.execute_batch(&[first, second], params, adversary)?;
        let la = transcripts[0].last_decision_time();
        let lb = transcripts[1].last_decision_time();
        match (la, lb) {
            (Some(a), Some(b)) if a < b => first_earlier.push(index),
            (Some(a), Some(b)) if b < a => second_earlier.push(index),
            (Some(_), None) => first_earlier.push(index),
            (None, Some(_)) => second_earlier.push(index),
            _ => {}
        }
    }
    Ok(LastDeciderReport {
        first: first.name().to_owned(),
        second: second.name().to_owned(),
        first_earlier,
        second_earlier,
        adversaries: adversaries.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EarlyFloodMin, FloodMin, Optmin, TaskParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use synchrony::{FailurePattern, InputVector, SystemParams};

    fn params() -> TaskParams {
        TaskParams::new(SystemParams::new(6, 4).unwrap(), 2).unwrap()
    }

    fn adversaries(count: u64) -> Vec<Adversary> {
        (0..count)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let inputs: Vec<u64> = (0..6).map(|_| rng.random_range(0..=2)).collect();
                let mut failures = FailurePattern::crash_free(6);
                let mut crashed = 0;
                for p in 0..6usize {
                    if crashed >= 4 || !rng.random_bool(0.4) {
                        continue;
                    }
                    let delivered: Vec<usize> = (0..6).filter(|_| rng.random_bool(0.5)).collect();
                    failures.crash(p, rng.random_range(1..=3), delivered).unwrap();
                    crashed += 1;
                }
                Adversary::new(InputVector::from_values(inputs), failures).unwrap()
            })
            .collect()
    }

    #[test]
    fn optmin_dominates_floodmin_strictly() {
        let report = compare(&Optmin, &FloodMin, &params(), &adversaries(25)).unwrap();
        assert!(report.first_dominates());
        assert_eq!(report.relation(), DominationRelation::FirstStrictlyDominates);
        assert!(report.max_first_improvement() >= 1);
        assert!(report.to_string().contains("Optmin[k]"));
    }

    #[test]
    fn optmin_dominates_early_floodmin() {
        let report = compare(&Optmin, &EarlyFloodMin, &params(), &adversaries(25)).unwrap();
        assert!(report.first_dominates(), "{report}");
    }

    #[test]
    fn a_protocol_is_equivalent_to_itself() {
        let report = compare(&Optmin, &Optmin, &params(), &adversaries(10)).unwrap();
        assert_eq!(report.relation(), DominationRelation::Equivalent);
        assert!(report.first_dominates() && report.second_dominates());
        assert_eq!(report.max_first_improvement(), 0);
    }

    #[test]
    fn last_decider_comparison_orders_optmin_before_floodmin() {
        let report = compare_last_decider(&Optmin, &FloodMin, &params(), &adversaries(25)).unwrap();
        assert!(report.second_earlier().is_empty());
        assert_eq!(report.relation(), DominationRelation::FirstStrictlyDominates);
        assert_eq!(report.num_adversaries(), 25);
    }

    #[test]
    fn relation_display_is_informative() {
        assert_eq!(DominationRelation::Incomparable.to_string(), "incomparable");
        assert_eq!(DominationRelation::Equivalent.to_string(), "equivalent");
    }
}
