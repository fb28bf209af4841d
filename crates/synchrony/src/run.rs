//! Runs: the full-information communication structure induced by an adversary.
//!
//! A protocol `P` and an adversary `α` uniquely determine a run `r = P[α]`.
//! Because all our protocols are full-information protocols (fip's), the
//! *communication structure* of the run — who hears from whom, and hence the
//! views `G_α(i, m)` — depends only on the **failure pattern** of the
//! adversary; the input vector merely labels the time-0 nodes with values.
//! That observation is reified in the type split here:
//!
//! * [`RunStructure`] — the failure-pattern-keyed part: the `heard`/`seen`
//!   layers plus activity, simulated once per `(params, failures, horizon)`;
//! * [`Run`] — a `RunStructure` plus the thin input-vector overlay.
//!
//! [`Run::regenerate`] exploits the split: when the next adversary shares
//! the previous one's failure pattern (the common case in exhaustive
//! sweeps, which cross every input vector with every pattern), only the
//! overlay is swapped and the simulation is skipped entirely — reported as
//! [`StructureReuse::Reused`].  Decision rules are layered on top by the
//! `set-consensus` crate.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{
    Adversary, FailurePattern, InputVector, ModelError, Node, PidSet, ProcessId, Round,
    SystemParams, Time, Value,
};

/// The layers of nodes seen by a given observer node `⟨i, m⟩`: for every time
/// `ℓ ≤ m`, the set of processes `j` such that `⟨j, ℓ⟩` is *seen by* `⟨i, m⟩`
/// (i.e. there is a Lamport message chain from `⟨j, ℓ⟩` to `⟨i, m⟩`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SeenLayers {
    layers: Vec<PidSet>,
}

impl SeenLayers {
    /// Returns the observer time `m`; the layers run from time `0` to `m`.
    pub fn observer_time(&self) -> Time {
        Time::new((self.layers.len() - 1) as u32)
    }

    /// Returns the number of layers (`m + 1`).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Returns the set of processes seen at layer `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` exceeds the observer time; use
    /// [`SeenLayers::get_layer`] for a checked variant.
    pub fn layer(&self, time: Time) -> &PidSet {
        &self.layers[time.index()]
    }

    /// Returns the set of processes seen at layer `time`, or `None` if the
    /// layer lies beyond the observer time.
    pub fn get_layer(&self, time: Time) -> Option<&PidSet> {
        self.layers.get(time.index())
    }

    /// Returns `true` if the node `⟨process, time⟩` is seen by the observer.
    pub fn contains_node(&self, process: impl Into<ProcessId>, time: Time) -> bool {
        self.get_layer(time).is_some_and(|l| l.contains(process))
    }

    /// Iterates over `(time, layer)` pairs from time 0 to the observer time.
    pub fn iter(&self) -> impl Iterator<Item = (Time, &PidSet)> {
        self.layers.iter().enumerate().map(|(i, l)| (Time::new(i as u32), l))
    }

    /// Returns the total number of seen nodes across all layers.
    pub fn total_seen(&self) -> usize {
        self.layers.iter().map(PidSet::len).sum()
    }
}

/// Whether [`Run::regenerate`] had to re-simulate the communication
/// structure or could reuse the previous one outright.
///
/// Reuse happens exactly when the new `(params, failures, horizon)` triple
/// equals the previous run's — the structure is a pure function of that
/// triple, so skipping the simulation is observationally invisible (the
/// resulting [`Run`] is `==` to a freshly generated one).  The enum exists
/// so callers (the `set-consensus` batch executor, the sweep engine) can
/// count how much simulation work a sweep actually avoided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureReuse {
    /// The communication structure was simulated (first run, or the failure
    /// pattern / parameters / horizon changed).
    Simulated,
    /// The previous structure was kept; only the input overlay was swapped.
    Reused,
}

/// The failure-pattern-keyed communication structure of a run.
///
/// A `RunStructure` records, for every time `m` up to the horizon and every
/// process `i` that is still active at `m`:
///
/// * `heard_from(i, m)` — the processes whose round-`m` messages reached `i`
///   (including `i` itself);
/// * `seen(i, m)` — the layered set of nodes seen by `⟨i, m⟩`, i.e. the node
///   set of the view `G_α(i, m)`.
///
/// For processes that have already crashed at `m`, both structures are empty;
/// such nodes never take decisions.
///
/// The structure is a pure function of `(params, failures, horizon)` — input
/// values never enter the simulation — which is what makes it shareable
/// across every input vector of a sweep (see [`Run::regenerate`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunStructure {
    params: SystemParams,
    failures: FailurePattern,
    horizon: Time,
    /// `heard[m][i]`: senders of round-`m` messages received by `i` (row 0 is
    /// the singleton `{i}` by convention — a process "hears from itself").
    heard: Vec<Vec<PidSet>>,
    /// `seen[m][i]`: the seen-layers of `⟨i, m⟩`.
    seen: Vec<Vec<SeenLayers>>,
}

impl RunStructure {
    /// Simulates the full-information exchange under `failures` for
    /// `horizon` rounds and records the resulting communication structure.
    ///
    /// # Errors
    ///
    /// Returns an error if the failure pattern is inconsistent with `params`
    /// or the horizon is zero.
    pub fn generate(
        params: SystemParams,
        failures: FailurePattern,
        horizon: Time,
    ) -> Result<Self, ModelError> {
        failures.validate_against(&params)?;
        if horizon == Time::ZERO {
            return Err(ModelError::EmptyHorizon);
        }
        let mut structure =
            RunStructure { params, failures, horizon, heard: Vec::new(), seen: Vec::new() };
        structure.resimulate();
        Ok(structure)
    }

    /// Returns `true` if this structure was simulated under exactly the
    /// given `(params, failures, horizon)` triple — the precondition for
    /// reusing it as-is under a different input vector.
    pub fn matches(&self, params: &SystemParams, failures: &FailurePattern, horizon: Time) -> bool {
        self.params == *params && self.horizon == horizon && self.failures == *failures
    }

    /// The simulation loop, writing into `self.heard` / `self.seen` while
    /// reusing any existing allocations (outer rows, per-node `PidSet` word
    /// vectors and seen-layer vectors).
    fn resimulate(&mut self) {
        let n = self.params.n();
        let end = self.horizon.index();
        let failures = &self.failures;
        let heard = &mut self.heard;
        let seen = &mut self.seen;

        // Shape the time-indexed rows, reusing surviving rows and cells.
        heard.resize_with(end + 1, Vec::new);
        seen.resize_with(end + 1, Vec::new);
        for row in heard.iter_mut() {
            row.resize_with(n, PidSet::new);
            for cell in row.iter_mut() {
                cell.clear();
            }
        }
        for row in seen.iter_mut() {
            row.resize_with(n, || SeenLayers { layers: Vec::new() });
        }
        let reshape_layers = |layers: &mut Vec<PidSet>, num_layers: usize| {
            layers.resize_with(num_layers, PidSet::new);
            for layer in layers.iter_mut() {
                layer.clear();
            }
        };

        // Time 0: every process has seen only its own initial node.
        for i in 0..n {
            heard[0][i].insert(i);
            let layers = &mut seen[0][i].layers;
            reshape_layers(layers, 1);
            layers[0].insert(i);
        }

        for m in 1..=end {
            let time = Time::new(m as u32);
            let round = Round::new(m as u32);
            let (earlier, later) = seen.split_at_mut(m);
            let (prev_row, cur_row) = (&earlier[m - 1], &mut later[0]);
            for i in 0..n {
                let layers = &mut cur_row[i].layers;
                reshape_layers(layers, m + 1);
                if !failures.is_active_at(i, time) {
                    // heard[m][i] stays empty; the layers stay empty too.
                    continue;
                }
                let senders = &mut heard[m][i];
                for j in 0..n {
                    if failures.delivers(j, round, i) {
                        senders.insert(j);
                    }
                }
                for sender in senders.iter() {
                    let prev = &prev_row[sender.index()];
                    for (time, layer) in prev.iter() {
                        layers[time.index()].union_with(layer);
                    }
                }
                layers[m].insert(i);
            }
        }
    }

    /// Returns the system parameters of the structure.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// Returns the failure pattern the structure was simulated under.
    pub fn failures(&self) -> &FailurePattern {
        &self.failures
    }

    /// Returns the last simulated time.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Returns the set of processes whose round-`time` messages reached
    /// `process` (including `process` itself); empty if the process has
    /// crashed by `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` exceeds the horizon or `process` is out of range.
    pub fn heard_from(&self, process: impl Into<ProcessId>, time: Time) -> &PidSet {
        &self.heard[time.index()][process.into().index()]
    }

    /// Returns the seen-layers of `⟨process, time⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `time` exceeds the horizon or `process` is out of range.
    pub fn seen(&self, process: impl Into<ProcessId>, time: Time) -> &SeenLayers {
        &self.seen[time.index()][process.into().index()]
    }
}

/// The full-information structure of a run: a (potentially shared)
/// [`RunStructure`] plus the input-vector overlay.
///
/// The horizon must be long enough for the protocols under study to decide;
/// `⌊t/k⌋ + 2` always suffices for the protocols in this repository, and
/// [`Run::generous_horizon`] provides a safe default of `t + 2`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Run {
    structure: RunStructure,
    inputs: InputVector,
}

impl Run {
    /// Simulates the full-information exchange under `adversary` for
    /// `horizon` rounds and records the resulting communication structure.
    ///
    /// # Errors
    ///
    /// Returns an error if the adversary is inconsistent with `params` or the
    /// horizon is zero.
    pub fn generate(
        params: SystemParams,
        adversary: Adversary,
        horizon: Time,
    ) -> Result<Self, ModelError> {
        adversary.validate_against(&params)?;
        let (inputs, failures) = adversary.into_parts();
        Ok(Run { structure: RunStructure::generate(params, failures, horizon)?, inputs })
    }

    /// Re-targets this run at a new adversary (and possibly new parameters
    /// and horizon), reusing as much of the previous simulation as possible.
    ///
    /// Two levels of reuse stack up here:
    ///
    /// * if the new `(params, failure pattern, horizon)` triple equals the
    ///   previous one — the structure-major access pattern of exhaustive
    ///   sweeps, which enumerate every input vector under one pattern before
    ///   moving on — the simulation is **skipped entirely** and only the
    ///   input overlay is swapped ([`StructureReuse::Reused`]);
    /// * otherwise the run is re-simulated in place, reusing the allocations
    ///   of the previous simulation (`O(horizon² · n)` of layer structure).
    ///
    /// Either way the resulting run is indistinguishable (`==`) from one
    /// produced by [`Run::generate`] with the same arguments.
    ///
    /// The adversary is taken by reference so the reuse path clones only
    /// the input vector — the failure pattern (a heap-backed map) is merely
    /// compared, never copied, on the hot path of a structure-major sweep.
    ///
    /// # Errors
    ///
    /// Returns an error if the adversary is inconsistent with `params` or the
    /// horizon is zero; `self` is left unchanged in that case.
    pub fn regenerate(
        &mut self,
        params: SystemParams,
        adversary: &Adversary,
        horizon: Time,
    ) -> Result<StructureReuse, ModelError> {
        adversary.validate_against(&params)?;
        if horizon == Time::ZERO {
            return Err(ModelError::EmptyHorizon);
        }
        if self.structure.matches(&params, adversary.failures(), horizon) {
            self.inputs.clone_from(adversary.inputs());
            return Ok(StructureReuse::Reused);
        }
        self.structure.params = params;
        self.structure.failures.clone_from(adversary.failures());
        self.structure.horizon = horizon;
        self.structure.resimulate();
        self.inputs.clone_from(adversary.inputs());
        Ok(StructureReuse::Simulated)
    }

    /// A horizon long enough for every protocol in this repository to decide:
    /// `t + 2` rounds.
    pub fn generous_horizon(params: &SystemParams) -> Time {
        Time::new(params.t() as u32 + 2)
    }

    /// Returns the system parameters of the run.
    pub fn params(&self) -> &SystemParams {
        self.structure.params()
    }

    /// Returns the communication structure of the run (the input-independent
    /// part).
    pub fn structure(&self) -> &RunStructure {
        &self.structure
    }

    /// Returns the input vector of the run.
    pub fn inputs(&self) -> &InputVector {
        &self.inputs
    }

    /// Returns the failure pattern of the run.
    pub fn failures(&self) -> &FailurePattern {
        self.structure.failures()
    }

    /// Reassembles the adversary `α = (v⃗, F)` that produced this run.
    ///
    /// The components are no longer stored as one [`Adversary`] (the failure
    /// pattern lives in the shared [`RunStructure`]), so this clones; prefer
    /// [`Run::inputs`] / [`Run::failures`] when one component suffices.
    pub fn to_adversary(&self) -> Adversary {
        Adversary::new(self.inputs.clone(), self.structure.failures().clone())
            .expect("a run's components are always consistent")
    }

    /// Returns the number of processes.
    pub fn n(&self) -> usize {
        self.params().n()
    }

    /// Returns the failure bound `t`.
    pub fn t(&self) -> usize {
        self.params().t()
    }

    /// Returns the number of processes that actually fail in this run (`f`).
    pub fn num_failures(&self) -> usize {
        self.failures().num_faulty()
    }

    /// Returns the last simulated time.
    pub fn horizon(&self) -> Time {
        self.structure.horizon()
    }

    /// Returns the initial value of `process`.
    pub fn initial_value(&self, process: impl Into<ProcessId>) -> Value {
        self.inputs.value_of(process)
    }

    /// Returns `true` if `process` has not yet crashed at `time`.
    pub fn is_active(&self, process: impl Into<ProcessId>, time: Time) -> bool {
        self.failures().is_active_at(process, time)
    }

    /// Returns the set of processes still active at `time`.
    pub fn active_at(&self, time: Time) -> PidSet {
        self.failures().active_at(time)
    }

    /// Returns `true` if `process` never crashes in this run.
    pub fn is_correct(&self, process: impl Into<ProcessId>) -> bool {
        self.failures().is_correct(process)
    }

    /// Returns the set of processes that never crash in this run.
    pub fn correct_set(&self) -> PidSet {
        self.failures().correct_set()
    }

    /// Returns the set of processes whose round-`time` messages reached
    /// `process` (including `process` itself); empty if the process has
    /// crashed by `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` exceeds the horizon or `process` is out of range.
    pub fn heard_from(&self, process: impl Into<ProcessId>, time: Time) -> &PidSet {
        self.structure.heard_from(process, time)
    }

    /// Returns the seen-layers of `⟨process, time⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `time` exceeds the horizon or `process` is out of range.
    pub fn seen(&self, process: impl Into<ProcessId>, time: Time) -> &SeenLayers {
        self.structure.seen(process, time)
    }

    /// Returns `true` if `target` is seen by `observer` (a message chain leads
    /// from the target node to the observer node).
    pub fn sees_node(&self, observer: Node, target: Node) -> bool {
        self.seen(observer.process, observer.time).contains_node(target.process, target.time)
    }

    /// Returns `true` if a message from `sender` to `receiver` in `round` is
    /// delivered under this run's failure pattern.
    pub fn delivered(
        &self,
        sender: impl Into<ProcessId>,
        round: Round,
        receiver: impl Into<ProcessId>,
    ) -> bool {
        self.failures().delivers(sender, round, receiver)
    }

    /// Validates that `time` lies within the simulated horizon.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TimeBeyondHorizon`] otherwise.
    pub fn check_time(&self, time: Time) -> Result<(), ModelError> {
        if time <= self.horizon() {
            Ok(())
        } else {
            Err(ModelError::TimeBeyondHorizon {
                time: time.value() as u64,
                horizon: self.horizon().value() as u64,
            })
        }
    }
}

impl fmt::Display for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run[{} | f={} | horizon {}]", self.params(), self.num_failures(), self.horizon())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FailurePattern, InputVector};

    fn small_run(
        n: usize,
        t: usize,
        inputs: &[u64],
        build: impl FnOnce(&mut FailurePattern),
        horizon: u32,
    ) -> Run {
        let params = SystemParams::new(n, t).unwrap();
        let mut failures = FailurePattern::crash_free(n);
        build(&mut failures);
        let adversary =
            Adversary::new(InputVector::from_values(inputs.to_vec()), failures).unwrap();
        Run::generate(params, adversary, Time::new(horizon)).unwrap()
    }

    #[test]
    fn failure_free_run_floods_everything_in_one_round() {
        let run = small_run(4, 2, &[0, 1, 2, 3], |_| {}, 2);
        for i in 0..4 {
            let seen = run.seen(i, Time::new(1));
            assert_eq!(seen.layer(Time::ZERO).len(), 4, "everyone sees all initial nodes");
            assert_eq!(
                seen.layer(Time::new(1)).len(),
                1,
                "a node sees only itself at its own time"
            );
            assert_eq!(run.heard_from(i, Time::new(1)).len(), 4);
        }
    }

    #[test]
    fn partial_delivery_creates_asymmetric_views() {
        // p0 crashes in round 1 and reaches only p1.
        let run = small_run(
            3,
            1,
            &[0, 1, 1],
            |f| {
                f.crash(0, 1, [1]).unwrap();
            },
            3,
        );
        assert!(run.seen(1, Time::new(1)).contains_node(0, Time::ZERO));
        assert!(!run.seen(2, Time::new(1)).contains_node(0, Time::ZERO));
        // One more round: p1 relays p0's initial node to p2.
        assert!(run.seen(2, Time::new(2)).contains_node(0, Time::ZERO));
    }

    #[test]
    fn crashed_processes_have_empty_structure() {
        let run = small_run(
            3,
            1,
            &[0, 1, 1],
            |f| {
                f.crash_silent(0, 1).unwrap();
            },
            2,
        );
        assert!(run.heard_from(0, Time::new(1)).is_empty());
        assert_eq!(run.seen(0, Time::new(1)).total_seen(), 0);
        assert!(!run.is_active(0, Time::new(1)));
        assert!(run.is_active(0, Time::ZERO));
    }

    #[test]
    fn chain_of_crashes_keeps_value_hidden_from_the_observer() {
        // The hidden-path scenario of Fig. 1: a chain of crashing processes
        // relays value 0 forward while the observer never sees it.
        // p0 holds 0 and crashes in round 1, reaching only p1.
        // p1 crashes in round 2, reaching only p2.
        let run = small_run(
            4,
            2,
            &[0, 1, 1, 1],
            |f| {
                f.crash(0, 1, [1]).unwrap();
                f.crash(1, 2, [2]).unwrap();
            },
            3,
        );
        let observer = Node::new(3, Time::new(2));
        assert!(!run.sees_node(observer, Node::new(0, Time::ZERO)));
        assert!(run.sees_node(Node::new(2, Time::new(2)), Node::new(0, Time::ZERO)));
    }

    #[test]
    fn seen_is_monotone_in_time() {
        let run = small_run(
            5,
            2,
            &[0, 1, 2, 3, 4],
            |f| {
                f.crash(0, 1, [1]).unwrap();
                f.crash_silent(1, 2).unwrap();
            },
            4,
        );
        for i in 2..5 {
            for m in 1..4u32 {
                let earlier = run.seen(i, Time::new(m));
                let later = run.seen(i, Time::new(m + 1));
                for (time, layer) in earlier.iter() {
                    assert!(layer.is_subset(later.layer(time)), "seen sets only grow over time");
                }
            }
        }
    }

    #[test]
    fn validation_is_enforced() {
        let params = SystemParams::new(3, 0).unwrap();
        let mut failures = FailurePattern::crash_free(3);
        failures.crash_silent(0, 1).unwrap();
        let adversary = Adversary::new(InputVector::from_values([0, 1, 2]), failures).unwrap();
        assert!(Run::generate(params, adversary.clone(), Time::new(2)).is_err());
        let params_ok = SystemParams::new(3, 1).unwrap();
        assert_eq!(Run::generate(params_ok, adversary, Time::ZERO), Err(ModelError::EmptyHorizon));
    }

    #[test]
    fn generous_horizon_covers_all_decision_bounds() {
        let params = SystemParams::new(6, 4).unwrap();
        assert_eq!(Run::generous_horizon(&params), Time::new(6));
    }

    #[test]
    fn regenerate_matches_generate_across_shape_changes() {
        // A sequence of (n, t, crash spec, horizon) deliberately varying every
        // dimension, replayed through a single reused Run.
        type CrashSpec = Vec<(usize, u32, Vec<usize>)>;
        let specs: Vec<(usize, usize, CrashSpec, u32)> = vec![
            (4, 2, vec![(0, 1, vec![1]), (1, 2, vec![])], 4),
            (6, 3, vec![(5, 1, vec![0, 1, 2])], 6),
            (3, 1, vec![], 2),
            (4, 2, vec![(2, 1, vec![3])], 5),
        ];
        let mut reused: Option<Run> = None;
        for (n, t, crashes, horizon) in specs {
            let params = SystemParams::new(n, t).unwrap();
            let mut failures = FailurePattern::crash_free(n);
            for (p, round, delivered) in crashes {
                failures.crash(p, round, delivered).unwrap();
            }
            let inputs: Vec<u64> = (0..n as u64).collect();
            let adversary = Adversary::new(InputVector::from_values(inputs), failures).unwrap();
            let fresh = Run::generate(params, adversary.clone(), Time::new(horizon)).unwrap();
            match reused.as_mut() {
                Some(run) => {
                    let reuse = run.regenerate(params, &adversary, Time::new(horizon)).unwrap();
                    assert_eq!(reuse, StructureReuse::Simulated, "every spec changes the pattern");
                }
                None => reused = Some(fresh.clone()),
            }
            assert_eq!(reused.as_ref().unwrap(), &fresh);
        }
    }

    /// The tentpole contract: for a fixed failure pattern, the communication
    /// structure is *identical* across all input vectors, `regenerate`
    /// detects it and skips the simulation, and the reused run is `==` to a
    /// freshly generated one.
    #[test]
    fn regenerate_reuses_the_structure_across_input_vectors() {
        let params = SystemParams::new(4, 2).unwrap();
        let mut failures = FailurePattern::crash_free(4);
        failures.crash(0, 1, [1]).unwrap();
        failures.crash_silent(3, 2).unwrap();
        let horizon = Time::new(4);

        let first =
            Adversary::new(InputVector::from_values([0, 1, 2, 3]), failures.clone()).unwrap();
        let mut run = Run::generate(params, first, horizon).unwrap();
        let reference_structure = run.structure().clone();

        for inputs in [[3u64, 2, 1, 0], [1, 1, 1, 1], [0, 9, 0, 9]] {
            let adversary =
                Adversary::new(InputVector::from_values(inputs), failures.clone()).unwrap();
            let reuse = run.regenerate(params, &adversary, horizon).unwrap();
            assert_eq!(reuse, StructureReuse::Reused, "same pattern must skip resimulation");
            assert_eq!(run.structure(), &reference_structure);
            let fresh = Run::generate(params, adversary, horizon).unwrap();
            assert_eq!(run, fresh);
        }

        // A changed horizon or pattern invalidates the structure.
        let same_inputs = InputVector::from_values([0, 1, 2, 3]);
        let longer = Adversary::new(same_inputs.clone(), failures.clone()).unwrap();
        assert_eq!(
            run.regenerate(params, &longer, Time::new(5)).unwrap(),
            StructureReuse::Simulated
        );
        let mut other_failures = FailurePattern::crash_free(4);
        other_failures.crash(0, 1, [2]).unwrap();
        other_failures.crash_silent(3, 2).unwrap();
        let other = Adversary::new(same_inputs, other_failures).unwrap();
        assert_eq!(
            run.regenerate(params, &other, Time::new(5)).unwrap(),
            StructureReuse::Simulated
        );
    }

    #[test]
    fn regenerate_rejects_bad_arguments_and_preserves_state() {
        let run = small_run(
            3,
            1,
            &[0, 1, 2],
            |f| {
                f.crash_silent(0, 1).unwrap();
            },
            3,
        );
        let mut reused = run.clone();
        let params = SystemParams::new(3, 1).unwrap();
        let adversary = reused.to_adversary();
        assert_eq!(
            reused.regenerate(params, &adversary, Time::ZERO),
            Err(ModelError::EmptyHorizon)
        );
        assert_eq!(reused, run);
    }

    #[test]
    fn to_adversary_roundtrips_the_components() {
        let run = small_run(
            3,
            1,
            &[2, 0, 1],
            |f| {
                f.crash(1, 1, [2]).unwrap();
            },
            2,
        );
        let adversary = run.to_adversary();
        assert_eq!(adversary.inputs(), run.inputs());
        assert_eq!(adversary.failures(), run.failures());
    }
}
