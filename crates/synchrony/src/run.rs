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
//!   rows plus cached crash rounds, a pure function of
//!   `(params, failures, horizon)`;
//! * [`Run`] — a `RunStructure` plus the thin input-vector overlay.
//!
//! Rows are simulated in time order up to a *frontier*, by one loop
//! ([`Run::simulate_through`]).  [`Run::generate`] and [`Run::regenerate`]
//! run it through the horizon; [`Run::retarget`] stops at time 0, so an
//! early-deciding executor pays only for the rows its nodes read.  A row
//! past the frontier panics when read.
//!
//! [`Run::regenerate`] also exploits the split: when the next adversary
//! shares the previous one's failure pattern (the common case in exhaustive
//! sweeps, which cross every input vector with every pattern), only the
//! overlay is swapped and the simulated rows are kept — reported as
//! [`StructureReuse::Reused`].  Decision rules are layered on top by the
//! `set-consensus` crate.
//!
//! The overlay carries a [`ValueIndex`]: the run's distinct input values,
//! who holds each, and, row by row, who has seen each — the only value
//! facts the paper's decision rules read.

use std::fmt;

use crate::{
    Adversary, FailurePattern, InputVector, ModelError, Node, PidSet, ProcessId, Round,
    SystemParams, Time, Value,
};

/// The layers of nodes seen by a given observer node `⟨i, m⟩`: for every time
/// `ℓ ≤ m`, the set of processes `j` such that `⟨j, ℓ⟩` is *seen by* `⟨i, m⟩`
/// (i.e. there is a Lamport message chain from `⟨j, ℓ⟩` to `⟨i, m⟩`).
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct SeenLayers {
    layers: Vec<PidSet>,
}

impl Clone for SeenLayers {
    fn clone(&self) -> Self {
        SeenLayers { layers: self.layers.clone() }
    }

    /// Copies `source` into these layers, reusing the layer vector and the
    /// word buffer of every layer both have.
    fn clone_from(&mut self, source: &Self) {
        self.layers.clone_from(&source.layers);
    }
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

/// Whether [`Run::retarget`] (and so [`Run::regenerate`]) switched to a new
/// communication structure or kept the previous one outright.
///
/// Reuse happens exactly when the new `(params, failures, horizon)` triple
/// equals the previous run's — the structure is a pure function of that
/// triple, so keeping it is observationally invisible (the resulting
/// [`Run`] is `==` to a freshly generated one).  The enum exists so callers
/// (the `set-consensus` batch executor, the sweep engine) can count how
/// much simulation work a sweep actually avoided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureReuse {
    /// A new communication structure was started (first run, or the
    /// failure pattern / parameters / horizon changed); its rows are
    /// simulated afresh.
    Simulated,
    /// The previous structure was kept; only the input overlay was swapped.
    Reused,
}

/// The failure-pattern-keyed communication structure of a run.
///
/// A `RunStructure` records, for every time `m` up to its *simulated
/// frontier* and every process `i` that is still active at `m`:
///
/// * `heard_from(i, m)` — the processes whose round-`m` messages reached `i`
///   (including `i` itself);
/// * `seen(i, m)` — the layered set of nodes seen by `⟨i, m⟩`, i.e. the node
///   set of the view `G_α(i, m)`.
///
/// For processes that have already crashed at `m`, both structures are empty;
/// such nodes never take decisions.
///
/// Rows are simulated in time order by one loop,
/// [`RunStructure::simulate_through`], up to the horizon.
/// [`RunStructure::generate`] simulates every row; a structure re-targeted
/// by [`Run::retarget`] holds row 0 only, and its owner extends it just
/// before it reads a later row.  Reading a row past the frontier panics,
/// and never returns the stale row of an earlier structure.  Equality
/// compares `(params, failures, horizon)` and every row both structures
/// have simulated.
///
/// The structure is a pure function of `(params, failures, horizon)` — input
/// values never enter the simulation — which is what makes it shareable
/// across every input vector of a sweep (see [`Run::regenerate`]).
#[derive(Debug, Clone)]
pub struct RunStructure {
    params: SystemParams,
    failures: FailurePattern,
    horizon: Time,
    /// The last simulated time: rows `0 ..= frontier` hold this structure,
    /// later rows are buffers left by an earlier one.
    frontier: Time,
    /// The crash round of each process (`None` for a correct one), read by
    /// every activity test.
    crash_rounds: Vec<Option<Round>>,
    /// Scratch: the senders alive through the round being simulated.
    alive: PidSet,
    /// `heard[m][i]`: senders of round-`m` messages received by `i` (row 0 is
    /// the singleton `{i}` by convention — a process "hears from itself").
    heard: Vec<Vec<PidSet>>,
    /// `seen[m][i]`: the seen-layers of `⟨i, m⟩`.
    seen: Vec<Vec<SeenLayers>>,
}

impl PartialEq for RunStructure {
    fn eq(&self, other: &Self) -> bool {
        let common = self.frontier.min(other.frontier).index();
        self.params == other.params
            && self.horizon == other.horizon
            && self.failures == other.failures
            && self.heard[..=common] == other.heard[..=common]
            && self.seen[..=common] == other.seen[..=common]
    }
}

impl Eq for RunStructure {}

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
        let mut structure = RunStructure {
            params,
            failures,
            horizon,
            frontier: Time::ZERO,
            crash_rounds: Vec::new(),
            alive: PidSet::new(),
            heard: Vec::new(),
            seen: Vec::new(),
        };
        structure.restart();
        structure.simulate_through(horizon);
        Ok(structure)
    }

    /// Returns `true` if this structure was simulated under exactly the
    /// given `(params, failures, horizon)` triple — the precondition for
    /// reusing it as-is under a different input vector.
    pub fn matches(&self, params: &SystemParams, failures: &FailurePattern, horizon: Time) -> bool {
        self.params == *params && self.horizon == horizon && self.failures == *failures
    }

    /// Starts the structure of the current `(params, failures, horizon)`
    /// over: caches the crash rounds and simulates row 0, reusing every
    /// existing allocation.
    fn restart(&mut self) {
        let n = self.params.n();
        self.crash_rounds.clear();
        self.crash_rounds.resize(n, None);
        for (process, crash) in self.failures.faulty() {
            self.crash_rounds[process.index()] = Some(crash.round());
        }
        self.frontier = Time::ZERO;
        self.shape_row(0);
        for i in 0..n {
            self.heard[0][i].insert(i);
            self.seen[0][i].layers[0].insert(i);
        }
    }

    /// Shapes row `m` to `n` empty cells of `m + 1` empty layers each,
    /// reusing the row's cells and word buffers.
    fn shape_row(&mut self, m: usize) {
        let n = self.params.n();
        if self.heard.len() <= m {
            self.heard.resize_with(m + 1, Vec::new);
            self.seen.resize_with(m + 1, Vec::new);
        }
        self.heard[m].resize_with(n, PidSet::new);
        for cell in &mut self.heard[m] {
            cell.clear();
        }
        self.seen[m].resize_with(n, || SeenLayers { layers: Vec::new() });
        for cell in &mut self.seen[m] {
            cell.layers.resize_with(m + 1, PidSet::new);
            for layer in &mut cell.layers {
                layer.clear();
            }
        }
    }

    /// Extends the simulation through `time`: the one simulation loop.
    /// Rows already simulated are kept, so this is a no-op at or below
    /// [`RunStructure::frontier`].
    ///
    /// Row `m` starts every receiver active at `m` from the senders alive
    /// through round `m`, adds the round-`m` crashers whose final messages
    /// reach it and drops the send omissions `(j, m)` that name it — the
    /// word-parallel form of [`FailurePattern::delivers`] — and then unions
    /// the senders' time-`(m − 1)` seen-layers.
    ///
    /// # Panics
    ///
    /// Panics if `time` exceeds the horizon.
    pub fn simulate_through(&mut self, time: Time) {
        assert!(time <= self.horizon, "cannot simulate {time} past the horizon {}", self.horizon);
        let n = self.params.n();
        for m in self.frontier.index() + 1..=time.index() {
            let round = Round::new(m as u32);
            self.shape_row(m);
            let RunStructure { failures, crash_rounds, alive, heard, seen, .. } = self;
            let active = |p: usize| crash_rounds[p].is_none_or(|r| r > round);

            alive.clear();
            alive.extend((0..n).filter(|&p| active(p)));
            let row = &mut heard[m];
            for i in (0..n).filter(|&i| active(i)) {
                row[i].clone_from(alive);
            }
            for (j, crash) in failures.faulty().filter(|(_, crash)| crash.round() == round) {
                for i in crash.delivered().iter().filter(|i| active(i.index())) {
                    row[i.index()].insert(j);
                }
            }
            for ((j, _), dropped) in failures.omission_faults().filter(|((_, r), _)| *r == round) {
                for i in dropped.iter() {
                    row[i.index()].remove(j);
                }
            }

            let (earlier, later) = seen.split_at_mut(m);
            let (prev_row, cur_row) = (&earlier[m - 1], &mut later[0]);
            for i in (0..n).filter(|&i| active(i)) {
                let layers = &mut cur_row[i].layers;
                for sender in row[i].iter() {
                    for (time, layer) in prev_row[sender.index()].iter() {
                        layers[time.index()].union_with(layer);
                    }
                }
                layers[m].insert(i);
            }
        }
        self.frontier = self.frontier.max(time);
    }

    /// Returns the system parameters of the structure.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// Returns the failure pattern the structure was simulated under.
    pub fn failures(&self) -> &FailurePattern {
        &self.failures
    }

    /// Returns the last time the structure may be simulated to.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Returns the simulated frontier: rows `0 ..= frontier` may be read.
    pub fn frontier(&self) -> Time {
        self.frontier
    }

    /// Returns `true` if `process` has not yet crashed at `time` (`true`
    /// for a process outside the system, as [`FailurePattern::is_active_at`]
    /// answers).
    pub fn is_active(&self, process: impl Into<ProcessId>, time: Time) -> bool {
        match self.crash_rounds.get(process.into().index()) {
            Some(Some(round)) => time.value() < round.number(),
            _ => true,
        }
    }

    /// Returns `true` if `process` never crashes.
    pub fn is_correct(&self, process: impl Into<ProcessId>) -> bool {
        !matches!(self.crash_rounds.get(process.into().index()), Some(Some(_)))
    }

    /// Panics unless row `time` is simulated.
    fn check_frontier(&self, time: Time) {
        assert!(
            time <= self.frontier,
            "row {time} lies past the simulated frontier {}: call simulate_through first",
            self.frontier
        );
    }

    /// Returns the set of processes whose round-`time` messages reached
    /// `process` (including `process` itself); empty if the process has
    /// crashed by `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` lies past the simulated frontier (see
    /// [`RunStructure::simulate_through`]) or `process` is out of range.
    pub fn heard_from(&self, process: impl Into<ProcessId>, time: Time) -> &PidSet {
        self.check_frontier(time);
        &self.heard[time.index()][process.into().index()]
    }

    /// Returns the seen-layers of `⟨process, time⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `time` lies past the simulated frontier (see
    /// [`RunStructure::simulate_through`]) or `process` is out of range.
    pub fn seen(&self, process: impl Into<ProcessId>, time: Time) -> &SeenLayers {
        self.check_frontier(time);
        &self.seen[time.index()][process.into().index()]
    }
}

/// The value facts of a run, indexed once per input vector: its distinct
/// input values in increasing order, the *holders* of each (the processes
/// that start with it) and, for every simulated time `m`, its *knowers*
/// (the processes `j` whose `seen(j, m)` time-0 layer meets the holders —
/// an inactive process knows nothing).
///
/// Every set is a bitmap of exactly `⌈n / 64⌉` words: bit `b` of word `w`
/// is process `64·w + b`, as in [`PidSet::word`].  Values are named by
/// their *rank*, their position in [`ValueIndex::values`].
///
/// The index covers rows `0 ..= frontier` of its [`Run`]: it is rebuilt
/// whenever the input overlay changes ([`Run::generate`], [`Run::retarget`])
/// and extended by [`Run::simulate_through`], at `O(V · n · ⌈n / 64⌉)` word
/// operations per row for `V` distinct values.
///
/// ```
/// use synchrony::{Adversary, FailurePattern, InputVector, Run, SystemParams, Time, Value};
///
/// // p0 starts with 7 and crashes in round 1, reaching only p1.
/// let mut failures = FailurePattern::crash_free(3);
/// failures.crash(0, 1, [1])?;
/// let adversary = Adversary::new(InputVector::from_values([7, 2, 2]), failures)?;
/// let run = Run::generate(SystemParams::new(3, 1)?, adversary, Time::new(2))?;
/// let index = run.value_index();
/// assert_eq!(index.values(), &[Value::new(2), Value::new(7)]);
/// assert_eq!(index.holders(1), &[0b001]);
/// assert_eq!(index.knowers(Time::new(1), 1), &[0b010], "p0 has crashed; p1 heard it");
/// assert_eq!(index.knowers(Time::new(2), 1), &[0b110]);
/// # Ok::<(), synchrony::ModelError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ValueIndex {
    /// `⌈n / 64⌉`: the words of every bitmap.
    words: usize,
    /// Strictly increasing.
    values: Vec<Value>,
    /// The holders of rank `r` at words `r·W …`, with `W` = `words`.
    holders: Vec<u64>,
    /// The knowers of rank `r` at time `m` at words `(m·V + r)·W …`, for
    /// `V` values; the simulated rows only.
    knowers: Vec<u64>,
}

impl ValueIndex {
    /// Returns the distinct input values of the run, in increasing order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Returns the holders of the value of rank `rank`: the processes that
    /// start with it.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is not below the number of distinct values.
    pub fn holders(&self, rank: usize) -> &[u64] {
        &self.holders[rank * self.words..(rank + 1) * self.words]
    }

    /// Returns the knowers of the value of rank `rank` at `time`: the
    /// processes whose node at `time` has seen a holder's time-0 node.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range or `time` lies past the run's
    /// simulated frontier.
    pub fn knowers(&self, time: Time, rank: usize) -> &[u64] {
        assert!(rank < self.values.len(), "no value of rank {rank}");
        let start = (time.index() * self.values.len() + rank) * self.words;
        &self.knowers[start..start + self.words]
    }

    /// Indexes the values of `inputs` and the knowers of rows
    /// `0 ..= structure.frontier()`, reusing every buffer.
    fn rebuild(&mut self, structure: &RunStructure, inputs: &InputVector) {
        let words = structure.params.n().div_ceil(64);
        self.words = words;
        self.values.clear();
        self.values.extend(inputs.iter().map(|(_, value)| value));
        self.values.sort_unstable();
        self.values.dedup();
        self.holders.clear();
        self.holders.resize(self.values.len() * words, 0);
        for (p, value) in inputs.iter() {
            let rank = self.values.binary_search(&value).expect("every input is indexed");
            self.holders[rank * words + p.index() / 64] |= 1 << (p.index() % 64);
        }
        self.knowers.clear();
        self.extend(structure);
    }

    /// Indexes the knowers of the rows simulated since the last call, up to
    /// `structure.frontier()`.
    fn extend(&mut self, structure: &RunStructure) {
        let (words, num_values) = (self.words, self.values.len());
        let row_len = num_values * words;
        for m in self.knowers.len() / row_len..=structure.frontier.index() {
            if m == 0 {
                // ⟨j, 0⟩ sees only itself: the knowers are the holders.
                self.knowers.extend_from_slice(&self.holders);
                continue;
            }
            let start = self.knowers.len();
            self.knowers.resize(start + row_len, 0);
            let row = &mut self.knowers[start..];
            for (j, seen) in structure.seen[m].iter().enumerate() {
                // Empty for a crashed process.
                let support = seen.layers[0].as_words();
                if support.is_empty() {
                    continue;
                }
                for (rank, held) in self.holders.chunks_exact(words).enumerate() {
                    if support.iter().zip(held).any(|(s, h)| s & h != 0) {
                        row[rank * words + j / 64] |= 1 << (j % 64);
                    }
                }
            }
        }
    }
}

/// The full-information structure of a run: a (potentially shared)
/// [`RunStructure`] plus the input-vector overlay and its [`ValueIndex`].
///
/// The horizon must be long enough for the protocols under study to decide;
/// `⌊t/k⌋ + 2` always suffices for the protocols in this repository, and
/// [`Run::generous_horizon`] provides a safe default of `t + 2`.
///
/// Equality compares the structure and the input vector; the index is a
/// function of the two.
#[derive(Debug, Clone)]
pub struct Run {
    structure: RunStructure,
    inputs: InputVector,
    index: ValueIndex,
}

impl PartialEq for Run {
    fn eq(&self, other: &Self) -> bool {
        self.structure == other.structure && self.inputs == other.inputs
    }
}

impl Eq for Run {}

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
        let structure = RunStructure::generate(params, failures, horizon)?;
        let mut index = ValueIndex::default();
        index.rebuild(&structure, &inputs);
        Ok(Run { structure, inputs, index })
    }

    /// Re-targets this run at a new adversary (and possibly new parameters
    /// and horizon) and simulates it through the horizon, reusing as much
    /// of the previous simulation as possible: [`Run::retarget`] followed
    /// by [`Run::simulate_through`] the horizon.
    ///
    /// Two levels of reuse stack up here:
    ///
    /// * if the new `(params, failure pattern, horizon)` triple equals the
    ///   previous one — the structure-major access pattern of exhaustive
    ///   sweeps, which enumerate every input vector under one pattern before
    ///   moving on — the rows already simulated are kept and only the input
    ///   overlay is swapped ([`StructureReuse::Reused`]);
    /// * otherwise the run is re-simulated in place, reusing the allocations
    ///   of the previous simulation; the seen-layer unions dominate, at
    ///   `O(horizon² · n²)` bitmap-word operations per `n / 64` words.
    ///
    /// Either way the resulting run is indistinguishable (`==`) from one
    /// produced by [`Run::generate`] with the same arguments.
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
        let reuse = self.retarget(params, adversary, horizon)?;
        self.simulate_through(horizon);
        Ok(reuse)
    }

    /// Re-targets this run at a new adversary (and possibly new parameters
    /// and horizon) without simulating past time 0: a new structure holds
    /// row 0 only, and a kept one ([`StructureReuse::Reused`]) keeps every
    /// row it had simulated.  Extend it with [`Run::simulate_through`]
    /// before reading a later row.
    ///
    /// The adversary is taken by reference so the reuse path clones only
    /// the input vector — the failure pattern (a heap-backed map) is merely
    /// compared, never copied, on the hot path of a structure-major sweep.
    /// Either way the [`ValueIndex`] is rebuilt for the new inputs over the
    /// rows the run holds.
    ///
    /// # Errors
    ///
    /// Returns an error if the adversary is inconsistent with `params` or the
    /// horizon is zero; `self` is left unchanged in that case.
    pub fn retarget(
        &mut self,
        params: SystemParams,
        adversary: &Adversary,
        horizon: Time,
    ) -> Result<StructureReuse, ModelError> {
        adversary.validate_against(&params)?;
        if horizon == Time::ZERO {
            return Err(ModelError::EmptyHorizon);
        }
        self.inputs.clone_from(adversary.inputs());
        let reuse = if self.structure.matches(&params, adversary.failures(), horizon) {
            StructureReuse::Reused
        } else {
            self.structure.params = params;
            self.structure.failures.clone_from(adversary.failures());
            self.structure.horizon = horizon;
            self.structure.restart();
            StructureReuse::Simulated
        };
        self.index.rebuild(&self.structure, &self.inputs);
        Ok(reuse)
    }

    /// Extends the simulation, and the [`ValueIndex`], through `time`; see
    /// [`RunStructure::simulate_through`].
    ///
    /// # Panics
    ///
    /// Panics if `time` exceeds the horizon.
    pub fn simulate_through(&mut self, time: Time) {
        self.structure.simulate_through(time);
        self.index.extend(&self.structure);
    }

    /// Returns the simulated frontier: rows `0 ..= frontier` may be read.
    /// It is the horizon for a run from [`Run::generate`] or
    /// [`Run::regenerate`].
    pub fn frontier(&self) -> Time {
        self.structure.frontier()
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

    /// Returns the run's [`ValueIndex`], which covers the simulated rows.
    pub fn value_index(&self) -> &ValueIndex {
        &self.index
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
        self.structure.is_active(process, time)
    }

    /// Returns the set of processes still active at `time`.
    pub fn active_at(&self, time: Time) -> PidSet {
        self.failures().active_at(time)
    }

    /// Returns `true` if `process` never crashes in this run.
    pub fn is_correct(&self, process: impl Into<ProcessId>) -> bool {
        self.structure.is_correct(process)
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
    /// Panics if `time` lies past the simulated frontier (see
    /// [`Run::simulate_through`]) or `process` is out of range.
    pub fn heard_from(&self, process: impl Into<ProcessId>, time: Time) -> &PidSet {
        self.structure.heard_from(process, time)
    }

    /// Returns the seen-layers of `⟨process, time⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `time` lies past the simulated frontier (see
    /// [`Run::simulate_through`]) or `process` is out of range.
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

    /// A re-targeted run holds row 0 only, compares equal to the full run
    /// on the rows both hold, and catches up row by row.
    #[test]
    fn retarget_simulates_rows_on_demand() {
        let full = small_run(
            4,
            2,
            &[0, 1, 2, 3],
            |f| {
                f.crash(0, 1, [1]).unwrap();
            },
            3,
        );
        let mut run = small_run(
            4,
            2,
            &[3, 2, 1, 0],
            |f| {
                f.crash_silent(2, 2).unwrap();
            },
            3,
        );
        let adversary = full.to_adversary();
        let reuse = run.retarget(*full.params(), &adversary, full.horizon()).unwrap();
        assert_eq!(reuse, StructureReuse::Simulated);
        assert_eq!(run.frontier(), Time::ZERO);
        assert_eq!(run, full, "equal on row 0");
        for m in 1..=3 {
            run.simulate_through(Time::new(m));
            assert_eq!(run.frontier(), Time::new(m));
            assert_eq!(run.seen(1, Time::new(m)), full.seen(1, Time::new(m)));
        }
        assert_eq!(run.structure(), full.structure());
        // A repeated pattern keeps every simulated row.
        assert_eq!(
            run.retarget(*full.params(), &adversary, full.horizon()).unwrap(),
            StructureReuse::Reused
        );
        assert_eq!(run.frontier(), Time::new(3));
    }

    /// The value index follows the inputs across both arms of a retarget
    /// and covers exactly the simulated rows, each equal to its definition.
    #[test]
    fn value_index_matches_its_definition_row_by_row() {
        let bits = |set: &PidSet| (0..4).filter(|&p| set.contains(p)).fold(0u64, |b, p| b | 1 << p);
        let mut run = small_run(4, 2, &[0, 0, 0, 0], |_| {}, 3);
        let mut failures = FailurePattern::crash_free(4);
        failures.crash(0, 1, [1]).unwrap();
        failures.crash(1, 2, [2]).unwrap();
        for inputs in [[64u64, 9, 64, 1000], [5, 5, 5, 5], [1000, 0, 9, 9]] {
            let adversary =
                Adversary::new(InputVector::from_values(inputs), failures.clone()).unwrap();
            run.retarget(*run.params(), &adversary, Time::new(3)).unwrap();
            for m in 0..=3u32 {
                run.simulate_through(Time::new(m));
                let index = run.value_index();
                let mut values = inputs.to_vec();
                values.sort_unstable();
                values.dedup();
                assert_eq!(
                    index.values(),
                    values.iter().map(|&v| Value::new(v)).collect::<Vec<_>>()
                );
                for (rank, &v) in values.iter().enumerate() {
                    let holders: PidSet = (0..4).filter(|&p| inputs[p] == v).collect();
                    assert_eq!(index.holders(rank), &[bits(&holders)]);
                    for time in (0..=m).map(Time::new) {
                        let knowers: PidSet = (0..4)
                            .filter(|&j| !run.seen(j, time).layer(Time::ZERO).is_disjoint(&holders))
                            .collect();
                        assert_eq!(
                            index.knowers(time, rank),
                            &[bits(&knowers)],
                            "{inputs:?} {time}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "call simulate_through first")]
    fn rows_past_the_frontier_panic() {
        let mut run = small_run(3, 1, &[0, 1, 2], |_| {}, 2);
        let adversary = run.to_adversary();
        let mut failures = adversary.failures().clone();
        failures.crash_silent(0, 1).unwrap();
        let other = Adversary::new(adversary.inputs().clone(), failures).unwrap();
        run.retarget(*run.params(), &other, Time::new(2)).unwrap();
        // Row 1 of the previous pattern is still in the buffers.
        run.heard_from(1, Time::new(1));
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
