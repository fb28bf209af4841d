//! The complete knowledge analysis of a single node `⟨i, m⟩`.

use std::fmt;

use synchrony::{ModelError, Node, PidSet, Round, Run, SeenLayers, Time, Value, ValueSet};

use crate::{DirectObservations, HiddenCapacity, NodeStatus};

/// Everything a decision rule may want to know at a node `⟨i, m⟩`.
///
/// The analysis is computed once from the run's communication structure and
/// then queried by the protocols; it packages:
///
/// * the seen-layers of the observer and the classification of every other
///   node as seen / guaranteed crashed / hidden;
/// * `Vals⟨i, m⟩`, `Lows⟨i, m⟩` and `Min⟨i, m⟩` (Definition 5), plus the same
///   data for the observer's own previous node `⟨i, m − 1⟩`;
/// * the hidden capacity `HC⟨i, m⟩` with its witness pools (Definition 2);
/// * the failures the observer can prove (and the earliest round it can prove
///   them for), which give `d` in Definition 3;
/// * the failures the observer has directly missed, which drive the classical
///   early-deciding baselines;
/// * the persistence predicate of Definition 3.
///
/// Besides [`ViewAnalysis::new`], an analysis can be refilled in its own
/// buffers: [`ViewAnalysis::recompute`] analyzes another node or run from
/// scratch given the previous node's hidden capacity, and
/// [`ViewAnalysis::refresh_values`] recomputes only the
/// input-value-dependent fields when the node's view is unchanged up to
/// its initial values.  Both leave the analysis `==` to a fresh one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewAnalysis {
    node: Node,
    n: usize,
    t: usize,
    seen: SeenLayers,
    vals: ValueSet,
    prev_vals: ValueSet,
    capacity: HiddenCapacity,
    prev_capacity: Option<usize>,
    /// Earliest crash round provable for each process, if any.
    earliest_known_crash: Vec<Option<Round>>,
    known_crashed: PidSet,
    observations: DirectObservations,
    /// Values of `vals` that the observer knows will persist (Definition 3).
    persistent: ValueSet,
}

impl ViewAnalysis {
    /// Analyzes the node `⟨i, m⟩` of `run`.
    ///
    /// # Errors
    ///
    /// Returns an error if the node lies beyond the run's horizon, its process
    /// is out of range, or the process has already crashed at that time (a
    /// crashed node has no local state to analyze).
    pub fn new(run: &Run, node: Node) -> Result<Self, ModelError> {
        validate_node(run, node)?;
        let mut analysis = ViewAnalysis {
            node,
            n: run.n(),
            t: run.t(),
            seen: run.seen(node.process, node.time).clone(),
            vals: ValueSet::new(),
            prev_vals: ValueSet::new(),
            capacity: HiddenCapacity::from_layers(node, Vec::new()),
            prev_capacity: None,
            earliest_known_crash: Vec::new(),
            known_crashed: PidSet::new(),
            observations: DirectObservations::compute(run, node),
            persistent: ValueSet::new(),
        };
        analysis.prev_capacity = analysis.walk_prev_capacity(run);
        analysis.fill_structure(run);
        analysis.refresh_values(run);
        Ok(analysis)
    }

    /// Re-analyzes this value as the node `⟨i, m⟩` of `run`, reusing every
    /// buffer it holds; afterwards it is `==` to
    /// `ViewAnalysis::new(run, node)`.
    ///
    /// `prev_capacity` must be `HC⟨i, m − 1⟩` in `run` (`None` at time 0),
    /// which a caller that analyzed `⟨i, m − 1⟩` already holds as that
    /// analysis's [`ViewAnalysis::hidden_capacity`]; taking it spares the
    /// walk over the previous node's layers that [`ViewAnalysis::new`]
    /// makes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ViewAnalysis::new`]; on an error the analysis
    /// is left unchanged.
    pub fn recompute(
        &mut self,
        run: &Run,
        node: Node,
        prev_capacity: Option<usize>,
    ) -> Result<(), ModelError> {
        validate_node(run, node)?;
        debug_assert_eq!(prev_capacity.is_some(), node.time > Time::ZERO);
        self.node = node;
        self.n = run.n();
        self.t = run.t();
        self.seen.clone_from(run.seen(node.process, node.time));
        self.observations.recompute(run, node);
        self.prev_capacity = prev_capacity;
        self.fill_structure(run);
        self.refresh_values(run);
        Ok(())
    }

    /// Recomputes the input-value-dependent fields — `Vals`, the previous
    /// node's `Vals` and the persistent values — against `run`, keeping
    /// every structural field.
    ///
    /// `run` must induce the analyzed node's view up to its initial values:
    /// the run this analysis was computed from with a new input vector, or
    /// any run whose `synchrony::ViewKey` at the node is the same.  The
    /// refresh reads only nodes of that view, and then leaves the analysis
    /// `==` to `ViewAnalysis::new(run, node)`.
    ///
    /// It makes one pass over the run's distinct values
    /// ([`synchrony::ValueIndex`]), at `O(⌈n / 64⌉)` word operations per
    /// value: a value is in `Vals⟨i, m⟩` (or `Vals⟨i, m − 1⟩`) when its
    /// holders meet the node's (or the previous node's) time-0 layer.
    pub fn refresh_values(&mut self, run: &Run) {
        let time = self.node.time;
        let index = run.value_index();
        let ViewAnalysis { seen, vals, prev_vals, known_crashed, persistent, t, .. } = self;
        let seen0 = seen.layer(Time::ZERO);
        let prev = (time > Time::ZERO).then(|| {
            (run.seen(self.node.process, time - 1).layer(Time::ZERO), seen.layer(time - 1))
        });
        // A set's stored words may stop early: the missing ones are zero.
        let meets =
            |set: &PidSet, bits: &[u64]| set.as_words().iter().zip(bits).any(|(s, b)| s & b != 0);
        // Persistence (Definition 3): the value was already seen at m − 1,
        // or at least t − d seen time-(m − 1) nodes had seen it.
        let needed = t.saturating_sub(known_crashed.len());

        vals.clear();
        prev_vals.clear();
        persistent.clear();
        for (rank, &value) in index.values().iter().enumerate() {
            let holders = index.holders(rank);
            if !meets(seen0, holders) {
                continue;
            }
            vals.insert(value);
            let persists = match prev {
                None => needed == 0,
                Some((prev0, _)) if meets(prev0, holders) => {
                    prev_vals.insert(value);
                    true
                }
                Some((_, witnesses)) => {
                    let knowers = index.knowers(time - 1, rank);
                    let count: u32 = witnesses
                        .as_words()
                        .iter()
                        .zip(knowers)
                        .map(|(w, k)| (w & k).count_ones())
                        .sum();
                    count as usize >= needed
                }
            };
            if persists {
                persistent.insert(value);
            }
        }
    }

    /// `HC⟨i, m − 1⟩` by a walk over the previous node's seen-layers
    /// (`None` at time 0), using the crash buffers as scratch.
    fn walk_prev_capacity(&mut self, run: &Run) -> Option<usize> {
        let (n, node) = (self.n, self.node);
        let words = n.div_ceil(64);
        (node.time > Time::ZERO).then(|| {
            let mut smallest = usize::MAX;
            walk_hidden_layers(
                run,
                run.seen(node.process, node.time - 1),
                &mut self.earliest_known_crash,
                &mut self.known_crashed,
                |_, layer, known| {
                    let hidden = (0..words)
                        .map(|w| (!layer.word(w) & !known.word(w) & word_mask(n, w)).count_ones())
                        .sum::<u32>() as usize;
                    smallest = smallest.min(hidden);
                },
            );
            smallest
        })
    }

    /// Fills the structural fields other than the seen-layers, the direct
    /// observations and the previous node's hidden capacity from
    /// `self.node` and `self.seen`: the provable crashes and the hidden
    /// layers.
    fn fill_structure(&mut self, run: &Run) {
        let n = self.n;
        let words = n.div_ceil(64);
        let node = self.node;
        let ViewAnalysis { seen, capacity, earliest_known_crash, known_crashed, .. } = self;
        capacity.rebuild(node, |hidden_layers| {
            hidden_layers.resize_with(seen.num_layers(), PidSet::new);
            walk_hidden_layers(
                run,
                seen,
                earliest_known_crash,
                known_crashed,
                |l, layer, known| {
                    hidden_layers[l].update_words(words, |w, _| {
                        !layer.word(w) & !known.word(w) & word_mask(n, w)
                    });
                },
            );
        });
    }

    /// Returns the analyzed node `⟨i, m⟩`.
    pub fn node(&self) -> Node {
        self.node
    }

    /// Returns the observer's time `m`.
    pub fn time(&self) -> Time {
        self.node.time
    }

    /// Returns the system size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Returns the failure bound `t`.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Returns the seen-layers of the observer.
    pub fn seen(&self) -> &SeenLayers {
        &self.seen
    }

    /// Returns `Vals⟨i, m⟩`: the set of values the observer knows to exist.
    pub fn vals(&self) -> &ValueSet {
        &self.vals
    }

    /// Returns `Min⟨i, m⟩`: the minimum value the observer has seen.
    ///
    /// Every active process has seen at least its own initial value, so the
    /// minimum always exists.
    pub fn min_value(&self) -> Value {
        self.vals.min().expect("an active process has seen its own initial value")
    }

    /// Returns `Lows⟨i, m⟩`: the low values (strictly below `k`) the observer
    /// knows to exist.
    pub fn lows(&self, k: usize) -> ValueSet {
        self.vals.lows(k)
    }

    /// Returns `true` if the observer is *low* at `m`: it has seen a value
    /// strictly smaller than `k`.
    pub fn is_low(&self, k: usize) -> bool {
        // `Lows` is non-empty exactly when the smallest value is low.
        self.vals.min().is_some_and(|v| v.is_low(k))
    }

    /// Returns `true` if the observer is *high* at `m` (not low).
    pub fn is_high(&self, k: usize) -> bool {
        !self.is_low(k)
    }

    /// Returns `Vals⟨i, m − 1⟩`, the values the observer had seen at its
    /// previous node (empty at time 0).
    pub fn prev_vals(&self) -> &ValueSet {
        &self.prev_vals
    }

    /// Returns `Min⟨i, m − 1⟩`, if the observer exists at time `m − 1`.
    pub fn prev_min_value(&self) -> Option<Value> {
        self.prev_vals.min()
    }

    /// Returns `true` if the observer was low at its previous node.
    pub fn was_low(&self, k: usize) -> bool {
        self.prev_vals.min().is_some_and(|v| v.is_low(k))
    }

    /// Returns the hidden-capacity record of the observer.
    pub fn capacity(&self) -> &HiddenCapacity {
        &self.capacity
    }

    /// Returns the hidden capacity `HC⟨i, m⟩` (Definition 2).
    pub fn hidden_capacity(&self) -> usize {
        self.capacity.capacity()
    }

    /// Returns the hidden capacity of the observer's previous node
    /// `HC⟨i, m − 1⟩`, or `None` at time 0.
    pub fn prev_hidden_capacity(&self) -> Option<usize> {
        self.prev_capacity
    }

    /// Returns the set of processes whose node at `time` is hidden from the
    /// observer.
    pub fn hidden_at(&self, time: Time) -> &PidSet {
        self.capacity.hidden_at(time)
    }

    /// Returns `true` if a hidden path exists with respect to the observer
    /// (hidden capacity at least 1).
    pub fn has_hidden_path(&self) -> bool {
        self.capacity.has_hidden_path()
    }

    /// Classifies the node `⟨j, ℓ⟩` relative to the observer.
    ///
    /// # Panics
    ///
    /// Panics if `ℓ` exceeds the observer's time; the classification is only
    /// defined for nodes in the observer's past cone of uncertainty.
    pub fn status_of(&self, target: Node) -> NodeStatus {
        assert!(
            target.time <= self.node.time,
            "node classification is defined only for times up to the observer's"
        );
        if self.seen.contains_node(target.process, target.time) {
            NodeStatus::Seen
        } else if self.earliest_known_crash[target.process.index()]
            .is_some_and(|r| u64::from(r.number()) <= u64::from(target.time.value()))
        {
            NodeStatus::GuaranteedCrashed
        } else {
            NodeStatus::Hidden
        }
    }

    /// Returns the set of processes the observer can prove to have crashed.
    pub fn known_crashed(&self) -> &PidSet {
        &self.known_crashed
    }

    /// Returns the number of failures the observer knows of (the `d` of
    /// Definition 3).
    pub fn num_known_crashed(&self) -> usize {
        self.known_crashed.len()
    }

    /// Returns the earliest crash round the observer can prove for `process`,
    /// if any.
    pub fn earliest_known_crash(&self, process: impl Into<synchrony::ProcessId>) -> Option<Round> {
        self.earliest_known_crash[process.into().index()]
    }

    /// Returns the observer's directly observed failures.
    pub fn observations(&self) -> &DirectObservations {
        &self.observations
    }

    /// Returns `true` if the observer knows that `value` will persist
    /// (Definition 3): either it had already seen the value at time `m − 1`
    /// and is still active, or it sees at least `t − d` distinct time-`(m−1)`
    /// nodes that have seen the value.
    pub fn knows_will_persist(&self, value: impl Into<Value>) -> bool {
        self.persistent.contains(value)
    }

    /// Returns the set of values the observer knows will persist.
    pub fn persistent_values(&self) -> &ValueSet {
        &self.persistent
    }
}

impl fmt::Display for ViewAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: Vals = {}, HC = {}, known crashes = {}",
            self.node,
            self.vals,
            self.hidden_capacity(),
            self.known_crashed.len()
        )
    }
}

/// Checks that `⟨i, m⟩` is a node an analysis is defined for: within the
/// run's horizon, a real process, and still active (a crashed node has no
/// local state).  Checked before an analysis touches the run's structures.
pub(crate) fn validate_node(run: &Run, node: Node) -> Result<(), ModelError> {
    run.check_time(node.time)?;
    run.params().check_process(node.process)?;
    if !run.is_active(node.process, node.time) {
        return Err(ModelError::InactiveNode {
            process: node.process.index(),
            time: node.time.value() as u64,
        });
    }
    Ok(())
}

/// The bits of bitmap word `w` that stand for processes below `n`.
pub(crate) fn word_mask(n: usize, w: usize) -> u64 {
    match n.saturating_sub(64 * w) {
        0 => 0,
        bits if bits >= 64 => u64::MAX,
        bits => (1 << bits) - 1,
    }
}

/// Walks the seen-layers `seen` of an observer from time 0 up, one bitmap
/// word at a time, tracking what the observer can prove about crashes.
///
/// A process is provably crashed by round `ℓ` when some seen node at time
/// `ℓ` did not hear from it in round `ℓ`.  On return, `earliest` holds the
/// earliest such round of every process (or `None`) and `known` the
/// processes with one.  Before that, `on_layer(ℓ, layer, known)` is called
/// for every layer `ℓ` with the processes proven crashed in rounds `≤ ℓ`:
/// the nodes at time `ℓ` neither in `layer` nor in `known` are exactly the
/// hidden ones.
fn walk_hidden_layers(
    run: &Run,
    seen: &SeenLayers,
    earliest: &mut Vec<Option<Round>>,
    known: &mut PidSet,
    mut on_layer: impl FnMut(usize, &PidSet, &PidSet),
) {
    let n = run.n();
    let words = n.div_ceil(64);
    earliest.clear();
    earliest.resize(n, None);
    known.clear();
    for (time, layer) in seen.iter() {
        if time > Time::ZERO {
            let round = Round::new(time.value());
            known.update_words(words, |w, known_word| {
                let missed =
                    layer.iter().fold(0, |missed, h| missed | !run.heard_from(h, time).word(w));
                let mut fresh = missed & word_mask(n, w) & !known_word;
                let proven = known_word | fresh;
                while fresh != 0 {
                    earliest[64 * w + fresh.trailing_zeros() as usize] = Some(round);
                    fresh &= fresh - 1;
                }
                proven
            });
        }
        on_layer(time.index(), layer, known);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synchrony::{Adversary, FailurePattern, InputVector, StructureReuse, SystemParams};

    fn build_run(
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

    /// The Fig. 1 scenario: a hidden path carries the value 0 forward while
    /// the observer never sees it.
    fn fig1_run() -> Run {
        build_run(
            5,
            3,
            &[0, 1, 1, 1, 1],
            |f| {
                f.crash(0, 1, [1]).unwrap(); // p0 reaches only p1
                f.crash(1, 2, [2]).unwrap(); // p1 reaches only p2
            },
            3,
        )
    }

    /// The Fig. 2 scenario for k = 3: three disjoint crash chains keep three
    /// nodes hidden at every layer up to time 2.
    ///
    /// Processes 0‥2 are the layer-0 witnesses, 3‥5 the layer-1 witnesses,
    /// 6‥8 the layer-2 witnesses, and process 9 is the observer `i`.
    fn fig2_run() -> Run {
        build_run(
            10,
            6,
            &[1, 2, 3, 9, 9, 9, 9, 9, 9, 9],
            |f| {
                for b in 0..3usize {
                    f.crash(b, 1, [3 + b]).unwrap(); // layer-0 witness reaches only its successor
                    f.crash(3 + b, 2, [6 + b]).unwrap(); // layer-1 witness reaches only its successor
                }
            },
            3,
        )
    }

    #[test]
    fn analysis_rejects_invalid_nodes() {
        let run = fig1_run();
        assert!(matches!(
            ViewAnalysis::new(&run, Node::new(0, Time::new(2))),
            Err(ModelError::InactiveNode { .. })
        ));
        assert!(ViewAnalysis::new(&run, Node::new(9, Time::new(1))).is_err());
        assert!(ViewAnalysis::new(&run, Node::new(2, Time::new(9))).is_err());
    }

    #[test]
    fn fig1_observer_misses_the_value_but_has_a_hidden_path() {
        let run = fig1_run();
        let a = ViewAnalysis::new(&run, Node::new(4, Time::new(2))).unwrap();
        assert!(!a.vals().contains(0u64));
        assert_eq!(a.min_value(), Value::new(1));
        assert!(a.has_hidden_path());
        assert_eq!(a.hidden_capacity(), 1);
        // The hidden path runs through ⟨p0,0⟩, ⟨p1,1⟩, ⟨p2,2⟩… but at layer 2
        // the hidden pool also contains other processes i has simply not heard
        // from at time 2.
        assert!(a.hidden_at(Time::ZERO).contains(0));
        assert!(a.hidden_at(Time::new(1)).contains(1));
    }

    #[test]
    fn fig1_receiver_of_the_chain_sees_the_value() {
        let run = fig1_run();
        let a = ViewAnalysis::new(&run, Node::new(2, Time::new(2))).unwrap();
        assert!(a.vals().contains(0u64));
        assert_eq!(a.min_value(), Value::new(0));
        assert!(a.is_low(1));
    }

    #[test]
    fn fig1_after_one_more_round_the_path_collapses() {
        let run = fig1_run();
        let a = ViewAnalysis::new(&run, Node::new(4, Time::new(3))).unwrap();
        // p2 is correct, so in round 3 it relays the value 0 to everyone.
        assert!(a.vals().contains(0u64));
    }

    #[test]
    fn fig2_observer_has_hidden_capacity_three() {
        let run = fig2_run();
        let a = ViewAnalysis::new(&run, Node::new(9, Time::new(2))).unwrap();
        assert_eq!(a.hidden_capacity(), 3);
        assert!(a.is_high(3), "the observer has seen only the high value");
        assert_eq!(a.hidden_at(Time::ZERO).len(), 3);
        assert_eq!(a.hidden_at(Time::new(1)).len(), 3);
        assert_eq!(a.hidden_at(Time::new(2)).len(), 3);
        // The witnesses are exactly the three crash chains.
        assert!(a.hidden_at(Time::ZERO).contains(0));
        assert!(a.hidden_at(Time::new(1)).contains(3));
        assert!(a.hidden_at(Time::new(2)).contains(6));
    }

    #[test]
    fn fig2_chain_endpoints_know_their_unique_low_value() {
        let run = fig2_run();
        for b in 0..3usize {
            let a = ViewAnalysis::new(&run, Node::new(6 + b, Time::new(2))).unwrap();
            assert!(a.vals().contains((b as u64) + 1));
            assert_eq!(a.lows(4).len(), 1);
        }
    }

    #[test]
    fn node_classification_matches_the_three_categories() {
        let run = fig1_run();
        let a = ViewAnalysis::new(&run, Node::new(4, Time::new(2))).unwrap();
        assert_eq!(a.status_of(Node::new(4, Time::new(2))), NodeStatus::Seen);
        assert_eq!(a.status_of(Node::new(3, Time::new(1))), NodeStatus::Seen);
        // p0 visibly failed to send in round 1, so its later nodes are
        // guaranteed crashed, but its time-0 node is merely hidden.
        assert_eq!(a.status_of(Node::new(0, Time::new(1))), NodeStatus::GuaranteedCrashed);
        assert_eq!(a.status_of(Node::new(0, Time::ZERO)), NodeStatus::Hidden);
        // p1 reached only p2 in round 2; the observer has no proof yet.
        assert_eq!(a.status_of(Node::new(1, Time::new(1))), NodeStatus::Hidden);
    }

    #[test]
    fn known_crashes_and_earliest_rounds() {
        let run = fig1_run();
        let a = ViewAnalysis::new(&run, Node::new(4, Time::new(2))).unwrap();
        assert!(a.known_crashed().contains(0));
        assert_eq!(a.earliest_known_crash(0), Some(Round::new(1)));
        assert_eq!(a.earliest_known_crash(1), Some(Round::new(2)));
        assert_eq!(a.earliest_known_crash(4), None);
        assert_eq!(a.num_known_crashed(), 2);
    }

    #[test]
    fn prev_state_is_exposed() {
        let run = fig1_run();
        let a = ViewAnalysis::new(&run, Node::new(2, Time::new(2))).unwrap();
        // p2 only learns the value 0 at time 2 (via p1's final message).
        assert!(!a.prev_vals().contains(0u64));
        assert!(a.vals().contains(0u64));
        assert_eq!(a.prev_min_value(), Some(Value::new(1)));
        assert!(!a.was_low(1));
        assert!(a.prev_hidden_capacity().is_some());
    }

    #[test]
    fn hidden_capacity_is_monotone_nonincreasing_in_time() {
        let run = fig2_run();
        let a1 = ViewAnalysis::new(&run, Node::new(9, Time::new(1))).unwrap();
        let a2 = ViewAnalysis::new(&run, Node::new(9, Time::new(2))).unwrap();
        let a3 = ViewAnalysis::new(&run, Node::new(9, Time::new(3))).unwrap();
        assert!(a1.hidden_capacity() >= a2.hidden_capacity());
        assert!(a2.hidden_capacity() >= a3.hidden_capacity());
        // Once the crash chains run out, the capacity collapses.
        assert!(a3.hidden_capacity() < 3);
    }

    #[test]
    fn persistence_requires_enough_witnesses_or_own_history() {
        // Failure-free run: after one round everyone has seen every value and
        // every value persists (own history from time 0 onwards).
        let run = build_run(4, 2, &[0, 1, 2, 3], |_| {}, 2);
        let a = ViewAnalysis::new(&run, Node::new(0, Time::new(2))).unwrap();
        for v in 0..4u64 {
            assert!(a.knows_will_persist(v), "value {v} should persist");
        }
        // At time 0 with t > 0 nothing is known to persist yet.
        let a0 = ViewAnalysis::new(&run, Node::new(0, Time::ZERO)).unwrap();
        assert!(!a0.knows_will_persist(0u64));
        assert!(a0.persistent_values().is_empty());
    }

    #[test]
    fn freshly_learned_value_from_a_crashing_process_may_not_persist() {
        // p0 holds 0 and crashes in round 1 reaching only p1.  At time 1, p1
        // knows the value 0 but cannot know it will persist: it did not know
        // it at time 0, and it sees only one time-0 node holding it while
        // t − d = 2 − 1 = 1… actually it sees exactly one (p0's), which meets
        // t − d only if d ≥ 1.  p1 *did* observe p0's silence towards others?
        // No: p1 received p0's message, so it has no proof of the crash, and
        // d = 0, so it needs 2 witnesses but has 1.
        let run = build_run(
            4,
            2,
            &[0, 1, 1, 1],
            |f| {
                f.crash(0, 1, [1]).unwrap();
            },
            2,
        );
        let a = ViewAnalysis::new(&run, Node::new(1, Time::new(1))).unwrap();
        assert!(a.vals().contains(0u64));
        assert!(!a.knows_will_persist(0u64));
        assert!(a.knows_will_persist(1u64), "its own value was seen at time 0");
        // One round later the value has been re-broadcast by p1 itself.
        let a2 = ViewAnalysis::new(&run, Node::new(1, Time::new(2))).unwrap();
        assert!(a2.knows_will_persist(0u64));
    }

    #[test]
    fn observations_are_wired_through() {
        let run = fig1_run();
        let a = ViewAnalysis::new(&run, Node::new(4, Time::new(2))).unwrap();
        assert!(a.observations().missed().contains(0));
        assert_eq!(a.observations().num_missed(), 2);
    }

    /// A SplitMix64 stream, enough to draw test runs without a generator
    /// dependency.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
    }

    /// A run of `n` processes in which up to `n − 1` crash in rounds
    /// `1 … horizon`, each reaching every other process with probability
    /// `percent` %, with inputs in `0 … 3`.
    fn random_run(n: usize, percent: u64, horizon: u32, draws: &mut Draws) -> Run {
        let t = n - 1;
        let mut failures = FailurePattern::crash_free(n);
        let mut crashed = 0;
        for p in 0..n {
            if crashed < t && draws.below(100) < 60 {
                let round = 1 + draws.below(u64::from(horizon)) as u32;
                let delivered: Vec<usize> = (0..n).filter(|_| draws.below(100) < percent).collect();
                failures.crash(p, round, delivered).unwrap();
                crashed += 1;
            }
        }
        let inputs: Vec<u64> = (0..n).map(|_| draws.below(4)).collect();
        let adversary = Adversary::new(InputVector::from_values(inputs), failures).unwrap();
        Run::generate(SystemParams::new(n, t).unwrap(), adversary, Time::new(horizon)).unwrap()
    }

    /// Per-process definition of the earliest provable crash round: the
    /// first round `ℓ` in which some seen time-`ℓ` node did not hear from
    /// the process.
    fn earliest_by_definition(run: &Run, seen: &SeenLayers) -> Vec<Option<Round>> {
        let mut earliest = vec![None; run.n()];
        for (time, layer) in seen.iter().skip(1) {
            for h in layer {
                for (p, slot) in earliest.iter_mut().enumerate() {
                    if !run.heard_from(h, time).contains(p) && slot.is_none() {
                        *slot = Some(Round::new(time.value()));
                    }
                }
            }
        }
        earliest
    }

    /// Per-process definition of the hidden layers: neither seen nor
    /// provably crashed by the layer's time.
    fn hidden_by_definition(run: &Run, seen: &SeenLayers) -> Vec<PidSet> {
        let earliest = earliest_by_definition(run, seen);
        seen.iter()
            .map(|(time, layer)| {
                (0..run.n())
                    .filter(|&j| {
                        !layer.contains(j) && earliest[j].is_none_or(|r| r.number() > time.value())
                    })
                    .collect()
            })
            .collect()
    }

    /// Definition 3 persistence, one witness and one process at a time.
    fn persistent_by_definition(run: &Run, node: Node, vals: &ValueSet, d: usize) -> ValueSet {
        let m = node.time.index();
        let needed = run.t().saturating_sub(d);
        vals.iter()
            .filter(|&v| {
                if m == 0 {
                    return needed == 0;
                }
                let prev = node.time - 1;
                let sees_v = |j| {
                    run.seen(j, prev).layer(Time::ZERO).iter().any(|p| run.initial_value(p) == v)
                };
                sees_v(node.process)
                    || run
                        .seen(node.process, node.time)
                        .layer(prev)
                        .iter()
                        .filter(|&j| sees_v(j))
                        .count()
                        >= needed
            })
            .collect()
    }

    /// The word mask keeps exactly the processes below `n`, at `n = 1` and
    /// around the 64-bit word boundaries.
    #[test]
    fn word_mask_covers_exactly_the_processes_below_n() {
        for n in [1usize, 2, 63, 64, 65, 83, 128] {
            for w in 0..3 {
                let by_bit = (0..64).filter(|b| 64 * w + b < n).fold(0u64, |mask, b| mask | 1 << b);
                assert_eq!(word_mask(n, w), by_bit, "n={n} word {w}");
            }
        }
    }

    /// The word-parallel kernels agree with the per-process definitions at
    /// system sizes around the 64-bit word boundaries (a system needs
    /// `n ≥ 2`; `n = 1` is covered by the word-mask test above).
    #[test]
    fn word_kernels_match_the_per_process_definitions() {
        let mut draws = Draws(2016);
        for n in [2usize, 63, 64, 65, 83] {
            for percent in [5, 50, 95] {
                let run = random_run(n, percent, 4, &mut draws);
                let mut reused = ViewAnalysis::new(&run, Node::new(0, Time::ZERO)).unwrap();
                for m in 0..=4u32 {
                    for i in 0..n {
                        let node = Node::new(i, Time::new(m));
                        if !run.is_active(i, node.time) {
                            continue;
                        }
                        let a = ViewAnalysis::new(&run, node).unwrap();
                        let seen = run.seen(i, node.time);
                        let earliest = earliest_by_definition(&run, seen);
                        for (p, &round) in earliest.iter().enumerate() {
                            assert_eq!(a.earliest_known_crash(p), round, "n={n} {node} p{p}");
                        }
                        let known: PidSet = (0..n).filter(|&p| earliest[p].is_some()).collect();
                        assert_eq!(a.known_crashed(), &known);
                        let hidden = hidden_by_definition(&run, seen);
                        for (l, layer) in hidden.iter().enumerate() {
                            assert_eq!(a.hidden_at(Time::new(l as u32)), layer, "n={n} {node}");
                        }
                        let capacity = hidden.iter().map(PidSet::len).min().unwrap();
                        assert_eq!(a.hidden_capacity(), capacity);
                        let prev_capacity = (m > 0).then(|| {
                            let prev = run.seen(i, node.time - 1);
                            hidden_by_definition(&run, prev).iter().map(PidSet::len).min().unwrap()
                        });
                        assert_eq!(a.prev_hidden_capacity(), prev_capacity);
                        let mut missed = PidSet::new();
                        for round in 1..=m {
                            let heard = run.heard_from(i, Time::new(round));
                            missed.extend((0..n).filter(|&p| !heard.contains(p)));
                            assert_eq!(a.observations().missed_by(Round::new(round)), &missed);
                        }
                        let vals: ValueSet =
                            seen.layer(Time::ZERO).iter().map(|p| run.initial_value(p)).collect();
                        assert_eq!(a.vals(), &vals);
                        assert_eq!(
                            a.persistent_values(),
                            &persistent_by_definition(&run, node, &vals, known.len())
                        );
                        reused.recompute(&run, node, prev_capacity).unwrap();
                        assert_eq!(reused, a, "in-place recompute diverged at n={n} {node}");
                    }
                }
            }
        }
    }

    /// A crash pattern of `n` processes in which up to `t` crash in rounds
    /// `1 … horizon`, each reaching every other process with probability
    /// `percent` %.
    fn random_pattern(
        n: usize,
        t: usize,
        percent: u64,
        horizon: u32,
        draws: &mut Draws,
    ) -> FailurePattern {
        let mut failures = FailurePattern::crash_free(n);
        let mut crashed = 0;
        for p in 0..n {
            if crashed < t && draws.below(100) < 60 {
                let round = 1 + draws.below(u64::from(horizon)) as u32;
                let delivered: Vec<usize> = (0..n).filter(|_| draws.below(100) < percent).collect();
                failures.crash(p, round, delivered).unwrap();
                crashed += 1;
            }
        }
        failures
    }

    /// The value-dependent fields stay right while one run is re-targeted
    /// across input vectors under a fixed pattern (the structure is kept)
    /// and across fresh patterns (rows are extended one at a time): at
    /// every active node, a refresh of the slot from the previous input
    /// vector and an in-place recompute both equal a fresh analysis and
    /// the per-process definitions of `Vals`, `Vals⟨i, m − 1⟩` and
    /// persistence.  Values are sparse and reach past 64, so no value can
    /// stand in for a process index or a bit position.
    #[test]
    fn value_fields_follow_retargets_and_row_extensions() {
        // Most processes start with 1000 and few with each of 0, 9 and 64,
        // so a crash can keep a value from some processes past time 1.
        let value = |draws: &mut Draws| match draws.below(100) {
            0..4 => 0,
            4..8 => 9,
            8..12 => 64,
            _ => 1000,
        };
        let horizon = 4u32;
        let mut draws = Draws(1311);
        // Newly seen values at time 1 / later that did not / did persist
        // through witnesses.
        let mut witness_tests = [[0usize; 2]; 2];
        for n in [2usize, 63, 64, 65, 83] {
            let end = Time::new(horizon);
            let mut run: Option<Run> = None;
            let mut reused = None::<ViewAnalysis>;
            // A large t keeps most values from persisting through witnesses;
            // a small one lets them.
            for (t, percent) in [(n - 1, 10), ((n / 4).max(1), 70), (n - 1, 50)] {
                let params = SystemParams::new(n, t).unwrap();
                let failures = random_pattern(n, t, percent, horizon, &mut draws);
                let mut slots: Vec<Option<ViewAnalysis>> = vec![None; (horizon as usize + 1) * n];
                for round in 0..3 {
                    let inputs: Vec<u64> = (0..n).map(|_| value(&mut draws)).collect();
                    let adversary =
                        Adversary::new(InputVector::from_values(inputs), failures.clone()).unwrap();
                    let run = match run.as_mut() {
                        Some(run) => {
                            let reuse = run.retarget(params, &adversary, end).unwrap();
                            if round > 0 {
                                assert_eq!(reuse, StructureReuse::Reused, "n={n}");
                                assert_eq!(run.frontier(), end, "n={n}: reuse keeps the rows");
                            }
                            run
                        }
                        None => run.insert(Run::generate(params, adversary, end).unwrap()),
                    };
                    for m in 0..=horizon {
                        let time = Time::new(m);
                        if run.frontier() < time {
                            run.simulate_through(time);
                        }
                        for i in (0..n).filter(|&i| run.is_active(i, time)) {
                            let node = Node::new(i, time);
                            let fresh = ViewAnalysis::new(run, node).unwrap();
                            let seen0 = run.seen(i, time).layer(Time::ZERO);
                            let vals: ValueSet =
                                seen0.iter().map(|p| run.initial_value(p)).collect();
                            let prev_vals: ValueSet = if m == 0 {
                                ValueSet::new()
                            } else {
                                let prev0 = run.seen(i, time - 1).layer(Time::ZERO);
                                prev0.iter().map(|p| run.initial_value(p)).collect()
                            };
                            let d = fresh.num_known_crashed();
                            if m > 0 {
                                for v in vals.iter().filter(|&v| !prev_vals.contains(v)) {
                                    let persists = fresh.knows_will_persist(v);
                                    witness_tests[usize::from(m > 1)][usize::from(persists)] += 1;
                                }
                            }
                            let label = format!("n={n} {node} round {round}");
                            assert_eq!(fresh.vals(), &vals, "{label}");
                            assert_eq!(fresh.prev_vals(), &prev_vals, "{label}");
                            assert_eq!(
                                fresh.persistent_values(),
                                &persistent_by_definition(run, node, &vals, d),
                                "{label}"
                            );
                            let slot = &mut slots[m as usize * n + i];
                            if let Some(slot) = slot.as_mut() {
                                slot.refresh_values(run);
                                assert_eq!(slot, &fresh, "refresh diverged at {label}");
                            } else {
                                *slot = Some(fresh.clone());
                            }
                            let prev_capacity = (m > 0).then(|| {
                                let prev = ViewAnalysis::new(run, Node::new(i, time - 1)).unwrap();
                                prev.hidden_capacity()
                            });
                            let reused = reused.get_or_insert_with(|| fresh.clone());
                            reused.recompute(run, node, prev_capacity).unwrap();
                            assert_eq!(reused, &fresh, "recompute diverged at {label}");
                        }
                    }
                }
            }
        }
        assert!(
            witness_tests.iter().flatten().all(|&c| c > 0),
            "witness counts untested: {witness_tests:?}"
        );
    }

    /// A value-only refresh against a relabeled run equals a fresh analysis,
    /// and a failed recompute leaves the analysis untouched.
    #[test]
    fn refresh_follows_new_inputs_and_errors_change_nothing() {
        let crash = |f: &mut FailurePattern| {
            f.crash(0, 1, [1]).unwrap();
            f.crash(1, 2, [2]).unwrap();
        };
        let first = build_run(5, 3, &[0, 1, 1, 1, 1], crash, 3);
        let mut a = ViewAnalysis::new(&first, Node::new(2, Time::new(2))).unwrap();
        for inputs in [[3u64, 2, 1, 0, 9], [1, 1, 1, 1, 1], [0, 0, 4, 4, 0]] {
            let relabeled = build_run(5, 3, &inputs, crash, 3);
            a.refresh_values(&relabeled);
            assert_eq!(a, ViewAnalysis::new(&relabeled, Node::new(2, Time::new(2))).unwrap());
        }
        let before = a.clone();
        assert!(a.recompute(&first, Node::new(0, Time::new(2)), Some(1)).is_err());
        assert_eq!(a, before);
    }
}
