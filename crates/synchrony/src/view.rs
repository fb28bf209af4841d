//! Local views `G_α(i, m)` and indistinguishability between runs.
//!
//! In a full-information protocol, the local state of process `i` at time `m`
//! is (its decision status together with) the view `G_α(i, m)`: the set of
//! nodes it has heard from, the edges along which information flowed, and the
//! initial values at the seen time-0 nodes.  Two runs are *indistinguishable*
//! to `⟨i, m⟩` exactly when these views coincide; that notion drives all the
//! unbeatability arguments of the paper.

use std::collections::BTreeMap;
use std::fmt;

use crate::{Node, PidSet, Run, SeenLayers, Time, Value};

/// The view `G_α(i, m)` of an observer node, extracted from a [`Run`].
///
/// Equality of `View`s is exactly the paper's indistinguishability of local
/// states in the full-information protocol (ignoring decision status, which is
/// protocol-dependent and handled by the `set-consensus` crate).
///
/// ```
/// use synchrony::{Adversary, FailurePattern, InputVector, Node, Run, SystemParams, Time, View};
///
/// let params = SystemParams::new(3, 1)?;
/// let adversary = Adversary::failure_free(InputVector::from_values([0, 1, 2]))?;
/// let run = Run::generate(params, adversary, Time::new(2))?;
/// let view = View::extract(&run, Node::new(0, Time::new(1)));
/// assert_eq!(view.initial_value(2), Some(synchrony::Value::new(2)));
/// # Ok::<(), synchrony::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct View {
    node: Node,
    seen: SeenLayers,
    /// `initial_values[j] = Some(v)` iff `⟨j, 0⟩` is seen and carries value `v`.
    initial_values: Vec<Option<Value>>,
    /// For each seen node `⟨j, ℓ⟩` with `ℓ ≥ 1`, the set of processes whose
    /// round-`ℓ` messages it received — the incoming edges of that node in the
    /// view.
    incoming: BTreeMap<Node, PidSet>,
}

impl View {
    /// Extracts the view of `node` from `run`.
    ///
    /// # Panics
    ///
    /// Panics if the node lies beyond the run's horizon or its process is out
    /// of range.
    pub fn extract(run: &Run, node: Node) -> Self {
        let seen = run.seen(node.process, node.time).clone();
        let n = run.n();
        let mut initial_values = vec![None; n];
        for p in seen.layer(Time::ZERO).iter() {
            initial_values[p.index()] = Some(run.initial_value(p));
        }
        let mut incoming = BTreeMap::new();
        for (time, layer) in seen.iter() {
            if time == Time::ZERO {
                continue;
            }
            for p in layer.iter() {
                let heard = run.heard_from(p, time).clone();
                incoming.insert(Node::new(p, time), heard);
            }
        }
        View { node, seen, initial_values, incoming }
    }

    /// Returns the observer node of this view.
    pub fn node(&self) -> Node {
        self.node
    }

    /// Returns the seen-layers of the observer.
    pub fn seen(&self) -> &SeenLayers {
        &self.seen
    }

    /// Returns the initial value carried by the seen node `⟨process, 0⟩`, or
    /// `None` if that node is not seen.
    pub fn initial_value(&self, process: impl Into<crate::ProcessId>) -> Option<Value> {
        self.initial_values.get(process.into().index()).copied().flatten()
    }

    /// Returns the set of processes whose round-`time` messages were received
    /// by the seen node `⟨process, time⟩`, or `None` if that node is not part
    /// of the view.
    pub fn incoming_of(&self, node: Node) -> Option<&PidSet> {
        self.incoming.get(&node)
    }

    /// Returns the number of nodes in the view.
    pub fn num_nodes(&self) -> usize {
        self.seen.total_seen()
    }

    /// Returns `true` if this view is indistinguishable from `other`: same
    /// observer node, same seen nodes, same information-flow edges and same
    /// initial values.
    pub fn indistinguishable_from(&self, other: &View) -> bool {
        self == other
    }

    /// Writes an exact word encoding of `node`'s view in `run` into `words`
    /// (cleared first), without materializing the view: two nodes get
    /// equal encodings exactly when their `View`s are equal.  The words are `n`, the node, the length-prefixed pattern
    /// words of [`ViewKey`] (each seen layer, then the heard-from set of
    /// each seen node at a positive time), and last the initial values of
    /// the seen time-0 nodes in increasing process order — a count fixed by
    /// the time-0 layer before them.  Reusing one buffer makes interning
    /// many views allocation-free except for the views kept.
    ///
    /// ```
    /// use synchrony::{Adversary, InputVector, Node, Run, SystemParams, Time, View};
    ///
    /// let params = SystemParams::new(3, 1)?;
    /// let run = |inputs: [u64; 3]| {
    ///     Run::generate(params, Adversary::failure_free(InputVector::from_values(inputs))?,
    ///         Time::new(1))
    /// };
    /// let (a, b) = (run([0, 1, 2])?, run([0, 1, 1])?);
    /// let node = Node::new(0, Time::new(1));
    /// let (mut x, mut y) = (Vec::new(), Vec::new());
    /// View::encode(&a, node, &mut x);
    /// View::encode(&b, node, &mut y);
    /// // Unlike the pattern keys, the encodings see the differing input.
    /// assert_ne!(x, y);
    /// # Ok::<(), synchrony::ModelError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the node lies beyond the run's horizon or its process is out
    /// of range.
    pub fn encode(run: &Run, node: Node, words: &mut Vec<u64>) {
        words.clear();
        words.extend([run.n() as u64, node.process.index() as u64, u64::from(node.time.value())]);
        let seen = run.seen(node.process, node.time);
        push_pattern_words(words, run, seen);
        words.extend(seen.layer(Time::ZERO).iter().map(|p| run.initial_value(p).get()));
    }

    /// Returns the canonical *pattern* key of this view under failure bound
    /// `t` — the input-value-free identity used by cross-adversary caches.
    /// See [`ViewKey`] for the equivalence it induces.
    pub fn canonical_key(&self, t: usize) -> ViewKey {
        let mut words = Vec::with_capacity(2 * self.seen.num_layers());
        for (time, layer) in self.seen.iter() {
            push_set_words(&mut words, layer);
            if time == Time::ZERO {
                continue;
            }
            for p in layer.iter() {
                let heard = self
                    .incoming
                    .get(&Node::new(p, time))
                    .expect("every seen node at a positive time has incoming edges");
                push_set_words(&mut words, heard);
            }
        }
        ViewKey {
            n: self.initial_values.len() as u32,
            t: t as u32,
            node: self.node,
            words: words.into_boxed_slice(),
        }
    }
}

/// A canonical, input-value-free key identifying the *pattern* of a view.
///
/// Two nodes (of possibly different runs) receive equal keys exactly when
/// their views coincide after erasing the initial values: same observer node,
/// same seen layers, the same incoming-edge structure at every seen node, and
/// the same system bounds `(n, t)`.  The structural part of a knowledge
/// analysis — seen/hidden classification, provable crashes, hidden capacity,
/// direct observations, persistence witnesses — is determined by exactly this
/// data, so the key is what the cross-adversary `knowledge` analysis cache
/// indexes on: adversaries that differ only in input values (or in failures
/// invisible to the observer) collide, which is the overwhelmingly common
/// case in exhaustive sweeps.
///
/// The encoding is **exact** (the layer and incoming-edge bitmaps are stored
/// length-prefixed, so distinct patterns never alias) rather than a lossy
/// digest, so cache correctness never rests on a collision argument.
///
/// ```
/// use synchrony::{Adversary, InputVector, Node, Run, SystemParams, Time, ViewKey};
///
/// let params = SystemParams::new(3, 1)?;
/// let a = Run::generate(params, Adversary::failure_free(InputVector::from_values([0, 1, 2]))?,
///     Time::new(2))?;
/// let b = Run::generate(params, Adversary::failure_free(InputVector::from_values([2, 0, 1]))?,
///     Time::new(2))?;
/// let node = Node::new(1, Time::new(2));
/// // Same failure pattern, different inputs: the pattern keys collide.
/// assert_eq!(ViewKey::from_run(&a, node), ViewKey::from_run(&b, node));
/// # Ok::<(), synchrony::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ViewKey {
    n: u32,
    t: u32,
    node: Node,
    /// Length-prefixed bitmap words: for every layer time `ℓ = 0 … m`, the
    /// seen set at `ℓ`, followed (for `ℓ ≥ 1`) by the heard-from set of each
    /// seen node at `ℓ` in increasing process order.
    words: Box<[u64]>,
}

impl ViewKey {
    /// Extracts the pattern key of `node`'s view directly from `run`, without
    /// materializing a [`View`].
    ///
    /// # Panics
    ///
    /// Panics if the node lies beyond the run's horizon or its process is out
    /// of range.
    pub fn from_run(run: &Run, node: Node) -> Self {
        let seen = run.seen(node.process, node.time);
        let mut words = Vec::with_capacity(2 * seen.num_layers());
        push_pattern_words(&mut words, run, seen);
        ViewKey { n: run.n() as u32, t: run.t() as u32, node, words: words.into_boxed_slice() }
    }

    /// Writes the whole key of `node`'s view in `run` into `words` (cleared
    /// first): `n`, `t`, the node's process and time, then the pattern
    /// words.  Two nodes get equal words exactly when their
    /// [`ViewKey::from_run`] keys are equal, so a map keyed by these words
    /// can be probed from one reused buffer and allocate only on insert.
    ///
    /// # Panics
    ///
    /// Panics if the node lies beyond the run's horizon or its process is out
    /// of range.
    pub fn encode(run: &Run, node: Node, words: &mut Vec<u64>) {
        words.clear();
        words.extend([
            run.n() as u64,
            run.t() as u64,
            node.process.index() as u64,
            u64::from(node.time.value()),
        ]);
        push_pattern_words(words, run, run.seen(node.process, node.time));
    }

    /// Returns the observer node the key describes.
    pub fn node(&self) -> Node {
        self.node
    }
}

/// Appends the pattern words of the view whose seen layers are `seen`: for
/// every layer time `ℓ`, the seen set at `ℓ`, followed (for `ℓ ≥ 1`) by the
/// heard-from set of each seen node at `ℓ` in increasing process order, each
/// set length-prefixed.
fn push_pattern_words(words: &mut Vec<u64>, run: &Run, seen: &SeenLayers) {
    for (time, layer) in seen.iter() {
        push_set_words(words, layer);
        if time == Time::ZERO {
            continue;
        }
        for p in layer.iter() {
            push_set_words(words, run.heard_from(p, time));
        }
    }
}

/// Appends a length-prefixed copy of the set's bitmap words.
fn push_set_words(words: &mut Vec<u64>, set: &PidSet) {
    let w = set.as_words();
    words.push(w.len() as u64);
    words.extend_from_slice(w);
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "view of {} over {} nodes", self.node, self.num_nodes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Adversary, FailurePattern, InputVector, SystemParams};

    fn run_with(
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
    fn identical_adversaries_give_identical_views() {
        let a = run_with(
            4,
            1,
            &[0, 1, 2, 3],
            |f| {
                f.crash(0, 1, [1]).unwrap();
            },
            2,
        );
        let b = run_with(
            4,
            1,
            &[0, 1, 2, 3],
            |f| {
                f.crash(0, 1, [1]).unwrap();
            },
            2,
        );
        let node = Node::new(2, Time::new(2));
        assert!(View::extract(&a, node).indistinguishable_from(&View::extract(&b, node)));
    }

    #[test]
    fn hidden_initial_value_does_not_change_the_view() {
        // p0 crashes in round 1 reaching nobody: its initial value is invisible
        // to everyone, so changing it keeps all views of other processes equal.
        let a = run_with(
            3,
            1,
            &[0, 1, 1],
            |f| {
                f.crash_silent(0, 1).unwrap();
            },
            2,
        );
        let b = run_with(
            3,
            1,
            &[9, 1, 1],
            |f| {
                f.crash_silent(0, 1).unwrap();
            },
            2,
        );
        for i in 1..3 {
            for m in 1..=2u32 {
                let node = Node::new(i, Time::new(m));
                assert_eq!(View::extract(&a, node), View::extract(&b, node));
            }
        }
    }

    #[test]
    fn visible_initial_value_changes_the_view() {
        let a = run_with(3, 1, &[0, 1, 1], |_| {}, 1);
        let b = run_with(3, 1, &[9, 1, 1], |_| {}, 1);
        let node = Node::new(1, Time::new(1));
        assert_ne!(View::extract(&a, node), View::extract(&b, node));
    }

    #[test]
    fn delivery_pattern_changes_are_visible_to_receivers_only_after_relay() {
        // p0 crashes in round 1. In run `a` it reaches p1; in run `b` nobody.
        let a = run_with(
            4,
            1,
            &[0, 1, 2, 3],
            |f| {
                f.crash(0, 1, [1]).unwrap();
            },
            2,
        );
        let b = run_with(
            4,
            1,
            &[0, 1, 2, 3],
            |f| {
                f.crash_silent(0, 1).unwrap();
            },
            2,
        );
        // At time 1, p3 cannot tell the two runs apart...
        let early = Node::new(3, Time::new(1));
        assert_eq!(View::extract(&a, early), View::extract(&b, early));
        // ...but at time 2 the relay through p1 reveals the difference.
        let late = Node::new(3, Time::new(2));
        assert_ne!(View::extract(&a, late), View::extract(&b, late));
    }

    #[test]
    fn incoming_edges_are_recorded_for_seen_nodes() {
        let run = run_with(3, 1, &[0, 1, 2], |_| {}, 2);
        let view = View::extract(&run, Node::new(0, Time::new(2)));
        let incoming = view.incoming_of(Node::new(1, Time::new(1))).unwrap();
        assert_eq!(incoming.len(), 3);
        assert!(view.incoming_of(Node::new(1, Time::new(9))).is_none());
    }

    #[test]
    fn pattern_keys_ignore_input_values_but_not_structure() {
        let crash = |f: &mut FailurePattern| {
            f.crash(0, 1, [1]).unwrap();
        };
        let a = run_with(4, 1, &[0, 1, 2, 3], crash, 2);
        let b = run_with(4, 1, &[3, 0, 0, 1], crash, 2);
        let silent = run_with(
            4,
            1,
            &[0, 1, 2, 3],
            |f| {
                f.crash_silent(0, 1).unwrap();
            },
            2,
        );
        for i in 1..4 {
            for m in 1..=2u32 {
                let node = Node::new(i, Time::new(m));
                // Input relabeling never changes the key…
                assert_eq!(ViewKey::from_run(&a, node), ViewKey::from_run(&b, node));
            }
        }
        // …but a visible delivery difference does (p3 sees it at time 2 via
        // p1's relay; compare `delivery_pattern_changes_are_visible…` above).
        let late = Node::new(3, Time::new(2));
        assert_ne!(ViewKey::from_run(&a, late), ViewKey::from_run(&silent, late));
        // Keys of different observers never collide.
        assert_ne!(ViewKey::from_run(&a, late), ViewKey::from_run(&a, Node::new(2, Time::new(2))));
    }

    #[test]
    fn encoded_key_words_are_equal_exactly_when_the_keys_are() {
        let crash = |f: &mut FailurePattern| {
            f.crash(0, 1, [1]).unwrap();
        };
        let silent = |f: &mut FailurePattern| {
            f.crash_silent(0, 1).unwrap();
        };
        let runs = [
            run_with(4, 1, &[0, 1, 2, 3], crash, 2),
            run_with(4, 1, &[3, 0, 0, 1], crash, 2),
            run_with(4, 1, &[0, 1, 2, 3], silent, 2),
            // Same pattern under another failure bound: the keys differ.
            run_with(4, 2, &[0, 1, 2, 3], silent, 2),
        ];
        let mut keyed = Vec::new();
        for run in &runs {
            for i in 1..4 {
                for m in 0..=2u32 {
                    let node = Node::new(i, Time::new(m));
                    let mut words = Vec::new();
                    ViewKey::encode(run, node, &mut words);
                    keyed.push((ViewKey::from_run(run, node), words));
                }
            }
        }
        for (key_a, words_a) in &keyed {
            for (key_b, words_b) in &keyed {
                assert_eq!(key_a == key_b, words_a == words_b, "{key_a:?} vs {key_b:?}");
            }
        }
    }

    #[test]
    fn view_canonical_key_matches_the_run_extraction() {
        let run = run_with(
            4,
            2,
            &[0, 1, 2, 3],
            |f| {
                f.crash(0, 1, [1]).unwrap();
                f.crash_silent(3, 2).unwrap();
            },
            3,
        );
        for i in 1..3 {
            for m in 0..=3u32 {
                let node = Node::new(i, Time::new(m));
                let view = View::extract(&run, node);
                assert_eq!(view.canonical_key(2), ViewKey::from_run(&run, node));
            }
        }
    }

    #[test]
    fn encodings_are_equal_exactly_when_views_are_equal() {
        use std::collections::HashMap;

        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Seeded runs over few inputs and crash shapes, so that many nodes of
        // different runs share a view and many nearly do.
        let (n, t, horizon) = (4, 2, 3u32);
        let mut rng = StdRng::seed_from_u64(7);
        let mut encoding_of: HashMap<View, Vec<u64>> = HashMap::new();
        let mut view_of: HashMap<Vec<u64>, View> = HashMap::new();
        let mut words = Vec::new();
        for _ in 0..300 {
            let inputs: Vec<u64> = (0..n).map(|_| rng.random_range(0..2u64)).collect();
            let mut crashes: Vec<(usize, u32, Vec<usize>)> = Vec::new();
            for p in 0..t {
                if rng.random_bool(0.6) {
                    let round = rng.random_range(1..=horizon);
                    crashes.push((p, round, (0..n).filter(|_| rng.random_bool(0.5)).collect()));
                }
            }
            let run = run_with(
                n,
                t,
                &inputs,
                |f| {
                    for (p, round, delivered) in crashes {
                        f.crash(p, round, delivered).unwrap();
                    }
                },
                horizon,
            );
            for m in 0..=horizon {
                for i in 0..n {
                    let node = Node::new(i, Time::new(m));
                    View::encode(&run, node, &mut words);
                    let view = View::extract(&run, node);
                    let kept = encoding_of.entry(view.clone()).or_insert_with(|| words.clone());
                    assert_eq!(*kept, words, "one view, two encodings");
                    assert_eq!(*view_of.entry(words.clone()).or_insert(view.clone()), view);
                }
            }
        }
        assert!(view_of.len() > 500, "only {} distinct views", view_of.len());
    }

    #[test]
    fn view_reports_initial_values_only_for_seen_nodes() {
        let run = run_with(
            3,
            1,
            &[7, 1, 2],
            |f| {
                f.crash_silent(0, 1).unwrap();
            },
            1,
        );
        let view = View::extract(&run, Node::new(2, Time::new(1)));
        assert_eq!(view.initial_value(0), None);
        assert_eq!(view.initial_value(1), Some(Value::new(1)));
    }
}
