//! Protocol complexes and star complexes of process states.
//!
//! The `m`-round protocol complex of a full-information protocol has one
//! vertex per reachable local state `(process, view)` and one facet per
//! execution, consisting of the states of the processes that are still active
//! at time `m` in that execution.  The *star* `St(⟨i,m⟩, P_m)` of a state is
//! the subcomplex of executions indistinguishable to that state — the object
//! the paper's Proposition 2 relates to hidden capacity.
//!
//! Three representation choices keep the build and the star checks cheap:
//!
//! * a state is interned by one exact word encoding of its view
//!   ([`View::encode`]), read straight off the run, so no [`View`] is
//!   materialized; the index is a [`WordMap`], and
//!   [`ProtocolComplex::state_id`] encodes into a reused thread-local buffer,
//!   so a lookup allocates nothing;
//! * every vertex keeps the distinct run facets that contain it, and its star
//!   is the closure of those facets alone — equal to the closed star of the
//!   whole complex, because the complex is the closure of the run facets;
//!   path connectivity (`q = 0`) needs not even the closure, only a
//!   union-find over the facets' vertices;
//! * the build dedupes run facets by their sorted vertex ids in a
//!   [`WordMap`], and the closed complex itself is built only when first
//!   asked for ([`ProtocolComplex::complex`]);
//! * the build re-targets one run buffer with [`Run::regenerate`], so
//!   adversaries that share a failure pattern are simulated once.

use std::cell::RefCell;
use std::fmt;
use std::sync::OnceLock;

use synchrony::{Adversary, ModelError, Node, Run, SystemParams, Time, View, WordMap};

use crate::{homology, Simplex, SimplicialComplex};

/// The `m`-round protocol complex of the full-information protocol over a
/// given set of adversaries.
#[derive(Debug, Clone)]
pub struct ProtocolComplex {
    time: Time,
    /// The closure of `run_facets`, built on first use.
    complex: OnceLock<SimplicialComplex>,
    /// The state encodings (see [`View::encode`]) and their vertex ids.
    index: WordMap<Box<[u64]>, usize>,
    /// The distinct run facets, in the order the build met them.  One may
    /// be a face of another; a face adds nothing to any closure.
    run_facets: Vec<Simplex>,
    /// For each vertex, the indices into `run_facets` of the facets that
    /// contain it, increasing.
    incidence: Vec<Vec<usize>>,
}

impl ProtocolComplex {
    /// Builds the time-`time` protocol complex over the executions induced by
    /// `adversaries`.
    ///
    /// # Errors
    ///
    /// Propagates model errors raised while simulating the runs (e.g. an
    /// adversary inconsistent with the system parameters).
    pub fn build(
        system: SystemParams,
        adversaries: &[Adversary],
        time: Time,
    ) -> Result<Self, ModelError> {
        let mut pc = ProtocolComplex {
            time,
            complex: OnceLock::new(),
            index: WordMap::default(),
            run_facets: Vec::new(),
            incidence: Vec::new(),
        };
        // The sorted vertex ids of every run facet met so far.
        let mut facets: WordMap<Box<[usize]>, ()> = WordMap::default();
        let Some(first) = adversaries.first() else { return Ok(pc) };
        let mut run = Run::generate(system, first.clone(), time)?;
        let mut key = Vec::new();
        let mut facet = Vec::new();
        for (position, adversary) in adversaries.iter().enumerate() {
            if position > 0 {
                run.regenerate(system, adversary, time)?;
            }
            facet.clear();
            for i in 0..run.n() {
                if !run.is_active(i, time) {
                    continue;
                }
                View::encode(&run, Node::new(i, time), &mut key);
                let id = match pc.index.get(key.as_slice()) {
                    Some(&id) => id,
                    None => {
                        let id = pc.incidence.len();
                        pc.incidence.push(Vec::new());
                        pc.index.insert(key.as_slice().into(), id);
                        id
                    }
                };
                facet.push(id);
            }
            facet.sort_unstable();
            if facet.is_empty() || facets.contains_key(facet.as_slice()) {
                continue;
            }
            facets.insert(facet.as_slice().into(), ());
            let f = pc.run_facets.len();
            for &v in &facet {
                pc.incidence[v].push(f);
            }
            pc.run_facets.push(Simplex::new(facet.iter().copied()));
        }
        Ok(pc)
    }

    /// Returns the time of the protocol complex.
    pub fn time(&self) -> Time {
        self.time
    }

    /// Returns the underlying simplicial complex: the closure of the run
    /// facets, built on the first call.
    pub fn complex(&self) -> &SimplicialComplex {
        self.complex.get_or_init(|| self.run_facets.iter().cloned().collect())
    }

    /// Returns the number of distinct local states (vertices).
    pub fn num_states(&self) -> usize {
        self.incidence.len()
    }

    /// Returns the number of facets: the maximal simplices, i.e. the
    /// distinct execution facets that lie in no other one.
    pub fn num_facets(&self) -> usize {
        self.complex().facets().count()
    }

    /// Returns the vertex identifier of the local state of `node` in `run`,
    /// if that state occurs in the complex.
    ///
    /// States are keyed by [`View::encode`], an exact word encoding of the
    /// view `G_α(i, m)`: two nodes get the same id exactly when their
    /// [`View`]s are equal.
    pub fn state_id(&self, run: &Run, node: Node) -> Option<usize> {
        thread_local! {
            /// The encoding buffer every lookup on this thread reuses.
            static KEY: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
        }
        KEY.with_borrow_mut(|key| {
            View::encode(run, node, key);
            self.index.get(key.as_slice()).copied()
        })
    }

    /// Returns the star complex `St(v, P_m)` of the vertex `id`: every facet
    /// containing the vertex, together with all faces.  It is the closure of
    /// the run facets through the vertex, not a scan of the whole complex.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a vertex of the complex.
    pub fn star(&self, id: usize) -> SimplicialComplex {
        self.incidence[id].iter().map(|&f| self.run_facets[f].clone()).collect()
    }

    /// Returns `true` if the star complex of the vertex is `q`-connected in
    /// the reduced-GF(2)-homology sense.
    ///
    /// For `q = 0` the star is not built: a union-find over the vertices of
    /// the run facets through the vertex ([`homology::is_path_connected`])
    /// decides path connectivity.  Every `q ≥ 1` closes the star and reduces
    /// its boundary maps.
    ///
    /// The closed star is a cone over the vertex, so it is contractible and
    /// this is `true` for every vertex at every `q`; see the test
    /// `every_closed_star_is_connected_at_every_q`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a vertex of the complex.
    pub fn star_is_q_connected(&self, id: usize, q: usize) -> bool {
        if q == 0 {
            let facets = self.incidence[id].iter().map(|&f| &self.run_facets[f]);
            return homology::is_path_connected(facets);
        }
        homology::is_q_connected(&self.star(id), q)
    }
}

impl fmt::Display for ProtocolComplex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "protocol complex at time {}: {} states, {} facets",
            self.time,
            self.num_states(),
            self.num_facets()
        )
    }
}

#[cfg(test)]
mod tests {
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;

    use super::*;
    use adversary::enumerate::{self, EnumerationConfig};
    use synchrony::{FailurePattern, InputVector, ProcessId};

    /// All adversaries over `n` processes with binary inputs and at most one
    /// crash, occurring in round 1 with an arbitrary delivery subset.
    fn one_round_adversaries(n: usize) -> Vec<Adversary> {
        let mut adversaries = Vec::new();
        let inputs: Vec<InputVector> = (0..(1u32 << n))
            .map(|mask| {
                InputVector::from_values(
                    (0..n).map(|i| u64::from(mask >> i & 1)).collect::<Vec<_>>(),
                )
            })
            .collect();
        let mut patterns = vec![FailurePattern::crash_free(n)];
        for crasher in 0..n {
            let others: Vec<usize> = (0..n).filter(|&p| p != crasher).collect();
            for mask in 0..(1u32 << others.len()) {
                let delivered: Vec<usize> = others
                    .iter()
                    .enumerate()
                    .filter(|(bit, _)| mask & (1 << bit) != 0)
                    .map(|(_, &p)| p)
                    .collect();
                let mut pattern = FailurePattern::crash_free(n);
                pattern.crash(crasher, 1, delivered).unwrap();
                patterns.push(pattern);
            }
        }
        for pattern in &patterns {
            for input in &inputs {
                adversaries.push(Adversary::new(input.clone(), pattern.clone()).unwrap());
            }
        }
        adversaries
    }

    #[test]
    fn one_round_binary_complex_has_expected_shape() {
        let n = 3;
        let system = SystemParams::new(n, 1).unwrap();
        let adversaries = one_round_adversaries(n);
        let pc = ProtocolComplex::build(system, &adversaries, Time::new(1)).unwrap();
        // The one-round protocol complex of the synchronous model with at most
        // one crash is connected (this is what makes consensus unsolvable in
        // one round with a possible failure).
        assert!(homology::is_q_connected(pc.complex(), 0));
        assert!(pc.num_states() > n);
        assert!(pc.num_facets() > 1);
        assert!(!pc.to_string().is_empty());
    }

    #[test]
    fn failure_free_states_appear_in_the_complex() {
        let n = 3;
        let system = SystemParams::new(n, 1).unwrap();
        let adversaries = one_round_adversaries(n);
        let pc = ProtocolComplex::build(system, &adversaries, Time::new(1)).unwrap();
        let failure_free = Adversary::failure_free(InputVector::from_values([0, 1, 1])).unwrap();
        let run = Run::generate(system, failure_free, Time::new(1)).unwrap();
        for i in 0..n {
            let id = pc.state_id(&run, Node::new(i, Time::new(1)));
            assert!(id.is_some(), "state of process {i} should be in the complex");
        }
    }

    #[test]
    fn star_of_a_state_with_a_hidden_path_is_connected() {
        // Proposition 2 for k = 1: a state whose hidden capacity is at least 1
        // in every round has a 0-connected (i.e. connected) star complex.
        let n = 3;
        let system = SystemParams::new(n, 1).unwrap();
        let adversaries = one_round_adversaries(n);
        let pc = ProtocolComplex::build(system, &adversaries, Time::new(1)).unwrap();
        // In the run where p0 crashes silently in round 1, p2's state at time 1
        // has a hidden node at every layer (hidden capacity 1).
        let mut failures = FailurePattern::crash_free(n);
        failures.crash_silent(0, 1).unwrap();
        let adversary = Adversary::new(InputVector::from_values([0, 1, 1]), failures).unwrap();
        let run = Run::generate(system, adversary, Time::new(1)).unwrap();
        let analysis = knowledge::ViewAnalysis::new(&run, Node::new(2, Time::new(1))).unwrap();
        assert!(analysis.hidden_capacity() >= 1);
        let id = pc.state_id(&run, Node::new(2, Time::new(1))).unwrap();
        assert!(pc.star_is_q_connected(id, 0));
    }

    #[test]
    fn state_lookup_fails_for_views_outside_the_complex() {
        let n = 3;
        let system = SystemParams::new(n, 1).unwrap();
        // Build the complex from failure-free runs only.
        let adversaries: Vec<Adversary> =
            one_round_adversaries(n).into_iter().filter(|a| a.num_failures() == 0).collect();
        let pc = ProtocolComplex::build(system, &adversaries, Time::new(1)).unwrap();
        // A run with a crash produces a view that is not a vertex.
        let mut failures = FailurePattern::crash_free(n);
        failures.crash_silent(0, 1).unwrap();
        let adversary = Adversary::new(InputVector::from_values([0, 1, 1]), failures).unwrap();
        let run = Run::generate(system, adversary, Time::new(1)).unwrap();
        assert!(pc.state_id(&run, Node::new(2, Time::new(1))).is_none());
    }

    /// The adversaries and system of `sweep prop2`'s exhaustive `(n, t)` rows.
    fn prop2_scope(n: usize, t: usize) -> (SystemParams, Vec<Adversary>) {
        let scope =
            EnumerationConfig { n, t, max_value: 1, max_crash_round: 1, partial_delivery: true };
        (SystemParams::new(n, t).unwrap(), enumerate::adversaries(&scope).unwrap())
    }

    #[test]
    fn stars_from_facet_incidence_equal_the_closed_stars_of_the_complex() {
        for (n, t) in [(3, 1), (4, 2)] {
            let (system, adversaries) = prop2_scope(n, t);
            let pc = ProtocolComplex::build(system, &adversaries, Time::new(1)).unwrap();
            for id in 0..pc.num_states() {
                assert_eq!(pc.star(id), pc.complex().star(id), "({n},{t}) vertex {id}");
            }
        }
    }

    /// `star(id)` is the *closed* star: every simplex through the vertex
    /// with all its faces, a cone with apex `id`.  A cone is contractible, so
    /// every star is `q`-connected at every `q`, whatever the vertex's hidden
    /// capacity, and the exhaustive Proposition 2 check cannot find a
    /// counterexample this way.  Which subcomplex the proposition constrains
    /// is an open question of the roadmap (item 6).  At `q = 0` the
    /// union-find kernel must also agree with the homology of the closed star.
    #[test]
    fn every_closed_star_is_connected_at_every_q() {
        for (n, t) in [(3, 1), (4, 2)] {
            let (system, adversaries) = prop2_scope(n, t);
            let pc = ProtocolComplex::build(system, &adversaries, Time::new(1)).unwrap();
            for id in 0..pc.num_states() {
                assert_eq!(
                    pc.star_is_q_connected(id, 0),
                    homology::is_q_connected(&pc.star(id), 0),
                    "({n},{t}) vertex {id}"
                );
                for q in 0..=3 {
                    assert!(pc.star_is_q_connected(id, q), "({n},{t}) vertex {id}, q = {q}");
                }
            }
        }
    }

    #[test]
    fn state_ids_are_equal_exactly_when_views_are_equal() {
        for (n, t) in [(3, 1), (4, 2)] {
            let (system, adversaries) = prop2_scope(n, t);
            let time = Time::new(1);
            let pc = ProtocolComplex::build(system, &adversaries, time).unwrap();
            let mut id_of_view: HashMap<View, usize> = HashMap::new();
            let mut view_of_id: HashMap<usize, View> = HashMap::new();
            for adversary in &adversaries {
                let run = Run::generate(system, adversary.clone(), time).unwrap();
                for i in (0..n).filter(|&i| run.is_active(i, time)) {
                    let node = Node::new(i, time);
                    let id = pc.state_id(&run, node).expect("every active state is a vertex");
                    let view = View::extract(&run, node);
                    assert_eq!(*id_of_view.entry(view.clone()).or_insert(id), id, "({n},{t})");
                    assert_eq!(*view_of_id.entry(id).or_insert(view.clone()), view, "({n},{t})");
                }
            }
            assert_eq!(view_of_id.len(), pc.num_states(), "({n},{t}): every vertex is met");
        }
    }

    #[test]
    fn the_reusing_build_equals_a_generate_per_adversary_build() {
        for (n, t) in [(3, 1), (4, 2)] {
            let (system, adversaries) = prop2_scope(n, t);
            let time = Time::new(1);
            let pc = ProtocolComplex::build(system, &adversaries, time).unwrap();
            // The view-keyed build: one fresh run per adversary, states
            // numbered in order of first appearance.
            let mut index: HashMap<(ProcessId, View), usize> = HashMap::new();
            let mut complex = SimplicialComplex::new();
            for adversary in &adversaries {
                let run = Run::generate(system, adversary.clone(), time).unwrap();
                let mut facet = Vec::new();
                for i in (0..n).filter(|&i| run.is_active(i, time)) {
                    let next = index.len();
                    let key = (ProcessId::new(i), View::extract(&run, Node::new(i, time)));
                    facet.push(match index.entry(key) {
                        Entry::Occupied(entry) => *entry.get(),
                        Entry::Vacant(entry) => *entry.insert(next),
                    });
                }
                complex.add(Simplex::new(facet));
            }
            assert_eq!(pc.num_states(), index.len(), "({n},{t})");
            assert_eq!(*pc.complex(), complex, "({n},{t})");
            assert_eq!(pc.num_facets(), complex.facets().count(), "({n},{t})");
        }
    }
}
