//! Integration tests for the topological side of the paper: Proposition 2 on
//! protocol complexes built from exhaustively enumerated adversaries, and the
//! Sperner machinery on the paper's subdivision.

use adversary::enumerate::{self, EnumerationConfig};
use knowledge::ViewAnalysis;
use synchrony::{Node, Run, SystemParams, Time};
use topology::{homology, sperner, ProtocolComplex, Simplex, Subdivision};

/// Proposition 2 for k = 1: every time-1 state with hidden capacity at least
/// 1 (a hidden path) has a connected star complex in the one-round protocol
/// complex.  (The `k = 2` case needs `n ≥ 2k + 1 = 5` for the premise to be
/// satisfiable and is exercised by the release-mode `sweep prop2` CLI, where
/// the much larger enumeration is affordable.)
#[test]
fn proposition_two_holds_on_small_protocol_complexes() {
    for (n, t, k) in [(3usize, 1usize, 1usize), (4, 2, 1)] {
        let config = EnumerationConfig {
            n,
            t,
            max_value: k as u64,
            max_crash_round: 1,
            partial_delivery: true,
        };
        let adversaries = enumerate::adversaries(&config).unwrap();
        let system = SystemParams::new(n, t).unwrap();
        let time = Time::new(1);
        let complex = ProtocolComplex::build(system, &adversaries, time).unwrap();
        let mut checked_states = std::collections::HashSet::new();
        let mut states_with_capacity = 0usize;
        for adversary in &adversaries {
            let run = Run::generate(system, adversary.clone(), time).unwrap();
            for i in 0..n {
                if !run.is_active(i, time) {
                    continue;
                }
                let Some(id) = complex.state_id(&run, Node::new(i, time)) else { continue };
                if !checked_states.insert(id) {
                    continue;
                }
                let analysis = ViewAnalysis::new(&run, Node::new(i, time)).unwrap();
                if analysis.hidden_capacity() >= k {
                    states_with_capacity += 1;
                    assert!(
                        complex.star_is_q_connected(id, k - 1),
                        "n={n}, k={k}: star of a state with HC >= {k} is not ({})-connected",
                        k - 1
                    );
                }
            }
        }
        assert!(states_with_capacity > 0, "the check must not be vacuous (n={n}, k={k})");
    }
}

/// The full one-round protocol complex over all crash adversaries is
/// connected — the weakest form of the global connectivity that the classical
/// lower-bound proofs exploit.  (Higher connectivity of the *whole* complex
/// requires the per-round failure restrictions of the lower-bound literature;
/// the paper's own Proposition 2 is about star subcomplexes, tested above.)
#[test]
fn one_round_protocol_complex_is_connected() {
    let (n, t, k) = (4usize, 2usize, 2usize);
    let config =
        EnumerationConfig { n, t, max_value: k as u64, max_crash_round: 1, partial_delivery: true };
    let adversaries = enumerate::adversaries(&config).unwrap();
    let system = SystemParams::new(n, t).unwrap();
    let complex = ProtocolComplex::build(system, &adversaries, Time::new(1)).unwrap();
    assert!(homology::is_q_connected(complex.complex(), 0));
}

/// Sperner's lemma on the paper's subdivision, for every k up to 5 and many
/// random Sperner colorings.
#[test]
fn sperner_lemma_on_the_paper_subdivision() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(23);
    for k in 1..=5usize {
        let sub = Subdivision::paper_div(&Simplex::new(0..=k));
        assert!(sub.is_structurally_valid());
        for _ in 0..25 {
            let coloring = sperner::Coloring::from_rule(&sub, |id| {
                let carrier: Vec<usize> = sub.carrier(id).vertices().collect();
                carrier[rng.random_range(0..carrier.len())]
            });
            assert!(sperner::is_sperner_coloring(&sub, &coloring));
            assert_eq!(sperner::fully_colored_facets(&sub, &coloring) % 2, 1);
        }
    }
}

/// The barycentric subdivision and the paper's Div σ are both contractible,
/// as subdivisions of a simplex must be.
#[test]
fn subdivisions_are_contractible() {
    for k in 1..=4usize {
        let base = Simplex::new(0..=k);
        for sub in [Subdivision::barycentric(&base), Subdivision::paper_div(&base)] {
            assert!(homology::is_q_connected(sub.complex(), k.saturating_sub(1)));
            let betti = homology::betti_numbers(sub.complex());
            assert!(betti.all().iter().all(|&b| b == 0), "k = {k}: {:?}", betti.all());
        }
    }
}
