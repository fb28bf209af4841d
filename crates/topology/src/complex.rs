//! Abstract simplicial complexes.

use std::collections::{BTreeSet, HashSet};
use std::fmt;

use crate::Simplex;

/// An abstract simplicial complex: a finite collection of simplices closed
/// under taking faces.
///
/// The complex stores every simplex explicitly (not just the facets), in one
/// ordered set of flat [`Simplex`] values, which keeps face queries and
/// boundary-matrix construction simple: the simplices of each dimension come
/// out in lexicographic order, so homology can index them by binary search.
/// Every constructor keeps the set closed under taking faces, which is what
/// lets [`SimplicialComplex::facets`] find the maximal simplices in one pass.
///
/// ```
/// use topology::{Simplex, SimplicialComplex};
///
/// let mut complex = SimplicialComplex::new();
/// complex.add(Simplex::new([0, 1, 2]));
/// complex.add(Simplex::new([2, 3]));
/// assert_eq!(complex.dimension(), Some(2));
/// assert_eq!(complex.simplices_of_dim(1).count(), 4);
/// assert!(complex.contains(&Simplex::new([0, 2])));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimplicialComplex {
    simplices: BTreeSet<Simplex>,
}

impl SimplicialComplex {
    /// Creates an empty complex.
    pub fn new() -> Self {
        SimplicialComplex { simplices: BTreeSet::new() }
    }

    /// Creates a complex from a collection of (generating) simplices; faces
    /// are added automatically.
    pub fn from_simplices(simplices: impl IntoIterator<Item = Simplex>) -> Self {
        let mut complex = SimplicialComplex::new();
        for simplex in simplices {
            complex.add(simplex);
        }
        complex
    }

    /// Adds a simplex and all of its faces.  Returns `true` if the simplex was
    /// not already present.
    ///
    /// A face already in the complex has all of its own faces there too, so
    /// the closure descends only through the boundary faces that are new.
    pub fn add(&mut self, simplex: Simplex) -> bool {
        if self.simplices.contains(&simplex) {
            return false;
        }
        for face in simplex.boundary() {
            self.add(face);
        }
        self.simplices.insert(simplex)
    }

    /// Returns `true` if the simplex belongs to the complex.
    pub fn contains(&self, simplex: &Simplex) -> bool {
        self.simplices.contains(simplex)
    }

    /// Returns the number of simplices (of all dimensions).
    pub fn len(&self) -> usize {
        self.simplices.len()
    }

    /// Returns `true` if the complex has no simplices.
    pub fn is_empty(&self) -> bool {
        self.simplices.is_empty()
    }

    /// Returns the dimension of the complex (the largest simplex dimension),
    /// or `None` if the complex is empty.
    pub fn dimension(&self) -> Option<usize> {
        self.simplices.iter().map(Simplex::dimension).max()
    }

    /// Iterates over every simplex in the complex.
    pub fn simplices(&self) -> impl Iterator<Item = &Simplex> {
        self.simplices.iter()
    }

    /// Iterates over the simplices of a given dimension.
    pub fn simplices_of_dim(&self, dim: usize) -> impl Iterator<Item = &Simplex> {
        self.simplices.iter().filter(move |s| s.dimension() == dim)
    }

    /// Returns the set of vertices of the complex.
    pub fn vertex_set(&self) -> BTreeSet<usize> {
        self.simplices.iter().flat_map(|s| s.vertices()).collect()
    }

    /// Iterates over the facets: the simplices that are maximal under
    /// inclusion.
    ///
    /// Because the complex is closed under faces, a simplex lies in a larger
    /// one exactly when it is a boundary face of a simplex one dimension up,
    /// so one pass over every simplex's boundary finds the non-facets.
    pub fn facets(&self) -> impl Iterator<Item = &Simplex> {
        let covered: HashSet<Simplex> = self.simplices.iter().flat_map(Simplex::boundary).collect();
        self.simplices.iter().filter(move |s| !covered.contains(*s))
    }

    /// Returns `true` if all facets have the same dimension.
    pub fn is_pure(&self) -> bool {
        let dims: BTreeSet<usize> = self.facets().map(Simplex::dimension).collect();
        dims.len() <= 1
    }

    /// Returns the `d`-skeleton: all simplices of dimension at most `d`.
    pub fn skeleton(&self, d: usize) -> SimplicialComplex {
        SimplicialComplex {
            simplices: self.simplices.iter().filter(|s| s.dimension() <= d).cloned().collect(),
        }
    }

    /// Returns the *star* of `vertex`: the subcomplex consisting of every
    /// simplex that contains the vertex, together with all of their faces
    /// (the closed star `St(v, K)` of the paper).
    pub fn star(&self, vertex: usize) -> SimplicialComplex {
        SimplicialComplex::from_simplices(
            self.simplices.iter().filter(|s| s.contains(vertex)).cloned(),
        )
    }

    /// Returns the *link* of `vertex`: the faces of the star that do not
    /// contain the vertex.
    pub fn link(&self, vertex: usize) -> SimplicialComplex {
        SimplicialComplex {
            simplices: self
                .star(vertex)
                .simplices
                .into_iter()
                .filter(|s| !s.contains(vertex))
                .collect(),
        }
    }

    /// Returns the join `K ∗ L` of two complexes on disjoint vertex sets:
    /// every union of a simplex of `K` with a simplex of `L` (plus the two
    /// complexes themselves).
    ///
    /// # Panics
    ///
    /// Panics if the vertex sets are not disjoint.
    pub fn join(&self, other: &SimplicialComplex) -> SimplicialComplex {
        assert!(
            self.vertex_set().is_disjoint(&other.vertex_set()),
            "the join is defined for complexes on disjoint vertex sets"
        );
        let mut joined = SimplicialComplex::new();
        for a in &self.simplices {
            joined.add(a.clone());
        }
        for b in &other.simplices {
            joined.add(b.clone());
        }
        for a in &self.simplices {
            for b in &other.simplices {
                joined.add(a.union(b));
            }
        }
        joined
    }

    /// Returns the Euler characteristic `Σ (−1)^d · n_d`.
    pub fn euler_characteristic(&self) -> i64 {
        self.simplices.iter().map(|s| if s.dimension() % 2 == 0 { 1i64 } else { -1i64 }).sum()
    }
}

impl FromIterator<Simplex> for SimplicialComplex {
    fn from_iter<I: IntoIterator<Item = Simplex>>(iter: I) -> Self {
        SimplicialComplex::from_simplices(iter)
    }
}

impl fmt::Display for SimplicialComplex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "complex with {} vertices, {} simplices, dimension {:?}",
            self.vertex_set().len(),
            self.len(),
            self.dimension()
        )
    }
}

/// A seeded random complex for the tests: the closure of up to twelve random
/// simplices of one to five vertices drawn from nine, some of them faces or
/// duplicates of others.
#[cfg(test)]
pub(crate) fn random_complex(seed: u64) -> SimplicialComplex {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(seed);
    let generators = rng.random_range(1..=12usize);
    (0..generators)
        .map(|_| {
            let size = rng.random_range(1..=5usize);
            Simplex::new((0..size).map(|_| rng.random_range(0..9usize)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_boundary() -> SimplicialComplex {
        // The hollow triangle: three edges, no 2-face.
        SimplicialComplex::from_simplices([
            Simplex::new([0, 1]),
            Simplex::new([1, 2]),
            Simplex::new([0, 2]),
        ])
    }

    #[test]
    fn adding_a_simplex_adds_all_faces() {
        let mut complex = SimplicialComplex::new();
        assert!(complex.add(Simplex::new([0, 1, 2])), "a new simplex returns true");
        assert_eq!(complex.len(), 7);
        assert!(complex.contains(&Simplex::vertex(1)));
        assert!(complex.contains(&Simplex::new([0, 2])));
        assert!(!complex.add(Simplex::new([0, 1, 2])), "re-adding returns false");
        assert!(!complex.add(Simplex::new([1, 2])), "adding a present face returns false");
        assert!(complex.add(Simplex::new([1, 2, 3])));
        assert_eq!(complex.len(), 7 + 4);
    }

    #[test]
    fn facets_are_maximal_simplices() {
        let mut complex = triangle_boundary();
        complex.add(Simplex::new([2, 3]));
        let facets: Vec<&Simplex> = complex.facets().collect();
        assert_eq!(facets.len(), 4);
        assert!(complex.is_pure());
        complex.add(Simplex::vertex(9));
        assert!(!complex.is_pure());
    }

    #[test]
    fn one_pass_facets_match_the_pairwise_definition() {
        for seed in 0..40 {
            let complex = random_complex(seed);
            let pairwise: Vec<&Simplex> = complex
                .simplices()
                .filter(|s| !complex.simplices().any(|other| other != *s && s.is_face_of(other)))
                .collect();
            assert_eq!(complex.facets().collect::<Vec<_>>(), pairwise, "seed {seed}");
        }
    }

    #[test]
    fn star_and_link_of_a_vertex() {
        let mut complex = SimplicialComplex::new();
        complex.add(Simplex::new([0, 1, 2]));
        complex.add(Simplex::new([2, 3]));
        let star = complex.star(2);
        assert!(star.contains(&Simplex::new([0, 1, 2])));
        assert!(star.contains(&Simplex::new([2, 3])));
        assert!(star.contains(&Simplex::vertex(0)), "faces of starred simplices are included");
        let link = complex.link(2);
        assert!(link.contains(&Simplex::new([0, 1])));
        assert!(link.contains(&Simplex::vertex(3)));
        assert!(!link.contains(&Simplex::vertex(2)));
    }

    #[test]
    fn skeleton_cuts_high_dimensions() {
        let mut complex = SimplicialComplex::new();
        complex.add(Simplex::new([0, 1, 2, 3]));
        let one_skeleton = complex.skeleton(1);
        assert_eq!(one_skeleton.dimension(), Some(1));
        assert_eq!(one_skeleton.simplices_of_dim(1).count(), 6);
        assert_eq!(one_skeleton.simplices_of_dim(0).count(), 4);
    }

    #[test]
    fn join_of_two_edges_is_a_tetrahedron_boundary_fill() {
        let a = SimplicialComplex::from_simplices([Simplex::new([0, 1])]);
        let b = SimplicialComplex::from_simplices([Simplex::new([2, 3])]);
        let joined = a.join(&b);
        assert!(joined.contains(&Simplex::new([0, 1, 2, 3])));
        assert_eq!(joined.dimension(), Some(3));
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn join_requires_disjoint_vertex_sets() {
        let a = SimplicialComplex::from_simplices([Simplex::new([0, 1])]);
        let b = SimplicialComplex::from_simplices([Simplex::new([1, 2])]);
        let _ = a.join(&b);
    }

    #[test]
    fn euler_characteristic_of_sphere_like_complexes() {
        // The hollow triangle is a circle: χ = 0.
        assert_eq!(triangle_boundary().euler_characteristic(), 0);
        // A filled triangle is contractible: χ = 1.
        let mut filled = SimplicialComplex::new();
        filled.add(Simplex::new([0, 1, 2]));
        assert_eq!(filled.euler_characteristic(), 1);
        // The boundary of a tetrahedron is a 2-sphere: χ = 2.
        let mut sphere = SimplicialComplex::new();
        for face in Simplex::new([0, 1, 2, 3]).boundary() {
            sphere.add(face);
        }
        assert_eq!(sphere.euler_characteristic(), 2);
    }
}
