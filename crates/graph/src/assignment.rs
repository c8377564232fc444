//! Identifier assignments: how the adversary labels the nodes.
//!
//! In the paper the running time is always taken in the worst case over the
//! distribution of the identifiers; the assignment is therefore an explicit
//! experimental knob. An [`IdAssignment`] describes a policy and can be
//! applied to any graph.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::error::Result;
use crate::permutation::Permutation;
use crate::{Graph, Identifier};

/// A policy for assigning identifiers to the nodes of a graph.
///
/// Identifiers are always a permutation of `base .. base + n`, so they are
/// unique. `base` defaults to 0; use [`IdAssignment::apply_with_base`] to shift the
/// universe (e.g. to make identifiers look unrelated to node indices).
///
/// # Examples
///
/// ```
/// use avglocal_graph::{generators, IdAssignment};
///
/// # fn main() -> Result<(), avglocal_graph::GraphError> {
/// let mut g = generators::cycle(6)?;
/// IdAssignment::Reversed.apply(&mut g)?;
/// assert_eq!(g.identifier(avglocal_graph::NodeId::new(0)).value(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum IdAssignment {
    /// Node `i` receives identifier `i`.
    #[default]
    Identity,
    /// Node `i` receives identifier `n - 1 - i`.
    Reversed,
    /// Node `i` receives identifier `(i + shift) mod n`.
    Rotated {
        /// Amount of the cyclic shift.
        shift: usize,
    },
    /// Identifiers are a uniformly random permutation drawn from the seed.
    Shuffled {
        /// Seed of the deterministic RNG used to draw the permutation.
        seed: u64,
    },
    /// Node `i` receives identifier `permutation.get(i)`.
    Explicit(Permutation),
}

impl IdAssignment {
    /// Produces the identifier vector this policy assigns to a graph with
    /// `n` nodes, using identifier universe `base .. base + n`.
    ///
    /// An [`IdAssignment::Explicit`] permutation whose length is not `n`
    /// silently yields the identity table (see [`IdAssignment::permutation`]);
    /// [`IdAssignment::write_identifiers`] rejects it instead.
    #[must_use]
    pub fn identifiers(&self, n: usize, base: u64) -> Vec<Identifier> {
        let mut table = vec![Identifier::new(0); n];
        match self.write_identifiers(&mut table, base) {
            Ok(()) => table,
            Err(_) => IdAssignment::Identity.identifiers(n, base),
        }
    }

    /// Writes the table [`IdAssignment::identifiers`] returns for
    /// `table.len()` nodes into `table`, in place: `base + i` at every `i`,
    /// then the policy's permutation. A shuffle makes the same draws as
    /// [`Permutation::random`], so every table is bit-identical to the one
    /// built from [`IdAssignment::permutation`]. The table is a permutation
    /// of `base .. base + n`, so unique by construction: it can be installed
    /// without any duplicate check.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GraphError::AssignmentLengthMismatch`], before
    /// anything is written, when an explicit permutation does not have
    /// exactly one entry per slot.
    pub fn write_identifiers(&self, table: &mut [Identifier], base: u64) -> Result<()> {
        if let IdAssignment::Explicit(p) = self {
            if p.len() != table.len() {
                return Err(crate::GraphError::AssignmentLengthMismatch {
                    provided: p.len(),
                    expected: table.len(),
                });
            }
        }
        for (i, slot) in (base..).zip(table.iter_mut()) {
            *slot = Identifier::new(i);
        }
        match self {
            IdAssignment::Identity => {}
            IdAssignment::Reversed => table.reverse(),
            IdAssignment::Rotated { shift } => {
                if !table.is_empty() {
                    table.rotate_left(shift % table.len());
                }
            }
            IdAssignment::Shuffled { seed } => table.shuffle(&mut StdRng::seed_from_u64(*seed)),
            IdAssignment::Explicit(p) => {
                for (slot, &image) in table.iter_mut().zip(p.as_slice()) {
                    *slot = Identifier::new(base + image as u64);
                }
            }
        }
        Ok(())
    }

    /// The permutation of `0..n` underlying this policy.
    #[must_use]
    pub fn permutation(&self, n: usize) -> Permutation {
        match self {
            IdAssignment::Identity => Permutation::identity(n),
            IdAssignment::Reversed => Permutation::reversal(n),
            IdAssignment::Rotated { shift } => Permutation::rotation(n, *shift),
            IdAssignment::Shuffled { seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                Permutation::random(n, &mut rng)
            }
            IdAssignment::Explicit(p) => {
                if p.len() == n {
                    p.clone()
                } else {
                    // Fall back to the identity when the explicit permutation
                    // does not match the graph size; write_identifiers() and
                    // apply() report the error.
                    Permutation::identity(n)
                }
            }
        }
    }

    /// Applies the policy to `graph`, rewriting every node's identifier.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::GraphError::AssignmentLengthMismatch`], leaving
    /// the graph unchanged, when an explicit permutation does not match the
    /// graph size.
    pub fn apply(&self, graph: &mut Graph) -> Result<()> {
        self.apply_with_base(graph, 0)
    }

    /// Like [`IdAssignment::apply`] but with identifiers drawn from
    /// `base .. base + n`: [`IdAssignment::write_identifiers`] writes them
    /// straight into the graph's table.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::GraphError::AssignmentLengthMismatch`], leaving
    /// the graph unchanged, when an explicit permutation does not match the
    /// graph size.
    pub fn apply_with_base(&self, graph: &mut Graph, base: u64) -> Result<()> {
        self.write_identifiers(graph.identifiers_mut(), base)
    }

    /// Convenience constructor for an explicit assignment from an image
    /// vector.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GraphError::InvalidGeneratorParameter`] if the vector
    /// is not a permutation.
    pub fn from_vec(map: Vec<usize>) -> Result<Self> {
        Ok(IdAssignment::Explicit(Permutation::from_vec(map)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::NodeId;
    use crate::Permutation;

    #[test]
    fn identity_assignment() {
        let mut g = generators::cycle(5).unwrap();
        IdAssignment::Identity.apply(&mut g).unwrap();
        for v in g.nodes() {
            assert_eq!(g.identifier(v).value() as usize, v.index());
        }
    }

    #[test]
    fn reversed_assignment() {
        let mut g = generators::path(4).unwrap();
        IdAssignment::Reversed.apply(&mut g).unwrap();
        assert_eq!(g.identifier(NodeId::new(0)).value(), 3);
        assert_eq!(g.identifier(NodeId::new(3)).value(), 0);
    }

    #[test]
    fn rotated_assignment() {
        let mut g = generators::cycle(6).unwrap();
        IdAssignment::Rotated { shift: 2 }.apply(&mut g).unwrap();
        assert_eq!(g.identifier(NodeId::new(0)).value(), 2);
        assert_eq!(g.identifier(NodeId::new(5)).value(), 1);
        assert!(g.has_unique_identifiers());
    }

    #[test]
    fn shuffled_assignment_is_deterministic_per_seed() {
        let mut a = generators::cycle(20).unwrap();
        let mut b = generators::cycle(20).unwrap();
        IdAssignment::Shuffled { seed: 42 }.apply(&mut a).unwrap();
        IdAssignment::Shuffled { seed: 42 }.apply(&mut b).unwrap();
        assert_eq!(a, b);
        let mut c = generators::cycle(20).unwrap();
        IdAssignment::Shuffled { seed: 43 }.apply(&mut c).unwrap();
        assert_ne!(a, c);
        assert!(a.has_unique_identifiers());
    }

    #[test]
    fn explicit_assignment() {
        let mut g = generators::path(3).unwrap();
        IdAssignment::from_vec(vec![2, 0, 1]).unwrap().apply(&mut g).unwrap();
        assert_eq!(g.identifier(NodeId::new(0)).value(), 2);
        assert_eq!(g.identifier(NodeId::new(1)).value(), 0);
        assert_eq!(g.identifier(NodeId::new(2)).value(), 1);
    }

    #[test]
    fn explicit_assignment_size_mismatch() {
        let mut g = generators::path(3).unwrap();
        IdAssignment::Reversed.apply(&mut g).unwrap();
        let before: Vec<Identifier> = g.identifiers().collect();
        let a = IdAssignment::from_vec(vec![1, 0]).unwrap();
        let err = a.apply(&mut g).unwrap_err();
        assert_eq!(err, crate::GraphError::AssignmentLengthMismatch { provided: 2, expected: 3 });
        // A rejected assignment leaves the graph's identifiers untouched.
        assert_eq!(g.identifier_slice(), before.as_slice());
        // The unchecked table documents its identity fallback.
        assert_eq!(a.identifiers(3, 0), IdAssignment::Identity.identifiers(3, 0));
        // The in-place writer rejects the mismatch before writing anything.
        let mut table = vec![Identifier::new(7); 3];
        let err = a.write_identifiers(&mut table, 0).unwrap_err();
        assert_eq!(err, crate::GraphError::AssignmentLengthMismatch { provided: 2, expected: 3 });
        assert_eq!(table, vec![Identifier::new(7); 3]);
    }

    #[test]
    fn in_place_table_matches_the_permutation_for_every_variant() {
        for n in [0usize, 1, 2, 3, 17, 1024] {
            let explicit = Permutation::random(n, &mut StdRng::seed_from_u64(9));
            let variants = [
                IdAssignment::Identity,
                IdAssignment::Reversed,
                IdAssignment::Rotated { shift: 0 },
                IdAssignment::Rotated { shift: 5 },
                IdAssignment::Rotated { shift: 3000 },
                IdAssignment::Shuffled { seed: 0 },
                IdAssignment::Shuffled { seed: 42 },
                IdAssignment::Explicit(explicit),
            ];
            for assignment in variants {
                for base in [0, 1000] {
                    let perm = assignment.permutation(n);
                    let expected: Vec<Identifier> =
                        (0..n).map(|i| Identifier::new(base + perm.get(i) as u64)).collect();
                    let mut table = vec![Identifier::new(u64::MAX); n];
                    assignment.write_identifiers(&mut table, base).unwrap();
                    assert_eq!(table, expected, "{assignment:?}, n = {n}, base = {base}");
                    assert_eq!(assignment.identifiers(n, base), expected);
                    let mut graph = Graph::with_default_nodes(n);
                    assignment.apply_with_base(&mut graph, base).unwrap();
                    assert_eq!(graph.identifier_slice(), expected.as_slice());
                }
            }
        }
    }

    #[test]
    fn base_offsets_identifier_universe() {
        let mut g = generators::cycle(4).unwrap();
        IdAssignment::Identity.apply_with_base(&mut g, 100).unwrap();
        assert_eq!(g.identifier(NodeId::new(0)).value(), 100);
        assert_eq!(g.identifier(NodeId::new(3)).value(), 103);
    }

    #[test]
    fn identifiers_helper_matches_apply() {
        let assignment = IdAssignment::Shuffled { seed: 5 };
        let ids = assignment.identifiers(8, 0);
        let mut g = generators::cycle(8).unwrap();
        assignment.apply(&mut g).unwrap();
        let applied: Vec<_> = g.identifiers().collect();
        assert_eq!(ids, applied);
    }

    #[test]
    fn default_is_identity() {
        assert_eq!(IdAssignment::default(), IdAssignment::Identity);
    }

    #[test]
    fn invalid_explicit_vector_rejected() {
        assert!(IdAssignment::from_vec(vec![0, 0]).is_err());
    }
}
