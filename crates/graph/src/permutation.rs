//! Permutations of `0..n`, used to model identifier assignments.
//!
//! The paper's complexity measures quantify over the *worst permutation of the
//! identifiers*, so permutations are a first-class object: they can be
//! composed, inverted, enumerated exhaustively (for small `n`), sampled
//! uniformly, and perturbed locally (for the hill-climbing adversary in
//! `avglocal`).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::error::{GraphError, Result};

/// A permutation of `0..n`.
///
/// `perm.get(i)` is the image of `i`. In the identifier-assignment use case,
/// node with index `i` receives identifier `perm.get(i)` (possibly shifted to
/// a different identifier universe by the caller).
///
/// # Examples
///
/// ```
/// use avglocal_graph::Permutation;
///
/// # fn main() -> Result<(), avglocal_graph::GraphError> {
/// let p = Permutation::from_vec(vec![2, 0, 1])?;
/// assert_eq!(p.get(0), 2);
/// let inv = p.inverse();
/// assert_eq!(inv.get(2), 0);
/// assert!(p.compose(&inv).is_identity());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Permutation {
    map: Vec<usize>,
}

impl Permutation {
    /// The identity permutation on `0..n`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Permutation { map: (0..n).collect() }
    }

    /// The permutation reversing `0..n` (`i -> n-1-i`).
    #[must_use]
    pub fn reversal(n: usize) -> Self {
        Permutation { map: (0..n).rev().collect() }
    }

    /// The cyclic shift `i -> (i + shift) mod n`.
    #[must_use]
    pub fn rotation(n: usize, shift: usize) -> Self {
        if n == 0 {
            return Permutation { map: Vec::new() };
        }
        let shift = shift % n;
        Permutation { map: (0..n).map(|i| (i + shift) % n).collect() }
    }

    /// Builds a permutation from an explicit image vector.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidGeneratorParameter`] if `map` is not a
    /// permutation of `0..map.len()`.
    pub fn from_vec(map: Vec<usize>) -> Result<Self> {
        let n = map.len();
        let mut seen = vec![false; n];
        for &x in &map {
            if x >= n || seen[x] {
                return Err(GraphError::InvalidGeneratorParameter {
                    reason: format!("vector is not a permutation of 0..{n}"),
                });
            }
            seen[x] = true;
        }
        Ok(Permutation { map })
    }

    /// Samples a permutation of `0..n` uniformly at random.
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let mut map: Vec<usize> = (0..n).collect();
        map.shuffle(rng);
        Permutation { map }
    }

    /// The size `n` of the permuted set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` for the (unique) permutation of the empty set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Image of `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn get(&self, i: usize) -> usize {
        self.map[i]
    }

    /// The underlying image vector.
    #[must_use]
    pub fn as_slice(&self) -> &[usize] {
        &self.map
    }

    /// Returns `true` when this is the identity permutation.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, &x)| i == x)
    }

    /// The inverse permutation.
    #[must_use]
    pub fn inverse(&self) -> Self {
        let mut inv = vec![0; self.map.len()];
        for (i, &x) in self.map.iter().enumerate() {
            inv[x] = i;
        }
        Permutation { map: inv }
    }

    /// Composition `self ∘ other`: `(self ∘ other)(i) = self(other(i))`.
    ///
    /// # Panics
    ///
    /// Panics if the two permutations have different sizes.
    #[must_use]
    pub fn compose(&self, other: &Permutation) -> Self {
        assert_eq!(self.len(), other.len(), "composed permutations must have equal size");
        Permutation { map: other.map.iter().map(|&i| self.map[i]).collect() }
    }

    /// Applies the permutation to a slice: output position `i` receives
    /// `values[self.get(i)]`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.len()`.
    #[must_use]
    pub fn apply<T: Clone>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(values.len(), self.len(), "applied slice must match permutation size");
        self.map.iter().map(|&i| values[i].clone()).collect()
    }

    /// Swaps the images of positions `i` and `j` in place.
    ///
    /// This is the elementary move of the local-search adversary.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn swap(&mut self, i: usize, j: usize) {
        self.map.swap(i, j);
    }

    /// Number of fixed points (`i` with `get(i) == i`).
    #[must_use]
    pub fn fixed_points(&self) -> usize {
        self.map.iter().enumerate().filter(|(i, &x)| *i == x).count()
    }

    /// Enumerates every permutation of `0..n` (in lexicographic order of their
    /// image vectors). Intended for exhaustive adversarial search with small
    /// `n`; `n` is capped at 10.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidGeneratorParameter`] when `n > 10`.
    pub fn enumerate_all(n: usize) -> Result<Vec<Permutation>> {
        if n > 10 {
            return Err(GraphError::InvalidGeneratorParameter {
                reason: format!("refusing to enumerate {n}! permutations (n > 10)"),
            });
        }
        let mut out = Vec::new();
        let mut current: Vec<usize> = (0..n).collect();
        loop {
            out.push(Permutation { map: current.clone() });
            if !next_permutation(&mut current) {
                break;
            }
        }
        Ok(out)
    }
}

impl From<Permutation> for Vec<usize> {
    fn from(p: Permutation) -> Self {
        p.map
    }
}

/// Advances `v` to the lexicographically next permutation, returning `false`
/// when `v` was already the last one.
fn next_permutation(v: &mut [usize]) -> bool {
    if v.len() < 2 {
        return false;
    }
    let mut i = v.len() - 1;
    while i > 0 && v[i - 1] >= v[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let mut j = v.len() - 1;
    while v[j] <= v[i - 1] {
        j -= 1;
    }
    v.swap(i - 1, j);
    v[i..].reverse();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_and_reversal() {
        let id = Permutation::identity(5);
        assert!(id.is_identity());
        assert_eq!(id.fixed_points(), 5);
        let rev = Permutation::reversal(5);
        assert_eq!(rev.get(0), 4);
        assert_eq!(rev.get(4), 0);
        assert_eq!(rev.fixed_points(), 1);
        assert!(rev.compose(&rev).is_identity());
    }

    #[test]
    fn rotation_wraps() {
        let r = Permutation::rotation(5, 2);
        assert_eq!(r.as_slice(), &[2, 3, 4, 0, 1]);
        assert!(Permutation::rotation(0, 3).is_empty());
        assert!(Permutation::rotation(4, 0).is_identity());
    }

    #[test]
    fn from_vec_validates() {
        assert!(Permutation::from_vec(vec![0, 1, 2]).is_ok());
        assert!(Permutation::from_vec(vec![0, 0, 2]).is_err());
        assert!(Permutation::from_vec(vec![0, 3]).is_err());
        assert!(Permutation::from_vec(vec![]).unwrap().is_identity());
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Permutation::from_vec(vec![3, 1, 0, 2]).unwrap();
        assert!(p.compose(&p.inverse()).is_identity());
        assert!(p.inverse().compose(&p).is_identity());
    }

    #[test]
    fn apply_permutes_values() {
        let p = Permutation::from_vec(vec![2, 0, 1]).unwrap();
        let v = p.apply(&["a", "b", "c"]);
        assert_eq!(v, vec!["c", "a", "b"]);
    }

    #[test]
    fn swap_changes_two_images() {
        let mut p = Permutation::identity(4);
        p.swap(0, 3);
        assert_eq!(p.as_slice(), &[3, 1, 2, 0]);
        assert_eq!(p.fixed_points(), 2);
    }

    #[test]
    fn random_permutations_are_valid_and_reproducible() {
        let a = Permutation::random(50, &mut StdRng::seed_from_u64(9));
        let b = Permutation::random(50, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        // Validity: from_vec accepts the image vector.
        assert!(Permutation::from_vec(a.as_slice().to_vec()).is_ok());
    }

    #[test]
    fn enumerate_all_has_factorial_size() {
        assert_eq!(Permutation::enumerate_all(0).unwrap().len(), 1);
        assert_eq!(Permutation::enumerate_all(1).unwrap().len(), 1);
        assert_eq!(Permutation::enumerate_all(3).unwrap().len(), 6);
        assert_eq!(Permutation::enumerate_all(5).unwrap().len(), 120);
        assert!(Permutation::enumerate_all(11).is_err());
    }

    #[test]
    fn enumerate_all_entries_are_distinct() {
        let all = Permutation::enumerate_all(4).unwrap();
        for (i, p) in all.iter().enumerate() {
            for q in &all[i + 1..] {
                assert_ne!(p, q);
            }
        }
    }

    #[test]
    fn conversion_to_vec() {
        let p = Permutation::from_vec(vec![1, 0]).unwrap();
        let v: Vec<usize> = p.into();
        assert_eq!(v, vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "equal size")]
    fn compose_rejects_size_mismatch() {
        let _ = Permutation::identity(3).compose(&Permutation::identity(4));
    }
}
