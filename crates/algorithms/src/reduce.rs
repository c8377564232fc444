//! Colour reduction: shrinking a proper colouring one class at a time.
//!
//! On graphs of maximum degree `Δ`, any proper `k`-colouring with `k > Δ + 1`
//! can be reduced to a `(Δ+1)`-colouring by removing one colour class per
//! round: all nodes of the highest colour simultaneously re-colour themselves
//! with a free colour from `{0, …, Δ}` (their neighbours all have other
//! colours and there are at most `Δ` of them). On the ring (`Δ = 2`) this is
//! the standard 6 → 3 step that follows Cole–Vishkin.

/// The smallest colour in `0..palette_size` that does not appear among
/// `neighbor_colors`, or `None` if every colour is taken (which cannot happen
/// when `palette_size > neighbor_colors.len()`).
#[must_use]
pub fn free_color(neighbor_colors: &[u64], palette_size: u64) -> Option<u64> {
    (0..palette_size).find(|c| !neighbor_colors.contains(c))
}

/// One synchronous reduction step on an explicit colouring: every node whose
/// colour equals `class` re-colours itself with the smallest colour in
/// `0..palette_size` unused by its neighbours.
///
/// `adjacency[i]` lists the indices of node `i`'s neighbours. The input
/// colouring must be proper; the output colouring is proper again and no node
/// keeps the colour `class` (provided `palette_size` exceeds every degree).
#[must_use]
pub fn reduce_class(
    colors: &[u64],
    adjacency: &[Vec<usize>],
    class: u64,
    palette_size: u64,
) -> Vec<u64> {
    let mut next = colors.to_vec();
    for (i, &c) in colors.iter().enumerate() {
        if c == class {
            let neighbor_colors: Vec<u64> = adjacency[i].iter().map(|&j| colors[j]).collect();
            if let Some(free) = free_color(&neighbor_colors, palette_size) {
                next[i] = free;
            }
        }
    }
    next
}

/// Iteratively removes the colour classes `target..initial` (from the highest
/// downwards), producing a proper colouring with colours `0..target`.
///
/// This is the centralized reference implementation of the distributed
/// reduction phase; the distributed version lives in the Cole–Vishkin
/// pipeline ([`crate::ThreeColorRing`]) and is tested against this one.
#[must_use]
pub fn reduce_to(colors: &[u64], adjacency: &[Vec<usize>], initial: u64, target: u64) -> Vec<u64> {
    let mut current = colors.to_vec();
    for class in (target..=initial).rev() {
        current = reduce_class(&current, adjacency, class, target);
    }
    current
}

/// [`crate::verify::proper_coloring_ok`] on the graph described by
/// `adjacency`.
#[must_use]
pub fn is_proper_coloring(colors: &[u64], adjacency: &[Vec<usize>], palette_size: u64) -> bool {
    let edges =
        adjacency.iter().enumerate().flat_map(|(i, nbrs)| nbrs.iter().map(move |&j| (i, j)));
    crate::verify::proper_coloring_ok(adjacency.len(), edges, colors, palette_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adjacency of a cycle of length `n` over indices.
    fn cycle_adjacency(n: usize) -> Vec<Vec<usize>> {
        (0..n).map(|i| vec![(i + n - 1) % n, (i + 1) % n]).collect()
    }

    #[test]
    fn free_color_picks_smallest_unused() {
        assert_eq!(free_color(&[0, 2], 3), Some(1));
        assert_eq!(free_color(&[1, 2], 3), Some(0));
        assert_eq!(free_color(&[], 3), Some(0));
        assert_eq!(free_color(&[0, 1, 2], 3), None);
    }

    #[test]
    fn reduce_class_removes_the_class() {
        let adjacency = cycle_adjacency(6);
        let colors = vec![0, 5, 1, 5, 2, 5];
        assert!(is_proper_coloring(&colors, &adjacency, 6));
        let reduced = reduce_class(&colors, &adjacency, 5, 3);
        assert!(!reduced.contains(&5));
        assert!(is_proper_coloring(&reduced, &adjacency, 3));
    }

    #[test]
    fn reduce_to_three_from_six_on_cycles() {
        // A valid 6-colouring of an even cycle, deliberately wasteful.
        let adjacency = cycle_adjacency(12);
        let colors: Vec<u64> = (0..12).map(|i| (i % 6) as u64).collect();
        assert!(is_proper_coloring(&colors, &adjacency, 6));
        let reduced = reduce_to(&colors, &adjacency, 5, 3);
        assert!(is_proper_coloring(&reduced, &adjacency, 3), "got {reduced:?}");
        assert!(reduced.iter().all(|&c| c < 3));
    }

    #[test]
    fn reduce_is_a_no_op_when_already_small() {
        let adjacency = cycle_adjacency(4);
        let colors = vec![0, 1, 0, 1];
        let reduced = reduce_to(&colors, &adjacency, 5, 3);
        assert_eq!(reduced, colors);
    }

    #[test]
    fn proper_coloring_checks() {
        let adjacency = cycle_adjacency(5);
        assert!(is_proper_coloring(&[0, 1, 0, 1, 2], &adjacency, 3));
        assert!(!is_proper_coloring(&[0, 0, 1, 2, 1], &adjacency, 3)); // adjacent equal
        assert!(!is_proper_coloring(&[0, 1, 0, 1, 3], &adjacency, 3)); // colour out of range
        assert!(!is_proper_coloring(&[0, 1], &adjacency, 3)); // wrong length
    }
}
