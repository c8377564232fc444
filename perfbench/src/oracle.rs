//! Output oracles that share no code with the probe engine: closed forms
//! and a linear scan, computed from the generated inputs alone.

/// Largest-ID decision radii on the `n`-cycle whose node `i` carries
/// `ids[i]` and neighbours `i ± 1 mod n`: the distance to the nearest larger
/// identifier in either direction, and `⌊n/2⌋` for the maximum, which must
/// see the whole ring.
pub fn ring_largest_id_radii(ids: &[u64]) -> Vec<usize> {
    let n = ids.len();
    let forward = nearest_larger_ahead(ids.iter().copied());
    let backward = nearest_larger_ahead(ids.iter().rev().copied());
    (0..n)
        .map(|i| {
            let (a, b) = (forward[i], backward[n - 1 - i]);
            match (a, b) {
                (None, None) => n / 2,
                _ => a.unwrap_or(usize::MAX).min(b.unwrap_or(usize::MAX)),
            }
        })
        .collect()
}

/// For each position of a circular sequence, the number of steps forward
/// to the first strictly larger value (`None` for the maximum), by one
/// monotone-stack pass over the sequence repeated twice.
fn nearest_larger_ahead(values: impl Iterator<Item = u64>) -> Vec<Option<usize>> {
    let seq: Vec<u64> = values.collect();
    let n = seq.len();
    let mut dist = vec![None; n];
    let mut stack: Vec<usize> = Vec::new();
    for k in 0..2 * n {
        let value = seq[k % n];
        while let Some(&top) = stack.last() {
            if seq[top] >= value {
                break;
            }
            stack.pop();
            dist[top] = Some(k - top);
        }
        if k < n {
            stack.push(k);
        }
    }
    dist
}

/// Side lengths of the grid the workloads use: the most square `w x h`
/// with `w * h == n`, `w <= h`.
pub fn grid_sides(n: usize) -> (usize, usize) {
    let w = (1..=n).take_while(|w| w * w <= n).filter(|w| n.is_multiple_of(*w)).last().unwrap_or(1);
    (w, n / w)
}

/// Eccentricity of node `v = y * w + x` in the `w x h` grid:
/// `max(x, w-1-x) + max(y, h-1-y)` — the radius at which its ball
/// saturates.
pub fn grid_eccentricity(w: usize, h: usize, v: usize) -> usize {
    let (x, y) = (v % w, v / w);
    x.max(w - 1 - x) + y.max(h - 1 - y)
}

/// Exact mean eccentricity of the `w x h` grid.
pub fn grid_mean_eccentricity(w: usize, h: usize) -> f64 {
    let total: usize = (0..w * h).map(|v| grid_eccentricity(w, h, v)).sum();
    total as f64 / (w * h) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_radii_by_hand() {
        // 6-cycle, ids around the ring: 0 5 1 3 2 4.
        let radii = ring_largest_id_radii(&[0, 5, 1, 3, 2, 4]);
        assert_eq!(radii, vec![1, 3, 1, 2, 1, 2]);
    }

    #[test]
    fn identity_ring_has_one_winner_at_half() {
        let ids: Vec<u64> = (0..16).collect();
        let radii = ring_largest_id_radii(&ids);
        assert_eq!(radii[15], 8);
        assert!(radii[..15].iter().all(|&r| r == 1));
    }

    #[test]
    fn grid_closed_forms() {
        assert_eq!(grid_sides(16384), (128, 128));
        assert_eq!(grid_sides(12), (3, 4));
        assert_eq!(grid_eccentricity(3, 4, 0), 5);
        assert_eq!(grid_eccentricity(3, 4, 4), 1 + 2);
        assert!((grid_mean_eccentricity(1, 3) - 5.0 / 3.0).abs() < 1e-12);
    }
}
