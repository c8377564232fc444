//! Auxiliary sequences: harmonic numbers and expected radii under random
//! identifier assignments.
//!
//! Section 4 of the paper asks what happens when the identifier permutation
//! is drawn uniformly at random instead of adversarially. For the largest-ID
//! algorithm on the cycle this expectation has a clean form: a node still
//! undecided at radius `r-1` is the maximum of the `2r-1` identifiers it has
//! seen, which under a uniform permutation happens with probability
//! `1/(2r-1)`. Summing the tail probabilities gives an
//! `≈ ½·ln n + O(1)` expected radius, the analytic reference curve used by
//! experiment E5.

/// The harmonic number `H_n = Σ_{k=1..n} 1/k` (0.0 for `n = 0`).
#[must_use]
pub fn harmonic(n: u64) -> f64 {
    (1..=n).map(|k| 1.0 / k as f64).sum()
}

/// The odd harmonic number `Σ_{k=1..n} 1/(2k-1)` (0.0 for `n = 0`).
#[must_use]
pub fn odd_harmonic(n: u64) -> f64 {
    (1..=n).map(|k| 1.0 / (2 * k - 1) as f64).sum()
}

/// Expected radius of a fixed node for the ball-growing largest-ID algorithm
/// on an `n`-cycle when the identifier permutation is uniformly random.
///
/// Uses `E[r(v)] = Σ_{r >= 1} P(r(v) >= r)` with
/// `P(r(v) >= r) = 1 / (2r - 1)` while `2r - 1 <= n`, and caps the radius at
/// `⌊n/2⌋` (a node never needs to look further than half of the cycle).
///
/// Returns 0.0 for `n < 3`.
#[must_use]
pub fn expected_random_radius_largest_id(n: u64) -> f64 {
    if n < 3 {
        return 0.0;
    }
    let max_radius = n / 2;
    let mut expectation = 0.0;
    for r in 1..=max_radius {
        let ball = 2 * r - 1;
        let p = if ball <= n { 1.0 / ball as f64 } else { 0.0 };
        expectation += p;
    }
    expectation
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_small_values() {
        assert_eq!(harmonic(0), 0.0);
        assert!((harmonic(1) - 1.0).abs() < 1e-12);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn harmonic_grows_like_ln() {
        let n = 100_000u64;
        let h = harmonic(n);
        let ln = (n as f64).ln();
        // H_n = ln n + gamma + o(1), gamma ≈ 0.5772.
        assert!((h - ln - 0.5772).abs() < 0.01);
    }

    #[test]
    fn odd_harmonic_relates_to_harmonic() {
        // Identity: Σ_{k=1..n} 1/(2k-1) = H_{2n-1} − ½·H_{n-1}
        // (remove the even denominators from the full harmonic sum).
        for n in 1..50u64 {
            let direct = odd_harmonic(n);
            let via_harmonic = harmonic(2 * n - 1) - 0.5 * harmonic(n - 1);
            assert!((direct - via_harmonic).abs() < 1e-9, "n = {n}");
        }
        assert_eq!(odd_harmonic(0), 0.0);
    }

    #[test]
    fn expected_radius_is_about_half_log() {
        assert_eq!(expected_random_radius_largest_id(2), 0.0);
        let e16 = expected_random_radius_largest_id(16);
        let e4096 = expected_random_radius_largest_id(4096);
        assert!(e16 < e4096);
        // ½ ln n + c: for n = 4096, ½ ln n ≈ 4.16; allow a generous band.
        assert!(e4096 > 3.5 && e4096 < 5.5, "got {e4096}");
        // Doubling n adds about ½ ln 2 ≈ 0.35.
        let e8192 = expected_random_radius_largest_id(8192);
        assert!((e8192 - e4096 - 0.5 * 2.0f64.ln()).abs() < 0.05);
    }
}
