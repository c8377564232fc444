//! The full radius distribution of an experiment: an exact, mergeable ECDF.
//!
//! A single quantile column (the median of `Measure::Quantile`) answers "when
//! does the ordinary node output?" at one point; the ROADMAP's quantile
//! *curve* question needs the whole distribution. [`RadiusCdf`] is that
//! report: an exact empirical CDF folded from a per-trial radius vector,
//! mergeable across trials (and across components), with nearest-rank
//! quantile, mean and tail accessors. The sweep layer threads one through
//! every [`crate::MeasureSet`], so a full-distribution column costs nothing
//! beyond its support.
//!
//! Radii are non-negative integers (bounded by the graph diameter), so the
//! CDF is stored exactly, as its sorted run-length support: one `(radius,
//! count)` pair per observed radius — no binning, no floating-point
//! accumulation, and merging is a two-pointer walk. It costs 16 bytes per
//! distinct radius, not per radius up to the largest: a random-id
//! `LargestId` cycle of 65,536 nodes has its winner at radius 32,768 but
//! only a few hundred distinct radii.
//!
//! # Examples
//!
//! ```
//! use avglocal::RadiusCdf;
//!
//! let mut cdf = RadiusCdf::from_radii(&[1, 1, 1, 5]);
//! assert_eq!(cdf.observations(), 4);
//! assert_eq!(cdf.fraction_within(1), 0.75); // F(1): three of four nodes
//! assert_eq!(cdf.tail(1), 0.25);            // the winner is still running
//! assert_eq!(cdf.quantile(500), 1.0);       // the ordinary node
//! assert_eq!(cdf.mean(), 2.0);
//!
//! // Trials merge exactly: the pooled distribution of two trials.
//! cdf.merge(&RadiusCdf::from_radii(&[2, 2, 2, 2]));
//! assert_eq!(cdf.observations(), 8);
//! assert_eq!(cdf.max_radius(), 5);
//! ```

use std::cmp::Ordering;
use std::fmt;

/// Radii below this are counted in a fixed array on the stack while a radius
/// vector is folded; only the radii at or above it are sorted.
const DENSE_PREFIX: usize = 256;

/// An exact empirical CDF over per-node radii, mergeable across trials.
///
/// The distribution is its support: every observed radius with its count,
/// in increasing radius order. The CDF at `r` is the normalised sum of the
/// counts at radii `<= r`. No count is zero, so two distributions are equal
/// exactly when they hold the same observations. The default value is the
/// empty distribution (no observations), which merges as the identity.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RadiusCdf {
    /// `(radius, count)` for every observed radius, sorted by radius, every
    /// count positive.
    support: Vec<(usize, u64)>,
    /// Total number of observations (the sum of the counts, cached).
    total: u64,
}

impl RadiusCdf {
    /// The empty distribution — the identity of [`RadiusCdf::merge`].
    #[must_use]
    pub fn empty() -> Self {
        RadiusCdf::default()
    }

    /// Folds a radius vector into its exact distribution.
    ///
    /// Radii below a small fixed bound are counted in a stack array in one
    /// pass; the rest are copied out, sorted and run-length coded. No buffer
    /// scales with the largest radius, and the sort sees only the radii past
    /// the bound: about one in 500 on a random-id `LargestId` cycle.
    #[must_use]
    pub fn from_radii(radii: &[usize]) -> Self {
        let mut prefix = [0u64; DENSE_PREFIX];
        let mut above = Vec::new();
        for &r in radii {
            match prefix.get_mut(r) {
                Some(count) => *count += 1,
                None => above.push(r),
            }
        }
        above.sort_unstable();
        let runs = above.chunk_by(|a, b| a == b);
        let distinct = prefix.iter().filter(|&&c| c > 0).count() + runs.clone().count();
        let mut support = Vec::with_capacity(distinct);
        support.extend(prefix.iter().enumerate().filter(|&(_, &c)| c > 0).map(|(r, &c)| (r, c)));
        support.extend(runs.map(|run| (run[0], run.len() as u64)));
        RadiusCdf { support, total: radii.len() as u64 }
    }

    /// Adds every observation of `other` to this distribution.
    ///
    /// Merging is exact (integer counts), commutative and associative, so
    /// per-trial distributions fold into a per-row distribution in any
    /// order — the sweep layer merges in trial order for determinism anyway.
    /// Costs one pass over both supports.
    pub fn merge(&mut self, other: &RadiusCdf) {
        let (mine, theirs) = (&self.support, &other.support);
        let mut merged = Vec::with_capacity(mine.len() + theirs.len());
        let (mut i, mut j) = (0, 0);
        while let (Some(&(r, c)), Some(&(s, d))) = (mine.get(i), theirs.get(j)) {
            match r.cmp(&s) {
                Ordering::Less => {
                    merged.push((r, c));
                    i += 1;
                }
                Ordering::Greater => {
                    merged.push((s, d));
                    j += 1;
                }
                Ordering::Equal => {
                    merged.push((r, c + d));
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&mine[i..]);
        merged.extend_from_slice(&theirs[j..]);
        // Radii both sides observed leave slack, which is kept: shrinking
        // after every merge fragmented glibc's heap enough to raise the peak
        // RSS of an 8-trial 2^18-cycle sweep loop by 4 MB (2-vCPU x86-64).
        self.support = merged;
        self.total += other.total;
    }

    /// Number of observations folded in so far (`trials x nodes` for a sweep
    /// row).
    #[must_use]
    pub fn observations(&self) -> u64 {
        self.total
    }

    /// Returns `true` when no observation has been folded in.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The largest observed radius (0 for the empty distribution).
    #[must_use]
    pub fn max_radius(&self) -> usize {
        self.support.last().map_or(0, |&(r, _)| r)
    }

    /// The number of observations with radius exactly `r`.
    #[must_use]
    pub fn count_at(&self, r: usize) -> u64 {
        self.support
            .binary_search_by_key(&r, |&(radius, _)| radius)
            .map_or(0, |i| self.support[i].1)
    }

    /// The CDF value `F(r)`: the fraction of observations with radius
    /// `<= r` (0.0 for the empty distribution).
    ///
    /// As an ECDF this is right-continuous and non-decreasing in `r`, with a
    /// step of `count_at(r) / observations()` at every observed radius.
    #[must_use]
    pub fn fraction_within(&self, r: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let within: u64 =
            self.support.iter().take_while(|&&(radius, _)| radius <= r).map(|&(_, c)| c).sum();
        within as f64 / self.total as f64
    }

    /// The tail `1 - F(r)`: the fraction of observations with radius
    /// strictly greater than `r` — "how much of the network is still
    /// running after round `r`".
    #[must_use]
    pub fn tail(&self, r: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        1.0 - self.fraction_within(r)
    }

    /// Nearest-rank quantile in thousandths (`500` = median, `900` = 90th
    /// percentile; clamped to `0..=1000`). 0.0 for the empty distribution.
    ///
    /// Uses the same nearest-rank definition as
    /// [`crate::RadiusProfile::quantile`] — the value at sorted index
    /// `round(q * (total - 1))` — so for a single trial the distribution's
    /// median is bit-identical to the `Measure::Quantile { per_mille: 500 }`
    /// column. Walks the support instead of selecting, `O(distinct radii)`.
    #[must_use]
    pub fn quantile(&self, per_mille: u16) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q = u64::from(per_mille.min(1000));
        let index = (q * (self.total - 1) + 500) / 1000;
        let mut seen = 0u64;
        for &(r, c) in &self.support {
            seen += c;
            if seen > index {
                return r as f64;
            }
        }
        self.max_radius() as f64
    }

    /// The mean radius of the distribution (0.0 when empty). For a merged
    /// sweep row this is the **pooled** mean over `trials x nodes`
    /// observations, which for equal-sized trials equals the row's mean of
    /// per-trial node averages.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self.support.iter().map(|&(r, c)| r as u64 * c).sum();
        sum as f64 / self.total as f64
    }

    /// The support points of the distribution with their cumulative
    /// fractions: one `(radius, F(radius))` pair per radius with at least
    /// one observation, in increasing radius order. This is the step
    /// sequence a CDF plot draws.
    pub fn steps(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        let total = self.total as f64;
        let mut seen = 0u64;
        self.support.iter().map(move |&(r, c)| {
            seen += c;
            (r, seen as f64 / total)
        })
    }

    /// Samples the CDF at every radius from 0 to `max_radius()` inclusive —
    /// the dense form the ASCII figure panel plots. Empty distributions
    /// produce a single 0.0 sample.
    #[must_use]
    pub fn curve(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0];
        }
        let total = self.total as f64;
        let mut curve = Vec::with_capacity(self.max_radius() + 1);
        let mut seen = 0u64;
        for &(r, c) in &self.support {
            curve.resize(r, seen as f64 / total);
            seen += c;
            curve.push(seen as f64 / total);
        }
        curve
    }
}

impl fmt::Display for RadiusCdf {
    /// A compact `radius:fraction` rendering of the support, e.g.
    /// `1:0.750 5:1.000`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("(empty)");
        }
        let mut first = true;
        for (r, fraction) in self.steps() {
            if !first {
                f.write_str(" ")?;
            }
            write!(f, "{r}:{fraction:.3}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_distribution_is_harmless() {
        let cdf = RadiusCdf::empty();
        assert!(cdf.is_empty());
        assert_eq!(cdf.observations(), 0);
        assert_eq!(cdf.max_radius(), 0);
        assert_eq!(cdf.fraction_within(3), 0.0);
        assert_eq!(cdf.tail(3), 0.0);
        assert_eq!(cdf.quantile(500), 0.0);
        assert_eq!(cdf.mean(), 0.0);
        assert_eq!(cdf.curve(), vec![0.0]);
        assert_eq!(cdf.to_string(), "(empty)");
        assert_eq!(RadiusCdf::from_radii(&[]), cdf);
    }

    #[test]
    fn single_trial_statistics_are_exact() {
        let cdf = RadiusCdf::from_radii(&[1, 2, 3, 10]);
        assert_eq!(cdf.observations(), 4);
        assert_eq!(cdf.max_radius(), 10);
        assert_eq!(cdf.count_at(2), 1);
        assert_eq!(cdf.count_at(4), 0);
        assert_eq!(cdf.count_at(99), 0);
        assert_eq!(cdf.mean(), 4.0);
        assert_eq!(cdf.fraction_within(0), 0.0);
        assert_eq!(cdf.fraction_within(2), 0.5);
        assert_eq!(cdf.fraction_within(10), 1.0);
        assert_eq!(cdf.fraction_within(usize::MAX), 1.0);
        assert_eq!(cdf.tail(2), 0.5);
        // Nearest rank: index = round(0.5 * 3) = 2 -> the value 3.
        assert_eq!(cdf.quantile(500), 3.0);
        assert_eq!(cdf.quantile(0), 1.0);
        assert_eq!(cdf.quantile(1000), 10.0);
    }

    #[test]
    fn cdf_is_monotone_and_right_continuous() {
        let cdf = RadiusCdf::from_radii(&[0, 1, 1, 4, 4, 4, 7]);
        let mut previous = -1.0;
        for r in 0..=cdf.max_radius() {
            let f = cdf.fraction_within(r);
            assert!(f >= previous, "CDF must be non-decreasing at {r}");
            // Right continuity of a step function: the value AT r includes
            // the step at r.
            let step = cdf.count_at(r) as f64 / cdf.observations() as f64;
            let left_limit = if r == 0 { 0.0 } else { cdf.fraction_within(r - 1) };
            assert!((f - (left_limit + step)).abs() < 1e-12, "step height at {r}");
            previous = f;
        }
        assert_eq!(previous, 1.0);
    }

    #[test]
    fn merge_pools_observations_exactly() {
        let mut a = RadiusCdf::from_radii(&[1, 1, 2]);
        let b = RadiusCdf::from_radii(&[2, 5]);
        a.merge(&b);
        assert_eq!(a, RadiusCdf::from_radii(&[1, 1, 2, 2, 5]));
        // Merging the empty distribution is the identity, both ways.
        let before = a.clone();
        a.merge(&RadiusCdf::empty());
        assert_eq!(a, before);
        let mut empty = RadiusCdf::empty();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn merge_is_commutative() {
        let parts = [vec![0usize, 3, 3], vec![1, 1, 1, 9], vec![2]];
        let mut forward = RadiusCdf::empty();
        for p in &parts {
            forward.merge(&RadiusCdf::from_radii(p));
        }
        let mut backward = RadiusCdf::empty();
        for p in parts.iter().rev() {
            backward.merge(&RadiusCdf::from_radii(p));
        }
        assert_eq!(forward, backward);
        let pooled: Vec<usize> = parts.iter().flatten().copied().collect();
        assert_eq!(forward, RadiusCdf::from_radii(&pooled));
    }

    #[test]
    fn steps_and_curve_agree() {
        let cdf = RadiusCdf::from_radii(&[1, 1, 1, 5]);
        let steps: Vec<(usize, f64)> = cdf.steps().collect();
        assert_eq!(steps, vec![(1, 0.75), (5, 1.0)]);
        let curve = cdf.curve();
        assert_eq!(curve.len(), 6);
        assert_eq!(curve[0], 0.0);
        assert_eq!(curve[1], 0.75);
        assert_eq!(curve[4], 0.75);
        assert_eq!(curve[5], 1.0);
        assert_eq!(cdf.to_string(), "1:0.750 5:1.000");
    }

    #[test]
    fn quantile_matches_sorted_nearest_rank_on_pooled_data() {
        let data = [3usize, 0, 7, 7, 1, 2, 2, 2, 9, 4];
        let cdf = RadiusCdf::from_radii(&data);
        let mut sorted = data;
        sorted.sort_unstable();
        for per_mille in [0u16, 100, 250, 500, 750, 900, 1000] {
            let index = (usize::from(per_mille) * (data.len() - 1) + 500) / 1000;
            assert_eq!(cdf.quantile(per_mille), sorted[index] as f64, "q={per_mille}");
        }
        // Clamped above 1000.
        assert_eq!(cdf.quantile(u16::MAX), 9.0);
    }
}
