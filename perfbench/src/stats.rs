//! Small order statistics and process probes shared by the workloads.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Mean of the best tenth (at least one) of `values`: the smallest when
/// `lower_is_better`, else the largest; `0.0` when empty.
///
/// The end-to-end metrics use this instead of the median. On a shared host
/// neighbours only ever slow a repetition down, and they do so in bursts of
/// seconds, so the quietest repetitions track the code rather than the
/// neighbours; averaging a tenth of them keeps one lucky repetition from
/// setting the figure.
pub fn quiet(values: &[f64], lower_is_better: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if !lower_is_better {
        sorted.reverse();
    }
    let best = &sorted[..values.len().div_ceil(10)];
    best.iter().sum::<f64>() / best.len() as f64
}

/// Nearest-rank quantile `q` of an ascending slice; `0.0` when empty.
pub fn nearest_rank<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the wall time it took, in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, secs(start))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// SplitMix64: the benchmark's own seeded stream for client scripts.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..bound` (`bound > 0`), by multiply-shift.
    pub fn below(&mut self, bound: usize) -> usize {
        ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(nearest_rank(&sorted, 0.5), 50.0);
        assert_eq!(nearest_rank(&sorted, 0.99), 99.0);
    }

    #[test]
    fn quiet_averages_the_best_tenth() {
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quiet(&values, true), 1.5);
        assert_eq!(quiet(&values, false), 19.5);
        assert_eq!(quiet(&[4.0, 2.0, 9.0], true), 2.0);
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix::new(7);
        assert!((0..1000).all(|_| rng.below(13) < 13));
    }
}
