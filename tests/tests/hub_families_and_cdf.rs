//! The hub-weighted topology subsystem and the radius-CDF reporting layer,
//! tested through the whole stack.
//!
//! Two bundles of invariants:
//!
//! * **`RadiusCdf` invariants** on real sweep rows: the distribution is a
//!   genuine right-continuous ECDF (monotone, steps of `k / (trials * n)`,
//!   saturating at 1), its 500-per-mille point is bit-identical to the
//!   `Measure::Quantile { per_mille: 500 }` median column for single-trial
//!   rows, and merging per-trial distributions equals pooling the raw
//!   radius vectors. Every accessor also equals a dense-histogram model of
//!   the distribution (`counts[r]` for every radius up to the largest), bit
//!   for bit.
//! * **Hub-family properties** across seeds: preferential attachment is
//!   deterministic per seed, realises `n` exactly, satisfies the handshake
//!   identity (degree sum = 2m) with the exact BA edge count, and stays
//!   connected; the power-law configuration model is deterministic, simple,
//!   and bounded by its degree sequence.

use avglocal::graph::{generators, traversal};
use avglocal::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Recomputes a sweep row's pooled distribution from scratch via the plain
/// per-trial entry point and compares bit for bit.
fn assert_row_cdf_matches_pooled_trials(topology: &Topology, n: usize, trials: usize, seed: u64) {
    let policy = AssignmentPolicy::Random { base_seed: seed };
    let result = Sweep::on(Problem::LargestId, topology.clone(), vec![n])
        .with_policy(policy.clone())
        .with_trials(trials)
        .run()
        .unwrap();
    let row = &result.rows[0];

    let mut pooled: Vec<usize> = Vec::new();
    let mut merged = RadiusCdf::empty();
    for trial in 0..trials {
        let profile =
            run_on_topology(Problem::LargestId, topology, n, &policy.assignment_for_trial(trial))
                .unwrap();
        merged.merge(&profile.cdf());
        pooled.extend_from_slice(profile.radii());
    }
    assert_eq!(row.cdf, RadiusCdf::from_radii(&pooled), "{topology} row vs pooled radii");
    assert_eq!(row.cdf, merged, "{topology} row vs merged per-trial CDFs");
}

/// Checks the ECDF axioms on one distribution with a known observation
/// count.
fn assert_cdf_invariants(cdf: &RadiusCdf, observations: u64) {
    assert_eq!(cdf.observations(), observations);
    let unit = 1.0 / observations as f64;
    let mut previous = 0.0;
    for r in 0..=cdf.max_radius() {
        let f = cdf.fraction_within(r);
        // Monotone, within [0, 1].
        assert!((0.0..=1.0 + 1e-12).contains(&f), "F({r}) = {f}");
        assert!(f >= previous - 1e-12, "F must be non-decreasing at {r}");
        // Right-continuous step function: F(r) = F(r-1) + count(r)/total,
        // i.e. every step height is an integer multiple of 1/(trials * n).
        let step = f - previous;
        let steps = (step / unit).round();
        assert!(
            (step - steps * unit).abs() < 1e-9,
            "step at {r} must be a multiple of 1/observations"
        );
        assert_eq!(steps as u64, cdf.count_at(r), "step at {r} counts the observations there");
        previous = f;
    }
    assert!((previous - 1.0).abs() < 1e-12, "the CDF saturates at 1");
    assert_eq!(cdf.tail(cdf.max_radius()), 0.0);
}

/// The reference model of [`RadiusCdf`]: a dense histogram, `counts[r]` for
/// every radius up to the largest, with each accessor written the plain way.
struct DenseCdf {
    counts: Vec<u64>,
    total: u64,
}

impl DenseCdf {
    fn from_radii(radii: &[usize]) -> Self {
        let mut counts = vec![0u64; radii.iter().max().map_or(0, |&m| m + 1)];
        for &r in radii {
            counts[r] += 1;
        }
        DenseCdf { counts, total: radii.len() as u64 }
    }

    fn max_radius(&self) -> usize {
        self.counts.iter().rposition(|&c| c > 0).unwrap_or(0)
    }

    fn count_at(&self, r: usize) -> u64 {
        self.counts.get(r).copied().unwrap_or(0)
    }

    fn fraction_within(&self, r: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let within: u64 = self.counts.iter().take(r.saturating_add(1)).sum();
        within as f64 / self.total as f64
    }

    fn tail(&self, r: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        1.0 - self.fraction_within(r)
    }

    fn quantile(&self, per_mille: u16) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q = u64::from(per_mille.min(1000));
        let index = (q * (self.total - 1) + 500) / 1000;
        let mut seen = 0u64;
        for (r, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > index {
                return r as f64;
            }
        }
        self.max_radius() as f64
    }

    fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self.counts.iter().enumerate().map(|(r, &c)| r as u64 * c).sum();
        sum as f64 / self.total as f64
    }

    fn steps(&self) -> Vec<(usize, f64)> {
        let mut seen = 0u64;
        let mut steps = Vec::new();
        for (r, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 {
                steps.push((r, seen as f64 / self.total as f64));
            }
        }
        steps
    }

    fn curve(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0];
        }
        let mut seen = 0u64;
        self.counts
            .iter()
            .map(|&c| {
                seen += c;
                seen as f64 / self.total as f64
            })
            .collect()
    }

    fn render(&self) -> String {
        if self.total == 0 {
            return "(empty)".to_string();
        }
        let steps: Vec<String> =
            self.steps().iter().map(|(r, fraction)| format!("{r}:{fraction:.3}")).collect();
        steps.join(" ")
    }
}

/// A radius vector for the model test, drawn from `raw`: ordinary radii,
/// radii on both sides of 256 (where `RadiusCdf::from_radii` stops counting
/// on the stack and starts sorting) and radii up to `n / 2`, the winner's
/// radius on the `n`-cycle. Empty when `empty` is set.
fn model_radii(raw: &[usize], n: usize, empty: bool) -> Vec<usize> {
    if empty {
        return Vec::new();
    }
    raw.iter()
        .map(|&x| match x % 3 {
            0 => x / 3 % 16,
            1 => 240 + x / 3 % 32,
            _ => x / 3 % (n / 2 + 1),
        })
        .collect()
}

/// The bit patterns of a float sequence, so a comparison is bit for bit.
fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

#[test]
fn sweep_row_cdfs_are_valid_ecdfs_across_families() {
    let topologies = [
        Topology::Cycle,
        Topology::CompleteBinaryTree,
        Topology::PreferentialAttachment { m: 2, seed: 13 },
        Topology::gnp_connected(24, 7),
    ];
    for topology in topologies {
        let trials = 3usize;
        let n = 24usize;
        let result = Sweep::on(Problem::LargestId, topology.clone(), vec![n])
            .with_policy(AssignmentPolicy::Random { base_seed: 5 })
            .with_trials(trials)
            .run()
            .unwrap();
        assert_cdf_invariants(&result.rows[0].cdf, (trials * n) as u64);
        assert_row_cdf_matches_pooled_trials(&topology, n, trials, 5);
    }
}

#[test]
fn single_trial_cdf_median_is_bit_identical_to_the_quantile_column() {
    // For a single trial the pooled distribution IS the trial, so its
    // 500-per-mille point must be bit-identical to the median column (the
    // `Measure::Quantile { per_mille: 500 }` value) — same nearest-rank
    // definition, same value, no floating-point slack.
    for (topology, n) in [
        (Topology::Cycle, 17usize),
        (Topology::Grid, 12),
        (Topology::PreferentialAttachment { m: 1, seed: 13 }, 40),
    ] {
        let result = Sweep::on(Problem::LargestId, topology.clone(), vec![n])
            .with_policy(AssignmentPolicy::Random { base_seed: 11 })
            .run()
            .unwrap();
        let row = &result.rows[0];
        assert_eq!(row.cdf.quantile(500), row.median, "{topology}");
        // And both agree with the profile-level quantile of the same trial.
        let profile = run_on_topology(
            Problem::LargestId,
            &topology,
            n,
            &AssignmentPolicy::Random { base_seed: 11 }.assignment_for_trial(0),
        )
        .unwrap();
        assert_eq!(row.median, profile.quantile(500), "{topology}");
        assert_eq!(row.cdf.mean(), row.average, "{topology}");
    }
}

#[test]
fn preferential_attachment_satisfies_the_handshake_identity() {
    // Degree sum = 2m with the exact BA edge count, at every (n, m, seed).
    for seed in 0u64..6 {
        for m in 1usize..4 {
            for n in [m + 1, 10, 33, 64] {
                let g = generators::preferential_attachment(n, m, &mut StdRng::seed_from_u64(seed))
                    .unwrap();
                assert_eq!(g.node_count(), n, "exact n at ({n}, {m}, {seed})");
                let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
                assert_eq!(degree_sum, 2 * g.edge_count(), "handshake at ({n}, {m}, {seed})");
                let s = n.min(m + 1);
                assert_eq!(
                    g.edge_count(),
                    s * (s - 1) / 2 + (n - s) * m,
                    "exact edge count at ({n}, {m}, {seed})"
                );
                assert!(traversal::is_connected(&g), "connected at ({n}, {m}, {seed})");
            }
        }
    }
}

#[test]
fn hub_topologies_are_deterministic_across_rebuilds() {
    // The Topology wrappers derive per-(seed, n) streams: same seed, same
    // instance; different seeds, different instances (at sizes where a
    // collision would be astronomically unlikely).
    for seed in 0u64..4 {
        let pa = Topology::PreferentialAttachment { m: 2, seed };
        assert_eq!(pa.build(48).unwrap(), pa.build(48).unwrap());
        let plc = Topology::PowerLawConfiguration { gamma: 2.3, seed };
        assert_eq!(plc.build_unchecked(48).unwrap(), plc.build_unchecked(48).unwrap());
    }
    let a = Topology::PreferentialAttachment { m: 2, seed: 0 }.build(64).unwrap();
    let b = Topology::PreferentialAttachment { m: 2, seed: 1 }.build(64).unwrap();
    assert_ne!(a, b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The CDF of any radius profile agrees with the profile's own
    /// statistics at every probe point.
    #[test]
    fn profile_cdf_agrees_with_profile_statistics(
        radii in collection::vec(0usize..30, 1..60)
    ) {
        let profile = RadiusProfile::new(radii.clone());
        let cdf = profile.cdf();
        prop_assert_eq!(cdf.observations(), radii.len() as u64);
        prop_assert_eq!(cdf.max_radius(), profile.max());
        prop_assert!((cdf.mean() - profile.average()).abs() < 1e-12);
        for r in 0..=profile.max() + 1 {
            prop_assert!((cdf.fraction_within(r) - profile.fraction_within(r)).abs() < 1e-12);
        }
        for per_mille in [0u16, 100, 250, 500, 750, 900, 1000] {
            prop_assert_eq!(cdf.quantile(per_mille), profile.quantile(per_mille));
        }
    }

    /// Merging a split of a radius vector equals the distribution of the
    /// whole vector, regardless of the split point.
    #[test]
    fn cdf_merge_equals_pooling(
        radii in collection::vec(0usize..20, 2..50),
        split_seed in 0usize..1000
    ) {
        let split = split_seed % radii.len();
        let mut merged = RadiusCdf::from_radii(&radii[..split]);
        merged.merge(&RadiusCdf::from_radii(&radii[split..]));
        prop_assert_eq!(merged, RadiusCdf::from_radii(&radii));
    }

    /// Every accessor of the distribution equals the dense model's, bit for
    /// bit, and a split of the vector merged in either order equals the
    /// distribution of the whole vector.
    #[test]
    fn cdf_equals_the_dense_histogram_model(
        raw in collection::vec(0usize..1 << 20, 1..120),
        n in 2usize..1 << 18,
        split_seed in 0usize..1000,
        shape in 0usize..8
    ) {
        let radii = model_radii(&raw, n, shape == 0);
        let cdf = RadiusCdf::from_radii(&radii);
        let model = DenseCdf::from_radii(&radii);
        prop_assert_eq!(cdf.observations(), model.total);
        prop_assert_eq!(cdf.is_empty(), model.total == 0);
        prop_assert_eq!(cdf.max_radius(), model.max_radius());
        let mut points: Vec<usize> =
            radii.iter().flat_map(|&r| [r.saturating_sub(1), r, r + 1]).collect();
        points.extend([0, 255, 256, 257, n / 2, usize::MAX]);
        for r in points {
            prop_assert_eq!(cdf.count_at(r), model.count_at(r), "count at {}", r);
            prop_assert_eq!(
                cdf.fraction_within(r).to_bits(),
                model.fraction_within(r).to_bits(),
                "F({})",
                r
            );
            prop_assert_eq!(cdf.tail(r).to_bits(), model.tail(r).to_bits(), "tail at {}", r);
        }
        for per_mille in (0..=1000).chain([u16::MAX]) {
            prop_assert_eq!(
                cdf.quantile(per_mille).to_bits(),
                model.quantile(per_mille).to_bits(),
                "quantile {}",
                per_mille
            );
        }
        prop_assert_eq!(cdf.mean().to_bits(), model.mean().to_bits());
        let (steps, model_steps) = (cdf.steps().collect::<Vec<_>>(), model.steps());
        prop_assert_eq!(
            steps.iter().map(|&(r, f)| (r, f.to_bits())).collect::<Vec<_>>(),
            model_steps.iter().map(|&(r, f)| (r, f.to_bits())).collect::<Vec<_>>()
        );
        prop_assert_eq!(bits(cdf.curve()), bits(model.curve()));
        prop_assert_eq!(cdf.to_string(), model.render());

        let (left, right) = radii.split_at(split_seed % (radii.len() + 1));
        let mut forward = RadiusCdf::from_radii(left);
        forward.merge(&RadiusCdf::from_radii(right));
        prop_assert_eq!(&forward, &cdf);
        let mut backward = RadiusCdf::from_radii(right);
        backward.merge(&RadiusCdf::from_radii(left));
        prop_assert_eq!(&backward, &cdf);
    }

    /// Preferential-attachment determinism as a property: rebuilding with
    /// the same seed is bit-identical, and the handshake identity holds.
    #[test]
    fn preferential_attachment_properties(n in 1usize..48, m in 1usize..4, seed in 0u64..500) {
        let g1 = generators::preferential_attachment(n, m, &mut StdRng::seed_from_u64(seed)).unwrap();
        let g2 = generators::preferential_attachment(n, m, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(&g1, &g2);
        prop_assert_eq!(g1.node_count(), n);
        let degree_sum: usize = g1.nodes().map(|v| g1.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g1.edge_count());
        prop_assert!(traversal::is_connected(&g1));
    }
}
