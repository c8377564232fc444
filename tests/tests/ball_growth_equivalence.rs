//! Property tests: the incremental [`BallGrower`] is indistinguishable from
//! from-scratch [`extract_ball`] extraction — members, distances, saturation
//! and view fingerprints — at every radius, on every graph family the sweep
//! harness cares about (cycles, paths, trees, grids, Gnp random graphs), and
//! also when one grower is re-centred on every node and its scratch carried
//! between snapshots of different sizes.

use avglocal::algorithms::LargestId;
use avglocal::graph::{extract_ball, generators, BallGrower, GrowerScratch};
use avglocal::prelude::*;
use avglocal::runtime::{BallAlgorithm, FrozenExecutor, Knowledge, LocalView};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Checks grower == extract_ball for every centre and every radius from 0 to
/// two past saturation, on `g`.
fn assert_grower_matches_extraction(g: &Graph) {
    let csr = g.freeze();
    for center in g.nodes() {
        assert_growth_matches_extraction(g, &mut BallGrower::new(&csr, center));
    }
}

/// Grows `grower`, freshly centred on a node of `g`, from radius 0 to two
/// past saturation and checks it against [`extract_ball`] at every radius.
fn assert_growth_matches_extraction(g: &Graph, grower: &mut BallGrower<'_>) {
    let center = grower.center();
    let mut radius = 0usize;
    let mut beyond_saturation = 0usize;
    loop {
        let expected = extract_ball(g, center, radius);
        assert_eq!(
            grower.snapshot_ball(),
            expected,
            "ball mismatch at centre {center}, radius {radius}"
        );
        let lazy = LocalView::from_grower(grower);
        let eager = LocalView::from_ball(&expected);
        assert_eq!(lazy.fingerprint(), eager.fingerprint());
        assert_eq!(lazy.node_count(), eager.node_count());
        assert_eq!(lazy.max_identifier(), eager.max_identifier());
        assert_eq!(lazy.center_degree(), eager.center_degree());
        assert_eq!(lazy.is_saturated(), eager.is_saturated());

        if grower.is_saturated() {
            beyond_saturation += 1;
            if beyond_saturation > 2 {
                break;
            }
        }
        grower.grow();
        radius += 1;
    }
}

/// Runs one grower over `graphs` in turn, carrying its [`GrowerScratch`]
/// from snapshot to snapshot, and re-centres it with `reset` on every node
/// of each: the member buffer a previous ball or a previous snapshot left
/// behind must never show in a later ball.
fn assert_reused_grower_matches_extraction(graphs: &[Graph]) {
    let mut scratch = GrowerScratch::default();
    for g in graphs {
        let csr = g.freeze();
        let mut grower = BallGrower::with_scratch(&csr, NodeId::new(0), scratch);
        for center in g.nodes() {
            grower.reset(center);
            assert_growth_matches_extraction(g, &mut grower);
        }
        scratch = grower.into_scratch();
    }
}

/// One draw of a family whose rings can be far wider than the ring before:
/// a near-square grid, G(n, p), preferential attachment or a power-law
/// configuration on `n >= 1` nodes.
fn wide_ring_graph(family: usize, n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = match family {
        0 => {
            let rows = n.isqrt();
            generators::grid(rows, n / rows)
        }
        1 => generators::erdos_renyi(n, 0.15, &mut rng),
        2 => generators::preferential_attachment(n, 2, &mut rng),
        _ => generators::power_law_configuration(n, 2.1, &mut rng),
    };
    shuffled(g.expect("every family builds on at least one node"), seed)
}

/// Checks that the incremental executor agrees with a from-scratch probe (a
/// fresh [`extract_ball`] per radius) on every radius and output of the
/// largest-ID algorithm on `g`.
fn assert_executors_agree(g: &Graph) {
    let fast = FrozenExecutor::new(g)
        .run(&LargestId, Knowledge::none())
        .expect("largest-ID terminates on every graph");
    for v in g.nodes() {
        let slow = (0..=g.node_count()).find_map(|r| {
            let view = LocalView::from_ball(&extract_ball(g, v, r));
            LargestId.decide(&view, &Knowledge::none()).map(|output| (output, r))
        });
        assert_eq!(Some((*fast.output(v), fast.radius(v))), slow, "node {v}");
    }
}

fn shuffled(mut g: Graph, seed: u64) -> Graph {
    IdAssignment::Shuffled { seed }.apply(&mut g).expect("shuffles always fit");
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn grower_matches_extraction_on_cycles(n in 3usize..28, seed in 0u64..1000) {
        let g = shuffled(generators::cycle(n).unwrap(), seed);
        assert_grower_matches_extraction(&g);
        assert_executors_agree(&g);
    }

    #[test]
    fn grower_matches_extraction_on_paths(n in 1usize..28, seed in 0u64..1000) {
        let g = shuffled(generators::path(n).unwrap(), seed);
        assert_grower_matches_extraction(&g);
        assert_executors_agree(&g);
    }

    #[test]
    fn grower_matches_extraction_on_random_trees(n in 1usize..24, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = shuffled(generators::random_tree(n, &mut rng).unwrap(), seed);
        assert_grower_matches_extraction(&g);
        assert_executors_agree(&g);
    }

    #[test]
    fn grower_matches_extraction_on_grids(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
        let g = shuffled(generators::grid(rows, cols).unwrap(), seed);
        assert_grower_matches_extraction(&g);
        assert_executors_agree(&g);
    }

    #[test]
    fn grower_matches_extraction_on_gnp(n in 1usize..20, p_millis in 0usize..1001, seed in 0u64..1000) {
        // Gnp graphs may be disconnected: saturation then happens at the
        // component, which both engines must agree on.
        let p = p_millis as f64 / 1000.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = shuffled(generators::erdos_renyi(n, p, &mut rng).unwrap(), seed);
        assert_grower_matches_extraction(&g);
        assert_executors_agree(&g);
    }

    #[test]
    fn grower_matches_extraction_on_preferential_attachment(
        n in 1usize..24,
        m in 1usize..4,
        seed in 0u64..1000
    ) {
        // Hub-weighted instances stress the grower differently from the
        // near-regular families: one frontier step at a hub pulls in a large
        // fraction of the graph at once.
        let mut rng = StdRng::seed_from_u64(seed);
        let g = shuffled(generators::preferential_attachment(n, m, &mut rng).unwrap(), seed);
        assert_grower_matches_extraction(&g);
        assert_executors_agree(&g);
    }

    #[test]
    fn a_reused_grower_matches_extraction_small_large_small(
        family in 0usize..4,
        small in 1usize..10,
        large in 24usize..49,
        seed in 0u64..1000
    ) {
        let graphs = [
            wide_ring_graph(family, small, seed),
            wide_ring_graph(family, large, seed + 1),
            wide_ring_graph(family, small, seed + 2),
        ];
        assert_reused_grower_matches_extraction(&graphs);
    }

    #[test]
    fn grower_matches_extraction_on_power_law_configuration(
        n in 1usize..20,
        gamma_tenths in 15usize..35,
        seed in 0u64..1000
    ) {
        // Configuration-model draws may be disconnected (saturation at the
        // component) and carry extreme degree skew.
        let gamma = gamma_tenths as f64 / 10.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = shuffled(generators::power_law_configuration(n, gamma, &mut rng).unwrap(), seed);
        assert_grower_matches_extraction(&g);
        assert_executors_agree(&g);
    }
}
