//! Replays the seed-pinned sampling corpus in `tests/corpus/sampling/`.
//!
//! Each golden file records, for one committed (family, algorithm, plan,
//! seed) case, the drawn sample and every estimated measure as exact f64 bit
//! patterns. The replay re-draws and re-estimates from today's code and
//! compares the rendered text byte for byte, so neither the seeded draw
//! (Floyd sampling, stratum allocation, stream derivation) nor the estimator
//! arithmetic (means, finite-population half-widths, weighted quantiles) can
//! drift without the diff saying exactly which value moved and by how much.
//!
//! After a *deliberate* estimator change, regenerate the corpus with
//!
//! ```sh
//! cargo test -p avglocal-integration-tests --test sampling_corpus -- --ignored regenerate
//! ```
//!
//! and review the golden diffs like any other behavioural change.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use avglocal::algorithms::{KnowTheLeader, LargestId};
use avglocal::graph::CsrGraph;
use avglocal::prelude::*;
use avglocal::runtime::{BallAlgorithm, FrozenExecutor, Scheduling};
use avglocal::sampling::Estimate;
use avglocal::{hub_adversarial_assignment, SamplePlan};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus").join("sampling")
}

/// One committed corpus case. The name doubles as the golden file stem and
/// encodes family, algorithm, plan and base seed, so a directory listing
/// reads as the case matrix.
struct Case {
    name: String,
    csr: CsrGraph,
    radii: Vec<usize>,
    plan: SamplePlan,
    base_seed: u64,
}

fn radii_of<A>(csr: &CsrGraph, algo: &A) -> Vec<usize>
where
    A: BallAlgorithm + Sync,
    A::Output: Send,
{
    let run = FrozenExecutor::from_csr(csr.clone())
        .with_scheduling(Scheduling::Sequential)
        .run(algo, Knowledge::none())
        .expect("corpus algorithms terminate on corpus families");
    (0..csr.node_count()).map(|v| run.radius(NodeId::new(v))).collect()
}

/// The committed case matrix: both radius-profile shapes the estimators must
/// keep handling (discrete-with-outliers largest-ID, spread know-the-leader)
/// across all three designs, plus one census case pinning the exact path.
fn cases() -> Vec<Case> {
    let mut ring = generators::cycle(96).expect("corpus ring is valid");
    IdAssignment::Shuffled { seed: 11 }.apply(&mut ring).expect("shuffle applies");
    let ring = ring.freeze();

    let mut hub = Topology::PreferentialAttachment { m: 1, seed: 13 }
        .build(96)
        .expect("corpus hub family is valid");
    let adversarial = hub_adversarial_assignment(&hub).expect("hub adversary applies");
    adversarial.apply(&mut hub).expect("assignment applies");
    let hub = hub.freeze();

    let mut grid = Topology::Grid.build(64).expect("corpus grid is valid");
    IdAssignment::Shuffled { seed: 17 }.apply(&mut grid).expect("shuffle applies");
    let grid = grid.freeze();

    let ring_radii = radii_of(&ring, &LargestId);
    let hub_radii = radii_of(&hub, &LargestId);
    let grid_radii = radii_of(&grid, &KnowTheLeader);

    let mut cases = Vec::new();
    for plan in [
        SamplePlan::Uniform { budget: 12 },
        SamplePlan::EdgeEndpoint { budget: 12 },
        SamplePlan::StratifiedByDegree { budget: 12 },
    ] {
        cases.push(Case {
            name: format!("ring96_largest_id_{}_b7", plan.key()),
            csr: ring.clone(),
            radii: ring_radii.clone(),
            plan,
            base_seed: 7,
        });
        cases.push(Case {
            name: format!("hub96_largest_id_{}_b7", plan.key()),
            csr: hub.clone(),
            radii: hub_radii.clone(),
            plan,
            base_seed: 7,
        });
    }
    cases.push(Case {
        name: format!("grid64_know_the_leader_{}_b7", SamplePlan::Uniform { budget: 8 }.key()),
        csr: grid.clone(),
        radii: grid_radii.clone(),
        plan: SamplePlan::Uniform { budget: 8 },
        base_seed: 7,
    });
    cases.push(Case {
        name: format!("ring96_largest_id_{}_census_b7", SamplePlan::Uniform { budget: 96 }.key()),
        csr: ring,
        radii: ring_radii,
        plan: SamplePlan::Uniform { budget: 96 },
        base_seed: 7,
    });
    cases
}

fn push_f64(out: &mut String, key: &str, value: f64) {
    writeln!(out, "{key} {:#018x} ~{value}", value.to_bits()).expect("writes to String succeed");
}

fn push_estimate(out: &mut String, key: &str, estimate: Option<Estimate>) {
    if let Some(estimate) = estimate {
        push_f64(out, key, estimate.value);
        push_f64(out, &format!("{key}_half_width_95"), estimate.half_width_95);
    }
}

/// Renders the draw and the full estimate of one case as the golden text.
fn render(case: &Case) -> String {
    let seed = case.plan.seed_for(case.base_seed, 0);
    let sample = case.plan.draw(&case.csr, seed);
    let measures = sample.estimate_against(&case.radii);

    let mut out = String::new();
    writeln!(out, "# golden sampling estimate for {}", case.name).expect("writes succeed");
    writeln!(out, "# regenerate: cargo test -p avglocal-integration-tests --test sampling_corpus -- --ignored regenerate")
        .expect("writes succeed");
    writeln!(out, "plan {}", case.plan.key()).expect("writes succeed");
    writeln!(out, "stream_seed {seed:#018x}").expect("writes succeed");
    writeln!(out, "census {}", measures.census).expect("writes succeed");
    writeln!(out, "probes {}", measures.probes).expect("writes succeed");
    let nodes: Vec<String> = sample.nodes().iter().map(|v| v.index().to_string()).collect();
    writeln!(out, "nodes {}", nodes.join(",")).expect("writes succeed");
    push_estimate(&mut out, "node_averaged", measures.node_averaged);
    push_estimate(&mut out, "edge_averaged", measures.edge_averaged);
    push_estimate(&mut out, "edge_averaged_mean", measures.edge_averaged_mean);
    if let Some(median) = measures.median() {
        push_f64(&mut out, "median", median);
    }
    for per_mille in [100u16, 900] {
        if let Some(quantile) = measures.quantile(per_mille) {
            push_f64(&mut out, &format!("quantile_{per_mille}"), quantile);
        }
    }
    out
}

#[test]
fn sampling_corpus_replays_bit_identically() {
    let dir = corpus_dir();
    let mut replayed = 0usize;
    for case in cases() {
        let path = dir.join(format!("{}.golden", case.name));
        let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "golden file {} missing ({e}); run the #[ignore]d regenerate test",
                path.display()
            )
        });
        assert_eq!(
            render(&case),
            golden,
            "{}: sampling estimate drifted from the golden file",
            case.name
        );
        replayed += 1;
    }
    // The case list and the directory must stay in sync in both directions:
    // a stale golden file for a removed case is as misleading as a missing one.
    let on_disk = fs::read_dir(&dir)
        .expect("sampling corpus directory exists")
        .filter(|entry| {
            entry
                .as_ref()
                .expect("corpus directory is readable")
                .path()
                .extension()
                .is_some_and(|ext| ext == "golden")
        })
        .count();
    assert_eq!(replayed, on_disk, "golden files on disk do not match the committed case list");
    assert!(replayed >= 8, "the corpus matrix shrank below the committed minimum");
}

/// Rewrites every golden file from today's code. `#[ignore]`d: only run
/// after a deliberate estimator change, and review the diffs.
#[test]
#[ignore = "regenerates the golden corpus; run explicitly after deliberate estimator changes"]
fn regenerate() {
    let dir = corpus_dir();
    fs::create_dir_all(&dir).expect("corpus directory is creatable");
    for case in cases() {
        let path = dir.join(format!("{}.golden", case.name));
        fs::write(&path, render(&case)).expect("golden files are writable");
    }
}
