//! The colouring algorithms side by side, with full verification.
//!
//! Runs the Cole–Vishkin pipeline, the landmark 4-colouring and the
//! full-information baseline on the same rings, verifies every output, and
//! prints the radius profiles — the upper-bound side of the paper's
//! Section 3.
//!
//! Run with: `cargo run -p avglocal-examples --bin coloring_pipeline`

#![forbid(unsafe_code)]

use avglocal::algorithms::{landmarks, run_three_coloring, verify};
use avglocal::prelude::*;
use avglocal_examples::print_profile;

fn main() -> Result<(), avglocal::CoreError> {
    for n in [64usize, 1024, 16384] {
        let assignment = IdAssignment::Shuffled { seed: 3 };
        println!("== ring of {n} nodes ==");
        let graph = topology_with_assignment(&Topology::Cycle, n, &assignment)?;

        // Cole–Vishkin: constant radius, 3 colours.
        let (colors, rounds) = run_three_coloring(&graph)?;
        assert!(verify::is_proper_coloring(&graph, &colors, 3));
        print_profile("Cole-Vishkin (3 colours)", &RadiusProfile::new(rounds));

        // Landmark colouring: variable radius, 4 colours.
        let landmark =
            run_on_topology(Problem::LandmarkColoring, &Topology::Cycle, n, &assignment)?;
        print_profile("landmark (4 colours)", &landmark);

        // Full-information baseline: 3 colours, linear radius. Its simulation
        // cost is quadratic in n, so it is only run on the smaller rings.
        if n <= 256 {
            let baseline =
                run_on_topology(Problem::FullInfoColoring, &Topology::Cycle, n, &assignment)?;
            print_profile("full information (3 col.)", &baseline);
        }

        println!(
            "landmark count: {} of {} nodes are local maxima; log*(n) = {}\n",
            landmarks(&graph).len(),
            n,
            theory::log_star_of(n)
        );
    }
    println!(
        "Reading: Cole-Vishkin keeps every node at a constant radius (the log* upper bound);\n\
         the landmark colouring is cheap on average but has a long tail; the full-information\n\
         baseline pays n/2 everywhere. Theorem 1 says no 3-colouring algorithm can push the\n\
         average below Ω(log* n)."
    );
    Ok(())
}
