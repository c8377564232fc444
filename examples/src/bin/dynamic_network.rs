//! Dynamic networks: the paper's first motivating application.
//!
//! "The average time to update the labels of the graph after a change at a
//! random node can be estimated using the average measure." This example
//! makes that concrete: for each algorithm we compute the expected number of
//! nodes whose output must be recomputed when a uniformly random node's input
//! changes — a node `v` is affected iff the changed node lies inside `v`'s
//! radius-`r(v)` ball.
//!
//! Run with: `cargo run -p avglocal-examples --bin dynamic_network`

#![forbid(unsafe_code)]

use avglocal::prelude::*;

fn main() -> Result<(), avglocal::CoreError> {
    println!("Expected number of outputs invalidated by a change at a random node\n");
    let mut table = Table::new(
        "dynamic update cost (random identifiers, seed 7)",
        &["n", "largest ID", "3-colouring", "landmark colouring", "know the leader"],
    );

    for n in [64usize, 256, 1024, 4096] {
        let assignment = IdAssignment::Shuffled { seed: 7 };
        let mut cells = vec![n.to_string()];
        for problem in [Problem::LargestId, Problem::ThreeColoring, Problem::LandmarkColoring] {
            let profile = run_on_topology(problem, &Topology::Cycle, n, &assignment)?;
            cells.push(format!("{:.1}", expected_invalidated_nodes(&profile)));
        }
        // The know-the-leader baseline pays the saturation radius at every
        // node (quadratic simulation cost), so it is only simulated on the
        // smaller rings; on larger ones the answer is simply n.
        if n <= 256 {
            let profile =
                run_on_topology(Problem::KnowTheLeader, &Topology::Cycle, n, &assignment)?;
            cells.push(format!("{:.1}", expected_invalidated_nodes(&profile)));
        } else {
            cells.push(format!("{n}.0 (= n)"));
        }
        table.push_row(cells);
    }

    println!("{table}");
    println!(
        "Reading: algorithms with a small average radius (largest ID, colouring) localise\n\
         updates to a few nodes, while 'know the leader' invalidates the whole ring — the\n\
         update cost follows the paper's average measure, not the worst case."
    );
    Ok(())
}
