//! Parallel simulation: the paper's second motivating application.
//!
//! "In the context of parallel computations that simulate distributed
//! computations, we can take advantage of the fact that a job is finished
//! earlier to process another job, and then the average running time is the
//! relevant measure." Here every node's local computation is a job whose
//! duration is its radius `r(v)`; the jobs are list-scheduled on a fixed pool
//! of workers and the resulting makespan is compared across algorithms.
//!
//! Run with: `cargo run -p avglocal-examples --bin parallel_scheduler`

#![forbid(unsafe_code)]

use avglocal::prelude::*;

fn main() -> Result<(), avglocal::CoreError> {
    let n = 256;
    let workers = 16;
    let assignment = IdAssignment::Shuffled { seed: 99 };
    println!(
        "Simulating every node's local computation on {workers} workers (ring of {n} nodes)\n"
    );

    let mut table = Table::new(
        "parallel replay makespan",
        &["algorithm", "total work", "makespan", "lower bound", "avg radius", "max radius"],
    );

    for problem in [
        Problem::LargestId,
        Problem::FullInfoLargestId,
        Problem::ThreeColoring,
        Problem::LandmarkColoring,
        Problem::KnowTheLeader,
    ] {
        let profile = run_on_topology(problem, &Topology::Cycle, n, &assignment)?;
        let outcome = schedule_radii(&profile, workers);
        table.push_row(vec![
            problem.to_string(),
            outcome.total_work.to_string(),
            outcome.makespan.to_string(),
            outcome.lower_bound.to_string(),
            format!("{:.2}", profile.average()),
            profile.max().to_string(),
        ]);
    }

    println!("{table}");
    println!(
        "Reading: the makespan tracks total work / workers ≈ n·(average radius)/{workers};\n\
         the ball-growing largest-ID algorithm and Cole-Vishkin finish long before the\n\
         full-information baselines even though their worst-case radii can be identical."
    );
    Ok(())
}
