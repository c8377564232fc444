//! # avglocal-bench
//!
//! Benchmark harness for the `avglocal` reproduction of
//! *"Brief Announcement: Average Complexity for the LOCAL Model"*.
//!
//! The paper is a theory brief announcement with no tables or figures, so the
//! "evaluation" reproduced here is the set of quantitative claims E1–E9
//! defined in `EXPERIMENTS.md`:
//!
//! | Experiment | Claim | Table |
//! |---|---|---|
//! | E1 | largest-ID: worst case Θ(n) vs average Θ(log n) | `bin/experiments.rs --e1` |
//! | E2 | the recurrence `a(n)` = A000788 = Θ(n log n) | `bin/experiments.rs --e2` |
//! | E3 | Cole–Vishkin 3-colouring: O(log* n) everywhere | `bin/experiments.rs --e3` |
//! | E4 | Theorem 1: average colouring radius Ω(log* n) | `bin/experiments.rs --e4` |
//! | E5 | random identifiers (Section 4 further work) | `bin/experiments.rs --e5` |
//! | E6 | motivating applications (Section 1) | `bin/experiments.rs --e6` |
//! | E7 | node-averaged complexity beyond the ring (BGKO line) | `bin/experiments.rs --e7` |
//! | E8 | node- vs edge-averaged vs worst-case measures | `bin/experiments.rs --e8` |
//! | E9 | hub-weighted families: edge/node detachment while connected | `bin/experiments.rs --e9` |
//! | — | radius-query service under sustained load (qps, p99, overhead) | `service` block of `bin/bench_e1.rs` |
//!
//! The `experiments` binary prints the result tables (who wins, by how
//! much); `bin/bench_e1.rs` (run through `bench.sh`) records the
//! simulator's wall time in `BENCH_e1.json` and gates its regressions:
//!
//! ```text
//! cargo run --release -p avglocal-bench --bin experiments            # all tables
//! cargo run --release -p avglocal-bench --bin experiments -- --e1    # one table
//! ./bench.sh --quick                                                 # perf gates
//! ```

pub mod load;
pub mod tables;

pub use tables::{
    all_tables, figure_f1, figure_f2, figure_f3, figure_f4, figure_f5, table_e1, table_e2,
    table_e3, table_e4, table_e5, table_e6, table_e7, table_e8, table_e9,
};
