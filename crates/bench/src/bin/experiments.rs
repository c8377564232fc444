//! Prints the result tables of experiments E1–E9 and figures F1–F5 (see `EXPERIMENTS.md`).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p avglocal-bench --bin experiments             # all experiments
//! cargo run --release -p avglocal-bench --bin experiments -- --e3    # only E3
//! cargo run --release -p avglocal-bench --bin experiments -- --e7    # cross-topology sweep
//! cargo run --release -p avglocal-bench --bin experiments -- --e8    # measure comparison
//! cargo run --release -p avglocal-bench --bin experiments -- --e9    # hub-weighted families
//! cargo run --release -p avglocal-bench --bin experiments -- --quick # reduced sizes
//! cargo run --release -p avglocal-bench --bin experiments -- --csv   # CSV output
//! ```

use std::env;

use avglocal_bench::tables;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv = args.iter().any(|a| a == "--csv");
    let selected: Vec<usize> =
        (1..=9).filter(|i| args.iter().any(|a| a == &format!("--e{i}"))).collect();
    let run_all = selected.is_empty();

    type TableBuilder = fn(bool) -> avglocal::report::Table;
    let builders: [(usize, TableBuilder); 9] = [
        (1, tables::table_e1),
        (2, tables::table_e2),
        (3, tables::table_e3),
        (4, tables::table_e4),
        (5, tables::table_e5),
        (6, tables::table_e6),
        (7, tables::table_e7),
        (8, tables::table_e8),
        (9, tables::table_e9),
    ];

    println!("avglocal experiment harness ({} sizes)\n", if quick { "quick" } else { "full" });
    for (id, build) in builders {
        if run_all || selected.contains(&id) {
            let table = build(quick);
            if csv {
                println!("# {}", table.title());
                println!("{}", table.to_csv());
            } else {
                println!("{table}");
            }
        }
    }

    // The figures accompany E1, E3, E7 and E8; skip them in CSV mode.
    if !csv {
        if run_all || selected.contains(&1) {
            println!("{}", avglocal_bench::figure_f1(quick));
        }
        if run_all || selected.contains(&3) {
            println!("{}", avglocal_bench::figure_f2(quick));
        }
        if run_all || selected.contains(&7) {
            println!("{}", avglocal_bench::figure_f3(quick));
        }
        if run_all || selected.contains(&8) {
            println!("{}", avglocal_bench::figure_f4(quick));
        }
        if run_all || selected.contains(&9) {
            println!("{}", avglocal_bench::figure_f5(quick));
        }
    }
}
