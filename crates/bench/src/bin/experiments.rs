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
//!
//! Any other argument prints a usage line and exits with status 2.

use std::env;
use std::process::ExitCode;

use avglocal_bench::tables;

/// Parses the arguments into `(quick, csv, selected experiments)`, where no
/// selection means all of them. Returns `None` when an argument is not
/// `--quick`, `--csv` or `--e1` to `--e9`.
fn parse_args<S: AsRef<str>>(args: &[S]) -> Option<(bool, bool, Vec<usize>)> {
    let (mut quick, mut csv, mut selected) = (false, false, Vec::new());
    for arg in args {
        match arg.as_ref() {
            "--quick" => quick = true,
            "--csv" => csv = true,
            other => selected.push((1..=9).find(|i| other == format!("--e{i}"))?),
        }
    }
    Some((quick, csv, selected))
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some((quick, csv, selected)) = parse_args(&args) else {
        eprintln!("usage: experiments [--quick] [--csv] [--e1 ... --e9]");
        return ExitCode::from(2);
    };
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
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_args_accepts_only_the_documented_flags() {
        assert_eq!(parse_args::<&str>(&[]), Some((false, false, vec![])));
        assert_eq!(
            parse_args(&["--e9", "--quick", "--csv", "--e3"]),
            Some((true, true, vec![9, 3]))
        );
        for bad in ["--quik", "--e10", "--e0", "--e01", "--e+1", "--help", "e1", ""] {
            assert_eq!(parse_args(&["--quick", bad]), None, "{bad:?} must be rejected");
        }
    }
}
