//! The avglocal benchmark binary: one process runs one workload and prints
//! one JSON line of metrics, work counts and oracle verdicts.
//!
//! ```text
//! perfbench --workload <exact_ring|sampled_grid|service_mixed> --seed <n>
//!           --seconds <s> --trace <0|1> --work-dir <dir> [--baseline]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded.
//! `--trace 1` replays each user path stage by stage through the public
//! API, recording spans around every call, and reports per-layer metrics.
//! `--baseline` (sweeps only, traced) runs just the stage replay; it is
//! meant for a second process started with `AVG_LOCAL_THREADS=1`, whose
//! probe time is the single-threaded baseline of `runtime.scaling`.
//! `perfbench/run.py` drives this binary and formats the final result.

mod oracle;
mod service;
mod stats;
mod sweeps;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub baseline: bool,
    pub work_dir: PathBuf,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut baseline = false;
        let mut work_dir = None;
        while let Some(flag) = argv.next() {
            if flag == "--baseline" {
                baseline = true;
                continue;
            }
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
                "--work-dir" => work_dir = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            baseline,
            work_dir: work_dir.ok_or("--work-dir is required")?,
        })
    }
}

/// What one process reports: operation tallies, oracle failures, metrics
/// and the deterministic work counts.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl Report {
    /// Records one checked outcome; a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"failures\":[",
            self.failures.is_empty() && self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, failure) in self.failures.iter().enumerate() {
            let escaped = failure.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', " ");
            let _ = write!(out, "{}\"{escaped}\"", if i > 0 { "," } else { "" });
        }
        out.push_str("],\"metrics\":{");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(out, "{}\"{name}\":{value:e}", if i > 0 { "," } else { "" });
        }
        out.push_str("},\"counts\":{");
        for (i, (name, value)) in self.counts.iter().enumerate() {
            let _ = write!(out, "{}\"{name}\":{value}", if i > 0 { "," } else { "" });
        }
        out.push_str("}}");
        out
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "exact_ring" => sweeps::run(&sweeps::SweepSpec::exact_ring(), &args),
        "sampled_grid" => sweeps::run(&sweeps::SweepSpec::sampled_grid(), &args),
        "service_mixed" => service::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    report.metric("peak_rss_mb", stats::peak_rss_mb());
    println!("{}", report.to_json());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        for failure in &report.failures {
            eprintln!("perfbench: oracle mismatch: {failure}");
        }
        ExitCode::from(1)
    }
}
