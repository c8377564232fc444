#!/usr/bin/env sh
# Perf trajectory for the radius engine: runs bench_e1, which prints every
# block, evaluates the regression gates and refreshes BENCH_e1.json in the
# repository root. The blocks, gates and exit codes are described in the
# module docs of crates/bench/src/bin/bench_e1.rs.
#
# Usage: ./bench.sh [--quick]
# Pin the pool for reproducible timings: AVG_LOCAL_THREADS=4 ./bench.sh
set -eu
cd "$(dirname "$0")"
cargo run --release -p avglocal-bench --bin bench_e1 -- "$@"
