#!/usr/bin/env bash
# Tier-1 verification: fmt, clippy, the release builds (workspace,
# server, examples, grb-bench), the self-checking examples, grb-bench's
# harness tests, the workspace tests, release-mode core unit tests, the
# thread matrix (its degree-1 run covers the serial kernels), rustdoc,
# and EXPERIMENTS.md's generated appendix.
# Performance is measured by `grb-bench all`, not here.
set -euo pipefail
cd "$(dirname "$0")/.."

# `step "<name>"` prints a step's `== <name>` header and closes the step
# before it with that step's wall time (bash's $SECONDS), so the time of
# each step of the gate reads from one log.
step_name=
step_start=$SECONDS
step() {
    if [[ -n $step_name ]]; then
        echo "-- $((SECONDS - step_start)) s: $step_name"
    fi
    step_name=$1
    step_start=$SECONDS
    echo "== $1"
}

step "cargo fmt --check"
cargo fmt --check

# The appendix is generated from the committed BENCH_*.json records; a
# new record without a refreshed appendix fails here.
step "EXPERIMENTS.md appendix matches scripts/bench_tables.sh"
if ! diff <(sed -n '/<!-- BEGIN BENCH TABLE -->/,/<!-- END BENCH TABLE -->/p' EXPERIMENTS.md | sed '1d;$d') \
    <(scripts/bench_tables.sh); then
    echo "EXPERIMENTS.md's appendix is stale: regenerate it (see scripts/bench_tables.sh)" >&2
    exit 1
fi

step "cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo build --release"
cargo build --release

step "cargo build --release -p server"
cargo build --release -p server

step "cargo build --examples"
cargo build --examples

# The SSSP example checks min-plus Bellman-Ford against Dijkstra and
# asserts a distance error below 1e-9, so running it is a test.
step "cargo run --release --example sssp"
cargo run --release --example sssp

# The betweenness example runs Fig. 3's BC_update end to end, the write
# stage's in-place accumulate (line 74) included, and asserts every score
# within 1e-3 relative (absolute below 1) of queue-based Brandes.
step "cargo run --release --example betweenness"
cargo run --release --example betweenness

# The user-type examples assert their results too: complex PLUS_TIMES and
# tropical min-plus in udf_algebra, and sssp_parents' 16-byte
# (dist, parent) pair, the largest payload stored inline in a value.
# server_demo asserts its replies over TCP: the hop list, BFS levels
# before and after point updates, and the STATS tenant lines.
for example in udf_algebra sssp_parents server_demo; do
    step "cargo run --release --example $example"
    cargo run --release --example "$example"
done

# grb-bench is a package outside the workspace: build it here so a core
# rename it depends on fails the gate, not the benchmark pipeline.
step "cargo build --release --offline --manifest-path grb-bench/Cargo.toml"
cargo build --release --offline --manifest-path grb-bench/Cargo.toml

# Its harness tests run every workload --quick with its output checks, so
# a kernel change that breaks a workload's answers fails here too.
step "cargo test --release --offline --manifest-path grb-bench/Cargo.toml"
cargo test --release --offline --manifest-path grb-bench/Cargo.toml

step "cargo test -q (workspace)"
cargo test -q --workspace

# Core unit tests at release speed: the pool, the wait()/nvals race and
# cost-model tests see optimised kernels here, where timing-sensitive
# properties differ from debug.
step "cargo test --release -q -p graphblas-core --lib"
cargo test --release -q -p graphblas-core --lib

# Thread matrix: the determinism suites at 1, 2 and 8 workers (the
# suite list lives in scripts/thread_matrix.sh, which CI runs too).
for threads in 1 2 8; do
    step "scripts/thread_matrix.sh $threads"
    scripts/thread_matrix.sh "$threads"
done

# The race-sensitive suites, 50 runs each at 2 workers.
step "scripts/repeat_races.sh"
scripts/repeat_races.sh

step "cargo doc --workspace --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

step "OK"
echo "-- $SECONDS s: the whole gate"
