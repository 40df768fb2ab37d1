#!/usr/bin/env bash
# The race-sensitive suites, repeated: a writer, the background flusher
# and snapshot or BFS readers interleave differently on every run, so one
# green run says little. Runs the already-built `snapshot_isolation` and
# server `write_during_bfs` test binaries <runs> times each (default 50)
# at GRB_TEST_THREADS=2, and stops at the first failure.
#
# Usage: scripts/repeat_races.sh [runs]   (check.sh and CI run it after
# the thread matrix, which builds both binaries)
set -euo pipefail
cd "$(dirname "$0")/.."

runs=${1:-50}
export GRB_TEST_THREADS=2

# The path of one suite's test binary; cargo only rebuilds if stale.
binary() {
    cargo test "$@" --no-run 2>&1 | sed -n 's/^ *Executable .*(\(.*\))$/\1/p'
}

for suite in "--test snapshot_isolation" "-p server --test write_during_bfs"; do
    # shellcheck disable=SC2086 # the suite is several cargo arguments
    bin=$(binary $suite)
    [[ -x "$bin" ]] || { echo "no test binary for: $suite" >&2; exit 1; }
    echo "== GRB_TEST_THREADS=2 $bin, $runs runs"
    for ((i = 1; i <= runs; i++)); do
        out=$("$bin" -q 2>&1) || { echo "run $i of $suite failed:"; echo "$out"; exit 1; }
    done
done
