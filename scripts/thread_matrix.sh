#!/usr/bin/env bash
# The thread matrix at one degree: the pool width and default degree
# follow GRB_TEST_THREADS, and the determinism suites (serial-vs-parallel,
# blocking-vs-nonblocking modes, deferred-vs-eager pending updates,
# MVCC snapshot isolation, push/pull/dense SpMSpV direction
# equivalence, tiled-vs-slab bitwise equivalence, the Figure 2 oracle
# — whose forced chunking checks the row emitter's concatenation — the
# algorithms against their reference baselines, the C facade against the
# typed core and its error model, and the query service's
# admission/fairness/write-isolation properties and its survival of
# hostile wire traffic) must hold at every count.
#
# Usage: scripts/thread_matrix.sh <threads>   (check.sh and CI run 1, 2, 8)
set -euo pipefail
cd "$(dirname "$0")/.."

threads=${1:?usage: scripts/thread_matrix.sh <threads>}
export GRB_TEST_THREADS="$threads"

core=(par_determinism modes_equivalence delta_equivalence snapshot_isolation
    direction_equivalence tiled_equivalence udf_equivalence fig2_oracle
    algorithms_cross_validation capi_vs_typed capi_error_model)
server=(admission write_during_bfs wire_fuzz)

run() {
    echo "== GRB_TEST_THREADS=$threads cargo test -q $*"
    cargo test -q "$@"
}

run ${core[@]/#/--test }
run -p server ${server[@]/#/--test }
