#!/usr/bin/env bash
# Compile cost of the C facade (`graphblas-capi`): with its dependencies
# already built, touch crates/capi/src/lib.rs and time a release rebuild
# and a non-incremental (CARGO_INCREMENTAL=0) debug rebuild of the crate
# alone, three times each, and print the median with the min–max range
# (one rebuild on a shared machine can read 25 % off); then count the
# code symbols the release rlib defines, the copies
# of the core's `op::apply::apply_matrix` and `op::mxm::mxm` it
# instantiates, the copies of the Figure 2 write stage (`op::Fig2::submit`)
# they go through, and the most copies of any one core operation.
#
# The raw symbol count follows codegen-unit partitioning: an unchanged
# inline function gets one out-of-line copy per unit that calls it, so
# moving code between units moves the count. The deduplicated count
# (`sort -u`) counts each distinct name once and moves only with the
# instantiations themselves.
#
# A timing, so it is not part of check.sh. To compare two trees, run it
# in each, alternating, on the same otherwise idle machine:
#
#     scripts/build_cost.sh
set -euo pipefail
cd "$(dirname "$0")/.."

build() { cargo build --offline --quiet -p graphblas-capi "$@"; }

# Seconds taken by one rebuild of the facade after touching its root.
timed() {
    touch crates/capi/src/lib.rs
    local t0=$EPOCHREALTIME
    "$@"
    awk -v a="$t0" -v b="$EPOCHREALTIME" 'BEGIN { printf "%.1f\n", b - a }'
}

# `timed` three times: "median (min–max)".
timed3() {
    local runs
    runs=$(for _ in 1 2 3; do timed "$@"; done | sort -n | tr '\n' ' ')
    awk -v r="$runs" 'BEGIN { split(r, t, " "); printf "%s (%s–%s)\n", t[2], t[1], t[3] }'
}

# Build everything the facade depends on, so only the facade is timed.
build --release
CARGO_INCREMENTAL=0 build

release_s=$(timed3 build --release)
debug_s=$(CARGO_INCREMENTAL=0 timed3 build)

# Demangled names of the functions the release rlib defines, hashes
# stripped, so each line is one instantiation.
symbols=$(nm --defined-only --demangle target/release/libgraphblas_capi.rlib 2>/dev/null |
    awk '$2 ~ /^[tTwW]$/ { $1 = ""; $2 = ""; sub(/^  /, ""); sub(/::h[0-9a-f]{16}$/, ""); print }')
count() { grep -cE "$1" <<<"$symbols" || true; }

echo "capi release build s:        $release_s"
echo "capi debug build s:          $debug_s"
echo "rlib code symbols:           $(wc -l <<<"$symbols")"
echo "rlib distinct code symbols:  $(sort -u <<<"$symbols" | wc -l)"
echo "op::apply::apply_matrix:     $(count 'op::apply::<impl [^>]*>::apply_matrix$')"
echo "op::mxm::mxm:                $(count 'op::mxm::<impl [^>]*>::mxm$')"
echo "op::Fig2::submit:            $(count 'op::Fig2<[^>]*>::submit$')"
echo "most copies of a core op:    $(grep -E '^graphblas_core::op::[a-z_]+::<impl [^>]*>::[a-z_]+$' <<<"$symbols" |
    sort | uniq -c | sort -rn | head -1 | sed -E 's/^ *([0-9]+) .*>::/\1 /')"
