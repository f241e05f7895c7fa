#!/usr/bin/env bash
# Builds and runs the benchmark. See benchmark/README.md.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                    [--traced] [--repeat K] [--quick]
#
# Builds the release `simserved` of the root workspace and the harness in
# this directory (offline: every dependency is a path crate), then hands
# its arguments to the harness. Exits non-zero when a build fails, an
# output check fails, or `--repeat` finds a metric outside its bound.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"

# One target directory per workspace unless the caller names a shared one,
# which has to be absolute before cargo runs from two directories.
if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
    [[ "$CARGO_TARGET_DIR" = /* ]] || CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
    export CARGO_TARGET_DIR
    root_target="$CARGO_TARGET_DIR"
    bench_target="$CARGO_TARGET_DIR"
else
    root_target="$root/target"
    bench_target="$bench/target"
fi

# Build chatter goes to stderr: stdout ends with the result object.
(cd "$root" && cargo build --release --offline --quiet -p mpsoc-server --bin simserved) >&2
(cd "$bench" && cargo build --release --offline --quiet) >&2

# Every simserved the harness starts lives in its own directory under this
# one, with its pid beside it. The harness stops its servers itself; this
# trap is for the exits it cannot handle (a signal, an abort).
export MPSOC_BENCH_SCRATCH="$bench/out/run.$$"
export MPSOC_SIMSERVED="$root_target/release/simserved"
cleanup() {
    local pidfile
    for pidfile in "$MPSOC_BENCH_SCRATCH"/*/pid; do
        [[ -f "$pidfile" ]] && kill "$(cat "$pidfile")" 2>/dev/null || true
    done
    rm -rf "$MPSOC_BENCH_SCRATCH"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM
mkdir -p "$MPSOC_BENCH_SCRATCH"

# Not exec'd, and waited for in the background, so the traps run.
"$bench_target/release/mpsoc-benchmark" "$@" &
wait $!
