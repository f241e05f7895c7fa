#!/usr/bin/env bash
# Continuous-integration gate for the workspace.
#
#   ./ci.sh            # every stage, in order
#   ./ci.sh lint       # rustfmt, clippy (warnings are errors), rustdoc
#   ./ci.sh test       # tier-1 release build + workspace tests + smoke runs
#   ./ci.sh gates      # fast-forward floor and server gates
#   ./ci.sh scaling    # parallel-ticking scaling ladder (kernel_hotpath)
#   ./ci.sh bench      # bench guard vs the committed perf ledger
#
# The five stages are independent — .github/workflows/ci.yml runs them as
# parallel jobs — and any single stage can be run standalone on a fresh
# checkout.
#
# What is *not* here: "sparse = dense", "serial = parallel", "quantum 1 =
# cycle", "quantum 16 = its dense twin" and "twice the same" are not
# checked by diffing two repro runs any more. An execution mode is a value
# (mpsoc_kernel::ExecMode), so `cargo test` holds them: tests/
# mode_equivalence.rs compares the printed tables mode against mode, and
# crates/bench/tests/mode_reach.rs counts that a mode reaches every
# simulation of every experiment. Both run in the test stage. Likewise
# "the checkpoint-forked fig4 sweep = the prefix-replaying one" (fig4.rs
# holds the forked sweep, the only driver, to a cold reference) and "a dse
# search interrupted and resumed = an uninterrupted one"
# (crates/dse/tests/proptest_dse.rs; the --dse-* flag wiring is a parse_args
# unit test in repro.rs).
#
# Stage contents:
#   lint   rustfmt --check, clippy -D warnings, rustdoc -D warnings
#   test   release build of the workspace, the full test suite (the mode
#          tests above among them), one small end-to-end reproduction
#          through the repro binary, the CLI-wiring smoke (a full
#          `repro --dense` run must report 0 skipped ticks), the example
#          walkthroughs (quickstart, trace replay), and the benchmark
#          harness in quick mode (every workload's output checks; fails
#          when a change breaks the API surface the harness compiles
#          against — see benchmark/README.md) plus the harness's own tests
#          (the quick workloads against benchmark/expected.json)
#   gates  fast-forward floor: a live --fast-warm run must clear the repro
#            binary's warm-phase speedup floor with an identical q=1 sweep
#          server: simserved + a duplicate-heavy loadgen mix must see warm-
#            cache hits and serve a FIG-4 table byte-identical to the
#            one-shot `repro --exp fig4` run; a relaunched server on the
#            same --cache-dir must answer its first request from the disk
#            spill and serve the same table
#   scaling compute-heavy ladder: kernel_hotpath times the compute-heavy
#            case over jobs {1,2,4,8}, asserting byte-identity to the
#            serial run at every rung, and holds what it measured to the
#            sparse and parallel rows of the ledger floor table
#   bench  scheduler throughput vs the committed perf ledger and every row
#          of the floor table (ledger::FLOORS)
set -euo pipefail
cd "$(dirname "$0")"

run_dir="$(mktemp -d)"
server_pid=""
cleanup() {
    if [ -n "$server_pid" ]; then
        kill "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$run_dir"
}
trap cleanup EXIT

# Just the FIG-4 table: the header line and the right-aligned data rows.
table_only() { grep -E '^(FIG-4| )' "$1"; }

stage_lint() {
    echo "== rustfmt (--check) =="
    cargo fmt --all -- --check

    echo "== clippy (workspace, all targets, -D warnings) =="
    cargo clippy --workspace --all-targets -- -D warnings

    echo "== rustdoc (workspace, no deps) =="
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
}

stage_test() {
    echo "== tier-1: build =="
    # --workspace matters: the root manifest is both a workspace and the
    # mpsoc-suite package, so a bare `cargo build` would skip mpsoc-bench.
    cargo build --release --workspace

    echo "== tier-1: tests (workspace) =="
    cargo test --workspace -q

    echo "== smoke: repro --exp robustness --scale 1 =="
    cargo run --release -p mpsoc-bench --bin repro -- \
        --exp robustness --scale 1 --no-bench-out

    echo "== CLI wiring: repro --dense reaches every simulation (0 skipped) =="
    # The one thing the in-process mode tests cannot see: that the flags
    # land in the ExecMode repro hands every experiment.
    cargo run --release -p mpsoc-bench --bin repro -- \
        --scale 1 --dense --no-bench-out | grep -E '^total: .* \(0 skipped\)'

    echo "== example smoke: build all, run quickstart + trace_replay =="
    cargo build --release --examples
    cargo run --release --example quickstart
    cargo run --release --example trace_replay

    echo "== benchmark harness: every workload, quick mode, output checks =="
    # About a second plus the build, and no timing worth reading: this is
    # here for the checks and for the harness's compile contract with
    # mpsoc_server and mpsoc_platform.
    benchmark/run.sh --quick

    echo "== benchmark harness: its own tests (quick workloads vs expected.json) =="
    # The harness's unit tests run every workload in quick mode against
    # the digests committed in benchmark/expected.json, so a drift in
    # modelled behaviour fails here, not in a 15-second benchmark run.
    (cd benchmark && cargo test --offline)
}

gate_fast_forward() {
    echo "== fast-forward floor: live --fast-warm speedup and q=1 identity =="
    # Runs the EXT-FAST study live (cycle-gear warm phase vs every quantum),
    # records it in a throwaway ledger and enforces the repro binary's
    # fast-forward floors on the measurement just taken: q=1 byte-identical
    # and the default quantum clearing its ledger::FLOORS speedup row.
    cargo run --release -p mpsoc-bench --bin repro -- \
        --fast-warm --bench-out "$run_dir/fastwarm.json" \
        --check-bench "$run_dir/fastwarm.json" > "$run_dir/fastwarm.txt"
    grep '\[check fast-forward' "$run_dir/fastwarm.txt"
    echo "fast-forward floor gate passed"
}

gate_server() {
    echo "== server gate: simserved + duplicate-heavy loadgen vs one-shot fig4 =="
    # End to end over a real socket: an ephemeral-port server, a seeded
    # duplicate-heavy request mix that must see warm-cache hits, and the
    # served FIG-4 table diffed byte for byte against the one-shot repro
    # run. loadgen itself asserts that duplicate responses agree.
    cargo build --release -p mpsoc-server
    local addr_file="$run_dir/simserved.addr"
    local cache_dir="$run_dir/warm-spills"
    target/release/simserved --port-file "$addr_file" --cache-capacity 4 \
        --cache-dir "$cache_dir" &
    server_pid=$!
    for _ in $(seq 1 100); do
        [ -s "$addr_file" ] && break
        sleep 0.1
    done
    if [ ! -s "$addr_file" ]; then
        echo "server gate FAILED: simserved never wrote its address" >&2
        exit 1
    fi
    target/release/loadgen --addr-file "$addr_file" \
        --requests 24 --connections 2 --scale 1 \
        --table --require-hits --shutdown --no-bench-out \
        > "$run_dir/served_table.txt"
    wait "$server_pid"
    server_pid=""
    cargo run --release -p mpsoc-bench --bin repro -- \
        --exp fig4 --scale 1 --no-bench-out > "$run_dir/fig4_oneshot.txt"
    if ! diff <(table_only "$run_dir/fig4_oneshot.txt") "$run_dir/served_table.txt"; then
        echo "server gate FAILED: served table differs from the one-shot sweep" >&2
        exit 1
    fi
    echo "server gate passed"

    echo "== server restart gate: relaunch on the warm spill directory =="
    # The persistence contract: a fresh process pointed at the same
    # --cache-dir must answer its *first* request from the disk spill (a
    # warm-cache hit, no warm-up) and serve the same table byte for byte.
    rm -f "$addr_file"
    target/release/simserved --port-file "$addr_file" --cache-capacity 4 \
        --cache-dir "$cache_dir" &
    server_pid=$!
    for _ in $(seq 1 100); do
        [ -s "$addr_file" ] && break
        sleep 0.1
    done
    if [ ! -s "$addr_file" ]; then
        echo "server restart gate FAILED: simserved never wrote its address" >&2
        exit 1
    fi
    target/release/loadgen --addr-file "$addr_file" \
        --requests 24 --connections 2 --scale 1 \
        --table --require-first-hit --shutdown --no-bench-out \
        > "$run_dir/served_table_restart.txt"
    wait "$server_pid"
    server_pid=""
    if ! diff "$run_dir/served_table.txt" "$run_dir/served_table_restart.txt"; then
        echo "server restart gate FAILED: restarted server served a different table" >&2
        exit 1
    fi
    echo "server restart gate passed"
}

stage_gates() {
    gate_fast_forward
    gate_server
}

stage_scaling() {
    echo "== scaling: compute-heavy jobs ladder {1,2,4,8} =="
    # kernel_hotpath times the compute-heavy case at every rung of the
    # ladder and asserts edge counts, stats reports and state digests
    # byte-identical to the serial run, plus the <1% retick ceiling. The
    # bench gates itself against the sparse and parallel floor rows using
    # the host_cores it records: the 4-job row arms on >= 4 cores, the
    # 8-job row only on >= 8, which no CI runner has.
    cargo bench -p mpsoc-bench --bench kernel_hotpath
}

stage_bench() {
    echo "== bench guard: throughput + ledger floors vs committed ledger =="
    cargo run --release -p mpsoc-bench --bin repro -- \
        --scale 1 --no-bench-out --check-bench BENCH_kernel.json
}

stage="${1:-all}"
case "$stage" in
    lint) stage_lint ;;
    test) stage_test ;;
    gates) stage_gates ;;
    scaling) stage_scaling ;;
    bench) stage_bench ;;
    all)
        stage_test
        stage_lint
        stage_gates
        stage_scaling
        stage_bench
        ;;
    *)
        echo "usage: ./ci.sh [lint|test|gates|scaling|bench]" >&2
        exit 2
        ;;
esac

echo "ci: stage '$stage' passed"
