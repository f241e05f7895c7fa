#!/usr/bin/env bash
# Continuous-integration gate for the workspace.
#
#   ./ci.sh            # every stage, in order
#   ./ci.sh lint       # rustfmt, clippy (warnings are errors), rustdoc
#   ./ci.sh test       # tier-1 release build + workspace tests + smoke runs
#   ./ci.sh bench      # the live perf floors: fast-forward and kernel_hotpath
#
# The three stages are independent — .github/workflows/ci.yml runs them as
# parallel jobs — and any single stage can be run standalone on a fresh
# checkout.
#
# A floor is judged where it is measured. The two live recorders in the
# bench stage judge the ledger rows of the section they have just
# measured; the committed BENCH_kernel.json is judged against every row by
# `cargo test` (ledger.rs, the_committed_ledger_misses_no_floor). Nothing
# here diffs two runs or compares a timing against the committed ledger:
#   - modes that must not change a table (dense, fast q1 / q16, twice the
#     same): tests/mode_equivalence.rs, and that each mode reaches every
#     simulation: crates/bench/tests/mode_reach.rs;
#   - the forked fig4 sweep = its cold reference: fig4.rs and
#     tests/mode_equivalence.rs; a resumed dse search = an uninterrupted
#     one: crates/dse/tests/proptest_dse.rs;
#   - the served FIG-4 table = the one-shot sweep, with warm-cache hits, and
#     a relaunched server replaying the mix from its spill directory:
#     crates/server/tests/server_e2e.rs;
#   - per-experiment throughput against the parent commit: the benchmark
#     (BENCHMARK.json), which alternates paired runs on one host.
#
# Stage contents:
#   lint   rustfmt --check, clippy -D warnings, rustdoc -D warnings; then
#          rustfmt --check and clippy -D warnings inside benchmark/ (a
#          package of its own, outside the workspace)
#   test   release build of the workspace, the full test suite (the tests
#          above among them), the whole scale-1 suite through the repro
#          binary with its `total:` edge / tick / skipped counts pinned (a
#          change that moves them updates the pin on purpose), the CLI-wiring
#          smoke (a full `repro --dense` run
#          must report 0 skipped ticks), the example walkthroughs
#          (quickstart, trace replay), and the benchmark harness in quick
#          mode (every workload's output checks, simserved's --port-file /
#          --cache-dir wiring; fails when a change breaks the API surface
#          the harness compiles against — see benchmark/README.md) plus the
#          harness's own tests (the quick workloads against
#          benchmark/expected.json)
#   bench  repro --fast-warm: the q=1 identity, the warm-phase speedup
#            floor and the default quantum's max-error ceiling (1 714 permille,
#            deterministic), a miss re-measured twice before it fails;
#          kernel_hotpath: the sparse floor, with sparse and dense asserted to
#            process the same edges and deliver the same payloads
set -euo pipefail
cd "$(dirname "$0")"

stage_lint() {
    echo "== rustfmt (--check) =="
    cargo fmt --all -- --check

    echo "== clippy (workspace, all targets, -D warnings) =="
    cargo clippy --workspace --all-targets -- -D warnings

    echo "== rustdoc (workspace, no deps) =="
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

    echo "== benchmark harness: rustfmt (--check), clippy (all targets, -D warnings) =="
    (cd benchmark && cargo fmt -- --check)
    (cd benchmark && cargo clippy --offline --all-targets -- -D warnings)
}

stage_test() {
    echo "== tier-1: build =="
    # --workspace matters: the root manifest is both a workspace and the
    # mpsoc-suite package, so a bare `cargo build` would skip mpsoc-bench.
    cargo build --release --workspace

    echo "== tier-1: tests (workspace) =="
    cargo test --workspace -q

    echo "== smoke: repro --scale 1, its total: counts pinned =="
    # Every experiment, robustness included, in about half a second. The
    # counts are a pure function of the code: a change that moves an edge,
    # tick or skipped count must move this pin with it.
    local pinned='total: 2713856 edges, 4881957 sim cycles (14320258 skipped) in '
    local out
    out=$(cargo run --release -p mpsoc-bench --bin repro -- --scale 1)
    echo "$out"
    if ! grep -qF "$pinned" <<<"$out"; then
        echo "repro --scale 1: no line starting '$pinned'" >&2
        exit 1
    fi

    echo "== CLI wiring: repro --dense reaches every simulation (0 skipped) =="
    # The one thing the in-process mode tests cannot see: that the flags
    # land in the ExecMode repro hands every experiment.
    cargo run --release -p mpsoc-bench --bin repro -- \
        --scale 1 --dense | grep -E '^total: .* \(0 skipped\)'

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

stage_bench() {
    echo "== fast-forward floors: live --fast-warm speedup, max error and q=1 identity =="
    cargo run --release -p mpsoc-bench --bin repro -- --fast-warm

    echo "== kernel_hotpath: bucketed vs naive, sparse floor =="
    cargo bench -p mpsoc-bench --bench kernel_hotpath
}

stage="${1:-all}"
case "$stage" in
    lint) stage_lint ;;
    test) stage_test ;;
    bench) stage_bench ;;
    all)
        stage_test
        stage_lint
        stage_bench
        ;;
    *)
        echo "usage: ./ci.sh [lint|test|bench]" >&2
        exit 2
        ;;
esac

echo "ci: stage '$stage' passed"
