#!/usr/bin/env bash
# Full verification gate: format, build, test, lint, static analysis.
# Run from the repo root.
#
#   ./scripts/verify.sh                 # run every stage (the PR bar)
#   ./scripts/verify.sh build test      # run only the named stages
#   ./scripts/verify.sh --list          # list available stages
#
# Stages run in the order given; each is the exact command CI runs for the
# matching job in .github/workflows/ci.yml, so a stage passing here passes
# there and vice versa.
set -euo pipefail
cd "$(dirname "$0")/.."

# A fresh artifact directory for one stage, under target/: the artifacts a
# stage regenerates are written there, so a verify run never rewrites the
# committed results/ (CI's artifacts job regenerates those itself).
stage_results_dir() {
    rm -rf "target/$1"
    mkdir -p "target/$1"
    echo "target/$1"
}

stage_fmt() {
    echo "== cargo fmt --check =="
    cargo fmt --all -- --check
}

stage_build() {
    echo "== cargo build --release =="
    cargo build --release
}

stage_test() {
    echo "== cargo test -q --workspace =="
    cargo test -q --workspace
}

stage_chaos() {
    echo "== chaos suite (determinism: two runs must agree) =="
    cargo test -q --test chaos_tuning
    cargo test -q --test chaos_tuning
}

stage_golden() {
    echo "== golden artifact regression =="
    cargo test -q --test golden_results
}

stage_resume() {
    echo "== crash-resume equivalence (kill/resume grid + WAL fuzzing) =="
    cargo test -q --test resume_equivalence
}

stage_perf() {
    echo "== eval-throughput acceptance (batched fast path >= 10x, bit-identical) =="
    # The fast path's lanes against the scalar oracle first, in the release
    # build the gate measures: the arena's triples and the batch's lanes
    # (reset lanes on the shared RAPL timeline included).
    cargo test -q --release -p powerstack-core --lib arena
    cargo test -q --release -p pstack-hwmodel --test batch_equivalence
    local out
    out=$(stage_results_dir perf)
    POWERSTACK_RESULTS_DIR="$out" cargo run -q --release -p pstack-bench --bin regenerate_all -- bench_evalthroughput
}

stage_conc() {
    echo "== concurrency audit (schedule explorer + lock-order gate + PSA017) =="
    cargo test -q --test concurrency_audit
    local out
    out=$(stage_results_dir conc)
    POWERSTACK_RESULTS_DIR="$out" cargo run -q --release -p pstack-bench --bin regenerate_all -- lockorder
    cargo run -q --release -p pstack-analyze --bin pstack_lint
}

stage_history() {
    echo "== shared history store (concurrency grid, properties, service, open handles, warm golden, E9 gate) =="
    cargo test -q --test history_store
    cargo test -q --test history_proptests
    cargo test -q --test history_service
    cargo test -q --test history_handles
    cargo test -q --test history_warm_golden
    local out
    out=$(stage_results_dir history)
    POWERSTACK_RESULTS_DIR="$out" cargo run -q --release -p pstack-bench --bin regenerate_all -- bench_history
}

stage_fleet() {
    echo "== fleet-scale event engine (lane suites + equivalence grid + 4k-node/50k-job ladder) =="
    # Running jobs step on NodeBatch lanes; these hold the lanes to the
    # scalar node path: fleet nodes under every knob, a load/store round
    # trip, and whole jobs under every shipped agent.
    cargo test -q -p pstack-hwmodel --test batch_equivalence fleet_lanes
    cargo test -q -p pstack-hwmodel --lib load_then_store_leaves_nodes_unchanged
    cargo test -q -p pstack-runtime --lib lanes_match_the_scalar_reference_under_every_agent
    cargo test -q -p pstack-rm --test event_equivalence
    local out
    out=$(stage_results_dir fleet)
    POWERSTACK_RESULTS_DIR="$out" cargo run -q --release -p pstack-bench --bin regenerate_all -- bench_fleet
}

stage_chaosfleet() {
    echo "== fleet chaos (E11 grid + recovery-SLO gate, smoke scale) =="
    cargo test -q -p powerstack-core --lib experiments::fleetfaults
    cargo test -q -p pstack-faults --lib fleet
    # Smoke artifacts land in a scratch dir so the committed full-scale
    # results/ stay untouched; CI uploads the scratch copies.
    local out
    out=$(stage_results_dir chaosfleet)
    POWERSTACK_RESULTS_DIR="$out" POWERSTACK_CHAOSFLEET_SMOKE=1 \
        cargo run -q --release -p pstack-bench --bin regenerate_all -- bench_fleetfaults
    # The gate must demonstrably trip: an injected regression exits nonzero.
    if POWERSTACK_RESULTS_DIR="$out" POWERSTACK_CHAOSFLEET_SMOKE=1 \
        POWERSTACK_FLEETFAULTS_INJECT_REGRESSION=1 \
        cargo run -q --release -p pstack-bench --bin regenerate_all -- bench_fleetfaults >/dev/null 2>&1; then
        echo "chaosfleet: injected regression did NOT trip the gate" >&2
        exit 1
    fi
    echo "chaosfleet: injected regression tripped the gate (expected)"
}

stage_perfgate() {
    echo "== perf-regression gate (fresh artifacts vs committed results/) =="
    local fresh
    fresh=$(stage_results_dir perfgate)
    POWERSTACK_RESULTS_DIR="$fresh" cargo run -q --release -p pstack-bench --bin regenerate_all -- \
        bench_evalthroughput ext_thermal ext_new_runtimes
    cargo run -q --release -p pstack-bench --bin bench_diff -- results "$fresh" \
        --require bench_evalthroughput --require ext_thermal --require ext_new_runtimes
}

# Run perfbench once with the given arguments; fail unless it exits 0 and
# its closing JSON line reports "correct": true.
perfbench_smoke() {
    local out
    out=$(cargo run --quiet --release --offline --locked --manifest-path perfbench/Cargo.toml -- "$@")
    if ! tail -n 1 <<<"$out" | grep -q '"correct": true'; then
        echo "perfbench $*: the report does not say \"correct\": true" >&2
        exit 1
    fi
    echo "perfbench $*: correct"
}

stage_perfbench() {
    echo "== perfbench (the locked repository benchmark builds, passes its tests and runs every workload) =="
    cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
    cargo test -q --offline --locked --manifest-path perfbench/Cargo.toml
    local w
    for w in fleet_loaded fleet_sparse tune_fastpath tune_sessions; do
        perfbench_smoke --workload "$w" --seed 1 --seconds 1 --trace 0
    done
    perfbench_smoke --workload fleet_loaded --seed 1 --seconds 1 --trace 1
    perfbench_smoke --workload fleet_sparse --seed 1 --seconds 1 --trace 1
    perfbench_smoke --workload tune_fastpath --seed 1 --seconds 1 --trace 1
}

stage_clippy() {
    echo "== cargo clippy -- -D warnings =="
    cargo clippy --workspace --all-targets -- -D warnings
}

stage_lint() {
    echo "== pstack_lint =="
    cargo run -q --release -p pstack-analyze --bin pstack_lint
}

ALL_STAGES=(fmt build test chaos resume golden perf conc history fleet chaosfleet perfgate perfbench clippy lint)

list_stages() {
    for s in "${ALL_STAGES[@]}"; do
        echo "$s"
    done
}

if [[ "${1:-}" == "--list" ]]; then
    list_stages
    exit 0
fi

if [[ $# -eq 0 ]]; then
    stages=("${ALL_STAGES[@]}")
    summary="verify: OK"
else
    stages=("$@")
    summary="verify: OK ($*)"
fi

for s in "${stages[@]}"; do
    case "$s" in
        fmt | fmt-check) stage_fmt ;;
        build) stage_build ;;
        test) stage_test ;;
        chaos) stage_chaos ;;
        resume) stage_resume ;;
        golden | goldens) stage_golden ;;
        perf) stage_perf ;;
        conc | concurrency) stage_conc ;;
        history) stage_history ;;
        fleet) stage_fleet ;;
        chaosfleet | chaos-fleet) stage_chaosfleet ;;
        perfgate | perf-gate) stage_perfgate ;;
        perfbench) stage_perfbench ;;
        clippy) stage_clippy ;;
        lint | pstack_lint) stage_lint ;;
        *)
            echo "verify: unknown stage '$s' (available: ${ALL_STAGES[*]})" >&2
            exit 2
            ;;
    esac
done

echo "$summary"
