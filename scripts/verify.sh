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
    cargo run -q --release -p pstack-bench --bin bench_evalthroughput
}

stage_conc() {
    echo "== concurrency audit (schedule explorer + lock-order gate + PSA017/018) =="
    cargo test -q --test concurrency_audit
    cargo run -q --release -p pstack-bench --bin bench_lockorder
    cargo run -q --release -p pstack-analyze --bin pstack_lint
}

stage_history() {
    echo "== shared history store (concurrency grid, properties, service, warm golden, E9 gate) =="
    cargo test -q --test history_store
    cargo test -q --test history_proptests
    cargo test -q --test history_service
    cargo test -q --test history_warm_golden
    cargo run -q --release -p pstack-bench --bin bench_history
}

stage_fleet() {
    echo "== fleet-scale event engine (equivalence grid + 4k-node/50k-job ladder) =="
    cargo test -q -p pstack-rm --test event_equivalence
    cargo run -q --release -p pstack-bench --bin bench_fleet
}

stage_chaosfleet() {
    echo "== fleet chaos (E11 grid + recovery-SLO gate, smoke scale) =="
    cargo test -q -p powerstack-core --lib experiments::fleetfaults
    cargo test -q -p pstack-faults --lib fleet
    # Smoke artifacts land in a scratch dir so the committed full-scale
    # results/ stay untouched; CI uploads the scratch copies.
    local out=target/chaosfleet
    rm -rf "$out"
    mkdir -p "$out"
    POWERSTACK_RESULTS_DIR="$out" POWERSTACK_CHAOSFLEET_SMOKE=1 \
        cargo run -q --release -p pstack-bench --bin ext_fleetfaults
    POWERSTACK_RESULTS_DIR="$out" POWERSTACK_CHAOSFLEET_SMOKE=1 \
        cargo run -q --release -p pstack-bench --bin bench_fleetfaults
    # The gate must demonstrably trip: an injected regression exits nonzero.
    if POWERSTACK_RESULTS_DIR="$out" POWERSTACK_CHAOSFLEET_SMOKE=1 \
        POWERSTACK_FLEETFAULTS_INJECT_REGRESSION=1 \
        cargo run -q --release -p pstack-bench --bin bench_fleetfaults >/dev/null 2>&1; then
        echo "chaosfleet: injected regression did NOT trip the gate" >&2
        exit 1
    fi
    echo "chaosfleet: injected regression tripped the gate (expected)"
}

stage_perfgate() {
    echo "== perf-regression gate (fresh artifacts vs committed results/) =="
    local fresh=target/perfgate
    rm -rf "$fresh"
    mkdir -p "$fresh"
    POWERSTACK_RESULTS_DIR="$fresh" cargo run -q --release -p pstack-bench --bin bench_evalthroughput
    POWERSTACK_RESULTS_DIR="$fresh" cargo run -q --release -p pstack-bench --bin ext_thermal
    POWERSTACK_RESULTS_DIR="$fresh" cargo run -q --release -p pstack-bench --bin ext_new_runtimes
    cargo run -q --release -p pstack-bench --bin bench_diff -- results "$fresh" \
        --require bench_evalthroughput --require ext_thermal --require ext_new_runtimes
}

stage_perfbench() {
    echo "== perfbench (the locked repository benchmark builds and passes its tests) =="
    cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
    cargo test -q --offline --locked --manifest-path perfbench/Cargo.toml
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
