#!/usr/bin/env bash
# Tier-1 verification: hermetic (offline) release build plus the full test
# suite. Must pass on a machine with no network access and no crates.io
# mirror — the workspace depends on nothing outside this repository.
set -euo pipefail
cd "$(dirname "$0")/.."

# Formatting is part of tier 1: the tree must be rustfmt-clean.
cargo fmt --all --check

# Warnings are errors: the workspace must build clean.
RUSTFLAGS="-D warnings" cargo build --workspace --release --offline
cargo test --workspace -q --offline

# Lints are part of tier 1: clippy must be warning-clean across the
# workspace (library, tests, examples and benches alike).
cargo clippy -q --workspace --all-targets --offline -- -D warnings

# Documentation is part of tier 1: every public item is documented
# (missing_docs) and rustdoc itself must be warning-clean (broken intra-doc
# links, bad code fences).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Smoke-run every example. Each must exit zero on a small workload: the
# campaign-style examples read a trial count from their first argument,
# the rest ignore it.
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    echo "== example: $name =="
    cargo run --release --offline --example "$name" -- 50 >/dev/null
done

# Engine resume at a size where the automatic block size matters: the
# example asserts that a run resumed from a mid-run checkpoint is
# bit-identical to the uninterrupted one (the smoke run above at 50
# trials clamps every block to one trial and cannot catch a drift).
echo "== example: engine_fleet resume at 5000 trials =="
cargo run --release --offline --example engine_fleet -- 5000 >/dev/null

# Scenario zoo: every declarative campaign under scenarios/ must run
# bit-identically at 1, 2 and 5 threads, match its golden pin, and
# satisfy its acceptance clause. Any drift fails hard.
echo "== scenario zoo: golden pins at 1/2/5 threads =="
cargo run --release --offline -p nlft-bench --bin scenario_run -- verify

# Engine differential gate: one zoo scenario of each cluster family
# re-run through the threaded executor (at four workers, then forced at
# one) must reproduce the same golden pin as the sequential reference
# above — `run` re-checks the pin via the acceptance clause. Each run
# also exercises a per-trial budget and a checkpoint/resume round trip
# through the CLI flags; a cadence of 5 leaves the last checkpoint
# mid-run, so the resumed run has trials left to do.
echo "== scenario zoo: engine path vs legacy pin =="
ckpt="$(mktemp)"
trap 'rm -f "$ckpt"' EXIT
for scenario in babbling-wheel net-storm-nominal value-single-fault-coverage \
    full-blackout-coldstart recovery-ladder-mix; do
    cargo run --release --offline -p nlft-bench --bin scenario_run -- \
        run "$scenario" --engine --threads 4 --trial-budget-ms 10000 \
        --checkpoint "$ckpt" --checkpoint-every 5
    cargo run --release --offline -p nlft-bench --bin scenario_run -- \
        run "$scenario" --engine --resume "$ckpt"
done

# Benchmark oracle: the perfbench self-tests, then one short end-to-end
# run per workload. Every run re-checks the scaled campaign digests in
# perfbench/expected.txt (the widest net for a changed TEM decision on a
# rarely hit path); its last line must report `"failed":0`.
echo "== perfbench: self-tests + one oracle run per workload =="
cargo test --offline --manifest-path perfbench/Cargo.toml
for workload in cluster-zoo node-zoo fig12-montecarlo; do
    last="$(cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 0 --seconds 1 --trace 0 | tail -n 1)"
    case "$last" in
        *'"failed":0,'*) echo "perfbench $workload: failed 0" ;;
        *) echo "perfbench $workload: oracle failed: $last" >&2; exit 1 ;;
    esac
done

# Bench trajectory: re-measure the groups in the committed baseline and
# compare. Timing deltas are advisory only (hardware varies between
# machines), so slowdowns print warnings; golden-digest drift — a
# bit-level change to the deterministic Figure 12 results — fails hard.
echo "== bench: substrates + fig12 + campaigns vs BENCH_BASELINE.json =="
cargo bench --offline -p nlft-bench --bench substrates -- --samples 10 >/dev/null
cargo bench --offline -p nlft-bench --bench fig12_system_reliability -- --samples 10 >/dev/null
for group in net_storm startup diagnosis value_domain weakly_hard multicore scenario engine; do
    cargo bench --offline -p nlft-bench --bench "$group" -- --samples 10 >/dev/null
done
cargo run --release --offline -p nlft-bench --bin bench_compare -- compare

echo "verify: OK"
