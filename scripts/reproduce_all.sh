#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build =="
cargo build --workspace --release

echo "== tests =="
cargo test --workspace --release

echo "== Table I (attack matrix) =="
cargo run --release -p procheck-bench --bin table1

echo "== Table II (common properties) =="
cargo run --release -p procheck-bench --bin table2

echo "== Fig 8 (RQ3 timing) =="
cargo run --release -p procheck-bench --bin fig8

echo "== RQ2 (model comparison / Fig 7) =="
cargo run --release -p procheck-bench --bin model_comparison

echo "== §VI coverage statistics =="
cargo run --release -p procheck-bench --bin coverage

echo "== attack walkthroughs (Figs 4 & 6) =="
cargo run --release -p procheck-bench --bin attacks -- all

echo "== implementation deviation view =="
cargo run --release -p procheck-bench --bin model_diff

echo "== criterion benches =="
cargo bench -p procheck-bench

echo "== warm-run demonstration (persistent store: cold -> warm -> 1-transition mutation) =="
cargo run --release -p procheck-bench --bin warm_run

echo "== timing floors (median of 5 samples per gate) =="
cargo test --release -p procheck-bench --test timing_floors -- --ignored --test-threads=1 --nocapture
