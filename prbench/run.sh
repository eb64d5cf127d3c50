#!/usr/bin/env bash
# Builds pr-server and the prbench binary from source, then runs
# prbench with the given arguments. Run from the repository root:
#   bash prbench/run.sh --workload hot-rollback --seed 1 --seconds 30 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p pr-server --bin pr-server >&2
cargo build --release --offline --quiet --manifest-path prbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/prbench" --server-bin "$CARGO_TARGET_DIR/release/pr-server" "$@"
