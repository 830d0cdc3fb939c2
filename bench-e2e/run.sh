#!/usr/bin/env bash
# Build the release `ofence` binary and the e2e bench into one target
# directory (CARGO_TARGET_DIR, default `target/`), then run the bench
# with the given arguments. Run from the repository root:
#
#   bash bench-e2e/run.sh --seed 42 --out result.json
#   bash bench-e2e/run.sh --workload serve-edit-12k --seed 7 --seconds 12 --trace 0
#   bash bench-e2e/run.sh compare parent-*.json -- change-*.json
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p ofence-cli --bin ofence >&2
cargo build --release --offline --quiet --manifest-path bench-e2e/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2e" "$@"
