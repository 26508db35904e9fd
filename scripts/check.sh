#!/usr/bin/env bash
# Full local CI gate. Everything here must pass before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cofs-analyze (workspace determinism lint)"
cargo run -q -p cofs-analyze --release

echo "==> cofs-analyze self-check (gate must trip on the seeded fixture)"
if cargo run -q -p cofs-analyze --release -- --strict crates/analyze/fixtures >/dev/null 2>&1; then
    echo "cofs-analyze failed to flag the seeded fixture violations" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> RUSTDOCFLAGS=-Dwarnings cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo bench -p cofs-bench --no-run"
cargo bench -p cofs-bench --no-run

echo "==> cargo test -q --manifest-path perfbench/Cargo.toml (benchmark builds against the crates)"
cargo test -q --manifest-path perfbench/Cargo.toml

echo "All checks passed."
