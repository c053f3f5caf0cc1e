#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it with the given
# arguments; see README.md. Everything it writes goes under the cargo target
# directory: $CARGO_TARGET_DIR if set, else benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
exec "$target/release/tcbench" "$@"
