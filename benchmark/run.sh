#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it. See README.md.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--out FILE]      every workload
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --compare A.json B.json
#
# Works from any directory; writes only under the target directory
# (CARGO_TARGET_DIR, else the repo's target/) and benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"

# Cargo's progress goes to stderr: stdout carries results only.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

exec "$target/release/asbestos-benchmark" --home "$here" "$@"
