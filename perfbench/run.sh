#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr; the last line of stdout is the JSON result.
# Outside a full checkout (no crates next to this directory) the build
# fails and so does this script.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# glibc otherwise raises its mmap threshold after the first large free, so
# whether later large buffers stay resident depends on thread timing and
# peak_rss_mib turns bimodal. A fixed threshold keeps it steady.
export MALLOC_MMAP_THRESHOLD_=131072
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
