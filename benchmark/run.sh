#!/usr/bin/env bash
# The benchmark's one command. Builds both binaries from source, then
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result as one JSON object
#   run.sh [--seed N] [--runs R]
#       every workload, traced runs and layer probes; prints every metric
#       as "workload name unit value" and writes benchmark/out/result.json
#   run.sh compare A.json B.json
#       judges result B against result A with the bounds in BENCHMARK.json
#
# Exits non-zero when the build fails, a run cannot be carried out, or
# (whole suite, compare) verification fails or a metric is worse.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/benchmark" "$@"
