#!/usr/bin/env bash
# Builds divbench (Release, from this checkout's sources) and runs one
# workload in the form BENCHMARK.json's command uses:
#
#   bash benchmark/run.sh --workload NAME --seed S --seconds T --trace 0|1
#
# The build goes to $CARGO_TARGET_DIR when set, else .bench_build.  Build
# output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
  /*) ;;
  *) build="$root/$build" ;;
esac

cmake -S "$root/benchmark" -B "$build" >&2
cmake --build "$build" -j 4 >&2
exec "$build/divbench" "$@"
