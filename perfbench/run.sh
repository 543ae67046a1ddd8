#!/usr/bin/env bash
# Builds the benchmark from source in the release profile and runs it
# from the repository root:
#   bash perfbench/run.sh --workload webscale|tables|serve --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
exec dune exec --root . --profile release --display quiet -- ./perfbench/bench.exe "$@"
