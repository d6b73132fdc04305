#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Build output goes to stderr; the last
# line of stdout is the run's JSON summary. Fails (non-zero, no summary)
# when the checkout does not hold the sources the benchmark links.
set -euo pipefail
cd "$(dirname "$0")/.."
[ -f dune-project ] || { echo "run.sh: no dune-project at $(pwd)" >&2; exit 1; }
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe run "$@"
