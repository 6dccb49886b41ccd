#!/usr/bin/env bash
# One benchmark run of the tuning service.  Run from the repository root:
#   bash perfbench/run.sh --workload cold-tunes|mixed --seed N \
#       --seconds S --trace 0|1
# Builds the daemon and bench.exe from source (dune's shared cache off, so
# nothing is written outside the checkout), then runs bench.exe, which
# prints one JSON line as its last line of output.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet bin/main.exe perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@" \
  --server ./_build/default/bin/main.exe --work perfbench/.work
