#!/bin/sh
# Build the E11 benchmark from source, then run it with every argument
# passed through (see perfbench/README.md).  Run from the repository root:
#   sh perfbench/run.sh --workload sig-scale --seed 1 --seconds 20 --trace 0
set -e
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run this from the root of a belr checkout" >&2
  exit 2
fi
# keep every build artifact inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet perfbench/e11.exe >&2
exec ./_build/default/perfbench/e11.exe "$@"
