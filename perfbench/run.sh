#!/usr/bin/env bash
# Builds the benchmark from source and runs it; all arguments go to the
# benchmark (see perfbench/README.md).  Run from the repository root.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
