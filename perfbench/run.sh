#!/bin/sh
# Build the benchmark from source and run it; arguments are passed on
# (--workload NAME --seed N --seconds S --trace 0|1). Run from the
# repository root. The shared dune cache is disabled so that the build
# reads and writes only inside the checkout.
set -eu
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
