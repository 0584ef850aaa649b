#!/usr/bin/env bash
# Build the benchmark from source and run it. Run from the root of a
# checkout of the repository; arguments go to perfbench/main.exe:
#
#   bash perfbench/run.sh --workload oneshot|session|serve --seed N --seconds S --trace 0|1
#
# Everything it builds or writes stays inside the checkout (_build/,
# .perfbench-tmp/); the shared dune cache is not used.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a repository checkout (dune-project, lib/ and perfbench/ needed)" >&2
  exit 2
fi

export DUNE_CACHE=disabled
if ! dune build --root . -j 2 --display quiet ./perfbench/main.exe >&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
exec ./_build/default/perfbench/main.exe "$@"
