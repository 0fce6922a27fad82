#!/bin/sh
# Builds the benchmark and the silkroute binary from this checkout, then
# runs one workload:
#
#   sh perfbench/run.sh --workload export-q1 --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
# Everything the run writes stays inside the checkout (_build/ and
# .perfbench/): the dune cache is off and temporary files go to
# .perfbench/tmp.
set -e
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
mkdir -p .perfbench/tmp
export TMPDIR="$PWD/.perfbench/tmp"
dune build --root . perfbench/bench.exe bin/silkroute_cli.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
