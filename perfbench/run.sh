#!/usr/bin/env bash
# Build the benchmark and the placement CLI it drives, then run it.
#
#   bash perfbench/run.sh --workload suite_cold --seed 0 --seconds 25 --trace 0
#
# Run from the repository root.  Build output and progress go to
# stderr; the last line of stdout is the result object.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe ./bin/wayplace_cli.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
