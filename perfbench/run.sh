#!/usr/bin/env bash
# Build the benchmark and the daemon it drives from this checkout's
# sources, then run it:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout.  Build output goes to stderr, so the
# last line of standard output stays the benchmark's JSON result.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a source checkout" >&2
  exit 2
fi
dune build --root . ./perfbench/main.exe ./bin/anafaultd_main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
