#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it from the
# checkout's root with every argument passed through. Build output goes to
# stderr so the last line of stdout stays the benchmark's result.
set -eu
cd "$(dirname "$0")/../.."
# keep every build artefact inside the checkout (no shared dune cache)
export DUNE_CACHE=disabled
dune build --root . bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"
