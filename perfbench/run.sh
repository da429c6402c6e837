#!/usr/bin/env bash
# Builds the session-path benchmark from the checkout this script sits in
# and runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload oltp_fk --seed 1 --seconds 20 --trace 0
#
# Build products go to .bench_build/ and run directories to .bench_work/,
# both under the checkout root. The build log goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --profile release \
  ./perfbench/bench.exe 1>&2
exec ./.bench_build/default/perfbench/bench.exe "$@"
