#!/usr/bin/env bash
# Records one point of the bench trajectory: every workload, untraced and
# traced, on one seed, written to perfbench/trajectory/BENCH_<REV>.json.
#
#   bash perfbench/record.sh REV [SEED] [SECONDS]
#
# REV names the engine revision measured (a commit id). Each entry holds
# the run's full detail line (every metric it measured, including the
# per-operation latencies the result line leaves out) and its final
# JSON line.
set -euo pipefail
rev=$1
seed=${2:-1}
secs=${3:-20}
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/trajectory/BENCH_$rev.json"
mkdir -p "$here/trajectory"
tmp="$out.tmp"
{
  printf '{"rev": "%s", "seed": %s, "seconds": %s, "cpus": %s, "runs": [\n' \
    "$rev" "$seed" "$secs" "$(nproc)"
  sep=""
  for wl in oltp_fk join_read ingest_nulls; do
    for tr in 0 1; do
      run="$(bash "$here/run.sh" --workload "$wl" --seed "$seed" \
        --seconds "$secs" --trace "$tr")"
      detail="$(printf '%s\n' "$run" | sed -n 's/^detail //p')"
      result="$(printf '%s\n' "$run" | tail -n 1)"
      printf '%s{"detail": %s,\n "result": %s}\n' "$sep" "$detail" "$result"
      sep=","
    done
  done
  printf ']}\n'
} > "$tmp"
mv "$tmp" "$out"
echo "wrote $out"
