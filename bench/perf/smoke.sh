#!/usr/bin/env bash
# Smoke test of the benchmark, run by `dune runtest` from the build copy of
# this directory: usage: smoke.sh PERF_EXE
#   - every workload at smoke scale (two tasks) passes its oracles, traced
#     and untraced;
#   - two traced runs of the same seed report identical work counts;
#   - a corrupted golden entry makes the run fail and name the program.
# No timing is asserted.
set -euo pipefail
perf=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
tmp=smoke-tmp
rm -rf "$tmp"
mkdir -p "$tmp/corrupt/golden"
run() { "$perf" --seed 7 --seconds 1 --scale smoke --data . "$@"; }
for w in suite call-dense guarded-run rerun; do
  run --workload "$w" --trace 0 > /dev/null
  run --workload "$w" --trace 1 | grep ' count$' > "$tmp/$w.1"
  run --workload "$w" --trace 1 | grep ' count$' > "$tmp/$w.2"
  if ! cmp -s "$tmp/$w.1" "$tmp/$w.2"; then
    echo "smoke: $w: work counts differ between two traced runs" >&2
    diff "$tmp/$w.1" "$tmp/$w.2" >&2 || true
    exit 1
  fi
done
# rspeed01 is a suite smoke program; flip the first digit of its digest
cp workloads.json "$tmp/corrupt/"
sed '0,/"rspeed01"/s/"scores":"[0-9a-f]/"scores":"x/' golden/results.json \
  > "$tmp/corrupt/golden/results.json"
if "$perf" --workload suite --seed 7 --seconds 1 --trace 0 --scale smoke \
  --data "$tmp/corrupt" > /dev/null 2> "$tmp/corrupt/err"; then
  echo "smoke: a corrupted golden entry was not detected" >&2
  exit 1
fi
grep -q '^rspeed01: ' "$tmp/corrupt/err"
rm -rf "$tmp" .perf-run
