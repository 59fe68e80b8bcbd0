#!/usr/bin/env bash
# Builds bench/e2e from source and runs it; every argument is passed on.
#
#   bench/run.sh --workload cycle_clean --seed 6 --seconds 20 --trace 0
#   bench/run.sh                 # all five workloads, one after another
#   bench/run.sh --repeat 2      # the whole suite N times, then the
#                                # run-to-run difference against each bound
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
mkdir -p out
# -buildvcs=false: the driver's checkout is not a git repository, and a
# stray .git above it must not fail the build.
go build -buildvcs=false -o out/e2e ./e2e
BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT

if [[ "${1:-}" != "--repeat" ]]; then
  exec out/e2e "$@"
fi

n="${2:?--repeat needs a count}"
shift 2
runs=()
for ((i = 1; i <= n; i++)); do
  rm -f "out/run-$i.json"
  out/e2e -json "out/run-$i.json" "$@"
  runs+=("out/run-$i.json")
done
# Neither run is the baseline, so a difference beyond a bound in either
# direction fails the check.
status=0
for ((i = 1; i < n; i++)); do
  out/e2e -agree "${runs[0]}" "${runs[i]}" || status=1
done
exit "$status"
