#!/usr/bin/env bash
# Same-box benchmark gate: runs the product benchmark (bench/run.sh, all
# five workloads) on BASE and on the working tree, in PAIRS alternating
# pairs on the same machine, and judges each pair with
# `bench/out/e2e -compare base.json change.json` against the bounds the
# benchmark carries (BENCHMARK.json repeats them). No number from
# another machine enters the judgement.
#
#   scripts/bench-pair.sh origin/main      # or: make bench-pair BASE=origin/main
#
# Fails when a run fails its own output checks, when -compare refuses a
# pair (exit 2: records of different shape), or when the same
# (workload, metric) row reads BREACH in a majority of the pairs. A row
# breached in one pair only is printed and forgiven: on a shared runner
# one noisy neighbour can move one run. BASE is checked out in a
# temporary git worktree, removed on exit.
set -euo pipefail

# Fixed on purpose, so every gate run means the same thing: three pairs
# of 5-second windows take about four minutes on two CPUs.
PAIRS=3
WINDOW_S=5

base=${1:?usage: scripts/bench-pair.sh BASE (a commit, branch or tag)}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'git -C "$root" worktree remove --force "$work/base" >/dev/null 2>&1 || true; rm -rf "$work"' EXIT
git -C "$root" worktree add --quiet --detach "$work/base" "$base"
echo "bench-pair: base $(git -C "$work/base" rev-parse --short HEAD) against the working tree of $(git -C "$root" rev-parse --short HEAD), $PAIRS pairs of ${WINDOW_S} s windows"

# run TREE NAME: one full benchmark run of TREE, its records in $work/NAME.json.
run() {
    local json="$work/$2.json"
    rm -f "$json"
    if ! bash "$1/bench/run.sh" -seconds "$WINDOW_S" -json "$json" >"$work/$2.log" 2>&1; then
        echo "bench-pair: the $2 run failed:" >&2
        tail -n 40 "$work/$2.log" >&2
        exit 1
    fi
}

for ((p = 1; p <= PAIRS; p++)); do
    # Alternate which side runs first, so drift in the machine's speed
    # over the gate's minutes does not always favour the same side.
    if ((p % 2)); then
        run "$work/base" "base-$p"
        run "$root" "change-$p"
    else
        run "$root" "change-$p"
        run "$work/base" "base-$p"
    fi
    echo "bench-pair: pair $p"
    status=0
    "$root/bench/out/e2e" -compare "$work/base-$p.json" "$work/change-$p.json" | tee "$work/compare-$p.txt" || status=$?
    if ((status == 2)); then
        echo "bench-pair: pair $p cannot be compared" >&2
        exit 1
    fi
done

# A row fails the gate when it breached its bound in a majority of pairs.
failed=$(awk -v need=$((PAIRS / 2 + 1)) '
    $NF == "BREACH" { n[$1 " " $2]++ }
    END { for (row in n) if (n[row] >= need) printf "%s (%d of %d pairs)\n", row, n[row], '"$PAIRS"' }
' "$work"/compare-*.txt | sort)
if [[ -n "$failed" ]]; then
    echo "bench-pair: FAIL — worse than base beyond the bound in a majority of pairs:" >&2
    echo "$failed" >&2
    exit 1
fi
echo "bench-pair: ok — no (workload, metric) row breached its bound in a majority of $PAIRS pairs"
