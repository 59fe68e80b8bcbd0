#!/bin/sh
# Paper-scale ECS scan: the whole routed universe at -scale 1.0 -seed 6
# (10.48 M queries), once at -concurrency 1 and once at 2. Each
# canonical dataset's SHA-256 must equal the pinned digest; the scan is
# deterministic and concurrency-independent, so any other digest is a
# behaviour change. Wall time and the scan's user+sys CPU time, each in
# ns per query, nproc and GOMAXPROCS are printed for information only:
# they gate nothing. CPU above wall time at -concurrency 2 is the
# workers' contention and scheduling overhead. Run from the
# repository root; CI runs it as the paper-scan job and `make
# paper-scan` mirrors it locally (about 10 s per scan on 2 vCPUs).
set -eu

WANT=1bfb8a33a0457be04ac332ab15877ff3b69a76a822eae6a668681ccd21a44a79
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

go build -o "$WORKDIR/ecsscan" ./cmd/ecsscan

# child_cpu sets CPU_NS to the user+sys CPU time, in ns, of every child
# this shell has waited for: the second line of the POSIX `times`
# builtin. Call it directly, and let `times` write to a file: in a
# pipeline or a command substitution it would run in a subshell, which
# has no children of its own.
child_cpu() {
    times >"$WORKDIR/times"
    CPU_NS=$(awk 'NR == 2 {
        ns = 0
        for (i = 1; i <= 2; i++) {
            split($i, t, "m")
            sub("s", "", t[2])
            ns += (t[1] * 60 + t[2]) * 1e9
        }
        printf "%.0f\n", ns
    }' "$WORKDIR/times")
}

status=0
for c in 1 2; do
    out="$WORKDIR/scan-c$c.ds"
    child_cpu
    cpu0=$CPU_NS
    start=$(date +%s%N)
    if ! "$WORKDIR/ecsscan" -scale 1.0 -seed 6 -concurrency "$c" -out "$out" >"$WORKDIR/scan-c$c.log" 2>&1; then
        cat "$WORKDIR/scan-c$c.log" >&2
        echo "paper-scan: ecsscan -concurrency $c failed" >&2
        exit 1
    fi
    end=$(date +%s%N)
    ns=$((end - start))
    child_cpu
    cpu=$((CPU_NS - cpu0))
    queries=$(sed -n 's/^queries=\([0-9]*\) .*/\1/p' "$WORKDIR/scan-c$c.log")
    echo "paper-scan: -concurrency $c: $((ns / 1000000)) ms wall, $((cpu / 1000000)) ms user+sys CPU; per query over ${queries:-?} queries: $((ns / ${queries:-1})) ns wall, $((cpu / ${queries:-1})) ns CPU (nproc $(nproc), GOMAXPROCS ${GOMAXPROCS:-unset, runtime default})"
    got=$(sha256sum "$out" | cut -d' ' -f1)
    if [ "$got" != "$WANT" ]; then
        echo "paper-scan: -concurrency $c: dataset SHA-256 $got, want $WANT" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "paper-scan: both datasets match $WANT"
exit "$status"
