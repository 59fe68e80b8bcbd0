#!/bin/sh
# Paper-scale ECS scan: the whole routed universe at -scale 1.0 -seed 6
# (10.48 M queries), once at -concurrency 1 and once at 2. Each
# canonical dataset's SHA-256 must equal the pinned digest; the scan is
# deterministic and concurrency-independent, so any other digest is a
# behaviour change. Wall time, µs per query, nproc and GOMAXPROCS are
# printed for information only: they gate nothing. Run from the
# repository root; CI runs it as the paper-scan job and `make
# paper-scan` mirrors it locally (about 10 s per scan on 2 vCPUs).
set -eu

WANT=1bfb8a33a0457be04ac332ab15877ff3b69a76a822eae6a668681ccd21a44a79
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

go build -o "$WORKDIR/ecsscan" ./cmd/ecsscan

status=0
for c in 1 2; do
    out="$WORKDIR/scan-c$c.ds"
    start=$(date +%s%N)
    if ! "$WORKDIR/ecsscan" -scale 1.0 -seed 6 -concurrency "$c" -out "$out" >"$WORKDIR/scan-c$c.log" 2>&1; then
        cat "$WORKDIR/scan-c$c.log" >&2
        echo "paper-scan: ecsscan -concurrency $c failed" >&2
        exit 1
    fi
    end=$(date +%s%N)
    ns=$((end - start))
    queries=$(sed -n 's/^queries=\([0-9]*\) .*/\1/p' "$WORKDIR/scan-c$c.log")
    echo "paper-scan: -concurrency $c: $((ns / 1000000)) ms wall, $((ns / ${queries:-1})) ns of wall time per query over ${queries:-?} queries (nproc $(nproc), GOMAXPROCS ${GOMAXPROCS:-unset, runtime default})"
    got=$(sha256sum "$out" | cut -d' ' -f1)
    if [ "$got" != "$WANT" ]; then
        echo "paper-scan: -concurrency $c: dataset SHA-256 $got, want $WANT" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "paper-scan: both datasets match $WANT"
exit "$status"
