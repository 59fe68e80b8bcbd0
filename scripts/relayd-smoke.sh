#!/bin/sh
# relayd end-to-end smoke: boot the service on the virtual clock, wait
# for its first cycle to make it ready, scrape the health and metrics
# planes, SIGTERM it, and require a clean drain (exit 0 plus the
# "drained cleanly" line). Run from the repository root; CI runs it as
# the relayd-smoke job and `make relayd-smoke` mirrors it locally.
set -eu

ADDR=${RELAYD_ADDR:-127.0.0.1:9791}
WORKDIR=$(mktemp -d)
LOG="$WORKDIR/relayd.log"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

go build -o "$WORKDIR/relayd" ./cmd/relayd

"$WORKDIR/relayd" \
    -addr "$ADDR" \
    -state "$WORKDIR/state" \
    -virtual-clock \
    -interval 1h \
    >"$LOG" 2>&1 &
PID=$!

fetch() {
    # stdlib-only HTTP GET: curl/wget are not guaranteed on the runner.
    go run ./scripts/httpget.go "http://$ADDR$1"
}

# Liveness must come up quickly; readiness only after the first cycle
# completes on the (paced) virtual clock.
i=0
until fetch /healthz >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -le 50 ] || { echo "relayd-smoke: /healthz never came up" >&2; cat "$LOG" >&2; exit 1; }
    sleep 0.2
done
echo "relayd-smoke: /healthz up"

i=0
until fetch /readyz >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -le 300 ] || { echo "relayd-smoke: /readyz never became ready" >&2; cat "$LOG" >&2; exit 1; }
    sleep 1
done
echo "relayd-smoke: /readyz ready after first cycle"

METRICS="$WORKDIR/metrics.txt"
fetch /metrics >"$METRICS"
for series in \
    relayd_cycles_total \
    relayd_scan_exchange_rate \
    relayd_scan_faults_total \
    relayd_breaker_open_total \
    relayd_supervisor_state \
    pool_hit_rate \
    relayd_checkpoint_frames_total; do
    grep -q "$series" "$METRICS" || {
        echo "relayd-smoke: /metrics missing $series" >&2
        cat "$METRICS" >&2
        exit 1
    }
done
echo "relayd-smoke: /metrics exposes the acceptance series"

kill -TERM "$PID"
STATUS=0
wait "$PID" || STATUS=$?
if [ "$STATUS" -ne 0 ]; then
    echo "relayd-smoke: relayd exited $STATUS after SIGTERM" >&2
    cat "$LOG" >&2
    exit 1
fi
grep -q "drained cleanly" "$LOG" || {
    echo "relayd-smoke: missing clean-drain confirmation" >&2
    cat "$LOG" >&2
    exit 1
}
echo "relayd-smoke: clean drain confirmed"
