#!/usr/bin/env bash
# Serve smoke: boots shrimpd, exercises the HTTP API end to end, and
# checks the daemon against the batch CLI:
#
#   1. /healthz answers once the daemon is up.
#   2. A quick table1 experiment job streams NDJSON byte-identical to
#      `shrimpbench -json -exp table1 -quick`.
#   3. Once that job is done, no simulated page is resident (page-pool
#      gauges in /metrics): no cell leaked its machine's memory.
#   4. Resubmitting the same job is served from the result cache
#      (cache-hit counter visible in /metrics).
#   5. A cell whose knobs the NIC cannot run (a DU queue of depth 0) is
#      refused with 400, and the daemon stays healthy.
#   6. A cell that panics (the HLRC Barnes-SVM reproducer) fails its
#      job, the daemon stays healthy, and an ordinary cell job after it
#      completes.
#   7. SIGTERM drains the daemon cleanly (exit 0).
#
# Used by `make serve-smoke` and the CI "Serve smoke" step.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${BIN:-bin}
ADDR=${ADDR:-127.0.0.1:18123}
BASE="http://$ADDR"
WORK=$(mktemp -d)
DPID=""
trap '[ -n "$DPID" ] && kill "$DPID" 2>/dev/null; rm -rf "$WORK"' EXIT

go build -o "$BIN/shrimpd" ./cmd/shrimpd
go build -o "$BIN/shrimpbench" ./cmd/shrimpbench

"$BIN/shrimpd" -addr "$ADDR" -cache-dir "$WORK/cache" >"$WORK/shrimpd.log" 2>&1 &
DPID=$!

for _ in $(seq 1 50); do
    curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
    sleep 0.2
done
curl -fsS "$BASE/healthz" | grep -q ok
echo "serve-smoke: daemon is healthy"

submit_table1() {
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d '{"experiment":"table1","quick":true}' "$BASE/v1/jobs" |
        python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])'
}

submit_cells() {
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d "{\"cells\":[$1],\"quick\":true}" "$BASE/v1/jobs" |
        python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])'
}

# wait_state ID WANT waits for job ID to end and fails unless it ended
# in state WANT.
wait_state() {
    local id=$1 want=$2 state=queued
    for _ in $(seq 1 600); do
        state=$(curl -fsS "$BASE/v1/jobs/$id" |
            python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
        case $state in
        done | failed | canceled)
            [ "$state" = "$want" ] && return 0
            echo "serve-smoke: job $id ended $state, want $want" >&2
            cat "$WORK/shrimpd.log" >&2
            return 1
            ;;
        esac
        sleep 0.2
    done
    echo "serve-smoke: job $id never finished (last state $state)" >&2
    return 1
}

wait_done() { wait_state "$1" done; }

ID=$(submit_table1)
wait_done "$ID"
curl -fsS "$BASE/v1/jobs/$ID/results" >"$WORK/api.ndjson"
"$BIN/shrimpbench" -exp table1 -quick -json >"$WORK/cli.ndjson"
diff "$WORK/api.ndjson" "$WORK/cli.ndjson"
echo "serve-smoke: API results byte-identical to shrimpbench -json"

# Every simulated page goes back to the page pool when its cell ends,
# so with the job finished no page may stay resident: a nonzero gauge
# is a cell that leaked its machine's memory.
curl -fsS "$BASE/metrics" >"$WORK/metrics.txt"
RESIDENT=$(awk '$1=="shrimpd_sim_pages_resident"{print $2}' "$WORK/metrics.txt")
FREE=$(awk '$1=="shrimpd_sim_pages_free"{print $2}' "$WORK/metrics.txt")
if [ -z "$RESIDENT" ] || [ -z "$FREE" ]; then
    echo "serve-smoke: /metrics lacks the simulated-page gauges" >&2
    cat "$WORK/metrics.txt" >&2
    exit 1
fi
if [ "$RESIDENT" -ne 0 ] || [ "$FREE" -le 0 ]; then
    echo "serve-smoke: $RESIDENT pages resident, $FREE pooled after the job drained; want 0 and > 0" >&2
    exit 1
fi
echo "serve-smoke: no simulated pages resident after the job ($FREE pooled)"

ID2=$(submit_table1)
wait_done "$ID2"
HITS=$(curl -fsS "$BASE/metrics" | awk '$1=="shrimpd_cache_hits_total"{print $2}')
if [ "${HITS:-0}" -le 0 ]; then
    echo "serve-smoke: repeat job recorded no cache hits" >&2
    curl -fsS "$BASE/metrics" >&2
    exit 1
fi
curl -fsS "$BASE/v1/jobs/$ID2/results" >"$WORK/api2.ndjson"
diff "$WORK/api.ndjson" "$WORK/api2.ndjson"
echo "serve-smoke: repeat job served from the result cache ($HITS cell hits)"

CODE=$(curl -sS -o "$WORK/bad.txt" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
    -d '{"cells":[{"app":"ocean-nx","nodes":4,"knobs":{"du_queue_depth":0}}],"quick":true}' \
    "$BASE/v1/jobs")
if [ "$CODE" != 400 ]; then
    echo "serve-smoke: du_queue_depth 0 cell got status $CODE, want 400" >&2
    cat "$WORK/bad.txt" "$WORK/shrimpd.log" >&2
    exit 1
fi
curl -fsS "$BASE/healthz" | grep -q ok
echo "serve-smoke: out-of-range knob refused with 400, daemon still healthy"

# The HLRC Barnes-SVM cell panics in its own self-check (ROADMAP item 1);
# replace it with another panicking input once HLRC is fixed.
ID3=$(submit_cells '{"app":"barnes-svm","nodes":64,"variant":"du"}')
wait_state "$ID3" failed
curl -fsS "$BASE/v1/jobs/$ID3" | grep -q 'panic: '
curl -fsS "$BASE/healthz" | grep -q ok
ID4=$(submit_cells '{"app":"radix-vmmc","nodes":2}')
wait_done "$ID4"
echo "serve-smoke: panicking cell failed its job, daemon still healthy and serving"

kill -TERM "$DPID"
wait "$DPID"
DPID=""
grep -q "drained cleanly" "$WORK/shrimpd.log"
echo "serve-smoke: graceful drain OK"
