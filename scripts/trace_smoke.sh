#!/usr/bin/env bash
# Trace smoke: a traced cell must emit valid Chrome trace JSON, and the
# trace bytes must be identical across repeat runs and worker counts:
#
#   1. figure4audu traced at -parallel 1 and 4 (Chrome JSON + NDJSON).
#   2. The Chrome trace parses as JSON.
#   3. Both widths wrote the same trace bytes, in both formats.
#   4. -metrics prints the trace metrics block.
#
# Used by `make trace-smoke` and the CI "Trace smoke" step.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${BIN:-bin}

go build -o "$BIN/shrimpbench" ./cmd/shrimpbench
"$BIN/shrimpbench" -exp figure4audu -quick -parallel 1 \
  -trace "$BIN/t1.json" -trace-ndjson "$BIN/t1.ndjson" > /dev/null
"$BIN/shrimpbench" -exp figure4audu -quick -parallel 4 \
  -trace "$BIN/t2.json" -trace-ndjson "$BIN/t2.ndjson" > /dev/null
python3 -m json.tool "$BIN/t1.json" > /dev/null
diff "$BIN/t1.json" "$BIN/t2.json"
diff "$BIN/t1.ndjson" "$BIN/t2.ndjson"
# Not grep -q: it would exit at the match and, under pipefail, fail the
# step whenever shrimpbench is still writing (SIGPIPE).
"$BIN/shrimpbench" -exp figure4audu -quick -metrics | grep "trace metrics" > /dev/null
echo "trace-smoke: OK"
