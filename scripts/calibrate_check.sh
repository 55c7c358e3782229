#!/usr/bin/env bash
# Calibration gate: runs every registry experiment through both the
# analytical twin and the simulator (shrimpbench -calibrate), writes
# the report as a standing artifact (text + JSON under $BIN), and fails
# if any experiment's error regresses past the pinned thresholds.
#
# The thresholds are deliberately looser than the current fit (see
# docs/twin.md for today's numbers): they are a regression tripwire,
# not a precision target. Tightening them after a modeling improvement
# is encouraged; loosening them needs the same justification as a
# golden-digest update.
#
#   scripts/calibrate_check.sh        # run + gate
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${BIN:-bin}
mkdir -p "$BIN"

go build -o "$BIN/shrimpbench" ./cmd/shrimpbench
"$BIN/shrimpbench" -quick -calibrate -parallel 4 >"$BIN/calibration.txt"
"$BIN/shrimpbench" -quick -calibrate -parallel 4 -json >"$BIN/calibration.json"

# Per-experiment gates: max MAPE (percent) and min Spearman rank
# correlation of twin-predicted vs simulated ordering. "overall" gates
# the pair-weighted aggregate error.
THRESHOLDS='
latency     10   0.90
table1      10   0.90
figure3     15   0.90
figure4svm  20   0.70
figure4audu 20   0.80
table2      25   0.90
table3      25   0.85
table4      25   0.85
combining   25   0.85
fifo        20   0.65
duqueue     15   0.85
load        50   0.70
perpacket   35   0.80
overall     22   -
'

fail=0
while read -r name maxmape minrc; do
    [ -z "$name" ] && continue
    line=$(awk -v n="$name" '$1 == n { print; exit }' "$BIN/calibration.txt")
    if [ -z "$line" ]; then
        echo "calibrate: experiment $name missing from report" >&2
        fail=1
        continue
    fi
    mape=$(echo "$line" | awk '{ gsub("%", "", $3); print $3 }')
    if awk -v m="$mape" -v t="$maxmape" 'BEGIN { exit !(m > t) }'; then
        echo "calibrate: $name MAPE $mape% exceeds pinned $maxmape%" >&2
        fail=1
    fi
    if [ "$minrc" != "-" ]; then
        rc=$(echo "$line" | awk '{ print $4 }')
        if awk -v r="$rc" -v t="$minrc" 'BEGIN { exit !(r < t) }'; then
            echo "calibrate: $name rank correlation $rc below pinned $minrc" >&2
            fail=1
        fi
    fi
done <<<"$THRESHOLDS"

if [ "$fail" -ne 0 ]; then
    echo "calibrate: twin accuracy regressed; report kept at $BIN/calibration.txt" >&2
    exit 1
fi
echo "calibrate: all experiments within pinned thresholds ($BIN/calibration.txt)"
