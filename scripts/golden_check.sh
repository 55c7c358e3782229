#!/usr/bin/env bash
# Golden checksum: builds shrimpbench, runs the full quick experiment
# sweep in both output formats, and compares SHA-256 digests of the raw
# byte streams against the committed golden file. This pins the
# simulation's observable output across refactors: a scheduler change
# that preserves the (t, seq) event order — like PR 6's continuation
# engines — keeps the digests stable, while any behavioral drift, down
# to one packet's timestamp, fails loudly with a text diff to chase.
#
#   scripts/golden_check.sh           # verify against scripts/golden.sha256
#   scripts/golden_check.sh -update   # regenerate the golden file
#
# The sweep runs at -parallel 1 and -parallel 4 and requires both to
# match the same digest, so the check also covers the cross-worker
# determinism invariant. Used by `make golden` and the CI "Golden
# output" step.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${BIN:-bin}
GOLDEN=scripts/golden.sha256
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

go build -o "$BIN/shrimpbench" ./cmd/shrimpbench

for p in 1 4; do
    "$BIN/shrimpbench" -exp all -quick -parallel "$p" >"$WORK/text.$p"
    "$BIN/shrimpbench" -exp all -quick -parallel "$p" -json >"$WORK/json.$p"
    # The open-loop load family is hidden from "-exp all" (it measures
    # services, not batch apps) but pinned under its own digests.
    "$BIN/shrimpbench" -exp load -quick -parallel "$p" >"$WORK/loadtext.$p"
    "$BIN/shrimpbench" -exp load -quick -parallel "$p" -json >"$WORK/loadjson.$p"
    # At default sizes the load family's socket/au cells stream long
    # automatic-update runs, which the quick sizes barely reach; pin
    # them too (about a second per width).
    "$BIN/shrimpbench" -exp load -parallel "$p" -json >"$WORK/loaddefaultjson.$p"
    # The twin calibration report is a CI artifact with the same
    # contract: byte-identical whatever the worker count, pinned under
    # its own digests.
    "$BIN/shrimpbench" -quick -calibrate -parallel "$p" >"$WORK/calibtext.$p"
    "$BIN/shrimpbench" -quick -calibrate -parallel "$p" -json >"$WORK/calibjson.$p"
    # Twin-only predictions (no simulation): the instant answers
    # shrimpd's POST /v1/twin serves, for every experiment and the load
    # family.
    "$BIN/shrimpbench" -quick -twin -exp all,load -parallel "$p" >"$WORK/twintext.$p"
    "$BIN/shrimpbench" -quick -twin -json -exp all,load -parallel "$p" >"$WORK/twinjson.$p"
done
for kind in text json loadtext loadjson loaddefaultjson calibtext calibjson twintext twinjson; do
    if ! cmp -s "$WORK/$kind.1" "$WORK/$kind.4"; then
        echo "golden: $kind output differs between -parallel 1 and -parallel 4" >&2
        exit 1
    fi
done

digest() { sha256sum "$1" | cut -d' ' -f1; }
NEW=$(printf 'text %s\njson %s\nloadtext %s\nloadjson %s\ncalibtext %s\ncalibjson %s\nloaddefaultjson %s\ntwintext %s\ntwinjson %s\n' \
    "$(digest "$WORK/text.1")" "$(digest "$WORK/json.1")" \
    "$(digest "$WORK/loadtext.1")" "$(digest "$WORK/loadjson.1")" \
    "$(digest "$WORK/calibtext.1")" "$(digest "$WORK/calibjson.1")" \
    "$(digest "$WORK/loaddefaultjson.1")" \
    "$(digest "$WORK/twintext.1")" "$(digest "$WORK/twinjson.1")")

if [ "${1:-}" = "-update" ]; then
    printf '%s\n' "$NEW" >"$GOLDEN"
    echo "golden: updated $GOLDEN"
    printf '%s\n' "$NEW"
    exit 0
fi

if [ ! -f "$GOLDEN" ]; then
    echo "golden: $GOLDEN missing; run scripts/golden_check.sh -update" >&2
    exit 1
fi
if [ "$NEW" != "$(cat "$GOLDEN")" ]; then
    echo "golden: output digests diverge from $GOLDEN" >&2
    echo "--- committed" >&2
    cat "$GOLDEN" >&2
    echo "--- current" >&2
    printf '%s\n' "$NEW" >&2
    echo "If the change is intentional, rerun with -update and commit the new digests" >&2
    echo "together with an explanation of the behavioral change." >&2
    exit 1
fi
echo "golden: output matches $GOLDEN (text+json+load+default-size load+calib+twin, -parallel 1 and 4)"
