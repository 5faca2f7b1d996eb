#!/usr/bin/env bash
# The pooled sweep streams its rows into --out, and spools them for stdout;
# under -X dev -W error an unclosed pipe or file, or a row generator left to
# the garbage collector, prints a warning, so stderr must stay empty, and the
# two outputs must be the same bytes.  Writes its files under $RUNNER_TEMP.
set -euo pipefail
cd "$(dirname "$0")/.."

cmd="python -X dev -W error -m subproducts.cli spectrum --pmax 20000 --workers 2"
$cmd > "$RUNNER_TEMP/spectrum-stdout.csv" 2> "$RUNNER_TEMP/spectrum-stdout.err" \
    || { cat "$RUNNER_TEMP/spectrum-stdout.err"; exit 1; }
$cmd --out "$RUNNER_TEMP/spectrum-out.csv" 2> "$RUNNER_TEMP/spectrum-out.err" \
    || { cat "$RUNNER_TEMP/spectrum-out.err"; exit 1; }
cat "$RUNNER_TEMP/spectrum-stdout.err" "$RUNNER_TEMP/spectrum-out.err"
test ! -s "$RUNNER_TEMP/spectrum-stdout.err" && test ! -s "$RUNNER_TEMP/spectrum-out.err"
cmp "$RUNNER_TEMP/spectrum-stdout.csv" "$RUNNER_TEMP/spectrum-out.csv"
