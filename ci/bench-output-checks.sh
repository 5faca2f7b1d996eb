#!/usr/bin/env bash
# bench/run.py checks every output apart from the program (numpy, sympy);
# its last line must report every output correct and none failed.
# spectrum-wide runs its 2-worker pool, so the forked workers and their
# pipes are checked too.  Each workload runs untraced and traced: --trace 1
# installs the span tracer, which breaks if a traced name moves or leaves
# its module.  Writes its files under $RUNNER_TEMP.
set -euo pipefail
cd "$(dirname "$0")/.."

for w in verify-scans verify-default spectrum-wide; do
  for trace in 0 1; do
    out="$RUNNER_TEMP/bench-$w-trace$trace.out"
    python bench/run.py --workload "$w" --seed 1 --seconds 1 --tiny --trace "$trace" > "$out"
    tail -n 1 "$out"
    tail -n 1 "$out" | python -c 'import json, sys; r = json.loads(sys.stdin.read()); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)'
  done
done
