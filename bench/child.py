"""One benchmark operation, run in a fresh interpreter by run.py.

Set-up is interpreter start, `import subproducts` (with its `cli`) and
building the command line; the child prints `ready` when it is done, so
the parent can time it.  The timed region is then one cold call of
`subproducts.cli.main(argv)`.  The last line on stdout is a JSON object
with the exit code, the wall time, the peak resident memory and, when
traced, the per-layer summary.

    python3 bench/child.py --workload NAME --seed N --out PATH
        [--tiny] [--one-worker] [--trace-file PATH] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--one-worker", action="store_true")
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import subproducts.cli

    import workloads

    argv = workloads.command(
        args.workload, args.seed, args.out, tiny=args.tiny, one_worker=args.one_worker
    )
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace_file:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(subproducts)

    start = perf_counter()
    code = subproducts.cli.main(argv)
    wall = perf_counter() - start

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    n_workers = 1 if args.one_worker else workloads.workers(args.workload)
    # each pool worker counts at the largest worker's peak; a run at one
    # worker starts no process, so worker_kb is 0 there
    peak_kb = self_kb + n_workers * worker_kb
    result = {"exit": code, "wall_s": wall, "peak_rss_mb": peak_kb / 1024.0}
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.dump(args.trace_file)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
