"""End-to-end benchmark of the `subproducts` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one cold call of `subproducts.cli.main(argv)` in a fresh
interpreter (bench/child.py).  Operations run in whole rounds until S
seconds have passed: two at a time for single-process workloads, one at a
time for the pooled one, so that at most two processes run at once on
this two-core host.  Every output is then checked apart from the program
(bench/checks.py).

With --trace 0 the last stdout line reports the end-to-end metrics:
median wall time, rows (spectrum rows or verify records) per second and
peak RSS over the operations, and the median of the set-up-only launches
made between the rounds.  With --trace 1 each round runs one untraced and
one traced operation side by side, both single-process, and reports the
median per-layer metrics of the traced ones (bench/tracing.py) and the
wall-time difference as trace.overhead_s.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median
from time import perf_counter

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, ".out")

# set-up-only launches before each round and after the last one, so that
# setup_s samples the whole run and not one moment of a drifting host
SETUP_PROBES_PER_GAP = 4
OP_TIMEOUT_S = 150
# spectrum rows whose G, y and y' are recomputed per checked output
SAMPLE_ROWS = 20


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def spawn(workload, seed, out, tiny, one_worker=False, trace_file=None, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--out", out]
    if tiny:
        cmd.append("--tiny")
    if one_worker:
        cmd.append("--one-worker")
    if trace_file:
        cmd += ["--trace-file", trace_file]
    if setup_only:
        cmd.append("--setup-only")
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def finish(proc: subprocess.Popen) -> tuple[str, str]:
    """Wait for a child within the time limit; kill it if it overruns."""
    try:
        return proc.communicate(timeout=OP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def setup_seconds(workload, seed, tiny) -> float:
    """Time from launch until the child has imported and built its inputs."""
    out = os.path.join(OUT_DIR, f"setup-{os.getpid()}")
    start = perf_counter()
    proc = spawn(workload, seed, out, tiny, setup_only=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
    finally:
        _, err = finish(proc)
    if line != "ready\n" or proc.returncode != 0:
        raise BenchError(f"set-up failed: {err.strip()}")
    return elapsed


def run_round(workload, seed, tiny, trace, round_no) -> list[dict]:
    """Start the round's operations together and collect their results."""
    ext = "json" if workload.startswith("verify") else "csv"
    if trace:
        specs = [{"one_worker": True},
                 {"one_worker": True,
                  "trace_file": os.path.join(OUT_DIR, f"trace-{workload}.json")}]
    elif workloads.workers(workload) > 1:
        specs = [{}]
    else:
        specs = [{}, {}]
    ops = []
    for slot, spec in enumerate(specs):
        out = os.path.join(OUT_DIR, f"{workload}-{os.getpid()}-{round_no}-{slot}.{ext}")
        ops.append({"out": out, "traced": "trace_file" in spec,
                    "proc": spawn(workload, seed, out, tiny, **spec)})
    try:
        for op in ops:
            stdout, op["stderr"] = finish(op["proc"])
            op["exit"] = op["proc"].returncode
            lines = stdout.strip().splitlines()
            op["result"] = json.loads(lines[-1]) if op["exit"] == 0 and lines else None
    finally:
        for op in ops:
            if op["proc"].poll() is None:
                op["proc"].kill()
                op["proc"].wait()
    return ops


def check_output(workload, seed, tiny, text) -> list[str]:
    # Imported only once the operations are done: on Linux a child's
    # ru_maxrss keeps the high-water mark of the process it was forked
    # from, so the launcher stays small while children run.
    import checks

    if workload.startswith("verify"):
        return checks.check_verify(text, workload, seed, tiny)
    pmin, pmax = workloads.spectrum_range(tiny)
    return checks.check_spectrum(text, pmin, pmax, seed, SAMPLE_ROWS)


def count_rows(workload, text) -> int:
    if workload.startswith("verify"):
        return len(json.loads(text)["records"])
    return text.count("\n") - 1


def measure(workload, seed, seconds, trace, tiny) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    probes = 0 if trace else SETUP_PROBES_PER_GAP
    setups, ops = [], []
    start = perf_counter()
    while True:
        setups += [setup_seconds(workload, seed, tiny) for _ in range(probes)]
        ops += run_round(workload, seed, tiny, trace, len(ops))
        if perf_counter() - start >= seconds:
            break
    setups += [setup_seconds(workload, seed, tiny) for _ in range(probes)]

    verdicts: dict[str, list[str]] = {}
    done = []
    for op in ops:
        if op["result"] is None or op["result"]["exit"] != 0:
            print(f"failed operation (exit {op['exit']}): {op['stderr'].strip()[-500:]}",
                  file=sys.stderr)
            continue
        with open(op["out"], encoding="utf-8") as fh:
            text = fh.read()
        os.unlink(op["out"])
        if text not in verdicts:
            verdicts[text] = check_output(workload, seed, tiny, text)
            for error in verdicts[text]:
                print(f"check failed: {error}", file=sys.stderr)
        op["rows"] = count_rows(workload, text)
        done.append(op)
    if not done:
        raise BenchError("no operation completed")

    if trace:
        traced = [op["result"] for op in done if op["traced"]]
        plain = [op["result"]["wall_s"] for op in done if not op["traced"]]
        if not traced or not plain:
            raise BenchError("a traced round did not complete")
        metrics = {}
        for name in tracing.metric_names():
            if name == tracing.OVERHEAD_METRIC:
                value = median([r["wall_s"] for r in traced]) - median(plain)
            else:
                value = median([r["layers"][name] for r in traced])
            metrics[name] = {"value": value, "unit": tracing.metric_unit(name)}
    else:
        results = [op["result"] for op in done]
        metrics = {
            "wall_s": {"value": median([r["wall_s"] for r in results]), "unit": "s"},
            "rows_per_s": {"value": median([op["rows"] / op["result"]["wall_s"] for op in done]),
                           "unit": "1/s"},
            "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in results]), "unit": "MB"},
            "setup_s": {"value": median(setups), "unit": "s"},
        }
    return {
        "correct": not any(verdicts.values()),
        "attempted": len(ops),
        "failed": len(ops) - len(done),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's self-test")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "subproducts", "cli.py")):
        print(f"error: no subproducts sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
