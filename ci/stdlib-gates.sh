#!/usr/bin/env bash
# The gates that need nothing but the standard library, so they also run on
# interpreters that have no pytest.  They run once for each interpreter in
# the space-separated STDLIB_GATE_PYTHONS, by default the running python:
# - py_compile of every module of src/subproducts/, a grammar check on that
#   version;
# - the verify report at seeds 0-3, and spectrum --pmax 30000 as CSV and as
#   JSON at 1 and 2 workers, against the sha256 digests that
#   tests/test_cli.py pins.  They are read from that file, so there is no
#   second copy to drift;
# - tests/test_cli.py's SWEEP_PATH_LOADS: the sweep, its workers, counts and
#   coverage load neither fractions nor decimal, nor the character and
#   factorization stacks.
# Writes its files under $RUNNER_TEMP, and leaves no bytecode in src/.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONDONTWRITEBYTECODE=1

tmp=$(mktemp -d "${RUNNER_TEMP:-/tmp}/stdlib-gates.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
for py in ${STDLIB_GATE_PYTHONS:-python}; do
  PYTHONPATH=src "$py" - "$tmp" <<'EOF'
import ast
import hashlib
import os
import pathlib
import py_compile
import re
import subprocess
import sys

tmp = sys.argv[1]
print(f"== {sys.executable}: Python {sys.version.split()[0]}", flush=True)
for i, path in enumerate(sorted(pathlib.Path("src/subproducts").glob("*.py"))):
    py_compile.compile(str(path), cfile=os.path.join(tmp, f"{i}.pyc"), doraise=True)

tree = ast.parse(pathlib.Path("tests/test_cli.py").read_text(encoding="utf-8"))
tests = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def parametrized(test):
    """The argument rows of the test's pytest.mark.parametrize."""
    (call,) = [d for d in tests[test].decorator_list
               if isinstance(d, ast.Call) and getattr(d.func, "attr", "") == "parametrize"]
    return ast.literal_eval(call.args[1])


def digests_in(test):
    return [node.value for node in ast.walk(tests[test]) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and re.fullmatch(r"[0-9a-f]{64}", node.value)]


(serial_csv,) = digests_in("test_spectrum_golden_csv")
runs = [(["verify", "--seed", str(seed)], digest)
        for seed, digest in parametrized("test_verify_default_golden_json")]
runs += [(["spectrum", "--pmax", "30000", "--workers", str(workers), "--format", fmt], digest)
         for fmt, workers, digest in [("csv", 1, serial_csv)]
         + parametrized("test_spectrum_golden_streamed_outputs")]
assert len(runs) == 8, runs
failed = 0
for argv, digest in runs:
    out = os.path.join(tmp, "out")
    proc = subprocess.run([sys.executable, "-m", "subproducts.cli", *argv, "--out", out],
                          stdin=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    with open(out, "rb") as fh:
        got = hashlib.sha256(fh.read()).hexdigest()
    print(("ok  " if got == digest else "BAD ") + " ".join(argv), flush=True)
    failed += got != digest

(loads,) = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
            and [t.id for t in node.targets] == ["SWEEP_PATH_LOADS"]]
subprocess.run([sys.executable, "-c", loads], stdin=subprocess.DEVNULL, check=True)
print("ok  the sweep path loads none of LAZY", flush=True)
sys.exit(1 if failed else 0)
EOF
done
