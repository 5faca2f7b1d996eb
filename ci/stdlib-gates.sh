#!/usr/bin/env bash
# The gates that need nothing but the standard library, so they also run on
# interpreters that have no pytest.  They run once for each interpreter in
# the space-separated STDLIB_GATE_PYTHONS, by default the running python:
# - py_compile of every module of src/subproducts/, a grammar check on that
#   version;
# - the verify report at seeds 0-3, and spectrum --pmax 30000 as CSV and as
#   JSON at 1 and 2 workers, against the sha256 digests that
#   tests/test_cli.py pins.  They are read from that file, so there is no
#   second copy to drift.  Each spectrum run is made under -X dev -W error,
#   once to --out and once to stdout: the pooled sweep streams its rows
#   into --out and spools them for stdout, and an unclosed pipe or file, or
#   a row generator left to the garbage collector, prints a warning there,
#   so both outputs must give the digest and stderr must stay empty;
# - every row of tests/test_cli.py's BAD_INPUTS whose argv and message are
#   literals: each must exit 2 with no stdout and one "error: " line on
#   stderr that holds the row's message;
# - every subcommand's --help: each must exit 0 and list every flag that
#   the command table in src/subproducts/cli.py gives it;
# - counts --p 3 --y 50000 as CSV and as JSON: both nonzero residues count
#   2^33333 subsets, 10035 digits, past the 4300 digits that int and str
#   convert by default;
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
import json
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
out = os.path.join(tmp, "out")
for argv, digest in runs:
    dev = ["-X", "dev", "-W", "error"] if argv[0] == "spectrum" else []
    for dest in (["--out", out], []) if dev else (["--out", out],):
        cmd = [sys.executable, *dev, "-m", "subproducts.cli", *argv, *dest]
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True)
        if proc.returncode or (dev and proc.stderr):
            sys.exit(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr.decode()}")
        if dest:
            with open(out, "rb") as fh:
                data = fh.read()
        else:
            data = proc.stdout
        got = hashlib.sha256(data).hexdigest()
        where = f" (-X dev, {'--out' if dest else 'stdout'})" if dev else ""
        print(("ok  " if got == digest else "BAD ") + " ".join(argv) + where, flush=True)
        failed += got != digest


def assigned(name):
    """The value of tests/test_cli.py's module-level `name = ...`, unevaluated."""
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == [name]]
    return value


def cli(*argv):
    return subprocess.run([sys.executable, "-m", "subproducts.cli", *argv],
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)


rows = assigned("BAD_INPUTS").elts
refusals = []
for row in rows:
    try:
        refusals.append([ast.literal_eval(arg) for arg in row.args])
    except ValueError:
        pass  # argv or message built by an expression: only pytest runs the row
assert (len(refusals), len(rows)) == (60, 73), (len(refusals), len(rows))
for argv, message in refusals:
    proc = cli(*argv)
    ok = (proc.returncode == 2 and proc.stdout == "" and proc.stderr.startswith("error: ")
          and proc.stderr.count("\n") == 1 and message in proc.stderr)
    print(("ok  " if ok else "BAD ") + " ".join(argv) + " exits 2", flush=True)
    failed += not ok

import subproducts.cli

for command, (_, _, required, optional) in subproducts.cli._COMMANDS.items():
    proc = cli(command, "--help")
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", proc.stdout))
    ok = proc.returncode == 0 and listed >= {*required, *optional}
    print(("ok  " if ok else "BAD ") + f"{command} --help", flush=True)
    failed += not ok

getattr(sys, "set_int_max_str_digits", lambda maxdigits: None)(0)
count = str(2**33333)
assert len(count) == 10035
for fmt, want in [
    ("csv", f"b,count\n1,{count}\n2,{count}\n"),
    ("json", {"counts": {"1": count, "2": count}, "p": 3, "schema_version": 1, "y": 50000}),
]:
    proc = cli("counts", "--p", "3", "--y", "50000", "--format", fmt)
    ok = proc.returncode == 0 and (json.loads(proc.stdout) if fmt == "json" else proc.stdout) == want
    print(("ok  " if ok else "BAD ") + f"counts --p 3 --y 50000 --format {fmt}", flush=True)
    failed += not ok

loads = ast.literal_eval(assigned("SWEEP_PATH_LOADS"))
subprocess.run([sys.executable, "-c", loads], stdin=subprocess.DEVNULL, check=True)
print("ok  the sweep path loads none of LAZY", flush=True)
sys.exit(1 if failed else 0)
EOF
done
