"""Fast tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

A tiny-size smoke run of every workload, traced and untraced, and for
each output checker a deliberately corrupted output that it must reject.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from subproducts import cli  # noqa: E402


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def declared(kind: str) -> dict[str, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = declared("per_layer" if trace == "1" else "end_to_end")
    assert sorted(result["metrics"]) == sorted(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]["unit"]
        if trace == "0":
            assert metric["value"] > 0


def test_declared_per_layer_metrics_match_tracer():
    assert list(declared("per_layer")) == tracing.metric_names()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("--workload", "spectrum-wide", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_catches_calls_through_imported_names():
    import subproducts
    from subproducts import characters, friable, modcore, subsetprod

    original = modcore.build_context
    tracer = tracing.Tracer()
    tracer.install(subproducts)
    try:
        assert subsetprod.build_context is modcore.build_context is not original
        subsetprod.y_prime_of_p(101)
        characters.build_A_chi(original(101), 1, 10, 30, 20.0, 5.0)
    finally:
        tracer.uninstall()
    assert subsetprod.build_context is original
    assert friable.largest_prime_factor is characters.largest_prime_factor
    assert not hasattr(friable.largest_prime_factor, "__wrapped__")
    summary = tracer.summary()
    assert summary["modcore.build_context.calls"] == 1
    assert summary["modcore.build_context.table_entries"] == 101
    assert summary["modcore.primes_up_to.calls"] == 1
    assert summary["friable.largest_prime_factor.calls"] == 10
    assert summary["subsetprod.prime_coverage_threshold.self_s"] > 0


# ---------------------------------------------------------------------------
# checkers reject corrupted outputs


@pytest.fixture(scope="module")
def spectrum_text(tmp_path_factory):
    out = tmp_path_factory.mktemp("spectrum") / "rows.csv"
    assert cli.main(["spectrum", "--pmin", "3", "--pmax", "400", "--out", str(out)]) == 0
    return out.read_text()


def corrupt_row(text: str, p: int, column: int, delta: int) -> str:
    lines = text.split("\n")
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[0] == str(p):
            fields[column] = str(int(fields[column]) + delta)
            lines[i] = ",".join(fields)
    return "\n".join(lines)


def test_spectrum_checker_accepts_program_output(spectrum_text):
    assert checks.check_spectrum(spectrum_text, 3, 400, seed=1, samples=100) == []


@pytest.mark.parametrize("column,name", [(1, "n2"), (2, "g"), (3, "G"), (4, "y"), (5, "yprime")])
def test_spectrum_checker_rejects_value_lowered_by_one(spectrum_text, column, name):
    rows = checks.parse_spectrum(spectrum_text)
    p = next(row[0] for row in rows if row[column] and row[column] > 2 and row[0] > 100)
    bad = corrupt_row(spectrum_text, p, column, -1)
    assert checks.check_spectrum(bad, 3, 400, seed=1, samples=len(rows)) != [], name


def test_spectrum_checker_rejects_missing_row(spectrum_text):
    lines = spectrum_text.split("\n")
    del lines[5]
    assert checks.check_spectrum("\n".join(lines), 3, 400, seed=1, samples=0) != []


def test_spectrum_checker_rejects_chain_violation(spectrum_text):
    rows = checks.parse_spectrum(spectrum_text)
    p, _, _, big_g, y, _ = rows[40]
    bad = corrupt_row(spectrum_text, p, 4, big_g - 1 - y)  # y below G
    assert checks.check_spectrum(bad, 3, 400, seed=1, samples=0) != []


@pytest.fixture(scope="module")
def verify_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "report.json"
    argv = workloads.command("verify-default", 7, str(out), tiny=True)
    assert cli.main(argv) == 0
    return json.loads(out.read_text())


def check_report(report: dict) -> list[str]:
    return checks.check_verify(json.dumps(report), "verify-default", 7, tiny=True)


def record(report: dict, name: str) -> dict:
    return next(r for r in report["records"] if r["name"] == name)


def test_verify_checker_accepts_program_output(verify_report):
    assert check_report(verify_report) == []


def _ulp_up(report):
    rec = record(report, "theorem_error_ratio")["metrics"]["101"]
    rec["ratio"] = math.nextafter(rec["ratio"], math.inf)


def _burgess(report):
    record(report, "burgess_cancellation_ratio")["metrics"]["101"]["max_ratio"] *= 1.001


def _pv(report):
    record(report, "polya_vinogradov_scan")["metrics"]["worst_ratio_to_bound"] *= 1.001


def _friable(report):
    record(report, "friable_count_discrepancy")["metrics"]["per_y"]["100"] *= 1.001


def _counter(report):
    record(report, "mass_conservation")["metrics"]["failures"] = 1


def _status(report):
    record(report, "lemma_z_grid")["status"] = "FAIL"


def _shrinks(report):
    record(report, "theorem_error_shrinks")["status"] = "FAIL"


def _primes(report):
    record(report, "spectrum_chain")["metrics"]["primes"] += 1


def _seed(report):
    report["config"]["seed"] += 1


def _dropped(report):
    report["records"].pop()


@pytest.mark.parametrize("corrupt", [
    _ulp_up, _burgess, _pv, _friable, _counter, _status, _shrinks, _primes, _seed, _dropped,
])
def test_verify_checker_rejects_corrupted_report(verify_report, corrupt):
    bad = copy.deepcopy(verify_report)
    corrupt(bad)
    assert check_report(bad) != []
