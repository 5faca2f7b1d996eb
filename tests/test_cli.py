import json
import os
import subprocess
import sys

import pytest

import subproducts
from subproducts.cli import (
    InvalidRangeError,
    SweepConfig,
    main,
    parse_y_rule,
    run_spectrum_sweep,
    run_verification_suite,
    spectrum_csv,
    verification_report_json,
)


def run_cli(*argv):
    return main(list(argv))


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_parse_y_rule():
    rule = parse_y_rule("p^0.6")
    assert rule(101) == 16
    assert rule(1009) == 64
    assert rule(2) == 1  # clamped below p
    const = parse_y_rule("12")
    assert const(101) == 12
    assert const(7) == 6


def test_sweep_config_validation():
    with pytest.raises(InvalidRangeError):
        SweepConfig(p_min=2, p_max=10).validate()
    with pytest.raises(InvalidRangeError):
        SweepConfig(p_min=11, p_max=5).validate()
    from fractions import Fraction

    with pytest.raises(InvalidRangeError):
        SweepConfig(epsilon=Fraction(1, 5)).validate()
    with pytest.raises(InvalidRangeError):
        SweepConfig(checks=("nonsense",)).validate()


def test_spectrum_rows_small_range():
    rows = run_spectrum_sweep(SweepConfig(p_min=5, p_max=7))
    assert rows == [(5, 2, 2, 2, 4, None), (7, 3, 3, 3, 4, None)]
    text = spectrum_csv(rows)
    assert text.splitlines()[0] == "p,n2,g,G,y,yprime"
    assert text.splitlines()[1] == "5,2,2,2,4,"
    assert text.splitlines()[2] == "7,3,3,3,4,"


def test_spectrum_single_prime():
    rows = run_spectrum_sweep(SweepConfig(p_min=3, p_max=3))
    assert rows == [(3, 2, 2, 2, 2, 2)]


def test_spectrum_empty_range_header_only():
    rows = run_spectrum_sweep(SweepConfig(p_min=24, p_max=28))
    assert rows == []
    assert spectrum_csv(rows) == "p,n2,g,G,y,yprime\n"


def test_spectrum_cli_csv(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert run_cli("spectrum", "--pmin", "3", "--pmax", "20", "--out", str(out)) == 0
    lines = read(out).splitlines()
    assert lines[0] == "p,n2,g,G,y,yprime"
    assert len(lines) == 1 + 7  # primes 3, 5, 7, 11, 13, 17, 19
    assert lines[3] == "7,3,3,3,4,"
    assert read(out).endswith("\n")


def test_spectrum_cli_json(tmp_path):
    out = tmp_path / "spectrum.json"
    assert run_cli("spectrum", "--pmax", "11", "--format", "json", "--out", str(out)) == 0
    payload = json.loads(read(out))
    assert payload["schema_version"] == 1
    assert payload["rows"][0] == {"p": 3, "n2": 2, "g": 2, "G": 2, "y": 2, "yprime": 2}
    assert payload["rows"][-1]["yprime"] == 7


def test_spectrum_workers_agree(tmp_path):
    one = tmp_path / "w1.csv"
    four = tmp_path / "w4.csv"
    assert run_cli("spectrum", "--pmax", "500", "--out", str(one)) == 0
    assert run_cli("spectrum", "--pmax", "500", "--workers", "4", "--out", str(four)) == 0
    assert read(one) == read(four)


def test_counts_cli(tmp_path):
    out = tmp_path / "counts.csv"
    assert run_cli("counts", "--p", "5", "--y", "3", "--out", str(out)) == 0
    assert read(out) == "b,count\n1,4\n2,2\n3,2\n4,0\n"

    out_json = tmp_path / "counts.json"
    assert run_cli(
        "counts", "--p", "5", "--y", "3", "--format", "json", "--out", str(out_json)
    ) == 0
    payload = json.loads(read(out_json))
    assert payload["counts"] == {"1": "4", "2": "2", "3": "2", "4": "0"}


@pytest.mark.parametrize("p", ["0", "1", "9"])
def test_counts_cli_rejects_non_prime(p, capsys):
    assert run_cli("counts", "--p", p, "--y", "3") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {p} is not prime\n"


def test_coverage_cli(tmp_path):
    out = tmp_path / "cov.csv"
    assert run_cli(
        "coverage", "--p", "7", "--a", "2", "--d", "3", "--ymax", "20",
        "--out", str(out),
    ) == 0
    assert read(out).splitlines()[1] == "7,2,3,20,4"
    # non-covered leaves the y column empty
    assert run_cli(
        "coverage", "--p", "5", "--a", "5", "--d", "5", "--ymax", "10",
        "--out", str(out),
    ) == 0
    assert read(out).splitlines()[1] == "5,5,5,10,"


def test_factorize_cli(tmp_path):
    out = tmp_path / "fact.json"
    assert run_cli(
        "factorize", "--n", "60", "--y", "10", "--k", "3",
        "--epsilon", "19/100", "--mode", "ranged", "--format", "json",
        "--out", str(out),
    ) == 0
    payload = json.loads(read(out))
    assert payload["factors"] == [5, 6, 2]
    assert payload["mode"] == "RANGED"

    # hypothesis failures surface as usage-style errors (exit 2)
    assert run_cli(
        "factorize", "--n", "125", "--y", "10", "--k", "2", "--mode", "kway"
    ) == 2


def test_charsum_cli(tmp_path):
    out = tmp_path / "sum.json"
    assert run_cli(
        "charsum", "--p", "5", "--k", "2", "--t", "4", "--format", "json",
        "--out", str(out),
    ) == 0
    payload = json.loads(read(out))
    assert abs(payload["re"]) < 1e-12 and abs(payload["im"]) < 1e-12


def test_verify_selected_checks(tmp_path):
    cfg = SweepConfig(p_min=3, p_max=61, checks=("lemmas",))
    records = run_verification_suite(cfg)
    assert [r.name for r in records] == [
        "lemma_circle_bound",
        "lemma_z_grid",
        "lemma_near_one_scan",
    ]
    assert all(r.status == "PASS" for r in records)


def test_verify_report_deterministic():
    cfg = SweepConfig(p_min=3, p_max=61, checks=("lemmas", "friable"), seed=5)
    first = verification_report_json(cfg, run_verification_suite(cfg))
    second = verification_report_json(cfg, run_verification_suite(cfg))
    assert first == second
    assert json.loads(first)["schema_version"] == 1
    # elapsed time never enters the serialized report
    assert "elapsed" not in first


def test_verify_cli_exit_code(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        "verify", "--checks", "friable", "--pmax", "61", "--out", str(out)
    )
    assert code == 0
    payload = json.loads(read(out))
    names = [r["name"] for r in payload["records"]]
    assert names == ["friable_count_discrepancy"]
    assert payload["records"][0]["status"] == "REPORT"


def test_cli_usage_error_exit_2():
    assert run_cli("spectrum", "--pmin", "7", "--pmax", "3") == 2


def test_console_script_runs():
    # the child imports the same package as this test, installed or not
    src = os.path.dirname(os.path.dirname(subproducts.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "subproducts.cli", "counts", "--p", "3", "--y", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "b,count\n1,2\n2,2\n"
