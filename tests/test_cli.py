import hashlib
import json
import math
import os
import re
import select
import shutil
import signal
import stat
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal

import pytest
import sympy

import subproducts
from subproducts import characters, cli, friable, modcore, subsetprod, sweep
from subproducts.cli import (
    ChainViolationError,
    SweepConfig,
    main,
    run_spectrum_sweep,
    run_verification_suite,
    spectrum_csv,
    verification_report_json,
)
from subproducts.config import ALL_CHECKS, parse_y_rule


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


def test_parse_y_rule_is_exact():
    # p^(a/b) is the least y with y^b >= p^a, clamped to [1, p-1]
    for p in modcore.primes_between(2, 2000):
        assert parse_y_rule("p^3/5")(p) == parse_y_rule("p^0.6")(p)
        assert parse_y_rule("p^0.6")(p) == min(p - 1, max(1, math.ceil(p**0.6)))
    assert parse_y_rule("p^2")(101) == parse_y_rule("p^1")(101) == 100
    assert parse_y_rule("p^-1")(101) == parse_y_rule("p^0")(101) == 1
    assert parse_y_rule("p^10000")(101) == 100
    assert parse_y_rule("p^1/10000")(101) == 2  # 1 < 101^(1/10000) <= 2
    for rule in ("p^abc", "p^inf", "p^nan", "p^1e308", "p^1/0", "p^1/10001",
                 "p^10001", "p^-10001", "p^1e1000000"):
        with pytest.raises(ValueError):
            parse_y_rule(rule)
    # six exponent digits (leading zeros aside) are still expanded and read
    assert parse_y_rule("p^0.0006e0003")(101) == parse_y_rule("p^6/10")(101) == 16
    assert parse_y_rule("p^6e-000000001")(101) == 16


def test_sweep_config_validation():
    with pytest.raises(ValueError, match=r"^need 3 <= pmin <= pmax, got \[2, 10\]$"):
        SweepConfig(p_min=2, p_max=10).validate()
    with pytest.raises(ValueError, match=r"^need 3 <= pmin <= pmax, got \[11, 5\]$"):
        SweepConfig(p_min=11, p_max=5).validate()
    with pytest.raises(ValueError, match=r"^unknown checks: \['nonsense'\]$"):
        SweepConfig(checks=("nonsense",)).validate()
    # a y-rule must parse and evaluate up to pmax; with the theorem check it
    # must also put y above ceil(p^0.25) at every theorem prime <= pmax
    for rule in ("p^abc", "p^inf", "p^nan", "p^1e308"):
        with pytest.raises(ValueError, match=re.escape(f"bad y-rule {rule!r}: ")):
            SweepConfig(y_rule=rule).validate()
    for rule in ("0", "p^0.25"):
        gives = re.escape(f"y-rule {rule!r} gives y=")
        with pytest.raises(ValueError, match=gives + ".*; the theorem check needs y above"):
            SweepConfig(y_rule=rule).validate()
    SweepConfig(y_rule="0", checks=("spectrum", "lemmas")).validate()
    # a y-rule is judged only where the theorem check runs
    SweepConfig(y_rule="0", p_max=100,
                checks=tuple(c for c in ALL_CHECKS if c not in ("theorem", "burgess"))).validate()
    # the burgess check, like the theorem check, needs its least prime up to pmax
    with pytest.raises(ValueError, match=r"^the burgess check needs pmax >= 101, its least "
                                         r"prime; got pmax=100$"):
        SweepConfig(p_max=100, checks=("burgess",)).validate()
    SweepConfig(p_max=101, checks=("burgess",)).validate()
    # and so do the lemmas: below p = 5 the near-one scan has no hypothesis hit
    with pytest.raises(ValueError, match=r"^the lemmas check needs pmax >= 5, its least "
                                         r"prime; got pmax=3$"):
        SweepConfig(p_max=3, checks=("lemmas",)).validate()
    SweepConfig(p_max=5, checks=("lemmas",)).validate()
    # the spectrum check needs a prime in its range, which may be one prime
    for p_min, p_max in ((4, 4), (24, 28), (1328, 1360)):
        with pytest.raises(ValueError,
                           match=rf"^the spectrum check needs a prime in \[{p_min}, {p_max}\]$"):
            SweepConfig(p_min=p_min, p_max=p_max, checks=("spectrum",)).validate()
    for p_min, p_max in ((3, 3), (1327, 1327), (1328, 1361)):
        SweepConfig(p_min=p_min, p_max=p_max, checks=("spectrum",)).validate()
    SweepConfig(y_rule="p^2").validate()  # clamped to p - 1
    # pmax is capped before anything is sieved
    SweepConfig(p_max=modcore.MAX_TABLE_PRIME).validate()
    for p_max in (modcore.MAX_TABLE_PRIME + 1, 10**30):
        cap = f"^pmax={p_max} exceeds the index-table cap {modcore.MAX_TABLE_PRIME}$"
        with pytest.raises(ValueError, match=cap):
            SweepConfig(p_max=p_max).validate()


def test_sweep_refuses_its_range_and_pool_at_the_call(monkeypatch):
    # each refusal comes from the call, before a row is read: no prime is
    # streamed and no worker forked.  A call that passes makes its stream
    calls = []
    monkeypatch.setattr(modcore, "iter_primes", lambda *args: calls.append(args))
    if FORK:
        monkeypatch.setattr(cli.os, "fork", lambda: calls.append("fork"))
    cap = modcore.MAX_TABLE_PRIME
    for args, message in (
        ((2, 10), r"need 3 <= pmin <= pmax, got \[2, 10\]"),
        ((11, 5, 2), r"need 3 <= pmin <= pmax, got \[11, 5\]"),
        ((3, cap + 1, 2), f"pmax={cap + 1} exceeds the index-table cap {cap}"),
        ((3, 10**30), f"pmax={10**30} exceeds the index-table cap {cap}"),
        ((3, 100, 0), "workers must be >= 1"),
        ((3, 100, -1), "workers must be >= 1"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_spectrum_sweep(*args)
    assert calls == []
    run_spectrum_sweep(3, 100, 2)
    assert calls == [(3, 100)]


def test_spectrum_rows_small_range():
    rows = list(run_spectrum_sweep(5, 7))
    assert rows == [(5, 2, 2, 2, 4, None), (7, 3, 3, 3, 4, None)]
    text = "".join(spectrum_csv(rows))
    assert text.splitlines()[0] == "p,n2,g,G,y,yprime"
    assert text.splitlines()[1] == "5,2,2,2,4,"
    assert text.splitlines()[2] == "7,3,3,3,4,"


def test_spectrum_single_prime():
    rows = list(run_spectrum_sweep(3, 3))
    assert rows == [(3, 2, 2, 2, 2, 2)]


def test_spectrum_empty_range_header_only():
    rows = list(run_spectrum_sweep(24, 28))
    assert rows == []
    assert "".join(spectrum_csv(rows)) == "p,n2,g,G,y,yprime\n"


@pytest.mark.parametrize("window", [1, 7, 64])
@pytest.mark.usefixtures("cold_prime_caches")
def test_sweep_sieves_its_range_window_by_window(monkeypatch, window):
    # windows narrower than the range: every prime once, in order, and the
    # pool's rows are the serial rows.  The sweep's primes come from
    # modcore.iter_primes, which sieves windows only above the cached small
    # primes, so some ranges reach past SMALL_PRIME_LIMIT = 4096
    monkeypatch.setattr(modcore, "PRIME_WINDOW", window)
    straddle = (4000, 4400)
    for lo, hi in [(3, 3), (24, 28), (3, 600), (97, 1000), straddle, (4097, 4700)]:
        assert list(modcore.iter_primes(lo, hi)) == modcore.primes_between(lo, hi)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    for lo, hi in [(3, 600), straddle]:
        serial = list(run_spectrum_sweep(lo, hi))
        pooled = run_spectrum_sweep(lo, hi, 2)
        assert list(pooled) == serial
        assert [row[0] for row in serial] == modcore.primes_between(lo, hi)


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


# A forked worker inherits the patched threshold; where os.fork is missing
# the sweep runs in-process at any worker count.
FORK = hasattr(os, "fork")


NEEDS_FORK = pytest.mark.skipif(not FORK, reason="needs fork workers")


def _break_chain_at_101_and_523(monkeypatch):
    """Make y' = y - 1 at p = 101 and 523, whose rows different workers of
    a 2-worker pool make, with two CPUs for the pool; the FAIL message at
    p = 101."""
    real = subsetprod.prime_coverage_threshold

    def short_by_one(ctx):
        if ctx.p in (101, 523):
            return subsetprod.coverage_threshold(ctx) - 1
        return real(ctx)

    monkeypatch.setattr(subsetprod, "prime_coverage_threshold", short_by_one)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    y = subsetprod.coverage_threshold(modcore.build_context(101))
    return f"y'={y - 1} < y={y} at p=101"


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=NEEDS_FORK)])
def test_chain_violation_fails_at_the_least_violating_prime(
    workers, monkeypatch, capsys, tmp_path
):
    # both commands FAIL at the smaller prime, and spectrum writes nothing
    violation = _break_chain_at_101_and_523(monkeypatch)
    out = tmp_path / "spectrum.csv"
    assert run_cli("spectrum", "--pmax", "600", "--workers", str(workers),
                   "--out", str(out)) == 1
    assert capsys.readouterr() == ("", f"FAIL: {violation}\n")
    assert not out.exists()
    report = tmp_path / "report.json"
    assert run_cli("verify", "--checks", "spectrum", "--pmax", "600",
                   "--workers", str(workers), "--out", str(report)) == 1
    [record] = json.loads(read(report))["records"]
    assert record["status"] == "FAIL"
    assert record["metrics"] == {"primes": 0, "violation": violation}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=NEEDS_FORK)])
def test_chain_violation_prints_no_rows_to_stdout(workers, fmt, monkeypatch, capsys):
    # the rows before p = 101 are made before the FAIL, but stdout gets
    # the spooled text only on success
    violation = _break_chain_at_101_and_523(monkeypatch)
    assert run_cli("spectrum", "--pmax", "600", "--workers", str(workers),
                   "--format", fmt) == 1
    assert capsys.readouterr() == ("", f"FAIL: {violation}\n")


@pytest.mark.skipif(not FORK or not os.path.isdir("/proc/self/fd"),
                    reason="needs fork workers and /proc")
def test_pooled_chain_violation_leaves_no_worker_fd_or_temporary(
    monkeypatch, capsys, tmp_path
):
    # the FAIL ends the sweep inside the row generator: its cleanup kills
    # and reaps both workers, closes both pipes, and the --out temporary
    # is removed
    violation = _break_chain_at_101_and_523(monkeypatch)
    fds = set(os.listdir("/proc/self/fd"))
    out = tmp_path / "spectrum.csv"
    assert run_cli("spectrum", "--pmax", "600", "--workers", "2", "--out", str(out)) == 1
    assert capsys.readouterr() == ("", f"FAIL: {violation}\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert set(os.listdir("/proc/self/fd")) - fds == set()
    assert os.listdir(tmp_path) == []


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


def test_counts_print_counts_past_the_int_str_digit_limit(capsys, tmp_path):
    # every count at p = 3, y = 50000 is 2^33333, 10035 digits, past the 4300
    # that CPython 3.10.7+ lets str() make by default; counts lifts the limit
    # while it renders and puts it back, even when the output cannot be written
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    limit = digit_limit()
    assert run_cli("counts", "--p", "3", "--y", "50000") == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "b,count" and [row.split(",")[0] for row in rows] == ["1", "2"]
    assert all(Decimal(row.split(",")[1]) == 2**33333 for row in rows)
    assert run_cli("counts", "--p", "3", "--y", "50000", "--format", "json") == 0
    counts = json.loads(capsys.readouterr().out)["counts"]
    assert sorted(counts) == ["1", "2"]
    assert all(Decimal(count) == 2**33333 for count in counts.values())
    assert digit_limit() == limit
    assert run_cli("counts", "--p", "3", "--y", "2", "--out", str(tmp_path / "no" / "c")) == 2
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert digit_limit() == limit


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
    # mod 2 the lone unit 1 is the empty product, whatever the difference
    assert run_cli(
        "coverage", "--p", "2", "--a", "1", "--d", "2", "--ymax", "5",
        "--out", str(out),
    ) == 0
    assert read(out).splitlines()[1] == "2,1,2,5,1"


def test_coverage_cli_huge_ymax_is_fast(tmp_path):
    # every term is 0 mod 7: the first p terms decide, not all 10^12
    out = tmp_path / "cov.csv"
    start = time.perf_counter()
    assert run_cli(
        "coverage", "--p", "7", "--a", "7", "--d", "7", "--ymax", str(10**12),
        "--out", str(out),
    ) == 0
    assert time.perf_counter() - start < 1.0
    assert read(out).splitlines()[1] == f"7,7,7,{10**12},"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, record, row",
    [
        # kway reads no epsilon: null in JSON, an empty CSV cell
        (["--n", "30", "--y", "10", "--k", "2", "--mode", "kway"],
         {"n": 30, "y": 10, "k": 2, "epsilon": None, "mode": "KWAY", "factors": [10, 3]},
         "30,10,2,,KWAY,10 3"),
        (["--n", "60", "--y", "10", "--k", "3", "--epsilon", "19/100", "--mode", "ranged"],
         {"n": 60, "y": 10, "k": 3, "epsilon": "19/100", "mode": "RANGED",
          "factors": [5, 6, 2]},
         "60,10,3,19/100,RANGED,5 6 2"),
        # threeway's k is 3, and a two-factor split is padded with a 1
        (["--n", "3721", "--y", "100", "--epsilon", "1/10", "--mode", "threeway"],
         {"n": 3721, "y": 100, "k": 3, "epsilon": "1/10", "mode": "THREEWAY",
          "factors": [61, 61, 1]},
         "3721,100,3,1/10,THREEWAY,61 61 1"),
    ],
    ids=["kway", "ranged", "threeway"],
)
def test_factorize_cli(tmp_path, argv, record, row, fmt):
    out = tmp_path / f"fact.{fmt}"
    assert run_cli("factorize", *argv, "--format", fmt, "--out", str(out)) == 0
    if fmt == "json":
        assert json.loads(read(out)) == {**record, "schema_version": 1}
    else:
        assert read(out) == f"{','.join(record)}\n{row}\n"


def test_spectrum_sweep_builds_no_dense_table(monkeypatch):
    def no_table(ctx):
        raise AssertionError(f"dense index table built at p={ctx.p}")

    monkeypatch.setattr(modcore.PrimeContext, "table", property(no_table))
    assert len(list(run_spectrum_sweep(3, 2000))) == 302


@pytest.mark.usefixtures("cold_prime_caches")
def test_spectrum_sweep_sieves_only_its_window(monkeypatch):
    # the per-process small-prime caches are built on first use, by a sieve
    # of (2, 4096); build them again before the sieve is recorded, so the
    # windows are the sweep's alone
    modcore.small_primes()
    modcore._least_factors()
    windows = []
    sieve = modcore.primes_between

    def recording(lo, hi):
        windows.append((lo, hi))
        return sieve(lo, hi)

    monkeypatch.setattr(modcore, "primes_between", recording)
    rows = run_spectrum_sweep(1_000_000, 1_000_200)
    assert [row[0] for row in rows] == list(sympy.primerange(1_000_000, 1_000_201))
    # the sweep's window, then only the base primes up to isqrt(p_max)
    assert windows[0] == (1_000_000, 1_000_200)
    assert windows[1] == (2, 1000)
    assert all(hi <= 1000 for _, hi in windows[1:])


def test_spectrum_golden_csv(tmp_path):
    # sha256 of the rows for every prime in [3, 30000]
    out = tmp_path / "spectrum.csv"
    assert run_cli("spectrum", "--pmin", "3", "--pmax", "30000", "--out", str(out)) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "b40a5a82d396237ffb7089572616227b45e2b1b3109db87a3931053ee5877e55"


@pytest.mark.parametrize("fmt, workers, digest", [
    ("csv", 2, "b40a5a82d396237ffb7089572616227b45e2b1b3109db87a3931053ee5877e55"),
    ("json", 1, "6a6a985cbd8392718c29c41373336646279dc5077d3bf3ac925fc2aa269bbf9f"),
    ("json", 2, "6a6a985cbd8392718c29c41373336646279dc5077d3bf3ac925fc2aa269bbf9f"),
], ids=["csv-workers2", "json-workers1", "json-workers2"])
def test_spectrum_golden_streamed_outputs(tmp_path, fmt, workers, digest):
    # sha256 of the rows for every prime in [3, 30000]: the pooled CSV has
    # the serial golden bytes, and the JSON is the same at any worker count
    out = tmp_path / f"spectrum.{fmt}"
    assert run_cli("spectrum", "--pmin", "3", "--pmax", "30000", "--workers", str(workers),
                   "--format", fmt, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_stdout_and_out_file_agree(tmp_path, capsys, fmt):
    out = tmp_path / "spectrum"
    argv = ["spectrum", "--pmax", "2000", "--workers", "2", "--format", fmt]
    assert run_cli(*argv, "--out", str(out)) == 0
    assert capsys.readouterr() == ("", "")
    assert run_cli(*argv) == 0
    assert capsys.readouterr() == (out.read_bytes().decode(), "")


@pytest.mark.parametrize("p_min, p_max", [(24, 28), (3, 3), (3, 600)])
def test_spectrum_json_is_the_json_dumps_text(tmp_path, p_min, p_max):
    # the rows are rendered one at a time into the text that dumping the
    # whole payload at once would give: key order, indents, commas and all
    out = tmp_path / "spectrum.json"
    assert run_cli("spectrum", "--pmin", str(p_min), "--pmax", str(p_max),
                   "--format", "json", "--out", str(out)) == 0
    rows = list(run_spectrum_sweep(p_min, p_max))
    payload = {"schema_version": 1,
               "rows": [dict(zip(sweep.SPECTRUM_COLUMNS, row)) for row in rows]}
    assert out.read_bytes().decode() == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_spectrum_memory_grows_with_the_range_not_the_rows(tmp_path):
    # tracemalloc's peak over in-process serial sweeps of [3, 2000] (302
    # rows) and [3, 20000] (2261 rows), caches warm.  The growth is the
    # primes list, the sieve and the largest prime's tables, about 110 KB;
    # holding the rows and their text as well takes it to about 300 KB
    out = str(tmp_path / "spectrum.csv")

    def peak(p_max):
        tracemalloc.start()
        try:
            assert run_cli("spectrum", "--pmax", str(p_max), "--out", out) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for p_max in (2000, 20000):
        assert run_cli("spectrum", "--pmax", str(p_max), "--out", out) == 0
    growth = peak(20000) - peak(2000)
    assert growth < 200 * 1024, growth


def test_charsum_cli(tmp_path):
    out = tmp_path / "sum.json"
    assert run_cli(
        "charsum", "--p", "5", "--k", "2", "--t", "4", "--format", "json",
        "--out", str(out),
    ) == 0
    payload = json.loads(read(out))
    assert abs(payload["re"]) < 1e-12 and abs(payload["im"]) < 1e-12


def test_charsum_cli_huge_t_is_fast(tmp_path):
    out = tmp_path / "sum.json"
    start = time.perf_counter()
    assert run_cli(
        "charsum", "--p", "311", "--k", "5", "--t", str(10**18), "--format", "json",
        "--out", str(out),
    ) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(read(out))["t"] == 10**18


def test_verify_theorem_golden_json(tmp_path):
    # sha256 of the report of the count-DP checks at seed 0
    out = tmp_path / "theorem.json"
    assert run_cli("verify", "--checks", "theorem", "--seed", "0", "--out", str(out)) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "48e34c001864e36c72a9502712c4f091555e0d4dc27ff46abafd1986a1e73667"


def test_verify_scans_golden_json(tmp_path):
    # sha256 of the report of every group but the count-DP checks at seed 1
    out = tmp_path / "scans.json"
    assert run_cli(
        "verify", "--seed", "1", "--checks", "spectrum,lemmas,factorization,friable,burgess",
        "--out", str(out),
    ) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "c4b389666859cdc64e1ee67d8076fa2055519421915c1bff2b12a074c1f342eb"


@pytest.mark.parametrize("seed, digest", [
    (0, "ea90ce9996d9a08f152f136f54ef97d196c53c5834fd5cdf0b8c715715cf0e5d"),
    (1, "b0f69c936855eeac78e58af485ceb14f1336c39510daf265197feea51c8c2848"),
    (2, "08184bec66496528c776c39502bc74e523b42c15dfc700edab02eebedc97e7c3"),
    (3, "4baf66bdfbcd4d55b479c4dfb1205b3bb648b01480c8411fff28a5587f818ffb"),
])
def test_verify_default_golden_json(tmp_path, seed, digest):
    # sha256 of the whole report of `verify` at every default but the seed
    out = tmp_path / "report.json"
    assert run_cli("verify", "--seed", str(seed), "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_near_one_scan_y_is_floor_p_07():
    # the scan's exact y = iroot(p^7, 10) agrees with the float floor(p**0.7)
    # at every prime it runs over (p <= 311), so its report cannot move
    for p in modcore.primes_between(2, 311):
        assert modcore.iroot(p**7, 10) == math.floor(p**0.7)


def test_mass_conservation_one_fold_per_prime(monkeypatch):
    # every snapshot gets a nonzero zero slot: each drawn pair is one failure
    folds = []
    fold = subsetprod.subset_product_prefixes

    def broken(ctx, ys):
        folds.append(ctx.p)
        for dp in fold(ctx, ys):
            yield subsetprod.SubsetProductCounts(dp.p, dp.y, (1,) + dp.counts[1:])

    monkeypatch.setattr(subsetprod, "subset_product_prefixes", broken)
    record = cli.check_mass_conservation(seed=3, p_cap=31, pairs=200)
    assert record.status == "FAIL"
    assert record.metrics == {"failures": 200}
    assert sorted(folds) == sorted(set(folds)) == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


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
    code = run_cli("verify", "--checks", "friable", "--out", str(out))
    assert code == 0
    payload = json.loads(read(out))
    names = [r["name"] for r in payload["records"]]
    assert names == ["friable_count_discrepancy"]
    assert payload["records"][0]["status"] == "REPORT"


def test_verify_duplicate_checks_write_the_same_report(tmp_path):
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    assert run_cli("verify", "--checks", "friable", "--out", str(once)) == 0
    assert run_cli("verify", "--checks", "friable,friable", "--out", str(twice)) == 0
    assert twice.read_bytes() == once.read_bytes()
    assert json.loads(read(once))["config"]["checks"] == ["friable"]


def test_verify_prints_each_check_as_it_finishes(monkeypatch, capsys, tmp_path):
    # a check that raises ends the run with exit 2, after the lines of the
    # checks before it; none is printed for it or for the checks after it
    def broken():
        raise ValueError("the friable check broke")

    monkeypatch.setattr(cli, "check_friable_count", broken)
    out = tmp_path / "report.json"
    assert run_cli("verify", "--checks", "lemmas,friable,burgess", "--pmax", "101",
                   "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    *lines, error = captured.err.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["PASS", "lemma_circle_bound"], ["PASS", "lemma_z_grid"],
        ["PASS", "lemma_near_one_scan"],
    ]
    assert all(re.fullmatch(r"PASS   \w+  \[\d+\.\d\ds\]", line) for line in lines)
    assert error == "error: the friable check broke"


def test_verify_puts_a_checks_seconds_on_its_first_record(monkeypatch, capsys):
    # check_theorem_error returns two records: the second reads 0.00s
    theorem_error = cli.check_theorem_error

    def slow(*args):
        time.sleep(0.02)
        return theorem_error(*args)

    monkeypatch.setattr(cli, "check_theorem_error", slow)
    records = run_verification_suite(SweepConfig(p_max=101, checks=("theorem",)))
    lines = capsys.readouterr().err.splitlines()
    assert [line.split()[1] for line in lines] == [r.name for r in records] == [
        "dp_vs_enumeration", "dp_vs_characters", "mass_conservation",
        "theorem_error_ratio", "theorem_error_shrinks",
    ]
    seconds = [float(line.rsplit("[", 1)[1][:-2]) for line in lines]
    assert seconds[3] >= 0.02 and seconds[4] == 0.0


# Bad input to each subcommand: exit 2, nothing on stdout, one error line.
ABOVE_CAP = modcore.MAX_TABLE_PRIME + 1
PSI_12 = 399165290221 * 798330580441  # a strong pseudoprime to every base 2..37
BAD_INPUTS = [
    pytest.param(["spectrum", "--pmin", "7", "--pmax", "3"], "need 3 <= pmin <= pmax",
                 id="spectrum-pmin-above-pmax"),
    pytest.param(["spectrum", "--pmin", "2"], "need 3 <= pmin", id="spectrum-pmin-2"),
    pytest.param(["spectrum", "--workers", "0"], "workers must be >= 1",
                 id="spectrum-workers-0"),
    pytest.param(["spectrum", "--pmax", str(ABOVE_CAP)], "index-table cap",
                 id="spectrum-pmax-above-cap"),
    pytest.param(["spectrum", "--pmax", str(10**30)], "index-table cap",
                 id="spectrum-pmax-huge"),
    pytest.param(["verify", "--checks", "spectrum", "--pmax", str(ABOVE_CAP)],
                 "index-table cap", id="verify-pmax-above-cap"),
    pytest.param(["verify", "--checks", "theorem", "--pmax", "211", "--y-rule", "p^inf"],
                 "bad y-rule", id="verify-y-rule-inf"),
    pytest.param(["verify", "--checks", "theorem", "--pmax", "211", "--y-rule", "p^1e308"],
                 "bad y-rule", id="verify-y-rule-overflow"),
    pytest.param(["verify", "--checks", "theorem", "--pmax", "211", "--y-rule", "0"],
                 "theorem check needs y above", id="verify-y-rule-below-comparison"),
    # a theorem, lemmas, burgess or spectrum check with none of its primes in
    # range would check nothing
    pytest.param(["verify", "--pmax", "100"], "the theorem check needs pmax >= 101",
                 id="verify-pmax-below-theorem-primes"),
    pytest.param(["verify", "--checks", "burgess", "--pmax", "100"],
                 "error: the burgess check needs pmax >= 101, its least prime; got pmax=100\n",
                 id="verify-pmax-below-burgess-primes"),
    pytest.param(["verify", "--checks", "lemmas", "--pmax", "4"],
                 "error: the lemmas check needs pmax >= 5, its least prime; got pmax=4\n",
                 id="verify-pmax-below-lemma-primes"),
    pytest.param(["verify", "--checks", "spectrum", "--pmin", "24", "--pmax", "28"],
                 "error: the spectrum check needs a prime in [24, 28]\n",
                 id="verify-spectrum-range-without-primes"),
    pytest.param(["verify", "--workers", "-1"], "workers must be >= 1", id="verify-workers"),
    pytest.param(["verify", "--checks", "nonsense"], "unknown checks", id="verify-checks"),
    pytest.param(["verify", "--checks", ""], "unknown checks: ['']", id="verify-checks-empty"),
    pytest.param(["verify", "--y-rule", "p^abc"], "bad y-rule", id="verify-y-rule-abc"),
    # a given flag that no selected factorize mode or verify group reads,
    # even at its default: threeway mode reads no --k (its k is 3), kway mode
    # no --epsilon, and each verify group only the flags that _SUITE lists
    pytest.param(["factorize", "--n", "60", "--y", "10", "--k", "5"],
                 "error: --k is not read by factorize --mode threeway\n",
                 id="factorize-threeway-k"),
    pytest.param(["factorize", "--n", "60", "--y", "10", "--mode", "kway", "--epsilon", "1/7"],
                 "error: --epsilon is not read by factorize --mode kway\n",
                 id="factorize-kway-epsilon"),
    pytest.param(["verify", "--pmin", "1100", "--pmax", "2000", "--checks", "theorem"],
                 "error: --pmin is not read by verify --checks theorem\n",
                 id="verify-theorem-pmin"),
    pytest.param(["verify", "--checks", "lemmas", "--y-rule", "p^0.3", "--workers", "2"],
                 "error: --workers, --y-rule are not read by verify --checks lemmas\n",
                 id="verify-lemmas-y-rule-workers"),
    pytest.param(["verify", "--checks", "friable", "--seed", "3"],
                 "error: --seed is not read by verify --checks friable\n",
                 id="verify-friable-seed"),
    pytest.param(["verify", "--checks", "spectrum", "--seed", "1"],
                 "error: --seed is not read by verify --checks spectrum\n",
                 id="verify-spectrum-seed"),
    pytest.param(["verify", "--checks", "friable", "--pmax", "1009"],
                 "error: --pmax is not read by verify --checks friable\n",
                 id="verify-friable-pmax-at-its-default"),
    pytest.param(["factorize", "--n", "60", "--y", "10", "--epsilon", "1/0"],
                 "error: bad epsilon '1/0': zero denominator\n",
                 id="factorize-epsilon-zero-denominator"),
    pytest.param(["factorize", "--n", "60", "--y", "10", "--mode", "ranged",
                  "--epsilon", "1e-400000"], "denominator above 10000",
                 id="factorize-epsilon-denominator"),
    # spectrum reads no seed, y-rule or epsilon, verify no epsilon; the verify
    # report is always JSON
    pytest.param(["spectrum", "--epsilon", "1/5"], "unrecognized arguments: --epsilon 1/5",
                 id="spectrum-epsilon"),
    pytest.param(["verify", "--epsilon", "19/100"], "unrecognized arguments: --epsilon 19/100",
                 id="verify-epsilon"),
    pytest.param(["spectrum", "--pmax", "20", "--seed", "5"],
                 "unrecognized arguments: --seed 5", id="spectrum-seed"),
    pytest.param(["spectrum", "--y-rule", "p^0.6"], "unrecognized arguments: --y-rule p^0.6",
                 id="spectrum-y-rule"),
    pytest.param(["verify", "--checks", "friable", "--pmax", "61", "--format", "csv"],
                 "unrecognized arguments: --format csv", id="verify-format"),
    # work and size caps, decided before any work starts
    pytest.param(["counts", "--p", "3", "--y", str(10**8)], "exceeds the work bound",
                 id="counts-work-bound"),
    pytest.param(["counts", "--p", "10007", "--y", "1000"], "exceeds the work bound",
                 id="counts-work-bound-large-p"),
    pytest.param(["factorize", "--n", str(10**14 + 1), "--y", "10"],
                 "exceeds the size cap", id="factorize-n-cap"),
    pytest.param(["factorize", "--n", str(10**40), "--y", "10", "--mode", "kway"],
                 "exceeds the size cap", id="factorize-n-huge"),
    pytest.param(["factorize", "--n", "60", "--y", "10", "--k", str(10**8), "--mode", "kway"],
                 "error: y=10, k=100000000 would form powers of y above the cap of 1000000 bits\n",
                 id="factorize-kway-k-cap"),
    pytest.param(["factorize", "--n", "60", "--y", "10", "--k", "100", "--mode", "ranged",
                  "--epsilon", "1/10000"],
                 "would form powers of y above the cap", id="factorize-ranged-power-cap"),
    pytest.param(["factorize", "--n", "60", "--y", str(2**300), "--epsilon", "1/10000"],
                 "would form powers of y above the cap", id="factorize-threeway-power-cap"),
    pytest.param(["factorize", "--n", "60", "--y", "10", "--k", "-2", "--mode", "ranged"],
                 "need n >= 1, y >= 2, k >= 1", id="factorize-ranged-k-negative"),
    pytest.param(["verify", "--y-rule", "p^1/0"], "error: bad y-rule 'p^1/0': zero denominator\n",
                 id="verify-y-rule-zero-denominator"),
    pytest.param(["verify", "--y-rule", "p^1/10001"], "above 10000",
                 id="verify-y-rule-denominator"),
    pytest.param(["verify", "--y-rule", "p^10001"], "above 10000", id="verify-y-rule-numerator"),
    # a decimal exponent is refused before Fraction expands it into a power of ten
    pytest.param(["verify", "--y-rule", "p^1e9999999"], "decimal exponent of more than six digits",
                 id="verify-y-rule-exponent-digits"),
    pytest.param(["factorize", "--n", "60", "--y", "10", "--epsilon", "1e-9999999"],
                 "decimal exponent of more than six digits", id="factorize-epsilon-exponent-digits"),
    pytest.param(["factorize", "--n", "60", "--y", "10",
                  "--epsilon", "1E+00000000000000000001000000000"],
                 "decimal exponent of more than six digits",
                 id="factorize-epsilon-exponent-leading-zeros"),
    pytest.param(["factorize", "--n", "60", "--y", "10", "--epsilon", "10001/50010"],
                 "numerator or denominator above 10000", id="factorize-epsilon-numerator"),
    pytest.param(["counts", "--p", "0", "--y", "3"], "error: 0 is not prime\n",
                 id="counts-p-0"),
    pytest.param(["counts", "--p", "1", "--y", "3"], "error: 1 is not prime\n",
                 id="counts-p-1"),
    pytest.param(["counts", "--p", "9", "--y", "3"], "error: 9 is not prime\n",
                 id="counts-p-9"),
    pytest.param(["coverage", "--p", "9", "--a", "2", "--d", "3", "--ymax", "20"],
                 "9 is not prime", id="coverage-p-9"),
    pytest.param(["coverage", "--p", "7", "--a", "2", "--d", "3", "--ymax", "-5"],
                 "y_max=-5 must be >= 1", id="coverage-ymax-negative"),
    pytest.param(["coverage", "--p", "7", "--a", "2", "--d", "3", "--ymax", "0"],
                 "y_max=0 must be >= 1", id="coverage-ymax-0"),
    pytest.param(["factorize", "--n", "125", "--y", "10", "--k", "2", "--mode", "kway"],
                 "exceeds y^((k+1)/2)", id="factorize-kway-bound"),
    pytest.param(["factorize", "--n", "60", "--y", "10", "--epsilon", "1/5"],
                 "outside (0, 1/5)", id="factorize-epsilon"),
    pytest.param(["charsum", "--p", "9", "--k", "1", "--t", "4"], "9 is not prime",
                 id="charsum-p-9"),
    # psi_12 fools the first 12 Miller-Rabin bases; a p above psi_13 is
    # refused before any Miller-Rabin round
    pytest.param(["coverage", "--p", str(PSI_12), "--a", "1", "--d", "1", "--ymax", "1"],
                 f"{PSI_12} is not prime", id="coverage-p-psi12"),
    pytest.param(["charsum", "--p", str(PSI_12), "--k", "1", "--t", "1"],
                 f"{PSI_12} is not prime", id="charsum-p-psi12"),
    pytest.param(["coverage", "--p", str(2**4423 - 1), "--a", "1", "--d", "1", "--ymax", "1"],
                 "4423-bit integer is above", id="coverage-p-mersenne-4423"),
    pytest.param(["charsum", "--p", str(2**4423 - 1), "--k", "1", "--t", "1"],
                 "4423-bit integer is above", id="charsum-p-mersenne-4423"),
    pytest.param(["charsum", "--p", "7", "--k", "1", "--t", "0"], "t must be >= 1",
                 id="charsum-t-0"),
    # the principal character sums to about t, past the float range here
    pytest.param(["charsum", "--p", "101", "--k", "0", "--t", "1" + "0" * 400],
                 "error: t is too large: the principal sum passes the float range\n",
                 id="charsum-principal-t-past-float-range"),
    pytest.param(["coverage", "--p", "7", "--a", "2", "--d", "14", "--ymax", "5"],
                 "difference 14 is a multiple of 7", id="coverage-d-multiple-of-p"),
    pytest.param(["counts", "--p", "7", "--y", "0"], "y=0 must be >= 1", id="counts-y-0"),
    pytest.param(["charsum", "--p", "101", "--k", "100", "--t", "5"],
                 "character index 100 outside [0, 99]", id="charsum-k-out-of-range"),
    # 16777259 is the least prime above 2^24, the index-table limit
    pytest.param(["coverage", "--p", "16777259", "--a", "1", "--d", "1", "--ymax", "1"],
                 "exceeds table limit", id="coverage-p-above-table-limit"),
    pytest.param(["charsum", "--p", "16777259", "--k", "1", "--t", "1"],
                 "exceeds table limit", id="charsum-p-above-table-limit"),
    pytest.param(["factorize", "--n", "202", "--y", "10", "--mode", "kway"],
                 "has a prime factor above y=10", id="factorize-kway-not-friable"),
    # only spectrum and verify take the sweep flags; factorize also --epsilon
    pytest.param(["counts", "--p", "5", "--y", "3", "--y-rule", "p^abc",
                  "--workers", "0"],
                 "unrecognized arguments: --y-rule p^abc --workers 0",
                 id="counts-sweep-flags"),
    pytest.param(["coverage", "--p", "7", "--a", "2", "--d", "3", "--ymax", "20",
                  "--pmin", "99"], "unrecognized arguments: --pmin 99",
                 id="coverage-pmin"),
    pytest.param(["factorize", "--n", "60", "--y", "10", "--seed", "1"],
                 "unrecognized arguments: --seed 1", id="factorize-seed"),
    pytest.param(["charsum", "--p", "7", "--k", "1", "--t", "4", "--pmax", "5"],
                 "unrecognized arguments: --pmax 5", id="charsum-pmax"),
    pytest.param(["counts", "--p", "5"], "required: --y", id="counts-missing-y"),
    pytest.param(["counts", "--p", "5", "--y", "3", "--format", "xml"],
                 "invalid choice: 'xml'", id="counts-format"),
]


@pytest.mark.parametrize("argv,message", BAD_INPUTS)
def test_bad_input_exits_2(argv, message, capsys):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


# the SweepConfig field that each verify flag of _SUITE sets
VERIFY_FIELDS = {"--pmin": "p_min", "--pmax": "p_max", "--workers": "workers",
                 "--y-rule": "y_rule", "--seed": "seed"}


def test_each_verify_group_lists_the_config_fields_its_checks_read():
    # a check that starts reading another config field cannot leave its
    # group's flags stale: a group lists exactly the fields its lambdas name
    assert list(cli._SUITE) == list(ALL_CHECKS)
    for group, (flags, runs) in cli._SUITE.items():
        named = {name for run in runs for name in run.__code__.co_names}
        assert {VERIFY_FIELDS[flag] for flag in flags} == named & set(SweepConfig._fields), group


def test_help_lists_the_flags_of_the_command_table(capsys):
    for command, (_, _, required, optional) in cli._COMMANDS.items():
        with pytest.raises(SystemExit) as stop:
            run_cli(command, "--help")
        assert stop.value.code == 0, command
        listed = re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out)
        assert set(listed) == {"--help", *required, *optional}, command


def test_out_replaces_the_target_of_a_symlink(tmp_path):
    target = tmp_path / "data" / "counts.csv"
    target.parent.mkdir()
    target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert run_cli("counts", "--p", "3", "--y", "2", "--out", str(link)) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert read(target) == "b,count\n1,2\n2,2\n"
    assert os.listdir(target.parent) == ["counts.csv"]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_out_file_modes(umask, tmp_path):
    # a new file gets the mode open(path, "w") gives, 0o666 less the umask;
    # a replaced file keeps its own
    new, old, plain = tmp_path / "new.csv", tmp_path / "old.csv", tmp_path / "plain"
    old.write_text("old\n")
    old.chmod(0o604)
    saved = os.umask(umask)
    try:
        assert run_cli("counts", "--p", "3", "--y", "2", "--out", str(new)) == 0
        assert run_cli("counts", "--p", "3", "--y", "2", "--out", str(old)) == 0
        plain.write_text("")
    finally:
        os.umask(saved)
    assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
    assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    assert stat.S_IMODE(old.stat().st_mode) == 0o604
    assert read(old) == read(new) == "b,count\n1,2\n2,2\n"


def test_out_writes_through_a_fifo(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # a reader that is already open lets the writer's open return at once
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run_cli("counts", "--p", "3", "--y", "2", "--out", str(fifo)) == 0
        assert os.read(reader, 1 << 16) == b"b,count\n1,2\n2,2\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--pmax", "60000"],
    ["spectrum", "--pmax", "60000", "--workers", "2"],
    ["verify"],
    ["counts", "--p", "10007", "--y", "999"],
], ids=["spectrum", "spectrum-workers2", "verify", "counts"])
def test_out_naming_a_directory_is_refused_before_any_work(argv, monkeypatch, capsys,
                                                            tmp_path):
    # no row is made, no worker forked, no check run and no fold started: the
    # spies record every call, and nothing is written into the directory.  A
    # path in a directory that does not exist is refused the same way, and so
    # is an empty path, which names no file.
    calls = []

    def spy(real):
        return lambda *args: calls.append(args) or real(*args)

    monkeypatch.setattr(sweep, "_spectrum_row", spy(sweep._spectrum_row))
    monkeypatch.setattr(cli, "run_verification_suite", spy(cli.run_verification_suite))
    monkeypatch.setattr(subsetprod, "_count_dp", spy(subsetprod._count_dp))
    if FORK:
        monkeypatch.setattr(cli.os, "fork", spy(os.fork))
    missing = str(tmp_path / "missing" / "r.json")
    for target, refusal in ((str(tmp_path), "is a directory"),
                            (missing, "is not in an existing directory"),
                            ("", "names no file")):
        assert run_cli(*argv, "--out", target) == 2
        out, err = capsys.readouterr()
        assert out == "" and calls == [] and os.listdir(tmp_path) == []
        assert err == f"i/o error: --out {target!r} {refusal}\n"


def test_work_caps_are_inclusive(monkeypatch, capsys, tmp_path):
    out = str(tmp_path / "out.csv")
    monkeypatch.setattr(cli, "MAX_COUNT_WORK", 4 * 3**2)
    assert run_cli("counts", "--p", "5", "--y", "3", "--out", out) == 0
    assert run_cli("counts", "--p", "5", "--y", "4", "--out", out) == 2
    monkeypatch.setattr(cli, "MAX_FACTORIZE_N", 60)
    assert run_cli("factorize", "--n", "60", "--y", "10", "--out", out) == 0
    assert run_cli("factorize", "--n", "61", "--y", "10", "--out", out) == 2
    assert capsys.readouterr().err.count("error: ") == 2


def test_counts_output_bound_is_inclusive(monkeypatch, capsys, tmp_path):
    out = str(tmp_path / "out.csv")
    monkeypatch.setattr(cli, "MAX_COUNT_RESIDUES", 6)
    assert run_cli("counts", "--p", "7", "--y", "3", "--out", out) == 0
    assert run_cli("counts", "--p", "11", "--y", "3", "--out", out) == 2
    assert "11 would print 10 counts, above the output bound 6" in capsys.readouterr().err


class FoldStarted(Exception):
    pass


def test_counts_bounds_decide_before_the_fold(monkeypatch, capsys):
    # the real bounds, with the fold replaced so that no case does its work
    def no_fold(p, y):
        raise FoldStarted(p, y)

    monkeypatch.setattr(subsetprod, "subset_product_counts", no_fold)
    # the README's largest example, and the largest p and y both bounds allow
    for p, y in ((10007, 999), (262139, 195)):
        with pytest.raises(FoldStarted):
            run_cli("counts", "--p", str(p), "--y", str(y))
    assert run_cli("counts", "--p", "262139", "--y", "196") == 2
    # the largest table prime passes the work bound but not the output bound
    assert run_cli("counts", "--p", "16777213", "--y", "1") == 2
    assert run_cli("counts", "--p", "262147", "--y", "1") == 2
    err = capsys.readouterr().err
    assert err.count("exceeds the work bound") == 1
    assert err.count("above the output bound") == 2


def test_factorize_power_cap_is_inclusive(monkeypatch, capsys, tmp_path):
    out = str(tmp_path / "out.csv")
    # kway at y = 10 (4 bits) forms y^(k+1): (k + 1) * 4 bits
    monkeypatch.setattr(cli, "MAX_FACTORIZE_POWER_BITS", 16)
    assert run_cli("factorize", "--n", "60", "--y", "10", "--k", "3", "--mode", "kway",
                   "--out", out) == 0
    assert run_cli("factorize", "--n", "60", "--y", "10", "--k", "4", "--mode", "kway",
                   "--out", out) == 2
    # threeway at epsilon = 19/100 forms y^(3 * 100 + 2 * 19): 339 * 4 bits
    monkeypatch.setattr(cli, "MAX_FACTORIZE_POWER_BITS", 339 * 4)
    assert run_cli("factorize", "--n", "60", "--y", "10", "--out", out) == 0
    monkeypatch.setattr(cli, "MAX_FACTORIZE_POWER_BITS", 339 * 4 - 1)
    assert run_cli("factorize", "--n", "60", "--y", "10", "--out", out) == 2
    assert capsys.readouterr().err.count("error: ") == 2


def test_factorize_kway_power_cap_at_its_real_value(capsys, tmp_path):
    # y = 2^999 has 1000 bits, so kway's y^(k+1) sits exactly at the 10^6-bit
    # cap for k = 999 and above it for k = 1000
    out = tmp_path / "out.csv"
    argv = ["factorize", "--mode", "kway", "--n", "1", "--y", str(2**999), "--out", str(out)]
    assert run_cli(*argv, "--k", "999") == 0
    header, row = read(out).splitlines()
    assert header == "n,y,k,epsilon,mode,factors"
    assert row.split(",")[-1] == " ".join(["1"] * 999)
    assert run_cli(*argv, "--k", "1000") == 2
    assert capsys.readouterr().err == (
        f"error: y={2**999}, k=1000 would form powers of y above the cap of 1000000 bits\n"
    )


def test_friable_count_sieves_once_per_y(monkeypatch):
    windows = []
    sieve = friable.primes_between
    monkeypatch.setattr(
        friable, "primes_between", lambda lo, hi: windows.append((lo, hi)) or sieve(lo, hi)
    )
    record = cli.check_friable_count()
    assert windows == [(51, 50**2), (101, 100**2), (201, 200**2)]  # (y, y^2] each
    assert record.metrics["per_y"]["50"] > 0


def test_theorem_error_one_fold_per_prime(monkeypatch):
    folds = []
    fold = subsetprod.subset_product_prefixes

    def recording(ctx, ys):
        folds.append((ctx.p, sorted(ys)))
        return fold(ctx, ys)

    monkeypatch.setattr(subsetprod, "subset_product_prefixes", recording)
    report, shrinks = cli.check_theorem_error("p^0.6", 1009)
    assert folds == [(101, [4, 16]), (211, [4, 25]), (401, [5, 37]), (1009, [6, 64])]
    assert shrinks.status == "PASS"
    for p, row in report.metrics.items():
        counts = subsetprod.subset_product_counts
        assert row["ratio"] == subsetprod.error_report(counts(int(p), row["y"]))
        assert row["ratio_small"] == subsetprod.error_report(counts(int(p), row["y_small"]))


def test_theorem_error_passes_a_level_ratio(tmp_path):
    # at p = 401, y = 5 and y = 6 share one ratio: max |D_y| doubles exactly
    out = tmp_path / "report.json"
    assert run_cli("verify", "--checks", "theorem", "--pmax", "401", "--y-rule", "6",
                   "--out", str(out)) == 0
    records = {r["name"]: r for r in json.loads(read(out))["records"]}
    assert records["theorem_error_shrinks"]["status"] == "PASS"
    ratio = records["theorem_error_ratio"]["metrics"]["401"]
    assert (ratio["y"], ratio["y_small"]) == (6, 5)
    assert ratio["ratio"] == ratio["ratio_small"]


@NEEDS_FORK
def test_spectrum_pool_clamped_to_cpus_and_primes(monkeypatch):
    # _fork_map's pool sizes, counted at os.fork: each sweep that forks
    # records how many workers it started
    sizes, forks = [], []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    def pooled_rows(p_min, p_max, workers):
        forks.clear()
        rows = list(run_spectrum_sweep(p_min, p_max, workers))
        if forks:
            sizes.append(len(forks))
        return rows

    monkeypatch.setattr(cli.os, "fork", counting_fork)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    serial = pooled_rows(3, 100, 1)
    assert pooled_rows(3, 100, 10**6) == serial
    assert pooled_rows(3, 7, 64) == serial[:3]
    pooled_rows(3, 3, 8)  # one prime: serial
    assert sizes == [4, 3]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    pooled_rows(3, 100, 8)
    assert sizes == [4, 3]
    # without os.fork the rows are made in-process
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.delattr(cli.os, "fork")
    assert pooled_rows(3, 100, 8) == serial
    assert sizes == [4, 3]


def _double_or_raise(n):
    if n < 0:
        raise ChainViolationError(f"negative item {n}")
    return 2 * n


@NEEDS_FORK
def test_fork_map_keeps_item_order(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    items = range(1000)
    assert list(sweep._fork_map(_double_or_raise, items, 3)) == [2 * n for n in items]


@NEEDS_FORK
def test_fork_map_sends_a_result_above_pipe_buf_whole(monkeypatch):
    # a 100 KB result crosses the pipe as one record, also when each write
    # takes at most 1000 bytes of it (the workers inherit the short write)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    size = 100_000
    assert size > select.PIPE_BUF
    expected = [bytes([n]) * size for n in range(4)]
    assert list(sweep._fork_map(lambda n: bytes([n]) * size, range(4), 2)) == expected
    write = os.write
    monkeypatch.setattr(cli.os, "write", lambda fd, data: write(fd, data[:1000]))
    assert list(sweep._fork_map(lambda n: bytes([n]) * size, range(4), 2)) == expected


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=NEEDS_FORK)])
def test_fork_map_raises_a_worker_exception_as_in_process(workers, monkeypatch):
    # the item -3 falls to the second worker; the parent raises its
    # exception with the in-process type and message, after the results
    # before it
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    results = sweep._fork_map(_double_or_raise, [1, 2, 3, -3, 4, -5], workers)
    assert [next(results) for _ in range(3)] == [2, 4, 6]
    with pytest.raises(ChainViolationError) as caught:
        next(results)
    assert type(caught.value) is ChainViolationError
    assert str(caught.value) == "negative item -3"
    with pytest.raises(ValueError, match="^invalid literal for int"):
        list(sweep._fork_map(int, ["7", "x"], workers))


def _start_pooled_sweep(out):
    """`spectrum --pmax 200000 --workers 2 --out out` in a new session, and
    the pids of its two workers once both have started.  The sweep gets
    SIGINT's default action, as a shell gives a foreground job, even when
    the tests run with SIGINT ignored (a program keeps an inherited
    SIG_IGN, so it would ignore the test's SIGINT too)."""
    src = os.path.dirname(os.path.dirname(subproducts.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "subproducts.cli", "spectrum", "--pmax", "200000",
         "--workers", "2", "--out", str(out)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        start_new_session=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline and proc.poll() is None:
        found = subprocess.run(["pgrep", "-P", str(proc.pid)],
                               capture_output=True, text=True).stdout.split()
        if len(found) == 2:
            return proc, [int(pid) for pid in found]
        time.sleep(0.02)
    return proc, []


def _finish_in_session(proc):
    """proc's exit code and stderr, and whether any process of its session
    outlived it; the whole group is killed if it runs past the timeout."""
    try:
        _, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    try:
        os.killpg(proc.pid, signal.SIGKILL)
        left = True
    except ProcessLookupError:
        left = False
    return proc.returncode, err, left


POOLED = pytest.mark.skipif(
    not FORK or (os.cpu_count() or 1) < 2 or shutil.which("pgrep") is None,
    reason="needs os.fork, two CPUs and pgrep",
)


@POOLED
def test_interrupted_pooled_sweep_exits_130(tmp_path):
    # SIGINT to the whole group, as a terminal's Ctrl-C sends it
    out = tmp_path / "rows.csv"
    proc, workers = _start_pooled_sweep(out)
    if workers:
        os.killpg(proc.pid, signal.SIGINT)
    code, err, left = _finish_in_session(proc)
    assert workers, "the pool never started"
    assert (code, err, left) == (130, "interrupted\n", False)
    assert os.listdir(tmp_path) == []


@POOLED
def test_lost_worker_exits_2(tmp_path):
    out = tmp_path / "rows.csv"
    proc, workers = _start_pooled_sweep(out)
    if workers:
        os.kill(workers[0], signal.SIGKILL)
    code, err, left = _finish_in_session(proc)
    assert workers, "the pool never started"
    assert (code, left) == (2, False)
    assert err.startswith("error: spectrum worker ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_console_script_runs():
    proc = _run_fresh(None, "-m", "subproducts.cli", "counts", "--p", "3", "--y", "2")
    assert proc.stdout == "b,count\n1,2\n2,2\n"


def test_importing_cli_runs_no_sieve():
    # the random harnesses slice modcore.small_primes(), built on first use
    _run_fresh("""
import subproducts.modcore as modcore
sieved = []
real = modcore.primes_between
def spy(lo, hi):
    sieved.append((lo, hi))
    return real(lo, hi)
modcore.primes_between = spy
import subproducts.cli
import subproducts.friable as friable
assert sieved == [], sieved
assert friable.HARNESS_Y_MAX <= modcore.SMALL_PRIME_LIMIT
""")


def test_single_process_commands_load_no_pool_stack():
    # no command loads the executor stack: counts and verify run
    # in-process, and spectrum --workers 2 forks its workers and writes
    # the --workers 1 bytes.
    # The records are NamedTuples or plain classes, so the import leaves
    # out dataclasses and inspect, which every launch and worker would pay
    _run_fresh("""
import contextlib, io, os, sys, tempfile
import subproducts.cli as cli
heavy = [m for m in ("dataclasses", "inspect") if m in sys.modules]
assert heavy == [], heavy
POOL = ("concurrent.futures.process", "multiprocessing")
def loaded():
    return [m for m in POOL if m in sys.modules]
assert loaded() == [], loaded()
with tempfile.TemporaryDirectory() as tmp:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["counts", "--p", "101", "--y", "6"]) == 0
        assert cli.main(["verify", "--pmax", "101",
                         "--out", os.path.join(tmp, "r.json")]) == 0
    assert loaded() == [], loaded()
    one, two = os.path.join(tmp, "w1.csv"), os.path.join(tmp, "w2.csv")
    assert cli.main(["spectrum", "--pmax", "2000", "--out", one]) == 0
    assert loaded() == [], loaded()
    assert cli.main(["spectrum", "--pmax", "2000", "--workers", "2", "--out", two]) == 0
    assert loaded() == [], loaded()
    with open(one, "rb") as a, open(two, "rb") as b:
        assert a.read() == b.read()
""")


def _run_fresh(code, *argv):
    """Run `python -c code *argv`, or `python *argv` when code is None, in a
    new interpreter that imports this checkout's package, installed or not;
    assert that it exits 0, and return the finished process."""
    src = os.path.dirname(os.path.dirname(subproducts.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *(["-c", code] if code is not None else []), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc


# The sweep, its forked workers, counts and coverage load none of LAZY:
# the character and factorization stacks, json, cmath, and fractions with
# the decimal module it imports.  Given a comma-separated list of modules
# and a command as its arguments, the script then runs the command and
# checks that it loaded exactly those of LAZY.  It is plain Python, so
# ci/stdlib-gates.sh runs it too, with no arguments, on interpreters that
# have no pytest.
SWEEP_PATH_LOADS = """
import os, sys, tempfile
import subproducts.cli as cli
LAZY = ("subproducts.characters", "subproducts.friable", "json", "cmath",
        "fractions", "decimal")
def loaded():
    return [m for m in LAZY if m in sys.modules]
assert loaded() == [], loaded()
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "out.csv")
    for argv in (["spectrum", "--pmax", "2000"],
                 ["spectrum", "--pmax", "2000", "--workers", "2"],
                 ["counts", "--p", "101", "--y", "6"],
                 ["coverage", "--p", "101", "--a", "1", "--d", "1", "--ymax", "100"]):
        assert cli.main(argv + ["--out", out]) == 0, argv
        assert loaded() == [], (argv, loaded())
    if len(sys.argv) > 1:
        loads, argv = sys.argv[1].split(","), sys.argv[2:]
        assert cli.main(argv + ["--out", out]) == 0, argv
        assert loaded() == loads, (argv, loaded())
"""


def test_each_command_loads_only_the_modules_it_runs():
    # factorize, charsum and verify, each in an interpreter of its own after
    # the sweep path, load what they run and nothing more of LAZY
    for loads, argv in (
        ("subproducts.friable,fractions,decimal",
         ["factorize", "--mode", "kway", "--n", "30", "--y", "10", "--k", "2"]),
        ("subproducts.characters,cmath",
         ["charsum", "--p", "101", "--k", "3", "--t", "50"]),
        ("subproducts.characters,subproducts.friable,json,cmath,fractions,decimal",
         ["verify", "--pmax", "101"]),
    ):
        _run_fresh(SWEEP_PATH_LOADS, loads, *argv)


def test_package_root_loads_its_modules_on_first_use():
    _run_fresh("""
import sys
import subproducts
assert [m for m in sys.modules if m.startswith("subproducts.")] == []
assert callable(subproducts.friable.psi_exact)
assert callable(subproducts.characters.char_sum)
assert callable(subproducts.cli.main)
for name in ("modcore", "subsetprod"):
    assert getattr(subproducts, name) is sys.modules["subproducts." + name]
try:
    subproducts.nope
except AttributeError:
    pass
else:
    raise AssertionError("subproducts.nope resolved")
assert not hasattr(subproducts, "nope")
""")


def _context_with_tables():
    ctx = modcore.build_context(101)
    ctx.ind, ctx.table
    return ctx


@pytest.mark.parametrize(
    "make, fields",
    [
        (lambda: characters.polya_vinogradov_scan(modcore.build_context(31)),
         ("max_magnitude", "violations")),
        (lambda: subsetprod.subset_product_counts(31, 6), ("p", "counts")),
        (lambda: subsetprod.CoverageState(modcore.build_context(31), 1), ("ctx", "mask")),
        (_context_with_tables, ("p", "order", "ind", "table")),
    ],
    ids=["PartialSumScan", "SubsetProductCounts", "CoverageState", "PrimeContext"],
)
def test_frozen_records_refuse_assignment(make, fields):
    record = make()
    for name in fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert getattr(record, name) is before
