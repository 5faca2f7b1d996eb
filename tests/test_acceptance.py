"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criteria 1-11 run the `verify` subcommand's own check
functions from `subproducts.cli`, with the seeds and sizes pinned here, and
assert on the records they return.  Every tolerance and bound is pinned here.
"""

import time

from subproducts import cli
from subproducts.cli import (
    SweepConfig,
    run_spectrum_sweep,
    run_verification_suite,
    verification_report_json,
)


def _criterion(num, name, ok, elapsed, cap, detail=""):
    status = "PASS" if ok and elapsed < cap else "FAIL"
    print(
        f"acceptance {num:02d} {name}: {status} "
        f"({elapsed:.2f}s of {cap:.0f}s budget) {detail}"
    )
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < cap, f"criterion {num} ({name}) exceeded {cap}s: {elapsed:.2f}s"


def _passed(*records):
    return all(rec.status == "PASS" for rec in records)


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    rec = cli.check_dp_vs_enumeration()
    ok = _passed(rec) and rec.metrics == {"cases": 80, "mismatches": 0}
    _criterion(1, "oracle-equivalence", ok, time.perf_counter() - t0, 30, rec.metrics)


def test_criterion_02_character_crosscheck():
    t0 = time.perf_counter()
    rec = cli.check_dp_vs_characters(31)
    ok = _passed(rec) and rec.params["p_max"] == 31 and rec.metrics["failures"] == 0
    _criterion(2, "character-crosscheck", ok, time.perf_counter() - t0, 60, rec.metrics)


def test_criterion_03_mass_conservation():
    # also requires counts[0] == 0 (no product of units is divisible by p)
    t0 = time.perf_counter()
    rec = cli.check_mass_conservation(seed=2024, p_cap=1009, pairs=1000)
    ok = (
        _passed(rec)
        and rec.params == {"pairs": 1000, "p_max": 1009, "seed": 2024}
        and rec.metrics["failures"] == 0
    )
    _criterion(
        3, "mass-conservation", ok, time.perf_counter() - t0, 600,
        f"{rec.metrics} (1000 pairs, p <= 1009)",
    )


def test_criterion_04_spectrum_chain():
    # also requires y' >= y on every row where y' exists
    t0 = time.perf_counter()
    rec = cli.check_spectrum_chain(3, 10_000, workers=1)
    ok = _passed(rec) and rec.metrics == {"primes": 1228, "violation": ""}
    _criterion(
        4, "spectrum-chain", ok, time.perf_counter() - t0, 300,
        f"{rec.metrics} (single-threaded)",
    )


def test_criterion_05_theorem_error_reports():
    t0 = time.perf_counter()
    report, shrinks = cli.check_theorem_error("p^0.6", 1009)
    again, _ = cli.check_theorem_error("p^0.6", 1009)
    ok = (
        report.to_json() == again.to_json()  # bit-for-bit reproducible
        and _passed(shrinks)  # finite, and the error shrinks as y grows
        and shrinks.params["primes"] == [101, 211, 401, 1009]
    )
    _criterion(
        5, "theorem-error-report", ok, time.perf_counter() - t0, 300, report.metrics,
    )


def test_criterion_06_kway_property_suite():
    # sharpness: q^(k+1) for the least prime q > sqrt(y) admits no k-way
    # split, and the greedy refuses it with BoundViolatedError
    t0 = time.perf_counter()
    harness = cli.check_kway_random(seed=4096, instances=10_000)
    sharp = cli.check_kway_sharpness(y_values=range(4, 101))
    ok = (
        _passed(harness, sharp)
        and harness.params == {"instances": 10_000, "seed": 4096}
        and sharp.metrics == {"cases": 291, "infeasible_confirmed": 291}
    )
    _criterion(
        6, "kway-property-suite", ok, time.perf_counter() - t0, 120,
        f"{harness.metrics} {sharp.metrics}",
    )


def test_criterion_07_ranged_property_suite():
    t0 = time.perf_counter()
    harness = cli.check_ranged_random(seed=8192, instances=10_000)
    sharp = cli.check_ranged_sharpness()
    ok = (
        _passed(harness, sharp)
        and harness.params == {"instances": 10_000, "seed": 8192}
        and sharp.metrics == {"confirmed_infeasible": 2}
    )
    _criterion(
        7, "ranged-property-suite", ok, time.perf_counter() - t0, 120,
        f"{harness.metrics} {sharp.metrics}",
    )


def test_criterion_08_z_lemma_grid():
    t0 = time.perf_counter()
    rec = cli.check_lemma_z_grid(angles=1000, deltas=100)
    ok = _passed(rec) and rec.metrics == {"pairs": 100_000, "failures": 0}
    _criterion(8, "z-lemma-grid", ok, time.perf_counter() - t0, 10, rec.metrics)


def test_criterion_09_near_one_scan():
    t0 = time.perf_counter()
    rec = cli.check_lemma_near_one(311)
    ok = _passed(rec) and rec.params["p_max"] == 311 and rec.metrics["violations"] == 0
    _criterion(9, "near-one-scan", ok, time.perf_counter() - t0, 120, rec.metrics)


def test_criterion_10_polya_vinogradov():
    t0 = time.perf_counter()
    rec = cli.check_polya_vinogradov(311)
    ok = _passed(rec) and rec.params["p_max"] == 311 and rec.metrics["violations"] == 0
    _criterion(
        10, "polya-vinogradov", ok, time.perf_counter() - t0, 120,
        f"{rec.metrics} (all p <= 311, all k != 0, all t <= p)",
    )


# Measured ceiling for the normalized Psi discrepancy on this grid is
# ~0.74; recorded acceptance constant pinned at 1.0.
PSI_DISCREPANCY_CONSTANT = 1.0


def test_criterion_11_friable_count():
    t0 = time.perf_counter()
    rec = cli.check_friable_count()
    worst = rec.metrics["max_normalized_discrepancy"]
    _criterion(
        11, "friable-count", worst < PSI_DISCREPANCY_CONSTANT,
        time.perf_counter() - t0, 60,
        f"max_normalized_discrepancy={worst:.4f} < {PSI_DISCREPANCY_CONSTANT}",
    )


def test_criterion_12_verify_determinism():
    t0 = time.perf_counter()
    base = dict(p_min=3, p_max=311, checks=("spectrum", "lemmas", "friable"), seed=7)
    cfg_a = SweepConfig(**base, workers=1)
    cfg_b = SweepConfig(**base, workers=1)
    cfg_c = SweepConfig(**base, workers=3)
    report_a = verification_report_json(cfg_a, run_verification_suite(cfg_a))
    report_b = verification_report_json(cfg_b, run_verification_suite(cfg_b))
    report_c = verification_report_json(cfg_c, run_verification_suite(cfg_c))
    ok = report_a == report_b == report_c
    _criterion(
        12, "verify-determinism", ok, time.perf_counter() - t0, 300,
        f"bytes={len(report_a)} identical across reruns and worker counts",
    )


def test_spectrum_sweep_parallel_smoke():
    # not a numbered criterion: the worker pool itself must produce the
    # same rows the serial path does
    serial = list(run_spectrum_sweep(3, 200, 1))
    parallel = list(run_spectrum_sweep(3, 200, 4))
    assert serial == parallel
