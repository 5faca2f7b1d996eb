"""Output checks made apart from the program.

Nothing here imports `subproducts`.  Primes, Legendre symbols, primitive
roots, orders and discrete logs come from sympy; coverage is recomputed
in residue coordinates with numpy, without any index table; friable
counts come from a largest-prime-factor sieve of the benchmark's own.

Each `check_*` function returns a list of error strings, empty when the
output is correct.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np
import sympy
from sympy.ntheory import discrete_log, n_order

import workloads

SPECTRUM_HEADER = "p,n2,g,G,y,yprime"

# Record names the verify report lists for each check group, in order.
VERIFY_RECORDS = {
    "spectrum": ["spectrum_chain"],
    "theorem": [
        "dp_vs_enumeration", "dp_vs_characters", "mass_conservation",
        "theorem_error_ratio", "theorem_error_shrinks",
    ],
    "lemmas": ["lemma_circle_bound", "lemma_z_grid", "lemma_near_one_scan"],
    "factorization": [
        "kway_random_harness", "kway_sharpness_witness",
        "ranged_random_harness", "ranged_sharpness_witness",
    ],
    "friable": ["friable_count_discrepancy"],
    "burgess": ["polya_vinogradov_scan", "burgess_cancellation_ratio"],
}
FAILURE_COUNTERS = ("failures", "mismatches", "violations", "internal_contradictions")

# Relative tolerance for float values summed in another order than the program's.
FLOAT_RTOL = 1e-9


# ---------------------------------------------------------------------------
# exact helpers


def ceil_power(p: int, num: int, den: int) -> int:
    """ceil(p^(num/den)) in integer arithmetic: least v with v^den >= p^num."""
    root, exact = sympy.integer_nthroot(p**num, den)
    return root if exact else root + 1


def least_nonresidue(p: int) -> int:
    return next(n for n in range(2, p) if sympy.legendre_symbol(n, p) == -1)


def discrete_logs(p: int, ns) -> list[int]:
    """ind(n) to the least primitive root, from sympy's discrete_log."""
    g = sympy.primitive_root(p)
    return [discrete_log(p, n % p, g) for n in ns]


def residue_cover_step(p: int, elements) -> int | None:
    """Position (0-based) of the element after which subset products of the
    elements reached so far cover every unit mod p, or None if they never do.
    Works on a Boolean array over residues; no discrete logs."""
    reached = np.zeros(p, dtype=bool)
    reached[1] = True
    for i, n in enumerate(elements):
        r = n % p
        if r:
            reached[np.flatnonzero(reached) * r % p] = True
        if np.count_nonzero(reached) == p - 1:
            return i
    return None


def generation_bound(p: int) -> int:
    """Least G with <2..G> = (Z/p)^*: in a cyclic group the subgroup made by
    some elements has order the lcm of their orders."""
    if p == 2:
        return 1
    order = 1
    for n in range(2, p):
        order = math.lcm(order, n_order(n, p))
        if order == p - 1:
            return n
    raise AssertionError(f"no generating prefix below {p}")


# ---------------------------------------------------------------------------
# spectrum


def parse_spectrum(text: str) -> list[tuple]:
    lines = text.split("\n")
    if lines[0] != SPECTRUM_HEADER or lines[-1] != "":
        raise ValueError("bad spectrum CSV framing")
    rows = []
    for line in lines[1:-1]:
        p, n2, g, big_g, y, yp = line.split(",")
        rows.append((int(p), int(n2), int(g), int(big_g), int(y), int(yp) if yp else None))
    return rows


def check_spectrum_row_values(p: int, big_g: int, y: int, yp: int | None) -> list[str]:
    """Recompute G, y and y' for one row in residue coordinates."""
    errors = []
    if generation_bound(p) != big_g:
        errors.append(f"p={p}: G={big_g}, expected {generation_bound(p)}")
    step = residue_cover_step(p, range(1, p))
    if step is None or step + 1 != y:
        errors.append(f"p={p}: y={y}, recomputed {None if step is None else step + 1}")
    primes = list(sympy.primerange(2, p if yp is None else yp + 1))
    step = residue_cover_step(p, primes)
    expected = None if step is None else primes[step]
    if expected != yp:
        errors.append(f"p={p}: y'={yp}, recomputed {expected}")
    return errors


def check_spectrum(text: str, pmin: int, pmax: int, seed: int, samples: int) -> list[str]:
    """Chain, n2 and g on every row; the row set; G, y, y' on a seeded sample."""
    try:
        rows = parse_spectrum(text)
    except ValueError as exc:
        return [f"unparseable spectrum output: {exc}"]
    errors = []
    expected = list(sympy.primerange(pmin, pmax + 1))
    if [row[0] for row in rows] != expected:
        errors.append(f"row set differs from the {len(expected)} primes in [{pmin}, {pmax}]")
    for p, n2, g, big_g, y, yp in rows:
        if not (n2 <= big_g <= g and big_g <= y and (yp is None or y <= yp)):
            errors.append(f"p={p}: chain violated: n2={n2} G={big_g} g={g} y={y} y'={yp}")
        if n2 != least_nonresidue(p):
            errors.append(f"p={p}: n2={n2}, expected {least_nonresidue(p)}")
        if g != sympy.primitive_root(p):
            errors.append(f"p={p}: g={g}, expected {sympy.primitive_root(p)}")
    for p, _, _, big_g, y, yp in random.Random(seed).sample(rows, min(samples, len(rows))):
        errors += check_spectrum_row_values(p, big_g, y, yp)
    return errors


# ---------------------------------------------------------------------------
# verify report


def theorem_ratio(p: int, y: int) -> Fraction:
    """max_b |S_y(b) - 2^y/(p-1)| * p^2 / 2^y, with S_y counted by rotations
    in discrete-log coordinates."""
    m = p - 1
    counts = [0] * m
    counts[0] = 1
    for s in discrete_logs(p, range(1, y + 1)):
        counts = [counts[i] + counts[i - s] for i in range(m)]
    two_y = 1 << y
    return Fraction(max(abs(c * m - two_y) for c in counts), m) * p * p / two_y


def character_matrix(p: int, ns, ks) -> np.ndarray:
    """chi_k(n) for k in ks (rows) and n in ns (columns), all n coprime to p."""
    m = p - 1
    ind = np.array(discrete_logs(p, ns), dtype=np.int64)
    turns = np.outer(np.asarray(ks, dtype=np.int64), ind) % m
    return np.exp(2j * np.pi * turns / m)


def pv_ratio(p: int) -> float:
    """Largest nonprincipal partial sum over t < p, over sqrt(p) log p."""
    sums = np.cumsum(character_matrix(p, range(1, p), range(1, p - 1)), axis=1)
    return float(np.abs(sums).max()) / (math.sqrt(p) * math.log(p))


def burgess_ratio(p: int, t: int) -> float:
    sums = character_matrix(p, range(1, t + 1), range(1, p - 1)).sum(axis=1)
    return float(np.abs(sums).max()) / t


def friable_discrepancies(ys=(50, 100, 200), points: int = 20) -> dict[str, float]:
    """Worst |Psi(t, y) - t(1 - log(log t / log y))| / (t / log t) per y."""
    limit = max(ys) ** 2
    lpf = np.ones(limit + 1, dtype=np.int64)
    for q in sympy.primerange(2, limit + 1):
        lpf[q::q] = q  # ascending q: the last mark is the largest prime factor
    out = {}
    for y in ys:
        smooth = np.cumsum(lpf <= y) - 1  # index 0 is not counted
        worst = 0.0
        for i in range(points):
            t = y + round(i * (y * y - y) / (points - 1))
            approx = t * (1.0 - math.log(math.log(t) / math.log(y)))
            worst = max(worst, abs(int(smooth[t]) - approx) / (t / math.log(t)))
        out[str(y)] = worst
    return out


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_RTOL)


def check_verify_values(records: dict, pmax: int) -> list[str]:
    """Recompute the report's measured values apart from the program."""
    errors = []
    if "spectrum_chain" in records:
        primes = records["spectrum_chain"]["metrics"]["primes"]
        if primes != sympy.primepi(pmax) - 1:
            errors.append(f"spectrum_chain.primes={primes}, expected pi({pmax}) - 1")
    if "theorem_error_ratio" in records:
        reported = records["theorem_error_ratio"]["metrics"]
        expected, shrinks = {}, True
        for p in (101, 211, 401, 1009):
            if p > pmax:
                continue
            y = min(p - 1, ceil_power(p, 3, 5))
            y_small = min(p - 1, ceil_power(p, 1, 4))
            ratio = float(theorem_ratio(p, y))
            ratio_small = float(theorem_ratio(p, y_small))
            expected[str(p)] = {"y": y, "ratio": ratio, "y_small": y_small,
                                "ratio_small": ratio_small}
            shrinks = shrinks and math.isfinite(ratio) and ratio < ratio_small
        if reported != expected:
            errors.append(f"theorem_error_ratio {reported} != recomputed {expected}")
        status = records["theorem_error_shrinks"]["status"]
        if status != ("PASS" if shrinks else "FAIL"):
            errors.append(f"theorem_error_shrinks is {status}, recomputed shrink={shrinks}")
    if "polya_vinogradov_scan" in records:
        worst = max(pv_ratio(p) for p in sympy.primerange(3, min(311, pmax) + 1))
        got = records["polya_vinogradov_scan"]["metrics"]["worst_ratio_to_bound"]
        if not _close(got, worst):
            errors.append(f"worst_ratio_to_bound={got}, recomputed {worst}")
    if "burgess_cancellation_ratio" in records:
        reported = records["burgess_cancellation_ratio"]["metrics"]
        primes = [p for p in (101, 211, 311, 1009) if p <= pmax]
        if sorted(reported) != sorted(str(p) for p in primes):
            errors.append(f"burgess primes {sorted(reported)} != {primes}")
        for p in primes:
            t = ceil_power(p, 3, 5)
            got = reported.get(str(p), {})
            if got.get("t") != t or not _close(got.get("max_ratio", math.nan), burgess_ratio(p, t)):
                errors.append(f"burgess p={p}: {got}, recomputed t={t} {burgess_ratio(p, t)}")
    if "friable_count_discrepancy" in records:
        metrics = records["friable_count_discrepancy"]["metrics"]
        per_y = friable_discrepancies()
        if sorted(metrics["per_y"]) != sorted(per_y) or not all(
            _close(metrics["per_y"][y], v) for y, v in per_y.items()
        ) or not _close(metrics["max_normalized_discrepancy"], max(per_y.values())):
            errors.append(f"friable discrepancy {metrics}, recomputed {per_y}")
    return errors


def check_verify(text: str, workload: str, seed: int, tiny: bool) -> list[str]:
    """Structure, echoed flags, failure counters and recomputed values."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"unparseable verify report: {exc}"]
    errors = []
    groups = workloads.verify_checks(workload)
    pmax = workloads.verify_pmax(tiny)
    expected_config = {
        "checks": sorted(groups), "epsilon": "19/100", "p_max": pmax,
        "p_min": 3, "seed": seed, "y_rule": "p^0.6",
    }
    if report.get("schema_version") != 1 or report.get("config") != expected_config:
        errors.append(f"config {report.get('config')} != flags given {expected_config}")
    names = [name for group in workloads.ALL_CHECKS if group in groups
             for name in VERIFY_RECORDS[group]]
    records = {rec["name"]: rec for rec in report.get("records", [])}
    if [rec["name"] for rec in report.get("records", [])] != names:
        return errors + [f"records {list(records)} != expected {names}"]
    for name, rec in records.items():
        metrics = rec["metrics"]
        if rec["status"] == "FAIL":
            errors.append(f"{name} FAILED")
        for key in FAILURE_COUNTERS:
            if metrics.get(key, 0) != 0:
                errors.append(f"{name}.{key}={metrics[key]}")
        if metrics.get("violation", ""):
            errors.append(f"{name}.violation={metrics['violation']!r}")
    if "kway_sharpness_witness" in records:
        m = records["kway_sharpness_witness"]["metrics"]
        if m["infeasible_confirmed"] != m["cases"]:
            errors.append(f"kway_sharpness_witness {m}")
    if "ranged_sharpness_witness" in records:
        rec = records["ranged_sharpness_witness"]
        if rec["metrics"]["confirmed_infeasible"] != len(rec["params"]["cases"]):
            errors.append(f"ranged_sharpness_witness {rec['metrics']}")
    return errors + check_verify_values(records, pmax)
