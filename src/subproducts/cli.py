"""Batch front end: spectrum sweeps, the verification suite, serialization.

Subcommands:
  spectrum   sweep primes, one row (p, n2, g, G, y, yprime) per prime
  counts     exact subset-product counts for one (p, y)
  coverage   arithmetic-progression coverage threshold
  factorize  bounded-part factorizations (kway | ranged | threeway)
  charsum    a single character partial sum
  verify     run the verification suite, emit a JSON report

Exit codes: 0 all pass, 1 any FAIL, 2 usage or I/O error.  Reports are
deterministic for a fixed config and seed: records are emitted in a fixed
order, randomized harnesses derive from the seed, and wall-clock timings
go to the console only, never into the serialized output.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import random
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from . import characters, friable, modcore, subsetprod

SPECTRUM_HEADER = "p,n2,g,G,y,yprime"
SCHEMA_VERSION = 1
ALL_CHECKS = ("spectrum", "theorem", "lemmas", "factorization", "friable", "burgess")
DEFAULT_EPSILON = Fraction(19, 100)


class InvalidRangeError(ValueError):
    """Raised for an unusable prime range or epsilon."""


class ChainViolationError(AssertionError):
    """A spectrum row violated n2 <= G <= g or G <= y."""


@dataclass
class SweepConfig:
    p_min: int = 3
    p_max: int = 1009
    checks: tuple[str, ...] = ALL_CHECKS
    y_rule: str = "p^0.6"
    epsilon: Fraction = DEFAULT_EPSILON
    out_format: str = "csv"
    out_path: str | None = None
    workers: int = 1
    seed: int = 0

    def validate(self) -> None:
        if not 3 <= self.p_min <= self.p_max:
            raise InvalidRangeError(
                f"need 3 <= pmin <= pmax, got [{self.p_min}, {self.p_max}]"
            )
        if not 0 < self.epsilon < Fraction(1, 5):
            raise InvalidRangeError(f"epsilon={self.epsilon} outside (0, 1/5)")
        unknown = set(self.checks) - set(ALL_CHECKS)
        if unknown:
            raise InvalidRangeError(f"unknown checks: {sorted(unknown)}")
        if self.workers < 1:
            raise InvalidRangeError("workers must be >= 1")


@dataclass
class CheckRecord:
    """One verification item.  FAIL is reserved for theorem-backed
    invariants; measured quantities with unspecified constants are
    REPORT.  elapsed is console-only metadata (see to_json)."""

    name: str
    params: dict
    status: str  # PASS | FAIL | REPORT
    metrics: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def to_json(self) -> dict:
        # elapsed intentionally excluded: reports must be byte-identical
        # across runs with the same config and seed
        return {
            "name": self.name,
            "params": self.params,
            "status": self.status,
            "metrics": self.metrics,
        }


def parse_y_rule(rule: str):
    """Parse a per-prime y choice: either 'p^<float>' or an integer constant.

    Results are clamped to [1, p-1].
    """
    rule = rule.strip()
    if rule.startswith("p^"):
        exponent = float(rule[2:])

        def apply(p: int) -> int:
            return min(p - 1, max(1, math.ceil(p**exponent)))

        return apply
    value = int(rule)

    def apply_const(p: int) -> int:
        return min(p - 1, max(1, value))

    return apply_const


# ---------------------------------------------------------------------------
# spectrum sweep


def _spectrum_row(p: int) -> tuple[int, int, int, int, int, int | None]:
    ctx = modcore.build_context(p)
    n2 = modcore.least_nonresidue(p)
    big_g = modcore.group_generation_bound(ctx)
    y = subsetprod.coverage_threshold(ctx)
    yp = subsetprod.prime_coverage_threshold(ctx)
    return (p, n2, ctx.g, big_g, y, yp)


def run_spectrum_sweep(config: SweepConfig) -> list[tuple]:
    """One row per prime in [p_min, p_max], ascending, chain-checked."""
    config.validate()
    ps = [p for p in modcore.primes_up_to(config.p_max) if p >= config.p_min]
    if config.workers > 1 and len(ps) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(_spectrum_row, ps, chunksize=32))
    else:
        rows = [_spectrum_row(p) for p in ps]
    rows.sort(key=lambda row: row[0])
    for p, n2, g, big_g, y, yp in rows:
        if not (n2 <= big_g <= g and big_g <= y):
            raise ChainViolationError(
                f"chain violation at p={p}: n2={n2}, G={big_g}, g={g}, y={y}"
            )
        if yp is not None and yp < y:
            raise ChainViolationError(f"y'={yp} < y={y} at p={p}")
    return rows


def spectrum_csv(rows: list[tuple]) -> str:
    lines = [SPECTRUM_HEADER]
    for p, n2, g, big_g, y, yp in rows:
        lines.append(f"{p},{n2},{g},{big_g},{y},{'' if yp is None else yp}")
    return "\n".join(lines) + "\n"


def spectrum_json(rows: list[tuple]) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "rows": [
            {"p": p, "n2": n2, "g": g, "G": big_g, "y": y, "yprime": yp}
            for p, n2, g, big_g, y, yp in rows
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# verification suite


def _timed(record: CheckRecord, t0: float) -> CheckRecord:
    record.elapsed = time.perf_counter() - t0
    return record


def check_dp_vs_enumeration(config: SweepConfig) -> CheckRecord:
    t0 = time.perf_counter()
    mismatches = 0
    cases = 0
    for p in (3, 5, 7, 11, 13):
        for y in range(1, 17):
            cases += 1
            if subsetprod.subset_product_counts(p, y).counts != \
                    subsetprod.enumerate_subset_counts(p, y):
                mismatches += 1
    rec = CheckRecord(
        name="dp_vs_enumeration",
        params={"primes": [3, 5, 7, 11, 13], "y_max": 16},
        status="PASS" if mismatches == 0 else "FAIL",
        metrics={"cases": cases, "mismatches": mismatches},
    )
    return _timed(rec, t0)


def check_dp_vs_characters(config: SweepConfig) -> CheckRecord:
    t0 = time.perf_counter()
    worst = 0.0
    failures = 0
    p_cap = min(31, config.p_max)
    for p in modcore.primes_up_to(p_cap):
        if p < 3:
            continue
        ctx = modcore.build_context(p)
        for y in range(1, 31):
            exact = subsetprod.subset_product_counts(p, y).counts
            approx = subsetprod.counts_via_characters(ctx, y)
            tol = 1e-6 * (1 << y) / (p - 1) + 1e-6
            dev = max(abs(exact[b] - approx[b]) for b in range(1, p))
            worst = max(worst, dev / tol)
            if dev > tol:
                failures += 1
    rec = CheckRecord(
        name="dp_vs_characters",
        params={"p_max": p_cap, "y_max": 30},
        status="PASS" if failures == 0 else "FAIL",
        metrics={"failures": failures, "worst_dev_over_tol": worst},
    )
    return _timed(rec, t0)


def check_mass_conservation(config: SweepConfig, pairs: int = 1000) -> CheckRecord:
    t0 = time.perf_counter()
    rng = random.Random(config.seed)
    ps = [p for p in modcore.primes_up_to(min(1009, config.p_max)) if p >= 3]
    failures = 0
    for _ in range(pairs):
        p = rng.choice(ps)
        y = rng.randint(1, p - 1)
        counts = subsetprod.subset_product_counts(p, y)
        if counts.unit_mass() != 1 << y or counts.counts[0] != 0:
            failures += 1
    rec = CheckRecord(
        name="mass_conservation",
        params={"pairs": pairs, "p_max": min(1009, config.p_max), "seed": config.seed},
        status="PASS" if failures == 0 else "FAIL",
        metrics={"failures": failures},
    )
    return _timed(rec, t0)


def check_spectrum_chain(config: SweepConfig) -> CheckRecord:
    t0 = time.perf_counter()
    try:
        rows = run_spectrum_sweep(config)
        status, violation = "PASS", ""
    except ChainViolationError as exc:
        rows, status, violation = [], "FAIL", str(exc)
    rec = CheckRecord(
        name="spectrum_chain",
        params={"p_min": config.p_min, "p_max": config.p_max},
        status=status,
        metrics={"primes": len(rows), "violation": violation},
    )
    return _timed(rec, t0)


def check_theorem_error(config: SweepConfig) -> list[CheckRecord]:
    t0 = time.perf_counter()
    y_rule = parse_y_rule(config.y_rule)
    ratios = {}
    shrink_ok = True
    for p in (101, 211, 401, 1009):
        if p > config.p_max:
            continue
        y_main = y_rule(p)
        y_small = subsetprod.theorem_y(p, 0.25)
        r_main = subsetprod.error_report(p, y_main).normalized_ratio
        r_small = subsetprod.error_report(p, y_small).normalized_ratio
        ratios[str(p)] = {
            "y": y_main,
            "ratio": r_main,
            "y_small": y_small,
            "ratio_small": r_small,
        }
        if not (math.isfinite(r_main) and r_main < r_small):
            shrink_ok = False
    report = CheckRecord(
        name="theorem_error_ratio",
        params={"y_rule": config.y_rule, "y_small_rule": "p^0.25"},
        status="REPORT",
        metrics=ratios,
    )
    monotone = CheckRecord(
        name="theorem_error_shrinks",
        params={"primes": sorted(int(p) for p in ratios)},
        status="PASS" if shrink_ok else "FAIL",
        metrics={},
    )
    _timed(report, t0)
    monotone.elapsed = 0.0
    return [report, monotone]


def check_lemma_circle(config: SweepConfig, tuples: int = 2000) -> CheckRecord:
    t0 = time.perf_counter()
    rng = random.Random(config.seed + 1)
    ctx = modcore.build_context(101)
    m = ctx.order
    failures = 0
    for _ in range(tuples):
        k_count = rng.randint(1, 6)
        delta = rng.uniform(0.05, 1.999 * math.sin(math.pi / (2 * k_count)))
        bound = characters.circle_lemma_bound(k_count, delta)
        thr = Fraction(characters.near_one_threshold_turns(delta))
        kchar = rng.randrange(1, m)
        pool = []
        for n in range(1, ctx.p):
            t = kchar * ctx.ind[n] % m
            if Fraction(min(t, m - t), m) <= thr:
                pool.append(n)
        prod = 1
        for _ in range(k_count):
            prod = prod * rng.choice(pool) % ctx.p
        angle = characters.char_angle(ctx, kchar, prod)
        re = characters.angle_to_complex(angle).real
        if re < bound - 1e-12:
            failures += 1
    rec = CheckRecord(
        name="lemma_circle_bound",
        params={"tuples": tuples, "p": 101, "seed": config.seed + 1},
        status="PASS" if failures == 0 else "FAIL",
        metrics={"failures": failures},
    )
    return _timed(rec, t0)


def check_lemma_z_grid(config: SweepConfig, angles: int = 1000, deltas: int = 100) -> CheckRecord:
    t0 = time.perf_counter()
    failures = 0
    for i in range(angles):
        angle = None if i == 0 else Fraction(i, angles)
        for j in range(1, deltas + 1):
            delta = 2.0 * j / (deltas + 1)
            if not characters.z_lemma_check(angle, delta):
                failures += 1
    rec = CheckRecord(
        name="lemma_z_grid",
        params={"angles": angles, "deltas": deltas},
        status="PASS" if failures == 0 else "FAIL",
        metrics={"pairs": angles * deltas, "failures": failures},
    )
    return _timed(rec, t0)


def check_lemma_near_one(config: SweepConfig) -> CheckRecord:
    t0 = time.perf_counter()
    p_cap = min(311, config.p_max)
    violations = 0
    hypothesis_hits = 0
    for p in modcore.primes_up_to(p_cap):
        if p < 3:
            continue
        ctx = modcore.build_context(p)
        y = max(1, math.floor(p**0.7))
        log_thresh = y * math.log(2) - 2 * math.log(p)
        limit = 16 * math.log(p) ** 3
        for k in range(1, ctx.order):
            if characters.log_product_one_plus_chi(ctx, k, y) > log_thresh:
                hypothesis_hits += 1
                count, _ = characters.near_one_exceptions(ctx, k, y, 1 / math.log(p))
                if count >= limit:
                    violations += 1
    rec = CheckRecord(
        name="lemma_near_one_scan",
        params={"p_max": p_cap, "y_rule": "floor(p^0.7)", "delta": "1/log p"},
        status="PASS" if violations == 0 else "FAIL",
        metrics={"hypothesis_hits": hypothesis_hits, "violations": violations},
    )
    return _timed(rec, t0)


def check_polya_vinogradov(config: SweepConfig) -> CheckRecord:
    t0 = time.perf_counter()
    p_cap = min(311, config.p_max)
    violations = 0
    worst_ratio = 0.0
    for p in modcore.primes_up_to(p_cap):
        if p < 3:
            continue
        scan = characters.polya_vinogradov_scan(modcore.build_context(p))
        violations += scan.violations
        worst_ratio = max(worst_ratio, scan.max_magnitude / scan.bound)
    rec = CheckRecord(
        name="polya_vinogradov_scan",
        params={"p_max": p_cap},
        status="PASS" if violations == 0 else "FAIL",
        metrics={"violations": violations, "worst_ratio_to_bound": worst_ratio},
    )
    return _timed(rec, t0)


def check_burgess_ratio(config: SweepConfig) -> CheckRecord:
    t0 = time.perf_counter()
    out = {}
    for p in (101, 211, 311, 1009):
        if p > config.p_max:
            continue
        ctx = modcore.build_context(p)
        t = math.ceil(p**0.6)  # comfortably above the p^(1/4+eps) regime
        _, mag = characters.max_nonprincipal_sum(ctx, t)
        out[str(p)] = {"t": t, "max_ratio": mag / t}
    rec = CheckRecord(
        name="burgess_cancellation_ratio",
        params={"t_rule": "ceil(p^0.6)"},
        status="REPORT",
        metrics=out,
    )
    return _timed(rec, t0)


# The random harnesses draw y <= HARNESS_Y_MAX and share one sieve.
HARNESS_Y_MAX = 200
_HARNESS_PRIMES = modcore.primes_up_to(HARNESS_Y_MAX)


def _primes_to(y: int) -> list[int]:
    """Primes <= y, for y <= HARNESS_Y_MAX."""
    return _HARNESS_PRIMES[: bisect.bisect_right(_HARNESS_PRIMES, y)]


def check_kway_random(config: SweepConfig, instances: int = 10_000) -> CheckRecord:
    t0 = time.perf_counter()
    rng = random.Random(config.seed + 2)
    failures = 0
    for _ in range(instances):
        y = rng.randint(4, HARNESS_Y_MAX)
        k = rng.randint(1, 6)
        n = _random_friable(rng, y, y ** (k + 1))
        res = friable.greedy_k_factorization(n, y, k)
        if len(res.factors) != k or any(f > y for f in res.factors):
            failures += 1
    rec = CheckRecord(
        name="kway_random_harness",
        params={"instances": instances, "seed": config.seed + 2},
        status="PASS" if failures == 0 else "FAIL",
        metrics={"failures": failures},
    )
    return _timed(rec, t0)


def _random_friable(rng: random.Random, y: int, n_sq_limit: int) -> int:
    """Random y-friable n with n^2 <= n_sq_limit (n = 1 possible)."""
    primes = _primes_to(y)
    n = 1
    while rng.random() < 0.9:
        q = rng.choice(primes)
        if (n * q) ** 2 > n_sq_limit:
            break
        n *= q
    return n


def _random_ranged_instance(rng: random.Random) -> tuple[int, int, int, Fraction]:
    """Instance satisfying the ranged-factorization hypotheses exactly."""
    while True:
        y = rng.randint(8, HARNESS_Y_MAX)
        k = rng.randint(1, 6)
        num_max = math.ceil(100 / (k + 2)) - 1
        eps = Fraction(rng.randint(1, num_max), 100)
        a, b = eps.numerator, eps.denominator
        usable = [q for q in _primes_to(y) if q**b <= y ** (b - a)]
        if not usable:
            continue
        lower = y ** (k * b + 2 * a)
        upper = y ** (k + 1)
        for _ in range(50):
            n = 1
            while n ** (2 * b) <= lower:
                n *= rng.choice(usable)
            if n * n < upper:
                return n, y, k, eps


def check_ranged_random(config: SweepConfig, instances: int = 10_000) -> CheckRecord:
    t0 = time.perf_counter()
    rng = random.Random(config.seed + 3)
    failures = 0
    contradictions = 0
    for _ in range(instances):
        n, y, k, eps = _random_ranged_instance(rng)
        a, b = eps.numerator, eps.denominator
        try:
            res = friable.ranged_factorization(n, y, k, eps)
        except friable.InternalContradictionError:
            contradictions += 1
            continue
        ell = len(res.factors)
        ok = (
            2 * ell > k
            and ell <= k
            and all(f <= y and f**b > y**a for f in res.factors)
        )
        if not ok:
            failures += 1
    rec = CheckRecord(
        name="ranged_random_harness",
        params={"instances": instances, "seed": config.seed + 3},
        status="PASS" if failures == 0 and contradictions == 0 else "FAIL",
        metrics={"failures": failures, "internal_contradictions": contradictions},
    )
    return _timed(rec, t0)


def check_kway_sharpness(config: SweepConfig) -> CheckRecord:
    t0 = time.perf_counter()
    bad = 0
    cases = 0
    for y in (10, 30, 100):
        for k in (1, 2, 3):
            witness = _kway_witness(y, k)
            cases += 1
            try:
                friable.greedy_k_factorization(witness, y, k)
                bad += 1  # must raise: witness exceeds the size bound
                continue
            except friable.BoundViolatedError:
                pass
            if friable.kway_feasible(witness, y, k):
                bad += 1
    rec = CheckRecord(
        name="kway_sharpness_witness",
        params={"y_values": [10, 30, 100], "k_max": 3},
        status="PASS" if bad == 0 else "FAIL",
        metrics={"cases": cases, "infeasible_confirmed": cases - bad},
    )
    return _timed(rec, t0)


def _kway_witness(y: int, k: int) -> int:
    """q^(k+1) for the least prime q in (sqrt(y), y]: y-friable, above the
    size bound, and with no k-way split into parts <= y (some part must
    carry two copies of q, and q^2 > y)."""
    root = math.isqrt(y)
    q = next(v for v in modcore.primes_up_to(y) if v > root)
    return q ** (k + 1)


def check_ranged_sharpness(config: SweepConfig) -> CheckRecord:
    t0 = time.perf_counter()
    bad = 0
    cases = []
    # q prime with 2^(k/2) < q < y^eps, times k/2 primes in (y/2, y) each:
    # sits just below the lower size bound, and no valid split exists
    for y, k, eps, q, halves in (
        (100, 2, Fraction(24, 100), 3, (53,)),
        (15700, 4, Fraction(1666, 10000), 5, (7853, 7877)),
    ):
        n = q
        for h in halves:
            n *= h
        cases.append({"y": y, "k": k, "epsilon": str(eps), "n": n})
        try:
            friable.ranged_factorization(n, y, k, eps)
            bad += 1
            continue
        except friable.HypothesisViolatedError:
            pass
        if friable.ranged_feasible(n, y, k, eps):
            bad += 1
    rec = CheckRecord(
        name="ranged_sharpness_witness",
        params={"cases": cases},
        status="PASS" if bad == 0 else "FAIL",
        metrics={"confirmed_infeasible": len(cases) - bad},
    )
    return _timed(rec, t0)


def check_friable_count(config: SweepConfig) -> CheckRecord:
    t0 = time.perf_counter()
    worst = 0.0
    details = {}
    for y in (50, 100, 200):
        local = 0.0
        for i in range(20):
            t = y + round(i * (y * y - y) / 19)
            exact = friable.psi_exact(t, y)
            approx = friable.psi_asymptotic(t, y)
            ratio = abs(exact - approx) / (t / math.log(t))
            local = max(local, ratio)
        details[str(y)] = local
        worst = max(worst, local)
    rec = CheckRecord(
        name="friable_count_discrepancy",
        params={"y_values": [50, 100, 200], "t_points": 20},
        status="REPORT",
        metrics={"max_normalized_discrepancy": worst, "per_y": details},
    )
    return _timed(rec, t0)


_CHECK_BUILDERS = {
    "spectrum": lambda cfg: [check_spectrum_chain(cfg)],
    "theorem": lambda cfg: [
        check_dp_vs_enumeration(cfg),
        check_dp_vs_characters(cfg),
        check_mass_conservation(cfg),
        *check_theorem_error(cfg),
    ],
    "lemmas": lambda cfg: [
        check_lemma_circle(cfg),
        check_lemma_z_grid(cfg),
        check_lemma_near_one(cfg),
    ],
    "factorization": lambda cfg: [
        check_kway_random(cfg),
        check_kway_sharpness(cfg),
        check_ranged_random(cfg),
        check_ranged_sharpness(cfg),
    ],
    "friable": lambda cfg: [check_friable_count(cfg)],
    "burgess": lambda cfg: [
        check_polya_vinogradov(cfg),
        check_burgess_ratio(cfg),
    ],
}


def run_verification_suite(config: SweepConfig) -> list[CheckRecord]:
    """Run the selected checks in a fixed order; deterministic given seed."""
    config.validate()
    records: list[CheckRecord] = []
    for name in ALL_CHECKS:
        if name in config.checks:
            records.extend(_CHECK_BUILDERS[name](config))
    return records


def verification_report_json(config: SweepConfig, records: list[CheckRecord]) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "p_min": config.p_min,
            "p_max": config.p_max,
            "checks": sorted(config.checks),
            "y_rule": config.y_rule,
            "epsilon": str(config.epsilon),
            "seed": config.seed,
        },
        "records": [r.to_json() for r in records],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# output plumbing


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(text: str, out_path: str | None) -> None:
    if out_path:
        write_atomic(out_path, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing / subcommands


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--pmin", type=int, default=3)
    sub.add_argument("--pmax", type=int, default=1009)
    sub.add_argument("--y-rule", default="p^0.6")
    sub.add_argument("--epsilon", default="19/100")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None)
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--seed", type=int, default=0)


def _config_from(args: argparse.Namespace, checks: tuple[str, ...] = ALL_CHECKS) -> SweepConfig:
    cfg = SweepConfig(
        p_min=args.pmin,
        p_max=args.pmax,
        checks=checks,
        y_rule=args.y_rule,
        epsilon=Fraction(args.epsilon),
        out_format=args.format,
        out_path=args.out,
        workers=args.workers,
        seed=args.seed,
    )
    cfg.validate()
    return cfg


def _cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    try:
        rows = run_spectrum_sweep(cfg)
    except ChainViolationError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    text = spectrum_json(rows) if cfg.out_format == "json" else spectrum_csv(rows)
    emit(text, cfg.out_path)
    return 0


def _cmd_counts(args: argparse.Namespace) -> int:
    counts = subsetprod.subset_product_counts(args.p, args.y)
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "p": args.p,
            "y": args.y,
            "counts": {str(b): str(counts.counts[b]) for b in range(1, args.p)},
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        lines = ["b,count"]
        lines += [f"{b},{counts.counts[b]}" for b in range(1, args.p)]
        text = "\n".join(lines) + "\n"
    emit(text, args.out)
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    y = subsetprod.y_of_progression(args.p, args.a, args.d, args.ymax)
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "p": args.p,
            "a": args.a,
            "d": args.d,
            "ymax": args.ymax,
            "y": y,
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = "p,a,d,ymax,y\n" + \
            f"{args.p},{args.a},{args.d},{args.ymax},{'' if y is None else y}\n"
    emit(text, args.out)
    return 0


def _cmd_factorize(args: argparse.Namespace) -> int:
    eps = Fraction(args.epsilon)
    if args.mode == "kway":
        res = friable.greedy_k_factorization(args.n, args.y, args.k)
    elif args.mode == "ranged":
        res = friable.ranged_factorization(args.n, args.y, args.k, eps)
    else:
        res = friable.three_way_factorization(args.n, args.y, eps)
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "n": res.n,
            "y": res.y,
            "k": res.k,
            "epsilon": None if res.epsilon is None else str(res.epsilon),
            "mode": res.mode,
            "factors": list(res.factors),
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        factors = " ".join(str(f) for f in res.factors)
        text = "n,y,k,epsilon,mode,factors\n" + \
            f"{res.n},{res.y},{res.k},{res.epsilon or ''},{res.mode},{factors}\n"
    emit(text, args.out)
    return 0


def _cmd_charsum(args: argparse.Namespace) -> int:
    ctx = modcore.build_context(args.p)
    total = characters.char_sum(ctx, args.k, args.t)
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "p": args.p,
            "k": args.k,
            "t": args.t,
            "re": total.real,
            "im": total.imag,
            "abs": abs(total),
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = "p,k,t,re,im,abs\n" + \
            f"{args.p},{args.k},{args.t},{total.real!r},{total.imag!r},{abs(total)!r}\n"
    emit(text, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = tuple(args.checks.split(",")) if args.checks else ALL_CHECKS
    cfg = _config_from(args, checks=checks)
    records = run_verification_suite(cfg)
    for rec in records:
        print(f"{rec.status:6s} {rec.name}  [{rec.elapsed:.2f}s]", file=sys.stderr)
    # the verification report is always JSON (nested metrics)
    emit(verification_report_json(cfg, records), cfg.out_path)
    failed = [r for r in records if r.status == "FAIL"]
    if failed:
        print(f"{len(failed)} check(s) FAILED", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subproducts",
        description="Subset-product coverage toolkit: sweeps and verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="sweep (p, n2, g, G, y, yprime) rows")
    _add_common(sp)
    sp.set_defaults(func=_cmd_spectrum)

    sc = subs.add_parser("counts", help="exact subset-product counts for one (p, y)")
    _add_common(sc)
    sc.add_argument("--p", type=int, required=True)
    sc.add_argument("--y", type=int, required=True)
    sc.set_defaults(func=_cmd_counts)

    sv = subs.add_parser("coverage", help="progression coverage threshold")
    _add_common(sv)
    sv.add_argument("--p", type=int, required=True)
    sv.add_argument("--a", type=int, required=True)
    sv.add_argument("--d", type=int, required=True)
    sv.add_argument("--ymax", type=int, required=True)
    sv.set_defaults(func=_cmd_coverage)

    sf = subs.add_parser("factorize", help="bounded-part factorization")
    _add_common(sf)
    sf.add_argument("--n", type=int, required=True)
    sf.add_argument("--y", type=int, required=True)
    sf.add_argument("--k", type=int, default=3)
    sf.add_argument("--mode", choices=("kway", "ranged", "threeway"), default="threeway")
    sf.set_defaults(func=_cmd_factorize)

    ss = subs.add_parser("charsum", help="one character partial sum")
    _add_common(ss)
    ss.add_argument("--p", type=int, required=True)
    ss.add_argument("--k", type=int, required=True)
    ss.add_argument("--t", type=int, required=True)
    ss.set_defaults(func=_cmd_charsum)

    sy = subs.add_parser("verify", help="run the verification suite")
    _add_common(sy)
    sy.add_argument("--checks", default=None,
                    help="comma-separated subset of: " + ",".join(ALL_CHECKS))
    sy.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidRangeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
