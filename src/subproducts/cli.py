"""Batch front end: spectrum sweeps, the verification suite, serialization.

Subcommands:
  spectrum   sweep primes, one row (p, n2, g, G, y, yprime) per prime
  counts     exact subset-product counts for one (p, y)
  coverage   arithmetic-progression coverage threshold
  factorize  bounded-part factorizations (kway | ranged | threeway)
  charsum    a single character partial sum
  verify     run the verification suite, emit a JSON report

Exit codes: 0 all pass, 1 any FAIL, 2 usage or I/O error or a lost
spectrum worker, 130 interrupted (SIGINT).  Reports are
deterministic for a fixed config and seed: records are emitted in a fixed
order, randomized harnesses derive from the seed, and wall-clock timings
go to the console only, never into the serialized output.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import marshal
import math
import os
import random
import re
import stat
import sys
import tempfile
import time
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import chain, islice
from typing import NamedTuple

import subproducts

# characters, friable and json load in the checks and commands that use
# them, so a spectrum sweep and its workers carry none of them
from . import modcore, subsetprod

SPECTRUM_COLUMNS = ("p", "n2", "g", "G", "y", "yprime")
SCHEMA_VERSION = 1
ALL_CHECKS = ("spectrum", "theorem", "lemmas", "factorization", "friable", "burgess")
# factorize's default epsilon; the verify report's config echoes it.
DEFAULT_EPSILON = Fraction(19, 100)
# factorize --epsilon and a y-rule's exponent are exact rationals with
# |numerator| and denominator at most this.  Fraction expands a decimal
# exponent into a power of ten (1e999999 takes about 0.7 s, 1e9999999 does
# not finish), so an exponent of more than six digits is refused before it
# is expanded.
MAX_FRACTION_TERM = 10**4
_DECIMAL_EXPONENT = re.compile(r"[eE][+-]?0*(\d+)")
# `counts` folds y steps over p-1 slots of at most y bits and prints p-1
# y-bit counts: (p-1) y^2 bounds its work (p = 10007, y = 999 takes about
# half a second, the most the cap allows at that p).  It also holds all p-1
# counts at once, and for JSON their text, a few hundred bytes a residue, so
# p-1 is capped for a memory budget of 256 MB: the largest run the two caps
# allow (p = 262139, y = 195) peaks at about 180 MB with JSON output, 80 MB
# with CSV, which streams its lines (maximum RSS of the whole process,
# CPython 3.11 on x86-64).
# `factorize` trial-divides n up to sqrt(n), about half a second at n = 10^14.
MAX_COUNT_WORK = 10**10
MAX_COUNT_RESIDUES = 1 << 18
MAX_FACTORIZE_N = 10**14
# A factorization forms powers of y up to y^(k b + 2a) for epsilon = a/b
# (y^(k+1) in kway mode); (k b + 2a + 1) * bitlen(y) bounds their size in
# bits.  At the cap the powers and their roots take about a fifth of a second.
MAX_FACTORIZE_POWER_BITS = 10**6
# The theorem check compares the rule's y against ceil(p^0.25) at these primes.
THEOREM_PRIMES = (101, 211, 401, 1009)
QUARTER = Fraction(1, 4)


class ChainViolationError(AssertionError):
    """A spectrum row violated n2 <= G <= g or G <= y."""


class WorkerLostError(RuntimeError):
    """A spectrum worker ended before it sent all of its rows."""


class SweepConfig(NamedTuple):
    p_min: int = 3
    p_max: int = 1009
    checks: tuple[str, ...] = ALL_CHECKS
    y_rule: str = "p^0.6"
    workers: int = 1
    seed: int = 0

    def validate(self) -> None:
        if not 3 <= self.p_min <= self.p_max:
            raise ValueError(f"need 3 <= pmin <= pmax, got [{self.p_min}, {self.p_max}]")
        if self.p_max > modcore.MAX_TABLE_PRIME:
            raise ValueError(
                f"pmax={self.p_max} exceeds the index-table cap "
                f"{modcore.MAX_TABLE_PRIME}"
            )
        unknown = set(self.checks) - set(ALL_CHECKS)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        try:
            y_rule = parse_y_rule(self.y_rule)
        except ValueError as exc:
            raise ValueError(f"bad y-rule {self.y_rule!r}: {exc}") from exc
        if "theorem" in self.checks:
            for p in THEOREM_PRIMES:
                if p <= self.p_max and y_rule(p) <= subsetprod.theorem_y(p, QUARTER):
                    raise ValueError(
                        f"y-rule {self.y_rule!r} gives y={y_rule(p)} at p={p}; the "
                        f"theorem check needs y above ceil(p^0.25)"
                    )


class CheckRecord(NamedTuple):
    """One verification item.  FAIL is reserved for theorem-backed
    invariants; measured quantities with unspecified constants are
    REPORT.  elapsed is console-only metadata (see to_json)."""

    name: str
    params: dict
    status: str  # PASS | FAIL | REPORT
    metrics: dict
    elapsed: float = 0.0

    def to_json(self) -> dict:
        # elapsed intentionally excluded: reports must be byte-identical
        # across runs with the same config and seed
        record = self._asdict()
        del record["elapsed"]
        return record


def parse_y_rule(rule: str):
    """Parse a per-prime y choice: either 'p^<exponent>' or an integer constant.

    The exponent is an exact rational a/b ('0.6', '3/5', '2', see
    `parse_fraction`); y is then the least y with y^b >= p^a.  Results are
    clamped to [1, p-1].
    """
    rule = rule.strip()
    if rule.startswith("p^"):
        exponent = parse_fraction(rule[2:])
        return lambda p: subsetprod.theorem_y(p, exponent)
    value = int(rule)
    return lambda p: min(p - 1, max(1, value))


# ---------------------------------------------------------------------------
# spectrum sweep


def _spectrum_row(p: int) -> tuple[int, int, int, int, int, int | None]:
    """The row (p, n2, g, G, y, yprime) for p, checked against the chain
    n2 <= G <= g, G <= y <= yprime as it is made."""
    ctx = modcore.build_context(p)
    n2 = modcore.least_nonresidue(p)
    big_g = modcore.group_generation_bound(ctx)
    y = subsetprod.coverage_threshold(ctx)
    yp = subsetprod.prime_coverage_threshold(ctx)
    if not (n2 <= big_g <= ctx.g and big_g <= y):
        raise ChainViolationError(
            f"chain violation at p={p}: n2={n2}, G={big_g}, g={ctx.g}, y={y}"
        )
    if yp is not None and yp < y:
        raise ChainViolationError(f"y'={yp} < y={y} at p={p}")
    return (p, n2, ctx.g, big_g, y, yp)


def run_spectrum_sweep(config: SweepConfig) -> Iterator[tuple]:
    """One row per prime in [p_min, p_max], ascending, chain-checked.

    The config is checked at the call; each prime is sieved and its row
    made as the row is read, by a pool of config.workers (`_fork_map`).
    Rows arrive in prime order, so a ChainViolationError names the least
    violating prime at any worker count.  A caller that may stop early
    closes the generator, which stops the pool.
    """
    config.validate()
    return _fork_map(_spectrum_row, modcore.iter_primes(config.p_min, config.p_max),
                     config.workers)


def _fork_map(fn, items: Iterable, workers: int) -> Iterator:
    """fn(item) for each of the items, in their order, from a pool of
    forked processes with one pipe each.

    The pool never gets more workers than there are CPUs or items; fn runs
    in-process where fewer than two remain or os.fork is missing.  The
    workers start at the first read, and worker w maps its own copy of the
    items at w, w + workers, ..., writing each result whole to its pipe as
    one marshal record.  An exception that fn raises goes as one tagged
    record and ends the worker; the parent raises it again, with the type
    and message it has in-process.  The parent reads result i from pipe
    i % workers.  Whatever ends the read, the last result, an exception or
    close(), every worker is killed and reaped and every pipe closed.  A
    worker whose pipe ends before its results do raises WorkerLostError.
    """
    items = iter(items)
    head = list(islice(items, min(workers, os.cpu_count() or 1)))
    items = chain(head, items)
    workers = len(head)
    if workers < 2 or not hasattr(os, "fork"):
        yield from map(fn, items)
        return
    import signal  # here, where the pool starts: an in-process run does not load it

    pids: list[int] = []
    pipes = []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            # SIGINT waits until the new worker is in pids, so a worker
            # that starts is always killed and reaped; a worker keeps it
            # blocked, since the parent decides how the pool ends
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    # the worker ends by os._exit: no exception, traceback or
                    # inherited buffer leaves it.  With the inherited read
                    # ends closed, a write fails once the parent is gone
                    code = 1
                    try:
                        for pipe in pipes:
                            os.close(pipe.fileno())
                        for item in islice(items, w, None, workers):
                            try:
                                record = (True, fn(item))
                            except Exception as exc:
                                import pickle
                                record = (False, pickle.dumps(exc))
                            data = marshal.dumps(record)
                            while data:  # a write may take only part of a record
                                data = data[os.write(write_fd, data):]
                            if not record[0]:
                                break
                        code = 0
                    finally:
                        os._exit(code)
                pids.append(pid)
            finally:
                os.close(write_fd)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for i, item in enumerate(items):
            try:
                ok, result = marshal.load(pipes[i % workers])
            except EOFError:
                raise WorkerLostError(
                    f"spectrum worker {i % workers + 1} of {workers} ended before "
                    f"its result for {item!r}"
                ) from None
            if not ok:
                import pickle
                raise pickle.loads(result)
            yield result
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def spectrum_csv(rows: Iterable[tuple]) -> Iterator[str]:
    return render_csv(SPECTRUM_COLUMNS, rows)


def spectrum_json(rows: Iterable[tuple]) -> Iterator[str]:
    """render_json({"rows": [...]}) of the rows, one chunk per row: each
    row is dumped alone and indented to its depth in the payload."""
    import json
    head, tail = render_json({"rows": []}).split("[]")
    yield head + "["
    sep, close = "\n    ", "]"
    for row in rows:
        text = json.dumps(dict(zip(SPECTRUM_COLUMNS, row)), sort_keys=True, indent=2)
        yield sep + text.replace("\n", "\n    ")
        sep, close = ",\n    ", "\n  ]"
    yield close + tail


# ---------------------------------------------------------------------------
# verification suite: each check takes its seed, p cap and sizes, and
# returns its record (check_theorem_error: two records)


def check_dp_vs_enumeration() -> CheckRecord:
    mismatches = 0
    cases = 0
    for p in (3, 5, 7, 11, 13):
        ctx = modcore.build_context(p)
        for dp in subsetprod.subset_product_prefixes(ctx, range(1, 17)):
            cases += 1
            if dp.counts != subsetprod.enumerate_subset_counts(p, dp.y):
                mismatches += 1
    return CheckRecord(
        name="dp_vs_enumeration",
        params={"primes": [3, 5, 7, 11, 13], "y_max": 16},
        status="PASS" if mismatches == 0 else "FAIL",
        metrics={"cases": cases, "mismatches": mismatches},
    )


def check_dp_vs_characters(p_cap: int) -> CheckRecord:
    worst = 0.0
    failures = 0
    for p in modcore.primes_between(3, p_cap):
        ctx = modcore.build_context(p)
        for dp in subsetprod.subset_product_prefixes(ctx, range(1, 31)):
            approx = subsetprod.counts_via_characters(ctx, dp.y)
            tol = 1e-6 * (1 << dp.y) / (p - 1) + 1e-6
            dev = max(abs(dp.counts[b] - approx[b]) for b in range(1, p))
            worst = max(worst, dev / tol)
            if dev > tol:
                failures += 1
    return CheckRecord(
        name="dp_vs_characters",
        params={"p_max": p_cap, "y_max": 30},
        status="PASS" if failures == 0 else "FAIL",
        metrics={"failures": failures, "worst_dev_over_tol": worst},
    )


def check_mass_conservation(seed: int, p_cap: int, pairs: int = 1000) -> CheckRecord:
    rng = random.Random(seed)
    ps = modcore.primes_between(3, p_cap)
    drawn: dict[int, Counter] = defaultdict(Counter)  # p -> how often each y
    for _ in range(pairs):
        p = rng.choice(ps)
        drawn[p][rng.randint(1, p - 1)] += 1
    failures = 0
    for p, ys in drawn.items():
        for dp in subsetprod.subset_product_prefixes(modcore.build_context(p), ys):
            if dp.unit_mass() != 1 << dp.y or dp.counts[0] != 0:
                failures += ys[dp.y]
    return CheckRecord(
        name="mass_conservation",
        params={"pairs": pairs, "p_max": p_cap, "seed": seed},
        status="PASS" if failures == 0 else "FAIL",
        metrics={"failures": failures},
    )


def check_spectrum_chain(p_min: int, p_max: int, workers: int) -> CheckRecord:
    config = SweepConfig(p_min=p_min, p_max=p_max, checks=("spectrum",), workers=workers)
    with contextlib.closing(run_spectrum_sweep(config)) as rows:
        try:
            primes = sum(1 for _ in rows)
            status, violation = "PASS", ""
        except ChainViolationError as exc:
            primes, status, violation = 0, "FAIL", str(exc)
    return CheckRecord(
        name="spectrum_chain",
        params={"p_min": p_min, "p_max": p_max},
        status=status,
        metrics={"primes": primes, "violation": violation},
    )


def check_theorem_error(y_rule: str, p_max: int) -> list[CheckRecord]:
    """The normalized error ratio at the rule's y and at ceil(p^0.25).

    The check passes when the ratio at the rule's y is finite and at most
    the ratio at the small y.  With D_y(b) = S_y(b) - 2^y/(p-1), taking or
    skipping n = y+1 gives D_{y+1}(b) = D_y(b) + D_y(b/(y+1)), so
    max |D_{y+1}| <= 2 max |D_y| and the ratio max |D_y| p^2 / 2^y never
    increases in y; it can stay level (p = 401 at y = 5 and 6).
    """
    rule = parse_y_rule(y_rule)
    ratios = {}
    shrink_ok = True
    for p in THEOREM_PRIMES:
        if p > p_max:
            continue
        y_main = rule(p)
        y_small = subsetprod.theorem_y(p, QUARTER)
        ctx = modcore.build_context(p)
        ratio = {
            dp.y: subsetprod.counts_error_report(dp).normalized_ratio
            for dp in subsetprod.subset_product_prefixes(ctx, (y_small, y_main))
        }
        r_main, r_small = ratio[y_main], ratio[y_small]
        ratios[str(p)] = {
            "y": y_main,
            "ratio": r_main,
            "y_small": y_small,
            "ratio_small": r_small,
        }
        if not (math.isfinite(r_main) and r_main <= r_small):
            shrink_ok = False
    report = CheckRecord(
        name="theorem_error_ratio",
        params={"y_rule": y_rule, "y_small_rule": "p^0.25"},
        status="REPORT",
        metrics=ratios,
    )
    monotone = CheckRecord(
        name="theorem_error_shrinks",
        params={"primes": sorted(int(p) for p in ratios)},
        status="PASS" if shrink_ok else "FAIL",
        metrics={},
    )
    return [report, monotone]


def check_lemma_circle(seed: int, tuples: int = 2000) -> CheckRecord:
    from . import characters
    rng = random.Random(seed)
    ctx = modcore.build_context(101)
    m = ctx.order
    failures = 0
    for _ in range(tuples):
        k_count = rng.randint(1, 6)
        delta = rng.uniform(0.05, 1.999 * math.sin(math.pi / (2 * k_count)))
        bound = characters.circle_lemma_bound(k_count, delta)
        kchar = rng.randrange(1, m)
        _, far = characters.near_one_exceptions(ctx, kchar, ctx.p - 1, delta)
        pool = sorted(set(range(1, ctx.p)).difference(far))
        prod = 1
        for _ in range(k_count):
            prod = prod * rng.choice(pool) % ctx.p
        angle = characters.char_angle(ctx, kchar, prod)
        real = characters.angle_to_complex(angle).real
        # The slack absorbs the rounding of both sides, under 5e-15 in all:
        # real = cos(2 pi t/m) takes a float t/m (off by 2^-53 relatively)
        # times a float 2 pi, so its argument is off by a few ulp of 2 pi,
        # under 2e-15; the bound's argument k * 2.0 * asin(delta/2), k <= 6,
        # carries 2k times asin's one-ulp error (of a value <= pi/2) plus one
        # rounding, under 3e-15; cos is 1-Lipschitz and rounds by 1.1e-16.
        # The pool's float threshold arcsin(delta/2)/pi may pass the exact
        # one by an ulp, which moves the product's angle by k ulps at most.
        # Any true violation deeper than 1e-12 is still counted.
        if real < bound - 1e-12:
            failures += 1
    return CheckRecord(
        name="lemma_circle_bound",
        params={"tuples": tuples, "p": 101, "seed": seed},
        status="PASS" if failures == 0 else "FAIL",
        metrics={"failures": failures},
    )


def check_lemma_z_grid(angles: int = 1000, deltas: int = 100) -> CheckRecord:
    from . import characters
    grid = [2.0 * j / (deltas + 1) for j in range(1, deltas + 1)]
    failures = sum(
        characters.z_lemma_failures(None if i == 0 else Fraction(i, angles), grid)
        for i in range(angles)
    )
    return CheckRecord(
        name="lemma_z_grid",
        params={"angles": angles, "deltas": deltas},
        status="PASS" if failures == 0 else "FAIL",
        metrics={"pairs": angles * deltas, "failures": failures},
    )


def check_lemma_near_one(p_cap: int) -> CheckRecord:
    from . import characters
    violations = 0
    hypothesis_hits = 0
    for p in modcore.primes_between(3, p_cap):
        ctx = modcore.build_context(p)
        y = max(1, modcore.iroot(p**7, 10))  # floor(p^0.7), exactly
        log_thresh = y * math.log(2) - 2 * math.log(p)
        limit = 16 * math.log(p) ** 3
        m = ctx.order
        for k in range(1, m // 2 + 1):
            # chi_{m-k} = conj(chi_k) has the same log-product, bit for bit
            # (its log table is mirrored), and the same exception count
            if characters.log_product_one_plus_chi(ctx, k, y) > log_thresh:
                hits = 1 if 2 * k == m else 2
                hypothesis_hits += hits
                count, _ = characters.near_one_exceptions(ctx, k, y, 1 / math.log(p))
                if count >= limit:
                    violations += hits
    return CheckRecord(
        name="lemma_near_one_scan",
        params={"p_max": p_cap, "y_rule": "floor(p^0.7)", "delta": "1/log p"},
        status="PASS" if violations == 0 else "FAIL",
        metrics={"hypothesis_hits": hypothesis_hits, "violations": violations},
    )


def check_polya_vinogradov(p_cap: int) -> CheckRecord:
    from . import characters
    violations = 0
    worst_ratio = 0.0
    for p in modcore.primes_between(3, p_cap):
        scan = characters.polya_vinogradov_scan(modcore.build_context(p))
        violations += scan.violations
        worst_ratio = max(worst_ratio, scan.max_magnitude / scan.bound)
    return CheckRecord(
        name="polya_vinogradov_scan",
        params={"p_max": p_cap},
        status="PASS" if violations == 0 else "FAIL",
        metrics={"violations": violations, "worst_ratio_to_bound": worst_ratio},
    )


def check_burgess_ratio(p_max: int) -> CheckRecord:
    from . import characters
    out = {}
    for p in (101, 211, 311, 1009):
        if p > p_max:
            continue
        ctx = modcore.build_context(p)
        t = subsetprod.theorem_y(p)  # ceil(p^0.6), comfortably above p^(1/4+eps)
        _, mag = characters.max_nonprincipal_sum(ctx, t)
        out[str(p)] = {"t": t, "max_ratio": mag / t}
    return CheckRecord(
        name="burgess_cancellation_ratio",
        params={"t_rule": "ceil(p^0.6)"},
        status="REPORT",
        metrics=out,
    )


# The random harnesses draw y <= HARNESS_Y_MAX <= modcore.SMALL_PRIME_LIMIT.
HARNESS_Y_MAX = 200


def _primes_to(y: int) -> tuple[int, ...]:
    """Primes <= y, for y <= HARNESS_Y_MAX: a slice of the cached small primes."""
    primes = modcore.small_primes()
    return primes[: bisect.bisect_right(primes, y)]


def _random_kway_instance(rng: random.Random) -> tuple[int, int, int]:
    """(n, y, k) with n y-friable and n^2 <= y^(k+1) (n = 1 possible)."""
    y = rng.randint(4, HARNESS_Y_MAX)
    k = rng.randint(1, 6)
    primes = _primes_to(y)
    n_sq_limit = y ** (k + 1)
    n = 1
    while rng.random() < 0.9:
        q = rng.choice(primes)
        if (n * q) ** 2 > n_sq_limit:
            break
        n *= q
    return n, y, k


def check_kway_random(seed: int, instances: int = 10_000) -> CheckRecord:
    from . import friable
    rng = random.Random(seed)
    failures = 0
    for _ in range(instances):
        n, y, k = _random_kway_instance(rng)
        res = friable.greedy_k_factorization(n, y, k)
        if len(res.factors) != k or any(f > y for f in res.factors):
            failures += 1
    return CheckRecord(
        name="kway_random_harness",
        params={"instances": instances, "seed": seed},
        status="PASS" if failures == 0 else "FAIL",
        metrics={"failures": failures},
    )


def _random_ranged_instance(rng: random.Random) -> tuple[int, int, int, Fraction]:
    """Instance satisfying the ranged-factorization hypotheses exactly."""
    # through the package root, which loads friable on first use: no
    # import statement runs once per instance
    ranged_bounds = subproducts.friable.ranged_bounds
    while True:
        y = rng.randint(8, HARNESS_Y_MAX)
        k = rng.randint(1, 6)
        num_max = math.ceil(100 / (k + 2)) - 1
        eps = Fraction(rng.randint(1, num_max), 100)
        lower_root, upper, work_root, _ = ranged_bounds(
            y, k, eps.numerator, eps.denominator
        )
        usable = _primes_to(work_root)  # work_root <= y <= HARNESS_Y_MAX
        if not usable:
            continue
        for _ in range(50):
            n = 1
            while n <= lower_root:
                n *= rng.choice(usable)
            if n * n < upper:
                return n, y, k, eps


def check_ranged_random(seed: int, instances: int = 10_000) -> CheckRecord:
    from . import friable
    rng = random.Random(seed)
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
        small_bound = y**a
        ok = (
            2 * ell > k
            and ell <= k
            and all(f <= y and f**b > small_bound for f in res.factors)
        )
        if not ok:
            failures += 1
    return CheckRecord(
        name="ranged_random_harness",
        params={"instances": instances, "seed": seed},
        status="PASS" if failures == 0 and contradictions == 0 else "FAIL",
        metrics={"failures": failures, "internal_contradictions": contradictions},
    )


def check_kway_sharpness(y_values: Sequence[int] = (10, 30, 100)) -> CheckRecord:
    from . import friable
    bad = 0
    cases = 0
    for y in y_values:
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
    return CheckRecord(
        name="kway_sharpness_witness",
        params={"y_values": list(y_values), "k_max": 3},
        status="PASS" if bad == 0 else "FAIL",
        metrics={"cases": cases, "infeasible_confirmed": cases - bad},
    )


def _kway_witness(y: int, k: int) -> int:
    """q^(k+1) for the least prime q in (sqrt(y), y]: y-friable, above the
    size bound, and with no k-way split into parts <= y (some part must
    carry two copies of q, and q^2 > y)."""
    q = modcore.primes_between(math.isqrt(y) + 1, y)[0]
    return q ** (k + 1)


def check_ranged_sharpness() -> CheckRecord:
    from . import friable
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
    return CheckRecord(
        name="ranged_sharpness_witness",
        params={"cases": cases},
        status="PASS" if bad == 0 else "FAIL",
        metrics={"confirmed_infeasible": len(cases) - bad},
    )


def check_friable_count() -> CheckRecord:
    from . import friable
    worst = 0.0
    details = {}
    for y in (50, 100, 200):
        local = 0.0
        ts = [y + round(i * (y * y - y) / 19) for i in range(20)]
        for t, exact in zip(ts, friable.psi_prefixes(ts, y)):
            approx = friable.psi_asymptotic(t, y)
            ratio = abs(exact - approx) / (t / math.log(t))
            local = max(local, ratio)
        details[str(y)] = local
        worst = max(worst, local)
    return CheckRecord(
        name="friable_count_discrepancy",
        params={"y_values": [50, 100, 200], "t_points": 20},
        status="REPORT",
        metrics={"max_normalized_discrepancy": worst, "per_y": details},
    )


# Each group's checks in report order, with the arguments the config gives
# them.  The lambdas call the checks through their module-level names, so
# a tracer that patches those names sees every call.
_SUITE = {
    "spectrum": (lambda c: [check_spectrum_chain(c.p_min, c.p_max, c.workers)],),
    "theorem": (
        lambda c: [check_dp_vs_enumeration()],
        lambda c: [check_dp_vs_characters(min(31, c.p_max))],
        lambda c: [check_mass_conservation(c.seed, min(1009, c.p_max))],
        lambda c: check_theorem_error(c.y_rule, c.p_max),
    ),
    "lemmas": (
        lambda c: [check_lemma_circle(c.seed + 1)],
        lambda c: [check_lemma_z_grid()],
        lambda c: [check_lemma_near_one(min(311, c.p_max))],
    ),
    "factorization": (
        lambda c: [check_kway_random(c.seed + 2)],
        lambda c: [check_kway_sharpness()],
        lambda c: [check_ranged_random(c.seed + 3)],
        lambda c: [check_ranged_sharpness()],
    ),
    "friable": (lambda c: [check_friable_count()],),
    "burgess": (
        lambda c: [check_polya_vinogradov(min(311, c.p_max))],
        lambda c: [check_burgess_ratio(c.p_max)],
    ),
}


def run_verification_suite(config: SweepConfig) -> list[CheckRecord]:
    """Run the selected checks in a fixed order; deterministic given seed.

    A check's wall time goes to the first record it returns.
    """
    config.validate()
    records: list[CheckRecord] = []
    for group in ALL_CHECKS:
        if group not in config.checks:
            continue
        for run in _SUITE[group]:
            t0 = time.perf_counter()
            first, *rest = run(config)
            records.append(first._replace(elapsed=time.perf_counter() - t0))
            records.extend(rest)
    return records


def verification_report_json(config: SweepConfig, records: list[CheckRecord]) -> str:
    return render_json({
        "config": {
            "p_min": config.p_min,
            "p_max": config.p_max,
            "checks": sorted(set(config.checks)),
            "y_rule": config.y_rule,
            "epsilon": str(DEFAULT_EPSILON),
            "seed": config.seed,
        },
        "records": [r.to_json() for r in records],
    })


# ---------------------------------------------------------------------------
# output plumbing


def write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the text chunks to path by renaming a finished temporary file
    over it; each chunk is written as it is made.

    A symlink's target is what gets replaced, and a path that exists but is
    not a regular file (a FIFO, a device) is written through, not replaced,
    once every chunk is made.  A replaced file keeps its mode; a new one
    gets the mode that open(path, "w") would give it, 0o666 less the umask.
    """
    path = os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | (0o666 & ~umask)
    if not stat.S_ISREG(mode):
        with _spooled(chunks) as spool, open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(spool)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def _spooled(chunks: Iterable[str]) -> Iterator[Iterable[str]]:
    """The chunks written to an anonymous temporary file and read back: an
    error while they are made leaves nothing to copy."""
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
        spool.writelines(chunks)
        spool.seek(0)
        yield spool


def emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write the text chunks to out_path, or to stdout once all are made."""
    if out_path:
        write_atomic(out_path, chunks)
    else:
        with _spooled(chunks) as spool:
            sys.stdout.writelines(spool)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return " ".join(map(str, value))
    return str(value)


def render_json(fields: dict) -> str:
    """`fields` with `schema_version` added, as indented JSON."""
    import json
    payload = {"schema_version": SCHEMA_VERSION, **fields}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_csv(columns: tuple[str, ...], rows: Iterable[tuple]) -> Iterator[str]:
    """A header line of `columns`, then one line per tuple in `rows`, whose
    values are in column order.  None is an empty cell and a list is its
    items joined by spaces."""
    yield ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(map(_csv_cell, row)) + "\n"


def emit_record(args: argparse.Namespace, fields: dict) -> None:
    if args.format == "json":
        chunks = [render_json(fields)]
    else:
        chunks = render_csv(tuple(fields), [tuple(fields.values())])
    emit(chunks, args.out)


# ---------------------------------------------------------------------------
# argument parsing / subcommands


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors exit 2 through `main`, as one
    `error:` line like every other usage error."""

    def error(self, message: str):
        raise ValueError(message)


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None)


def _add_range(sub: argparse.ArgumentParser) -> None:
    """The flags `spectrum` and `verify` share: a prime range and a pool."""
    sub.add_argument("--pmin", type=int, default=3)
    sub.add_argument("--pmax", type=int, default=1009)
    sub.add_argument("--workers", type=int, default=1)


def parse_fraction(text: str) -> Fraction:
    """text ('19/100', '0.19', '2', '1e-3') as an exact fraction whose
    |numerator| and denominator are at most MAX_FRACTION_TERM; ValueError
    for anything else, including inf, nan and a zero denominator."""
    exponent = _DECIMAL_EXPONENT.search(text)
    if exponent and len(exponent.group(1)) > 6:
        raise ValueError("decimal exponent of more than six digits")
    try:
        value = Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(str(exc)) from exc
    if max(abs(value.numerator), value.denominator) > MAX_FRACTION_TERM:
        raise ValueError(f"numerator or denominator above {MAX_FRACTION_TERM}")
    return value


def _config_from(args: argparse.Namespace, **fields) -> SweepConfig:
    """The command line's config; the sweep and the suite validate it."""
    return SweepConfig(p_min=args.pmin, p_max=args.pmax, workers=args.workers, **fields)


def _cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = _config_from(args, checks=("spectrum",))
    render = spectrum_csv if args.format == "csv" else spectrum_json
    with contextlib.closing(run_spectrum_sweep(cfg)) as rows:
        try:
            emit(render(rows), args.out)
        except ChainViolationError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
    return 0


def _cmd_counts(args: argparse.Namespace) -> int:
    if (args.p - 1) * args.y**2 > MAX_COUNT_WORK:
        raise ValueError(
            f"(p-1)*y^2 for p={args.p}, y={args.y} exceeds the work bound "
            f"{MAX_COUNT_WORK}"
        )
    if args.p - 1 > MAX_COUNT_RESIDUES:
        raise ValueError(
            f"p={args.p} would print {args.p - 1} counts, above the output "
            f"bound {MAX_COUNT_RESIDUES}"
        )
    counts = subsetprod.subset_product_counts(args.p, args.y).counts
    residues = range(1, args.p)
    # a count may pass str()'s digit limit (CPython 3.10.7+; 0 is none): lift it here only
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if args.format == "json":
            chunks = [render_json({"p": args.p, "y": args.y,
                                   "counts": {str(b): str(counts[b]) for b in residues}})]
        else:
            chunks = render_csv(("b", "count"), ((b, counts[b]) for b in residues))
        emit(chunks, args.out)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    ctx = modcore.build_context(args.p)
    y = subsetprod.progression_coverage_threshold(ctx, args.a, args.d, args.ymax)
    emit_record(args, {"p": args.p, "a": args.a, "d": args.d, "ymax": args.ymax, "y": y})
    return 0


def _cmd_factorize(args: argparse.Namespace) -> int:
    from . import friable
    if args.n > MAX_FACTORIZE_N:
        raise ValueError(f"n={args.n} exceeds the size cap {MAX_FACTORIZE_N}")
    try:
        eps = parse_fraction(args.epsilon)
    except ValueError as exc:
        raise ValueError(f"bad epsilon {args.epsilon!r}: {exc}") from exc
    # kway forms y^(k+1); ranged and threeway (k = 3) form y^(k b + 2a)
    k = 3 if args.mode == "threeway" else args.k
    a, b = (0, 1) if args.mode == "kway" else (eps.numerator, eps.denominator)
    if (k * b + 2 * a + 1) * args.y.bit_length() > MAX_FACTORIZE_POWER_BITS:
        raise ValueError(
            f"y={args.y}, k={k}, epsilon={eps} would form powers of y above "
            f"the cap of {MAX_FACTORIZE_POWER_BITS} bits"
        )
    if args.mode == "kway":
        res = friable.greedy_k_factorization(args.n, args.y, args.k)
    elif args.mode == "ranged":
        res = friable.ranged_factorization(args.n, args.y, args.k, eps)
    else:
        res = friable.three_way_factorization(args.n, args.y, eps)
    emit_record(args, {
        "n": res.n,
        "y": res.y,
        "k": res.k,
        "epsilon": None if res.epsilon is None else str(res.epsilon),
        "mode": res.mode,
        "factors": list(res.factors),
    })
    return 0


def _cmd_charsum(args: argparse.Namespace) -> int:
    from . import characters
    total = characters.char_sum(modcore.build_context(args.p), args.k, args.t)
    emit_record(args, {
        "p": args.p, "k": args.k, "t": args.t,
        "re": total.real, "im": total.imag, "abs": abs(total),
    })
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _config_from(
        args,
        checks=ALL_CHECKS if args.checks is None else tuple(args.checks.split(",")),
        y_rule=args.y_rule,
        seed=args.seed,
    )
    records = run_verification_suite(cfg)
    for rec in records:
        print(f"{rec.status:6s} {rec.name}  [{rec.elapsed:.2f}s]", file=sys.stderr)
    emit([verification_report_json(cfg, records)], args.out)
    failed = [r for r in records if r.status == "FAIL"]
    if failed:
        print(f"{len(failed)} check(s) FAILED", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="subproducts",
        description="Subset-product coverage toolkit: sweeps and verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="sweep (p, n2, g, G, y, yprime) rows")
    _add_range(sp)
    _add_output(sp)
    sp.set_defaults(func=_cmd_spectrum)

    sc = subs.add_parser("counts", help="exact subset-product counts for one (p, y)")
    _add_output(sc)
    sc.add_argument("--p", type=int, required=True)
    sc.add_argument("--y", type=int, required=True)
    sc.set_defaults(func=_cmd_counts)

    sv = subs.add_parser("coverage", help="progression coverage threshold")
    _add_output(sv)
    sv.add_argument("--p", type=int, required=True)
    sv.add_argument("--a", type=int, required=True)
    sv.add_argument("--d", type=int, required=True)
    sv.add_argument("--ymax", type=int, required=True)
    sv.set_defaults(func=_cmd_coverage)

    sf = subs.add_parser("factorize", help="bounded-part factorization")
    sf.add_argument("--epsilon", default=str(DEFAULT_EPSILON))
    _add_output(sf)
    sf.add_argument("--n", type=int, required=True)
    sf.add_argument("--y", type=int, required=True)
    sf.add_argument("--k", type=int, default=3)
    sf.add_argument("--mode", choices=("kway", "ranged", "threeway"), default="threeway")
    sf.set_defaults(func=_cmd_factorize)

    ss = subs.add_parser("charsum", help="one character partial sum")
    _add_output(ss)
    ss.add_argument("--p", type=int, required=True)
    ss.add_argument("--k", type=int, required=True)
    ss.add_argument("--t", type=int, required=True)
    ss.set_defaults(func=_cmd_charsum)

    # the verification report is always JSON (nested metrics): no --format
    sy = subs.add_parser("verify", help="run the verification suite")
    _add_range(sy)
    sy.add_argument("--y-rule", default="p^0.6")
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--out", default=None)
    sy.add_argument("--checks", default=None,
                    help="comma-separated subset of: " + ",".join(ALL_CHECKS))
    sy.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.out and os.path.isdir(args.out):  # refused before any work
            raise IsADirectoryError(f"--out {args.out!r} is a directory")
        return args.func(args)
    except (ValueError, WorkerLostError) as exc:  # parser and range errors too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
