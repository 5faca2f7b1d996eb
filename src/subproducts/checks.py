"""The verification checks that need nothing of `cli`.

Each check takes its seed, p cap and sizes, and returns its record.  `cli`
imports every check by name and its suite table calls them through those
names, where the benchmark's tracer patches them.  The checks are a module
of their own because, without a bytecode cache, the compiler's high-water
for the largest module compiled stays in the heap of the process and of
every spectrum worker it forks.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from collections.abc import Sequence
from typing import NamedTuple

# characters, friable and fractions load in the checks that use them
from . import modcore, subsetprod
from .config import BURGESS_PRIMES, SMALL_Y_RULE, theorem_y, theorem_ys


class CheckRecord(NamedTuple):
    """One verification item, exactly as the report lists it.  FAIL is
    reserved for theorem-backed invariants; measured quantities with
    unspecified constants are REPORT."""

    name: str
    params: dict
    status: str  # PASS | FAIL | REPORT
    metrics: dict


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


def check_theorem_error(y_rule: str, p_max: int) -> list[CheckRecord]:
    """The normalized error ratio at the rule's y and at ceil(p^0.25).

    The check passes when the ratio at the rule's y is finite and at most
    the ratio at the small y.  With D_y(b) = S_y(b) - 2^y/(p-1), taking or
    skipping n = y+1 gives D_{y+1}(b) = D_y(b) + D_y(b/(y+1)), so
    max |D_{y+1}| <= 2 max |D_y| and the ratio max |D_y| p^2 / 2^y never
    increases in y; it can stay level (p = 401 at y = 5 and 6).
    """
    ratios = {}
    shrink_ok = True
    for p, y_main, y_small in theorem_ys(y_rule, p_max):
        ctx = modcore.build_context(p)
        ratio = {
            dp.y: subsetprod.error_report(dp)
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
        params={"y_rule": y_rule, "y_small_rule": SMALL_Y_RULE},
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
        far = characters.near_one_exceptions(ctx, kchar, ctx.p - 1, delta)
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
        characters.z_lemma_check(None if i == 0 else i / angles, grid)
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
                far = characters.near_one_exceptions(ctx, k, y, 1 / math.log(p))
                if len(far) >= limit:
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
    for p in BURGESS_PRIMES:
        if p > p_max:
            continue
        ctx = modcore.build_context(p)
        t = theorem_y(p)  # ceil(p^0.6), comfortably above p^(1/4+eps)
        mag = characters.max_nonprincipal_sum(ctx, t)
        out[str(p)] = {"t": t, "max_ratio": mag / t}
    return CheckRecord(
        name="burgess_cancellation_ratio",
        params={"t_rule": "ceil(p^0.6)"},
        status="REPORT",
        metrics=out,
    )


def check_kway_random(seed: int, instances: int = 10_000) -> CheckRecord:
    from . import friable
    rng = random.Random(seed)
    failures = 0
    for _ in range(instances):
        n, y, k = friable._random_kway_instance(rng)
        factors = friable.greedy_k_factorization(n, y, k)
        if len(factors) != k or any(f > y for f in factors):
            failures += 1
    return CheckRecord(
        name="kway_random_harness",
        params={"instances": instances, "seed": seed},
        status="PASS" if failures == 0 else "FAIL",
        metrics={"failures": failures},
    )


def check_ranged_random(seed: int, instances: int = 10_000) -> CheckRecord:
    from . import friable
    rng = random.Random(seed)
    failures = 0
    contradictions = 0
    for _ in range(instances):
        n, y, k, eps = friable._random_ranged_instance(rng)
        a, b = eps.numerator, eps.denominator
        try:
            factors = friable.ranged_factorization(n, y, k, eps)
        except friable.InternalContradictionError:
            contradictions += 1
            continue
        ell = len(factors)
        small_bound = y**a
        ok = (
            2 * ell > k
            and ell <= k
            and all(f <= y and f**b > small_bound for f in factors)
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
    from fractions import Fraction

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
        for t, exact in zip(ts, friable.psi_exact(ts, y)):
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
