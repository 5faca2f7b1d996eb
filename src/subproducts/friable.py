"""Smooth-number machinery: friability tests, exact Psi(t, y) counts,
constructive bounded-part factorizations, and the random instances that
verify's factorization harnesses split.

All exponent comparisons against fractional powers (n versus y^(a/b)) are
decided in exact integer arithmetic: n <= y^(a/b) iff n^b <= y^a iff
n <= iroot(y^a, b), the exact integer root.  The construction compares
against the root, computed once; the exhaustive oracle compares powers.
Floats never decide a boundary here.
"""

from __future__ import annotations

import bisect
import math
import random
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .config import exact_ratio
from .modcore import divisors, iroot, prime_factors_desc, primes_between, small_primes


class BoundViolatedError(ValueError):
    """Raised when n exceeds the size bound that guarantees a k-way split."""


class HypothesisViolatedError(ValueError):
    """Raised when a ranged-factorization hypothesis fails (range, epsilon,
    or a prime factor above the greedy working bound y^(1-epsilon))."""


class InternalContradictionError(AssertionError):
    """The construction produced an invalid result under valid hypotheses.
    Should be unreachable; any occurrence is a bug, and tests treat it so."""


def largest_prime_factor(n: int) -> int:
    """P(n), with the convention P(1) = 1."""
    return max(prime_factors_desc(n), default=1)


def psi_exact(ts: Sequence[int], y: int) -> list[int]:
    """Psi(t, y), the number of y-friable integers in [1, t], for each t of ts.

    Psi(t, y) is t less the n <= t that some prime q in (y, max(ts)]
    divides.  One windowed sieve lists those primes, each marks its
    multiples in one bytearray, and every requested t counts the marks
    up to t; ts may be unsorted or repeat.
    """
    if y < 1 or any(t < 1 for t in ts):
        raise ValueError("t and y must be >= 1")
    top = max(ts, default=0)
    if top <= y:
        return list(ts)
    rough = bytearray(top + 1)
    for q in primes_between(y + 1, top):
        rough[q::q] = b"\x01" * (top // q)
    return [t - rough.count(1, 0, t + 1) for t in ts]


def psi_asymptotic(t: int, y: int) -> float:
    """Main term t * (1 - log(log t / log y)), valid for y <= t <= y^2.

    The discrepancy against psi_exact, normalized by t / log t, is the
    quantity sweeps report.
    """
    if y < 2:
        raise ValueError("y must be >= 2")
    if not y <= t <= y * y:
        raise ValueError(f"need y <= t <= y^2, got t={t}, y={y}")
    return t * (1.0 - math.log(math.log(t) / math.log(y)))


def _checked(n: int, parts: list[int]) -> tuple[int, ...]:
    """The factors, as a tuple, once they are checked to multiply to n."""
    factors = tuple(parts)
    if math.prod(factors) != n:
        raise InternalContradictionError(f"factors {factors} do not multiply to {n}")
    return factors


def _greedy_fill(primes_desc: list[int], buckets_n: int, bound: int) -> list[int] | None:
    """Assign primes (largest first) each to the first bucket that can take it.

    A bucket at value v takes the prime q when v * q <= bound.  Returns
    None if some prime fits nowhere.
    """
    buckets = [1] * buckets_n
    for q in primes_desc:
        for i, v in enumerate(buckets):
            if v * q <= bound:
                buckets[i] = v * q
                break
        else:
            return None
    return buckets


def greedy_k_factorization(n: int, y: int, k: int) -> tuple[int, ...]:
    """Split a y-friable n <= y^((k+1)/2) into exactly k factors, each <= y.

    Primes go largest-first into the lowest-indexed bucket whose value v
    satisfies v * p <= y.  The size bound guarantees this never gets stuck;
    the bound check n^2 <= y^(k+1) is exact integer arithmetic.
    """
    if n < 1 or y < 2 or k < 1:
        raise ValueError("need n >= 1, y >= 2, k >= 1")
    primes = prime_factors_desc(n)
    if primes and primes[0] > y:
        raise ValueError(f"n={n} has a prime factor above y={y}")
    if n * n > y ** (k + 1):
        raise BoundViolatedError(f"n={n} exceeds y^((k+1)/2) for y={y}, k={k}")
    buckets = _greedy_fill(primes, k, y)
    if buckets is None:
        raise InternalContradictionError(
            f"greedy assignment stuck for n={n}, y={y}, k={k} within the size bound"
        )
    return _checked(n, buckets)


@lru_cache(maxsize=256)
def ranged_bounds(y: int, k: int, a: int, b: int) -> tuple[int, int, int, int]:
    """The size bounds of a ranged split with epsilon = a/b, each exact:

    - lower root: n > y^(k/2+eps) iff n > iroot(y^(kb+2a), 2b), taken
      with the exponent pair divided by its gcd (the same real power of
      y, so the same floor, from a power and a root of smaller degree);
    - y^(k+1): n < y^((k+1)/2) iff n^2 < y^(k+1);
    - working root: v <= y^(1-eps) iff v <= iroot(y^(b-a), b);
    - small root: v <= y^eps iff v <= iroot(y^a, b).

    A harness that draws an instance and then factors it reads the same
    bounds twice; the last few (y, k, a, b) are kept.
    """
    g = math.gcd(k * b + 2 * a, 2 * b)
    return (
        iroot(y ** ((k * b + 2 * a) // g), 2 * b // g),
        y ** (k + 1),
        iroot(y ** (b - a), b),
        iroot(y**a, b),
    )


def ranged_factorization(n: int, y: int, k: int, epsilon) -> tuple[int, ...]:
    """Split n into ell factors, k/2 < ell <= k, each in (y^epsilon, y].

    Hypotheses (decided exactly): epsilon an int or a Fraction (else
    TypeError) with 0 < epsilon < 1/(k+2), n y-friable, and
    y^(k/2+epsilon) < n < y^((k+1)/2).

    Construction: primes above the working bound y^(1-epsilon) become
    singleton factors (each already sits in (y^epsilon, y]); the rest is
    greedy-filled into k - m + 1 buckets against the working bound, the
    two smallest buckets are merged (their product is <= y), unit factors
    are dropped, and every leftover factor <= y^epsilon is paired with a
    partner <= y^(1-epsilon).  The merged factor joins the pairing pool:
    it can itself land at or below y^epsilon (n = 2 * 41^2, y = 100,
    k = 3, epsilon = 19/100 produces merged factor 2), and pairing it is
    safe because any factor above y^(1-epsilon) is unique and never
    selected as a partner.

    When every prime factor is at most y^(1-epsilon) this construction
    provably succeeds, and any failure raises InternalContradictionError
    (a bug).  With a prime factor in (y^(1-epsilon), y] no split need
    exist at all (n = 2 * 503^2, y = 1000, epsilon = 19/100, k = 3 admits
    none), so that regime is best effort: the result is validated and
    HypothesisViolatedError raised if the construction cannot deliver.
    """
    if n < 1 or y < 2 or k < 1:
        raise ValueError("need n >= 1, y >= 2, k >= 1")
    a, b = exact_ratio(epsilon, "epsilon")
    if not (0 < a and a * (k + 2) < b):  # 0 < a/b < 1/(k+2), b > 0
        raise HypothesisViolatedError(
            f"epsilon={epsilon} outside (0, 1/{k + 2}) for k={k}"
        )
    primes = prime_factors_desc(n)
    if primes and primes[0] > y:
        raise ValueError(f"n={n} has a prime factor above y={y}")
    lower_root, upper_sq, work_root, small_root = ranged_bounds(y, k, a, b)
    if not (n > lower_root and n * n < upper_sq):
        raise HypothesisViolatedError(
            f"n={n} outside (y^(k/2+eps), y^((k+1)/2)) for y={y}, k={k}, "
            f"eps={epsilon}"
        )

    bigs = [q for q in primes if q > work_root]
    smalls = [q for q in primes if q <= work_root]
    m = len(bigs)
    guaranteed = m == 0

    def give_up(reason: str) -> Exception:
        if guaranteed:
            return InternalContradictionError(
                f"{reason} for n={n}, y={y}, k={k}, eps={epsilon}"
            )
        return HypothesisViolatedError(
            f"prime factor {bigs[0]} of n={n} exceeds y^(1-eps) and the "
            f"construction found no valid split ({reason})"
        )

    if m > k:
        raise give_up(f"{m} oversized prime factors exceed k")
    buckets = _greedy_fill(smalls, k - m + 1, work_root)
    if buckets is None:
        raise give_up("greedy assignment stuck")
    bs = sorted(buckets)
    if len(bs) >= 2:
        merged = bs[0] * bs[1]
        small_side = bs[2:] + [merged]
    else:
        small_side = bs
    parts = [v for v in small_side if v != 1]
    if any(v <= small_root for v in parts):
        pool = sorted(parts)
        g = sum(1 for v in pool if v <= small_root)
        if 2 * g >= len(pool):
            raise give_up(f"too many small factors ({g} of {len(pool)})")
        paired = [pool[i] * pool[g + i] for i in range(g)]
        parts = paired + pool[2 * g :]
    parts = bigs + parts

    ell = len(parts)
    ok = (
        2 * ell > k
        and ell <= k
        and all(small_root < v <= y for v in parts)
    )
    if not ok:
        raise give_up(f"invalid split {parts}")
    return _checked(n, parts)


def three_way_factorization(n: int, y: int, epsilon) -> tuple[int, ...]:
    """Split n with y^(3/2+eps) < n < y^2 into (c1, c2, c3), each factor
    either 1 or in (y^epsilon, y]; requires 0 < epsilon < 1/5."""
    factors = ranged_factorization(n, y, 3, epsilon)
    return factors + (1,) * (3 - len(factors))


def _splits(n: int, parts: list[int], fewest: int, most: int) -> bool:
    """Is n a product of between fewest and most factors from parts?

    parts is ascending, each part above 1, and a part may repeat.  The
    factors are tried in ascending order, so each multiset is tried once.
    """

    def rec(m: int, used: int, start: int) -> bool:
        if m == 1:
            return fewest <= used <= most
        if used >= most:
            return False
        for i in range(start, len(parts)):
            d = parts[i]
            if d > m:
                break
            if m % d == 0 and rec(m // d, used + 1, i):
                return True
        return False

    return rec(n, 0, 0)


def kway_feasible(n: int, y: int, k: int) -> bool:
    """Exhaustive check: can n be written as a product of k factors <= y?

    Independent of the greedy path (pure divisor search); unit factors
    allowed, so at most k factors in (1, y].  Intended for desk-scale
    sharpness witnesses.
    """
    return _splits(n, [d for d in divisors(n) if 1 < d <= y], 0, k)


def ranged_feasible(n: int, y: int, k: int, epsilon) -> bool:
    """Exhaustive check: does any split into ell in (k/2, k] factors, each
    in (y^epsilon, y], exist?  Bounds decided exactly."""
    a, b = exact_ratio(epsilon, "epsilon")
    small_bound = y**a
    good = [d for d in divisors(n) if 1 < d <= y and d**b > small_bound]
    return _splits(n, good, k // 2 + 1, k)


# ---------------------------------------------------------------------------
# The random instances of verify's factorization harnesses.  They draw
# y <= HARNESS_Y_MAX <= modcore.SMALL_PRIME_LIMIT.
HARNESS_Y_MAX = 200


def _primes_to(y: int) -> tuple[int, ...]:
    """Primes <= y, for y <= HARNESS_Y_MAX: a slice of the cached small primes."""
    primes = small_primes()
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


def _random_ranged_instance(rng: random.Random) -> tuple[int, int, int, Fraction]:
    """Instance satisfying the ranged-factorization hypotheses exactly."""
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
