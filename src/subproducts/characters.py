"""Multiplicative characters mod p as exact rational rotation angles.

A character is named by an integer k in [0, p-2]: it sends g^a to the
unit-circle point at k*a/(p-1) turns, where g is the context's primitive
root.  Angles are exact fractions of a turn; complex values appear only
at the measurement boundary (sums, magnitudes).  Value 0 on multiples of
p is encoded by the marker ``None``.

Besides evaluation and character sums, this module carries the small
trigonometric facts the toolkit verifies numerically: the lower bound on
Re chi(c_1...c_k) when every chi(c_j) is near 1, the uniform bound
|1+z| <= 2 e^{-delta^2/8} when |z-1| >= delta, the count of arguments
n <= y where chi(n) strays from 1, and the divisor-filtered friable set
built from that near-one test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .friable import largest_prime_factor
from .modcore import PrimeContext, divisors


class InvalidDeltaError(ValueError):
    """Raised when a near-one threshold delta is outside (0, 2)."""


class BadRangeError(ValueError):
    """Raised when a divisor-filter range does not satisfy 1 < z <= x <= t."""


class OutOfDomainError(ValueError):
    """Raised when an accumulated rotation can wrap past a half turn."""


def char_angle(ctx: PrimeContext, k: int, n: int) -> Fraction | None:
    """Exact angle of chi_k(n) in turns, or None when p divides n."""
    m = ctx.order
    if not 0 <= k < m:
        raise ValueError(f"character index {k} outside [0, {m - 1}]")
    r = n % ctx.p
    if r == 0:
        return None
    return Fraction(k * ctx.ind[r] % m, m)


def angle_to_complex(angle: Fraction | None) -> complex:
    """Complex value of a character from its exact angle (None -> 0)."""
    if angle is None:
        return 0j
    theta = 2.0 * math.pi * float(angle)
    return complex(math.cos(theta), math.sin(theta))


@lru_cache(maxsize=64)
def unit_roots(m: int) -> tuple[complex, ...]:
    step = 2.0 * math.pi / m
    return tuple(complex(math.cos(step * t), math.sin(step * t)) for t in range(m))


def char_sum(ctx: PrimeContext, k: int, t: int) -> complex:
    """Sum of chi_k(n) over 1 <= n <= t.

    Whole periods of p are summed in closed form; the remaining
    n <= t mod p are added in ascending order, so a character costs
    O(t mod p) on top of the context's index table.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    m = ctx.order
    if not 0 <= k < m:
        raise ValueError(f"character index {k} outside [0, {m - 1}]")
    roots = unit_roots(m)
    # a full period n = 1..p sums to p-1 for the principal character, else 0
    periods, t0 = divmod(t, ctx.p)
    total = complex(periods * m) if k == 0 else 0j
    if t0:
        ind = ctx.table
        for n in range(1, t0 + 1):
            total += roots[k * ind[n] % m]
    return total


def max_nonprincipal_sum(ctx: PrimeContext, t: int) -> tuple[int, float]:
    """Character index k != 0 maximizing |char_sum(ctx, k, t)|, with that magnitude.

    Ties go to the smallest k so results are reproducible.
    """
    if ctx.order < 2:
        raise ValueError("p has no nonprincipal characters")
    best_k = 1
    best = abs(char_sum(ctx, 1, t))
    for k in range(2, ctx.order):
        mag = abs(char_sum(ctx, k, t))
        if mag > best:
            best, best_k = mag, k
    return best_k, best


def polya_vinogradov_bound(p: int) -> float:
    """The unconditional partial-sum bound sqrt(p) * log(p)."""
    return math.sqrt(p) * math.log(p)


@dataclass(frozen=True)
class PartialSumScan:
    """Extremal nonprincipal character partial sum over all t <= p."""

    p: int
    max_magnitude: float
    k_at_max: int
    t_at_max: int
    bound: float
    violations: int


def polya_vinogradov_scan(ctx: PrimeContext) -> PartialSumScan:
    """Scan every nonprincipal k and every t <= p for partial-sum extremes.

    The running sum of chi_k(n) over n = 1, 2, ..., p is kept as separate
    real and imaginary parts, read from the cos and sin of the unit roots;
    the last step n = p adds chi_k(p) = 0.
    """
    p, m = ctx.p, ctx.order
    bound = polya_vinogradov_bound(p)
    roots = unit_roots(m)
    cos_t = [z.real for z in roots]
    sin_t = [z.imag for z in roots]
    ind = ctx.table
    best_sq = -1.0
    best_k = best_t = 0
    violations = 0
    bound_sq = bound * bound
    for k in range(1, m):
        re = im = 0.0
        for n in range(1, p):
            t = k * ind[n] % m
            re += cos_t[t]
            im += sin_t[t]
            sq = re * re + im * im
            if sq > best_sq:
                best_sq, best_k, best_t = sq, k, n
            if sq > bound_sq:
                violations += 1
        # n = p: chi_k(p) = 0 leaves the sum where it is
        sq = re * re + im * im
        if sq > best_sq:
            best_sq, best_k, best_t = sq, k, p
        if sq > bound_sq:
            violations += 1
    return PartialSumScan(
        p=p,
        max_magnitude=math.sqrt(best_sq) if best_sq > 0 else 0.0,
        k_at_max=best_k,
        t_at_max=best_t,
        bound=bound,
        violations=violations,
    )


@lru_cache(maxsize=1)
def _log_one_plus_root(m: int) -> tuple[float, ...]:
    """log|1 + e^{2 pi i t/m}| for t in [0, m); exact -inf at the half turn.

    Scans call this once per character with the same m, so one modulus's
    table is kept.
    """
    return tuple(
        -math.inf if 2 * t == m
        else 0.5 * math.log(2.0 + 2.0 * math.cos(2.0 * math.pi * t / m))
        for t in range(m)
    )


def log_product_one_plus_chi(ctx: PrimeContext, k: int, y: int) -> float:
    """log of the product of |1 + chi_k(n)| over n <= y; -inf on a zero factor.

    Each term is log|1 + e^{i theta}| = log(2 + 2 cos theta) / 2.  The zero
    factor (angle exactly half a turn) is detected in exact arithmetic, so
    -inf is an honest value rather than a rounding accident.  Multiples of
    p contribute |1 + 0| = 1.  For k = 0 the result is y * log 2 when y < p.
    """
    if y < 1:
        raise ValueError("y must be >= 1")
    if not 0 <= k < ctx.order:
        raise ValueError(f"character index {k} outside [0, {ctx.order - 1}]")
    m = ctx.order
    p = ctx.p
    ind = ctx.table
    table = _log_one_plus_root(m)
    total = 0.0
    for n in range(1, y + 1):
        r = n % p
        if r == 0:
            continue
        term = table[k * ind[r] % m]
        if term == -math.inf:
            return -math.inf
        total += term
    return total


def near_one_threshold_turns(delta: float) -> float:
    """Angle (in turns) at which |e^{i theta} - 1| = delta: arcsin(delta/2)/pi."""
    if not 0 < delta < 2:
        raise InvalidDeltaError(f"delta={delta} outside (0, 2)")
    return math.asin(delta / 2.0) / math.pi


def near_one_cutoff(delta: float, m: int) -> int:
    """Largest angle, in units of 1/m turn, at which |chi - 1| <= delta.

    An angle of t/m turns (t in [0, m)) is near one iff min(t, m - t) is at
    most this cutoff.  It is exactly the comparison of the fraction
    min(t, m - t)/m against the float arcsin(delta/2)/pi read as the
    rational num/den it is: c/m <= num/den iff c <= floor(num m / den).
    """
    num, den = near_one_threshold_turns(delta).as_integer_ratio()
    return num * m // den


def near_one_exceptions(
    ctx: PrimeContext, k: int, y: int, delta: float
) -> tuple[int, list[int]]:
    """Count (and list) n <= y with |chi_k(n) - 1| > delta.

    Decided by comparing the exact angle, in units of 1/m turn, against
    the integer `near_one_cutoff`, so no complex arithmetic enters the
    test.  Multiples of p (character value 0, distance 1 from 1) are
    counted as exceptions.
    """
    if not 0 < delta < 2:
        raise InvalidDeltaError(f"delta={delta} outside (0, 2)")
    if y < 1:
        raise ValueError("y must be >= 1")
    if not 0 <= k < ctx.order:
        raise ValueError(f"character index {k} outside [0, {ctx.order - 1}]")
    m = ctx.order
    p = ctx.p
    ind = ctx.table
    cutoff = near_one_cutoff(delta, m)
    members = []
    for n in range(1, y + 1):
        r = n % p
        if r == 0:
            members.append(n)
            continue
        t = k * ind[r] % m
        if min(t, m - t) > cutoff:
            members.append(n)
    return len(members), members


@dataclass(frozen=True)
class AChiSet:
    """Friable integers in (x, t] whose large divisors all sit near chi = 1.

    Membership demands every divisor c > z of n satisfy
    |chi_k(c) - 1| <= 1/log p.  `complement_size` counts the rest of (0, t].
    """

    p: int
    k: int
    y: int
    t: int
    x: float
    z: float
    members: tuple[int, ...]
    complement_size: int


def build_A_chi(
    ctx: PrimeContext, k: int, y: int, t: int, x: float, z: float
) -> AChiSet:
    """Enumerate the divisor-filtered y-friable set over (x, t].

    Divisors are enumerated by trial division up to sqrt(n); fine at desk
    scale (t up to about 10^6).  An empty range (t <= x) yields an empty
    set; `complement_size` is then max(t, 0).
    """
    if not 1 < z <= x:
        raise BadRangeError(f"need 1 < z <= x, got z={z}, x={x}")
    if not 0 <= k < ctx.order:
        raise ValueError(f"character index {k} outside [0, {ctx.order - 1}]")
    m = ctx.order
    p = ctx.p
    ind = ctx.table
    cutoff = near_one_cutoff(1.0 / math.log(p), m)

    def divisor_near_one(c: int) -> bool:
        r = c % p
        if r == 0:
            return False  # chi(c) = 0 sits at distance 1 > 1/log p
        a = k * ind[r] % m
        return min(a, m - a) <= cutoff

    members = []
    for n in range(math.floor(x) + 1, t + 1):
        if largest_prime_factor(n) > y:
            continue
        if all(c <= z or divisor_near_one(c) for c in divisors(n)):
            members.append(n)
    return AChiSet(
        p=p,
        k=k,
        y=y,
        t=t,
        x=x,
        z=z,
        members=tuple(members),
        complement_size=max(t, 0) - len(members),
    )


def circle_lemma_bound(k_count: int, delta: float) -> float:
    """Sharp lower bound on Re chi(c_1...c_k) when each |chi(c_j)-1| <= delta.

    Each factor's angle is at most 2 arcsin(delta/2) in absolute value, so
    the product's angle is at most k times that; the bound is its cosine.
    Raises OutOfDomainError when the accumulated angle can pass pi, where
    no bound better than -1 holds.
    """
    if not 0 < delta < 2:
        raise InvalidDeltaError(f"delta={delta} outside (0, 2)")
    if k_count < 1:
        raise ValueError("k_count must be >= 1")
    theta = k_count * 2.0 * math.asin(delta / 2.0)
    if theta > math.pi:
        raise OutOfDomainError(
            f"k={k_count}, delta={delta}: angle sum {theta:.6f} exceeds pi"
        )
    return math.cos(theta)


def z_lemma_check(angle: Fraction | None, delta: float) -> bool:
    """Check |1+z| <= 2 e^{-delta^2/8} whenever |z-1| >= delta.

    z is encoded by its angle in turns (|z| = 1) or None (z = 0).  Returns
    True when the implication holds for this pair, including vacuously.
    """
    bound = 2.0 * math.exp(-delta * delta / 8.0)
    if angle is None:
        # |z - 1| = 1, |1 + z| = 1
        return True if 1.0 < delta else 1.0 <= bound
    turns = float(angle)
    dist = 2.0 * abs(math.sin(math.pi * turns))
    if dist < delta:
        return True
    return 2.0 * abs(math.cos(math.pi * turns)) <= bound
