"""Multiplicative characters mod p as exact rational rotation angles.

A character is named by an integer k in [0, p-2]: it sends g^a to the
unit-circle point at k*a/(p-1) turns, where g is the context's primitive
root.  Angles are exact fractions of a turn; complex values appear only
at the measurement boundary (sums, magnitudes).  Value 0 on multiples of
p is encoded by the marker ``None``.

Besides evaluation and character sums, this module carries the small
trigonometric facts the toolkit verifies numerically: the lower bound on
Re chi(c_1...c_k) when every chi(c_j) is near 1, the uniform bound
|1+z| <= 2 e^{-delta^2/8} when |z-1| >= delta, and the count of
arguments n <= y where chi(n) strays from 1.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .modcore import PrimeContext

if TYPE_CHECKING:
    from fractions import Fraction


def char_angle(ctx: PrimeContext, k: int, n: int) -> Fraction | None:
    """Exact angle of chi_k(n) in turns, or None when p divides n."""
    from fractions import Fraction  # loaded here: charsum makes no Fraction
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
    return cmath.rect(1.0, 2.0 * math.pi * float(angle))


def unit_roots(m: int) -> tuple[complex, ...]:
    step = 2.0 * math.pi / m
    return tuple(cmath.rect(1.0, step * t) for t in range(m))


PAIR_MARGIN = 2.0**-40
"""Times p^3: how far rounding can move a paired character scan's value.

The Polya-Vinogradov scan over characters mod p (m = p - 1) reads one
side of two exact symmetries: chi_{m-k} = conj(chi_k), and
S(t) = -chi(-1) S(p-1-t) for the partial sums S of a nonprincipal chi,
whose period sums to 0.  The two sides agree in exact arithmetic; their
floats differ by less than PAIR_MARGIN * p^3.  With u = 2^-53:

- A root cos(2 pi t/m) or sin(2 pi t/m), from three roundings of an
  argument below 2 pi and a libm cos or sin within one ulp, is off by
  e <= 6 pi u + 2u < 21u.
- A running sum of j <= p - 1 such entries, real or imaginary part, is
  off by at most E = (p-1) e + gamma_(p-2) (p-1), gamma_n = n u/(1 - n u),
  so E <= 9 p^2 u for p >= 3.
- Its squared magnitude, with |S| <= R = p, is off by at most
  err = gamma_2 (R + E)^2 + 2 E (2 R + E) <= 37 p^3 u: the form of the
  bound that the 50-digit test of the Polya-Vinogradov scan measures.
  A half-period maximum and the full maxima of k and m - k all lie
  within err of one exact value, so within 74 p^3 u of each other.

Every pair therefore differs by less than 2^7 p^3 u = 2^-46 p^3.  The
margin keeps a factor 64 above that for the rounding of the comparisons
themselves (one ulp of values below p^2).
"""


def char_sum(ctx: PrimeContext, k: int, t: int) -> complex:
    """Sum of chi_k(n) over 1 <= n <= t.

    Whole periods of p are summed in closed form; the remaining
    n <= t mod p are added in ascending order, so a character costs
    O(t mod p) on top of its index lookups.  Each term is the root
    `unit_roots` would hold, computed as it is added.  Up to
    16 isqrt(p-1) remaining terms read the sparse index, whose misses above
    SMALL_PRIME_LIMIT each walk baby-step giant-step; more read the dense
    table, whose O(p) build costs about as much.  A principal sum past the
    float range is refused with ValueError.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    m = ctx.order
    if not 0 <= k < m:
        raise ValueError(f"character index {k} outside [0, {m - 1}]")
    # a full period n = 1..p sums to p-1 for the principal character, else 0
    periods, t0 = divmod(t, ctx.p)
    try:
        total = complex(periods * m) if k == 0 else 0j
    except OverflowError:
        raise ValueError("t is too large: the principal sum passes the float range") from None
    step = 2.0 * math.pi / m
    ind = ctx.table if t0 > 16 * math.isqrt(m) else ctx.ind
    for n in range(1, t0 + 1):
        total += cmath.rect(1.0, step * (k * ind[n] % m))
    return total


def max_nonprincipal_sum(ctx: PrimeContext, t: int) -> float:
    """The largest |char_sum(ctx, k, t)| over every k in [1, p-2]."""
    m = ctx.order
    if m < 2:
        raise ValueError("p has no nonprincipal characters")
    return max(abs(char_sum(ctx, k, t)) for k in range(1, m))


def polya_vinogradov_bound(p: int) -> float:
    """The unconditional partial-sum bound sqrt(p) * log(p)."""
    return math.sqrt(p) * math.log(p)


class PartialSumScan(NamedTuple):
    """Extremal nonprincipal character partial sum over all t <= p.

    `violations` counts the characters whose largest partial sum passes
    the bound.  Every field is the one a full sequential sum of every
    character gives, bit for bit, though most characters are summed over
    half a period only (see `polya_vinogradov_scan`).
    """

    max_magnitude: float
    bound: float
    violations: int


def _largest_partial_sq(
    inds: list[int], k: int, m: int, cos_t: list[float], sin_t: list[float]
) -> float:
    """Largest |chi_k(n_1) + ... + chi_k(n_j)|^2 over the prefixes of `inds`.

    The running sum is kept as separate real and imaginary parts, added
    in order from the cos and sin of the unit roots; one comparison per
    term.
    """
    re = im = 0.0
    top = -1.0
    for i in inds:
        t = k * i % m
        re += cos_t[t]
        im += sin_t[t]
        sq = re * re + im * im
        if sq > top:
            top = sq
    return top


def polya_vinogradov_scan(ctx: PrimeContext) -> PartialSumScan:
    """Scan every nonprincipal k and every t <= p for partial-sum extremes.

    A character's partial sums S(t) over n = 1, 2, ..., t are summed in
    order; the last step n = p adds chi_k(p) = 0, so it is not taken.
    Two exact symmetries make most of that work redundant.  chi_{m-k} =
    conj(chi_k) (m = p - 1), so both have the same |S(t)|.  A
    nonprincipal period sums to 0, so S(t) = -chi(-1) S(p-1-t), and the
    largest |S(t)| is reached at some t <= (p-1)/2.

    So each k <= m/2 first takes its largest |S(t)|^2 over those t only:
    within `PAIR_MARGIN * p**3` of the full sequential maximum of both k
    and m - k.  Only the characters whose half-period value is within
    that margin of bound^2, or within twice it of the best half-period
    value, are summed again over the full period, as the full scan sums
    them; every other pair takes its violation verdict from the
    half-period value, which no rounding can move across the bound.  The
    scan's maximum is the largest full sum.
    """
    p, m = ctx.p, ctx.order
    bound = polya_vinogradov_bound(p)
    roots = unit_roots(m)
    cos_t = [z.real for z in roots]
    sin_t = [z.imag for z in roots]
    inds = ctx.table[1:].tolist()  # ind(n) for n = 1..p-1
    bound_sq = bound * bound
    margin = PAIR_MARGIN * p**3
    first_half = inds[: m // 2]
    halves = [
        _largest_partial_sq(first_half, k, m, cos_t, sin_t)
        for k in range(1, m // 2 + 1)
    ]
    near_best = max(halves, default=0.0) - 2 * margin
    tops: dict[int, float] = {}  # full-period maxima of the rescanned k
    violations = 0
    for k, half in enumerate(halves, start=1):
        if half >= near_best or abs(half - bound_sq) <= margin:
            for j in {k, m - k}:
                tops[j] = _largest_partial_sq(inds, j, m, cos_t, sin_t)
        elif half > bound_sq:
            violations += 1 if 2 * k == m else 2
    violations += sum(top > bound_sq for top in tops.values())
    best_sq = max(tops.values(), default=-1.0)
    return PartialSumScan(
        max_magnitude=math.sqrt(best_sq) if best_sq > 0 else 0.0,
        bound=bound,
        violations=violations,
    )


@lru_cache(maxsize=1)
def _log_one_plus_root(m: int) -> tuple[float, ...]:
    """log|1 + e^{2 pi i t/m}| for t in [0, m); exact -inf at the half turn.

    Computed for t <= m/2 and mirrored, table[m - t] == table[t], so the
    log-products of chi_k and chi_{m-k} = conj(chi_k) add the same terms
    in the same order and are equal bit for bit.  Scans call this once
    per character with the same m, so one modulus's table is kept.
    """
    half = [
        -math.inf if 2 * t == m
        else 0.5 * math.log(2.0 + 2.0 * math.cos(2.0 * math.pi * t / m))
        for t in range(m // 2 + 1)
    ]
    return tuple(half + [half[m - t] for t in range(len(half), m)])


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
        raise ValueError(f"delta={delta} outside (0, 2)")
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


def near_one_exceptions(ctx: PrimeContext, k: int, y: int, delta: float) -> list[int]:
    """The n <= y with |chi_k(n) - 1| > delta, in ascending order.

    Decided by comparing the exact angle, in units of 1/m turn, against
    the integer `near_one_cutoff`, so no complex arithmetic enters the
    test.  Multiples of p (character value 0, distance 1 from 1) are
    listed as exceptions.
    """
    m = ctx.order
    cutoff = near_one_cutoff(delta, m)  # a bad delta is refused first
    if y < 1:
        raise ValueError("y must be >= 1")
    if not 0 <= k < m:
        raise ValueError(f"character index {k} outside [0, {m - 1}]")
    p = ctx.p
    ind = ctx.table
    # min(t, m - t) > cutoff, for t = k ind(r) mod m in [0, m)
    return [
        n for n in range(1, y + 1)
        if (r := n % p) == 0 or cutoff < k * ind[r] % m < m - cutoff
    ]


def circle_lemma_bound(k_count: int, delta: float) -> float:
    """Sharp lower bound on Re chi(c_1...c_k) when each |chi(c_j)-1| <= delta.

    Each factor's angle is at most 2 arcsin(delta/2) in absolute value, so
    the product's angle is at most k times that; the bound is its cosine.
    Raises ValueError when the accumulated angle can pass pi, where
    no bound better than -1 holds.
    """
    if not 0 < delta < 2:
        raise ValueError(f"delta={delta} outside (0, 2)")
    if k_count < 1:
        raise ValueError("k_count must be >= 1")
    theta = k_count * 2.0 * math.asin(delta / 2.0)
    if theta > math.pi:
        raise ValueError(f"k={k_count}, delta={delta}: angle sum {theta:.6f} exceeds pi")
    return math.cos(theta)


def z_lemma_check(angle: float | None, deltas: Iterable[float]) -> int:
    """Count the deltas for which |z-1| >= delta but |1+z| > 2 e^{-delta^2/8}.

    z is encoded by its angle in turns (|z| = 1) or None (z = 0).  Both
    distances are computed once; each delta then costs one bound.  A delta
    fails unless dist < delta or |1+z| <= bound, so a NaN fails and an
    infinite delta holds vacuously.
    """
    if angle is None:
        dist = one_plus = 1.0  # |z - 1| = |1 + z| = 1
    else:
        turns = float(angle)
        dist = 2.0 * abs(math.sin(math.pi * turns))
        one_plus = 2.0 * abs(math.cos(math.pi * turns))
    return sum(
        1 for delta in deltas
        if not dist < delta and not one_plus <= 2.0 * math.exp(-delta * delta / 8.0)
    )
