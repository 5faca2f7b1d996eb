"""Subset-product coverage and exact subset-product counts mod p.

The central objects: the least y such that subset products of {1..y}
reach every reduced residue class, its prime-only and arithmetic-
progression variants, the exact count vector S_y(b) of subsets of
{1..y} with product congruent to b, and the deviation of S_y(b) from
its average 2^y/(p-1) measured in exact rational arithmetic.

Counts include the empty subset (product 1).  Subsets containing a
multiple of p have product congruent to 0; those land in the residue-0
slot of the count vector, so the full vector always sums to 2^y.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .characters import unit_roots
from .modcore import PrimeContext, build_context, iroot, is_prime


class NotCoprimeError(ValueError):
    """Raised when a coverage element is divisible by p."""


class YOutOfRangeError(ValueError):
    """Raised when y is outside the supported range of an operation."""


class PrecisionRangeError(ValueError):
    """Raised when 2^y would overrun the double-precision cross-check."""


class BadDifferenceError(ValueError):
    """Raised when a progression's common difference is a multiple of p."""


# ---------------------------------------------------------------------------
# One index-coordinate kernel.  With s = ind(n), multiplying by n rotates
# Z/(p-1) by s.  Coverage holds a bitset over indices and ORs in its
# rotation; counts hold one w-bit slot per index and ADD theirs.


def _rotate(x: int, shift: int, bits: int, full: int) -> int:
    """Rotate the bits-wide word x left by shift (full = 2^bits - 1)."""
    return (x << shift | x >> (bits - shift)) & full


@dataclass(frozen=True)
class CoverageState:
    """Set of residues realizable as subset products of consumed elements.

    The set is stored as a bitset over discrete-log indices, where
    consuming an element is a single rotate-and-or pass.  Residue 1 (bit
    at index 0) is always present: the empty product.  States are
    immutable; consuming returns a new state.
    """

    ctx: PrimeContext
    mask: int

    @property
    def covered(self) -> bool:
        return self.mask == self.ctx.full_mask

    def residues(self) -> list[int]:
        """The reached residues, ascending."""
        p, ind = self.ctx.p, self.ctx.table
        return [r for r in range(1, p) if self.mask >> ind[r] & 1]


def initial_coverage(ctx: PrimeContext) -> CoverageState:
    """Coverage before any element: only the empty product, residue 1."""
    return CoverageState(ctx=ctx, mask=1)


def coverage_consume(state: CoverageState, n: int) -> CoverageState:
    """Extend the reached set with every product reached-element * n."""
    ctx = state.ctx
    r = n % ctx.p
    if r == 0:
        raise NotCoprimeError(f"element {n} is divisible by {ctx.p}")
    mask = state.mask | _rotate(state.mask, ctx.ind[r], ctx.order, ctx.full_mask)
    return CoverageState(ctx=ctx, mask=mask)


def _first_cover(ctx: PrimeContext, terms: Iterable[int | None]) -> int | None:
    """Least k such that subset products of the first k terms reach every
    unit, else None.  A None term is a step that consumes nothing."""
    state = initial_coverage(ctx)
    for k, n in enumerate(terms, 1):
        if n is not None:
            state = coverage_consume(state, n)
        if state.covered:
            return k
    return None


def coverage_threshold(ctx: PrimeContext) -> int:
    """Least y such that subset products of {1..y} reach every residue.

    {1..p-1} holds every unit, so some y < p always covers.
    """
    return _first_cover(ctx, range(1, ctx.p))


def y_of_p(p: int) -> int:
    """Least y such that subset products of {1..y} cover all of [1, p-1]."""
    return coverage_threshold(build_context(p))


def prime_coverage_threshold(ctx: PrimeContext) -> int | None:
    """Least y' < p whose primes' subset products cover everything, else None."""
    return _first_cover(ctx, (n if is_prime(n) else None for n in range(1, ctx.p)))


def y_prime_of_p(p: int) -> int | None:
    """Prime-only coverage threshold; None when even all primes < p fail."""
    return prime_coverage_threshold(build_context(p))


def progression_coverage_threshold(
    ctx: PrimeContext, a: int, d: int, y_max: int
) -> int | None:
    """Least y <= y_max such that subset products of a, a+d, ..., a+(y-1)d
    cover everything; terms divisible by p are skipped.  None if no y works.

    A difference divisible by p collapses the progression to one residue
    and is rejected, except when that residue is 0: then every term is
    skipped and the honest answer is non-coverage.  Only the first p terms
    are read: with d a unit they hold every unit, and with a = d = 0 mod p
    every term is skipped.
    """
    p = ctx.p
    if y_max < 1:
        raise YOutOfRangeError(f"y_max={y_max} must be >= 1")
    if d % p == 0 and a % p != 0:
        raise BadDifferenceError(f"difference {d} is a multiple of {p}")
    terms = (a + j * d for j in range(min(y_max, p)))
    return _first_cover(ctx, (t if t % p else None for t in terms))


def y_of_progression(p: int, a: int, d: int, y_max: int) -> int | None:
    """Coverage threshold along an arithmetic progression of length <= y_max."""
    return progression_coverage_threshold(build_context(p), a, d, y_max)


# ---------------------------------------------------------------------------
# Exact subset-product counts


@dataclass(frozen=True)
class SubsetProductCounts:
    """Exact counts of subsets of {1..y} by product residue mod p.

    counts[b] for b in [1, p-1] is S_y(b); counts[0] counts the subsets
    whose product is divisible by p (nonzero only when y >= p).  The
    whole vector sums to 2^y.
    """

    p: int
    y: int
    counts: tuple[int, ...]

    def unit_mass(self) -> int:
        """Number of subsets whose product is coprime to p."""
        return sum(self.counts[1:])

    def reached(self) -> list[int]:
        """Residues b >= 1 with S_y(b) > 0, ascending."""
        return [b for b in range(1, self.p) if self.counts[b] > 0]


def _widen(c: int, m: int, wb: int, wb2: int) -> int:
    """Repack m slots of wb bytes into slots of wb2 >= wb bytes."""
    raw, out = c.to_bytes(m * wb, "little"), bytearray(m * wb2)
    for j in range(wb):  # byte j of every slot in one strided copy
        out[j::wb2] = raw[j::wb]
    return int.from_bytes(out, "little")


def _slots(c: int, m: int, wb: int) -> list[int]:
    """The m slots of wb bytes in c, lowest first."""
    raw = c.to_bytes(m * wb, "little")
    return [int.from_bytes(raw[i : i + wb], "little") for i in range(0, m * wb, wb)]


def _count_dp(ctx: PrimeContext, ys: list[int]) -> Iterator[tuple[int, ...]]:
    """Take-or-skip counts over n = 1, 2, ..., indexed by residue mod p,
    yielded after n = y for each y of the ascending list ys.

    Slot i of c counts the subsets with product g^i; taking n adds c
    rotated by ind(n) slots.  Counts stay <= 2^k after k elements, so
    slots widen 8 bytes at a time to exceed k bits.  `zero` tallies the
    products divisible by p.
    """
    p, m, ind = ctx.p, ctx.order, ctx.table
    c, zero, wb = 1, 0, 8  # the empty subset: count 1 at g^0 = 1
    bits, full = 64 * m, (1 << 64 * m) - 1
    n = 0
    for y in ys:
        while n < y:
            n += 1
            if n >= 8 * wb:
                c, wb = _widen(c, m, wb, wb + 8), wb + 8
                bits, full = 8 * wb * m, (1 << 8 * wb * m) - 1
            r = n % p
            if r == 0:
                # "take" sends every product to 0; "skip" leaves the rest alone
                zero += zero + sum(_slots(c, m, wb))
                continue
            zero += zero  # 0 * r stays 0
            c += _rotate(c, 8 * wb * ind[r], bits, full)
        slots = _slots(c, m, wb)
        yield (zero, *(slots[ind[b]] for b in range(1, p)))


def subset_product_prefixes(
    ctx: PrimeContext, ys: Iterable[int]
) -> Iterator[SubsetProductCounts]:
    """Exact S_y(b) for each y of sorted(set(ys)), from one fold over
    n = 1..max(ys): the counts after the first y elements are the answer
    for y.  Snapshots are made one at a time, as the fold passes them.
    """
    ys = sorted(set(ys))
    if ys and ys[0] < 1:
        raise YOutOfRangeError(f"y={ys[0]} must be >= 1")
    return (
        SubsetProductCounts(p=ctx.p, y=y, counts=counts)
        for y, counts in zip(ys, _count_dp(ctx, ys))
    )


def subset_product_counts(p: int, y: int) -> SubsetProductCounts:
    """Exact S_y(b) for all b, by take-or-skip dynamic programming.

    Starts from count 1 at residue 1 (the empty subset) and folds in
    n = 1..y in the index coordinate; arbitrary-precision integers
    throughout.  p must be prime.
    """
    (counts,) = subset_product_prefixes(build_context(p), [y])
    return counts


def enumerate_subset_counts(p: int, y: int) -> tuple[int, ...]:
    """Brute-force oracle: walk all 2^y subsets and tally product residues.

    Independent of the dynamic program (explicit product list, doubled one
    element at a time).  Exponential; intended for y <= ~20.
    """
    if y < 1:
        raise YOutOfRangeError(f"y={y} must be >= 1")
    products = [1]
    for n in range(1, y + 1):
        r = n % p
        products += [v * r % p for v in products]
    counts = [0] * p
    for v in products:
        counts[v] += 1
    return tuple(counts)


# Above this, 1 ulp of relative drift in the complex products could rival
# the 1e-6-scaled tolerance; the exact DP has no such ceiling.
MAX_CROSSCHECK_Y = 60


def counts_via_characters(ctx: PrimeContext, y: int) -> list[float]:
    """Evaluate the orthogonality form of S_y(b) in double precision.

    Returns a length-p vector (slot 0 unused, 0.0) approximating the exact
    counts: averaging chi(b^{-1}) * prod_{n<=y} (1 + chi(n)) over all
    characters.  Double precision is guaranteed adequate only for
    y <= MAX_CROSSCHECK_Y = 60.  This is the cross-check route; the
    dynamic program is the ground truth.
    """
    if y < 1:
        raise YOutOfRangeError(f"y={y} must be >= 1")
    if y > MAX_CROSSCHECK_Y:
        raise PrecisionRangeError(
            f"y={y} exceeds the double-precision guarantee ({MAX_CROSSCHECK_Y})"
        )
    p, m, ind = ctx.p, ctx.order, ctx.table
    roots = unit_roots(m)
    prods = []
    for k in range(m):
        acc = 1 + 0j
        for n in range(1, y + 1):
            r = n % p
            if r == 0:
                continue  # factor 1 + chi(n) = 1
            acc *= 1 + roots[k * ind[r] % m]
        prods.append(acc)
    out = [0.0] * p
    for b in range(1, p):
        ib = ind[b]
        acc = 0j
        for k in range(m):
            acc += roots[(m - k * ib % m) % m] * prods[k]
        out[b] = acc.real / m
    return out


@dataclass(frozen=True)
class ErrorReport:
    """Worst-case deviation of S_y(b) from 2^y/(p-1), exactly.

    normalized_ratio is max_b |S_y(b) - 2^y/(p-1)| * p^2 / 2^y, computed
    as an exact rational and converted to float once at the end.
    """

    p: int
    y: int
    main_term: Fraction
    max_abs_error: Fraction
    normalized_ratio: float


def counts_error_report(dp: SubsetProductCounts) -> ErrorReport:
    """Exact-rational worst-case error of one snapshot of the counts."""
    p, y, counts = dp.p, dp.y, dp.counts
    if not 1 <= y < p:
        raise YOutOfRangeError(f"need 1 <= y < p, got y={y}, p={p}")
    two_y = 1 << y
    m = p - 1
    # compare over integers: |S(b) * (p-1) - 2^y|, then scale by 1/(p-1)
    max_scaled = max(abs(counts[b] * m - two_y) for b in range(1, p))
    max_err = Fraction(max_scaled, m)
    ratio = max_err * p * p / two_y
    return ErrorReport(
        p=p,
        y=y,
        main_term=Fraction(two_y, m),
        max_abs_error=max_err,
        normalized_ratio=float(ratio),
    )


def error_report(p: int, y: int) -> ErrorReport:
    """Exact-rational worst-case error of the subset-product counts."""
    if not 1 <= y < p:
        raise YOutOfRangeError(f"need 1 <= y < p, got y={y}, p={p}")
    return counts_error_report(subset_product_counts(p, y))


def theorem_y(p: int, exponent: Fraction = Fraction(3, 5)) -> int:
    """ceil(p^exponent), clamped to [1, p-1], decided exactly.

    For exponent = a/b that is the least y with y^b >= p^a, found from the
    integer root iroot(p^a, b).  The exponent must be exact (an int or a
    Fraction): a float's binary denominator would make p^a enormous.
    """
    if not isinstance(exponent, (int, Fraction)):
        raise TypeError(f"exponent {exponent!r} must be an int or a Fraction")
    a, b = exponent.numerator, exponent.denominator
    if a <= 0:
        y = 1  # p^exponent <= 1
    elif a >= b:
        y = p  # p^exponent >= p: clamped below
    else:
        y = iroot(p**a, b)
        y += y**b < p**a
    return min(p - 1, max(1, y))
