"""Subset-product coverage and exact subset-product counts mod p.

The central objects: the least y such that subset products of {1..y}
reach every reduced residue class, its prime-only and arithmetic-
progression variants, the exact count vector S_y(b) of subsets of
{1..y} with product congruent to b, and the deviation of S_y(b) from
its average 2^y/(p-1) measured in exact integer arithmetic.

Counts include the empty subset (product 1).  Subsets containing a
multiple of p have product congruent to 0; those land in the residue-0
slot of the count vector, so the full vector always sums to 2^y.
"""

from __future__ import annotations

import struct
from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple

from .modcore import PrimeContext, build_context, iter_primes


# ---------------------------------------------------------------------------
# One index-coordinate kernel.  With s = ind(n), multiplying by n rotates
# Z/(p-1) by s.  Coverage holds a bitset over indices and ORs in its
# rotation; counts hold one w-bit slot per index, the deviation of its count
# from its coset's baseline, and ADD theirs.


def _rotate(x: int, shift: int, bits: int, full: int) -> int:
    """Rotate the bits-wide word x left by shift (full = 2^bits - 1)."""
    return ((x << shift) & full) | (x >> (bits - shift))


class CoverageState(NamedTuple):
    """Set of residues realizable as subset products of consumed elements.

    The set is stored as a bitset over discrete-log indices, where
    consuming an element is a single rotate-and-or pass.  Residue 1 (bit
    at index 0) is always present: the empty product.  States are
    immutable; consuming returns a new state.
    """

    ctx: PrimeContext
    mask: int


def coverage_consume(state: CoverageState, n: int) -> CoverageState:
    """Extend the reached set with every product reached-element * n."""
    ctx, mask = state
    if (r := n % ctx.p) == 0:
        raise ValueError(f"element {n} is divisible by {ctx.p}")
    return CoverageState(ctx, mask | _rotate(mask, ctx.ind[r], ctx.order, ctx.full_mask))


def _first_cover(
    ctx: PrimeContext, steps: Iterable[tuple[int, int | None]]
) -> int | None:
    """The first y of the (y, n) steps after which the subset products of
    the consumed terms reach every unit, else None.  A step consumes n, a
    unit mod p, or nothing when n is None.

    The steps of `coverage_consume` from `CoverageState(ctx, 1)`, on the
    bare mask: no state object per term.
    """
    p, ind, m, full = ctx.p, ctx.ind, ctx.order, ctx.full_mask
    mask = 1
    for y, n in steps:
        if n is not None:
            mask |= _rotate(mask, ind[n % p], m, full)
        if mask == full:
            return y
    return None


def coverage_threshold(ctx: PrimeContext) -> int:
    """Least y such that subset products of {1..y} reach every residue.

    {1..p-1} holds every unit, so some y < p always covers.
    """
    ns = range(1, ctx.p)
    return _first_cover(ctx, zip(ns, ns))


def prime_coverage_threshold(ctx: PrimeContext) -> int | None:
    """Least y' < p whose primes' subset products cover everything, else None.

    The walk steps from prime to prime of `iter_primes`.  Its first step,
    y' = 1, consumes nothing: the empty product covers the lone unit mod 2.
    """
    primes = ((q, q) for q in iter_primes(2, ctx.p - 1))
    return _first_cover(ctx, chain([(1, None)], primes))


def progression_coverage_threshold(
    ctx: PrimeContext, a: int, d: int, y_max: int
) -> int | None:
    """Least y <= y_max such that subset products of a, a+d, ..., a+(y-1)d
    cover everything; terms divisible by p are skipped.  None if no y works.

    For p > 2 a difference divisible by p collapses the progression to
    one residue and is rejected, except when that residue is 0: then every
    term is skipped and the honest answer is non-coverage.  Mod 2 the lone
    unit 1 is the empty product, covered at y = 1 whatever a and d are.
    Only the first p terms are read: with d a unit they hold every unit,
    and with a = d = 0 mod p every term is skipped.
    """
    p = ctx.p
    if y_max < 1:
        raise ValueError(f"y_max={y_max} must be >= 1")
    if p > 2 and d % p == 0 and a % p != 0:
        raise ValueError(f"difference {d} is a multiple of {p}")
    terms = (a + j * d for j in range(min(y_max, p)))
    return _first_cover(ctx, enumerate((t if t % p else None for t in terms), 1))


# ---------------------------------------------------------------------------
# Exact subset-product counts


class SubsetProductCounts(NamedTuple):
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


# Unit steps of the count fold between two rebiases of its slots.
HEADROOM_INTERVAL = 8
# Bytes a count slot starts with, and gains when a headroom test fails.
SLOT_BYTES = 4

# struct codes of little-endian unsigned ints, by size in bytes
_SLOT_CODES = {4: "I", 8: "Q"}


def _widen(c: int, m: int, wb: int, wb2: int) -> int:
    """Repack m slots of wb bytes into slots of wb2 >= wb bytes."""
    raw, out = c.to_bytes(m * wb, "little"), bytearray(m * wb2)
    for j in range(wb):  # byte j of every slot in one strided copy
        out[j::wb2] = raw[j::wb]
    return int.from_bytes(out, "little")


def _slot_decoder(m: int, wb: int) -> struct.Struct:
    """The decoder `_slots` reads m slots of wb bytes with.  A fold builds
    one per slot width and drops it when it widens or ends, so no format
    it compiles stays in `struct`'s module cache."""
    code = _SLOT_CODES.get(wb)
    return struct.Struct(f"<{m}{code}" if code else f"{wb}s" * m)


def _slots(c: int, m: int, wb: int, decoder: struct.Struct) -> list[int]:
    """The m slots of wb bytes in c, lowest first, split at C speed by
    `_slot_decoder(m, wb)`: 4- and 8-byte slots unpack straight to ints,
    wider ones to one byte string per slot, each then read as an int."""
    raw = decoder.unpack(c.to_bytes(m * wb, "little"))
    if wb in _SLOT_CODES:
        return list(raw)
    return list(map(int.from_bytes, raw, repeat("little")))


def _spread(ks: list[int], wb: int, q: int) -> int:
    """q periods of d = len(ks) slots of wb bytes, slot i holding ks[i mod d]
    (each 0 <= k < 2^(8 wb)): one period's bytes, repeated at C speed."""
    period = b"".join(k.to_bytes(wb, "little") for k in ks)
    return int.from_bytes(period * q, "little")


def _layout(m: int, wb: int, interval: int) -> tuple[int, ...]:
    """Constants of m slots of w = 8 wb bits: (w, bits, full, t, high) for
    t = w - 1 - interval, where high masks every slot's bits at or above
    t+1."""
    w = 8 * wb
    t = w - 1 - interval
    return w, w * m, (1 << w * m) - 1, t, _spread([(1 << w) - (2 << t)], wb, m)


def _rebias(c: int, lift: list[int], bias: int, t: int, wb: int, q: int) -> int:
    """c less lift[j] + bias - 2^t in every slot of coset j mod d = len(lift)."""
    return c - _spread([f + bias - (1 << t) for f in lift], wb, q)


def _count_dp(ctx: PrimeContext, ys: list[int]) -> Iterator[tuple[int, ...]]:
    """Take-or-skip counts over n = 1, 2, ..., indexed by residue mod p,
    yielded after n = y for each y of the ascending list ys.

    The fold keeps deviations from a baseline that is constant on each
    coset of the cubes: d = 3 when 3 | p-1, else d = 1, and q = (p-1)/d.
    Slot i of c holds V_i = S(g^i) - L[i mod d] + B in w bits, for an
    integer vector L of length d and one bias B.  Taking a unit n adds c
    rotated by s = ind(n) slots: S'(g^i) = S(g^i) + S(g^(i-s)), so
    V' = V_i + V_(i-s) holds the same form with L'[j] = L[j] + L[j-s] and
    B' = 2B.  Slots only add, so none borrows.  Beside L the fold carries
    the exact coset sums A, A[j] the sum of S over coset j, which fold as
    L does: a step sets v[j] + v[j - s mod d] for v = A and v = L.

    Before every W-th unit step (W = HEADROOM_INTERVAL, 1 <= W < 8
    SLOT_BYTES) a rebias moves L to the floor coset means A // q by
    subtracting A[j] // q - L[j] + B - 2^t from each slot of coset j, which
    sets B = 2^t for t = w - 1 - W; one big-int & high then tests that
    every slot is below 2^(t+1).  Before the rebias 0 <= V < 2^w,
    0 <= A // q - L < 2^W and 2^t <= B <= 2^(w-1).  So each slot then
    holds a v in [2^(t+1) - 2^w, 2^w), a lowest slot outside
    [0, 2^(t+1)) reads v mod 2^w >= 2^(t+1) in c's two's complement, and
    the test passes iff every T = v - 2^t has -2^t <= T < 2^t.  After a
    pass 0 <= V < 2^(t+1) and W steps at most double it W times, so
    V < 2^w: no slot carries.  A failed test widens the slots as they were
    before the rebias by SLOT_BYTES bytes, to w' bits, and adds 2^t' - B
    to every slot, which sets B = 2^t' and keeps V below 2^w + 2^t' < 2^w'.  The rebias is then
    made again and passes, as |T| < 2^w <= 2^t'.  The rebias patterns
    and the test mask repeat one period of d slots, so they are built by
    bytes repetition, not by big-int multiplication.

    The deviations are sums of the characters that are not constant on
    the cosets: one of odd order k gives about 2^(y/k) and one of even
    order soon gives 0.  The cubic baseline cancels the order-3
    characters, the widest, so at y = p-1 T has 137 bits at p = 1009
    (the order-7 characters), 9 at p = 997 and 86 at p = 1013, against
    y-bit counts.  A snapshot adds L[j] - B to the slots of coset j, so
    the counts it yields are exact integers; residue 0 gets 2^y - 2^u for
    the u units among 1..y, as only the 2^u subsets of units have products
    prime to p.
    """
    p, m, ind, interval = ctx.p, ctx.order, ctx.table, HEADROOM_INTERVAL
    d = 3 if m % 3 == 0 else 1
    q, wb = m // d, SLOT_BYTES
    w, bits, full, t, high = _layout(m, wb, interval)
    decoder = _slot_decoder(m, wb)
    # the empty subset has S(1) = 1, so A = (1, 0, ...)
    A = [1] + [0] * (d - 1)
    L = [a // q for a in A]
    bias = 1 << t
    c = 1 + _spread([bias - low for low in L], wb, q)
    units = n = 0
    for y in ys:
        while n < y:
            n += 1
            r = n % p
            if r == 0:
                continue  # "take" sends every product to 0
            if units % interval == 0:
                lift = [a // q - low for a, low in zip(A, L)]
                cut = _rebias(c, lift, bias, t, wb, q)
                while cut & high:
                    c = _widen(c, m, wb, wb + SLOT_BYTES)
                    wb += SLOT_BYTES
                    w, bits, full, t, high = _layout(m, wb, interval)
                    decoder = _slot_decoder(m, wb)
                    c += _spread([(1 << t) - bias], wb, m)
                    bias = 1 << t
                    cut = _rebias(c, lift, bias, t, wb, q)
                c, bias, L = cut, 1 << t, [a // q for a in A]
            units += 1
            s = ind[r]
            c += _rotate(c, w * s, bits, full)
            bias += bias
            A = [A[j] + A[j - s % d] for j in range(d)]
            L = [L[j] + L[j - s % d] for j in range(d)]
        slots = _slots(c, m, wb, decoder)
        for j, low in enumerate(L):
            slots[j::d] = map((low - bias).__add__, slots[j::d])
        # of the 2^n subsets, the 2^units of units alone have products prime to p
        yield ((1 << n) - (1 << units), *map(slots.__getitem__, ind[1:]))


def subset_product_prefixes(
    ctx: PrimeContext, ys: Iterable[int]
) -> Iterator[SubsetProductCounts]:
    """Exact S_y(b) for each y of sorted(set(ys)), from one fold over
    n = 1..max(ys): the counts after the first y elements are the answer
    for y.  Snapshots are made one at a time, as the fold passes them.
    """
    ys = sorted(set(ys))
    if ys and ys[0] < 1:
        raise ValueError(f"y={ys[0]} must be >= 1")
    return (
        SubsetProductCounts(p=ctx.p, y=y, counts=counts)
        for y, counts in zip(ys, _count_dp(ctx, ys))
    )


def subset_product_counts(p: int, y: int) -> SubsetProductCounts:
    """Exact S_y(b) for all b, by take-or-skip dynamic programming.

    Starts from count 1 at residue 1 (the empty subset) and folds in
    n = 1..y in the index coordinate, keeping each count's deviation from
    the floor mean of its coset of the cubes in packed slots sized to the
    largest deviation, not to 2^y; the counts returned are exact integers.
    p must be prime.
    """
    (counts,) = subset_product_prefixes(build_context(p), [y])
    return counts


def enumerate_subset_counts(p: int, y: int) -> tuple[int, ...]:
    """Brute-force oracle: walk all 2^y subsets and tally product residues.

    Independent of the dynamic program: each half of {1..y} lists the
    explicit product of every one of its subsets, and every pair (v, t),
    v from the lower half's list and t from the upper's, is one subset of
    {1..y}, tallied at v t mod p.  No count vector is convolved.  Holds
    2^ceil(y/2) products at a time; exponential in time, intended for
    y <= ~20.
    """
    if y < 1:
        raise ValueError(f"y={y} must be >= 1")
    half = y // 2
    low = _subset_products(p, range(1, half + 1))
    high = _subset_products(p, range(half + 1, y + 1))
    counts = [0] * p
    for v in low:
        for t in high:
            counts[v * t % p] += 1
    return tuple(counts)


def _subset_products(p: int, ns: Iterable[int]) -> list[int]:
    """The product mod p of every subset of ns, one entry per subset."""
    products = [1]
    for n in ns:
        r = n % p
        products += [v * r % p for v in products]
    return products


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
        raise ValueError(f"y={y} must be >= 1")
    if y > MAX_CROSSCHECK_Y:
        raise ValueError(
            f"y={y} exceeds the double-precision guarantee ({MAX_CROSSCHECK_Y})"
        )
    # imported here, not at the top: the sweep never loads characters
    from .characters import unit_roots
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


def error_report(dp: SubsetProductCounts) -> float:
    """The normalized worst-case error max_b |S_y(b) - 2^y/(p-1)| * p^2 / 2^y
    of one snapshot of the counts: one quotient of exact integers, which
    int division rounds to the nearest float."""
    p, y, counts = dp.p, dp.y, dp.counts
    if not 1 <= y < p:
        raise ValueError(f"need 1 <= y < p, got y={y}, p={p}")
    # compare over integers: |S(b) (p-1) - 2^y| is (p-1) |S(b) - 2^y/(p-1)|
    max_scaled = max(abs(counts[b] * (p - 1) - (1 << y)) for b in range(1, p))
    return max_scaled * p * p / ((p - 1) << y)
