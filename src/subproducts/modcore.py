"""Prime and multiplicative-group primitives.

Primality, one prime sieve (over a window [lo, hi], or from 2; the
primes up to 2^12 and a least-prime-factor table are kept per process),
one stream of the primes of a range (`iter_primes`),
trial-division factorization and divisors, least primitive roots, discrete
logs (one residue at a time, or as a full index table),
Legendre symbols, and the classical small-generator statistics for a
prime p: the least quadratic nonresidue, the least primitive root, and
the least G such that {1..G} generates the whole multiplicative group;
also exact integer k-th roots, which turn a power comparison v^k <= N
into one comparison v <= iroot(N, k).
"""

from __future__ import annotations

from array import array
from bisect import bisect, bisect_left
from collections.abc import Iterator
from functools import cache, cached_property
from itertools import compress, groupby
from math import gcd, isqrt, log2

# A dense index table costs 4 bytes per residue ('i' array), so 2^24 keeps a
# single context under ~70 MB.  Sweeps in this package stay far below this.
MAX_TABLE_PRIME = 1 << 24


# Miller-Rabin to bases 2, 3 and 5 is exact below PSI_3, the least odd
# composite that is a strong pseudoprime to all three (Jaeschke 1993); it is
# above MAX_TABLE_PRIME, so three bases decide every prime a context can
# hold.  Above PSI_3 all 14 bases run: the first 13 are exact below PSI_13
# (Sorenson and Webster 2017), and PSI_13 itself fails base 43, so the 14
# are exact up to and including PSI_13.
PSI_3 = 25_326_001
PSI_13 = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
# Trial division by 2..37 decides every n below 41^2, the least composite
# with no prime factor among them.
_TRIAL_PRIMES = _MR_BASES[:12]
_TRIAL_SQUARE = 41 * 41


def is_prime(n: int) -> bool:
    """Deterministic primality test for n <= PSI_13 = 3317044064679887385961981.

    Trial division by 2..37 decides every n < 41^2; a larger n runs
    Miller-Rabin to bases 2, 3 and 5 below PSI_3 = 25,326,001 (every prime
    a context can hold), and to all 14 prime bases 2..43 from there up.
    Above PSI_13 no base set is proven, so n > PSI_13 raises ValueError
    rather than get a probable answer.
    """
    if n > PSI_13:
        raise ValueError(
            f"a {n.bit_length()}-bit integer is above {PSI_13}, beyond the "
            "deterministic range of is_prime"
        )
    if n < 2:
        return False
    for q in _TRIAL_PRIMES:
        if n % q == 0:
            return n == q
    if n < _TRIAL_SQUARE:
        return True
    bases = _MR_BASES[:3] if n < PSI_3 else _MR_BASES
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, ascending."""
    return primes_between(2, n)


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending, by a windowed sieve.

    The base primes come from `primes_up_to(isqrt(hi))`, this sieve again
    (the recursion is about log log hi deep); they then mark their multiples
    inside [lo, hi], so the memory is one byte per integer of the window
    rather than of [0, hi].
    """
    lo = max(lo, 2)
    if hi < lo:
        return []
    window = bytearray([1]) * (hi - lo + 1)
    for q in primes_up_to(isqrt(hi)):
        start = max(q * q, -(-lo // q) * q)  # q itself, if in the window, stays
        if start <= hi:
            window[start - lo :: q] = bytes((hi - start) // q + 1)
    return list(compress(range(lo, hi + 1), window))


# The reach of the small-prime data below, made once per process on first
# use.  `char_sum` reads the sparse index at no n above this limit, so the
# least-factor table splits every composite it looks up, and a spectrum row
# at none above y' (at most 109 over the rows of [3, 30000], [10^6, 1003000]
# and [16776000, 2^24]); the prime walk sieves on past it if it has to.
SMALL_PRIME_LIMIT = isqrt(MAX_TABLE_PRIME)


@cache
def small_primes() -> tuple[int, ...]:
    """The primes up to SMALL_PRIME_LIMIT, ascending: one `primes_up_to`."""
    return tuple(primes_up_to(SMALL_PRIME_LIMIT))


# `iter_primes` sieves above SMALL_PRIME_LIMIT this many integers at a time,
# so that it holds one window's primes rather than the range's (78497 Python
# ints, about 3.8 MB with the sieve, at 10^6): a few thousand primes at most.
PRIME_WINDOW = 1 << 16


def iter_primes(lo: int, hi: int) -> Iterator[int]:
    """The primes p with lo <= p <= hi, ascending, made as they are read:
    the cached `small_primes` in range, then `primes_between` windows of
    PRIME_WINDOW integers above SMALL_PRIME_LIMIT."""
    small = small_primes()
    yield from small[bisect_left(small, lo) : bisect(small, hi)]
    for start in range(max(lo, SMALL_PRIME_LIMIT + 1), hi + 1, PRIME_WINDOW):
        yield from primes_between(start, min(hi, start + PRIME_WINDOW - 1))


@cache
def _least_factors() -> bytes:
    """least[n] for n <= SMALL_PRIME_LIMIT: the least prime factor of a
    composite n, 0 for a prime (and for 0 and 1).  Each q <= isqrt(LIMIT)
    marks its multiples from q^2 on, the largest q first, so the least
    factor is written last."""
    least = bytearray(SMALL_PRIME_LIMIT + 1)
    primes = small_primes()
    for q in reversed(primes[: bisect(primes, isqrt(SMALL_PRIME_LIMIT))]):
        least[q * q :: q] = bytes([q]) * ((SMALL_PRIME_LIMIT - q * q) // q + 1)
    return bytes(least)


def iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0 and k >= 1, exactly.

    A root below 2^40 comes from a float log2 estimate, within a unit or
    two there, that is fixed up against exact powers.  A larger
    root starts from the root of n's leading bits, rounded up, and runs
    integer Newton steps down to the floor; that start is accurate to
    about 30 bits, so few steps are needed even at large k.
    """
    if k < 1 or n < 0:
        raise ValueError(f"need n >= 0 and k >= 1, got n={n}, k={k}")
    if k == 1 or n < 2:
        return n
    bits = n.bit_length()
    if k >= bits:
        return 1  # n < 2^bits <= 2^k
    if bits <= 40 * k:
        x = int(2.0 ** (log2(n) / k))
        while x**k > n:
            x -= 1
        while (x + 1) ** k <= n:
            x += 1
        return x
    s = bits // k - 30
    # ((r + 1) 2^s)^k > n for r the root of n's top bits: a start above the root
    x = (iroot(n >> (k * s), k) + 1) << s
    while True:
        nxt = ((k - 1) * x + n // x ** (k - 1)) // k
        if nxt >= x:
            return x
        x = nxt


def prime_factors_desc(n: int) -> list[int]:
    """Prime factors of n >= 1 with multiplicity, largest first.

    Trial division by the cached `small_primes`, then by the odd d above
    SMALL_PRIME_LIMIT, until d^2 passes what is left of n.
    """
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    out = []
    for q in small_primes():
        if q * q > n:
            break
        while n % q == 0:
            out.append(q)
            n //= q
    else:
        d = SMALL_PRIME_LIMIT + 1  # odd: the limit is 2^12
        while d * d <= n:
            while n % d == 0:
                out.append(d)
                n //= d
            d += 2
    if n > 1:
        out.append(n)
    out.reverse()
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending, from its factorization."""
    divs = [1]
    for q, run in groupby(prime_factors_desc(n)):
        powers = [q**e for e in range(len(list(run)) + 1)]
        divs = [d * qe for d in divs for qe in powers]
    return sorted(divs)


def least_primitive_root(p: int) -> int:
    """Least positive integer of multiplicative order p-1 mod p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    order = p - 1
    order_factors = set(prime_factors_desc(order))
    for g in range(1, p):
        if all(pow(g, order // q, p) != 1 for q in order_factors):
            return g
    raise AssertionError("unreachable: every prime has a primitive root")


# Baby steps per isqrt(p-1) in a SparseIndex's table.  A spectrum row
# looks up about 17 prime logs (composites split), and building a baby
# step costs about what a giant step does, so the best B is near
# sqrt(17 (p-1) / 2), about 3 isqrt(p-1).  Baby plus giant steps per row,
# at 2/3/4/8: 685/643/678/1004 over the primes of [3, 30000] and
# 7854/6908/6935/9476 over [10^6, 1003000].
BABY_STEPS_PER_ROOT = 3


class SparseIndex(dict):
    """Discrete logs to base g mod p, found one residue at a time and kept.

    `ind[r]` for r in [1, p-1] is the least a >= 0 with g^a = r (mod p);
    ind(1) = 0 is known from the start.  A miss on a composite
    r <= SMALL_PRIME_LIMIT splits on its least prime factor q, read from
    one table, as ind(q) + ind(r/q) mod p-1, both looked up (and kept) in
    turn, so the log of a small integer costs only those of its prime
    factors.  Any other miss runs baby-step giant-step (Shanks 1971)
    against one table of
    B = min(p-1, BABY_STEPS_PER_ROOT isqrt(p-1)) baby steps g^j -> j,
    built on the first such miss and shared by every later one; a giant
    step multiplies by g^-B, so a miss costs at most (p-1)/B of them.
    Hits are plain dict lookups.
    """

    __slots__ = ("p", "g", "_least", "_baby", "_giant")

    def __init__(self, p: int, g: int) -> None:
        super().__init__({1: 0})
        self.p, self.g = p, g
        self._least = _least_factors()
        self._baby: dict[int, int] | None = None

    def _build_baby_steps(self) -> None:
        p, g, m = self.p, self.g, self.p - 1
        baby, cur = {}, 1
        for j in range(min(m, BABY_STEPS_PER_ROOT * isqrt(m))):
            baby[cur] = j
            cur = cur * g % p
        self._baby, self._giant = baby, pow(cur, -1, p)

    def __missing__(self, r: int) -> int:
        if not 0 < r < self.p:
            raise IndexError(f"residue {r} outside [1, {self.p - 1}]")
        q = self._least[r] if r <= SMALL_PRIME_LIMIT else 0
        a = (self[q] + self[r // q]) % (self.p - 1) if q else self._shanks(r)
        self[r] = a
        return a

    def _shanks(self, r: int) -> int:
        """ind(r) by baby-step giant-step, not kept."""
        if self._baby is None:
            self._build_baby_steps()
        baby, giant, p = self._baby, self._giant, self.p
        x = r
        for base in range(0, p - 1, len(baby)):
            j = baby.get(x)
            if j is not None:
                return base + j
            x = x * giant % p
        raise AssertionError("unreachable: g is a primitive root")


class PrimeContext:
    """Multiplicative-group data for a prime p, g its least primitive root.

    Two views of the same discrete logs, each made on first use:

    - `ind[r]` (a `SparseIndex`) answers single residues, splitting a
      small composite on its least prime factor and running baby-step
      giant-step on the rest,
      at O(sqrt p) set-up and no O(p) table;
    - `table` is the dense `array('i')` of every log (`table[0] = -1`),
      for consumers that sweep all residues.

    Both give the same value for every r in [1, p-1].  A context refuses
    assignment; `cached_property` fills its `__dict__` directly.
    """

    def __init__(self, p: int, g: int) -> None:
        self.__dict__.update(p=p, g=g, order=p - 1)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"PrimeContext is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    @cached_property
    def full_mask(self) -> int:
        """All p-1 bits set: the coverage bitset of the whole group."""
        return (1 << self.order) - 1

    @cached_property
    def ind(self) -> SparseIndex:
        return SparseIndex(self.p, self.g)

    @cached_property
    def table(self) -> array:
        """ind(r) for every residue r, by one walk over the powers of g."""
        table = array("i", [-1]) * self.p
        cur = 1
        for a in range(self.order):
            table[cur] = a
            cur = cur * self.g % self.p
        return table


def build_context(p: int) -> PrimeContext:
    """Context for p with the least primitive root as base.

    Supports p up to MAX_TABLE_PRIME = 2^24, the dense table's cap.
    """
    if p > MAX_TABLE_PRIME and is_prime(p):
        raise ValueError(f"p={p} exceeds table limit {MAX_TABLE_PRIME}")
    return PrimeContext(p=p, g=least_primitive_root(p))


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, 1} for an odd prime p."""
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p={p} must be an odd prime")
    t = pow(a % p, (p - 1) // 2, p)
    if t == p - 1:
        return -1
    return t  # 0 or 1


def least_nonresidue(p: int) -> int:
    """Least n >= 2 that is a quadratic nonresidue mod p (always prime)."""
    for n in range(2, p):
        if legendre(n, p) == -1:
            return n
    raise AssertionError(f"no nonresidue below p={p}; p is not an odd prime")


def group_generation_bound(ctx: PrimeContext) -> int:
    """Least G such that {1..G} generates the full multiplicative group.

    Equivalently the least G with gcd(p-1, ind(2), ..., ind(G)) = 1.
    """
    if ctx.order == 1:
        return 1
    acc = ctx.order
    ind = ctx.ind
    for n in range(2, ctx.p):
        acc = gcd(acc, ind[n])
        if acc == 1:
            return n
    raise AssertionError("unreachable: the primitive root has index 1")
