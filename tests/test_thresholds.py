"""The coverage thresholds against a residue walk that uses no discrete logs.

The oracle keeps the reached residues as a boolean array over Z/p:
consuming a unit n reaches b when b or b/n was reached, so one step is
reach |= reach[b * n^-1 mod p].  It needs no primitive root, no index
table and no `PrimeContext`; primes come from sympy.  The spectrum's other
statistics n2, g and G come from sympy's Legendre symbols, primitive roots
and multiplicative orders, again with no discrete log.
"""

from itertools import islice
from math import lcm

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subproducts.modcore import (
    build_context,
    group_generation_bound,
    least_nonresidue,
    primes_between,
)
from subproducts.subsetprod import (
    coverage_threshold,
    prime_coverage_threshold,
    progression_coverage_threshold,
)


def prefix_covers(p, terms):
    """For k = 0, 1, 2, ...: whether subset products of the first k terms
    reach every unit mod p.  Terms divisible by p are consumed as no-ops."""
    b = np.arange(p, dtype=np.int64)
    reach = np.zeros(p, dtype=bool)
    reach[1] = True  # the empty product
    yield bool(reach[1:].all())
    for n in terms:
        if n % p:
            reach |= reach[b * pow(n, -1, p) % p]
        yield bool(reach[1:].all())


def assert_least_cover(p, terms, y):
    """The first y terms cover and the first y - 1 do not; y = None means
    no prefix of the terms covers."""
    if y is None:
        assert not any(prefix_covers(p, terms))
        return
    covers = list(islice(prefix_covers(p, terms), y + 1))
    assert len(covers) == y + 1, "fewer than y terms"
    assert covers[y] and not covers[y - 1]


def sympy_chain(p):
    """(n2, g, G) mod p from sympy, with no discrete log.  In the cyclic
    group mod p, the lcm of the orders of 2..G is the order of the subgroup
    they generate, so G is the least G at which that lcm reaches p - 1."""
    n2 = next(n for n in range(2, p) if sympy.legendre_symbol(n, p) == -1)
    big_g, generated = 1, 1
    while generated != p - 1:
        big_g += 1
        generated = lcm(generated, sympy.n_order(big_g, p))
    return n2, sympy.primitive_root(p), big_g


def check_spectrum_chain(ctx, y):
    """n2 <= G <= min(g, y), with n2, g and G from sympy equal to the
    program's."""
    n2, g, big_g = sympy_chain(ctx.p)
    assert (n2, g, big_g) == (least_nonresidue(ctx.p), ctx.g, group_generation_bound(ctx))
    assert n2 <= big_g <= min(g, y)


def check_all_thresholds(p, a, d, y_max):
    ctx = build_context(p)
    y = coverage_threshold(ctx)
    assert_least_cover(p, range(1, p), y)
    check_spectrum_chain(ctx, y)
    # y' counts integers, the oracle primes: y' primes <= y' are consumed
    yp = prime_coverage_threshold(ctx)
    primes = list(sympy.primerange(2, p))
    assert_least_cover(p, primes, None if yp is None else sympy.primepi(yp))
    if yp is not None:
        assert sympy.isprime(yp)
    if d % p == 0 and a % p:
        with pytest.raises(ValueError, match=f"^difference {d} is a multiple of {p}$"):
            progression_coverage_threshold(ctx, a, d, y_max)
        return
    terms = [a + j * d for j in range(y_max)]
    assert_least_cover(p, terms, progression_coverage_threshold(ctx, a, d, y_max))


# y_max stays small so that a walk over a progression that never covers is cheap
@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(min_value=4, max_value=10**5).map(sympy.prevprime),
    a=st.integers(min_value=-10**6, max_value=10**6),
    d=st.integers(min_value=-10**6, max_value=10**6),
    y_max=st.integers(min_value=1, max_value=200),
)
@example(p=99991, a=1, d=1, y_max=200)
@example(p=99989, a=99989, d=2 * 99989, y_max=200)  # every term skipped
@example(p=99971, a=3, d=99971, y_max=5)  # a difference divisible by p
def test_thresholds_match_residue_walk(p, a, d, y_max):
    check_all_thresholds(p, a, d, y_max)


def test_thresholds_match_residue_walk_small_primes():
    # includes the primes with no prime-only cover (y' = None), such as 7
    for p in primes_between(3, 400):
        check_all_thresholds(p, 2, 3, 2 * p)
