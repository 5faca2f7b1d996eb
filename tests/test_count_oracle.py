"""The exact subset-product counts against the paper's character-sum
identity, evaluated exactly:

    S_y(b) = (1/(p-1)) sum_chi conj(chi(b)) prod_{n<=y} (1 + chi(n)).

In F_l, for a prime l = 1 (mod p-1), a primitive (p-1)-th root of unity w
gives the characters chi_j(n) = w^(j ind(n)), so the identity is a
transform of length p - 1.  Each S_y(b) lies in [0, 2^y], so the residues
mod primes l below 2^61 whose product passes 2^(y+1) give it by CRT.  The
discrete logs come from sympy's primitive root and a plain walk over its
powers, so nothing of the program's index, its baby-step giant-step or
its dense table is read; and the counts come from the identity, not from
a second take-or-skip recurrence.

The two large cases stay out of tier-1 (several seconds each); run them as

    PYTHONPATH=src python tests/test_count_oracle.py
"""

import math
import time
from fractions import Fraction
from functools import cache
from operator import mul

import pytest
import sympy

from subproducts.checks import check_theorem_error
from subproducts.config import SweepConfig, theorem_ys
from subproducts.modcore import build_context
from subproducts.subsetprod import subset_product_counts, subset_product_prefixes

# (p, y_small, y_main) of the theorem check at the default y-rule
THEOREM_CASES = ((101, 4, 16), (211, 4, 25), (401, 5, 37), (1009, 6, 64))
LARGE_CASES = ((1009, 1008), (4099, 80))


def moduli(m, bits):
    """Primes l = 1 (mod m) below 2^61, largest first, until their product
    has more than bits bits."""
    out, product = [], 1
    for k in range((2**61 - 2) // m, 0, -1):
        if product.bit_length() > bits:
            return out
        if sympy.isprime(1 + k * m):
            out.append(1 + k * m)
            product *= 1 + k * m
    raise AssertionError(f"too few primes 1 mod {m} below 2^61")


def counts_mod(p, y, ind, l):
    """S_y(g^a) mod l for a = 0..p-2, by the identity in F_l."""
    m = p - 1
    qs = sympy.primefactors(m)
    for z in range(2, l):  # a primitive m-th root of unity w = z^((l-1)/m)
        w = pow(z, (l - 1) // m, l)
        if all(pow(w, m // q, l) != 1 for q in qs):
            break
    powers = [1] * m
    for k in range(1, m):
        powers[k] = powers[k - 1] * w % l
    prods = [1] * m  # prod_{n<=y} (1 + chi_j(n)) for every j
    for n in range(1, y + 1):
        prods = [v * (1 + powers[j * ind[n] % m]) % l for j, v in enumerate(prods)]
    # S(g^a) = (1/m) sum_j w^(-j a) prods[j]
    inverse = pow(m, -1, l)
    return [sum(map(mul, prods, [powers[-j * a % m] for j in range(m)])) * inverse % l
            for a in range(m)]


@cache
def character_sum_counts(p, y):
    """(S_y(0), ..., S_y(p-1)) for y < p from the identity: every residue
    mod each l of `moduli`, joined by CRT (Garner's steps).  No subset of
    1..y holds a multiple of p, so S_y(0) = 0."""
    assert 1 <= y < p
    m = p - 1
    g = sympy.primitive_root(p)
    ind, powers, r = [0] * p, [], 1
    for a in range(m):
        ind[r] = a
        powers.append(r)
        r = r * g % p
    value, modulus = [0] * m, 1
    for l in moduli(m, y + 1):
        step = pow(modulus, -1, l)
        value = [x + modulus * ((s - x) * step % l)
                 for x, s in zip(value, counts_mod(p, y, ind, l))]
        modulus *= l
    counts = [0] * p
    for a, s in enumerate(value):
        counts[powers[a]] = s
    return tuple(counts)


@pytest.mark.parametrize("p, y_small, y_main", THEOREM_CASES)
def test_fold_matches_the_character_sum_identity(p, y_small, y_main):
    folds = subset_product_prefixes(build_context(p), (y_small, y_main))
    assert [s.counts for s in folds] == [character_sum_counts(p, y) for y in (y_small, y_main)]


def correctly_rounded(x, exact):
    """Is the float x a nearest float to the rational exact?"""
    return all(abs(Fraction(x) - exact) <= abs(Fraction(math.nextafter(x, to)) - exact)
               for to in (-math.inf, math.inf))


def test_theorem_error_ratios_are_the_exact_quotients_correctly_rounded():
    # max_b |S_y(b) - 2^y/(p-1)| p^2 / 2^y, from counts the fold did not make
    y_rule = SweepConfig().y_rule
    assert [(p, y_small, y) for p, y, y_small in theorem_ys(y_rule, 1009)] == list(THEOREM_CASES)
    report, _ = check_theorem_error(y_rule, 1009)
    for p, y_small, y_main in THEOREM_CASES:
        metrics = report.metrics[str(p)]
        for y, key in ((y_small, "ratio_small"), (y_main, "ratio")):
            counts = character_sum_counts(p, y)
            deviation = max(abs(Fraction(s) - Fraction(1 << y, p - 1)) for s in counts[1:])
            assert correctly_rounded(metrics[key], deviation * p * p / (1 << y)), (p, y)


if __name__ == "__main__":
    for p, y in LARGE_CASES:
        start = time.perf_counter()
        agree = character_sum_counts(p, y) == subset_product_counts(p, y).counts
        print(f"p={p} y={y}: {'agree' if agree else 'DIFFER'} "
              f"({time.perf_counter() - start:.1f} s)")
        assert agree
