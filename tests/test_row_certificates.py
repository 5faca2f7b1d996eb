"""Certificates for every row of the pinned `spectrum --pmax 30000` CSV,
checked with `pow` and sympy's factorization of p - 1 alone.

With m = p - 1 and q running over the primes of m, an n is a quadratic
residue when n^(m/2) = 1 (Euler's criterion), and a primitive root when
n^(m/q) != 1 for every q.  The integers 2..G generate a proper subgroup
exactly when some q has n^(m/q) = 1 for each of them; that q is the
witness that G - 1 is too small.

y' has no short certificate from above, but from below it has one: a
residue b that no subset product of the primes below y' reaches, so that
y' is at least the next prime.  b is read off the program's own coverage
mask, and the check lists the explicit subset products of the two halves
of those primes and confirms that no pair multiplies to b.  An empty y'
(no prime set below p covers) gets the same witness over every prime
below p.
"""

import csv
import io

import sympy

from subproducts import modcore, subsetprod

# each half of the primes below y' lists at most this many subset products
MAX_HALF_PRODUCTS = 1 << 12


def subset_products(p, ns):
    """The product mod p of every subset of ns, one entry per subset."""
    products = [1]
    for n in ns:
        products += [v * n % p for v in products]
    return products


def program_witness(p, primes):
    """A unit mod p that the program's coverage mask, after the subset
    products of primes, leaves unreached, or None if it reaches them all."""
    ctx = modcore.build_context(p)
    mask = 1
    for q in primes:
        mask |= subsetprod._rotate(mask, ctx.ind[q], ctx.order, ctx.full_mask)
    if mask == ctx.full_mask:
        return None
    return pow(ctx.g, ((mask + 1) & ~mask).bit_length() - 1, p)  # the lowest 0 bit


def certify_row(p, n2, g, G, y, yprime):
    """Check each value of a spectrum row by its certificate; True when
    the lower side of y' was checked too."""
    m = p - 1
    qs = list(sympy.factorint(m))

    def generates(n):
        return all(pow(n, m // q, p) != 1 for q in qs)

    assert pow(n2, m // 2, p) == m, "n2 is a residue"
    assert all(pow(n, m // 2, p) == 1 for n in range(2, n2)), "a nonresidue below n2"
    assert generates(g), "g is no primitive root"
    assert not any(generates(n) for n in range(1, g)), "a primitive root below g"
    assert all(any(pow(n, m // q, p) != 1 for n in range(2, G + 1)) for q in qs), \
        "2..G generate a proper subgroup"
    assert any(all(pow(n, m // q, p) == 1 for n in range(2, G)) for q in qs), \
        "2..G-1 generate the group"
    assert n2 <= G <= g and G <= y <= (p if yprime is None else yprime), "chain"
    assert yprime is None or sympy.isprime(yprime), "y' is not prime"
    below = list(sympy.primerange(2, p if yprime is None else yprime))
    half = len(below) // 2
    if 1 << (len(below) - half) > MAX_HALF_PRODUCTS:
        return False
    b = program_witness(p, below)
    assert b is not None, "the primes below y' cover"
    low = set(subset_products(p, below[:half]))
    # b x^-1 for x over the upper half's products: the products of the inverses
    inverses = [pow(q, -1, p) for q in below[half:]]
    assert all(b * v % p not in low for v in subset_products(p, inverses)), \
        f"{b} is a subset product of the primes below y'"
    return True


def test_every_pinned_spectrum_row_has_its_certificates(spectrum_csv):
    reader = csv.reader(io.StringIO(spectrum_csv.decode()))
    assert next(reader) == ["p", "n2", "g", "G", "y", "yprime"]
    rows = [tuple(int(v) if v else None for v in row) for row in reader]
    assert len(rows) == 3244
    # every y' in [3, 30000] is at most 67, so every row gets its lower side
    assert sum(certify_row(*row) for row in rows) == 3244
