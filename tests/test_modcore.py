import random
from collections import Counter
from math import gcd, isqrt, prod

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.functions.combinatorial.numbers import legendre_symbol
from sympy.ntheory import discrete_log, primitive_root

from subproducts import modcore
from subproducts.modcore import (
    BABY_STEPS_PER_ROOT,
    MAX_TABLE_PRIME,
    PSI_3,
    PSI_13,
    SMALL_PRIME_LIMIT,
    SparseIndex,
    build_context,
    divisors,
    group_generation_bound,
    iroot,
    is_prime,
    iter_primes,
    least_nonresidue,
    least_primitive_root,
    legendre,
    prime_factors_desc,
    primes_between,
    primes_up_to,
    small_primes,
)
from subproducts.subsetprod import coverage_threshold, prime_coverage_threshold


def trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def multiplicative_order(n, p):
    v, k = n % p, 1
    while v != 1:
        v = v * n % p
        k += 1
    return k


def test_is_prime_examples():
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(1009)


def test_is_prime_matches_trial_division():
    for n in range(1, 2000):
        assert is_prime(n) == trial_division_prime(n), n


def test_is_prime_next_to_the_witness_square():
    # below 41^2 the trial divisions by 2..37 decide alone; 41^2 and 41 * 43
    # have no prime factor in 2..37 and go on to Miller-Rabin
    assert not is_prime(1680)
    assert not is_prime(1681)  # 41^2
    assert not is_prime(1763)  # 41 * 43
    assert not is_prime(1369)  # 37^2
    assert is_prime(1669) and is_prime(1693) and is_prime(1697)


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 - 1)


def strong_probable_prime(n, a):
    """Whether odd n > 2 passes one Miller-Rabin round to base a."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, r))


# psi_k -> k: the least odd composite that passes Miller-Rabin to each of
# the first k prime bases.  is_prime runs 3 bases below psi_3 and all 14
# from there up, so each psi_k above psi_3 is a hard case for the 14.
PSI = {
    2047: 1,
    1373653: 2,
    25326001: 3,
    3215031751: 4,
    2152302898747: 5,
    3474749660383: 6,
    341550071728321: 8,
    3825123056546413051: 11,
    318665857834031151167461: 12,
    3317044064679887385961981: 13,
}


@pytest.mark.parametrize("psi,k", PSI.items())
def test_is_prime_at_each_tier_boundary(psi, k):
    bases = list(sympy.primerange(2, 50))
    assert all(strong_probable_prime(psi, a) for a in bases[:k])
    assert not strong_probable_prime(psi, bases[k])
    assert not sympy.isprime(psi) and not is_prime(psi)


@pytest.mark.parametrize("psi", PSI)
def test_is_prime_matches_sympy_around_each_tier_boundary(psi):
    for n in range(psi - 1000, min(psi + 1000, PSI_13 + 1)):
        assert is_prime(n) == sympy.isprime(n), n


@settings(max_examples=300, deadline=None)
@given(h=st.integers(PSI_3 // 2, PSI_13 // 2))
def test_is_prime_matches_sympy_on_odd_n_in_the_14_base_range(h):
    n = 2 * h + 1
    assert is_prime(n) == sympy.isprime(n)
    q = sympy.nextprime(n)
    if q <= PSI_13:
        assert is_prime(q)


@settings(max_examples=300, deadline=None)
@given(a=st.integers(isqrt(PSI_3), isqrt(PSI_13) - 2**12), gap=st.integers(0, 2**10))
def test_is_prime_rejects_products_of_two_primes_near_the_root(a, gap):
    # composites with no small factor: both factors near sqrt(n)
    n = sympy.nextprime(a) * sympy.nextprime(a + gap)
    assume(PSI_3 <= n <= PSI_13)
    assert not is_prime(n)


def test_is_prime_refuses_above_its_deterministic_range():
    assert PSI_13 == max(PSI)
    for n in (PSI_13 + 1, PSI_13 + 2, 2**4423 - 1):
        with pytest.raises(ValueError, match="beyond the deterministic range"):
            is_prime(n)


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(13) == [2, 3, 5, 7, 11, 13]
    assert len(primes_up_to(10_000)) == 1229


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 48, 49, 50, 10_000])
def test_primes_up_to_matches_sympy(n):
    # small n reach the sieve's recursion base; 49 = 7^2 marks a base prime's square
    assert primes_up_to(n) == list(sympy.primerange(n + 1))


def test_primes_between_examples():
    assert primes_between(-10, 1) == []
    assert primes_between(2, 2) == [2]
    assert primes_between(0, 13) == [2, 3, 5, 7, 11, 13]
    assert primes_between(49, 49) == []  # 7^2
    assert primes_between(14, 13) == []
    window = primes_between(16_776_000, MAX_TABLE_PRIME)
    assert len(window) == 71 and window[-1] == 16_777_213
    assert window == list(sympy.primerange(16_776_000, MAX_TABLE_PRIME + 1))


prime_squares = st.integers(2, 3000).map(sympy.nextprime).map(lambda q: q * q)


@settings(max_examples=300, deadline=None)
@given(
    lo=st.one_of(
        st.integers(-5, 3),
        st.integers(0, 10**7),
        st.tuples(prime_squares, st.sampled_from((-1, 0, 1))).map(sum),
    ),
    width=st.integers(-2, 3000),
)
def test_primes_between_matches_sympy_primerange(lo, width):
    hi = lo + width
    assert primes_between(lo, hi) == list(sympy.primerange(lo, hi + 1))


@pytest.mark.parametrize("window", [1, 7, modcore.PRIME_WINDOW])
@pytest.mark.usefixtures("cold_prime_caches")
def test_iter_primes_is_primes_between_across_the_cache(monkeypatch, window):
    # the cached small primes end at 4093 < SMALL_PRIME_LIMIT = 4096, the
    # windows start at 4097, and 4099 is the first prime in them
    monkeypatch.setattr(modcore, "PRIME_WINDOW", window)
    bounds = (4093, 4096, 4097, 4099)
    ranges = [(lo, hi) for lo in bounds for hi in bounds]  # hi < lo included
    ranges += [(lo, hi) for lo in (-5, 0, 1, 2) for hi in (-1, 1, 2, 3, 4093, 4099)]
    ranges += [(100, 50), (3, 2), (5000, 4500), (8999, 8998), (24, 28), (4000, 10007)]
    for lo, hi in ranges:
        assert list(iter_primes(lo, hi)) == primes_between(lo, hi), (lo, hi)


def test_build_context_examples():
    ctx = build_context(7)
    assert ctx.g == 3
    assert ctx.ind[2] == 2 and ctx.ind[6] == 3

    ctx = build_context(5)
    assert ctx.g == 2 and ctx.ind[4] == 2

    ctx = build_context(3)
    assert ctx.g == 2 and ctx.ind[2] == 1


def test_build_context_rejects():
    with pytest.raises(ValueError, match="^10 is not prime$"):
        build_context(10)
    # primality is decided before size: 2^24 + 1 = 97 * 257 * 673
    with pytest.raises(ValueError, match="^16777217 is not prime$"):
        build_context(2**24 + 1)
    with pytest.raises(ValueError, match="^p=2147483647 exceeds table limit 16777216$"):
        build_context(2**31 - 1)
    assert MAX_TABLE_PRIME >= 2**24


def test_context_index_table_invariants():
    for p in (2, 3, 5, 7, 101, 1009):
        ctx = build_context(p)
        seen = sorted(ctx.table[n] for n in range(1, p))
        assert seen == list(range(p - 1))
        assert [ctx.ind[n] for n in range(1, p)] == list(ctx.table[1:])
        assert ctx.ind[1] == 0
        if p > 2:
            assert ctx.ind[ctx.g] == 1


def test_index_respects_multiplication():
    rng = random.Random(7)
    for p in (101, 1009):
        ctx = build_context(p)
        m = p - 1
        for _ in range(10_000):
            u = rng.randint(1, p - 1)
            v = rng.randint(1, p - 1)
            assert ctx.ind[u * v % p] == (ctx.ind[u] + ctx.ind[v]) % m


def test_legendre_examples():
    assert legendre(2, 7) == 1  # 3^2 = 9 = 2 mod 7
    assert legendre(5, 5) == 0
    assert legendre(2, 5) == -1  # squares mod 5 are {1, 4}


def test_legendre_euler_criterion_and_index_parity():
    for p in (11, 101, 311):
        ctx = build_context(p)
        for a in range(1, p):
            sym = legendre(a, p)
            # independent route: is a a square?
            squares = {v * v % p for v in range(1, p)}
            assert sym == (1 if a in squares else -1)
            assert sym == (-1) ** ctx.ind[a]


def test_least_nonresidue_examples():
    assert least_nonresidue(5) == 2
    assert least_nonresidue(7) == 3
    # exhaustive Legendre scan as the oracle
    squares = {v * v % 23 for v in range(1, 23)}
    oracle = min(n for n in range(2, 23) if n not in squares)
    assert least_nonresidue(23) == oracle == 5


def test_least_nonresidue_is_prime():
    for p in primes_between(2, 2000):
        if p > 2:
            assert trial_division_prime(least_nonresidue(p))


def test_least_primitive_root_examples():
    assert least_primitive_root(5) == 2
    assert least_primitive_root(7) == 3
    assert least_primitive_root(3) == 2
    assert least_primitive_root(2) == 1


def test_least_primitive_root_order_oracle():
    for p in primes_between(2, 300):
        if p == 2:
            continue
        g = least_primitive_root(p)
        assert multiplicative_order(g, p) == p - 1
        for smaller in range(2, g):
            assert multiplicative_order(smaller, p) != p - 1


def test_group_generation_bound_examples():
    assert group_generation_bound(build_context(5)) == 2  # gcd(4, ind(2)=1) = 1
    assert group_generation_bound(build_context(7)) == 3
    assert group_generation_bound(build_context(3)) == 2


def test_group_generation_bound_definition():
    # least G with gcd(p-1, ind(2..G)) = 1, recomputed from scratch
    for p in (11, 43, 101, 331):
        ctx = build_context(p)
        big_g = group_generation_bound(ctx)
        acc = p - 1
        for n in range(2, big_g):
            acc = gcd(acc, ctx.ind[n])
            assert acc > 1
        assert gcd(acc, ctx.ind[big_g]) == 1


def test_spectrum_chain_small():
    for p in primes_between(2, 1000):
        if p < 3:
            continue
        ctx = build_context(p)
        n2 = least_nonresidue(p)
        big_g = group_generation_bound(ctx)
        assert n2 <= big_g <= ctx.g


# --- differential tests against sympy ----------------------------------------

odd_primes = st.integers(3, 10**6).map(sympy.nextprime)


@settings(max_examples=300, deadline=None)
@given(n=st.one_of(st.integers(-5, 10**6), st.integers(2, 2**63)))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


@settings(max_examples=200, deadline=None)
@given(p=odd_primes)
def test_least_primitive_root_matches_sympy(p):
    assert least_primitive_root(p) == primitive_root(p)


@settings(max_examples=60, deadline=None)
@given(p=st.integers(3, 20_000).map(sympy.nextprime), data=st.data())
def test_index_matches_sympy_discrete_log(p, data):
    ctx = build_context(p)
    n = data.draw(st.integers(1, 10 * p).filter(lambda v: v % p))
    assert ctx.ind[n % ctx.p] == discrete_log(p, n % p, ctx.g)


@settings(max_examples=300, deadline=None)
@given(p=odd_primes, a=st.integers(-(10**9), 10**9))
def test_legendre_matches_sympy(p, a):
    assert legendre(a, p) == legendre_symbol(a, p)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 10**10))
def test_prime_factors_match_sympy_factorint(n):
    factors = prime_factors_desc(n)
    assert factors == sorted(factors, reverse=True)
    assert Counter(factors) == sympy.factorint(n)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 10**14))
@example(n=99_991 * 99_989 * 9_973)  # three primes, two of them past the seam
def test_prime_factors_match_sympy_factorint_to_10_14(n):
    assert Counter(prime_factors_desc(n)) == sympy.factorint(n)


# where trial division leaves the cached small primes (the largest is 4093)
# for the odd d above SMALL_PRIME_LIMIT (4097 = 17 * 241, then 4099)
@pytest.mark.parametrize("n,factors", [
    (4093**2, [4093, 4093]),
    (4093 * 4099, [4099, 4093]),
    (4099**2, [4099, 4099]),
    (4097, [241, 17]),
    (2**40, [2] * 40),
    (1, []),
    (2, [2]),
    (3, [3]),
])
def test_prime_factors_at_the_small_prime_seam(n, factors):
    assert small_primes()[-1] == 4093 < SMALL_PRIME_LIMIT
    assert prime_factors_desc(n) == factors
    assert Counter(factors) == sympy.factorint(n)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 10**8))
def test_divisors_match_sympy(n):
    assert divisors(n) == sympy.divisors(n)


def test_factorizer_rejects_nonpositive():
    for n in (0, -6):
        with pytest.raises(ValueError):
            prime_factors_desc(n)
        with pytest.raises(ValueError):
            divisors(n)


# --- the sparse index against the dense table and sympy ----------------------


def next_safe_prime(v):
    """Least prime p = 2q + 1 with q >= v prime: baby-step giant-step's worst
    case, since p - 1 has no small factors to shorten the search."""
    q = sympy.nextprime(v)
    while not sympy.isprime(2 * q + 1):
        q = sympy.nextprime(q)
    return 2 * q + 1


@settings(max_examples=25, deadline=None)
@given(
    p=st.one_of(odd_primes, st.integers(2, 5 * 10**5).map(next_safe_prime)),
    data=st.data(),
)
def test_sparse_index_matches_table_and_sympy(p, data):
    ctx = build_context(p)
    g = primitive_root(p)
    assert ctx.g == g
    residues = data.draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=20))
    for r in [1, g, p - 1, *residues]:
        assert ctx.ind[r] == ctx.table[r] == discrete_log(p, r, g)


@pytest.mark.parametrize("p", [101, 1009, 65537])
def test_split_index_matches_table_and_sympy_at_every_residue(p):
    ctx = build_context(p)
    table = ctx.table
    for r in range(1, p):
        assert ctx.ind[r] == table[r], r
    # sympy at every residue of 65537 takes several seconds: there it
    # checks every r below 2000 (where splits chain deepest) and a stride
    step = 1 if p < 2000 else 61
    for r in [*range(1, min(p, 2000)), *range(2000, p, step)]:
        assert table[r] == discrete_log(p, r, ctx.g), r


witness_products = st.lists(
    st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)), max_size=12
).map(prod)


@settings(max_examples=40, deadline=None)
@given(p=odd_primes, data=st.data())
def test_split_index_matches_sympy(p, data):
    ctx = build_context(p)
    cofactors = st.one_of(st.just(1), st.integers(1, 2000), st.integers(1, p - 1))
    draws = data.draw(st.lists(st.tuples(witness_products, cofactors), min_size=1, max_size=10))
    residues = [s * c for s, c in draws if s * c < p]
    for r in [1, 2, p - 1, *residues]:
        assert ctx.ind[r] == discrete_log(p, r, ctx.g), r


def test_small_prime_data_matches_sympy():
    assert small_primes() == tuple(sympy.primerange(2, SMALL_PRIME_LIMIT + 1))
    least = modcore._least_factors()
    assert len(least) == SMALL_PRIME_LIMIT + 1 and least[:2] == bytes(2)
    for n in range(2, SMALL_PRIME_LIMIT + 1):
        assert least[n] == (0 if sympy.isprime(n) else min(sympy.primefactors(n))), n


def test_only_primes_reach_baby_step_giant_step(monkeypatch):
    seen = []
    shanks = SparseIndex._shanks

    def recording(self, r):
        seen.append(r)
        return shanks(self, r)

    monkeypatch.setattr(SparseIndex, "_shanks", recording)
    for p in (999_983, 1_000_003):
        for statistic in (coverage_threshold, prime_coverage_threshold,
                          group_generation_bound):
            ctx = build_context(p)
            statistic(ctx)
            assert "table" not in ctx.__dict__
    assert seen and all(sympy.isprime(r) for r in seen), seen


@pytest.mark.parametrize("p", [3, 5, 11, 101, 65537, 999_983])
def test_baby_table_size(p):
    ctx = build_context(p)
    m = p - 1
    ctx.ind[sympy.prevprime(p)]  # a prime residue: no split, so a baby-step search
    assert len(ctx.ind._baby) == min(m, BABY_STEPS_PER_ROOT * isqrt(m))


def test_divisors_of_any_grouping_of_factors():
    # no prime factor, three runs of repeated primes, one repeated prime
    assert divisors(1) == [1]
    assert divisors(7 * 5**2 * 2**3) == sympy.divisors(7 * 25 * 8)
    assert divisors(2 * 3**2) == [1, 2, 3, 6, 9, 18]


def test_sparse_index_at_the_table_cap_builds_no_table():
    p = 16_777_213  # the largest prime below 2^24
    assert p == sympy.prevprime(MAX_TABLE_PRIME)
    ctx = build_context(p)
    for r in (2, 3, 10**6 + 3, p - 1, p - 2):
        a = ctx.ind[r]
        assert 0 <= a < p - 1 and pow(ctx.g, a, p) == r
        assert a == discrete_log(p, r, ctx.g)
    assert "table" not in ctx.__dict__


def test_sparse_index_rejects_residues_outside_the_group():
    ctx = build_context(101)
    for r in (0, 101, -1):
        with pytest.raises(IndexError):
            ctx.ind[r]
    assert ctx.table[0] == -1


def test_thresholds_read_only_the_sparse_index():
    for p in (101, 1009, 29_989):
        for statistic in (group_generation_bound, coverage_threshold,
                          prime_coverage_threshold):
            ctx = build_context(p)
            statistic(ctx)
            assert "table" not in ctx.__dict__
            assert len(ctx.ind) < 100  # only the residues the statistic read


# roots straddling 2^40 (the float estimate's limit) and 2^53 (a double's
# mantissa), with powers at, just below and just above an exact k-th power
big_roots = st.one_of(
    st.integers(0, 2**20),
    st.integers(2**39, 2**41),
    st.integers(2**52, 2**54),
    st.integers(2**54, 2**300),
)


@settings(max_examples=300, deadline=None)
@given(r=big_roots, k=st.integers(1, 40), offset=st.sampled_from((-1, 0, 1)))
def test_iroot_at_and_next_to_exact_powers(r, k, offset):
    n = max(0, r**k + offset)
    assert iroot(n, k) == sympy.integer_nthroot(n, k)[0]


@settings(max_examples=300, deadline=None)
@given(n=st.one_of(st.integers(0, 10**6), st.integers(0, 2**4000)), k=st.integers(1, 200))
@example(n=15700**9834, k=10**4)
@example(n=2**106 - 1, k=2)
@example(n=2**106, k=2)
@example(n=(2**53 + 1) ** 2 - 1, k=2)
def test_iroot_matches_sympy(n, k):
    assert iroot(n, k) == sympy.integer_nthroot(n, k)[0]


def test_iroot_examples_and_domain():
    assert [iroot(n, 2) for n in range(10)] == [0, 1, 1, 1, 2, 2, 2, 2, 2, 3]
    assert iroot(10**30, 1) == 10**30
    assert iroot(2**10_000, 10_001) == 1
    assert iroot(15700**9834, 10**4) == 13373
    for bad in ((-1, 2), (5, 0), (5, -3)):
        with pytest.raises(ValueError):
            iroot(*bad)


def test_full_mask_is_the_whole_group():
    for p in (2, 3, 101):
        ctx = build_context(p)
        assert ctx.full_mask == (1 << (p - 1)) - 1
        assert ctx.full_mask is ctx.full_mask  # made once per context
