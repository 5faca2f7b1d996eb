import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subproducts.checks import _kway_witness
from subproducts.friable import (
    BoundViolatedError,
    HypothesisViolatedError,
    InternalContradictionError,
    _random_kway_instance,
    _random_ranged_instance,
    greedy_k_factorization,
    kway_feasible,
    largest_prime_factor,
    psi_asymptotic,
    psi_exact,
    ranged_bounds,
    ranged_factorization,
    ranged_feasible,
    three_way_factorization,
)
from subproducts.modcore import prime_factors_desc


def test_largest_prime_factor_examples():
    assert largest_prime_factor(1) == 1
    assert largest_prime_factor(60) == 5
    assert largest_prime_factor(97) == 97
    assert largest_prime_factor(2**10) == 2


def test_lpf_sieve_matches_trial_division_and_sympy():
    # trial division agrees with sympy, and the windowed prime sieve behind
    # psi_exact counts the same y-friable n <= 5000 as trial division does
    lpf = [0] + [max(prime_factors_desc(n), default=1) for n in range(1, 5001)]
    for n in range(1, 5001):
        assert lpf[n] == max(sympy.factorint(n), default=1)
    ts = [1, 2, 97, 1000, 4999, 5000]
    for y in (2, 3, 10, 71, 5000):
        assert psi_exact(ts, y) == [sum(1 for n in range(1, t + 1) if lpf[n] <= y) for t in ts]


def test_prime_factors_desc():
    assert prime_factors_desc(60) == [5, 3, 2, 2]
    assert prime_factors_desc(1) == []
    assert prime_factors_desc(97) == [97]


def brute_psi(t, y):
    return sum(1 for n in range(1, t + 1) if max(prime_factors_desc(n), default=1) <= y)


@settings(max_examples=60, deadline=None)
@given(ts=st.lists(st.integers(1, 600), max_size=12), y=st.integers(1, 40))
@example(ts=[1], y=1)
@example(ts=[5, 1, 5, 3], y=7)  # every t <= y: no sieve needed
@example(ts=[300, 7, 300, 1, 41, 2], y=6)  # unsorted, repeated, t <= y and t = 1
def test_psi_prefixes_match_brute_count(ts, y):
    assert psi_exact(ts, y) == [brute_psi(t, y) for t in ts]
    assert [psi_exact([t], y)[0] for t in ts] == psi_exact(ts, y)


def test_psi_prefixes_domain():
    assert psi_exact([], 5) == []
    for ts, y in (([3, 0], 5), ([3], 0), ([-1], 5)):
        with pytest.raises(ValueError):
            psi_exact(ts, y)
    with pytest.raises(ValueError):
        psi_exact([0], 5)


def test_psi_prefixes_sieve_once(monkeypatch):
    import subproducts.friable as friable

    windows = []
    sieve = friable.primes_between
    monkeypatch.setattr(
        friable, "primes_between", lambda lo, hi: windows.append((lo, hi)) or sieve(lo, hi)
    )
    assert psi_exact([90, 10, 50, 90], 3) == [brute_psi(t, 3) for t in (90, 10, 50, 90)]
    assert windows == [(4, 90)]  # the primes of (y, max ts] only
    assert psi_exact([4, 2], 5) == [4, 2]  # every t <= y: no sieve
    assert windows == [(4, 90)]


def test_psi_exact_examples():
    assert psi_exact([8], 2) == [4]  # {1, 2, 4, 8}
    assert psi_exact([9], 3) == [7]  # {1, 2, 3, 4, 6, 8, 9}
    assert psi_exact([123], 123) == [123]
    assert psi_exact([123], 200) == [123]


def test_psi_monotone():
    for t in (50, 80):
        assert psi_exact([t], 10) <= psi_exact([t + 5], 10)
        assert psi_exact([t], 10) <= psi_exact([t], 11)


def test_psi_asymptotic_examples():
    assert psi_asymptotic(100, 100) == pytest.approx(100)
    assert psi_asymptotic(10_000, 100) == pytest.approx(10_000 * (1 - math.log(2)))
    assert psi_asymptotic(1000, 100) == pytest.approx(1000 * (1 - math.log(1.5)))
    with pytest.raises(ValueError, match=r"^need y <= t <= y\^2, got t=99, y=100$"):
        psi_asymptotic(99, 100)
    with pytest.raises(ValueError, match=r"^need y <= t <= y\^2, got t=10001, y=100$"):
        psi_asymptotic(10_001, 100)


# --- greedy k-way factorization ----------------------------------------------


def test_greedy_examples():
    # 5 -> b1; 3 -> b2 (15 > 10); 2 -> b1
    assert greedy_k_factorization(30, 10, 2) == (10, 3)
    assert greedy_k_factorization(1, 10, 3) == (1, 1, 1)

    with pytest.raises(BoundViolatedError):
        greedy_k_factorization(125, 10, 2)  # 125^2 > 10^3
    assert not kway_feasible(125, 10, 2)


def test_greedy_rejects_nonfriable():
    with pytest.raises(ValueError, match="^n=22 has a prime factor above y=10$"):
        greedy_k_factorization(22, 10, 3)


def test_greedy_random_harness():
    rng = random.Random(17)
    for _ in range(2000):
        n, y, k = _random_kway_instance(rng)
        factors = greedy_k_factorization(n, y, k)
        assert len(factors) == k
        assert all(1 <= f <= y for f in factors)
        prod = 1
        for f in factors:
            prod *= f
        assert prod == n


def test_kway_sharpness_witness():
    # least prime q > sqrt(y), repeated k+1 times: y-friable, over the
    # bound, and no k-way split exists since q^2 > y
    for y in (10, 30, 100):
        for k in (1, 2, 3):
            witness = _kway_witness(y, k)
            assert witness * witness > y ** (k + 1)
            with pytest.raises(BoundViolatedError):
                greedy_k_factorization(witness, y, k)
            assert not kway_feasible(witness, y, k)


def test_kway_feasible_positive_cases():
    assert kway_feasible(30, 10, 2)
    assert kway_feasible(1, 10, 3)
    assert kway_feasible(100, 10, 2)
    assert not kway_feasible(101, 10, 2)  # prime above y


# --- ranged factorization ----------------------------------------------------


def check_ranged_invariants(factors, n, y, k, eps):
    a, b = eps.numerator, eps.denominator
    ell = len(factors)
    assert 2 * ell > k and ell <= k
    prod = 1
    for f in factors:
        assert f <= y and f**b > y**a
        prod *= f
    assert prod == n


def test_ranged_example_trace():
    # greedy 4-way against 10^0.81 gives (5, 6, 2, 1); merging 1*2 = 2
    factors = ranged_factorization(60, 10, 3, Fraction(19, 100))
    assert factors == (5, 6, 2)
    check_ranged_invariants(factors, 60, 10, 3, Fraction(19, 100))


def test_ranged_primes_already_fit():
    # all prime factors inside (y^eps, y] and count in (k/2, k]
    factors = ranged_factorization(7 * 9, 10, 3, Fraction(19, 100))
    check_ranged_invariants(factors, 63, 10, 3, Fraction(19, 100))


def test_ranged_merged_factor_needs_pairing():
    # greedy leaves (41, 41, 2, 1); the merged factor 2 falls at or below
    # y^eps and must be paired with a partner <= y^(1-eps)
    factors = ranged_factorization(2 * 41 * 41, 100, 3, Fraction(19, 100))
    assert factors == (82, 41)
    check_ranged_invariants(factors, 3362, 100, 3, Fraction(19, 100))


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(2, 12),
    b=st.integers(2, 6),
    offset=st.sampled_from([-1, 0, 1]),
    k=st.integers(1, 4),
    data=st.data(),
)
def test_ranged_bounds_agree_with_power_comparisons(x, b, offset, k, data):
    # y = x^b +- 1: the b-th roots of powers of y are exact or next to exact
    y = max(2, x**b + offset)
    a = data.draw(st.integers(1, b - 1))
    lower, upper, work, small = ranged_bounds(y, k, a, b)
    assert upper == y ** (k + 1)
    # each root r of N = y^e' decides v^e <= N as v <= r, at and next to r
    for r, n, e in ((lower, y ** (k * b + 2 * a), 2 * b), (work, y ** (b - a), b),
                    (small, y**a, b)):
        for v in (r - 1, r, r + 1):
            assert (v**e <= n) == (v <= r)


def test_ranged_bounds_examples():
    # eps = 1/2 at y = 16: y^eps = 4 and y^(1 + eps) = 64 exactly
    assert ranged_bounds(16, 2, 1, 2) == (64, 16**3, 4, 4)
    assert ranged_bounds(15, 2, 1, 2) == (58, 15**3, 3, 3)
    # 10^1.69 = 48.9, 10^0.81 = 6.5, 10^0.19 = 1.5
    assert ranged_bounds(10, 3, 19, 100) == (48, 10**4, 6, 1)


def test_ranged_epsilon_validation():
    with pytest.raises(HypothesisViolatedError):
        ranged_factorization(60, 10, 3, Fraction(1, 5))  # needs < 1/(k+2)
    with pytest.raises(HypothesisViolatedError):
        ranged_factorization(60, 10, 3, Fraction(0))


class NoPowers(int):
    """A y whose powers raise: an epsilon refused before any power is formed
    leaves it untouched, and a regression fails here instead of hanging."""

    def __pow__(self, other, mod=None):
        raise AssertionError(f"formed y^{other}")


@pytest.mark.parametrize("epsilon", [0.19, 0.1, "19/100", None])
def test_epsilon_must_be_an_int_or_a_fraction(epsilon):
    # Fraction(0.19) has denominator 2^54, so at k = 3 the lower bound would
    # form y^(3 * 2^54 + ...): refused with TypeError, as theorem_y refuses
    y = NoPowers(10)
    with pytest.raises(TypeError):
        ranged_factorization(60, y, 3, epsilon)
    with pytest.raises(TypeError):
        three_way_factorization(60, y, epsilon)
    with pytest.raises(TypeError):
        ranged_feasible(60, y, 3, epsilon)


def test_ranged_window_validation():
    eps = Fraction(19, 100)
    with pytest.raises(HypothesisViolatedError):
        ranged_factorization(48, 10, 3, eps)  # below y^(3/2+eps) ~ 48.98
    with pytest.raises(HypothesisViolatedError):
        ranged_factorization(100, 10, 3, eps)  # not below y^2


def test_ranged_large_prime_factor_unsupported():
    # a prime factor in (y^(1-eps), y] can make the conclusion unsatisfiable:
    # 2 * 503^2 sits in the window for y=1000, k=3 yet admits no valid split
    n = 2 * 503 * 503
    eps = Fraction(19, 100)
    assert max(prime_factors_desc(n), default=1) <= 1000
    with pytest.raises(HypothesisViolatedError):
        ranged_factorization(n, 1000, 3, eps)
    assert not ranged_feasible(n, 1000, 3, eps)


def test_ranged_sharpness_witness_family():
    # q * (product of k/2 primes in (y/2, y)) with 2^(k/2) < q < y^eps:
    # lands below the window's lower edge, and no valid split exists
    cases = [
        (100, 2, Fraction(24, 100), 3, (53,)),
        (15_700, 4, Fraction(1666, 10_000), 5, (7853, 7877)),
    ]
    for y, k, eps, q, halves in cases:
        a, b = eps.numerator, eps.denominator
        assert 2 ** (k // 2) < q and q**b < y**a
        n = q
        for h in halves:
            assert y / 2 < h < y
            n *= h
        with pytest.raises(HypothesisViolatedError):
            ranged_factorization(n, y, k, eps)
        assert not ranged_feasible(n, y, k, eps)


def test_ranged_random_harness():
    rng = random.Random(23)
    for _ in range(2000):
        n, y, k, eps = _random_ranged_instance(rng)
        factors = ranged_factorization(n, y, k, eps)
        check_ranged_invariants(factors, n, y, k, eps)


def test_ranged_feasible_oracle_positive():
    assert ranged_feasible(60, 10, 3, Fraction(19, 100))
    assert ranged_feasible(3362, 100, 3, Fraction(19, 100))


def some_multiset_multiplies_to(n, parts, sizes):
    return any(
        math.prod(c) == n
        for ell in sizes
        for c in combinations_with_replacement(parts, ell)
    )


SMOOTH_TO_3000 = [n for n in range(1, 3001) if max(sympy.factorint(n), default=1) <= 60]


@settings(max_examples=200, deadline=None)
@given(
    n=st.one_of(st.integers(1, 3000), st.sampled_from(SMOOTH_TO_3000)),
    y=st.integers(2, 60),
    k=st.integers(0, 4),
    num=st.integers(1, 20),
    extra=st.integers(1, 100),
)
@example(n=1, y=2, k=0, num=1, extra=1)
@example(n=1, y=60, k=4, num=1, extra=1)
@example(n=2520, y=60, k=4, num=1, extra=1)
@example(n=60, y=10, k=3, num=19, extra=5)
@example(n=3362 // 2, y=60, k=2, num=1, extra=4)
@example(n=2, y=16, k=1, num=1, extra=1)  # 2 = 16^(1/4) is not above y^eps
def test_oracles_match_multiset_brute_force(n, y, k, num, extra):
    # every multiset of divisors of n, listed by trial of each d <= y;
    # epsilon = num / (num (k+2) + extra) lies in (0, 1/(k+2))
    eps = Fraction(num, num * (k + 2) + extra)
    parts = [d for d in range(1, min(n, y) + 1) if n % d == 0]
    assert kway_feasible(n, y, k) == some_multiset_multiplies_to(n, parts, [k])
    a, b = eps.numerator, eps.denominator
    ranged_parts = [d for d in parts if d**b > y**a]
    sizes = range(k // 2 + 1, k + 1)
    assert ranged_feasible(n, y, k, eps) == some_multiset_multiplies_to(n, ranged_parts, sizes)


def factorization_batch(seed, draws=1500):
    """Seeded k-way, ranged and three-way calls, one line per call: the
    arguments, then the factors or the type and message of the error
    raised.  Each draw gives a free instance (often outside a hypothesis)
    and one from the ranged harness (inside them all)."""
    rng = random.Random(seed)
    primes = list(sympy.primerange(2, 300))
    lines = []
    for _ in range(draws):
        y = rng.randint(2, 250)
        k = rng.randint(1, 6)
        eps = Fraction(rng.randint(1, 40), rng.choice((100, 1000)))
        pool = [q for q in primes if q <= y + y // 8]  # some above y
        n = 1
        for _ in range(rng.randint(0, k + 2)):
            n *= rng.choice(pool)
        for n, y, k, eps in ((n, y, k, eps), _random_ranged_instance(rng)):
            for mode, call in (
                ("kway", lambda: greedy_k_factorization(n, y, k)),
                ("ranged", lambda: ranged_factorization(n, y, k, eps)),
                ("threeway", lambda: three_way_factorization(n, y, eps)),
            ):
                try:
                    out = call()
                except (ValueError, InternalContradictionError) as exc:
                    out = f"{type(exc).__name__}: {exc}"
                lines.append(f"{mode} {n} {y} {k} {eps} {out}")
    return lines


def test_factorization_batch_is_pinned():
    # 9000 calls: 2250 k-way, 1612 ranged and 324 three-way splits, the rest
    # refused.  The factors, and the errors up to one renamed type, are
    # those made before the kernels behind these calls (trial division,
    # the epsilon test) were last rewritten.
    lines = factorization_batch(19)
    assert len(lines) == 9000
    assert sum("Error: " not in line for line in lines) == 2250 + 1612 + 324
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "01d761d83956ac8348024e3d07872d49a0eae735927f0890f1f6cd2519c420c4"


# --- three-way corollary -----------------------------------------------------


def test_three_way_examples():
    assert three_way_factorization(60, 10, Fraction(19, 100)) == (5, 6, 2)
    factors = three_way_factorization(61 * 61, 100, Fraction(1, 10))
    assert len(factors) == 3
    assert sorted(factors) == [1, 61, 61]

    with pytest.raises(HypothesisViolatedError):
        three_way_factorization(100 * 100, 100, Fraction(19, 100))  # n = y^2


def test_three_way_epsilon_cap():
    with pytest.raises(HypothesisViolatedError):
        three_way_factorization(60, 10, Fraction(21, 100))  # 0.21 > 1/5


def test_factorization_result_product_check(monkeypatch):
    import subproducts.friable as friable

    # buckets that each fit under y but multiply to 25, not 30
    monkeypatch.setattr(friable, "_greedy_fill", lambda primes, buckets_n, bound: [5, 5])
    with pytest.raises(InternalContradictionError,
                       match=r"^factors \(5, 5\) do not multiply to 30$"):
        greedy_k_factorization(30, 10, 2)
