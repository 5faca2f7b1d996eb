import math
import random
from fractions import Fraction

import pytest

from subproducts.cli import _kway_witness, _random_kway_instance, _random_ranged_instance
from subproducts.friable import (
    BoundViolatedError,
    HypothesisViolatedError,
    InternalContradictionError,
    NotFriableError,
    RangeViolationError,
    FactorizationResult,
    greedy_k_factorization,
    kway_feasible,
    largest_prime_factor,
    largest_prime_factor_sieve,
    psi_asymptotic,
    psi_exact,
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


def test_prime_factors_desc():
    assert prime_factors_desc(60) == [5, 3, 2, 2]
    assert prime_factors_desc(1) == []
    assert prime_factors_desc(97) == [97]


def test_lpf_sieve_matches_direct():
    lpf = largest_prime_factor_sieve(500)
    for n in range(1, 501):
        assert lpf[n] == largest_prime_factor(n)


def test_psi_exact_examples():
    assert psi_exact(8, 2) == 4  # {1, 2, 4, 8}
    assert psi_exact(9, 3) == 7  # {1, 2, 3, 4, 6, 8, 9}
    assert psi_exact(123, 123) == 123
    assert psi_exact(123, 200) == 123


def test_psi_monotone():
    for t in (50, 80):
        assert psi_exact(t, 10) <= psi_exact(t + 5, 10)
        assert psi_exact(t, 10) <= psi_exact(t, 11)


def test_psi_asymptotic_examples():
    assert psi_asymptotic(100, 100) == pytest.approx(100)
    assert psi_asymptotic(10_000, 100) == pytest.approx(10_000 * (1 - math.log(2)))
    assert psi_asymptotic(1000, 100) == pytest.approx(1000 * (1 - math.log(1.5)))
    with pytest.raises(RangeViolationError):
        psi_asymptotic(99, 100)
    with pytest.raises(RangeViolationError):
        psi_asymptotic(10_001, 100)


# --- greedy k-way factorization ----------------------------------------------


def test_greedy_examples():
    res = greedy_k_factorization(30, 10, 2)
    assert res.factors == (10, 3)  # 5 -> b1; 3 -> b2 (15 > 10); 2 -> b1
    assert res.mode == "KWAY" and res.in_hypothesis

    res = greedy_k_factorization(1, 10, 3)
    assert res.factors == (1, 1, 1)

    with pytest.raises(BoundViolatedError):
        greedy_k_factorization(125, 10, 2)  # 125^2 > 10^3
    assert not kway_feasible(125, 10, 2)


def test_greedy_rejects_nonfriable():
    with pytest.raises(NotFriableError):
        greedy_k_factorization(22, 10, 3)


def test_greedy_best_effort_flagged():
    # out of hypothesis but greedy still finds a split
    res = greedy_k_factorization(7 * 8, 8, 2, best_effort=True)
    assert not res.in_hypothesis
    assert sorted(res.factors) == [7, 8]
    with pytest.raises(BoundViolatedError):
        greedy_k_factorization(125, 10, 2, best_effort=True)


def test_greedy_random_harness():
    rng = random.Random(17)
    for _ in range(2000):
        n, y, k = _random_kway_instance(rng)
        res = greedy_k_factorization(n, y, k)
        assert len(res.factors) == k
        assert all(1 <= f <= y for f in res.factors)
        prod = 1
        for f in res.factors:
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


def check_ranged_invariants(res, n, y, k, eps):
    a, b = eps.numerator, eps.denominator
    ell = len(res.factors)
    assert 2 * ell > k and ell <= k
    prod = 1
    for f in res.factors:
        assert f <= y and f**b > y**a
        prod *= f
    assert prod == n


def test_ranged_example_trace():
    # greedy 4-way against 10^0.81 gives (5, 6, 2, 1); merging 1*2 = 2
    res = ranged_factorization(60, 10, 3, Fraction(19, 100))
    assert res.factors == (5, 6, 2)
    check_ranged_invariants(res, 60, 10, 3, Fraction(19, 100))


def test_ranged_primes_already_fit():
    # all prime factors inside (y^eps, y] and count in (k/2, k]
    res = ranged_factorization(7 * 9, 10, 3, Fraction(19, 100))
    check_ranged_invariants(res, 63, 10, 3, Fraction(19, 100))


def test_ranged_merged_factor_needs_pairing():
    # greedy leaves (41, 41, 2, 1); the merged factor 2 falls at or below
    # y^eps and must be paired with a partner <= y^(1-eps)
    res = ranged_factorization(2 * 41 * 41, 100, 3, Fraction(19, 100))
    assert res.factors == (82, 41)
    check_ranged_invariants(res, 3362, 100, 3, Fraction(19, 100))


def test_ranged_epsilon_validation():
    with pytest.raises(HypothesisViolatedError):
        ranged_factorization(60, 10, 3, Fraction(1, 5))  # needs < 1/(k+2)
    with pytest.raises(HypothesisViolatedError):
        ranged_factorization(60, 10, 3, Fraction(0))


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
    assert largest_prime_factor(n) <= 1000
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
        res = ranged_factorization(n, y, k, eps)
        check_ranged_invariants(res, n, y, k, eps)


def test_ranged_feasible_oracle_positive():
    assert ranged_feasible(60, 10, 3, Fraction(19, 100))
    assert ranged_feasible(3362, 100, 3, Fraction(19, 100))


# --- three-way corollary -----------------------------------------------------


def test_three_way_examples():
    res = three_way_factorization(60, 10, Fraction(19, 100))
    assert res.factors == (5, 6, 2)
    assert res.mode == "THREEWAY"

    res = three_way_factorization(61 * 61, 100, Fraction(1, 10))
    assert len(res.factors) == 3
    assert sorted(res.factors) == [1, 61, 61]

    with pytest.raises(HypothesisViolatedError):
        three_way_factorization(100 * 100, 100, Fraction(19, 100))  # n = y^2


def test_three_way_epsilon_cap():
    with pytest.raises(HypothesisViolatedError):
        three_way_factorization(60, 10, Fraction(21, 100))  # 0.21 > 1/5


def test_factorization_result_product_check():
    with pytest.raises(InternalContradictionError):
        FactorizationResult(
            n=30, factors=(5, 5), y=10, k=2, epsilon=None, mode="KWAY"
        )
