import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subproducts.modcore import NotPrimeError, build_context, primes_up_to
from subproducts.subsetprod import (
    BadDifferenceError,
    NotCoprimeError,
    PrecisionRangeError,
    YOutOfRangeError,
    counts_via_characters,
    coverage_consume,
    counts_error_report,
    coverage_threshold,
    enumerate_subset_counts,
    error_report,
    initial_coverage,
    subset_product_counts,
    subset_product_prefixes,
    theorem_y,
    y_of_p,
    y_of_progression,
    y_prime_of_p,
)


def brute_reachable(p, elements):
    """Oracle: subset products by explicit enumeration of all subsets."""
    reached = set()
    elems = [e for e in elements if e % p != 0]
    for r in range(len(elems) + 1):
        for combo in combinations(elems, r):
            prod = 1
            for v in combo:
                prod = prod * v % p
            reached.add(prod)
    return reached


def residue_walk_counts(p, elements):
    """Oracle: take-or-skip over residues, one Python int per residue."""
    counts = [0] * p
    counts[1 % p] = 1
    for n in elements:
        new = list(counts)  # skip n ...
        for b, c in enumerate(counts):
            new[b * n % p] += c  # ... or take it
        counts = new
    return tuple(counts)


def reach(ctx, elements):
    """Coverage after consuming the elements in order."""
    state = initial_coverage(ctx)
    for n in elements:
        state = coverage_consume(state, n)
    return state


# --- coverage ---------------------------------------------------------------


def test_coverage_consume_examples():
    ctx5 = build_context(5)
    assert initial_coverage(ctx5).residues() == [1]
    assert reach(ctx5, [1]).residues() == [1]

    s = reach(ctx5, [2, 3])
    assert s.residues() == [1, 2, 3]
    assert coverage_consume(s, 4).residues() == [1, 2, 3, 4]

    ctx7 = build_context(7)
    s = reach(ctx7, [2, 3])
    assert s.residues() == [1, 2, 3, 6]
    assert coverage_consume(s, 4).residues() == [1, 2, 3, 4, 5, 6]
    # cross-check: exhaustive enumeration over subsets of {2,3,4}
    assert set(coverage_consume(s, 4).residues()) == brute_reachable(7, [2, 3, 4])


def test_coverage_rejects_multiples():
    ctx = build_context(5)
    with pytest.raises(NotCoprimeError):
        coverage_consume(initial_coverage(ctx), 10)
    with pytest.raises(NotCoprimeError):
        reach(ctx, [2, 3, -5])


def test_coverage_matches_brute_enumeration():
    for p in (5, 7, 11, 13):
        ctx = build_context(p)
        state = initial_coverage(ctx)
        for y in range(1, 13):
            if y % p != 0:  # callers skip multiples of p
                state = coverage_consume(state, y)
            assert set(state.residues()) == brute_reachable(p, range(1, y + 1))
            assert state.mask & 1  # the empty product


def test_coverage_monotone():
    ctx = build_context(101)
    state = initial_coverage(ctx)
    prev = set(state.residues())
    for n in range(1, 40):
        state = coverage_consume(state, n)
        cur = set(state.residues())
        assert prev <= cur
        prev = cur


def test_y_of_p_examples():
    assert y_of_p(2) == 1
    assert y_of_p(5) == 4
    assert y_of_p(7) == 4


def test_y_of_p_against_brute():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        expected = next(
            y
            for y in range(1, p)
            if brute_reachable(p, range(1, y + 1)) == set(range(1, p))
        )
        assert y_of_p(p) == expected


def test_y_prime_against_brute():
    for p in primes_up_to(31):
        expected = next(
            (
                y
                for y in range(1, p)
                if brute_reachable(p, primes_up_to(y)) == set(range(1, p))
            ),
            None,
        )
        assert y_prime_of_p(p) == expected


def test_y_prime_examples():
    assert y_prime_of_p(2) == 1
    assert y_prime_of_p(7) is None  # residue 4 unreachable from {2,3,5}
    # exhaustive oracle over subsets of the primes 2,3,5,7
    assert brute_reachable(11, [2, 3, 5, 7]) == set(range(1, 11))
    assert brute_reachable(11, [2, 3, 5]) != set(range(1, 11))
    assert y_prime_of_p(11) == 7


def test_y_prime_at_least_y():
    for p in primes_up_to(300):
        if p < 3:
            continue
        ctx = build_context(p)
        yp = None
        state = initial_coverage(ctx)
        primes = set(primes_up_to(p - 1))
        for v in range(1, p):
            if v in primes:
                state = coverage_consume(state, v)
            if state.covered:
                yp = v
                break
        assert y_prime_of_p(p) == yp
        if yp is not None:
            assert yp >= coverage_threshold(ctx)


def test_progression_examples():
    assert y_of_progression(5, 1, 1, 10) == 4  # agrees with y_of_p(5)
    assert y_of_progression(5, 5, 5, 10) is None  # every term skipped
    # mod 2 the only unit is 1, covered before any term: all-skipped still covers
    assert y_of_progression(2, 2, 1, 5) == 1
    assert y_of_progression(2, 2, 2, 1) == 1
    # a, d = 0 mod p decides at once however long the progression
    assert y_of_progression(7, 7, 7, 10**12) is None
    with pytest.raises(YOutOfRangeError):
        y_of_progression(7, 2, 3, 0)
    # direct simulation oracle for (p=7, a=2, d=3)
    expected = next(
        (
            y
            for y in range(1, 21)
            if brute_reachable(7, [2 + 3 * j for j in range(y)]) == set(range(1, 7))
        ),
        None,
    )
    assert y_of_progression(7, 2, 3, 20) == expected == 4


def test_progression_bad_difference():
    with pytest.raises(BadDifferenceError):
        y_of_progression(5, 1, 10, 8)


def test_progression_equals_y_of_p():
    for p in (5, 11, 31, 101):
        assert y_of_progression(p, 1, 1, p) == y_of_p(p)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(primes_up_to(13)),
    a=st.integers(min_value=-40, max_value=40),
    d=st.integers(min_value=-40, max_value=40),
    y_max=st.integers(min_value=1, max_value=12),
)
def test_progression_against_brute(p, a, d, y_max):
    if d % p == 0 and a % p:
        with pytest.raises(BadDifferenceError):
            y_of_progression(p, a, d, y_max)
        return
    expected = next(
        (
            y
            for y in range(1, y_max + 1)
            if brute_reachable(p, [a + j * d for j in range(y)]) == set(range(1, p))
        ),
        None,
    )
    assert y_of_progression(p, a, d, y_max) == expected


# --- exact counts -----------------------------------------------------------


def test_subset_product_counts_examples():
    assert subset_product_counts(5, 3).counts == (0, 4, 2, 2, 0)
    assert subset_product_counts(3, 2).counts == (0, 2, 2)
    assert subset_product_counts(7, 1).counts == (0, 2, 0, 0, 0, 0, 0)
    with pytest.raises(YOutOfRangeError):
        subset_product_counts(7, 0)


def test_counts_match_enumeration():
    for p in (3, 5, 7, 11, 13):
        for y in range(1, 15):
            assert subset_product_counts(p, y).counts == enumerate_subset_counts(p, y)


def test_counts_match_residue_walk_random():
    rng = random.Random(11)
    ps = primes_up_to(1009)
    for _ in range(40):
        p = rng.choice(ps)
        y = rng.randint(1, p - 1)
        assert subset_product_counts(p, y).counts == residue_walk_counts(
            p, range(1, y + 1)
        ), (p, y)
    # long runs cross several slot widenings
    for y in (300, 1007):
        assert subset_product_counts(1009, y).counts == residue_walk_counts(
            1009, range(1, y + 1)
        )


def test_counts_match_residue_walk_beyond_p():
    # y >= p puts multiples of p in the ground set: the zero slot fills
    for p in (2, 3, 5, 7, 11, 13):
        for y in range(p, 3 * p + 40):
            expected = residue_walk_counts(p, range(1, y + 1))
            assert subset_product_counts(p, y).counts == expected, (p, y)
    counts = subset_product_counts(13, 200).counts
    assert counts == residue_walk_counts(13, range(1, 201))
    assert sum(counts) == 2**200


def test_counts_reject_non_prime_modulus():
    for p in (-7, 0, 1, 9, 1001):
        with pytest.raises(NotPrimeError):
            subset_product_counts(p, 3)
        with pytest.raises(NotPrimeError):
            y_of_progression(p, 1, 1, 3)


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from(primes_up_to(211)),
    ys=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=4),
)
@example(p=13, ys=[200, 13, 1, 64, 12, 13])
def test_prefix_snapshots_match_single_folds(p, ys):
    # ys >= p fill the zero slot; ys >= 64 cross a slot widening
    snapshots = list(subset_product_prefixes(build_context(p), ys))
    assert [s.y for s in snapshots] == sorted(set(ys))
    for s in snapshots:
        assert s.p == p
        assert s.counts == residue_walk_counts(p, range(1, s.y + 1))
        assert s.counts == subset_product_counts(p, s.y).counts


def test_prefix_fold_requests():
    ctx = build_context(7)
    assert list(subset_product_prefixes(ctx, [])) == []
    with pytest.raises(YOutOfRangeError):
        subset_product_prefixes(ctx, [3, 0])


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from(primes_up_to(211)), data=st.data())
def test_counts_reached_equals_coverage(p, data):
    y = data.draw(st.integers(min_value=1, max_value=2 * p + 5))
    state = initial_coverage(build_context(p))
    for n in range(1, y + 1):
        if n % p:  # multiples of p only add products divisible by p
            state = coverage_consume(state, n)
    assert subset_product_counts(p, y).reached() == state.residues()


def test_counts_mass_conservation():
    rng = random.Random(0)
    for _ in range(60):
        p = rng.choice([q for q in primes_up_to(211) if q >= 3])
        y = rng.randint(1, p - 1)
        counts = subset_product_counts(p, y)
        assert counts.unit_mass() == 2**y
        assert counts.counts[0] == 0


def test_counts_beyond_p_track_zero_products():
    # {1..y} contains multiples of p once y >= p; those subsets land on 0
    counts = subset_product_counts(5, 7)
    assert sum(counts.counts) == 2**7
    assert counts.counts[0] == 2**7 - counts.unit_mass()
    assert counts.counts == enumerate_subset_counts(5, 7)


def test_positivity_boundary_matches_coverage():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        threshold = y_of_p(p)
        below = subset_product_counts(p, threshold - 1)
        at = subset_product_counts(p, threshold)
        assert min(below.counts[1:]) == 0
        assert min(at.counts[1:]) > 0
        assert at.reached() == list(range(1, p))


def test_counts_via_characters_examples():
    ctx5 = build_context(5)
    approx = counts_via_characters(ctx5, 3)
    assert approx[1:] == pytest.approx([4, 2, 2, 0], abs=1e-9)
    ctx3 = build_context(3)
    assert counts_via_characters(ctx3, 1)[1:] == pytest.approx([2, 0], abs=1e-9)
    ctx7 = build_context(7)
    assert sum(counts_via_characters(ctx7, 6)[1:]) == pytest.approx(64, abs=1e-6)


def test_counts_via_characters_matches_dp():
    for p in (3, 5, 7, 11, 13):
        ctx = build_context(p)
        for y in range(1, 21):
            exact = subset_product_counts(p, y).counts
            approx = counts_via_characters(ctx, y)
            tol = 1e-6 * 2**y / (p - 1) + 1e-6
            for b in range(1, p):
                assert abs(exact[b] - approx[b]) <= tol


def test_counts_via_characters_precision_guard():
    ctx = build_context(101)
    with pytest.raises(PrecisionRangeError):
        counts_via_characters(ctx, 61)


# --- error reports ----------------------------------------------------------


def test_error_report_examples():
    rep = error_report(5, 3)
    assert rep.main_term == Fraction(8, 4)
    assert rep.max_abs_error == Fraction(2)
    assert rep.normalized_ratio == 6.25

    rep = error_report(3, 2)
    assert rep.max_abs_error == 0
    assert rep.normalized_ratio == 0.0

    rep = error_report(101, 60)
    assert 0 < rep.normalized_ratio < 1


def test_error_report_recomputable():
    rep = error_report(13, 9)
    counts = subset_product_counts(13, 9).counts
    worst = max(abs(Fraction(c) - Fraction(2**9, 12)) for c in counts[1:])
    assert rep.max_abs_error == worst
    assert rep.normalized_ratio == float(worst * 13 * 13 / 2**9)
    with pytest.raises(YOutOfRangeError):
        error_report(13, 13)


def test_error_report_from_fold_snapshots():
    # one fold's snapshots give the same reports as one fold per y
    for p in (5, 13, 101):
        ys = range(1, min(p, 40))
        for dp in subset_product_prefixes(build_context(p), ys):
            assert counts_error_report(dp) == error_report(p, dp.y)
    (dp,) = subset_product_prefixes(build_context(5), [5])
    with pytest.raises(YOutOfRangeError):
        counts_error_report(dp)


def test_theorem_y_is_exact_ceiling():
    # least y with y^b >= p^a, clamped to [1, p-1]
    for p in primes_up_to(3000):
        for exponent in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 5), Fraction(7, 10)):
            y = theorem_y(p, exponent)
            a, b = exponent.numerator, exponent.denominator
            if y < p - 1:
                assert y**b >= p**a and (y == 1 or (y - 1) ** b < p**a)
            # the float rule it replaces gives the same y at these sizes
            assert y == min(p - 1, max(1, math.ceil(p ** float(exponent))))
    assert theorem_y(101) == 16 and theorem_y(1009) == 64
    assert theorem_y(101, Fraction(2)) == theorem_y(101, 1) == 100
    assert theorem_y(101, 0) == theorem_y(101, Fraction(-3, 2)) == 1
    assert theorem_y(2, Fraction(1, 2)) == 1
    assert theorem_y(10**4 + 7, Fraction(1, 2)) == 101  # 100^2 < 10007 <= 101^2
    # at an exact power the root itself is the least y
    assert theorem_y(10**4, Fraction(1, 2)) == 100
    assert theorem_y(2**12, Fraction(2, 3)) == 2**8
    with pytest.raises(TypeError):
        theorem_y(101, 0.6)
