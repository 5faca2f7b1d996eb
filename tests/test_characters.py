import math
import random
import time
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subproducts import characters
from subproducts.characters import (
    InvalidDeltaError,
    OutOfDomainError,
    PartialSumScan,
    angle_to_complex,
    char_angle,
    char_sum,
    circle_lemma_bound,
    log_product_one_plus_chi,
    max_nonprincipal_sum,
    near_one_cutoff,
    near_one_exceptions,
    near_one_threshold_turns,
    polya_vinogradov_bound,
    polya_vinogradov_scan,
    unit_roots,
    z_lemma_check,
)
from subproducts.cli import check_lemma_near_one, check_lemma_z_grid
from subproducts.modcore import (
    SMALL_PRIME_LIMIT,
    build_context,
    iroot,
    primes_between,
    primes_up_to,
)


def test_char_angle_examples():
    ctx7 = build_context(7)
    assert char_angle(ctx7, 0, 5) == 0
    assert char_angle(ctx7, 3, 2) == 0  # ind(2)=2, 3*2 mod 6 = 0; Legendre(2,7)=1
    assert char_angle(ctx7, 1, 6) == Fraction(1, 2)
    assert char_angle(ctx7, 1, 7) is None
    assert angle_to_complex(None) == 0
    assert angle_to_complex(Fraction(1, 2)) == pytest.approx(-1)


def test_char_angle_multiplicative_exhaustive():
    for p in (5, 7, 31, 101):
        ctx = build_context(p)
        m = p - 1
        ks = range(m) if p <= 7 else (1, 2, 3, m // 2, m - 1)
        for k in ks:
            angles = [char_angle(ctx, k, n) for n in range(p)]
            for u in range(1, p):
                for v in range(1, p):
                    expected = (angles[u] + angles[v]) % 1
                    assert angles[u * v % p] == expected


def test_char_angle_real_iff_two_k_divisible():
    ctx = build_context(11)
    m = 10
    for k in range(m):
        values = {char_angle(ctx, k, n) for n in range(1, 11)}
        real_valued = values <= {Fraction(0), Fraction(1, 2)}
        assert real_valued == (2 * k % m == 0)
    # k = (p-1)/2 is the Legendre symbol
    from subproducts.modcore import legendre

    for n in range(1, 11):
        val = angle_to_complex(char_angle(ctx, 5, n))
        assert val.real == pytest.approx(legendre(n, 11))
        assert val.imag == pytest.approx(0)


def test_orthogonality_exact_by_angle_pairing():
    # for k != 0 the angle multiset is uniform over multiples of gcd(k, m),
    # hitting each d*j exactly d times; such root sets cancel exactly
    for p in (5, 7, 101):
        ctx = build_context(p)
        m = p - 1
        for k in range(1, m):
            d = gcd(k, m)
            tally = {}
            for n in range(1, p):
                t = k * ctx.ind[n] % m
                tally[t] = tally.get(t, 0) + 1
            assert tally == {d * j: d for j in range(m // d)}
            assert m // d > 1
            assert abs(char_sum(ctx, k, p - 1)) < 1e-9


def test_char_sum_examples():
    ctx5 = build_context(5)
    assert char_sum(ctx5, 2, 4) == pytest.approx(0)  # 1 - 1 - 1 + 1
    assert char_sum(build_context(7), 0, 6) == pytest.approx(6)
    assert char_sum(ctx5, 1, 5) == pytest.approx(0)  # full period, chi(5) = 0


def test_char_sum_periodic_beyond_p():
    ctx = build_context(7)
    for k in range(6):
        assert char_sum(ctx, k, 20) == pytest.approx(
            sum(angle_to_complex(char_angle(ctx, k, n)) for n in range(1, 21))
        )


def test_char_sum_whole_periods_match_direct_sum():
    # whole periods of p are summed in closed form; the direct ascending
    # sum over every n <= t must agree within 1e-9 * t
    for p in (5, 31, 101):
        ctx = build_context(p)
        for k in range(p - 1):
            for t in (p, 3 * p + 2):
                direct = sum(
                    angle_to_complex(char_angle(ctx, k, n)) for n in range(1, t + 1)
                )
                assert abs(char_sum(ctx, k, t) - direct) <= 1e-9 * t


def test_char_sum_huge_t_is_one_period_of_work():
    ctx = build_context(311)
    t = 10**18
    # the principal character counts the n <= t prime to p
    assert char_sum(ctx, 0, t).real == pytest.approx(t - t // 311, rel=1e-12)
    assert abs(char_sum(ctx, 5, t) - char_sum(ctx, 5, t % 311)) < 1e-9


def test_char_sum_equals_direct_sum_exactly():
    # below one period char_sum adds the same roots in the same order as a
    # direct sum read through the sparse index (baby-step giant-step)
    for p in primes_up_to(61):
        ctx = build_context(p)
        m = ctx.order
        roots = unit_roots(m)
        for k in range(m):
            direct = 0j
            for t in range(1, p):
                direct += roots[k * ctx.ind[t] % m]
                assert char_sum(ctx, k, t) == direct


def test_char_sum_either_side_of_the_sparse_cutoff():
    # up to SMALL_PRIME_LIMIT = 4096 remaining terms go through the sparse
    # index, more through the dense table: both add the same roots in order
    assert SMALL_PRIME_LIMIT == 4096
    p = 10007
    ctx = build_context(p)
    m = ctx.order
    roots = unit_roots(m)
    for k in (0, 1, 7, 5003, 10005):
        direct = 0j
        for n in range(1, 4094):
            direct += roots[k * ctx.table[n] % m]
        periods = complex(2 * m) if k == 0 else 0j
        for t in range(4094, 4100):
            direct += roots[k * ctx.table[t] % m]
            assert char_sum(ctx, k, t) == direct
            assert char_sum(ctx, k, 2 * p + t) == periods + direct


def test_char_sum_at_the_table_cap_reads_only_its_terms(monkeypatch):
    calls = []
    monkeypatch.setattr(characters, "unit_roots", calls.append)
    # the sums the dense table and the p-1 cached roots gave (13-15 s, 725 MB)
    for t, expected in (
        (5, complex(2.7280730414005916, -0.658468483427072)),
        (4096, complex(36.859184425393615, 34.27082140808196)),
    ):
        start = time.perf_counter()
        ctx = build_context(16_777_213)  # the largest prime below 2^24
        total = char_sum(ctx, 1, t)
        assert time.perf_counter() - start < 1.0
        assert "table" not in ctx.__dict__
        assert calls == []  # no p-1 roots built
        assert total == expected


def test_principal_char_sum_counts_units_exactly():
    for p in (2, 3, 7, 101):
        ctx = build_context(p)
        for t in range(1, 3 * p + 2):
            assert char_sum(ctx, 0, t) == complex(t - t // p)


def test_max_nonprincipal_sum_examples():
    ctx5 = build_context(5)
    _, mag = max_nonprincipal_sum(ctx5, 5)
    assert mag == pytest.approx(0, abs=1e-9)
    _, mag = max_nonprincipal_sum(build_context(3), 1)
    assert mag == pytest.approx(1)
    _, mag = max_nonprincipal_sum(build_context(101), 10)
    assert mag <= polya_vinogradov_bound(101) < 46.5


def test_polya_vinogradov_scan_small():
    for p in primes_up_to(101):
        if p < 3:
            continue
        scan = polya_vinogradov_scan(build_context(p))
        assert scan.violations == 0
        assert scan.max_magnitude <= scan.bound


def scan_by_value_table(ctx):
    """The Polya-Vinogradov scan as first written: a p-entry complex table
    of chi_k per character, summed over n = 1..p with n read mod p.  The
    bound is read through the module, as the scan reads it."""
    p, m = ctx.p, ctx.order
    roots = unit_roots(m)
    bound = characters.polya_vinogradov_bound(p)
    best_sq = -1.0
    best_k = best_t = 0
    violations = 0
    bound_sq = bound * bound
    for k in range(1, m):
        vals = [0j] * p
        for r in range(1, p):
            vals[r] = roots[k * ctx.table[r] % m]
        re = im = 0.0
        for n in range(1, p + 1):
            v = vals[n % p]
            re += v.real
            im += v.imag
            sq = re * re + im * im
            if sq > best_sq:
                best_sq, best_k, best_t = sq, k, n
            if sq > bound_sq:
                violations += 1
    return PartialSumScan(
        p=p,
        max_magnitude=math.sqrt(best_sq) if best_sq > 0 else 0.0,
        k_at_max=best_k,
        t_at_max=best_t,
        bound=bound,
        violations=violations,
    )


def test_polya_vinogradov_scan_equals_value_table_scan(monkeypatch):
    for p in primes_up_to(311):
        ctx = build_context(p)
        assert polya_vinogradov_scan(ctx) == scan_by_value_table(ctx)
    # A zero bound makes every nonzero partial sum a violation.  A full
    # period sums to zero only up to rounding, so t = p violates for each
    # k whose rounded sum over n < p is not exactly 0; the scan must count
    # those as the value table does.
    monkeypatch.setattr(characters, "polya_vinogradov_bound", lambda p: 0.0)
    at_p = 0
    for p in primes_up_to(101)[1:]:
        ctx = build_context(p)
        scan = polya_vinogradov_scan(ctx)
        assert scan.bound == 0.0 and scan.violations > 0
        assert scan == scan_by_value_table(ctx)
        roots, m = unit_roots(ctx.order), ctx.order
        at_p += sum(
            sum(roots[k * ctx.table[n] % m] for n in range(1, p)) != 0
            for k in range(1, m)
        )
    assert at_p > 0


@settings(max_examples=4, deadline=None)
@given(p=st.sampled_from(primes_up_to(1009)))
def test_polya_vinogradov_scan_equals_value_table_scan_drawn(p):
    ctx = build_context(p)
    assert polya_vinogradov_scan(ctx) == scan_by_value_table(ctx)


def test_log_product_examples():
    ctx5 = build_context(5)
    assert log_product_one_plus_chi(ctx5, 0, 3) == pytest.approx(3 * math.log(2))
    assert log_product_one_plus_chi(ctx5, 2, 3) == -math.inf  # chi(2) = -1
    ctx7 = build_context(7)
    # ind(2)=2 so the angle is 1/3 turn and |1 + e^(2pi i/3)| = 1
    assert log_product_one_plus_chi(ctx7, 1, 2) == pytest.approx(math.log(2))


def test_log_product_matches_direct_product():
    ctx = build_context(31)
    for k in (1, 3, 10, 15):
        angles = [char_angle(ctx, k, n) for n in range(1, 21)]
        if any(a == Fraction(1, 2) for a in angles):
            assert log_product_one_plus_chi(ctx, k, 20) == -math.inf
            continue
        direct = 1.0
        for a in angles:
            direct *= abs(1 + angle_to_complex(a))
        assert log_product_one_plus_chi(ctx, k, 20) == pytest.approx(math.log(direct))


def test_near_one_exceptions_examples():
    assert near_one_exceptions(build_context(7), 0, 6, 0.5) == (0, [])
    count, members = near_one_exceptions(build_context(5), 2, 4, 0.5)
    assert (count, members) == (2, [2, 3])
    assert near_one_exceptions(build_context(7), 1, 6, 1.9) == (1, [6])


def test_near_one_counts_multiples_of_p():
    count, members = near_one_exceptions(build_context(5), 0, 12, 0.5)
    assert members == [5, 10]
    assert count == 2


def test_near_one_matches_complex_distance():
    ctx = build_context(101)
    rng = random.Random(3)
    for _ in range(50):
        k = rng.randrange(1, 100)
        delta = rng.uniform(0.05, 1.95)
        _, members = near_one_exceptions(ctx, k, 100, delta)
        direct = [
            n
            for n in range(1, 101)
            if abs(angle_to_complex(char_angle(ctx, k, n)) - 1) > delta
        ]
        assert members == direct


@settings(max_examples=300, deadline=None)
@given(
    delta=st.floats(min_value=0.0, max_value=2.0, exclude_min=True, exclude_max=True),
    m=st.integers(1, 2000),
)
@example(delta=2 * math.sin(math.pi / 6), m=12)  # threshold near 1/6 = 2/12 turn
@example(delta=1.0, m=6)
@example(delta=1e-300, m=1)
def test_near_one_cutoff_matches_fraction_comparison(delta, m):
    thr = Fraction(near_one_threshold_turns(delta))
    cutoff = near_one_cutoff(delta, m)
    for t in range(m):
        assert (min(t, m - t) <= cutoff) == (Fraction(min(t, m - t), m) <= thr)


def test_near_one_cutoff_invalid_delta():
    for delta in (0.0, 2.0, -1.0, math.nan):
        with pytest.raises(InvalidDeltaError):
            near_one_cutoff(delta, 10)


def test_near_one_invalid_delta():
    ctx = build_context(7)
    with pytest.raises(InvalidDeltaError):
        near_one_exceptions(ctx, 1, 5, 0.0)
    with pytest.raises(InvalidDeltaError):
        near_one_exceptions(ctx, 1, 5, 2.0)


def test_circle_lemma_bound_examples():
    assert circle_lemma_bound(1, 1.0) == pytest.approx(0.5)  # arcsin(1/2) = pi/6
    assert circle_lemma_bound(2, 1.0) == pytest.approx(-0.5)
    assert circle_lemma_bound(3, 1e-9) == pytest.approx(1.0)
    with pytest.raises(OutOfDomainError):
        circle_lemma_bound(4, 1.0)  # 4 * pi/3 > pi
    with pytest.raises(InvalidDeltaError):
        circle_lemma_bound(2, 2.5)


def test_circle_lemma_on_character_products():
    ctx = build_context(311)
    m = ctx.order
    rng = random.Random(11)
    for _ in range(300):
        k_count = rng.randint(1, 5)
        delta = rng.uniform(0.05, 1.99 * math.sin(math.pi / (2 * k_count)))
        bound = circle_lemma_bound(k_count, delta)
        thr = Fraction(near_one_threshold_turns(delta))
        k = rng.randrange(1, m)
        pool = []
        for n in range(1, ctx.p):
            t = k * ctx.ind[n] % m
            if Fraction(min(t, m - t), m) <= thr:
                pool.append(n)
        prod = 1
        for _ in range(k_count):
            prod = prod * rng.choice(pool) % ctx.p
        assert angle_to_complex(char_angle(ctx, k, prod)).real >= bound - 1e-12


def test_z_lemma_examples():
    assert z_lemma_check(Fraction(1, 2), 2.0)  # z = -1: |1+z| = 0
    assert z_lemma_check(None, 1.0)  # 1 <= 2 e^{-1/8} ~ 1.765
    assert z_lemma_check(Fraction(0), 0.5)  # hypothesis fails, vacuous


def test_z_lemma_grid():
    for i in range(200):
        angle = Fraction(i, 200)
        for j in range(1, 40):
            assert z_lemma_check(angle, 2.0 * j / 41)
    for j in range(1, 40):
        assert z_lemma_check(None, 2.0 * j / 41)


def test_z_lemma_verdicts_on_the_verify_grid_match_40_digit_arithmetic():
    # every pair of the `lemma_z_grid` check, recomputed with mpmath at 40
    # digits: the angle exactly, delta as the exact value of its float
    params = check_lemma_z_grid().params
    angles, deltas = params["angles"], params["deltas"]
    with mpmath.workdps(40):
        grid = [2.0 * j / (deltas + 1) for j in range(1, deltas + 1)]
        bounds = [2 * mpmath.exp(-mpmath.mpf(d) ** 2 / 8) for d in grid]
        dist_gap = slack = mpmath.inf
        for i in range(angles):
            if i == 0:  # z = 0: |z - 1| = 1, |1 + z| = 1
                angle, dist, one_plus = None, mpmath.mpf(1), mpmath.mpf(1)
            else:
                angle = Fraction(i, angles)
                half_angle = mpmath.pi * i / angles
                dist = 2 * abs(mpmath.sin(half_angle))
                one_plus = 2 * abs(mpmath.cos(half_angle))
            for delta, bound in zip(grid, bounds):
                exact_delta = mpmath.mpf(delta)
                holds = dist < exact_delta or one_plus <= bound
                assert z_lemma_check(angle, delta) == holds, (angle, delta)
                dist_gap = min(dist_gap, abs(dist - exact_delta) / exact_delta)
                if dist >= exact_delta:
                    slack = min(slack, (bound - one_plus) / bound)
    # no verdict rests on a float rounding: the nearest cases are far from it
    assert dist_gap > 1e-9 and slack > 1e-9


def test_near_one_scan_verdicts_match_50_digit_arithmetic():
    # each comparison of the default `lemma_near_one_scan` (p <= 311), with
    # its float error bounded: a table entry's error is measured against
    # mpmath, and a sum of y entries is off by at most y times that plus
    # gamma_(y-1) = (y-1) u / (1 - (y-1) u) times the sum of |entries|.  A
    # comparison within its bound is recomputed at 50 digits.
    u = mpmath.mpf(2) ** -53
    hits = 0
    log_gap = count_gap = mpmath.inf
    with mpmath.workdps(50):
        for p in primes_between(3, 311):
            ctx = build_context(p)
            m, ind = ctx.order, ctx.table
            y = iroot(p**7, 10)
            table = characters._log_one_plus_root(m)
            # log|1 + e^(2 pi i t/m)| = log|2 cos(pi t/m)|, -inf at t = m/2
            exact = [mpmath.log(abs(2 * mpmath.cos(mpmath.pi * t / m))) if 2 * t != m
                     else -mpmath.inf for t in range(m)]
            finite = [t for t in range(m) if 2 * t != m]
            entry_err = max(abs(mpmath.mpf(table[t]) - exact[t]) for t in finite)
            largest = max(abs(mpmath.mpf(table[t])) for t in finite)
            sum_err = y * entry_err + (y - 1) * u / (1 - (y - 1) * u) * y * largest
            log_thresh = y * math.log(2) - 2 * math.log(p)
            exact_thresh = y * mpmath.log(2) - 2 * mpmath.log(p)
            err = sum_err + abs(mpmath.mpf(log_thresh) - exact_thresh)
            limit = 16 * math.log(p) ** 3
            exact_limit = 16 * mpmath.log(p) ** 3
            delta = 1 / mpmath.log(p)
            for k in range(1, m):
                angles = [k * ind[n] % m for n in range(1, y + 1)]  # y < p: all units
                value = log_product_one_plus_chi(ctx, k, y)
                if value == -math.inf:
                    assert any(2 * t == m for t in angles)
                    continue
                above = value > log_thresh
                if abs(mpmath.mpf(value) - mpmath.mpf(log_thresh)) <= err:
                    assert above == (mpmath.fsum(exact[t] for t in angles) > exact_thresh)
                log_gap = min(log_gap, abs(value - exact_thresh) / abs(exact_thresh))
                if not above:
                    continue
                hits += 1
                # the count against 50-digit distances |chi(n) - 1| = 2|sin(pi t/m)|
                count, _ = near_one_exceptions(ctx, k, y, 1 / math.log(p))
                far = sum(2 * abs(mpmath.sin(mpmath.pi * t / m)) > delta for t in angles)
                assert count == far, (p, k)
                assert (count >= limit) == (count >= exact_limit)
                count_gap = min(count_gap, abs(count - exact_limit) / exact_limit)
    record = check_lemma_near_one(311)
    assert record.metrics == {"hypothesis_hits": hits, "violations": 0}
    # no verdict rests on a float rounding: the nearest cases are far from it
    assert log_gap > 1e-9 and count_gap > 1e-9
