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
from subproducts.cli import (
    SweepConfig,
    check_burgess_ratio,
    check_lemma_circle,
    check_lemma_near_one,
    check_lemma_z_grid,
    check_polya_vinogradov,
)
from subproducts.modcore import (
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


@pytest.mark.parametrize("k", [-1, 6])
def test_char_angle_refuses_an_index_outside_the_group_order(k):
    # k = m = 6 would alias the principal character k = 0
    with pytest.raises(ValueError, match=rf"^character index {k} outside \[0, 5\]$"):
        char_angle(build_context(7), k, 3)


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
    # up to 16 isqrt(p-1) = 1600 remaining terms go through the sparse
    # index, more through the dense table: both add the same roots in order
    p = 10007
    assert 16 * math.isqrt(p - 1) == 1600
    ctx = build_context(p)
    m = ctx.order
    roots = unit_roots(m)
    for k in (0, 1, 7, 5003, 10005):
        direct = 0j
        for n in range(1, 1598):
            direct += roots[k * ctx.table[n] % m]
        periods = complex(2 * m) if k == 0 else 0j
        for t in range(1598, 1604):
            direct += roots[k * ctx.table[t] % m]
            fresh = build_context(p)  # ctx has its table already
            assert char_sum(fresh, k, t) == direct
            assert ("table" in fresh.__dict__) == (t > 1600)
            assert char_sum(ctx, k, 2 * p + t) == periods + direct


def test_char_sum_at_the_table_cap_reads_only_its_terms(monkeypatch):
    calls = []
    monkeypatch.setattr(characters, "unit_roots", calls.append)
    # the sums the dense table and the p-1 cached roots gave (13-15 s, 725 MB);
    # 4097's is the dense table's alone (about 4 s), with each root computed
    # as it is added
    for t, expected in (
        (5, complex(2.7280730414005916, -0.658468483427072)),
        (4096, complex(36.859184425393615, 34.27082140808196)),
        (4097, complex(37.689712314815104, 33.713844366460776)),
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
    assert max_nonprincipal_sum(build_context(5), 5) == pytest.approx(0, abs=1e-9)
    assert max_nonprincipal_sum(build_context(3), 1) == pytest.approx(1)
    assert max_nonprincipal_sum(build_context(101), 10) <= polya_vinogradov_bound(101) < 46.5


def max_nonprincipal_sum_per_k(ctx, t):
    """`max_nonprincipal_sum` as every k's sum, one at a time."""
    best = abs(char_sum(ctx, 1, t))
    for k in range(2, ctx.order):
        best = max(best, abs(char_sum(ctx, k, t)))
    return best


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(primes_between(3, 311)), data=st.data())
@example(p=3, data=None)
@example(p=311, data=None)
def test_max_nonprincipal_sum_equals_every_k_summed(p, data):
    # a k > m/2 is summed only near the running best; t past p reads the
    # remaining terms after whole periods
    ctx = build_context(p)
    t = p if data is None else data.draw(st.integers(1, 2 * p))
    assert max_nonprincipal_sum(ctx, t) == max_nonprincipal_sum_per_k(ctx, t)
    # t = 0 mod p: every nonprincipal sum is 0
    for t in (p, 2 * p):
        assert max_nonprincipal_sum(ctx, t) == 0.0


def test_polya_vinogradov_scan_small():
    for p in primes_up_to(101):
        if p < 3:
            continue
        scan = polya_vinogradov_scan(build_context(p))
        assert scan.violations == 0
        assert scan.max_magnitude <= scan.bound


def scan_by_value_table(ctx):
    """The Polya-Vinogradov scan as first written: a p-entry complex table
    of chi_k per character, summed over n = 1..p with n read mod p.  A
    character violates when its largest partial sum passes the bound.  The
    bound is read through the module, as the scan reads it."""
    p, m = ctx.p, ctx.order
    roots = unit_roots(m)
    bound = characters.polya_vinogradov_bound(p)
    best_sq = -1.0
    violations = 0
    bound_sq = bound * bound
    for k in range(1, m):
        vals = [0j] * p
        for r in range(1, p):
            vals[r] = roots[k * ctx.table[r] % m]
        re = im = 0.0
        past = False
        for n in range(1, p + 1):
            v = vals[n % p]
            re += v.real
            im += v.imag
            sq = re * re + im * im
            best_sq = max(best_sq, sq)
            past = past or sq > bound_sq
        violations += past
    return PartialSumScan(
        max_magnitude=math.sqrt(best_sq) if best_sq > 0 else 0.0,
        bound=bound,
        violations=violations,
    )


def test_polya_vinogradov_scan_equals_value_table_scan(monkeypatch):
    for p in primes_up_to(311):
        ctx = build_context(p)
        assert polya_vinogradov_scan(ctx) == scan_by_value_table(ctx)
    # A zero bound makes every character a violation, since |chi(1)|^2 = 1
    monkeypatch.setattr(characters, "polya_vinogradov_bound", lambda p: 0.0)
    for p in primes_up_to(101)[1:]:
        ctx = build_context(p)
        scan = polya_vinogradov_scan(ctx)
        assert scan.bound == 0.0 and scan.violations == ctx.order - 1
        assert scan == scan_by_value_table(ctx)


@settings(max_examples=4, deadline=None)
@given(p=st.sampled_from(primes_up_to(1009)))
def test_polya_vinogradov_scan_equals_value_table_scan_drawn(p):
    ctx = build_context(p)
    assert polya_vinogradov_scan(ctx) == scan_by_value_table(ctx)


def max_sq_per_k(ctx):
    """Each nonprincipal k's largest |partial sum|^2 over t < p."""
    roots, m = unit_roots(ctx.order), ctx.order
    inds = ctx.table[1:].tolist()  # ind(n) for n = 1..p-1
    tops = []
    for k in range(1, m):
        re = im = top = 0.0
        for i in inds:
            z = roots[k * i % m]
            re += z.real
            im += z.imag
            sq = re * re + im * im
            if sq > top:
                top = sq
        tops.append(top)
    return tops


@pytest.mark.parametrize("p", [31, 101, 211, 311])
def test_polya_vinogradov_scan_counts_violations_past_a_tight_bound(monkeypatch, p):
    # a bound at 0.9 times the true maximum: some characters pass it, the
    # others do not, and the scan counts exactly those that do
    ctx = build_context(p)
    top = polya_vinogradov_scan(ctx).max_magnitude
    monkeypatch.setattr(characters, "polya_vinogradov_bound", lambda p: 0.9 * top)
    bound_sq = (0.9 * top) ** 2
    past = sum(t > bound_sq for t in max_sq_per_k(ctx))
    assert 0 < past < ctx.order - 1
    scan = polya_vinogradov_scan(ctx)
    assert scan == scan_by_value_table(ctx)
    assert scan.violations == past and scan.max_magnitude == top


def largest_partial_sq(ctx, k, terms):
    """Character k's largest |chi_k(1) + ... + chi_k(t)|^2 over t <= terms."""
    roots, m = unit_roots(ctx.order), ctx.order
    re = im = top = 0.0
    for n in range(1, terms + 1):
        z = roots[k * ctx.table[n] % m]
        re += z.real
        im += z.imag
        top = max(top, re * re + im * im)
    return top


def root_of(sq):
    """A float b with b * b == sq when sqrt(sq) or a neighbour is one."""
    b = math.sqrt(sq)
    for c in (b, math.nextafter(b, 0.0), math.nextafter(b, math.inf)):
        if c * c == sq:
            return c
    return b


@settings(max_examples=8, deadline=None)
@given(
    p=st.sampled_from(primes_between(3, 1009)),
    at=st.sampled_from(["fraction", "half", "full"]),
    data=st.data(),
)
@example(p=311, at="half", data=None)
@example(p=311, at="full", data=None)
@example(p=101, at="fraction", data=None)
def test_polya_vinogradov_scan_equals_value_table_scan_at_drawn_bounds(p, at, data):
    # the scan sums most characters over half a period; a bound at a
    # fraction of the true maximum, or on one character's half-period or
    # full maximum, sends characters near it through the full rescan; the
    # examples put the bound on the character with the full maximum
    ctx = build_context(p)
    m = ctx.order
    if at == "fraction":
        f = 0.9 if data is None else data.draw(st.floats(0.5, 1.05))
        bound = f * polya_vinogradov_scan(ctx).max_magnitude
    else:
        if data is None:
            tops = max_sq_per_k(ctx)
            k = tops.index(max(tops)) + 1
        else:
            k = data.draw(st.integers(1, m - 1))
        bound = root_of(largest_partial_sq(ctx, k, m // 2 if at == "half" else m))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characters, "polya_vinogradov_bound", lambda p: bound)
        scan = polya_vinogradov_scan(ctx)
        assert scan == scan_by_value_table(ctx)
        assert scan.bound == bound


def test_log_product_examples():
    ctx5 = build_context(5)
    assert log_product_one_plus_chi(ctx5, 0, 3) == pytest.approx(3 * math.log(2))
    assert log_product_one_plus_chi(ctx5, 2, 3) == -math.inf  # chi(2) = -1
    ctx7 = build_context(7)
    # ind(2)=2 so the angle is 1/3 turn and |1 + e^(2pi i/3)| = 1
    assert log_product_one_plus_chi(ctx7, 1, 2) == pytest.approx(math.log(2))
    for k in range(ctx7.order):  # y = 1 is n = 1 alone: |1 + chi(1)| = 2
        assert log_product_one_plus_chi(ctx7, k, 1) == pytest.approx(math.log(2))


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
    assert near_one_exceptions(build_context(7), 0, 6, 0.5) == []
    assert near_one_exceptions(build_context(5), 2, 4, 0.5) == [2, 3]
    assert near_one_exceptions(build_context(7), 1, 6, 1.9) == [6]


def test_near_one_counts_multiples_of_p():
    assert near_one_exceptions(build_context(5), 0, 12, 0.5) == [5, 10]


def test_near_one_matches_complex_distance():
    ctx = build_context(101)
    rng = random.Random(3)
    for _ in range(50):
        k = rng.randrange(1, 100)
        delta = rng.uniform(0.05, 1.95)
        members = near_one_exceptions(ctx, k, 100, delta)
        direct = [
            n
            for n in range(1, 101)
            if abs(angle_to_complex(char_angle(ctx, k, n)) - 1) > delta
        ]
        assert members == direct


def near_one_exceptions_by_loop(ctx, k, y, delta):
    """`near_one_exceptions` as its per-n loop was first written."""
    m = ctx.order
    cutoff = near_one_cutoff(delta, m)
    members = []
    for n in range(1, y + 1):
        r = n % ctx.p
        if r == 0:
            members.append(n)
            continue
        t = k * ctx.table[r] % m
        if min(t, m - t) > cutoff:
            members.append(n)
    return members


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from(primes_up_to(1009)), data=st.data())
@example(p=2, data=None)
@example(p=3, data=None)
def test_near_one_exceptions_equals_the_per_n_loop(p, data):
    # y runs past 2p so that multiples of p occur
    ctx = build_context(p)
    if data is None:
        k, y, delta = ctx.order - 1, 2 * p + 3, 1.0
    else:
        k = data.draw(st.integers(0, ctx.order - 1))
        y = data.draw(st.integers(1, 2 * p + 3))
        delta = data.draw(st.floats(0.0, 2.0, exclude_min=True, exclude_max=True))
    assert near_one_exceptions(ctx, k, y, delta) == near_one_exceptions_by_loop(ctx, k, y, delta)


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
        with pytest.raises(ValueError, match=rf"^delta={delta} outside \(0, 2\)$"):
            near_one_cutoff(delta, 10)


def test_near_one_invalid_delta():
    ctx = build_context(7)
    with pytest.raises(ValueError, match=r"^delta=0.0 outside \(0, 2\)$"):
        near_one_exceptions(ctx, 1, 5, 0.0)
    with pytest.raises(ValueError, match=r"^delta=2.0 outside \(0, 2\)$"):
        near_one_exceptions(ctx, 1, 5, 2.0)


def test_circle_lemma_bound_examples():
    assert circle_lemma_bound(1, 1.0) == pytest.approx(0.5)  # arcsin(1/2) = pi/6
    assert circle_lemma_bound(2, 1.0) == pytest.approx(-0.5)
    assert circle_lemma_bound(3, 1e-9) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="^k=4, delta=1.0: angle sum 4.188790 exceeds pi$"):
        circle_lemma_bound(4, 1.0)  # 4 * pi/3 > pi
    with pytest.raises(ValueError, match=r"^delta=2.5 outside \(0, 2\)$"):
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


def test_circle_check_verdicts_match_50_digit_arithmetic(monkeypatch):
    # every comparison re < bound - 1e-12 of the default `lemma_circle_bound`,
    # recomputed at 50 digits from the check's own inputs, recorded as it
    # makes them: each delta as the exact value of its float, each product
    # by its exact angle
    inputs, angles = [], []

    def bound_of(k_count, delta):
        inputs.append((k_count, delta))
        return circle_lemma_bound(k_count, delta)

    def angle_of(ctx, k, n):
        angles.append(char_angle(ctx, k, n))
        return angles[-1]

    monkeypatch.setattr(characters, "circle_lemma_bound", bound_of)
    monkeypatch.setattr(characters, "char_angle", angle_of)
    record = check_lemma_circle(SweepConfig().seed + 1)
    assert record.metrics == {"failures": 0}
    assert len(inputs) == len(angles) == record.params["tuples"] == 2000
    least, float_err = mpmath.inf, 0
    with mpmath.workdps(50):
        for (k_count, delta), angle in zip(inputs, angles):
            re = angle_to_complex(angle).real
            bound = circle_lemma_bound(k_count, delta)
            exact_re = mpmath.cos(2 * mpmath.pi * angle.numerator / angle.denominator)
            exact_bound = mpmath.cos(2 * k_count * mpmath.asin(mpmath.mpf(delta) / 2))
            # the float verdict (no failure) is the exact one
            assert not re < bound - 1e-12 and exact_re >= exact_bound
            least = min(least, (exact_re - exact_bound) / abs(exact_bound))
            float_err = max(float_err, abs(re - exact_re), abs(bound - exact_bound))
    # the slack's derivation (in the check) puts the float error below
    # 5e-15; the nearest case is further from its bound than any rounding
    assert float_err < 5e-15
    assert least > 1e-4


def test_z_lemma_examples():
    assert z_lemma_check(Fraction(1, 2), [2.0]) == 0  # z = -1: |1+z| = 0
    assert z_lemma_check(None, [1.0]) == 0  # 1 <= 2 e^{-1/8} ~ 1.765
    assert z_lemma_check(Fraction(0), [0.5]) == 0  # hypothesis fails, vacuous


def z_lemma_verdict(angle, delta):
    """The z-lemma verdict as first written, one (angle, delta) pair at a time."""
    bound = 2.0 * math.exp(-delta * delta / 8.0)
    if angle is None:
        return True if 1.0 < delta else 1.0 <= bound
    turns = float(angle)
    dist = 2.0 * abs(math.sin(math.pi * turns))
    if dist < delta:
        return True
    return 2.0 * abs(math.cos(math.pi * turns)) <= bound


# nan fails every angle; inf holds vacuously; 0 and 2 sit on the lemma's
# domain edges; negative deltas make some pairs fail
Z_DELTAS = [math.nan, math.inf, -math.inf, 0.0, 2.0, -1.0, 1e-300, 1.0, 1.999]
Z_GRID = Z_DELTAS + [2.0 * j / 101 for j in range(1, 101)]


@settings(max_examples=300, deadline=None)
@given(
    angle=st.one_of(st.none(), st.fractions(min_value=0, max_value=1)),
    deltas=st.lists(st.one_of(st.floats(), st.sampled_from(Z_DELTAS)), max_size=20),
)
@example(angle=None, deltas=Z_GRID)
@example(angle=Fraction(0), deltas=Z_GRID)
@example(angle=Fraction(1, 2), deltas=Z_GRID)
@example(angle=Fraction(1, 3), deltas=Z_GRID)
def test_z_lemma_failures_count_the_per_pair_verdicts(angle, deltas):
    verdicts = [z_lemma_verdict(angle, d) for d in deltas]
    assert z_lemma_check(angle, deltas) == verdicts.count(False)
    assert [z_lemma_check(angle, [d]) == 0 for d in deltas] == verdicts


def test_z_lemma_grid():
    for i in range(200):
        angle = Fraction(i, 200)
        for j in range(1, 40):
            assert z_lemma_check(angle, [2.0 * j / 41]) == 0
    for j in range(1, 40):
        assert z_lemma_check(None, [2.0 * j / 41]) == 0


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
                assert (z_lemma_check(angle, [delta]) == 0) == holds, (angle, delta)
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
                count = len(near_one_exceptions(ctx, k, y, 1 / math.log(p)))
                far = sum(2 * abs(mpmath.sin(mpmath.pi * t / m)) > delta for t in angles)
                assert count == far, (p, k)
                assert (count >= limit) == (count >= exact_limit)
                count_gap = min(count_gap, abs(count - exact_limit) / exact_limit)
    record = check_lemma_near_one(311)
    assert record.metrics == {"hypothesis_hits": hits, "violations": 0}
    # no verdict rests on a float rounding: the nearest cases are far from it
    assert log_gap > 1e-9 and count_gap > 1e-9


def near_one_scan_per_k(p_cap):
    """`lemma_near_one_scan`'s metrics from every character's own
    log-product and exception count, as the check was first written."""
    violations = 0
    hypothesis_hits = 0
    for p in primes_between(3, p_cap):
        ctx = build_context(p)
        y = max(1, iroot(p**7, 10))
        log_thresh = y * math.log(2) - 2 * math.log(p)
        limit = 16 * math.log(p) ** 3
        for k in range(1, ctx.order):
            if characters.log_product_one_plus_chi(ctx, k, y) > log_thresh:
                hypothesis_hits += 1
                count = len(characters.near_one_exceptions(ctx, k, y, 1 / math.log(p)))
                if count >= limit:
                    violations += 1
    return {"hypothesis_hits": hypothesis_hits, "violations": violations}


@pytest.mark.parametrize("p_cap", [31, 101, 311])
def test_near_one_scan_pairs_conjugates_as_the_per_k_loop(p_cap):
    assert check_lemma_near_one(p_cap).metrics == near_one_scan_per_k(p_cap)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(primes_between(3, 1009)), data=st.data())
def test_conjugate_log_products_are_equal(p, data):
    # the log table is mirrored, so chi_k and chi_{m-k} = conj(chi_k) add
    # the same terms in the same order: equal as floats, not only nearly
    ctx = build_context(p)
    m = ctx.order
    table = characters._log_one_plus_root(m)
    assert all(table[t] == table[m - t] for t in range(1, m))
    k = data.draw(st.integers(1, m - 1), label="k")
    y = data.draw(st.integers(1, 2 * p), label="y")
    assert log_product_one_plus_chi(ctx, k, y) == log_product_one_plus_chi(ctx, m - k, y)


def test_near_one_scan_on_a_minus_inf_pair():
    # a k < m/2 whose angle k ind(n) is half a turn for some n <= y has a
    # zero factor, and so has m - k: the pair is read once, with no hit
    ctx = build_context(31)
    m, y = ctx.order, iroot(31**7, 10)
    pairs = [k for k in range(1, m // 2)
             if log_product_one_plus_chi(ctx, k, y) == -math.inf]
    assert pairs
    for k in pairs:
        assert log_product_one_plus_chi(ctx, m - k, y) == -math.inf
    assert check_lemma_near_one(31).metrics == near_one_scan_per_k(31)


def exact_unit_roots(m):
    """e^(2 pi i t/m) for t in [0, m) at mpmath's working precision, as
    powers of one root: each is off by about m units in its last place."""
    step = mpmath.expjpi(mpmath.mpf(2) / m)
    roots = [mpmath.mpc(1)]
    for _ in range(m - 1):
        roots.append(roots[-1] * step)
    return roots


def test_polya_vinogradov_verdicts_match_50_digit_arithmetic(monkeypatch):
    # each character's largest |S_k(t)|^2 in the default scan (p <= 311),
    # with its float error bounded.  A cos/sin entry's error e is measured
    # against a 50-digit root table; a running sum of j <= p - 1 entries of
    # size <= 1 is then off by at most E = (p-1) e + gamma_(p-2) (p-1), where
    # gamma_n = n u / (1 - n u).  With R^2 = top / (1 - gamma_2) bounding
    # re^2 + im^2, a squared magnitude is off by at most
    # err(top) = gamma_2 R^2 + 2 E (2 R + E), which grows with top, so the
    # prime's largest top bounds the error of every character.
    scans = []

    def recorded(ctx):
        scans.append((ctx, polya_vinogradov_scan(ctx)))
        return scans[-1][1]

    monkeypatch.setattr(characters, "polya_vinogradov_scan", recorded)
    record = check_polya_vinogradov(311)
    assert record.metrics["violations"] == 0
    assert [ctx.p for ctx, _ in scans] == primes_between(3, 311)
    u = mpmath.mpf(2) ** -53
    gamma_2 = 2 * u / (1 - 2 * u)
    worst, least_margin = 0, mpmath.inf
    with mpmath.workdps(50):
        for ctx, scan in scans:
            p, m = ctx.p, ctx.order
            tops = max_sq_per_k(ctx)
            best = max(tops)
            assert scan.max_magnitude == math.sqrt(best)
            exact = exact_unit_roots(m)
            e = max(max(abs(z.real - w.real), abs(z.imag - w.imag))
                    for z, w in zip(unit_roots(m), exact))
            big_e = (p - 1) * e + (p - 2) * u / (1 - (p - 2) * u) * (p - 1)
            r = mpmath.sqrt(best / (1 - gamma_2))
            err = gamma_2 * r * r + 2 * big_e * (2 * r + big_e)
            exact_bound_sq = p * mpmath.log(p) ** 2
            bound_err = abs(mpmath.mpf(scan.bound * scan.bound) - exact_bound_sq)
            # every top_k is below bound^2 by more than the error of either side
            margin = exact_bound_sq - bound_err - best - err
            assert margin > 0, p
            least_margin = min(least_margin, margin / exact_bound_sq)
            # the exact maximum is that of a character whose top is within
            # 2 err of the float best; those are summed again at 50 digits
            inds = ctx.table[1:].tolist()
            exact_top = 0
            for k, top in enumerate(tops, start=1):
                if top < best - 2 * err:
                    continue
                s_t = mpmath.mpc(0)
                for i in inds:
                    s_t += exact[k * i % m]
                    exact_top = max(exact_top, abs(s_t) ** 2)
            worst = max(worst, mpmath.sqrt(exact_top / exact_bound_sq))
    # the worst ratio is 0.5255, so the least margin is 1 - 0.5255^2 = 0.724
    assert least_margin > 0.7
    reported = record.metrics["worst_ratio_to_bound"]
    assert abs(reported - worst) <= 1e-12 * worst


def test_burgess_ratios_match_50_digit_arithmetic():
    # max over k != 0 of |sum of chi_k(n), n <= t| / t at every p of the
    # `burgess_cancellation_ratio` check, t = ceil(p^0.6) the least t with
    # t^5 >= p^3, summed at 50 digits from one root table per modulus
    metrics = check_burgess_ratio(1009).metrics
    assert sorted(metrics, key=int) == ["101", "211", "311", "1009"]
    with mpmath.workdps(50):
        for p in (101, 211, 311, 1009):
            t = iroot(p**3, 5)
            t += t**5 < p**3
            ctx = build_context(p)
            m = ctx.order
            roots = exact_unit_roots(m)
            inds = [ctx.table[n] for n in range(1, t + 1)]  # t < p: all units
            exact = max(abs(mpmath.fsum(roots[k * i % m] for i in inds))
                        for k in range(1, m)) / t
            assert metrics[str(p)]["t"] == t
            assert abs(metrics[str(p)]["max_ratio"] - exact) <= 1e-12 * exact, p
