import gc
import math
import random
import struct
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subproducts import modcore, subsetprod
from subproducts.cli import check_dp_vs_characters
from subproducts.config import theorem_y
from subproducts.modcore import SMALL_PRIME_LIMIT, build_context, primes_between
from subproducts.subsetprod import (
    counts_via_characters,
    CoverageState,
    coverage_consume,
    coverage_threshold,
    enumerate_subset_counts,
    error_report,
    subset_product_counts,
    subset_product_prefixes,
    prime_coverage_threshold,
    progression_coverage_threshold,
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


def residue_walk_counts(p, elements, start=None):
    """Oracle: take-or-skip over residues, one Python int per residue, from
    the counts `start` (by default the empty subset alone)."""
    if start is None:
        start = [0] * p
        start[1 % p] = 1
    counts = start
    for n in elements:
        new = list(counts)  # skip n ...
        for b, c in enumerate(counts):
            new[b * n % p] += c  # ... or take it
        counts = new
    return tuple(counts)


def residues(state):
    """The residues a coverage state reaches, ascending: those whose index
    bit is set in its mask."""
    ind = state.ctx.table
    return [r for r in range(1, state.ctx.p) if state.mask >> ind[r] & 1]


def reached(dp):
    """The residues b >= 1 with S_y(b) > 0, ascending."""
    return [b for b in range(1, dp.p) if dp.counts[b] > 0]


def reach(ctx, elements):
    """Coverage after consuming the elements in order."""
    state = CoverageState(ctx, 1)
    for n in elements:
        state = coverage_consume(state, n)
    return state


# --- coverage ---------------------------------------------------------------


def test_coverage_consume_examples():
    ctx5 = build_context(5)
    assert residues(CoverageState(ctx5, 1)) == [1]
    assert residues(reach(ctx5, [1])) == [1]

    s = reach(ctx5, [2, 3])
    assert residues(s) == [1, 2, 3]
    assert residues(coverage_consume(s, 4)) == [1, 2, 3, 4]

    ctx7 = build_context(7)
    s = reach(ctx7, [2, 3])
    assert residues(s) == [1, 2, 3, 6]
    assert residues(coverage_consume(s, 4)) == [1, 2, 3, 4, 5, 6]
    # cross-check: exhaustive enumeration over subsets of {2,3,4}
    assert set(residues(coverage_consume(s, 4))) == brute_reachable(7, [2, 3, 4])


def test_coverage_rejects_multiples():
    ctx = build_context(5)
    with pytest.raises(ValueError, match="element 10 is divisible by 5"):
        coverage_consume(CoverageState(ctx, 1), 10)
    with pytest.raises(ValueError, match="element -5 is divisible by 5"):
        reach(ctx, [2, 3, -5])


def test_coverage_matches_brute_enumeration():
    for p in (5, 7, 11, 13):
        ctx = build_context(p)
        state = CoverageState(ctx, 1)
        for y in range(1, 13):
            if y % p != 0:  # callers skip multiples of p
                state = coverage_consume(state, y)
            assert set(residues(state)) == brute_reachable(p, range(1, y + 1))
            assert state.mask & 1  # the empty product


def test_coverage_monotone():
    ctx = build_context(101)
    state = CoverageState(ctx, 1)
    prev = set(residues(state))
    for n in range(1, 40):
        state = coverage_consume(state, n)
        cur = set(residues(state))
        assert prev <= cur
        prev = cur


def test_y_of_p_examples():
    assert coverage_threshold(build_context(2)) == 1
    assert coverage_threshold(build_context(5)) == 4
    assert coverage_threshold(build_context(7)) == 4


def test_y_of_p_against_brute():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        expected = next(
            y
            for y in range(1, p)
            if brute_reachable(p, range(1, y + 1)) == set(range(1, p))
        )
        assert coverage_threshold(build_context(p)) == expected


def test_y_prime_against_brute():
    for p in primes_between(2, 31):
        expected = next(
            (
                y
                for y in range(1, p)
                if brute_reachable(p, primes_between(2, y)) == set(range(1, p))
            ),
            None,
        )
        assert prime_coverage_threshold(build_context(p)) == expected


def test_y_prime_examples():
    assert prime_coverage_threshold(build_context(2)) == 1
    # residue 4 unreachable from {2,3,5}
    assert prime_coverage_threshold(build_context(7)) is None
    # exhaustive oracle over subsets of the primes 2,3,5,7
    assert brute_reachable(11, [2, 3, 5, 7]) == set(range(1, 11))
    assert brute_reachable(11, [2, 3, 5]) != set(range(1, 11))
    assert prime_coverage_threshold(build_context(11)) == 7


@pytest.mark.usefixtures("cold_prime_caches")
def test_prime_walk_goes_past_the_cached_primes(monkeypatch):
    # no y' found so far reaches SMALL_PRIME_LIMIT, so only this test walks
    # into the sieve windows above the cached primes, as the walk at p reads
    # them: iter_primes(2, p - 1), in one window and in many
    for window in (modcore.PRIME_WINDOW, 7):
        monkeypatch.setattr(modcore, "PRIME_WINDOW", window)
        for p in (2, 3, 4091, SMALL_PRIME_LIMIT + 1, SMALL_PRIME_LIMIT + 2, 10007):
            assert list(modcore.iter_primes(2, p - 1)) == primes_between(2, p - 1)


def test_y_prime_at_least_y():
    for p in primes_between(2, 300):
        if p < 3:
            continue
        ctx = build_context(p)
        yp = None
        state = CoverageState(ctx, 1)
        primes = set(primes_between(2, p - 1))
        for v in range(1, p):
            if v in primes:
                state = coverage_consume(state, v)
            if state.mask == ctx.full_mask:
                yp = v
                break
        assert prime_coverage_threshold(ctx) == yp
        if yp is not None:
            assert yp >= coverage_threshold(ctx)


def test_progression_examples():
    ctx2, ctx5, ctx7 = build_context(2), build_context(5), build_context(7)
    assert progression_coverage_threshold(ctx5, 1, 1, 10) == 4  # agrees with y(5)
    assert progression_coverage_threshold(ctx5, 5, 5, 10) is None  # every term skipped
    # mod 2 the only unit is 1, covered before any term: all-skipped still covers
    assert progression_coverage_threshold(ctx2, 2, 1, 5) == 1
    assert progression_coverage_threshold(ctx2, 2, 2, 1) == 1
    # a, d = 0 mod p decides at once however long the progression
    assert progression_coverage_threshold(ctx7, 7, 7, 10**12) is None
    with pytest.raises(ValueError, match="y_max=0 must be >= 1"):
        progression_coverage_threshold(ctx7, 2, 3, 0)
    # direct simulation oracle for (p=7, a=2, d=3)
    expected = next(
        (
            y
            for y in range(1, 21)
            if brute_reachable(7, [2 + 3 * j for j in range(y)]) == set(range(1, 7))
        ),
        None,
    )
    assert progression_coverage_threshold(ctx7, 2, 3, 20) == expected == 4


def test_progression_bad_difference():
    with pytest.raises(ValueError, match="difference 10 is a multiple of 5"):
        progression_coverage_threshold(build_context(5), 1, 10, 8)


def test_progression_equals_y_of_p():
    for p in (5, 11, 31, 101):
        ctx = build_context(p)
        assert progression_coverage_threshold(ctx, 1, 1, p) == coverage_threshold(ctx)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(primes_between(2, 13)),
    a=st.integers(min_value=-40, max_value=40),
    d=st.integers(min_value=-40, max_value=40),
    y_max=st.integers(min_value=1, max_value=12),
)
@example(p=2, a=1, d=2, y_max=5)
def test_progression_against_brute(p, a, d, y_max):
    if p > 2 and d % p == 0 and a % p:
        with pytest.raises(ValueError, match=f"difference {d} is a multiple of {p}"):
            progression_coverage_threshold(build_context(p), a, d, y_max)
        return
    expected = next(
        (
            y
            for y in range(1, y_max + 1)
            if brute_reachable(p, [a + j * d for j in range(y)]) == set(range(1, p))
        ),
        None,
    )
    assert progression_coverage_threshold(build_context(p), a, d, y_max) == expected


# --- exact counts -----------------------------------------------------------


def test_subset_product_counts_examples():
    assert subset_product_counts(5, 3).counts == (0, 4, 2, 2, 0)
    assert subset_product_counts(3, 2).counts == (0, 2, 2)
    assert subset_product_counts(7, 1).counts == (0, 2, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="y=0 must be >= 1"):
        subset_product_counts(7, 0)


def test_counts_match_enumeration():
    for p in (3, 5, 7, 11, 13):
        for y in range(1, 15):
            assert subset_product_counts(p, y).counts == enumerate_subset_counts(p, y)


def test_counts_match_residue_walk_random():
    rng = random.Random(11)
    ps = primes_between(2, 1009)
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
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            subset_product_counts(p, 3)
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            build_context(p)


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from(primes_between(2, 211)),
    ys=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=4),
)
@example(p=13, ys=[200, 13, 1, 64, 12, 13])
def test_prefix_snapshots_match_single_folds(p, ys):
    # ys >= p fill the zero slot; long folds cross slot regrowths
    snapshots = list(subset_product_prefixes(build_context(p), ys))
    assert [s.y for s in snapshots] == sorted(set(ys))
    for s in snapshots:
        assert s.p == p
        assert s.counts == residue_walk_counts(p, range(1, s.y + 1))
        assert s.counts == subset_product_counts(p, s.y).counts


PRIMES_1_MOD_3 = [q for q in primes_between(2, 400) if q % 3 == 1]
PRIMES_2_MOD_3 = [q for q in primes_between(2, 400) if q % 3 == 2]


@st.composite
def fold_requests(draw):
    """A prime <= 400, p = 1 or 2 mod 3 equally often (order-3 characters
    make the deviations grow faster when 3 | p-1), and up to three prefix
    lengths up to 3p, so zero steps fall between slot regrowths."""
    p = draw(st.sampled_from(PRIMES_1_MOD_3) | st.sampled_from(PRIMES_2_MOD_3))
    ys = draw(st.lists(st.integers(1, 3 * p), min_size=1, max_size=3))
    return p, ys


def assert_prefixes_match_walk(p, ys):
    walk, n = None, 0
    for s in subset_product_prefixes(build_context(p), ys):
        walk, n = residue_walk_counts(p, range(n + 1, s.y + 1), walk), s.y
        assert s.counts == walk, (p, s.y)


@settings(max_examples=30, deadline=None)
@given(case=fold_requests())
@example(case=(2, [1, 2, 5, 6]))  # p-1 = 1: the starting mean is 1, not 0
@example(case=(3, [1, 2, 3, 9]))
@example(case=(7, [1, 2, 6, 7, 20]))  # cosets of q = 2 slots
@example(case=(397, [396, 1191]))
@example(case=(997, [501, 996, 1000]))  # the deviation peaks at y = 501
@example(case=(1009, [1008, 1010]))
def test_deviation_fold_matches_residue_walk(case):
    assert_prefixes_match_walk(*case)


@settings(max_examples=30, deadline=None)
@given(case=fold_requests())
@example(case=(2, [1, 6]))
@example(case=(3, [2, 9]))
@example(case=(7, [6, 20]))
@example(case=(397, [396, 1191]))
@example(case=(997, [996, 1000]))
@example(case=(1009, [1008, 1010]))
def test_deviation_fold_matches_residue_walk_testing_every_step(case):
    # a rebias and headroom test before every unit step, on 1-byte slots
    # that widen a byte at a time and are rebiased and tested again
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subsetprod, "HEADROOM_INTERVAL", 1)
        mp.setattr(subsetprod, "SLOT_BYTES", 1)
        assert_prefixes_match_walk(*case)


def test_failed_headroom_test_widens_once_and_retests():
    # "r" for each rebias, "w" for each widening: a failed test widens, and
    # the retest after it always passes, so "w r w" never occurs
    events = []
    rebias, widen = subsetprod._rebias, subsetprod._widen

    def rebias_spy(*args):
        events.append("r")
        return rebias(*args)

    def widen_spy(*args):
        events.append("w")
        return widen(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subsetprod, "HEADROOM_INTERVAL", 1)
        mp.setattr(subsetprod, "SLOT_BYTES", 1)
        mp.setattr(subsetprod, "_rebias", rebias_spy)
        mp.setattr(subsetprod, "_widen", widen_spy)
        for p, y in ((397, 1191), (1009, 1010)):
            events.clear()
            assert_prefixes_match_walk(p, [y])
            trace = "".join(events)
            assert "rw" in trace and "wrw" not in trace, p


@st.composite
def rebias_cases(draw):
    """The state before a rebias of 2-byte slots tested every 3 steps
    (w = 16, t = 12) in d = 1 or 3 cosets: a bias 2^t <= B <= 2^(w-1),
    lifts 0 <= D // q < 2^3, and slots 0 <= V < 2^w drawn near the edges
    T = V - lift - B = +-2^t and anywhere."""
    d = draw(st.sampled_from([1, 3]))
    bias = 1 << 12 + draw(st.integers(0, 3))
    lift = draw(st.lists(st.integers(0, 7), min_size=d, max_size=d))
    vs = []
    for i in range(d * draw(st.integers(1, 3))):
        mid = lift[i % d] + bias
        v = draw(
            st.integers(mid - (1 << 12) - 2, mid - (1 << 12) + 1)
            | st.integers(mid + (1 << 12) - 2, mid + (1 << 12) + 1)
            | st.integers(0, (1 << 16) - 1)
        )
        vs.append(min(max(v, 0), (1 << 16) - 1))
    return bias, lift, vs


@settings(max_examples=200, deadline=None)
@given(case=rebias_cases())
@example(case=(1 << 15, [0], [1 << 15, 0]))  # only a negative top slot fails
@example(case=(1 << 15, [7, 7, 7], [0, 0, 0]))  # the lowest v every slot can reach
@example(case=(1 << 12, [0], [(1 << 13) - 1, 0]))  # T = 2^t - 1 and -2^t pass
@example(case=(1 << 12, [0], [1 << 13, 0]))  # T = 2^t fails
def test_headroom_test_passes_exactly_inside_the_bound(case):
    # the rebias-then-& high test passes iff every -2^t <= T < 2^t, and then
    # the rebiased slots hold exactly T + 2^t
    bias, lift, vs = case
    d, m = len(lift), len(vs)
    w, _, _, t, high, decoder = subsetprod._layout(m, 2, 3)
    assert (w, t) == (16, 12)
    c = sum(v << w * i for i, v in enumerate(vs))
    cut = subsetprod._rebias(c, lift, bias, t, 2, m // d)
    ts = [v - lift[i % d] - bias for i, v in enumerate(vs)]
    fits = all(-(1 << t) <= dev < 1 << t for dev in ts)
    assert (not cut & high) == fits
    if fits:
        assert subsetprod._slots(cut, m, 2, decoder) == [dev + (1 << t) for dev in ts]


def cubic_coset_deviations(p, ys):
    """For each y of ys, max_b |S_y(b) - floor mean of S_y over b's coset of
    the cubes| (one coset when 3 does not divide p-1), the cosets read off
    b^((p-1)/d) rather than off discrete logs."""
    d = 3 if (p - 1) % 3 == 0 else 1
    cosets = defaultdict(list)
    for b in range(1, p):
        cosets[pow(b, (p - 1) // d, p)].append(b)
    for s in subset_product_prefixes(build_context(p), ys):
        devs = []
        for bs in cosets.values():
            cs = [s.counts[b] for b in bs]
            mean = sum(cs) // len(cs)
            devs += (abs(c - mean) for c in cs)
        yield max(devs)


def test_deviation_slots_stay_narrow():
    # the slots track the deviation from each cubic coset's floor mean, not
    # the y-bit counts.  At y = p-1 it has 137 bits at p = 1009 (328 from
    # the plain mean), 9 at p = 997 and 86 at p = 1013.  Slots never narrow,
    # so a slot is wider than the peak deviation over the fold (69 bits at
    # p = 997, y = 501) and at most 64 bits wider
    widths = {}
    slots = subsetprod._slots

    def spy(c, m, wb, decoder):
        widths[m + 1] = 8 * wb
        return slots(c, m, wb, decoder)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subsetprod, "_slots", spy)
        for p, last, peak in ((1009, 137, 146), (997, 9, 69), (1013, 86, 86)):
            bits = [dev.bit_length() for dev in cubic_coset_deviations(p, range(1, p))]
            assert (bits[-1], max(bits)) == (last, peak)
            assert peak < widths[p] <= peak + 64
    (s,) = subset_product_prefixes(build_context(1009), [1008])
    mu = 2**1008 // 1008
    assert max(abs(c - mu) for c in s.counts[1:]).bit_length() == 328


def test_count_folds_leave_no_slot_format_behind():
    # these folds snapshot 12- and 20-byte slots, each decoded by a format of
    # about a thousand codes.  A fold keeps its decoders to itself, so once it
    # ends nothing of them stays: not in struct's module cache either, which
    # is cleared first, as an earlier test may have filled it to its
    # 100-format limit, where it empties itself
    cases = ((1009, 504), (1009, 1008), (1013, 506), (1013, 1012), (997, 498), (997, 996))

    def fold():
        for p, y in cases:
            subset_product_counts(p, y)

    fold()  # fills the caches that modcore keeps on purpose
    struct._clearcache()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fold()
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert left < 4096, left


def test_prefix_fold_requests():
    ctx = build_context(7)
    assert list(subset_product_prefixes(ctx, [])) == []
    with pytest.raises(ValueError, match="y=0 must be >= 1"):
        subset_product_prefixes(ctx, [3, 0])


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from(primes_between(2, 211)), data=st.data())
def test_counts_reached_equals_coverage(p, data):
    y = data.draw(st.integers(min_value=1, max_value=2 * p + 5))
    state = CoverageState(build_context(p), 1)
    for n in range(1, y + 1):
        if n % p:  # multiples of p only add products divisible by p
            state = coverage_consume(state, n)
    assert reached(subset_product_counts(p, y)) == residues(state)


def test_counts_mass_conservation():
    rng = random.Random(0)
    for _ in range(60):
        p = rng.choice(primes_between(3, 211))
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
        threshold = coverage_threshold(build_context(p))
        below = subset_product_counts(p, threshold - 1)
        at = subset_product_counts(p, threshold)
        assert min(below.counts[1:]) == 0
        assert min(at.counts[1:]) > 0
        assert reached(at) == list(range(1, p))


@settings(max_examples=21, deadline=None)
@given(p=st.sampled_from(primes_between(2, 10**5)))
@example(p=2)
@example(p=3)
@example(p=99991)
def test_coverage_walk_and_count_dp_agree(p):
    # the bitset walk's y is the first y whose exact counts S_y have no zero
    # unit count: S_y has none, and S_{y-1} has one whenever y > 1
    ctx = build_context(p)
    y = coverage_threshold(ctx)
    *below, at = subset_product_prefixes(ctx, [y - 1, y] if y > 1 else [y])
    assert at.y == y and min(at.counts[1:]) > 0
    if y > 1:
        assert below[0].y == y - 1 and min(below[0].counts[1:]) == 0


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


def test_dp_vs_characters_verdicts_are_far_from_their_tolerance(monkeypatch):
    # every (p, y) of the default `dp_vs_characters` check (p <= 31,
    # y <= 30): dev / tol in exact rationals, from the float values the
    # check compared against counts from a plain residue DP.  A ratio below
    # 1e-6 leaves dev > tol no room to flip under the rounding of dev or tol.
    approxes = {}

    def recorded(ctx, y):
        approxes[ctx.p, y] = counts_via_characters(ctx, y)
        return approxes[ctx.p, y]

    monkeypatch.setattr(subsetprod, "counts_via_characters", recorded)
    record = check_dp_vs_characters(31)
    assert record.metrics["failures"] == 0
    assert sorted(approxes) == [(p, y) for p in primes_between(3, 31) for y in range(1, 31)]
    worst = Fraction(0)
    for p in primes_between(3, 31):
        counts = [0, 1] + [0] * (p - 2)  # the empty product is 1
        for y in range(1, 31):
            if y % p:
                counts = [c + counts[b * pow(y, -1, p) % p] for b, c in enumerate(counts)]
            approx = approxes[p, y]
            dev = max(abs(counts[b] - Fraction(approx[b])) for b in range(1, p))
            tol = Fraction(2**y, 10**6 * (p - 1)) + Fraction(1, 10**6)
            worst = max(worst, dev / tol)
    assert worst < Fraction(1, 10**6)
    assert record.metrics["worst_dev_over_tol"] == pytest.approx(float(worst), rel=1e-12, abs=0)


def test_counts_via_characters_precision_guard():
    ctx = build_context(101)
    with pytest.raises(ValueError, match=r"y=61 exceeds the double-precision guarantee \(60\)"):
        counts_via_characters(ctx, 61)


# --- error reports ----------------------------------------------------------


def test_error_report_examples():
    # S_3(b) mod 5 is 4, 2, 2, 0 for b = 1..4, about the mean 2^3/4 = 2: the
    # worst error is 2, so the ratio is 2 * 5^2 / 2^3
    assert error_report(subset_product_counts(5, 3)) == 6.25
    assert error_report(subset_product_counts(3, 2)) == 0.0
    assert 0 < error_report(subset_product_counts(101, 60)) < 1


def test_error_report_recomputable():
    counts = subset_product_counts(13, 9).counts
    worst = max(abs(Fraction(c) - Fraction(2**9, 12)) for c in counts[1:])
    assert error_report(subset_product_counts(13, 9)) == float(worst * 13 * 13 / 2**9)
    (dp,) = subset_product_prefixes(build_context(13), [13])
    with pytest.raises(ValueError, match="need 1 <= y < p, got y=13, p=13"):
        error_report(dp)


def test_error_report_from_fold_snapshots():
    # one fold's snapshots give the same reports as one fold per y
    for p in (5, 13, 101):
        ys = range(1, min(p, 40))
        for dp in subset_product_prefixes(build_context(p), ys):
            assert error_report(dp) == error_report(subset_product_counts(p, dp.y))
            # the exact rational max |S(b) - 2^y/(p-1)| p^2 / 2^y, rounded once
            max_scaled = max(abs(dp.counts[b] * (p - 1) - (1 << dp.y)) for b in range(1, p))
            assert error_report(dp) == float(Fraction(max_scaled * p * p, (p - 1) << dp.y))
    (dp,) = subset_product_prefixes(build_context(5), [5])
    with pytest.raises(ValueError, match="need 1 <= y < p, got y=5, p=5"):
        error_report(dp)


def test_theorem_y_is_exact_ceiling():
    # least y with y^b >= p^a, clamped to [1, p-1]
    for p in primes_between(2, 3000):
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
