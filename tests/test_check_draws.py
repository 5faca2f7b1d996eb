"""A randomized check's PASS says what it drew.

A check reports only how many of its draws failed, so one that silently
draws nothing (every k-way instance n = 1) passes with the same report.
Each test draws at the seed `verify` gives the check by default, with the
check's own generator from `subproducts.checks`, or with the check itself
and a spy on the function its draws go to.  It pins a digest of the draws
and a few facts about their spread: the share of trivial draws, the
largest k, and how close the draws come to their size bound.  None of it
enters the report, whose bytes are pinned elsewhere.
"""

import hashlib
import math
import random
from fractions import Fraction

from subproducts import characters, checks, friable, subsetprod


def digest(draws):
    return hashlib.sha256(repr(draws).encode()).hexdigest()


def test_kway_harness_draws_at_seed_2():
    rng = random.Random(2)
    draws = [checks._random_kway_instance(rng) for _ in range(10_000)]
    assert digest(draws) == "7e8671a5ea0379f25f16544b430d9b9ef6126aba44917887a9e71ad8fe2a5536"
    # n = 1 has nothing to split
    assert sum(n == 1 for n, _, _ in draws) == 976
    assert max(k for _, _, k in draws) == 6
    # the size hypothesis n^2 <= y^(k+1) is met with equality by some draw
    assert max(Fraction(n * n, y ** (k + 1)) for n, y, k in draws) == 1


def test_ranged_harness_draws_at_seed_3():
    rng = random.Random(3)
    draws = [checks._random_ranged_instance(rng) for _ in range(10_000)]
    assert digest(draws) == "31fd06f4614c7a18b222cf91e582a242f12649633e8e7586a93a23cce387234e"
    # k = 1 admits only the split (n,)
    assert sum(k == 1 for _, _, k, _ in draws) == 1659
    assert max(k for _, _, k, _ in draws) == 6
    # y^(k/2+eps) < n < y^((k+1)/2): the draws come close to both ends
    lower = [friable.ranged_bounds(y, k, eps.numerator, eps.denominator)[0]
             for _, y, k, eps in draws]
    assert min(Fraction(n, root) for (n, _, _, _), root in zip(draws, lower)) == Fraction(1102, 1101)
    assert max(Fraction(n * n, y ** (k + 1)) for n, y, k, _ in draws) == Fraction(
        104019601, 104060401)


def test_circle_lemma_draws_at_seed_1(monkeypatch):
    draws = []
    bound, angle = characters.circle_lemma_bound, characters.char_angle
    monkeypatch.setattr(characters, "circle_lemma_bound",
                        lambda k, delta: draws.append([k, delta]) or bound(k, delta))
    monkeypatch.setattr(characters, "char_angle",
                        lambda ctx, k, n: draws[-1].extend((k, n)) or angle(ctx, k, n))
    assert checks.check_lemma_circle(1).status == "PASS"
    # per tuple: its size k, delta, the character and the product of k draws
    assert len(draws) == 2000
    assert digest(draws) == "28631f0d7ccbb039b71e8bad973c15ca096d6e742e7168c8c0cfffe813776f22"
    # one factor is the product itself
    assert sum(k == 1 for k, _, _, _ in draws) == 342
    assert max(k for k, _, _, _ in draws) == 6
    # delta is drawn below 1.999 sin(pi/2k), the lemma's range
    closest = max(delta / (1.999 * math.sin(math.pi / (2 * k))) for k, delta, _, _ in draws)
    assert 0.999 < closest < 1


def test_mass_conservation_draws_at_seed_0(monkeypatch):
    draws = []

    def spy(ctx, ys):  # the fold is skipped: the check sees no prefixes and passes
        draws.extend((ctx.p, y, count) for y, count in sorted(ys.items()))
        return []

    monkeypatch.setattr(subsetprod, "subset_product_prefixes", spy)
    assert checks.check_mass_conservation(0, 1009).status == "PASS"
    # (p, y, how often it was drawn), in the order the check folds them
    assert sum(count for _, _, count in draws) == 1000
    assert digest(draws) == "ce23d2243cc29d5596f5545d971e6857f2e1f52f3ae540bd9928f444c3fe4975"
    # y = 1 is a single step
    assert sum(count for _, y, count in draws if y == 1) == 15
    assert len({p for p, _, _ in draws}) == 166
    assert max(p for p, _, _ in draws) == 1009
    # y = p - 1, the most a pair may draw, is reached
    assert sum(count for p, y, count in draws if y == p - 1) == 11
