"""The `verify` config and its y-rule: the check groups, the exact
rationals that a y-rule's exponent and `factorize --epsilon` are read as,
and the theorem check, the one check that reads the y-rule.

`fractions` loads in `parse_fraction`, where the first Fraction is made, so
a spectrum sweep and its workers never load it.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, NamedTuple

from . import modcore, subsetprod
from .checks import CheckRecord
from .sweep import _check_range

if TYPE_CHECKING:
    from fractions import Fraction

ALL_CHECKS = ("spectrum", "theorem", "lemmas", "factorization", "friable", "burgess")
# factorize --epsilon and a y-rule's exponent are exact rationals with
# |numerator| and denominator at most this.  Fraction expands a decimal
# exponent into a power of ten (1e999999 takes about 0.7 s, 1e9999999 does
# not finish), so an exponent of more than six digits is refused before it
# is expanded.
MAX_FRACTION_TERM = 10**4
_DECIMAL_EXPONENT = re.compile(r"[eE][+-]?0*(\d+)")
# The theorem check compares the rule's y against this rule's, ceil(p^0.25),
# at these primes.
THEOREM_PRIMES = (101, 211, 401, 1009)
SMALL_Y_RULE = "p^0.25"


class SweepConfig(NamedTuple):
    """The config of a `verify` run."""

    p_min: int = 3
    p_max: int = 1009
    checks: tuple[str, ...] = ALL_CHECKS
    y_rule: str = "p^0.6"
    workers: int = 1
    seed: int = 0

    def validate(self) -> None:
        _check_range(self.p_min, self.p_max, self.workers)
        unknown = set(self.checks) - set(ALL_CHECKS)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        try:
            y_rule = parse_y_rule(self.y_rule)
        except ValueError as exc:
            raise ValueError(f"bad y-rule {self.y_rule!r}: {exc}") from exc
        if "theorem" in self.checks:
            y_small = parse_y_rule(SMALL_Y_RULE)
            for p in THEOREM_PRIMES:
                if p <= self.p_max and y_rule(p) <= y_small(p):
                    raise ValueError(
                        f"y-rule {self.y_rule!r} gives y={y_rule(p)} at p={p}; the "
                        f"theorem check needs y above ceil(p^0.25)"
                    )


def parse_y_rule(rule: str):
    """Parse a per-prime y choice: either 'p^<exponent>' or an integer constant.

    The exponent is an exact rational a/b ('0.6', '3/5', '2', see
    `parse_fraction`); y is then the least y with y^b >= p^a.  Results are
    clamped to [1, p-1].
    """
    rule = rule.strip()
    if rule.startswith("p^"):
        exponent = parse_fraction(rule[2:])
        return lambda p: subsetprod.theorem_y(p, exponent)
    value = int(rule)
    return lambda p: min(p - 1, max(1, value))


def parse_fraction(text: str) -> Fraction:
    """text ('19/100', '0.19', '2', '1e-3') as an exact fraction whose
    |numerator| and denominator are at most MAX_FRACTION_TERM; ValueError
    for anything else, including inf, nan and a zero denominator."""
    from fractions import Fraction
    exponent = _DECIMAL_EXPONENT.search(text)
    if exponent and len(exponent.group(1)) > 6:
        raise ValueError("decimal exponent of more than six digits")
    try:
        value = Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError("zero denominator") from exc
    if max(abs(value.numerator), value.denominator) > MAX_FRACTION_TERM:
        raise ValueError(f"numerator or denominator above {MAX_FRACTION_TERM}")
    return value


def check_theorem_error(y_rule: str, p_max: int) -> list[CheckRecord]:
    """The normalized error ratio at the rule's y and at ceil(p^0.25).

    The check passes when the ratio at the rule's y is finite and at most
    the ratio at the small y.  With D_y(b) = S_y(b) - 2^y/(p-1), taking or
    skipping n = y+1 gives D_{y+1}(b) = D_y(b) + D_y(b/(y+1)), so
    max |D_{y+1}| <= 2 max |D_y| and the ratio max |D_y| p^2 / 2^y never
    increases in y; it can stay level (p = 401 at y = 5 and 6).
    """
    rule, small_rule = parse_y_rule(y_rule), parse_y_rule(SMALL_Y_RULE)
    ratios = {}
    shrink_ok = True
    for p in THEOREM_PRIMES:
        if p > p_max:
            continue
        y_main = rule(p)
        y_small = small_rule(p)
        ctx = modcore.build_context(p)
        ratio = {
            dp.y: subsetprod.error_report(dp)
            for dp in subsetprod.subset_product_prefixes(ctx, (y_small, y_main))
        }
        r_main, r_small = ratio[y_main], ratio[y_small]
        ratios[str(p)] = {
            "y": y_main,
            "ratio": r_main,
            "y_small": y_small,
            "ratio_small": r_small,
        }
        if not (math.isfinite(r_main) and r_main <= r_small):
            shrink_ok = False
    report = CheckRecord(
        name="theorem_error_ratio",
        params={"y_rule": y_rule, "y_small_rule": SMALL_Y_RULE},
        status="REPORT",
        metrics=ratios,
    )
    monotone = CheckRecord(
        name="theorem_error_shrinks",
        params={"primes": sorted(int(p) for p in ratios)},
        status="PASS" if shrink_ok else "FAIL",
        metrics={},
    )
    return [report, monotone]
