"""The `verify` config and its y-rule: the check groups, the exact
rationals that a y-rule's exponent and `factorize --epsilon` are read as,
and the y each rule gives at the theorem primes.

`fractions` loads in `parse_fraction` and `theorem_y`, where a Fraction is
first made, so a spectrum sweep and its workers never load it.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, NamedTuple

from .modcore import iroot, iter_primes
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
# at THEOREM_PRIMES; the burgess check bounds character sums at BURGESS_PRIMES.
THEOREM_PRIMES = (101, 211, 401, 1009)
BURGESS_PRIMES = (101, 211, 311, 1009)
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
            parse_y_rule(self.y_rule)
        except ValueError as exc:
            raise ValueError(f"bad y-rule {self.y_rule!r}: {exc}") from exc
        # a group with none of its primes in range would check nothing (the
        # lemmas' near-one scan first meets the lemma's hypothesis at p = 5)
        for group, least in (("theorem", THEOREM_PRIMES[0]), ("lemmas", 5),
                             ("burgess", BURGESS_PRIMES[0])):
            if group in self.checks and self.p_max < least:
                raise ValueError(f"the {group} check needs pmax >= {least}, "
                                 f"its least prime; got pmax={self.p_max}")
        if "spectrum" in self.checks and next(iter_primes(self.p_min, self.p_max), None) is None:
            raise ValueError(f"the spectrum check needs a prime in [{self.p_min}, {self.p_max}]")
        if "theorem" in self.checks:
            for p, y, y_small in theorem_ys(self.y_rule, self.p_max):
                if y <= y_small:
                    raise ValueError(
                        f"y-rule {self.y_rule!r} gives y={y} at p={p}; the "
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
        return lambda p: theorem_y(p, exponent)
    value = int(rule)
    return lambda p: min(p - 1, max(1, value))


def theorem_y(p: int, exponent: int | Fraction | None = None) -> int:
    """ceil(p^exponent), clamped to [1, p-1], decided exactly; the exponent
    is 3/5 when none is given.

    For exponent = a/b that is the least y with y^b >= p^a, found from the
    integer root iroot(p^a, b).  The exponent must be exact (an int or a
    Fraction): a float's binary denominator would make p^a enormous.
    """
    from fractions import Fraction
    if exponent is None:
        exponent = Fraction(3, 5)
    if not isinstance(exponent, (int, Fraction)):
        raise TypeError(f"exponent {exponent!r} must be an int or a Fraction")
    a, b = exponent.numerator, exponent.denominator
    if a <= 0:
        y = 1  # p^exponent <= 1
    elif a >= b:
        y = p  # p^exponent >= p: clamped below
    else:
        y = iroot(p**a, b)
        y += y**b < p**a
    return min(p - 1, max(1, y))


def theorem_ys(y_rule: str, p_max: int) -> list[tuple[int, int, int]]:
    """(p, y, y_small) at each of THEOREM_PRIMES up to p_max: the y that
    y_rule gives and the y of SMALL_Y_RULE, ceil(p^0.25)."""
    rule, small_rule = parse_y_rule(y_rule), parse_y_rule(SMALL_Y_RULE)
    return [(p, rule(p), small_rule(p)) for p in THEOREM_PRIMES if p <= p_max]


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
