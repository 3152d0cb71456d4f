"""Exact rendering helpers for rationals and large integers.

Counts and boundaries can exceed 64-bit consumer limits, so JSON documents
carry them as decimal strings; rationals are rendered both as "p/q" and as a
truncated decimal computed with integer arithmetic (no float range issues).
"""

from __future__ import annotations

import sys
from fractions import Fraction


def check_digits(x: int, what: str) -> int:
    """x, or a ValueError naming what when str(x) is past Python's digit limit."""
    limit = sys.get_int_max_str_digits()
    # below 3*limit bits x < 8^limit: 10^limit is built only for a longer x
    if limit and x.bit_length() > 3 * limit and x >= 10**limit:
        raise ValueError(
            f"{what} has more than {limit} digits; integers are limited to {limit} digits"
        )
    return x


def fraction_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def fraction_decimal(fr: Fraction, digits: int = 6) -> str:
    sign = "-" if fr < 0 else ""
    num, den = abs(fr.numerator), fr.denominator
    whole, rem = divmod(num, den)
    frac = rem * 10**digits // den
    return f"{sign}{whole}.{frac:0{digits}d}"
