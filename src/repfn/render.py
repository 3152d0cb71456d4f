"""Exact rendering helpers for rationals and large integers.

Counts and boundaries can exceed 64-bit consumer limits, so JSON documents
carry them as decimal strings; rationals are rendered both as "p/q" and as a
truncated decimal computed with integer arithmetic (no float range issues).
"""

from __future__ import annotations

from fractions import Fraction


def fraction_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def fraction_decimal(fr: Fraction, digits: int = 6) -> str:
    sign = "-" if fr < 0 else ""
    num, den = abs(fr.numerator), fr.denominator
    whole, rem = divmod(num, den)
    frac = rem * 10**digits // den
    return f"{sign}{whole}.{frac:0{digits}d}"
