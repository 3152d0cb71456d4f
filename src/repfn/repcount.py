"""Weighted and classic representation counters.

The central quantity is the number of ordered pairs (a1, a2) of members of a
set S with k1*a1 + k2*a2 = n.  Two independent routes are provided: a plain
O(n) enumeration (`count_weighted_oracle`) kept as a reference, and a
closed-form counter (`count_weighted`) that walks the pairs of blocks that can
meet and counts lattice points of the induced arithmetic progression, so its
cost grows with the number of blocks below n rather than with n itself.

Classic unweighted counters come in three flavors over a + a' = n:
ordered pairs (R1), a < a' (R2), and a <= a' (R3).  They are tied together by
R1 = 2*R2 + delta and R3 = R2 + delta, where delta is 1 exactly when n is
even and n/2 is a member.
"""

from __future__ import annotations

from bisect import bisect_right
from math import gcd

from .blockset import BlockSet

CLASSIC_VARIANTS = ("R1", "R2", "R3")


def _check_args(n: int, w: tuple[int, int]) -> tuple[int, int]:
    if n < 0:
        raise ValueError(f"target n must be nonnegative, got {n}")
    k1, k2 = int(w[0]), int(w[1])
    if k1 < 1 or k2 < 1:
        raise ValueError(f"weights must be positive integers, got {w!r}")
    return k1, k2


def count_weighted_oracle(s: BlockSet, n: int, w: tuple[int, int]) -> int:
    """Reference counter: enumerate a2 = 0..n//k2 and test membership."""
    k1, k2 = _check_args(n, w)
    member = s.membership(n)
    count = 0
    for a2 in range(n // k2 + 1):
        if not member(a2):
            continue
        rem = n - k2 * a2
        if rem % k1 == 0 and member(rem // k1):
            count += 1
    return count


def count_weighted(s: BlockSet, n: int, w: tuple[int, int]) -> int:
    """Count pairs (a1, a2) in S x S with k1*a1 + k2*a2 = n, in closed form.

    For each a2-block [lo2,hi2) and a1-block [lo1,hi1), the valid a2 form an
    integer window intersected with one residue class: a1 = (n - k2*a2)/k1
    lands in [lo1,hi1) iff (n - k1*(hi1-1))/k2 <= a2 <= (n - k1*lo1)/k2, and
    divisibility by k1 pins a2 to a single class mod k1/gcd(k1,k2).

    The blocks are materialized once, up to n // min(k1, k2), and serve both
    sides: a block past one side's reach gives that side an empty window.
    a1 falls as a2 grows, so an a2-block reaches a1 only in one interval, and
    the a1-blocks meeting it are found by bisection.  The a2-blocks' images
    are disjoint, so at most 2 * len(blocks) pairs are visited.
    """
    k1, k2 = _check_args(n, w)
    d = gcd(k1, k2)
    if n % d:
        return 0  # k1*a1 + k2*a2 is always a multiple of gcd(k1, k2)
    m = k1 // d
    c = (n // d) * pow(k2 // d, -1, m) % m

    blocks = s.materialize(n // min(k1, k2) + 1)
    los1 = [lo for lo, _ in blocks]
    his1 = [hi for _, hi in blocks]
    total = 0
    for lo2, hi2 in blocks:
        # a2 in [lo2, hi2) sends a1 into [x_lo, x_hi]; skip a1-blocks outside it
        x_lo = -((k2 * (hi2 - 1) - n) // k1)
        x_hi = (n - k2 * lo2) // k1
        for lo1, hi1 in blocks[bisect_right(his1, x_lo) : bisect_right(los1, x_hi)]:
            lo = max(lo2, -((-(n - k1 * (hi1 - 1))) // k2))
            hi = min(hi2 - 1, (n - k1 * lo1) // k2)
            if lo > hi:
                continue
            # integers in [lo, hi] congruent to c mod m
            total += (hi - c) // m - (lo - 1 - c) // m
    return total


def count_classic(s: BlockSet, n: int, variant: str) -> int:
    """Unweighted counters over a + a' = n: ordered (R1), a<a' (R2), a<=a' (R3)."""
    if variant not in CLASSIC_VARIANTS:
        raise ValueError(f"variant must be one of {CLASSIC_VARIANTS}, got {variant!r}")
    r1 = count_weighted(s, n, (1, 1))
    delta = 1 if n % 2 == 0 and s.contains(n // 2) else 0
    if variant == "R1":
        return r1
    r2 = (r1 - delta) // 2
    return r2 if variant == "R2" else r2 + delta
