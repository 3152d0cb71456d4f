"""Shared generators and brute-force oracles used across test modules.

The brute-force functions here are deliberately written from definitions
(iterate members, test sums) so they stay independent of the library's
closed-form counting path.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from hypothesis import strategies as st

from repfn import (
    BlockSet,
    EqualityReport,
    RatioScan,
    ScanPoint,
    TailRule,
    WitnessValidationError,
    count_weighted,
    decompose,
    floor_constant,
    generate_from_seed,
)


def random_finite_set(rng: random.Random, max_blocks: int = 12, hi: int = 4096) -> BlockSet:
    nblocks = rng.randint(1, max_blocks)
    cuts = sorted(rng.sample(range(0, hi + 1), 2 * nblocks))
    return BlockSet(tuple(cuts), None, rng.random() < 0.5)


def random_tail_set(rng: random.Random, periods=(1, 3, 5), ratios=(2, 3)) -> BlockSet:
    a = rng.choice(periods)
    k = rng.choice(ratios)
    while True:
        t0 = rng.randint(1, 60)
        if (k - 1) * t0 - 1 >= a - 1:  # enough room for a-1 values in (t0, k*t0)
            break
    rest = sorted(rng.sample(range(t0 + 1, k * t0), a - 1))
    seed = (t0, *rest)
    limit = seed[-1] * k ** rng.randint(2, 5)
    return generate_from_seed(seed, a, k, limit)


def members_below(s: BlockSet, hi: int) -> set[int]:
    out: set[int] = set()
    for lo, up in s.materialize(hi):
        out.update(range(lo, up))
    return out


def brute_count(members: set[int], n: int, w: tuple[int, int]) -> int:
    k1, k2 = w
    count = 0
    for a2 in members:
        if k2 * a2 > n:
            continue
        rem = n - k2 * a2
        if rem % k1 == 0 and rem // k1 in members:
            count += 1
    return count


def count_weighted_blockpairs(s: BlockSet, n: int, w: tuple[int, int]) -> int:
    """The closed form summed over every (a2-block, a1-block) pair, in O(B^2).

    Same per-pair arithmetic as count_weighted, without its bisection for the
    a1-blocks an a2-block can reach: the differential reference at n far
    beyond the oracle's reach.
    """
    k1, k2 = w
    d = gcd(k1, k2)
    if n % d:
        return 0
    m = k1 // d
    c = (n // d) * pow(k2 // d, -1, m) % m if m > 1 else 0

    blocks2 = s.materialize(n // k2 + 1)
    blocks1 = s.materialize(n // k1 + 1)
    total = 0
    for lo2, hi2 in blocks2:
        for lo1, hi1 in blocks1:
            lo = max(lo2, -((-(n - k1 * (hi1 - 1))) // k2))
            hi = min(hi2 - 1, (n - k1 * lo1) // k2)
            if lo > hi:
                continue
            # integers in [lo, hi] congruent to c mod m
            total += (hi - c) // m - (lo - 1 - c) // m
    return total


def validated_pairs_by_membership(s, d, case, side, q_lo, q_hi, check_a1=True):
    """The witness stream of a plan (decomposition, case, side, q_lo, q_hi),
    each component checked by its own membership bisect: the differential
    reference for the library's once-per-family a2 check.  With check_a1 false
    only a2 is checked, as the library does."""
    if q_lo > q_hi:
        return
    k = s.tail.k
    sign = -1 if case == "II" else 1
    a1 = d.m + sign * k * q_lo + d.r
    a2 = k ** (d.g - 1) * d.m - sign * q_lo
    side_set = s if side == "set" else s.complement()
    member = side_set.membership(max(a1, a2) + k * (q_hi - q_lo))
    for q in range(q_lo, q_hi + 1):
        for v in (a1, a2) if check_a1 else (a2,):
            if not member(v):
                raise WitnessValidationError(
                    f"q={q}: component {v} not in the containing side "
                    f"({side}); set structure broken or k^g below threshold"
                )
        yield a1, a2
        a1 += sign * k
        a2 -= sign


def verify_equality_two_counts(
    s: BlockSet, k: int, n_lo: int, n_hi: int, record_per_n: bool = False
) -> EqualityReport:
    """verify_equality as two full counts per n, one on the set and one on its
    complement: the differential reference for the library's one-sum D(n)."""
    comp = s.complement()
    rows = []
    equal = 0
    first: int | None = None
    for n in range(n_lo, n_hi + 1):
        ra = count_weighted(s, n, (1, k))
        rc = count_weighted(comp, n, (1, k))
        if ra == rc:
            equal += 1
        elif first is None:
            first = n
        if record_per_n:
            rows.append((n, ra, rc))
    return EqualityReport(
        k=k,
        n_lo=n_lo,
        n_hi=n_hi,
        equal_count=equal,
        first_violation=first,
        per_n=tuple(rows) if record_per_n else None,
    )


def scan_ratio_per_point(
    s: BlockSet, k: int, n_lo: int, n_hi: int, g: int, stride: int = 1
) -> RatioScan:
    """scan_ratio with each point's side read from its own decomposition:
    decompose(n) and the parity of its lattice cell's block number ell + s*a
    at every point, and both sides counted in full.  The differential
    reference for the library's one membership predicate per window."""
    if k < 2:
        raise ValueError(f"ratio k must be at least 2, got {k}")
    if n_lo < 1:
        raise ValueError(f"scan window must start at n >= 1, got {n_lo}")
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    comp = s.complement()
    points = []
    for n in range(n_lo, n_hi + 1, stride):
        d = decompose(s, n, g)
        on_set = ((d.ell + d.s * s.tail.a) % 2 == 0) == s.leading_gap
        ra = count_weighted(s, n, (1, k))
        rc = count_weighted(comp, n, (1, k))
        r_side = ra if on_set else rc
        points.append(ScanPoint(n=n, r_set=ra, r_comp=rc, ratio=Fraction(r_side, n)))
    window_lo = -(-(n_lo + n_hi) // 2)
    tail_ratios = [p.ratio for p in points if p.n >= window_lo]
    return RatioScan(
        points=tuple(points),
        window_lo=window_lo,
        min_ratio=min(tail_ratios) if tail_ratios else None,
        theoretical_floor=Fraction(1, floor_constant(s, g)),
        trivial_ceiling=Fraction(1, k),
    )


def brute_classic(members: set[int], n: int, variant: str) -> int:
    small = {x for x in members if x <= n}
    if variant == "R1":
        return sum(1 for a in small if n - a in small)
    if variant == "R2":
        return sum(1 for a in small for b in small if a < b and a + b == n)
    return sum(1 for a in small for b in small if a <= b and a + b == n)


@st.composite
def finite_blocksets(draw, max_blocks: int = 8, hi: int = 512) -> BlockSet:
    nblocks = draw(st.integers(0, max_blocks))
    cuts = draw(
        st.lists(
            st.integers(0, hi),
            min_size=2 * nblocks,
            max_size=2 * nblocks,
            unique=True,
        )
    )
    return BlockSet(tuple(sorted(cuts)), None, draw(st.booleans()))


@st.composite
def tail_blocksets(draw, k_max: int = 5) -> BlockSet:
    """A two-sided tail set t_(i+a) = k*t_i, a in 1..7 odd, k in 2..k_max, either phase."""
    a = draw(st.sampled_from((1, 3, 5, 7)))
    k = draw(st.integers(2, k_max))
    t0 = draw(st.integers(-(-a // (k - 1)), 60))  # room for a-1 values in (t0, k*t0)
    inner = st.integers(t0 + 1, max(t0 + 1, k * t0 - 1))  # the max only matters when a == 1
    rest = draw(st.lists(inner, min_size=a - 1, max_size=a - 1, unique=True))
    return BlockSet((t0, *sorted(rest)), TailRule(a, k, 0), draw(st.booleans()))


@st.composite
def prefixed_tail_blocksets(draw) -> BlockSet:
    """A tail set whose law holds from i0 in 1..3 on: an irregular prefix of i0
    boundaries below the seed of a tail_blocksets() set, either phase."""
    anchored = draw(tail_blocksets())
    t0 = anchored.boundaries[0]
    i0 = draw(st.integers(1, min(3, t0)))
    prefix = draw(st.lists(st.integers(0, t0 - 1), min_size=i0, max_size=i0, unique=True))
    tail = TailRule(anchored.tail.a, anchored.tail.k, i0)
    return BlockSet((*sorted(prefix), *anchored.boundaries), tail, anchored.leading_gap)
