"""Finite-horizon experiments on count equality between a set and its complement.

Nothing here proves an asymptotic statement.  With weights (1, k), each a2 in
[0, n//k] pairs with a1 = n - k*a2, and the pair adds [a1 in S] + [a2 in S] - 1
to D(n) = r(S, n) - r(complement, n).  So D(n) is one sum over the set's
blocks below n, with no count of either side.  verify_equality decides
equality at each n of a window from D(n) == 0 and reports the first
violation; it counts r(S, n) only for a recorded per-n row, and reads the
complement's count as r(S, n) - D(n).  scan_ratio counts r(S, n) once per
point the same way and tracks r/n for the side that contains each n's
lattice cell, against the theoretical floor 1/(k^5*t_a*(k^g+2)), with k and
t_a taken from the set's tail, and the trivial ceiling 1/k of the weights
(1, k).  search_seeds enumerates small seeds at desk scale and ranks them by
how long they survive; a ranking is an observation about a window, not a
certificate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import IO

from .blockset import BlockSet, TailRule
from .render import check_digits, fraction_decimal, fraction_str
from .repcount import count_weighted
from .structure import decompose, generate_from_seed
from .witness import floor_constant


@dataclass(frozen=True)
class EqualityReport:
    """Result of comparing r(set, n) with r(complement, n) over [n_lo, n_hi]."""

    k: int
    n_lo: int
    n_hi: int
    equal_count: int
    first_violation: int | None
    per_n: tuple[tuple[int, int, int], ...] | None = None  # (n, r_set, r_comp)

    def to_doc(self) -> dict:
        doc = {
            "k": self.k,
            "n_lo": str(self.n_lo),
            "n_hi": str(self.n_hi),
            "equal_count": str(self.equal_count),
            "first_violation": None if self.first_violation is None else str(self.first_violation),
        }
        if self.per_n is not None:
            doc["per_n"] = [
                {"n": str(n), "r_set": str(ra), "r_comp": str(rc)}
                for n, ra, rc in self.per_n
            ]
        return doc


def _count_difference(s: BlockSet, n: int, k: int) -> int:
    """D(n) = r(s, n) - r(complement, n) for weights (1, k).

    Each a2 in [0, n//k] pairs with a1 = n - k*a2 and adds
    [a1 in s] + [a2 in s] - 1, so D(n) is |s & [0, n//k]| plus
    |{x in s : x <= n, x % k == n % k}|, less n//k + 1.
    """
    q, r = divmod(n, k)
    d = -(q + 1)
    for lo, hi in s.materialize(n + 1):
        d += max(0, min(hi, q + 1) - lo) + (hi - 1 - r) // k - (lo - 1 - r) // k
    return d


def verify_equality(
    s: BlockSet, k: int, n_lo: int, n_hi: int, record_per_n: bool = False
) -> EqualityReport:
    """Decide r(s, n) == r(complement, n) with weights (1, k) at each n of the window.

    Equality is D(n) == 0, which counts neither side.  A recorded per-n row
    costs one count, r(s, n), and reads r(complement, n) as r(s, n) - D(n).
    """
    if k < 2:
        raise ValueError(f"ratio k must be at least 2, got {k}")
    if n_lo < 0:
        raise ValueError(f"window must start at a nonnegative n, got {n_lo}")
    rows = []
    equal = 0
    first: int | None = None
    for n in range(n_lo, n_hi + 1):
        diff = _count_difference(s, n, k)
        if diff == 0:
            equal += 1
        elif first is None:
            first = n
        if record_per_n:
            ra = count_weighted(s, n, (1, k))
            rows.append((n, ra, ra - diff))
    return EqualityReport(k, n_lo, n_hi, equal, first, tuple(rows) if record_per_n else None)


@dataclass(frozen=True)
class ScanPoint:
    n: int
    r_set: int
    r_comp: int
    ratio: Fraction  # containing-side count divided by n


@dataclass(frozen=True)
class RatioScan:
    points: tuple[ScanPoint, ...]
    window_lo: int  # tail window over which min_ratio is taken
    min_ratio: Fraction | None
    theoretical_floor: Fraction
    trivial_ceiling: Fraction

    def to_doc(self) -> dict:
        return {
            "window_lo": str(self.window_lo),
            "min_ratio": None if self.min_ratio is None else fraction_str(self.min_ratio),
            "theoretical_floor": fraction_str(self.theoretical_floor),
            "trivial_ceiling": fraction_str(self.trivial_ceiling),
            "points": [
                {
                    "n": str(p.n),
                    "r_set": str(p.r_set),
                    "r_comp": str(p.r_comp),
                    "ratio": fraction_str(p.ratio),
                    "ratio_decimal": fraction_decimal(p.ratio, 9),
                }
                for p in self.points
            ],
        }


def scan_ratio(
    s: BlockSet, k: int, n_lo: int, n_hi: int, g: int, stride: int = 1
) -> RatioScan:
    """Sample r/n at n_lo, n_lo+stride, ..., <= n_hi on the side holding n // (k^g + 1).

    Each point costs one count, r(s, n); r(complement, n) is r(s, n) - D(n).
    """
    if k < 2:
        raise ValueError(f"ratio k must be at least 2, got {k}")
    if n_lo < 1:
        raise ValueError(f"scan window must start at n >= 1, got {n_lo}")
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    # checks the tail, g and C's digits, also for an empty window
    floor_c = check_digits(floor_constant(s, g), "floor constant C")
    points = []
    if n_lo <= n_hi:
        decompose(s, n_lo, g)  # n_lo's quotient is on the lattice, so every later one is
        c = s.tail.k**g + 1
        member = s.membership(n_hi // c)
        for n in range(n_lo, n_hi + 1, stride):
            ra = count_weighted(s, n, (1, k))
            rc = ra - _count_difference(s, n, k)
            r_side = ra if member(n // c) else rc
            points.append(ScanPoint(n=n, r_set=ra, r_comp=rc, ratio=Fraction(r_side, n)))
    window_lo = -(-(n_lo + n_hi) // 2)
    tail_ratios = [p.ratio for p in points if p.n >= window_lo]
    min_ratio = min(tail_ratios) if tail_ratios else None
    return RatioScan(tuple(points), window_lo, min_ratio, Fraction(1, floor_c), Fraction(1, k))


def scan_to_csv(scan: RatioScan, stream: IO[str]) -> None:
    """Write the scan series with exact rational columns."""
    writer = csv.writer(stream)
    writer.writerow(["n", "r_A", "r_comp", "ratio_num", "ratio_den"])
    for p in scan.points:
        writer.writerow([p.n, p.r_set, p.r_comp, p.ratio.numerator, p.ratio.denominator])


def search_seeds(
    k: int,
    a: int,
    t0_max: int,
    width_max: int,
    horizon: int,
) -> list[tuple[tuple[int, ...], EqualityReport]]:
    """Try every admissible seed and rank by survival of the equality check.

    Seeds are (t_0, ..., t_(a-1)) with 1 <= t_0 <= t0_max, strictly
    increasing, t_(a-1) - t_0 <= width_max, and k*t_0 > t_(a-1).  Each seed's
    set is expanded to the horizon and checked on [t_(a+2), horizon].
    Ranking: clean seeds first, then larger first violation; ties break
    deterministically by seed.
    """
    TailRule(a, k)  # checks k and a with the tail rule's messages
    if t0_max < 1:
        raise ValueError(f"t0_max must be at least 1, got {t0_max}")
    if width_max < 0:
        raise ValueError(f"width_max must be nonnegative, got {width_max}")
    results = []
    for t0 in range(1, t0_max + 1):
        for rest in combinations(range(t0 + 1, min(t0 + width_max, k * t0 - 1) + 1), a - 1):
            seed = (t0, *rest)
            bset = generate_from_seed(seed, a, k, horizon)
            lo = int(bset.boundary(a + 2))
            results.append((seed, verify_equality(bset, k, lo, horizon)))

    def rank(item):
        seed, rep = item
        if rep.first_violation is None:
            return (0, 0, seed)
        return (1, -rep.first_violation, seed)

    results.sort(key=rank)
    return results
