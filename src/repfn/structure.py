"""Structural analysis of scaling tails and multiplicative dependence.

Operations here answer four questions about a boundary sequence or a pair of
ratios: does the data obey a scaling law t_{i+a} = k*t_i (detect_tail /
generate_from_seed); which odd exponent g makes k^g dominate the set's
geometry (select_g); where does a target n sit on the boundary lattice once
written as n = (k^g + 1)m + r (decompose); and when are two ratios k, l
powers of a common base with an odd/odd exponent ratio (multiplicative_profile
/ intersection_nonempty).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .blockset import BlockSet, TailRule


class InsufficientDataError(ValueError):
    """Raised when a boundary list is too short to check any scaling relation."""


def detect_tail(boundaries: Sequence[int], k: int) -> TailRule | None:
    """Find the least odd period a (then least anchor i0) fitting the data.

    A candidate (a, i0) is accepted when t_{i+a} = k*t_i holds for every
    checkable i >= i0 and at least a relations were actually verified.
    Returns None when no candidate fits; raises InsufficientDataError when
    fewer than two boundaries are given (nothing is checkable at all).
    """
    bs = [int(t) for t in boundaries]
    if k < 2:
        raise ValueError(f"ratio k must be at least 2, got {k}")
    if any(bs[i] >= bs[i + 1] for i in range(len(bs) - 1)):
        raise ValueError("boundaries must be strictly increasing")
    n = len(bs)
    if n < 2:
        raise InsufficientDataError(
            f"need at least 2 boundaries to check a scaling relation, got {n}"
        )
    a = 1
    while 2 * a <= n:
        i0 = 0
        for i in range(n - a):
            if bs[i + a] != k * bs[i]:
                i0 = i + 1
        if n - a - i0 >= a:
            return TailRule(a=a, k=k, i0=i0)
        a += 2
    return None


def generate_from_seed(seed: Sequence[int], a: int, k: int, limit: int) -> BlockSet:
    """Expand a seed t_0..t_{a-1} by t_{i+a} = k*t_i, storing values <= limit.

    The seed is stored in full even when it exceeds the limit; the seed must
    be strictly increasing with k*t_0 > t_{a-1} so the expansion stays strictly
    increasing forever.
    """
    tail = TailRule(a=a, k=k, i0=0)
    if len(seed) != a:
        raise ValueError(f"seed must have exactly a={a} entries, got {len(seed)}")
    s = BlockSet(tuple(seed), tail, True)
    # boundaries_through lists the stored seed first, unless part of it exceeds limit.
    return BlockSet(s.boundaries + tuple(s.boundaries_through(limit)[a:]), tail, True)


# ---------------------------------------------------------------------------
# exponent selection and lattice decomposition


@dataclass(frozen=True)
class GSelection:
    """Threshold T = 4*(t_{a+2} - t_0) and the least odd g with k^g > T."""

    T: int
    g: int


def select_g(s: BlockSet) -> GSelection:
    """Pick the least odd g with k^g above the set's spread threshold."""
    tail = s.anchored_tail()
    T = int(4 * (s.boundary(tail.a + 2) - s.boundary(0)))
    g = 1
    while tail.k**g <= T:
        g += 2
    return GSelection(T=T, g=g)


@dataclass(frozen=True)
class Decomposition:
    """n = (k^g + 1)*m + r with m located on the boundary lattice.

    m falls in [k^s * t_ell, k^s * t_(ell+1)) for a unique scale s >= 0 and
    seed position 0 <= ell < a; that half-open cell is the extended boundary
    block number ell + s*a.
    """

    n: int
    m: int
    r: int
    s: int
    ell: int
    g: int

    def to_doc(self) -> dict:
        """Plain-JSON form, with the unbounded integers n, m and r as strings."""
        n, m, r = str(self.n), str(self.m), str(self.r)
        return {"n": n, "m": m, "r": r, "s": self.s, "ell": self.ell, "g": self.g}


def decompose(s: BlockSet, n: int, g: int) -> Decomposition:
    """Split n by k^g + 1 and locate the quotient on the boundary lattice."""
    tail = s.anchored_tail()
    if g < 1 or g % 2 == 0:
        raise ValueError(f"exponent g must be odd and positive, got {g}")
    if n < 0:
        raise ValueError(f"target n must be nonnegative, got {n}")
    # k^g >= 2^g > n once g reaches n's bit length: then m = 0, and k^g is never built
    m, r = divmod(n, tail.k**g + 1) if g < n.bit_length() else (0, n)
    j = s.block_index(m)
    if j < 0:
        raise ValueError(
            f"n = {n} too small: quotient m = {m} sits below t_0 = {s.boundaries[0]}, "
            "off the boundary lattice"
        )
    scale, ell = divmod(j, tail.a)
    return Decomposition(n=n, m=m, r=r, s=scale, ell=ell, g=g)


# ---------------------------------------------------------------------------
# multiplicative dependence of two ratios


@dataclass(frozen=True)
class MultiplicativeProfile:
    """Maximal common base d with k = d^p, l = d^q, gcd(p, q) = 1."""

    dependent: bool
    d: int | None = None
    p: int | None = None
    q: int | None = None

    @property
    def odd_odd(self) -> bool:
        """Whether log k / log l = p/q is a ratio of two odd integers."""
        return bool(self.dependent and self.p % 2 == 1 and self.q % 2 == 1)


def multiplicative_profile(k: int, l: int) -> MultiplicativeProfile:
    """Classify k and l as powers of a maximal common base, if one exists.

    Euclid's algorithm on the exponents: (x, y) -> (min, max/min) keeps the
    group that x and y generate, and stops at x == y == d unless some max is
    not a multiple of its min, in which case k and l are independent.
    """
    if k < 2 or l < 2:
        raise ValueError(f"ratios must be at least 2, got k={k}, l={l}")
    x, y = k, l
    while x != y:
        x, y = min(x, y), max(x, y)
        if y % x:
            return MultiplicativeProfile(dependent=False)
        y //= x
    return MultiplicativeProfile(dependent=True, d=x, p=_log(k, x), q=_log(l, x))


def _log(x: int, d: int) -> int:
    """The exponent e with d**e == x, for x a power of d >= 2."""
    e = 0
    while x > 1:
        x //= d
        e += 1
    return e


def intersection_nonempty(k: int, l: int) -> bool:
    """Whether log k / log l is a ratio of two odd integers."""
    return multiplicative_profile(k, l).odd_odd
