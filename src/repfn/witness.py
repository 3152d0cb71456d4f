"""Constructive witness families for weighted representation counts.

Given a tail-ruled set (law anchored at index 0), a target n decomposes as
n = (k^g + 1)m + r with m inside one lattice cell [k^s*t_ell, k^s*t_(ell+1)).
That cell, and every value constructed below, lies on one side (the set or
its complement) fixed by the parity of the block number ell + s*a.

Within the cell, m sits in one of three zones measured by a k^(s-4) margin:

  II   left edge:   k^s*t_ell       <= m < k^s*t_ell + k^(s-4)
  I    middle:      otherwise
  III  right edge:  k^s*t_(ell+1) - k^(s-4) <= m < k^s*t_(ell+1)

Each zone yields an explicit one-parameter family of pairs with
a1 + k*a2 = n, both components on the containing side:

  I, III:  (m + k*q + r,  k^(g-1)*m - q)
  II:      (m - k*q + r,  k^(g-1)*m + q)

with q running over a case-specific integer interval.  The margins are exact
rationals, so classification and interval endpoints are computed exactly for
every s >= 0; the enumerator only *emits* pairs when s >= 5 (small n carry no
guarantee and produce an empty family).  There the q-interval and m's zone put
a1 in m's block j (I), j-2 (II) or j+2 (III) for every g, so on j's side by
parity; a2 moves by unit steps and leaves the side only by leaving its block,
so it is checked once per family (both proofs are in _validated_pairs).
"""

from __future__ import annotations

import sys
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from .blockset import BlockSet
from .render import check_digits, fraction_decimal, fraction_str
from .structure import Decomposition, decompose, select_g

CASES = ("I", "II", "III")

SIDE_SET = "set"
SIDE_COMPLEMENT = "complement"


class WitnessValidationError(RuntimeError):
    """An a2 left the side's block holding the family's first a2 (a1 cannot leave).

    This cannot happen for a valid anchored tail set when k^g exceeds the
    selection threshold; seeing it means the set structure is broken or the
    chosen g violates the precondition (a warning will have fired).
    """


def classify_case(s: BlockSet, d: Decomposition) -> str:
    """Exact zone of m inside its lattice cell: "I", "II", or "III"."""
    tail = s.anchored_tail()
    j = d.ell + d.s * tail.a
    lo, hi = s.boundary(j), s.boundary(j + 1)
    if not lo <= d.m < hi:
        raise ValueError(f"decomposition does not match set: m={d.m} not in [{lo},{hi})")
    margin = Fraction(tail.k**d.s, tail.k**4)
    if d.m < lo + margin:
        return "II"
    if d.m >= hi - margin:
        return "III"
    return "I"


def witness_q_range(s: BlockSet, d: Decomposition, case: str) -> tuple[int, int]:
    """Inclusive integer interval [q_lo, q_hi] for the case's family.

    Empty is encoded as q_lo > q_hi.  Bounds follow the case inequalities
    with strict/inclusive endpoints honored through exact rational floor/ceil:

      I:    0 <= q < k^(s-5) - r
      II:   k^(s-1)*(t_ell - t_(ell-1)) + k^(s-5) + r < q
                 <= k^(s-1)*(t_ell - t_(ell-2))
      III:  k^(s-1)*(t_(ell+2) - t_(ell+1)) + k^(s-5)
                 <= q <= k^(s-1)*(t_(ell+3) - t_(ell+1)) - r

    On the two-sided lattice k^(s-1)*t_i is the boundary t_(i+(s-1)a).
    """
    tail = s.anchored_tail()
    if case not in CASES:
        raise ValueError(f"case must be one of {CASES}, got {case!r}")
    margin = Fraction(tail.k**d.s, tail.k**5)

    def kt(i: int) -> Fraction:
        """k^(s-1) * t_(ell+i)."""
        return s.boundary(d.ell + i + (d.s - 1) * tail.a)

    if case == "I":
        return 0, ceil(margin - d.r) - 1  # upper bound exclusive
    if case == "II":
        return floor(kt(0) - kt(-1) + margin + d.r) + 1, floor(kt(0) - kt(-2))
    return ceil(kt(2) - kt(1) + margin), floor(kt(3) - kt(1) - d.r)


def floor_constant(s: BlockSet, g: int) -> int:
    """C = k^5 * t_a * (k^g + 2), with k and t_a = k*t_0 from the set's tail.

    The witness family certifies a count of at least n/C - (k^g + 1).  A g with
    g*(bit_length(k) - 1) > 4L, L the int-string digit limit, raises ValueError.
    """
    tail = s.anchored_tail()
    if g < 1 or g % 2 == 0:
        raise ValueError(f"exponent g must be odd and positive, got {g}")
    limit = sys.get_int_max_str_digits()
    # k^g >= 2^(g*(bit_length(k) - 1)) > 16^L > 10^L here: it is never built
    if limit and g * (tail.k.bit_length() - 1) > 4 * limit:
        raise ValueError(f"exponent g = {g} gives k^g more than {limit} digits")
    return tail.k**5 * int(s.boundary(tail.a)) * (tail.k**g + 2)


def guaranteed_lower_bound(s: BlockSet, n: int, g: int) -> Fraction:
    """max(0, n / (k^5 * t_a * (k^g + 2)) - (k^g + 1)), exactly."""
    k = s.anchored_tail().k
    if n < 0:
        raise ValueError(f"target n must be nonnegative, got {n}")
    return max(Fraction(0), Fraction(n, floor_constant(s, g)) - (k**g + 1))


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of one witness enumeration.

    pairs_checked equals the size of the emitted q-interval.  Both components
    of every pair counted are on the containing side: a1 by the lattice proof
    in _validated_pairs, a2 by its block check, once per family.  a1 + k*a2 = n
    holds by construction and is covered by tests, not checked at run time.
    """

    decomposition: Decomposition
    case: str
    side: str
    q_lo: int
    q_hi: int
    pairs_checked: int
    guaranteed: Fraction

    @property
    def q_count(self) -> int:
        return max(0, self.q_hi - self.q_lo + 1)

    def to_doc(self) -> dict:
        empty = self.q_lo > self.q_hi
        return {
            **self.decomposition.to_doc(),
            "case": self.case,
            "side": self.side,
            "q_lo": None if empty else str(self.q_lo),
            "q_hi": None if empty else str(self.q_hi),
            "pairs_checked": str(self.pairs_checked),
            "guaranteed": fraction_str(self.guaranteed),
            "guaranteed_decimal": fraction_decimal(self.guaranteed),
        }


def iter_witness_pairs(s: BlockSet, n: int, g: int):
    """Yield every validated pair (a1, a2) of the witness family for n.

    Pairs satisfy a1 + k*a2 = n with both components members of the
    containing side.  After the last pair before an a2 off the side, raises
    WitnessValidationError naming its q; see that class for when this can happen.
    """
    yield from _validated_pairs(s, *_plan(s, n, g))


def enumerate_witnesses(s: BlockSet, n: int, g: int) -> WitnessReport:
    """Build, validate, and summarize the full witness family for n."""
    tail = s.anchored_tail()
    sel = select_g(s)
    # k^g >= 2^g > T once g reaches T's bit length: then k^g is never built
    if g < sel.T.bit_length() and tail.k**g <= sel.T:
        warnings.warn(
            f"k^g = {tail.k ** g} does not exceed the threshold "
            f"T = {check_digits(sel.T, 'threshold T')}; the family may be invalid or empty",
            stacklevel=2,
        )
    plan = _plan(s, n, g)
    checked = sum(1 for _ in _validated_pairs(s, *plan))
    return WitnessReport(*plan, checked, guaranteed_lower_bound(s, n, g))


def _plan(s: BlockSet, n: int, g: int) -> tuple[Decomposition, str, str, int, int]:
    """(decomposition, case, side, q_lo, q_hi) of the witness family for n."""
    d = decompose(s, n, g)
    case = classify_case(s, d)
    side = SIDE_SET if s.block_in_set(d.ell + d.s * s.tail.a) else SIDE_COMPLEMENT
    # below scale 5 the family is defined to be empty (see the module docstring)
    q_lo, q_hi = witness_q_range(s, d, case) if d.s >= 5 else (0, -1)
    return d, case, side, q_lo, q_hi


def _validated_pairs(s, d, case, side, q_lo, q_hi):
    """Pairs (m + sign*k*q + r, k^(g-1)*m - sign*q), sign -1 in case II, else +1:
    a1 + k*a2 = m + r + k^g*m = n at every q by construction, covered by tests and
    not checked at run time.

    a1 needs no check.  With j = ell + s*a m's block, s >= 5 and T_i = k^s*t_(ell+i),
    witness_q_range and m's zone bound a1 for every g:
      I:    0 <= q <= k^(s-5) - r - 1 and T_0 + k^(s-4) <= m < T_1 - k^(s-4)
            give m + r <= a1 < m + k^(s-4), inside block j = [T_0, T_1);
      II:   T_(-2) + r <= a1 < T_(-1) - (k-1)*r, inside block j - 2;
      III:  T_2 + r <= a1 <= T_3 - 1 - (k-1)*r, inside block j + 2.
    These are real blocks (index >= 5a - 2 >= 3) of j's parity, so on its side.

    a2 moves by one per q and one side's blocks are parted by gaps of the other, so a2
    is on the side exactly while it is in the side's block [lo, hi) of its first value."""
    if q_lo > q_hi:
        return
    k = s.tail.k
    sign = -1 if case == "II" else 1
    a1 = d.m + sign * k * q_lo + d.r
    a2 = k ** (d.g - 1) * d.m - sign * q_lo
    side_set = s if side == SIDE_SET else s.complement()
    # a2 is monotone in q: the blocks cover [0, its largest value], none if it is < 0
    blocks = side_set.materialize(max(a2, a2 - sign * (q_hi - q_lo), -1) + 1)
    i = bisect_right(blocks, a2, key=lambda b: b[0]) - 1
    if i < 0 or a2 >= blocks[i][1]:  # below 0, before the first block or in a gap
        stop = q_lo
    elif sign < 0:  # rising: the last pair has a2 = hi - 1
        stop = q_lo + blocks[i][1] - a2
    else:  # falling: the last pair has a2 = lo
        stop = q_lo + a2 - blocks[i][0] + 1
    for _ in range(q_lo, min(stop, q_hi + 1)):
        yield a1, a2
        a1 += sign * k
        a2 -= sign
    if stop <= q_hi:
        raise WitnessValidationError(
            f"q={stop}: component {a2} not in the containing side "
            f"({side}); set structure broken or k^g below threshold"
        )
