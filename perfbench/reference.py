"""Independent reference model of a block set, used to check benchmark outputs.

Nothing here calls into repfn.  A set is rebuilt from its canonical document
(boundaries, tail rule, phase flag), its boundary list is regenerated from the
scaling law, and representation counts are summed per a1-block with bisection
over the a2-blocks.  repfn's closed form walks the pairs the other way round
(a2-block outer, a1-block inner, every pair visited), so the two share no code
path; the self-tests tie this model to ``count_weighted_oracle`` at small n.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd


class RefSet:
    """A block set described by its canonical document."""

    def __init__(self, doc: dict) -> None:
        self.stored = [int(t) for t in doc["boundaries"]]
        tail = doc.get("tail")
        self.a = int(tail["a"]) if tail else None
        self.k = int(tail["k"]) if tail else None
        self.leading_gap = bool(doc.get("leading_gap", True))
        self._edges = list(self.stored)

    def complement(self) -> RefSet:
        tail = None if self.a is None else {"a": self.a, "k": self.k}
        return RefSet({"boundaries": self.stored, "tail": tail,
                       "leading_gap": not self.leading_gap})

    def _extend(self, limit: int) -> list[int]:
        e = self._edges
        if self.a is not None:
            while e[-1] <= limit:
                e.append(self.k * e[-self.a])
        return e

    def edges(self, limit: int) -> list[int]:
        """Every boundary value <= limit."""
        e = self._extend(limit)
        return e[: bisect_right(e, limit)]

    def t(self, i: int) -> Fraction:
        """t_i for any index of an anchored tail set (i0 = 0), negative too."""
        q, j = divmod(i, self.a)
        return Fraction(self.stored[j]) * Fraction(self.k) ** q

    def member(self, x: int) -> bool:
        return (bisect_right(self._extend(x), x) % 2 == 1) == self.leading_gap

    def blocks(self, limit: int) -> tuple[list[int], list[int]]:
        """Members of [0, limit] as parallel lists of inclusive block ends."""
        los: list[int] = []
        his: list[int] = []
        inside = not self.leading_gap
        prev = 0
        for t in self.edges(limit):
            if inside and prev < t:
                los.append(prev)
                his.append(t - 1)
            inside = not inside
            prev = t
        if inside and prev <= limit:
            los.append(prev)
            his.append(limit)
        return los, his

    def count(self, n: int, w: tuple[int, int]) -> int:
        """#{(a1, a2) members : w1*a1 + w2*a2 = n}, summed per a1-block."""
        k1, k2 = w
        d = gcd(k1, k2)
        if n < 0 or n % d:
            return 0
        # a2 = (n - k1*a1)/k2 is an integer exactly when a1 = c1 (mod m2).
        m2 = k2 // d
        c1 = (n // d) * pow(k1 // d, -1, m2) % m2 if m2 > 1 else 0
        los1, his1 = self.blocks(n // k1)
        los2, his2 = self.blocks(n // k2)
        total = 0
        for lo, hi in zip(los1, his1):
            a2_lo = -((k1 * hi - n) // k2)
            a2_hi = (n - k1 * lo) // k2
            j = bisect_left(his2, a2_lo)
            while j < len(los2) and los2[j] <= a2_hi:
                x_lo = max(lo, -((k2 * his2[j] - n) // k1))
                x_hi = min(hi, (n - k2 * los2[j]) // k1)
                if x_lo <= x_hi:
                    total += (x_hi - c1) // m2 - (x_lo - 1 - c1) // m2
                j += 1
        return total

    def classic(self, n: int, variant: str) -> int:
        r1 = self.count(n, (1, 1))
        delta = 1 if n % 2 == 0 and self.member(n // 2) else 0
        if variant == "R1":
            return r1
        r2 = (r1 - delta) // 2
        return r2 if variant == "R2" else r2 + delta

    def select_g(self) -> int:
        """Least odd g with k^g > 4*(t_(a+2) - t_0)."""
        spread = 4 * (self.t(self.a + 2) - self.t(0))
        g = 1
        while self.k**g <= spread:
            g += 2
        return g

    def containing_side_is_set(self, n: int, g: int) -> bool:
        """Whether m = n // (k^g + 1) is a member: its lattice cell's side."""
        return self.member(n // (self.k**g + 1))
