"""Block-structured subsets of the nonnegative integers.

A :class:`BlockSet` is a union of half-open intervals ("blocks") described by
a strictly increasing boundary sequence t_0 < t_1 < ..., optionally extended
to infinity by a scaling rule t_{i+a} = k * t_i that holds from some index i0
on.  With ``leading_gap`` true the set is [t_0,t_1) | [t_2,t_3) | ...; with it
false the phase flips, so the set additionally contains [0, t_0).  The
complement of a block set is the same boundary sequence with the flag
flipped, which makes complementation exact, O(1), and an involution.

Two degenerate encodings are deliberate: ``BlockSet(())`` is the empty set
and ``BlockSet((), leading_gap=False)`` is all of N.

When a tail rule with i0 = 0 is present the boundary sequence extends to
*negative* indices as well, via t_{i-a} = t_i / k.  Those values are exact
rationals whose denominators are powers of k; :meth:`BlockSet.boundary`
returns them as :class:`fractions.Fraction`.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence


@dataclass(frozen=True)
class TailRule:
    """Self-similar extension: t_{i+a} = k * t_i for every index i >= i0."""

    a: int
    k: int
    i0: int = 0

    def __post_init__(self) -> None:
        if self.a < 1 or self.a % 2 == 0:
            raise ValueError(f"tail period a must be odd and positive, got {self.a}")
        if self.k < 2:
            raise ValueError(f"tail ratio k must be at least 2, got {self.k}")
        if self.i0 < 0:
            raise ValueError(f"tail anchor i0 must be nonnegative, got {self.i0}")


@dataclass(frozen=True)
class BlockSet:
    """An integer set stored as interval boundaries plus an optional tail rule.

    The stored prefix must contain the full seed t_{i0} .. t_{i0+a-1} when a
    tail is present, and the rule must hold exactly wherever both sides of
    t_{i+a} = k * t_i are stored.  All instances are immutable; derived sets
    (complements, truncations) are new objects.
    """

    boundaries: tuple[int, ...]
    tail: TailRule | None = None
    leading_gap: bool = True

    def __post_init__(self) -> None:
        bs = tuple(int(t) for t in self.boundaries)
        object.__setattr__(self, "boundaries", bs)
        if any(t < 0 for t in bs):
            raise ValueError("boundaries must be nonnegative")
        if any(bs[i] >= bs[i + 1] for i in range(len(bs) - 1)):
            raise ValueError("boundaries must be strictly increasing")
        tail = self.tail
        if tail is None:
            return
        a, k, i0 = tail.a, tail.k, tail.i0
        if len(bs) < i0 + a:
            raise ValueError(
                f"tail rule needs the seed t_{i0}..t_{i0 + a - 1} stored; "
                f"only {len(bs)} boundaries given"
            )
        for i in range(i0, len(bs) - a):
            if bs[i + a] != k * bs[i]:
                raise ValueError(
                    f"stored prefix violates t_(i+a) = k*t_i at i={i}: "
                    f"{bs[i + a]} != {k}*{bs[i]}"
                )
        # The first generated boundary k*t_{i0+...} must continue the strict
        # increase; equivalent to k*t_{i0} > t_{i0+a-1} on the seed.
        if k * bs[i0] <= bs[i0 + a - 1]:
            raise ValueError(
                f"seed not expandable: k*t_{i0} = {k * bs[i0]} must exceed "
                f"t_{i0 + a - 1} = {bs[i0 + a - 1]}"
            )

    # -- membership ---------------------------------------------------------

    def boundaries_through(self, limit: int) -> list[int]:
        """Every boundary value <= limit, stored plus tail-generated."""
        bs = self.boundaries
        vals = [t for t in bs if t <= limit]
        if self.tail is None or len(vals) < len(bs):
            return vals
        a, k = self.tail.a, self.tail.k
        while vals:
            nxt = k * vals[-a]
            if nxt > limit:
                break
            vals.append(nxt)
        return vals

    def _edges(self, limit: int) -> list[int]:
        """The points in [0, limit] where membership flips: the boundaries, with
        0 put in front when leading_gap is false (cancelling a t_0 = 0)."""
        edges = self.boundaries_through(limit)
        if not self.leading_gap:
            edges = edges[1:] if edges[:1] == [0] else [0, *edges]
        return edges

    def membership(self, limit: int) -> Callable[[int], bool]:
        """Exact membership predicate for the integers in [0, limit].

        x is a member iff an odd number of edges lie at or below it.  The
        edges are generated once, here; each call is one bisect.
        """
        edges = self._edges(limit)

        def member(x: int) -> bool:
            return bisect_right(edges, x) % 2 == 1

        return member

    def contains(self, x: int) -> bool:
        """Exact membership test.  x must be a nonnegative integer."""
        if not isinstance(x, int) or x < 0:
            raise ValueError(f"members are nonnegative integers, got {x}")
        return self.membership(x)(x)

    def __contains__(self, x: object) -> bool:
        return isinstance(x, int) and x >= 0 and self.contains(x)

    def block_in_set(self, j: int) -> bool:
        """Whether the block [t_j, t_{j+1}) belongs to the set."""
        return (j % 2 == 0) == self.leading_gap

    def anchored_tail(self) -> TailRule:
        """The tail rule, required to be anchored at index 0.

        Operations that walk the boundary lattice call this first; it raises
        ValueError for a finite set or a law anchored at i0 > 0.
        """
        if self.tail is None:
            raise ValueError("operation needs a tail-ruled set")
        if self.tail.i0 != 0:
            raise ValueError(
                "operation needs the scaling law anchored at index 0; "
                "call truncate_to_tail() first"
            )
        return self.tail

    # -- derived sets --------------------------------------------------------

    def complement(self) -> BlockSet:
        """N minus this set: same boundaries, flipped phase flag."""
        return dataclasses.replace(self, leading_gap=not self.leading_gap)

    def truncate_to_tail(self) -> BlockSet:
        """Drop the irregular prefix so the scaling law anchors at index 0.

        Returns an equal set when i0 is already 0.  Otherwise the members
        below the first in-set block at index >= i0 are discarded and the
        result has leading_gap=True with a re-anchored TailRule(a, k, 0).
        """
        tail = self.tail
        if tail is None:
            raise ValueError("set has no tail rule to align to")
        if tail.i0 == 0:
            return self
        j = tail.i0 if self.block_in_set(tail.i0) else tail.i0 + 1
        end = max(len(self.boundaries), j + tail.a)  # j = i0+1 needs one generated row
        vals = tuple(int(self.boundary(i)) for i in range(j, end))
        return BlockSet(vals, TailRule(tail.a, tail.k, 0), True)

    # -- views ----------------------------------------------------------------

    def materialize(self, limit: int) -> list[tuple[int, int]]:
        """The set's blocks in [0, limit) as (lo, hi) pairs: consecutive pairs
        of edges, with limit closing a block that runs past it."""
        if limit < 0:
            raise ValueError(f"limit must be nonnegative, got {limit}")
        edges = self._edges(limit)
        if len(edges) % 2:
            if edges[-1] < limit:
                edges.append(limit)
            else:
                del edges[-1]  # the block opens at limit: nothing below it
        it = iter(edges)
        return list(zip(it, it))

    def boundary(self, i: int) -> Fraction:
        """t_i for any integer index i reachable from the data.

        Stored indices return the stored value.  With a tail rule any other i
        reads t_(i0+j) * k^c, (c, j) = divmod(i - i0, a).  With i0 = 0 this
        holds two-sided: negative indices have c < 0 and yield exact rationals
        whose denominators are powers of k.
        """
        bs = self.boundaries
        if 0 <= i < len(bs):
            return Fraction(bs[i])
        tail = self.tail
        if tail is None:
            raise ValueError(f"index {i} outside stored boundaries and no tail rule")
        if i < 0 < tail.i0:
            raise ValueError(
                f"index {i} precedes the tail anchor i0={tail.i0}; "
                "two-sided extension needs i0=0 (use truncate_to_tail())"
            )
        c, j = divmod(i - tail.i0, tail.a)
        return Fraction(bs[tail.i0 + j] * tail.k ** max(c, 0), tail.k ** max(-c, 0))

    def block_index(self, x: int) -> int:
        """The index j with t_j <= x < t_(j+1), or -1 when x < t_0.

        Inverse of :meth:`boundary` on the nonnegative indices: one less
        than the number of boundaries at or below x.  On a finite set, x at
        or above the last boundary yields the last index.
        """
        return len(self.boundaries_through(x)) - 1

    # -- canonical JSON document ----------------------------------------------

    def to_doc(self) -> dict:
        """Plain-JSON form: {"boundaries": [...], "leading_gap": ..., "tail": ...}."""
        tail = None if self.tail is None else dataclasses.asdict(self.tail)
        return {
            "boundaries": list(self.boundaries),
            "leading_gap": self.leading_gap,
            "tail": tail,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> BlockSet:
        """Inverse of to_doc().  Numbers must be JSON integers, flags JSON booleans;
        a key that to_doc() does not write is rejected."""
        if not isinstance(doc, dict) or not isinstance(doc.get("boundaries"), list):
            raise ValueError("set document must be an object with a 'boundaries' list")
        _doc_keys(doc, ("boundaries", "leading_gap", "tail"), "set document")
        leading_gap = doc.get("leading_gap", True)
        if not isinstance(leading_gap, bool):
            raise ValueError(f"leading_gap must be true or false, got {leading_gap!r}")
        tail_doc = doc.get("tail")
        tail = None
        if tail_doc is not None:
            if not isinstance(tail_doc, dict) or not {"a", "k"} <= tail_doc.keys():
                raise ValueError(f"malformed tail rule: {tail_doc!r}")
            _doc_keys(tail_doc, ("a", "k", "i0"), "tail rule")
            tail = TailRule(
                a=_doc_int(tail_doc["a"], "tail a"),
                k=_doc_int(tail_doc["k"], "tail k"),
                i0=_doc_int(tail_doc.get("i0", 0), "tail i0"),
            )
        return cls(
            boundaries=tuple(_doc_int(t, "boundary") for t in doc["boundaries"]),
            tail=tail,
            leading_gap=leading_gap,
        )


def _doc_keys(doc: dict, known: tuple[str, ...], what: str) -> None:
    # a misspelt key would otherwise be dropped and its default read instead
    for key in doc:
        if key not in known:
            raise ValueError(f"{what} has an unknown key {key!r}; known keys: {', '.join(known)}")


def _doc_int(value: object, what: str) -> int:
    # bool is a subclass of int in Python, but true/false are not JSON numbers
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def normalize(intervals: Iterable[Sequence[int]]) -> BlockSet:
    """Merge half-open intervals into a canonical finite BlockSet.

    Input intervals may overlap, touch, or arrive unsorted; each must satisfy
    0 <= lo < hi.  The result always has leading_gap=True (t_0 = 0 allowed).
    """
    cleaned: list[tuple[int, int]] = []
    for iv in intervals:
        lo, hi = int(iv[0]), int(iv[1])
        if lo < 0 or lo >= hi:
            raise ValueError(f"intervals need 0 <= lo < hi, got ({lo}, {hi})")
        cleaned.append((lo, hi))
    cleaned.sort()
    merged: list[list[int]] = []
    for lo, hi in cleaned:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return BlockSet(tuple(t for block in merged for t in block), None, True)
