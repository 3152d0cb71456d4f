"""Acceptance gate: one criterion per test, one visible pass/fail line each.

Every criterion is checked exactly (integer or rational arithmetic, no
floating point tolerances).  Randomized criteria use fixed seeds so a failure
is reproducible.  Timed criteria state their budget in the emitted line.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from helpers import random_finite_set, random_tail_set
from repfn import (
    BlockSet,
    GSelection,
    TailRule,
    count_weighted,
    count_weighted_oracle,
    decompose,
    detect_tail,
    enumerate_witnesses,
    generate_from_seed,
    guaranteed_lower_bound,
    intersection_nonempty,
    iter_witness_pairs,
    select_g,
    verify_equality,
)

S1 = BlockSet((4, 5, 7), TailRule(a=3, k=2, i0=0))


def report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"{name} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def test_c01_weighted_count_matches_oracle(capsys):
    rng = random.Random(101)
    weights = [(1, 2), (1, 3), (1, 5), (2, 3)]
    budget = 60.0
    start = time.monotonic()
    cases = 0
    bad = None
    for _ in range(2500):
        s = random_finite_set(rng, max_blocks=12, hi=4096)
        for w in weights:
            n = rng.randint(0, 4096)
            if count_weighted(s, n, w) != count_weighted_oracle(s, n, w):
                bad = (s.boundaries, s.leading_gap, n, w)
                break
            cases += 1
        if bad:
            break
    elapsed = time.monotonic() - start
    ok = bad is None and cases == 10000 and elapsed < budget
    report(
        capsys,
        "C01",
        ok,
        f"closed-form count equals reference loop on {cases} random cases "
        f"(blocks<=12, n<=4096, 4 weight profiles) in {elapsed:.1f}s"
        + (f"; first mismatch {bad}" if bad else ""),
    )


def test_c02_full_set_closed_form(capsys):
    everything = BlockSet((), leading_gap=False)
    bad = None
    cases = 0
    for k in (2, 3, 5):
        for n in range(0, 10001):
            if count_weighted(everything, n, (1, k)) != n // k + 1:
                bad = (n, k)
                break
            cases += 1
        if bad:
            break
    report(
        capsys,
        "C02",
        bad is None,
        f"count over all naturals equals n//k + 1 for n<=10000, k in (2,3,5): "
        f"{cases} cases" + (f"; first mismatch {bad}" if bad else ""),
    )


def test_c03_trivial_ceiling(capsys):
    rng = random.Random(103)
    bad = None
    for _ in range(2000):
        s = random_finite_set(rng, max_blocks=10, hi=2048)
        n = rng.randint(0, 4096)
        k = rng.choice((2, 3, 5))
        if count_weighted(s, n, (1, k)) > n // k + 1:
            bad = (s.boundaries, n, k)
            break
    report(
        capsys,
        "C03",
        bad is None,
        "weighted count never exceeds n//k + 1 on 2000 random cases"
        + (f"; violation {bad}" if bad else ""),
    )


def test_c04_structure_round_trip(capsys):
    ok_fixture = (
        detect_tail(S1.boundaries_through(200), 2) == TailRule(3, 2, 0)
        and select_g(S1) == GSelection(T=40, g=7)
    )
    rng = random.Random(104)
    bad = None
    for _ in range(50):
        s = random_tail_set(rng, periods=(1, 3, 5), ratios=(2, 3))
        found = detect_tail(list(s.boundaries), s.tail.k)
        if found != s.tail:
            bad = (s.boundaries, s.tail, found)
            break
        regrown = generate_from_seed(s.boundaries[: found.a], found.a, found.k, s.boundaries[-1])
        if regrown.boundaries != s.boundaries:
            bad = (s.boundaries, "regrow mismatch")
            break
        sel = select_g(s)
        if sel.g % 2 == 0 or s.tail.k**sel.g <= sel.T:
            bad = (s.boundaries, sel)
            break
    ok = ok_fixture and bad is None
    report(
        capsys,
        "C04",
        ok,
        "detect/generate round-trip and exponent selection on the running "
        "example (a=3, i0=0, T=40, g=7) and 50 random tail sets"
        + ("" if bad is None else f"; failure {bad}"),
    )


def test_c05_decomposition_identities(capsys):
    rng = random.Random(105)
    bad = None
    for _ in range(1000):
        n = rng.randint(10**4, 10**9)
        d = decompose(S1, n, 7)
        lo = 2**d.s * int(S1.boundary(d.ell))
        hi = 2**d.s * int(S1.boundary(d.ell + 1))
        if not (
            (2**7 + 1) * d.m + d.r == n
            and 0 <= d.r <= 2**7
            and 0 <= d.ell < 3
            and lo <= d.m < hi
        ):
            bad = (n, d)
            break
    report(
        capsys,
        "C05",
        bad is None,
        "n = 129*m + r with m bracketed on the boundary lattice for 1000 "
        "random n in [1e4, 1e9]" + (f"; failure {bad}" if bad else ""),
    )


def test_c06_witness_families_validate(capsys):
    budget = 60.0
    start = time.monotonic()
    rep = enumerate_witnesses(S1, 10**8, 7)
    ok_fixture = (
        rep.pairs_checked == 3993
        and rep.guaranteed == Fraction(74771, 26)
        and rep.pairs_checked >= rep.guaranteed
    )
    rng = random.Random(106)
    bad = None
    total_pairs = 0
    for _ in range(200):
        # log-uniform over [1e7, 1e9] so every scale band is exercised
        n = int(10 ** rng.uniform(7, 9))
        r = enumerate_witnesses(S1, n, 7)
        total_pairs += r.pairs_checked
        if r.pairs_checked < r.guaranteed:
            bad = (n, r.pairs_checked, r.guaranteed)
            break
        # the library checks a2 once per family; here each streamed pair is
        # checked on its own, by the sum identity and membership
        member = (S1 if r.side == "set" else S1.complement()).membership(n)
        valid = sum(
            1
            for a1, a2 in iter_witness_pairs(S1, n, 7)
            if a1 + 2 * a2 == n and member(a1) and member(a2)
        )
        if valid != r.pairs_checked:
            bad = (n, valid, r.pairs_checked)
            break
    elapsed = time.monotonic() - start
    ok = ok_fixture and bad is None and elapsed < budget
    report(
        capsys,
        "C06",
        ok,
        f"witness families validated pair-by-pair by membership for 200 random n in "
        f"[1e7, 1e9] ({total_pairs} pairs) plus the n=1e8 fixture "
        f"(3993 >= 74771/26) in {elapsed:.1f}s"
        + (f"; failure {bad}" if bad else ""),
    )


def test_c07_density_window(capsys):
    rng = random.Random(107)
    bad = None
    floor_base = Fraction(1, 33280)
    for _ in range(40):
        n = rng.randint(10**7, 10**9)
        d = decompose(S1, n, 7)
        side = S1 if (d.ell + d.s * 3) % 2 == 0 else S1.complement()
        r_side = count_weighted(side, n, (1, 2))
        lower = max(Fraction(0), floor_base - Fraction(129, n))
        upper = Fraction(1, 2) + Fraction(1, n)
        ratio = Fraction(r_side, n)
        if not (lower <= ratio <= upper):
            bad = (n, ratio)
            break
        if guaranteed_lower_bound(S1, n, 7) > r_side:
            bad = (n, "count below guaranteed bound")
            break
    report(
        capsys,
        "C07",
        bad is None,
        "containing-side ratio r/n stays within [1/33280 - 129/n, 1/2 + 1/n] "
        "on 40 random n in [1e7, 1e9], exactly"
        + (f"; failure {bad}" if bad else ""),
    )


def test_c08_intersection_criterion(capsys):
    fixtures = [
        (2, 8, True),
        (4, 64, True),
        (8, 32, True),
        (2, 4, False),
        (2, 3, False),
        (6, 10, False),
    ]
    bad = [(k, l) for k, l, want in fixtures if intersection_nonempty(k, l) is not want]
    report(
        capsys,
        "C08",
        not bad,
        "odd/odd dependence criterion matches all six reference pairs"
        + (f"; wrong on {bad}" if bad else ""),
    )


def test_c09_equality_verifier(capsys):
    empty = verify_equality(BlockSet(()), 2, 0, 20)
    dyadic = verify_equality(BlockSet((1,), TailRule(1, 2, 0)), 2, 10, 60)
    s1_window = verify_equality(S1, 2, 100, 140)
    ok = (
        empty.first_violation == 0
        and dyadic.equal_count == 25
        and dyadic.first_violation == 10
        and s1_window.equal_count == 0
    )
    report(
        capsys,
        "C09",
        ok,
        "equality verifier reproduces the empty-set, doubling-set, and "
        "running-example windows "
        f"(violations at {empty.first_violation}, {dyadic.first_violation}, "
        f"{s1_window.first_violation})",
    )


def test_c10_complement_involution(capsys):
    rng = random.Random(110)
    bad = None
    for _ in range(1000):
        s = random_finite_set(rng, max_blocks=8, hi=1024)
        if s.complement().complement() != s:
            bad = (s.boundaries, "involution")
            break
        comp = s.complement()
        for x in rng.sample(range(1100), 8):
            if s.contains(x) == comp.contains(x):
                bad = (s.boundaries, x)
                break
        if bad:
            break
    report(
        capsys,
        "C10",
        bad is None,
        "complement is an exact involution and membership is a partition "
        "on 1000 random sets x 8 points" + (f"; failure {bad}" if bad else ""),
    )
