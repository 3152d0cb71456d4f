"""Tail detection, seed generation, scale selection, decomposition, base profiles."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_tail_set
from repfn import (
    BlockSet,
    GSelection,
    InsufficientDataError,
    TailRule,
    decompose,
    detect_tail,
    generate_from_seed,
    intersection_nonempty,
    multiplicative_profile,
    select_g,
)


class TestDetectTail:
    def test_running_example(self, s1):
        bs = s1.boundaries_through(200)
        assert detect_tail(bs, 2) == TailRule(a=3, k=2, i0=0)

    def test_prefers_smallest_period(self):
        # doubling with period 1 also satisfies the period-3 law; report a=1
        assert detect_tail([1, 2, 4, 8, 16, 32], 2) == TailRule(a=1, k=2, i0=0)

    def test_transient_prefix(self):
        assert detect_tail([3, 4, 5, 7, 8, 10, 14], 2) == TailRule(a=3, k=2, i0=1)

    def test_no_law(self):
        assert detect_tail([4, 5, 7, 11, 13, 17, 19, 23], 2) is None

    def test_wrong_ratio(self, s1):
        assert detect_tail(s1.boundaries_through(200), 3) is None

    def test_needs_full_period_of_evidence(self):
        # 8 = 2*4 alone is one relation for a=3; a full period of confirmations is required
        assert detect_tail([4, 5, 7, 8], 2) is None

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            detect_tail([4], 2)
        with pytest.raises(InsufficientDataError):
            detect_tail([], 2)

    def test_rejects_unsorted_boundaries(self):
        with pytest.raises(ValueError) as exc:
            detect_tail([5, 3], 2)
        assert str(exc.value) == "boundaries must be strictly increasing"

    def test_round_trip_with_generation(self):
        rng = random.Random(20260819)
        for _ in range(60):
            s = random_tail_set(rng)
            found = detect_tail(list(s.boundaries), s.tail.k)
            # no shorter period can fit: values within one period stay below k*t0
            assert found == s.tail
            regrown = generate_from_seed(
                s.boundaries[: found.i0 + found.a], found.a, found.k, s.boundaries[-1]
            )
            assert regrown.boundaries == s.boundaries


class TestGenerateFromSeed:
    def test_dyadic(self):
        s = generate_from_seed([1], 1, 2, 10)
        assert s.boundaries == (1, 2, 4, 8)
        assert s.tail == TailRule(a=1, k=2, i0=0)

    def test_running_example(self, s1):
        s = generate_from_seed([4, 5, 7], 3, 2, 30)
        assert s.boundaries == (4, 5, 7, 8, 10, 14, 16, 20, 28)
        assert s.materialize(30) == s1.materialize(30)

    def test_limit_inside_seed(self):
        s = generate_from_seed([5, 6, 7], 3, 2, 3)
        assert s.boundaries == (5, 6, 7)

    def test_limit_is_inclusive(self):
        assert generate_from_seed([1], 1, 2, 8).boundaries == (1, 2, 4, 8)
        assert generate_from_seed([1], 1, 2, 7).boundaries == (1, 2, 4)

    def test_colliding_seed_rejected(self):
        with pytest.raises(ValueError):
            generate_from_seed([1, 2, 3], 3, 2, 100)  # 2*1 = 2 <= 3

    def test_even_period_rejected(self):
        with pytest.raises(ValueError):
            generate_from_seed([4, 5], 2, 2, 100)

    def test_seed_length_must_match_period(self):
        with pytest.raises(ValueError) as exc:
            generate_from_seed((4, 5), 3, 2, 100)
        assert str(exc.value) == "seed must have exactly a=3 entries, got 2"


class TestSelectG:
    def test_running_example(self, s1):
        assert select_g(s1) == GSelection(T=40, g=7)

    def test_dyadic(self, dyadic):
        assert select_g(dyadic) == GSelection(T=28, g=5)

    def test_g_is_least_odd_above_threshold(self):
        rng = random.Random(7)
        for _ in range(40):
            s = random_tail_set(rng)
            if s.tail.i0 != 0:
                continue
            sel = select_g(s)
            k = s.tail.k
            assert sel.g % 2 == 1
            assert k**sel.g > sel.T
            if sel.g >= 3:
                assert k ** (sel.g - 2) <= sel.T

    def test_threshold_from_one_period_spread(self, s1):
        # four times the spread across one period beyond the first boundary
        assert select_g(s1).T == 4 * (int(s1.boundary(5)) - int(s1.boundary(0)))

    def test_requires_anchored_tail(self):
        with pytest.raises(ValueError):
            select_g(BlockSet((4, 5, 7)))
        with pytest.raises(ValueError):
            select_g(BlockSet((3, 4, 5, 7, 8, 10, 14), TailRule(3, 2, 1)))


class TestDecompose:
    def test_fixture_million(self, s1):
        d = decompose(s1, 10**6, 7)
        assert (d.m, d.r, d.s, d.ell) == (7751, 121, 10, 2)

    def test_fixture_hundred_million(self, s1):
        d = decompose(s1, 10**8, 7)
        assert (d.m, d.r, d.s, d.ell) == (775193, 103, 17, 1)

    def test_smallest_valid_n(self, s1):
        d = decompose(s1, 516, 7)
        assert (d.m, d.r, d.s, d.ell) == (4, 0, 0, 0)

    def test_below_threshold_rejected(self, s1):
        with pytest.raises(ValueError):
            decompose(s1, 515, 7)

    def test_negative_n_rejected(self, s1):
        with pytest.raises(ValueError) as exc:
            decompose(s1, -1, 7)
        assert str(exc.value) == "target n must be nonnegative, got -1"

    def test_huge_g_is_below_t0_like_any_other(self, s1):
        # k^g > n from g = n.bit_length() on, so m = 0 without building k^g
        messages = []
        for g in (7, 10**6 + 1):
            with pytest.raises(ValueError) as exc:
                decompose(s1, 100, g)
            messages.append(str(exc.value))
        assert messages[0] == messages[1] == (
            "n = 100 too small: quotient m = 0 sits below t_0 = 4, off the boundary lattice"
        )

    @pytest.mark.parametrize(
        "s", [BlockSet((4, 5, 7), TailRule(3, 2, 0)), BlockSet((1,), TailRule(1, 3, 0))]
    )
    def test_quotient_around_the_bit_length(self, s):
        k, t0 = s.tail.k, s.boundaries[0]
        for n in range(0, 600):
            for g in range(1, 14, 2):
                m, r = divmod(n, k**g + 1)
                if m < t0:
                    with pytest.raises(ValueError, match=f"quotient m = {m} sits below"):
                        decompose(s, n, g)
                else:
                    d = decompose(s, n, g)
                    assert (d.m, d.r) == (m, r)

    def test_reconstruction_identity(self, s1):
        rng = random.Random(41)
        for _ in range(300):
            n = rng.randint(516, 10**9)
            d = decompose(s1, n, 7)
            assert (2**7 + 1) * d.m + d.r == n
            assert 0 <= d.r <= 2**7
            assert 0 <= d.ell < 3

    def test_bracketing(self, s1):
        rng = random.Random(42)
        for _ in range(200):
            n = rng.randint(516, 10**9)
            d = decompose(s1, n, 7)
            lo = 2**d.s * s1.boundary(d.ell)
            hi = 2**d.s * s1.boundary(d.ell + 1)
            assert lo <= d.m < hi

    def test_scale_is_maximal(self, s1):
        rng = random.Random(43)
        for _ in range(100):
            n = rng.randint(516, 10**8)
            d = decompose(s1, n, 7)
            assert 2**d.s * 4 <= d.m < 2 ** (d.s + 1) * 4

    def test_other_set(self, dyadic):
        # m relative to seed 1: s is the plain bit length step
        d = decompose(dyadic, 33 * 1000 + 5, 5)
        assert d.m == 1000
        assert d.r == 5
        assert 2**d.s <= 1000 < 2 ** (d.s + 1)
        assert d.ell == 0

    def test_requires_anchored_tail(self):
        with pytest.raises(ValueError):
            decompose(BlockSet((4, 5, 7)), 10**6, 7)


class TestMultiplicativeProfile:
    @pytest.mark.parametrize(
        "k,l,d,p,q",
        [
            (2, 8, 2, 1, 3),
            (4, 64, 4, 1, 3),
            (8, 32, 2, 3, 5),
            (27, 9, 3, 3, 2),
        ],
    )
    def test_dependent_pairs(self, k, l, d, p, q):
        prof = multiplicative_profile(k, l)
        assert prof.dependent
        assert (prof.d, prof.p, prof.q) == (d, p, q)
        assert prof.d**prof.p == k
        assert prof.d**prof.q == l

    @pytest.mark.parametrize("k,l", [(2, 3), (6, 10), (2, 6), (12, 18)])
    def test_independent_pairs(self, k, l):
        prof = multiplicative_profile(k, l)
        assert not prof.dependent
        assert prof.d is None

    def test_symmetry(self):
        for k, l in [(2, 8), (8, 32), (2, 3), (9, 27)]:
            a = multiplicative_profile(k, l)
            b = multiplicative_profile(l, k)
            assert a.dependent == b.dependent
            assert a.d == b.d
            assert (a.p, a.q) == (b.q, b.p)

    @given(st.integers(2, 40), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=120)
    def test_powers_of_common_base(self, base, e1, e2):
        prof = multiplicative_profile(base**e1, base**e2)
        assert prof.dependent
        assert math.gcd(prof.p, prof.q) == 1

    def test_huge_powers(self):
        prof = multiplicative_profile(2**300, 2**500)
        assert (prof.dependent, prof.d, prof.p, prof.q) == (True, 2**100, 3, 5)

    def test_matches_trial_over_bases(self):
        # exponent[x][d] = e with d**e == x, found by trial over every base d
        top = 200
        exponent: dict[int, dict[int, int]] = {x: {} for x in range(2, top + 1)}
        for d in range(2, top + 1):
            x, e = d, 1
            while x <= top:
                exponent[x][d] = e
                x, e = x * d, e + 1
        for k in range(2, top + 1):
            for l in range(2, top + 1):
                common = exponent[k].keys() & exponent[l].keys()
                prof = multiplicative_profile(k, l)
                if not common:
                    assert not prof.dependent
                    continue
                d = max(common)
                assert (prof.dependent, prof.d, prof.p, prof.q) == (
                    True, d, exponent[k][d], exponent[l][d]
                )

    def test_same_value(self):
        prof = multiplicative_profile(6, 6)
        assert prof.dependent
        assert (prof.p, prof.q) == (1, 1)

    def test_rejects_small_arguments(self):
        with pytest.raises(ValueError):
            multiplicative_profile(1, 4)
        with pytest.raises(ValueError):
            multiplicative_profile(4, 0)


class TestIntersectionCriterion:
    @pytest.mark.parametrize(
        "k,l,expected",
        [
            (2, 8, True),    # exponents 1,3 both odd
            (4, 64, True),   # 1,3
            (8, 32, True),   # 3,5
            (2, 4, False),   # 1,2: one exponent even
            (4, 8, False),   # 2,3
            (2, 3, False),   # independent
            (6, 10, False),  # independent
            (3, 27, True),   # 1,3
            (9, 27, False),  # 2,3
        ],
    )
    def test_fixtures(self, k, l, expected):
        assert intersection_nonempty(k, l) is expected
        assert multiplicative_profile(k, l).odd_odd is expected

    def test_symmetry(self):
        for k in range(2, 20):
            for l in range(2, 20):
                assert intersection_nonempty(k, l) == intersection_nonempty(l, k)

    def test_diagonal_always_meets(self):
        for k in range(2, 30):
            assert intersection_nonempty(k, k)
