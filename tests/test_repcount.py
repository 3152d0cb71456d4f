"""Weighted and classic representation counting against brute-force oracles."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    brute_classic,
    brute_count,
    count_weighted_blockpairs,
    finite_blocksets,
    members_below,
    random_tail_set,
    tail_blocksets,
)
from repfn import (
    BlockSet,
    count_classic,
    count_weighted,
    count_weighted_oracle,
    normalize,
)


@pytest.fixture
def zero_two_three():
    return normalize([(0, 1), (2, 4)])


class TestWeightedFixtures:
    def test_small_set(self, zero_two_three):
        # a1 + 2*a2 = 6 over {0,2,3}: (2,2) and (0,3)
        assert count_weighted(zero_two_three, 6, (1, 2)) == 2
        assert count_weighted(zero_two_three, 0, (1, 2)) == 1  # (0,0)
        assert count_weighted(zero_two_three, 4, (1, 2)) == 1  # (0,2)
        assert count_weighted(zero_two_three, 1, (1, 2)) == 0

    def test_running_example(self, s1):
        assert count_weighted(s1, 100, (1, 2)) == 14
        assert count_weighted_oracle(s1, 100, (1, 2)) == 14

    def test_empty_set(self):
        assert count_weighted(BlockSet(()), 10, (1, 2)) == 0

    def test_all_naturals_closed_form(self):
        everything = BlockSet((), leading_gap=False)
        for n in (0, 1, 17, 100, 101):
            for k in (2, 3, 5):
                assert count_weighted(everything, n, (1, k)) == n // k + 1


class TestWeightedAgainstOracle:
    @given(
        finite_blocksets(max_blocks=6, hi=256),
        st.integers(0, 600),
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
    )
    @settings(max_examples=150)
    def test_random_finite_sets(self, s, n, w):
        fast = count_weighted(s, n, w)
        assert fast == count_weighted_oracle(s, n, w)
        assert fast == brute_count(members_below(s, n + 1), n, w)

    @pytest.mark.parametrize("w", [(1, 2), (2, 3), (1, 5), (3, 3), (2, 4)])
    def test_tail_set(self, s1, w):
        for n in list(range(0, 250, 7)) + [516, 1000, 2048]:
            assert count_weighted(s1, n, w) == count_weighted_oracle(s1, n, w)

    def test_weight_common_factor(self, s1):
        # gcd(2,4)=2 never divides an odd n, so the count must be zero
        assert count_weighted(s1, 101, (2, 4)) == 0

    @given(
        tail_blocksets(),
        st.integers(0, 5000),
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
    )
    @settings(max_examples=150)
    def test_random_tail_sets(self, s, n, w):
        # small seeds put many blocks under n, so a1 crosses many of them per a2-block
        assert count_weighted(s, n, w) == count_weighted_oracle(s, n, w)

    @given(finite_blocksets(max_blocks=5, hi=128), st.integers(0, 300))
    @settings(max_examples=60)
    def test_weight_swap_symmetry(self, s, n):
        # both slots draw from the same set, so swapping weights swaps coordinates
        assert count_weighted(s, n, (1, 3)) == count_weighted(s, n, (3, 1))


class TestClassicVariants:
    def test_three_element_fixture(self):
        s = normalize([(0, 3)])  # {0,1,2}
        assert count_classic(s, 2, "R1") == 3  # (0,2),(1,1),(2,0)
        assert count_classic(s, 2, "R2") == 1  # {0,2}
        assert count_classic(s, 2, "R3") == 2  # {0,2},{1,1}

    def test_r1_is_weighted_with_unit_weights(self, s1):
        for n in range(0, 200, 3):
            assert count_classic(s1, n, "R1") == count_weighted(s1, n, (1, 1))

    @given(finite_blocksets(max_blocks=6, hi=200), st.integers(0, 450))
    @settings(max_examples=120)
    def test_against_pair_enumeration(self, s, n):
        members = members_below(s, n + 1)
        for variant in ("R1", "R2", "R3"):
            assert count_classic(s, n, variant) == brute_classic(members, n, variant)

    @given(finite_blocksets(max_blocks=6, hi=200), st.integers(0, 450))
    @settings(max_examples=80)
    def test_identities(self, s, n):
        r1 = count_classic(s, n, "R1")
        r2 = count_classic(s, n, "R2")
        r3 = count_classic(s, n, "R3")
        delta = 1 if n % 2 == 0 and s.contains(n // 2) else 0
        assert r1 == 2 * r2 + delta
        assert r3 == r2 + delta


class TestCountingBounds:
    @given(finite_blocksets(max_blocks=8, hi=300), st.integers(0, 800), st.integers(2, 6))
    @settings(max_examples=100)
    def test_trivial_ceiling(self, s, n, k):
        # a2 determines a1, and 0 <= a2 <= n/k
        assert count_weighted(s, n, (1, k)) <= n // k + 1

    def test_ceiling_reached_only_by_full_range(self, s1):
        n = 1000
        assert count_weighted(s1, n, (1, 2)) < n // 2 + 1


class TestArgumentValidation:
    def test_negative_n(self, s1):
        with pytest.raises(ValueError):
            count_weighted(s1, -1, (1, 2))

    @pytest.mark.parametrize("w", [(0, 2), (1, 0), (-1, 2), (1, -3)])
    def test_nonpositive_weights(self, s1, w):
        with pytest.raises(ValueError):
            count_weighted(s1, 10, w)

    def test_unknown_variant(self, s1):
        with pytest.raises(ValueError):
            count_classic(s1, 10, "R4")


class TestLargeInputsStayExact:
    def test_big_n_matches_oracle_spot_check(self, s1):
        rng = random.Random(9)
        for _ in range(5):
            n = rng.randint(10**5, 5 * 10**5)
            assert count_weighted(s1, n, (1, 2)) == count_weighted_oracle(s1, n, (1, 2))


# k1 == k2, a common factor, k1 > k2, and coprime k1 < k2
WEIGHT_PROFILES = [(1, 1), (5, 5), (2, 4), (4, 6), (3, 1), (5, 2), (1, 2), (2, 3)]


def _random_tail_set_either_phase(rng: random.Random, periods, ratios) -> BlockSet:
    s = random_tail_set(rng, periods, ratios)
    return BlockSet(s.boundaries, s.tail, rng.random() < 0.5)


class TestBisectedKernelAgainstBlockPairs:
    """The bisected kernel against the O(B^2) loop over every block pair."""

    def test_random_tail_sets_up_to_1e60(self):
        rng = random.Random(20240)
        for i in range(96):
            s = _random_tail_set_either_phase(rng, (1, 3, 5, 7), (2, 3, 4, 5))
            n = rng.randint(0, 10 ** rng.randint(1, 60))
            w = WEIGHT_PROFILES[i % len(WEIGHT_PROFILES)]
            assert count_weighted(s, n, w) == count_weighted_blockpairs(s, n, w), (s, n, w)

    def test_random_tail_sets_at_1e150(self):
        # few blocks per decade (a <= 3, k >= 3) keep the B^2 reference affordable
        rng = random.Random(150)
        for w in ((1, 1), (5, 5), (2, 4), (5, 2), (3, 1), (1, 2)):
            s = _random_tail_set_either_phase(rng, (1, 3), (3, 4, 5))
            n = rng.randint(10**149, 10**150)
            assert count_weighted(s, n, w) == count_weighted_blockpairs(s, n, w), (s, n, w)
