"""Construction, membership, complement, normalization, boundary extension."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import finite_blocksets, members_below, tail_blocksets
from repfn import BlockSet, TailRule, normalize


class TestMaterialize:
    def test_running_example(self, s1):
        assert s1.materialize(30) == [(4, 5), (7, 8), (10, 14), (16, 20), (28, 30)]

    def test_limit_on_boundary(self, s1):
        # 28 is a block start, so the final block is clipped to zero width and dropped
        assert s1.materialize(28) == [(4, 5), (7, 8), (10, 14), (16, 20)]

    def test_limit_zero(self, s1):
        assert s1.materialize(0) == []

    def test_negative_limit_rejected(self, s1):
        with pytest.raises(ValueError):
            s1.materialize(-1)

    def test_empty_set(self):
        assert BlockSet(()).materialize(100) == []

    def test_all_naturals(self):
        assert BlockSet((), leading_gap=False).materialize(17) == [(0, 17)]

    def test_dyadic(self, dyadic):
        assert dyadic.materialize(33) == [(1, 2), (4, 8), (16, 32)]


class TestMembership:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (0, False),
            (3, False),
            (4, True),
            (5, False),
            (7, True),
            (10, True),
            (13, True),
            (14, False),
            (20, False),
            (40, True),
            (55, True),
            (56, False),
            (63, False),
            (64, True),
        ],
    )
    def test_running_example_points(self, s1, x, expected):
        assert s1.contains(x) is expected
        assert (x in s1) is expected

    def test_negative_contains_raises_but_in_is_false(self, s1):
        with pytest.raises(ValueError):
            s1.contains(-3)
        assert -3 not in s1

    def test_non_integer_contains_raises_but_in_is_false(self, s1):
        # 4.5 lies inside the block [4, 5) but is not an integer
        with pytest.raises(ValueError):
            s1.contains(4.5)
        assert 4.5 not in s1
        assert "4" not in s1

    @pytest.mark.parametrize("flip", [False, True])
    def test_membership_predicate_matches_materialize(self, s1, flip):
        s = s1.complement() if flip else s1
        member = s.membership(200)
        members = members_below(s, 201)
        assert [x for x in range(201) if member(x)] == sorted(members)

    def test_block_in_set_follows_materialized_blocks(self, s1):
        bs = s1.boundaries_through(1000)
        in_set = [(bs[j], bs[j + 1]) for j in range(len(bs) - 1) if s1.block_in_set(j)]
        assert in_set == s1.materialize(bs[-1])
        assert not s1.complement().block_in_set(0)

    def test_matches_materialize(self, s1):
        members = members_below(s1, 200)
        for x in range(200):
            assert s1.contains(x) == (x in members)

    def test_parity_of_boundary_count(self, s1):
        # membership is exactly "an odd number of boundaries lie at or below x"
        for x in range(120):
            below = [t for t in s1.boundaries_through(x) if t <= x]
            assert s1.contains(x) == (len(below) % 2 == 1)


class TestComplement:
    def test_flips_flag_only(self, s1):
        comp = s1.complement()
        assert comp.boundaries == s1.boundaries
        assert comp.tail == s1.tail
        assert comp.leading_gap != s1.leading_gap

    def test_involution_is_identity(self, s1):
        assert s1.complement().complement() == s1

    @given(finite_blocksets(), st.integers(0, 600))
    def test_membership_xor(self, s, x):
        assert s.contains(x) != s.complement().contains(x)

    def test_empty_complement_is_everything(self):
        comp = BlockSet(()).complement()
        assert all(comp.contains(x) for x in range(50))

    def test_tail_set_xor(self, s1):
        comp = s1.complement()
        for x in range(300):
            assert s1.contains(x) != comp.contains(x)


class TestTwoEncodings:
    def test_leading_block_via_flag(self):
        # {0} followed by [2,4): either a leading gap of zero width or flag=False
        with_flag = BlockSet((1, 2, 4), leading_gap=False)
        with_zero_gap = BlockSet((0, 1, 2, 4), leading_gap=True)
        for x in range(10):
            assert with_flag.contains(x) == with_zero_gap.contains(x)


class TestNormalize:
    def test_unsorted_input(self):
        s = normalize([(2, 4), (0, 1)])
        assert s.boundaries == (0, 1, 2, 4)
        assert s.leading_gap is True

    def test_adjacent_intervals_merge(self):
        assert normalize([(0, 2), (2, 5)]).boundaries == (0, 5)

    def test_overlapping_intervals_merge(self):
        assert normalize([(0, 3), (2, 5), (7, 8)]).boundaries == (0, 5, 7, 8)

    def test_empty(self):
        s = normalize([])
        assert s.boundaries == ()
        assert not s.contains(0)

    def test_membership_after_merge(self):
        s = normalize([(0, 1), (2, 4)])
        assert members_below(s, 10) == {0, 2, 3}

    @pytest.mark.parametrize("bad", [(3, 3), (5, 2), (-1, 4)])
    def test_degenerate_interval_rejected(self, bad):
        with pytest.raises(ValueError):
            normalize([bad])


class TestValidation:
    def test_boundaries_must_increase(self):
        with pytest.raises(ValueError):
            BlockSet((4, 4, 7))
        with pytest.raises(ValueError):
            BlockSet((5, 4))

    def test_boundaries_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            BlockSet((-2, 3))

    def test_tail_law_checked_on_stored_prefix(self):
        with pytest.raises(ValueError):
            BlockSet((4, 5, 7, 9), TailRule(a=3, k=2, i0=0))  # 9 != 2*4

    def test_seed_must_cover_one_period(self):
        with pytest.raises(ValueError):
            BlockSet((4, 5), TailRule(a=3, k=2, i0=0))

    def test_seed_period_must_fit_under_ratio(self):
        # with a=3, k=2 the seed row (4, 5, 9) would make boundaries collide: 2*4 < 9
        with pytest.raises(ValueError):
            BlockSet((4, 5, 9), TailRule(a=3, k=2, i0=0))

    @pytest.mark.parametrize("a,k,i0", [(2, 2, 0), (0, 2, 0), (-1, 2, 0), (3, 1, 0), (3, 0, 0), (3, 2, -1)])
    def test_tail_rule_parameter_validation(self, a, k, i0):
        with pytest.raises(ValueError):
            TailRule(a=a, k=k, i0=i0)


class TestBoundaryExtension:
    def test_stored_and_generated(self, s1):
        assert s1.boundary(0) == 4
        assert s1.boundary(3) == 8
        assert s1.boundary(7) == 20
        assert [s1.boundary(i) for i in range(9)] == [4, 5, 7, 8, 10, 14, 16, 20, 28]

    def test_backward_extension(self, s1):
        assert s1.boundary(-1) == Fraction(7, 2)
        assert s1.boundary(-2) == Fraction(5, 2)
        assert s1.boundary(-3) == 2
        assert s1.boundary(-6) == 1

    def test_backward_denominators_are_ratio_powers(self, s1):
        for i in range(-15, 0):
            den = s1.boundary(i).denominator
            while den % 2 == 0:
                den //= 2
            assert den == 1

    def test_lattice_step(self, s1):
        for i in range(-12, 15):
            assert s1.boundary(i + 3) == 2 * s1.boundary(i)

    def test_strictly_increasing(self, s1):
        vals = [s1.boundary(i) for i in range(-9, 12)]
        assert all(lo < hi for lo, hi in zip(vals, vals[1:]))

    def test_finite_set_has_no_extension(self):
        s = BlockSet((4, 5, 7))
        assert s.boundary(2) == 7
        with pytest.raises(ValueError):
            s.boundary(3)
        with pytest.raises(ValueError):
            s.boundary(-1)

    def test_anchored_tail_required_for_negative_index(self):
        s = BlockSet((3, 4, 5, 7, 8, 10, 14), TailRule(a=3, k=2, i0=1))
        assert s.boundary(4) == 8
        assert s.boundary(9) == 28
        with pytest.raises(ValueError):
            s.boundary(-1)


class TestOneEdgeList:
    """materialize, membership and boundary agree on every set, in both phases."""

    ANY_SET = st.one_of(finite_blocksets(), tail_blocksets())

    @given(ANY_SET, st.integers(0, 700))
    def test_blocks_are_the_maximal_runs_of_members(self, s, limit):
        member = s.membership(limit)
        runs: list[tuple[int, int]] = []
        for x in range(limit):
            if not member(x):
                continue
            if runs and runs[-1][1] == x:
                runs[-1] = (runs[-1][0], x + 1)
            else:
                runs.append((x, x + 1))
        assert s.materialize(limit) == runs

    @given(ANY_SET)
    def test_boundary_reads_the_generated_list(self, s):
        vals = s.boundaries_through(10**6)
        assert [s.boundary(i) for i in range(len(vals))] == vals

    @given(tail_blocksets(), st.integers(-30, 30))
    def test_one_period_is_one_factor_of_k(self, s, i):
        assert s.tail.k * s.boundary(i - s.tail.a) == s.boundary(i)


class TestTruncateToTail:
    def test_already_anchored_returns_self(self, s1):
        assert s1.truncate_to_tail() is s1

    def test_drops_pre_periodic_blocks(self):
        s = BlockSet((3, 4, 5, 7, 8, 10, 14), TailRule(a=3, k=2, i0=1))
        t = s.truncate_to_tail()
        assert t.tail == TailRule(a=3, k=2, i0=0)
        assert t.boundaries[0] >= s.boundaries[s.tail.i0]
        for x in range(t.boundaries[0], 400):
            assert t.contains(x) == s.contains(x)
        for x in range(t.boundaries[0]):
            assert not t.contains(x)

    def test_no_tail_raises(self):
        with pytest.raises(ValueError):
            BlockSet((4, 5, 7)).truncate_to_tail()


class TestBoundariesThrough:
    def test_generation_stops_at_limit(self, s1):
        assert s1.boundaries_through(30) == [4, 5, 7, 8, 10, 14, 16, 20, 28]
        assert s1.boundaries_through(28) == [4, 5, 7, 8, 10, 14, 16, 20, 28]
        assert s1.boundaries_through(27) == [4, 5, 7, 8, 10, 14, 16, 20]

    def test_below_first_boundary(self, s1):
        assert s1.boundaries_through(3) == []

    def test_finite_set(self):
        assert BlockSet((4, 5, 7)).boundaries_through(1000) == [4, 5, 7]


class TestBlockIndex:
    def test_running_example(self, s1):
        assert s1.block_index(3) == -1
        assert s1.block_index(4) == 0
        assert s1.block_index(13) == 4  # block [10, 14)
        assert s1.block_index(14) == 5

    def test_inverse_of_boundary(self, s1, dyadic):
        for s in (s1, dyadic):
            for j in range(40):
                t, t_next = int(s.boundary(j)), int(s.boundary(j + 1))
                assert s.block_index(t) == j
                assert s.block_index(t_next - 1) == j

    def test_finite_set(self):
        s = BlockSet((4, 5, 7))
        assert [s.block_index(x) for x in (0, 4, 6, 7, 10**9)] == [-1, 0, 1, 2, 2]
        assert BlockSet(()).block_index(5) == -1


class TestDocRoundTrip:
    def test_tail_set(self, s1):
        doc = s1.to_doc()
        assert doc["boundaries"] == [4, 5, 7]
        assert doc["tail"] == {"a": 3, "k": 2, "i0": 0}
        assert doc["leading_gap"] is True
        assert BlockSet.from_doc(doc) == s1

    def test_finite_set_tail_is_null(self):
        s = BlockSet((0, 1, 2, 4), leading_gap=False)
        doc = s.to_doc()
        assert doc["tail"] is None
        assert BlockSet.from_doc(doc) == s

    def test_leading_gap_defaults_true(self):
        assert BlockSet.from_doc({"boundaries": [1, 2]}) == BlockSet((1, 2))

    @given(finite_blocksets())
    def test_random_round_trip(self, s):
        assert BlockSet.from_doc(s.to_doc()) == s

    @pytest.mark.parametrize(
        "doc",
        [
            {"boundaries": "457"},
            {"boundaries": None},
            {"boundaries": [[4]]},
            {"boundaries": [4.9, 5, 7]},
            {"boundaries": [4, 5, 7], "leading_gap": "false"},
            {"boundaries": [4, 5, 7], "tail": {"a": 3, "k": 2.5}},
            {"boundaries": [1], "tail": {"a": True, "k": 2}},
        ],
    )
    def test_rejects_misread_values(self, doc):
        # each of these used to be coerced (or crash with a TypeError)
        with pytest.raises(ValueError):
            BlockSet.from_doc(doc)

    @pytest.mark.parametrize("tail", [3, {"a": 3}])
    def test_malformed_tail_rule(self, tail):
        with pytest.raises(ValueError) as exc:
            BlockSet.from_doc({"boundaries": [4, 5, 7], "tail": tail})
        assert str(exc.value) == f"malformed tail rule: {tail!r}"

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"boundaries": [4, 5, 7], "tial": {"a": 3, "k": 2}},
                "set document has an unknown key 'tial'; known keys: boundaries, leading_gap, tail",
            ),
            (
                {"boundaries": [4, 5, 7], "leading-gap": False},
                "set document has an unknown key 'leading-gap'; known keys: boundaries, leading_gap, tail",
            ),
            (
                {"boundaries": [4, 5, 7], "tail": {"a": 3, "k": 2, "io": 1}},
                "tail rule has an unknown key 'io'; known keys: a, k, i0",
            ),
        ],
        ids=["tial", "leading-gap", "io"],
    )
    def test_unknown_key_is_named(self, doc, message):
        # a misspelt key used to be dropped and the default read in its place
        with pytest.raises(ValueError) as exc:
            BlockSet.from_doc(doc)
        assert str(exc.value) == message


class TestRandomizedMembership:
    def test_contains_agrees_with_interval_walk(self):
        rng = random.Random(171)
        for _ in range(200):
            nblocks = rng.randint(1, 10)
            cuts = sorted(rng.sample(range(0, 300), 2 * nblocks))
            s = BlockSet(tuple(cuts), None, rng.random() < 0.5)
            members = members_below(s, 310)
            for x in rng.sample(range(310), 40):
                assert s.contains(x) == (x in members)
