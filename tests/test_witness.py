"""Witness families: case classification, q-ranges, pair validation, reports."""

from __future__ import annotations

import re
import warnings
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from helpers import tail_blocksets, validated_pairs_by_membership
from repfn import (
    BlockSet,
    Decomposition,
    TailRule,
    WitnessReport,
    WitnessValidationError,
    classify_case,
    count_weighted,
    decompose,
    enumerate_witnesses,
    floor_constant,
    guaranteed_lower_bound,
    iter_witness_pairs,
    select_g,
    witness_q_range,
)
from repfn.witness import CASES, _plan, _validated_pairs


def block_index(s: BlockSet, x: int) -> int:
    """Index j with boundary(j) <= x < boundary(j+1)."""
    j = s.block_index(x)
    assert j >= 0
    return j


class TestContainingSide:
    """The report's side is the side of m's lattice cell, block ell + s*a."""

    def test_fixtures(self, s1):
        # n = 129*m at g = 7: m = 2^10*7 is block 32, 2^17*5 + 2^15 block 52, 2*4 block 3
        assert enumerate_witnesses(s1, 129 * 2**10 * 7, 7).side == "set"
        assert enumerate_witnesses(s1, 129 * (2**17 * 5 + 2**15), 7).side == "set"
        assert enumerate_witnesses(s1, 129 * 2 * 4, 7).side == "complement"

    def test_parity_rule(self, s1):
        for scale in range(0, 6):
            for ell in range(3):
                rep = enumerate_witnesses(s1, 129 * int(s1.boundary(ell)) * 2**scale, 7)
                d = rep.decomposition
                assert (d.s, d.ell) == (scale, ell)
                expected = "set" if (ell + scale * 3) % 2 == 0 else "complement"
                assert rep.side == expected

    def test_agrees_with_membership(self, s1):
        # the cell [2^s * t_ell, 2^s * t_(ell+1)) lies wholly on the reported side
        for scale in range(0, 8):
            for ell in range(3):
                lo = int(s1.boundary(ell)) * 2**scale
                hi = int(s1.boundary(ell + 1)) * 2**scale
                on_set = enumerate_witnesses(s1, 129 * lo, 7).side == "set"
                assert s1.block_in_set(ell + scale * 3) == on_set
                assert s1.contains(lo) == on_set and s1.contains(hi - 1) == on_set

    @given(tail_blocksets(k_max=6), st.integers(0, 5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_side_holds_the_quotient(self, s, scale, data):
        # the rule scan_ratio and the benchmark's reference read: "set" iff m is in S
        a, k = s.tail.a, s.tail.k
        g = select_g(s).g
        j = data.draw(st.integers(0, a - 1)) + scale * a
        m = data.draw(st.integers(int(s.boundary(j)), int(s.boundary(j + 1)) - 1))
        n = (k**g + 1) * m + data.draw(st.integers(0, k**g))
        rep = enumerate_witnesses(s, n, g)
        assert rep.decomposition.m == m
        assert (rep.side == "set") == s.contains(m)


class TestClassifyCase:
    def test_interior(self, s1):
        d = decompose(s1, 10**8, 7)
        assert classify_case(s1, d) == "I"

    def test_left_edge(self, s1):
        d = decompose(s1, 129 * (2**10 * 7), 7)
        assert d.m == 2**10 * 7 and d.ell == 2
        assert classify_case(s1, d) == "II"

    def test_right_edge(self, s1):
        d = decompose(s1, 129 * (2**11 * 4 - 1), 7)
        assert d.m == 2**11 * 4 - 1 and d.ell == 2
        assert classify_case(s1, d) == "III"

    def test_left_margin_is_strict(self, s1):
        # offset exactly 2^(s-4) falls outside the left band
        d = decompose(s1, 129 * (2**10 * 7 + 2**6), 7)
        assert d.s == 10 and d.ell == 2
        assert classify_case(s1, d) == "I"

    def test_right_margin_is_inclusive(self, s1):
        d = decompose(s1, 129 * (2**11 * 4 - 2**6), 7)
        assert d.s == 10 and d.ell == 2
        assert classify_case(s1, d) == "III"

    def test_rejects_a_decomposition_of_another_set(self, s1):
        d = Decomposition(10**8, 5, 0, 3, 1, 7)  # m = 5 is not in block 1 + 3*3
        with pytest.raises(ValueError) as exc:
            classify_case(s1, d)
        assert str(exc.value) == "decomposition does not match set: m=5 not in [40,56)"

    def test_cases_partition_every_m(self, s1):
        # at any scale the three bands cover the cell without overlap
        for n in range(516, 4000):
            d = decompose(s1, n, 7)
            assert classify_case(s1, d) in ("I", "II", "III")


class TestQRange:
    def test_case_i_fixture(self, s1):
        d = decompose(s1, 10**8, 7)
        assert witness_q_range(s1, d, "I") == (0, 3992)

    def test_case_ii_fixture(self, s1):
        d = decompose(s1, 129 * 7168, 7)
        assert witness_q_range(s1, d, "II") == (1057, 1536)

    def test_case_iii_fixture(self, s1):
        d = decompose(s1, 129 * 8191 + 5, 7)
        assert witness_q_range(s1, d, "III") == (1056, 3067)

    def test_case_i_shrinks_with_offset(self, s1):
        # larger r eats the Case I budget one-for-one
        d5 = decompose(s1, 129 * 775193 + 5, 7)
        d9 = decompose(s1, 129 * 775193 + 9, 7)
        lo5, hi5 = witness_q_range(s1, d5, "I")
        lo9, hi9 = witness_q_range(s1, d9, "I")
        assert lo5 == lo9 == 0
        assert hi5 - hi9 == 4

    def test_unknown_case_rejected(self, s1):
        d = decompose(s1, 10**8, 7)
        with pytest.raises(ValueError):
            witness_q_range(s1, d, "IV")


class TestEnumerateFixtures:
    def test_hundred_million(self, s1):
        rep = enumerate_witnesses(s1, 10**8, 7)
        assert rep.case == "I"
        assert rep.side == "set"
        assert (rep.q_lo, rep.q_hi) == (0, 3992)
        assert rep.pairs_checked == 3993
        assert rep.q_count == 3993
        assert rep.guaranteed == Fraction(74771, 26)
        assert rep.pairs_checked >= rep.guaranteed

    def test_one_million_family_is_empty(self, s1):
        rep = enumerate_witnesses(s1, 10**6, 7)
        assert rep.case == "I"
        assert rep.pairs_checked == 0
        assert rep.q_count == 0
        assert rep.guaranteed == 0

    def test_case_ii_enumeration(self, s1):
        n = 129 * 7168
        rep = enumerate_witnesses(s1, n, 7)
        assert rep.case == "II"
        assert rep.side == "set"
        assert (rep.q_lo, rep.q_hi) == (1057, 1536)
        assert rep.pairs_checked == 480
        pairs = list(iter_witness_pairs(s1, n, 7))
        assert len(pairs) == 480
        assert pairs[0] == (7168 - 2 * 1057, 2**6 * 7168 + 1057)

    def test_case_iii_enumeration(self, s1):
        n = 129 * 8191 + 5
        rep = enumerate_witnesses(s1, n, 7)
        assert rep.case == "III"
        assert rep.side == "set"
        assert (rep.q_lo, rep.q_hi) == (1056, 3067)
        assert rep.pairs_checked == 2012
        pairs = list(iter_witness_pairs(s1, n, 7))
        assert pairs[0] == (8191 + 2 * 1056 + 5, 2**6 * 8191 - 1056)

    def test_small_scale_family_is_empty_by_design(self, s1):
        # s = 4 leaves no room for the safety margins; emit nothing rather than guess
        n = 129 * 100 + 7
        rep = enumerate_witnesses(s1, n, 7)
        assert rep.decomposition.s == 4
        assert rep.pairs_checked == 0
        assert rep.q_count == 0
        doc = rep.to_doc()
        assert doc["q_lo"] is None and doc["q_hi"] is None

    def test_rejects_unanchored_tail(self):
        s = BlockSet((3, 4, 5, 7, 8, 10, 14), TailRule(3, 2, 1))
        with pytest.raises(ValueError):
            enumerate_witnesses(s, 10**6, 7)

    def test_rejects_finite_set(self):
        with pytest.raises(ValueError):
            enumerate_witnesses(BlockSet((4, 5, 7)), 10**6, 7)

    def test_streaming_is_lazy(self):
        # the stream raises at its first next(), not when it is created
        pairs = iter_witness_pairs(BlockSet((4, 5, 7)), 10**6, 7)
        with pytest.raises(ValueError):
            next(pairs)


class TestPairValidity:
    @pytest.mark.parametrize(
        "n", [10**8, 129 * 7168, 129 * 8191 + 5, 129 * 5120, 10**7 + 3]
    )
    def test_sum_identity_and_membership(self, s1, n):
        rep = enumerate_witnesses(s1, n, 7)
        side_set = s1 if rep.side == "set" else s1.complement()
        pairs = list(iter_witness_pairs(s1, n, 7))
        assert len(pairs) == rep.pairs_checked
        assert len(set(pairs)) == len(pairs)
        sample = pairs if len(pairs) < 60 else pairs[::37]
        for a1, a2 in sample:
            assert a1 + 2 * a2 == n
            assert a1 >= 0 and a2 >= 0
            assert side_set.contains(a1)
            assert side_set.contains(a2)

    def test_pairs_feed_the_weighted_count(self, s1):
        # every validated pair is an actual representation on the containing side
        n = 129 * 7168
        rep = enumerate_witnesses(s1, n, 7)
        side_set = s1 if rep.side == "set" else s1.complement()
        assert count_weighted(side_set, n, (1, 2)) >= rep.pairs_checked

    def test_components_stay_in_expected_blocks(self, s1):
        # Case II: a1 lands two rungs below m's block, a2 lands g-1 rungs above
        n = 129 * 7168
        pairs = list(iter_witness_pairs(s1, n, 7))
        i1 = {block_index(s1, a1) for a1, _ in pairs}
        i2 = {block_index(s1, a2) for _, a2 in pairs}
        assert i1 == {30}  # [2^10*4, 2^10*5)
        assert i2 == {50}  # [2^16*7, 2^17*4)


@st.composite
def lattice_targets(draw, k_max: int = 5, scales=(5, 6), low_g: bool = False):
    """(set, n, g) with g = select_g(set).g and n's quotient m at one of the
    scales, drawn from the left band, the middle or the right band of its cell.
    With low_g, g may also be 1 or 3, where many families fail their check."""
    s = draw(tail_blocksets(k_max))
    a, k = s.tail.a, s.tail.k
    g = select_g(s).g
    if low_g:
        g = draw(st.sampled_from((1, 3, g)))
    j = draw(st.integers(0, a - 1)) + draw(st.sampled_from(scales)) * a
    lo, hi = int(s.boundary(j)), int(s.boundary(j + 1))
    band = k ** (j // a - 4)
    m = draw(
        st.integers(lo, lo + band - 1)
        | st.integers(lo + band, hi - band - 1)
        | st.integers(hi - band, hi - 1)
    )
    r = draw(st.integers(0, k) | st.integers(0, k**g))  # case I needs r < k^(s-5)
    return s, (k**g + 1) * m + r, g


def docstring_pairs(s, n, g):
    """The witness family written out from the module docstring's formulas:
    (m + k*q + r, k^(g-1)*m - q) in cases I and III, (m - k*q + r, k^(g-1)*m + q)
    in case II, for q over witness_q_range."""
    k = s.tail.k
    d = decompose(s, n, g)
    case = classify_case(s, d)
    q_lo, q_hi = witness_q_range(s, d, case)
    for q in range(q_lo, q_hi + 1):
        if case == "II":
            yield d.m - k * q + d.r, k ** (g - 1) * d.m + q
        else:
            yield d.m + k * q + d.r, k ** (g - 1) * d.m - q


class TestDocstringFamily:
    """The streamed family against the docstring's formulas, pair by pair."""

    CAP = 5000  # edge-zone families at k = 5 reach about 10^5 pairs

    @given(lattice_targets())
    @settings(max_examples=150, deadline=None)
    def test_stream_is_the_docstring_family(self, target):
        s, n, g = target
        d = decompose(s, n, g)
        assert d.s in (5, 6)
        side_set = s if s.contains(d.m) else s.complement()
        expected = list(islice(docstring_pairs(s, n, g), self.CAP))
        for a1, a2 in expected:
            assert a1 + s.tail.k * a2 == n
            assert a1 in side_set and a2 in side_set
        assert list(islice(iter_witness_pairs(s, n, g), self.CAP)) == expected


def run_stream(pairs, cap):
    """The first cap + 1 pairs of a stream, and the (type, message) of the
    WitnessValidationError that ended it, or None."""
    out = []
    try:
        for pair in pairs:
            out.append(pair)
            if len(out) > cap:
                break
    except WitnessValidationError as exc:
        return out, (type(exc), str(exc))
    return out, None


class TestBlockWalk:
    """The closed-form stop, one bisect per family, against the per-pair
    membership bisect it replaced."""

    CAP = 20000  # a family that stops within CAP pairs is compared whole

    @given(lattice_targets(k_max=6, scales=range(5, 10), low_g=True))
    @settings(max_examples=300, deadline=None)
    def test_matches_membership_reference(self, target):
        s, n, g = target
        plan = _plan(s, n, g)
        expected = run_stream(validated_pairs_by_membership(s, *plan), self.CAP)
        assert run_stream(iter_witness_pairs(s, n, g), self.CAP) == expected
        pairs, error = expected
        if len(pairs) > self.CAP:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                got = enumerate_witnesses(s, n, g).to_doc()
            except WitnessValidationError as exc:
                got = (type(exc), str(exc))
        if error is None:
            assert got == WitnessReport(*plan, len(pairs), guaranteed_lower_bound(s, n, g)).to_doc()
        else:
            assert got == error

    @given(tail_blocksets(k_max=6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_plan_matches_membership_reference(self, s, data):
        # plans that _plan never makes, with small m: components step across
        # narrow gaps into other blocks, onto block ends and below 0.  a1 may
        # leave the side here, and only _plan's plans keep it there, so the
        # library's a2 check is compared with the reference's a2 check alone
        k = s.tail.k
        g = data.draw(st.sampled_from((1, 3)))
        m, r = data.draw(st.integers(0, 3000)), data.draw(st.integers(0, k**g))
        d = Decomposition((k**g + 1) * m + r, m, r, 0, 0, g)
        case = data.draw(st.sampled_from(CASES))
        side = data.draw(st.sampled_from(("set", "complement")))
        q_lo = data.draw(st.integers(0, 300))
        plan = (d, case, side, q_lo, q_lo + data.draw(st.integers(-1, 300)))
        expected = run_stream(validated_pairs_by_membership(s, *plan, check_a1=False), self.CAP)
        assert run_stream(_validated_pairs(s, *plan), self.CAP) == expected

    def test_last_component_at_the_clipped_block(self, s1):
        # g = 1, m = 288: a2 falls from 288, the largest value read, so the side's
        # block [256, 320) holding it is clipped to [256, 289); a1 stays in it too
        pairs = list(iter_witness_pairs(s1, 864, 1))
        assert pairs == [(288, 288), (290, 287)]
        assert pairs == list(validated_pairs_by_membership(s1, *_plan(s1, 864, 1)))
        assert s1.block_index(290) == s1.block_index(319) == s1.block_index(256)


class TestStopRule:
    """The first q off the side, pinned on S1 with g = 1: a2 = m - sign*q passes
    exactly while it stays in the side's block of its first value and fails at
    the next q.  S1 has [10, 14) and [16, 20), its complement [0, 4) and [20, 28)."""

    @pytest.mark.parametrize(
        "case, side, m, q_lo, q_last, a2_next",
        [
            ("II", "set", 8, 2, 5, 14),  # a2 rises 10..13 through [10, 14)
            ("I", "complement", 27, 1, 7, 19),  # a2 falls 26..20 through [20, 28)
            ("III", "complement", 5, 2, 5, -1),  # a2 falls 3..0 through [0, 4)
            ("II", "set", 14, 0, -1, 14),  # a2 starts in the gap [14, 16)
            ("I", "set", 20, 0, -1, 20),  # a2 starts on the end of [16, 20)
        ],
    )
    def test_run_ends_on_its_block_end(self, s1, case, side, m, q_lo, q_last, a2_next):
        d = Decomposition(3 * m, m, 0, 0, 0, 1)
        sign = -1 if case == "II" else 1
        whole = [(m + sign * 2 * q, m - sign * q) for q in range(q_lo, q_last + 1)]
        assert list(_validated_pairs(s1, d, case, side, q_lo, q_last)) == whole
        pairs = []
        with pytest.raises(WitnessValidationError) as exc:
            for pair in _validated_pairs(s1, d, case, side, q_lo, q_last + 1):
                pairs.append(pair)
        assert pairs == whole
        assert str(exc.value) == (
            f"q={q_last + 1}: component {a2_next} not in the containing side "
            f"({side}); set structure broken or k^g below threshold"
        )


class TestFirstComponentLattice:
    """a1 needs no membership check: the q-interval puts it in block j + delta of
    m's block j, delta -2, 0, +2 in cases II, I, III, a block on m's side."""

    DELTA = {"II": -2, "I": 0, "III": 2}

    @given(lattice_targets(k_max=6, scales=range(5, 10), low_g=True))
    @settings(max_examples=300, deadline=None)
    def test_a1_stays_in_its_block(self, target):
        s, n, g = target
        d, case, _, q_lo, q_hi = _plan(s, n, g)
        if q_lo > q_hi:
            return
        j = d.ell + d.s * s.tail.a + self.DELTA[case]
        sign = -1 if case == "II" else 1
        # a1 is monotone in q, so its first and last values bound the family
        for q in (q_lo, q_hi):
            assert s.block_index(d.m + sign * s.tail.k * q + d.r) == j
        assert s.block_in_set(j) == s.contains(d.m)


class TestEdgeGapCounterexample:
    """The q-interval can fall short of half a scaled unit when the adjacent
    gap is narrow; the family stays valid, only its size shrinks."""

    def test_family_smaller_than_half_unit(self, s1):
        n = 129 * 5120  # m = 2^10 * 5, left edge of a narrow-gap cell
        rep = enumerate_witnesses(s1, n, 7)
        assert rep.case == "II"
        assert rep.side == "complement"
        assert (rep.q_lo, rep.q_hi) == (545, 768)
        assert rep.pairs_checked == 224
        assert rep.pairs_checked < 2**9 // 2 - 0 - 1  # 255: the naive half-unit guess

    def test_all_shrunken_family_pairs_validate(self, s1):
        n = 129 * 5120
        comp = s1.complement()
        for a1, a2 in iter_witness_pairs(s1, n, 7):
            assert a1 + 2 * a2 == n
            assert comp.contains(a1) and comp.contains(a2)

    def test_wide_gap_meets_half_unit(self, s1):
        # ell = 2 has scaled gap 2 >= 1/2 + margin, so the half-unit count holds
        rep = enumerate_witnesses(s1, 129 * 7168, 7)
        assert rep.pairs_checked >= 2**9 // 2 - 0 - 1


class TestScaleParameterGuards:
    def test_small_g_warns_but_can_validate(self, s1):
        # g = 5 gives 2^5 = 32 <= T = 40; the margins are not certified, yet
        # this particular interior n still validates
        n = 33 * 4596
        with pytest.warns(UserWarning):
            rep = enumerate_witnesses(s1, n, 5)
        assert rep.case == "I"
        assert (rep.q_lo, rep.q_hi) == (0, 31)
        assert rep.pairs_checked == 32

    def test_small_g_can_break_validation(self):
        # with g = 1 and a wide-gap seed, a2 = m + q steps off its block and
        # the family stops there
        s = BlockSet((100, 101, 199), TailRule(3, 2, 0))
        message = (
            "q=1024: component 103424 not in the containing side (set); "
            "set structure broken or k^g below threshold"
        )
        with pytest.warns(UserWarning):
            with pytest.raises(WitnessValidationError, match=f"^{re.escape(message)}$"):
                enumerate_witnesses(s, 3 * 102400, 1)

    @given(tail_blocksets(k_max=6))
    @settings(max_examples=50, deadline=None)
    def test_warns_exactly_when_k_to_the_g_is_at_most_t(self, s):
        # over g in 1..2*bit_length(T); n = 0 raises in decompose, after the check
        k, T = s.tail.k, select_g(s).T
        warned = set()
        for g in range(1, 2 * T.bit_length() + 1):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ValueError):
                    enumerate_witnesses(s, 0, g)
            if caught:
                warned.add(g)
        assert warned == {g for g in range(1, 2 * T.bit_length() + 1) if k**g <= T}

    def test_even_g_rejected(self, s1):
        with pytest.raises(ValueError):
            enumerate_witnesses(s1, 10**8, 6)

    def test_proper_g_never_warns(self, s1):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            enumerate_witnesses(s1, 10**8, 7)


class TestGuaranteedBound:
    def test_fixture(self, s1):
        assert guaranteed_lower_bound(s1, 10**8, 7) == Fraction(74771, 26)

    @pytest.mark.parametrize("g", [-1, 0, 2])
    def test_floor_constant_needs_odd_positive_g(self, s1, g):
        with pytest.raises(ValueError, match="exponent g must be odd and positive"):
            floor_constant(s1, g)
        with pytest.raises(ValueError, match="exponent g must be odd and positive"):
            guaranteed_lower_bound(s1, 10**8, g)

    def test_n_is_checked_before_g(self, s1):
        with pytest.raises(ValueError, match="target n must be nonnegative"):
            guaranteed_lower_bound(s1, -1, 2)

    def test_clamped_at_zero(self, s1):
        assert guaranteed_lower_bound(s1, 10**6, 7) == 0
        assert guaranteed_lower_bound(s1, 0, 7) == 0

    def test_scaling_is_linear_above_threshold(self, s1):
        b1 = guaranteed_lower_bound(s1, 10**8, 7)
        b2 = guaranteed_lower_bound(s1, 2 * 10**8, 7)
        assert b2 - b1 == Fraction(10**8, 33280)

    def test_observed_counts_dominate_bound(self, s1):
        for n in (10**7, 10**8, 5 * 10**8 + 17):
            rep = enumerate_witnesses(s1, n, 7)
            assert rep.pairs_checked >= rep.guaranteed


class TestReportDoc:
    def test_shape(self, s1):
        doc = enumerate_witnesses(s1, 10**8, 7).to_doc()
        assert doc["n"] == "100000000"
        assert doc["m"] == "775193"
        assert doc["r"] == "103"
        assert doc["s"] == 17
        assert doc["ell"] == 1
        assert doc["g"] == 7
        assert doc["case"] == "I"
        assert doc["side"] == "set"
        assert doc["q_lo"] == "0"
        assert doc["q_hi"] == "3992"
        assert doc["pairs_checked"] == "3993"
        assert doc["guaranteed"] == "74771/26"
        assert doc["guaranteed_decimal"].startswith("2875.80")
