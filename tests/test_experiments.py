"""Equality windows, ratio scans, and seed searches at desk scale."""

from __future__ import annotations

import io
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    finite_blocksets,
    prefixed_tail_blocksets,
    scan_ratio_per_point,
    tail_blocksets,
    verify_equality_two_counts,
)
from repfn import (
    BlockSet,
    count_weighted,
    experiments,
    guaranteed_lower_bound,
    scan_ratio,
    scan_to_csv,
    search_seeds,
    select_g,
    verify_equality,
)


class TestVerifyEquality:
    def test_empty_set_violates_immediately(self):
        # r(empty) = 0 but the complement represents every n
        rep = verify_equality(BlockSet(()), 2, 0, 20)
        assert rep.first_violation == 0
        assert rep.equal_count == 0

    def test_initial_segment(self):
        # [0,H) and its complement [H,inf) agree while n is small enough
        # that only one side can act, and disagree once both do
        s = BlockSet((0, 6))
        rep = verify_equality(s, 2, 0, 40)
        assert rep.equal_count < 41
        assert rep.first_violation is not None

    def test_running_example_window(self, s1):
        rep = verify_equality(s1, 2, 100, 140)
        assert rep.n_lo == 100 and rep.n_hi == 140
        assert rep.equal_count + sum(
            1
            for n in range(100, 141)
            if count_weighted(s1, n, (1, 2)) != count_weighted(s1.complement(), n, (1, 2))
        ) == 41

    def test_first_violation_is_first(self, s1):
        rep = verify_equality(s1, 2, 100, 140)
        if rep.first_violation is not None:
            comp = s1.complement()
            for n in range(100, rep.first_violation):
                assert count_weighted(s1, n, (1, 2)) == count_weighted(comp, n, (1, 2))
            assert count_weighted(s1, rep.first_violation, (1, 2)) != count_weighted(
                comp, rep.first_violation, (1, 2)
            )

    def test_per_n_recording(self, s1):
        rep = verify_equality(s1, 2, 50, 60, record_per_n=True)
        assert rep.per_n is not None
        assert len(rep.per_n) == 11
        for n, ra, rc in rep.per_n:
            assert ra == count_weighted(s1, n, (1, 2))
            assert rc == count_weighted(s1.complement(), n, (1, 2))
        assert verify_equality(s1, 2, 50, 60).per_n is None

    def test_doc_shape(self, s1):
        doc = verify_equality(s1, 2, 50, 52, record_per_n=True).to_doc()
        assert doc["k"] == 2
        assert doc["n_lo"] == "50"
        assert isinstance(doc["per_n"], list) and len(doc["per_n"]) == 3

    def test_dyadic_near_miss(self, dyadic):
        # on this window the doubling set achieves equality on every odd n
        # and misses by exactly one on every even n
        rep = verify_equality(dyadic, 2, 10, 60, record_per_n=True)
        assert rep.first_violation == 10
        assert rep.equal_count == 25
        for n, ra, rc in rep.per_n:
            if n % 2 == 0:
                assert rc == ra + 1
            else:
                assert rc == ra

    def test_argument_validation(self, s1):
        with pytest.raises(ValueError):
            verify_equality(s1, 1, 0, 10)
        with pytest.raises(ValueError):
            verify_equality(s1, 2, -5, 10)


TARGETS = st.integers(0, 3000) | st.integers(0, 10**40)


class TestOneSumAgainstTwoCounts:
    """D(n) summed once over the blocks against two full counts per n."""

    @given(
        st.one_of(finite_blocksets(), tail_blocksets(), prefixed_tail_blocksets()),
        st.integers(2, 6),
        TARGETS,
        st.integers(-1, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_verify_equality(self, s, k, n_lo, width):
        for per_n in (False, True):
            ref = verify_equality_two_counts(s, k, n_lo, n_lo + width, per_n)
            assert verify_equality(s, k, n_lo, n_lo + width, record_per_n=per_n) == ref

    @given(tail_blocksets(), st.integers(2, 6), TARGETS, st.integers(0, 12), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_scan_points(self, s, k, offset, width, stride):
        # with g = 1, every n >= (k_tail + 1)*t_0 lies on the boundary lattice
        n_lo = (s.tail.k + 1) * s.boundaries[0] + offset
        scan = scan_ratio(s, k, n_lo, n_lo + width, 1, stride)
        ref = verify_equality_two_counts(s, k, n_lo, n_lo + width, record_per_n=True)
        assert [(p.n, p.r_set, p.r_comp) for p in scan.points] == list(ref.per_n[::stride])

    def test_prefixed_set_is_equal_on_a_clean_window(self, prefixed):
        rep = verify_equality(prefixed, 2, 1, 3000)
        assert (rep.equal_count, rep.first_violation) == (3000, None)
        assert rep == verify_equality_two_counts(prefixed, 2, 1, 3000)

    def test_counts_per_point(self, s1, monkeypatch):
        # an equality check counts nothing; a per-n row or a scan point counts the set once
        counted = []

        def counting(s, n, w):
            counted.append((s, n))
            return count_weighted(s, n, w)

        monkeypatch.setattr(experiments, "count_weighted", counting)
        monkeypatch.setattr(BlockSet, "complement", None)
        verify_equality(s1, 2, 600, 640)
        assert counted == []
        verify_equality(s1, 2, 600, 640, record_per_n=True)
        scan_ratio(s1, 2, 600, 640, 7, stride=4)
        assert counted == [(s1, n) for n in range(600, 641)] + [(s1, n) for n in range(600, 641, 4)]


def _outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def scan_cases(draw):
    """(set, k, n_lo, n_hi, g, stride): windows that may be empty, start below the
    lattice or straddle its first point (c*t_0, c = k_tail^g + 1)."""
    s = draw(tail_blocksets())
    g = draw(st.sampled_from((1, 3, select_g(s).g)))
    first = (s.tail.k**g + 1) * s.boundaries[0]
    n_lo = draw(
        st.integers(-1, 3000)
        | st.integers(max(1, first - 12), first + 12)
        | st.integers(first, first + 5000)
        | st.integers(first, first * 10**30)
    )
    n_hi = n_lo + draw(st.integers(-2, 12))
    return s, draw(st.integers(2, 6)), n_lo, n_hi, g, draw(st.integers(1, 3))


class TestOneMembershipPredicate:
    """Each point's side from one predicate per window against a decomposition per point."""

    @given(scan_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_point_sides(self, case):
        assert _outcome(scan_ratio, *case) == _outcome(scan_ratio_per_point, *case)

    def test_decomposes_once_per_window(self, s1, monkeypatch):
        calls = []
        real = experiments.decompose

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(experiments, "decompose", counting)
        scan_ratio(s1, 2, 600, 640, 7, stride=4)
        scan_ratio(s1, 2, 600, 599, 7)
        assert calls == [(s1, 600, 7)]


class TestScanRatio:
    def test_point_count_and_window(self, s1):
        scan = scan_ratio(s1, 2, 600, 700, 7, stride=10)
        assert len(scan.points) == 11
        assert scan.window_lo == 650
        assert scan.theoretical_floor == Fraction(1, 33280)
        assert scan.trivial_ceiling == Fraction(1, 2)

    def test_ratio_is_containing_side_over_n(self, s1):
        scan = scan_ratio(s1, 2, 516, 540, 7)
        comp = s1.complement()
        for p in scan.points:
            assert p.r_set == count_weighted(s1, p.n, (1, 2))
            assert p.r_comp == count_weighted(comp, p.n, (1, 2))
            assert p.ratio in (Fraction(p.r_set, p.n), Fraction(p.r_comp, p.n))

    def test_min_over_tail_window(self, s1):
        scan = scan_ratio(s1, 2, 600, 700, 7, stride=10)
        tail = [p.ratio for p in scan.points if p.n >= 650]
        assert scan.min_ratio == min(tail)

    def test_bounds_hold_on_window(self, s1):
        scan = scan_ratio(s1, 2, 2000, 2200, 7, stride=20)
        for p in scan.points:
            assert p.ratio <= scan.trivial_ceiling
        assert scan.min_ratio > 0

    def test_complement_swap_mirrors_columns(self, s1):
        # scanning the complement swaps the two count columns pointwise
        a = scan_ratio(s1, 2, 600, 650, 7, stride=5)
        b = scan_ratio(s1.complement(), 2, 600, 650, 7, stride=5)
        for pa, pb in zip(a.points, b.points):
            assert (pa.r_set, pa.r_comp) == (pb.r_comp, pb.r_set)

    def test_csv_emission(self, s1):
        scan = scan_ratio(s1, 2, 600, 620, 7, stride=10)
        buf = io.StringIO()
        scan_to_csv(scan, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "n,r_A,r_comp,ratio_num,ratio_den"
        assert len(lines) == 1 + len(scan.points)
        first = lines[1].split(",")
        assert first[0] == "600"
        assert int(first[3]) >= 0 and int(first[4]) >= 1

    def test_doc_shape(self, s1):
        doc = scan_ratio(s1, 2, 600, 610, 7, stride=5).to_doc()
        assert doc["trivial_ceiling"] == "1/2"
        assert doc["theoretical_floor"] == "1/33280"
        assert len(doc["points"]) == 3

    def test_floor_comes_from_the_set_tail(self, s1):
        # weights (1, 3) on a k=2 set: the floor is the set's k^5*t_a*(k^g+2)
        scan = scan_ratio(s1, 3, 600, 620, 7, stride=10)
        assert scan.theoretical_floor == Fraction(1, 33280)
        assert scan.trivial_ceiling == Fraction(1, 3)
        assert guaranteed_lower_bound(s1, 33280 * 10**6, 7) == 10**6 - 129

    def test_argument_validation(self, s1):
        with pytest.raises(ValueError):
            scan_ratio(s1, 2, 0, 10, 7)
        with pytest.raises(ValueError):
            scan_ratio(s1, 2, 600, 700, 7, stride=0)

    @pytest.mark.parametrize(
        "k, g, message",
        [
            (0, 7, "ratio k must be at least 2, got 0"),
            (1, 7, "ratio k must be at least 2, got 1"),
            (2, -1, "exponent g must be odd and positive, got -1"),
            (2, 0, "exponent g must be odd and positive, got 0"),
            (2, 2, "exponent g must be odd and positive, got 2"),
        ],
    )
    def test_empty_window_still_checks_k_and_g(self, s1, k, g, message):
        # n_hi < n_lo: no point is evaluated, so no per-point check runs
        with pytest.raises(ValueError) as exc:
            scan_ratio(s1, k, 12, 11, g)
        assert str(exc.value) == message


class TestSearchSeeds:
    def test_period_one_enumeration(self):
        results = search_seeds(2, 1, 8, 0, 64)
        assert [seed for seed, _ in results] != []
        assert len(results) == 8
        assert sorted(seed for seed, _ in results) == [(t0,) for t0 in range(1, 9)]

    def test_period_three_admissibility(self):
        results = search_seeds(2, 3, 4, 3, 200)
        seeds = {seed for seed, _ in results}
        assert seeds == {(3, 4, 5), (4, 5, 6), (4, 5, 7), (4, 6, 7)}

    def test_default_window_start(self):
        results = search_seeds(2, 1, 1, 0, 64)
        (seed, rep), = results
        assert seed == (1,)
        assert rep.n_lo == 8  # t_3 of the doubling set seeded at 1

    def test_deterministic_ranking(self):
        a = search_seeds(2, 3, 4, 3, 150)
        b = search_seeds(2, 3, 4, 3, 150)
        assert [seed for seed, _ in a] == [seed for seed, _ in b]
        # violated seeds are ordered by how long they survived
        violated = [rep.first_violation for _, rep in a if rep.first_violation is not None]
        assert violated == sorted(violated, reverse=True)

    def test_clean_seeds_rank_first_by_seed(self):
        # horizon 1 leaves each window [8*t_0, 1] empty, so every seed is clean
        results = search_seeds(2, 1, 3, 0, 1)
        assert [seed for seed, _ in results] == [(1,), (2,), (3,)]
        for (t0,), rep in results:
            assert (rep.n_lo, rep.n_hi, rep.equal_count) == (8 * t0, 1, 0)
            assert rep.first_violation is None

    @pytest.mark.parametrize("k, a", [(2, 1), (2, 3), (3, 5), (4, 3), (6, 7)])
    def test_every_admissible_seed_once(self, k, a):
        # the candidates stop at k*t_0 - 1, so none needs the filter k*t_0 > t_(a-1);
        # horizon 1 leaves every window empty, so the ranking is by seed alone
        expected = [
            (t0, *rest)
            for t0 in range(1, 7)
            for rest in combinations(range(t0 + 1, t0 + 10), a - 1)
            if k * t0 > (t0, *rest)[-1]
        ]
        assert [seed for seed, _ in search_seeds(k, a, 6, 9, 1)] == sorted(expected)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            search_seeds(2, 1, 0, 0, 64)
        with pytest.raises(ValueError):
            search_seeds(2, 1, 4, -1, 64)

    @pytest.mark.parametrize(
        "k, a, message",
        [
            (1, 3, "tail ratio k must be at least 2, got 1"),
            (2, 0, "tail period a must be odd and positive, got 0"),
            (2, -3, "tail period a must be odd and positive, got -3"),
            (3, 2, "tail period a must be odd and positive, got 2"),
        ],
    )
    def test_rejects_a_ratio_or_period_no_seed_can_have(self, k, a, message):
        # checked before any seed is tried: no seed exists for k = 1 or a <= 0
        with pytest.raises(ValueError) as exc:
            search_seeds(k, a, 5, 5, 100)
        assert str(exc.value) == message
