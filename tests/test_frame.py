"""Boundary-vertex problem: perimeter parametrization and side-case integrals."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from randtri import frame
from randtri.frame import (
    SIDE_CASE_FORMS,
    _area_lines,
    _corner_areas,
    _kink,
    _side_sweep,
    expected_area_frame,
    frame_xy,
    side_case_value,
)
from randtri.geometry import signed_area_xy
from randtri.quadrature import QuadConfig

# the u-interval is split at every kink and each piece is a polynomial that
# the fixed rule integrates exactly, so the frame route is exact up to
# rounding: a relative bound of 9 ulp, where 2 ulp have been seen
EXACT = 2e-15
EPS = np.finfo(float).eps

# x1 where the kink u = x1 falls on an end of the u-interval or on a
# dyadic point, their float neighbours, and a seeded random x1 of the
# benchmark whose kink an unsplit sweep misses by 5.0e-6 relative
EDGE_X1 = sorted(
    {
        y
        for x in (0.0, 0.25, 0.5, 1.0)
        for y in (math.nextafter(x, -1.0), x, math.nextafter(x, 2.0))
        if 0.0 <= y <= 1.0
    }
    | {0.0015847499555259326}
)

# sha256 over "\n".join of float.hex: side_case_value at 256 seeded x1 and
# at EDGE_X1, all four cases, then expected_area_frame for p1_side 1..4
VALUES_SHA256 = "8d8cf704bf5173324a835b31f0883daf4f4e8bcc1f143be7767836d707e0e9c5"


def test_values_are_frozen_to_the_bit():
    x1s = np.random.default_rng(22).random(256).tolist() + EDGE_X1
    hexes = [side_case_value(case, x1).hex() for x1 in x1s for case in (1, 2, 3, 4)]
    hexes += [expected_area_frame(p1_side=side).hex() for side in (1, 2, 3, 4)]
    assert hashlib.sha256("\n".join(hexes).encode()).hexdigest() == VALUES_SHA256


class TestParametrization:
    @pytest.mark.parametrize(
        "t,x,y",
        [
            (0.0, 0.0, 0.0),
            (0.5, 0.5, 0.0),
            (1.0, 1.0, 0.0),
            (1.5, 1.0, 0.5),
            (2.0, 1.0, 1.0),
            (2.25, 0.75, 1.0),
            (3.0, 0.0, 1.0),
            (3.75, 0.0, 0.25),
        ],
    )
    def test_known_positions(self, t, x, y):
        xs, ys = frame_xy(np.array([t]))
        assert (xs[0], ys[0]) == (x, y)

    @pytest.mark.parametrize("bad", [-0.1, 4.0, 5.0, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            frame_xy(np.array([bad]))
        with pytest.raises(ValueError):
            frame_xy(np.array([0.5, bad, 2.5]))

    def test_vectorized_matches_scalar(self):
        # the same walk written out one side at a time, on Python floats
        def walk(t):
            k = int(t)
            u = t - k
            return [(u, 0.0), (1.0, u), (1.0 - u, 1.0), (0.0, 1.0 - u)][k]

        ts = np.linspace(0.0, 4.0, 101)[:-1]
        xs, ys = frame_xy(ts)
        for t, x, y in zip(ts.tolist(), xs, ys):
            assert walk(t) == (x, y)

    def test_covers_all_four_sides(self):
        ts = np.linspace(0.0, 4.0, 4001)[:-1]
        xs, ys = frame_xy(ts)
        on_edge = (xs == 0.0) | (xs == 1.0) | (ys == 0.0) | (ys == 1.0)
        assert on_edge.all()


class TestSideCases:
    @pytest.mark.parametrize("case", [1, 2, 3, 4])
    @pytest.mark.parametrize("x1", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_matches_closed_form(self, case, x1):
        want = SIDE_CASE_FORMS[case](x1)
        assert abs(side_case_value(case, x1) - want) <= EXACT * want

    def test_matches_closed_form_at_random_x1(self):
        rng = np.random.default_rng(20260)
        for x1 in rng.random(200).tolist():
            for case, form in SIDE_CASE_FORMS.items():
                want = form(x1)
                assert abs(side_case_value(case, x1) - want) <= EXACT * want, (case, x1)

    @pytest.mark.parametrize("case", [1, 2, 3, 4])
    @pytest.mark.parametrize("x1", EDGE_X1)
    def test_matches_closed_form_at_kink_prone_x1(self, case, x1):
        want = SIDE_CASE_FORMS[case](x1)
        assert abs(side_case_value(case, x1) - want) <= EXACT * want

    def test_values_are_positive_and_bounded(self):
        # the value sums |area| integrals over four hosting sides, each
        # of which is at most 1/2, so the total stays below 2
        for case in (1, 2, 3, 4):
            for x1 in (0.1, 0.6, 0.9):
                v = side_case_value(case, x1)
                assert 0.0 < v < 2.0

    def test_collinear_side_contributes_nothing(self):
        # first and second vertex both on the bottom edge: with the third
        # at either end of that edge every triangle is flat
        u = np.linspace(0.0, 1.0, 33)
        x1 = np.full_like(u, 0.3)
        areas = _corner_areas(1, x1, u)
        assert np.all(areas[0] == 0.0)
        assert np.all(areas[1] == 0.0)

    def test_rotation_does_not_change_pair_integrals(self):
        # the corner areas fix every side's path integral of |area|
        u = np.linspace(0.01, 0.99, 17)
        x1 = np.full_like(u, 0.4)
        base = _corner_areas(2, x1, u)
        for turns in (1, 2, 3):
            rotated = _corner_areas(2, x1, u, side=turns)
            for got, want in zip(rotated, base):
                assert np.allclose(got, want, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("case,x1", [(2, 0.37), (3, 0.0), (4, 0.81)])
    def test_against_independent_quadrature(self, case, x1):
        def point(t):
            xs, ys = frame_xy(np.array([t]))
            return xs[0], ys[0]

        def third_vertex_mean(u):
            p2 = point((case - 1) + min(u, 1.0 - 1e-12))
            total = 0.0
            for side in range(4):
                total += scipy_quad(
                    lambda v: abs(signed_area_xy(x1, 0.0, *p2, *point(side + v))),
                    0.0,
                    1.0,
                    limit=200,
                )[0]
            return total

        want = scipy_quad(third_vertex_mean, 0.0, 1.0, limit=100)[0]
        got = side_case_value(case, x1)
        assert abs(got - want) <= 1e-6

    def test_numpy_integer_case_accepted(self):
        assert side_case_value(np.int64(2), 0.37) == side_case_value(2, 0.37)

    def test_bad_case_and_coordinate_rejected(self):
        for case in (5, 0, 1.0, 2.0, True, np.True_):
            with pytest.raises(ValueError):
                side_case_value(case, 0.5)
        for x1 in (1.5, float("nan"), "0.5", True, False, None, np.array([0.5])):
            with pytest.raises(ValueError):
                side_case_value(1, x1)

    def test_real_number_x1_accepted(self):
        want = side_case_value(1, 0.5)
        for x1 in (np.float64(0.5), np.float32(0.5), Fraction(1, 2)):
            assert side_case_value(1, x1) == want
        assert side_case_value(1, np.int64(1)) == side_case_value(1, 1.0)


def kink_roots(cases, x1s, side=0):
    """The sweep's breakpoints: one row per x1, one column per (case, corner).

    NaN where that corner area has no root inside (0, 1).
    """
    return np.array([
        [np.nan if (root := _kink(a0, slope)) is None else root
         for case in cases for a0, slope in _area_lines(case, x1, side)]
        for x1 in np.asarray(x1s).tolist()
    ])


def piece_edges(case, x1, side=0):
    """0, the distinct breakpoints of one case's sweep in order, and 1."""
    roots = kink_roots((case,), [x1], side)[0]
    return [0.0, *sorted(set(roots[~np.isnan(roots)].tolist())), 1.0]


class TestKinks:
    RANDOM_X1 = np.random.default_rng(7).random(64)
    X1 = np.concatenate([RANDOM_X1, EDGE_X1])

    @pytest.mark.parametrize("cases", [(1,), (2,), (3,), (4,), (1, 2, 3, 4)])
    def test_roots_are_interior_and_at_most_four_per_case(self, cases):
        roots = kink_roots(cases, self.X1)
        assert roots.shape == (self.X1.size, 4 * len(cases))
        found = ~np.isnan(roots)
        assert np.all((roots[found] > 0.0) & (roots[found] < 1.0))
        assert np.all(found.sum(axis=1) <= 4 * len(cases))

    def test_only_kink_is_where_the_second_vertex_passes_the_first(self):
        # on a convex frame the line through p1 and a corner meets the
        # boundary again only at that corner, unless p2 shares p1's side:
        # there the areas at the two far corners flip sign at u = x1
        x1 = self.RANDOM_X1
        roots = kink_roots((1, 2, 3, 4), x1)
        assert np.all(np.isnan(roots[:, [0, 1] + list(range(4, 16))]))
        assert np.allclose(roots[:, 2], x1, rtol=0.0, atol=4e-16)
        assert np.allclose(roots[:, 3], x1, rtol=0.0, atol=4e-16)

    @pytest.mark.parametrize("turns", [0, 1])
    def test_corner_area_vanishes_at_its_root(self, turns):
        cases = (1, 2, 3, 4)
        roots = kink_roots(cases, self.X1, side=turns)
        for col in range(roots.shape[1]):
            case, corner = cases[col // 4], col % 4
            hit = ~np.isnan(roots[:, col])
            x1, u = self.X1[hit], roots[hit, col]
            area = _corner_areas(case, x1, u, turns)[corner]
            # the area is affine in u with slope below 1, so a root off by
            # a few ulp of u leaves a few ulp of area
            assert np.all(np.abs(area) <= 8.0 * np.finfo(float).eps), (case, corner)

    @pytest.mark.parametrize("x1", [0.0, 1.0])
    def test_roots_on_interval_ends_are_dropped(self, x1):
        # at a corner x1 some areas vanish at u = 0 or u = 1 itself: those
        # are not breakpoints (EDGE_X1 checks the values there)
        roots = kink_roots((1, 2, 3, 4), np.array([x1]))
        assert np.all(np.isnan(roots))

    def test_corner_lines_match_corner_areas(self):
        # a0 + slope * u is the corner area at every u, to rounding
        u = np.linspace(0.0, 1.0, 9)
        for case in (1, 2, 3, 4):
            for x1 in self.X1.tolist():
                lines = _area_lines(case, x1, side=1)
                want = _corner_areas(case, x1, u, side=1)
                got = [a0 + slope * u for a0, slope in lines]
                assert np.allclose(got, want, rtol=0.0, atol=4 * EPS), case

    @pytest.mark.parametrize("turns", [0, 1, 2, 3])
    @pytest.mark.parametrize("case", [1, 2, 3, 4])
    def test_pieces_are_polynomials_of_degree_at_most_three(
        self, monkeypatch, case, turns
    ):
        # the 2-node rule is exact to degree 3 and a 3-node rule to degree
        # 5, so on a piece of degree at most 3 they differ by rounding
        # alone; a missed kink on a piece would show as a gross difference
        x1s = np.random.default_rng(21).random(100).tolist()
        two = [_side_sweep(case, x1, turns) for x1 in x1s]
        nodes, weights = np.polynomial.legendre.leggauss(3)
        monkeypatch.setattr(frame, "_GAUSS_LEGENDRE_2",
                            ((0.5 + 0.5 * nodes).tolist(), (0.5 * weights).tolist()))
        three = [_side_sweep(case, x1, turns) for x1 in x1s]
        for x1, two_pieces, three_pieces in zip(x1s, two, three):
            width = np.diff(piece_edges(case, x1, turns))
            # the integrand stays below 2: a few ulp of it per unit of width
            diff = np.abs(np.subtract(two_pieces, three_pieces))
            assert np.all(diff <= 4 * EPS * width), (case, turns)

    @pytest.mark.parametrize("turns", [0, 1, 2, 3])
    @pytest.mark.parametrize("case", [1, 2, 3, 4])
    def test_sweep_integrates_one_piece_more_than_its_kinks(self, case, turns):
        # no zero-width piece: a repeated root splits the interval once
        for x1 in self.X1.tolist():
            want = len(piece_edges(case, x1, turns)) - 1
            assert len(_side_sweep(case, x1, turns)) == want, (case, x1)

    def test_case_one_alone_splits_once(self):
        # the second vertex passes the first only on the first one's side,
        # at u = x1; at a corner x1 that point is an end of the interval
        for x1 in [0.0, *self.RANDOM_X1.tolist(), 1.0]:
            pieces = 2 if 0.0 < x1 < 1.0 else 1
            assert [len(_side_sweep(case, x1)) for case in (1, 2, 3, 4)] == [
                pieces, 1, 1, 1], x1


class TestFrameMean:
    def test_sum_polynomial_integrates_to_five_halves(self):
        # integrating 17/6 - 2x + 2x^2 over [0, 1] gives 5/2
        mean = expected_area_frame()
        assert abs(16.0 * mean - 2.5) <= EXACT * 2.5

    def test_mean_value(self):
        mean = expected_area_frame()
        assert abs(mean - 5.0 / 32.0) <= EXACT * mean

    @pytest.mark.parametrize("side", [2, 3, 4])
    def test_first_vertex_side_is_irrelevant(self, side):
        cfg = QuadConfig(rel_tol=1e-5)
        base = expected_area_frame(cfg)
        other = expected_area_frame(cfg, p1_side=side)
        assert abs(other - base) <= EXACT * base

    @pytest.mark.parametrize("side", [1, 2, 3, 4])
    @pytest.mark.parametrize("rel_tol", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_exact_at_every_tolerance(self, rel_tol, side):
        mean = expected_area_frame(QuadConfig(rel_tol=rel_tol), p1_side=side)
        assert abs(mean - 5.0 / 32.0) <= EXACT * mean

    def test_bad_first_side_rejected(self):
        for side in (0, 1.0, 2.0, True, np.True_, "1"):
            with pytest.raises(ValueError):
                expected_area_frame(p1_side=side)
