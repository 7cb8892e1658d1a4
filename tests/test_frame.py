"""Boundary-vertex problem: perimeter parametrization and side-case integrals."""

import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from randtri.frame import (
    SIDE_CASE_FORMS,
    _corner_areas,
    expected_area_frame,
    frame_xy,
    side_case_value,
)
from randtri.geometry import signed_area_xy
from randtri.quadrature import QuadConfig


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
        got = side_case_value(case, x1)
        assert abs(got - SIDE_CASE_FORMS[case](x1)) <= 1e-4

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
            rotated = _corner_areas(2, x1, u, quarter_turns=turns)
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
        for case in (5, 0, 1.0, 2.0):
            with pytest.raises(ValueError):
                side_case_value(case, 0.5)
        with pytest.raises(ValueError):
            side_case_value(1, 1.5)
        with pytest.raises(ValueError):
            side_case_value(1, float("nan"))


class TestFrameMean:
    def test_sum_polynomial_integrates_to_five_halves(self):
        # integrating 17/6 - 2x + 2x^2 over [0, 1] gives 5/2
        mean = expected_area_frame()
        assert abs(16.0 * mean - 2.5) <= 1e-4

    def test_mean_value(self):
        mean = expected_area_frame()
        assert abs(mean - 5.0 / 32.0) <= 1e-4

    @pytest.mark.parametrize("side", [2, 3, 4])
    def test_first_vertex_side_is_irrelevant(self, side):
        cfg = QuadConfig(rel_tol=1e-5)
        base = expected_area_frame(cfg)
        other = expected_area_frame(cfg, p1_side=side)
        assert abs(other - base) <= 2.0 * cfg.rel_tol * base

    def test_bad_first_side_rejected(self):
        for side in (0, 1.0, 2.0):
            with pytest.raises(ValueError):
                expected_area_frame(p1_side=side)
