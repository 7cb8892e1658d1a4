"""Planar and spatial primitives: worked examples plus algebraic invariants."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from randtri.geometry import (
    CubeDomain,
    RectDomain,
    _check_integer,
    signed_area_xy,
    signed_volume_xyz,
)

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
six = (coord,) * 6


def _exact_area(x1, y1, x2, y2, x3, y3) -> Fraction:
    # the oracle: the same cross product over exact rationals, never rounded
    x1, y1, x2, y2, x3, y3 = map(Fraction, (x1, y1, x2, y2, x3, y3))
    return (x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2)) / 2


def _noise(x1, y1, x2, y2, x3, y3):
    # rounding-scale budget: 8 ulps at the magnitude of the summed products
    scale = 0.5 * (
        abs(x1) * (abs(y2) + abs(y3))
        + abs(x2) * (abs(y3) + abs(y1))
        + abs(x3) * (abs(y1) + abs(y2))
    )
    return 8.0 * np.spacing(scale)


def _has_subnormal_step(x1, y1, x2, y2, x3, y3):
    # every value signed_area_xy forms on the way to its result, inputs included
    d1, d2, d3 = y2 - y3, y3 - y1, y1 - y2
    t1, t2, t3 = x1 * d1, x2 * d2, x3 * d3
    steps = (x1, y1, x2, y2, x3, y3, d1, d2, d3, t1, t2, t3, t1 + t2,
             t1 + t2 + t3, 0.5 * (t1 + t2 + t3))
    return any(0.0 < abs(v) < 2.0**-1022 for v in steps)


class TestExamples:
    def test_unit_right_triangle(self):
        assert signed_area_xy(0, 0, 1, 0, 0, 1) == 0.5

    def test_clockwise_is_negative(self):
        assert signed_area_xy(0, 0, 0, 1, 1, 0) == -0.5

    def test_collinear_is_zero(self):
        assert signed_area_xy(0, 0, 1, 1, 2, 2) == 0.0

    def test_area_of_half_unit_square(self):
        assert signed_area_xy(0, 0, 1, 0, 1, 1) == 0.5

    def test_repeated_vertex_has_zero_area(self):
        x, y = 0.3, 0.7
        assert signed_area_xy(x, y, x, y, 1, 0) == 0.0

    def test_corner_tetrahedron_volume(self):
        v = signed_volume_xyz(0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1)
        assert math.isclose(v, 1.0 / 6.0, rel_tol=1e-15)

    def test_coplanar_tetrahedron_is_flat(self):
        assert signed_volume_xyz(0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0) == 0.0

    def test_tetra_vertex_swap_negates(self):
        a, b, c, d = (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)
        assert signed_volume_xyz(*a, *c, *b, *d) == -signed_volume_xyz(*a, *b, *c, *d)


class TestExactRational:
    def test_matches_hand_value(self):
        s = _exact_area(0, 0, Fraction(1, 3), 0, 0, Fraction(1, 7))
        assert s == Fraction(1, 42)

    def test_agrees_with_float_on_dyadic_inputs(self):
        coords = (0.25, 0.375, 3.5, -0.3125, -0.28125, 0.5)  # dyadic: exact floats
        exact = _exact_area(*coords)
        approx = signed_area_xy(*coords)
        assert abs(float(exact) - approx) <= _noise(*coords)

    def test_transposition_negates_exactly(self):
        p1 = Fraction(1, 3), Fraction(2, 7)
        p2 = Fraction(5, 11), Fraction(1, 13)
        p3 = Fraction(3, 4), Fraction(9, 10)
        assert _exact_area(*p2, *p1, *p3) == -_exact_area(*p1, *p2, *p3)


class TestValidation:
    def test_rect_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            RectDomain(float("nan"), 1.0)

    def test_cube_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            CubeDomain(float("inf"))

    def test_rect_rejects_zero_side(self):
        with pytest.raises(ValueError, match="positive"):
            RectDomain(0.0, 1.0)

    def test_rect_rejects_negative_side(self):
        with pytest.raises(ValueError):
            RectDomain(1.0, -2.0)

    def test_cube_rejects_nonpositive_side(self):
        with pytest.raises(ValueError):
            CubeDomain(0.0)

    @pytest.mark.parametrize("value", [3, np.int8(3), np.int64(3), np.uint64(3)])
    def test_integer_check_returns_a_python_int(self, value):
        got = _check_integer(value, "k", 1, 4)
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize(
        "value", [True, False, np.True_, 3.0, 2.5, np.float64(3), "3", None, 0, 5],
        ids=["True", "False", "np.True_", "3.0", "2.5", "np.float64", "str", "None",
             "below", "above"])
    def test_integer_check_rejects(self, value):
        with pytest.raises(ValueError, match="k"):
            _check_integer(value, "k", 1, 4)

    def test_integer_check_without_upper_end(self):
        assert _check_integer(2**70, "k", 1) == 2**70
        with pytest.raises(ValueError, match="k >= 1"):
            _check_integer(0, "k", 1)


class TestInvariants:
    @given(*six)
    def test_swap_first_two_negates_exactly(self, x1, y1, x2, y2, x3, y3):
        p1, p2, p3 = (x1, y1), (x2, y2), (x3, y3)
        assert signed_area_xy(*p2, *p1, *p3) == -signed_area_xy(*p1, *p2, *p3)

    @given(*six)
    def test_cyclic_shift_preserves_value(self, x1, y1, x2, y2, x3, y3):
        p1, p2, p3 = (x1, y1), (x2, y2), (x3, y3)
        base = signed_area_xy(*p1, *p2, *p3)
        tol = _noise(x1, y1, x2, y2, x3, y3)
        assert abs(signed_area_xy(*p2, *p3, *p1) - base) <= tol
        assert abs(signed_area_xy(*p3, *p1, *p2) - base) <= tol

    @given(*six, coord, coord)
    def test_translation_invariance(self, x1, y1, x2, y2, x3, y3, dx, dy):
        base = signed_area_xy(x1, y1, x2, y2, x3, y3)
        moved = signed_area_xy(x1 + dx, y1 + dy, x2 + dx, y2 + dy, x3 + dx, y3 + dy)
        tol = _noise(x1, y1, x2, y2, x3, y3) + _noise(
            x1 + dx, y1 + dy, x2 + dx, y2 + dy, x3 + dx, y3 + dy
        )
        assert abs(moved - base) <= tol

    @given(*six, st.sampled_from([0.25, 0.5, 2.0, 8.0, 1024.0]))
    @example(0.0, 2.225073858507e-311, 0.0, 0.0, 1.5, 0.0, 2.0)  # subnormal product
    def test_power_of_two_scaling_is_exact(self, x1, y1, x2, y2, x3, y3, lam):
        # exact unless some step of either evaluation falls below 2**-1022,
        # where a product rounds to the subnormal grid
        base = signed_area_xy(x1, y1, x2, y2, x3, y3)
        scaled = signed_area_xy(lam * x1, lam * y1, lam * x2, lam * y2, lam * x3, lam * y3)
        assert (
            scaled == lam * lam * base
            or _has_subnormal_step(x1, y1, x2, y2, x3, y3)
            or _has_subnormal_step(lam * x1, lam * y1, lam * x2, lam * y2,
                                   lam * x3, lam * y3)
        )



class TestVectorized:
    def test_matches_scalar_pointwise(self):
        rng = np.random.default_rng(101)
        pts = rng.uniform(-5.0, 5.0, size=(200, 6))
        vec = signed_area_xy(*pts.T)
        for row, got in zip(pts, vec):
            want = signed_area_xy(*row.tolist())  # Python floats, one row at a time
            assert got == want

    def test_broadcasts_against_scalars(self):
        x3 = np.linspace(0.0, 1.0, 7)
        vec = signed_area_xy(0.0, 0.0, 1.0, 0.0, x3, 1.0)
        assert vec.shape == (7,)
        assert np.all(vec == 0.5)

    def test_triangle_in_rectangle_area_bound(self):
        rng = np.random.default_rng(77)
        a, b = 2.0, 3.0
        pts = rng.uniform(0.0, 1.0, size=(10_000, 6)) * np.array([a, b, a, b, a, b])
        s = signed_area_xy(*pts.T)
        assert np.abs(s).max() <= 0.5 * a * b + 1e-12

    def test_volume_bound_in_cube(self):
        rng = np.random.default_rng(78)
        pts = rng.uniform(0.0, 1.0, size=(2_000, 12))
        vols = signed_volume_xyz(*pts.T)
        assert vols.shape == (2_000,)
        assert np.abs(vols).max() <= 1.0 / 3.0 + 1e-12
