"""Exact rational enumeration over boundary midpoint lattices."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from randtri import lattice
from randtri.frame import frame_xy
from randtri.lattice import enumerate_mean_area, midpoint_lattice


def _cubic_totals(n):
    """Brute-force sum of |cross product| over all (4n)**2 second and third
    vertices, one total per first vertex i = 0..n-1 on the bottom side."""
    xs, ys = midpoint_lattice(n)
    totals = []
    for i in range(n):
        u = xs - xs[i]
        v = ys - ys[i]
        cross = u[:, None] * v[None, :] - u[None, :] * v[:, None]
        totals.append(int(np.abs(cross).sum()))
    return totals


def _cubic_mean_area(n):
    """The mean by brute force over all (4n)**3 ordered triples: the oracle."""
    # the bottom side, weighted by 4 for the quarter turns
    total = sum(_cubic_totals(n))
    return Fraction(4 * total, (4 * n) ** 3 * 2 * (2 * n) ** 2)


def _side_pair_totals(n):
    """Brute-force sum of |cross product| for each bottom first vertex
    i = 0..n-1, split by the sides of the second and third vertices: an
    (n, 4, 4) array in lattice side order (bottom, right, top, left)."""
    xs, ys = midpoint_lattice(n)
    tables = []
    for i in range(n):
        u = xs - xs[i]
        v = ys - ys[i]
        cross = u[:, None] * v[None, :] - u[None, :] * v[:, None]
        tables.append(np.abs(cross).reshape(4, n, 4, n).sum(axis=(1, 3)))
    return np.array(tables, dtype=object)


BOTTOM, RIGHT, TOP, LEFT = range(4)

FROZEN = {
    1: Fraction(3, 32),
    2: Fraction(9, 64),
    3: Fraction(43, 288),
    10: Fraction(249, 1600),
    40: Fraction(3999, 25600),
}


class TestLatticeConstruction:
    # midpoint_lattice returns the coordinates scaled by 2n, as int64

    def test_smallest_lattice_is_side_midpoints(self):
        xs, ys = midpoint_lattice(1)
        assert xs.dtype == ys.dtype == np.int64
        assert xs.tolist() == [1, 2, 1, 0]
        assert ys.tolist() == [0, 1, 2, 1]

    def test_point_count_and_layout(self):
        xs, ys = midpoint_lattice(10)
        assert xs.shape == ys.shape == (40,)
        odd = list(range(1, 20, 2))
        # one block of n points per side, each walked in perimeter order
        assert xs[:10].tolist() == odd and ys[:10].tolist() == [0] * 10
        assert xs[10:20].tolist() == [20] * 10 and ys[10:20].tolist() == odd
        assert xs[20:30].tolist() == odd[::-1] and ys[20:30].tolist() == [20] * 10
        assert xs[30:].tolist() == [0] * 10 and ys[30:].tolist() == odd[::-1]

    def test_points_sit_on_the_boundary(self):
        for n in (1, 2, 7):
            xs, ys = midpoint_lattice(n)
            edge = 2 * n
            assert np.all((xs == 0) | (xs == edge) | (ys == 0) | (ys == edge))
            assert np.all((0 <= xs) & (xs <= edge) & (0 <= ys) & (ys <= edge))

    def test_coordinates_are_odd_over_2n(self):
        # along its side a midpoint sits at (2k-1)/(2n): odd once scaled
        n = 6
        for coords in midpoint_lattice(n):
            inner = coords[(coords != 0) & (coords != 2 * n)]
            assert inner.size == 2 * n  # the two sides that run along this axis
            assert np.all(inner % 2 == 1)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_matches_frame_points(self, n):
        # the lattice and frame_xy read one corner table; frame_xy gets t
        # rounded, so the two agree to within one ulp of t
        xs, ys = midpoint_lattice(n)
        for i, (x, y) in enumerate(zip(xs, ys)):
            side, j = divmod(i, n)
            t = side + (2 * j + 1) / (2 * n)
            fx, fy = frame_xy(np.array([t]))
            assert abs(x / (2 * n) - fx[0]) <= math.ulp(t)
            assert abs(y / (2 * n) - fy[0]) <= math.ulp(t)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            midpoint_lattice(0)
        with pytest.raises(ValueError):
            midpoint_lattice(-2)
        with pytest.raises(ValueError):
            enumerate_mean_area(-3)

    @pytest.mark.parametrize(
        "n", [True, False, np.True_, 2.5, 3.0, np.float64(2), "3", None],
        ids=["True", "False", "np.True_", "2.5", "3.0", "np.float64", "str", "None"])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(ValueError):
            midpoint_lattice(n)
        with pytest.raises(ValueError):
            enumerate_mean_area(n)

    def test_numpy_integers_pass(self):
        for xs, ref in zip(midpoint_lattice(np.int32(3)), midpoint_lattice(3)):
            assert xs.tolist() == ref.tolist()
        # a denominator that overflows int64 unless n is a Python int
        n = np.int64(2500)
        assert enumerate_mean_area(n) == Fraction(5, 32) - Fraction(1, 16 * 2500**2)


class TestEnumeration:
    @pytest.mark.parametrize("n,value", sorted(FROZEN.items())[:4])
    def test_frozen_values(self, n, value):
        got = enumerate_mean_area(n)
        assert isinstance(got, Fraction)
        assert got == value

    def test_largest_frozen_value(self):
        assert enumerate_mean_area(40) == FROZEN[40]

    def test_closed_form_in_n(self):
        for n in range(1, 1001):
            assert enumerate_mean_area(n) == Fraction(5, 32) - Fraction(1, 16 * n * n)

    def test_matches_cubic_enumeration(self):
        for n in range(1, 41):
            assert enumerate_mean_area(n) == _cubic_mean_area(n), n

    @pytest.mark.parametrize("n", range(1, 13))
    def test_mirror_keeps_each_first_vertex_total(self, n):
        # x -> 2n - x maps the lattice onto itself and bottom vertex i to
        # n - 1 - i; the module docstring's proof uses it to carry the
        # (top, left) side pair onto (right, top)
        totals = _cubic_totals(n)
        assert totals == totals[::-1]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_walk_order_fixes_the_sign(self, n):
        # every triple taken in lattice (counterclockwise) order turns left
        # or is degenerate, so the sweep needs no absolute value
        xs, ys = midpoint_lattice(n)
        i, j, k = np.array(list(itertools.combinations(range(4 * n), 3))).T
        cross = (xs[j] - xs[i]) * (ys[k] - ys[i]) - (ys[j] - ys[i]) * (xs[k] - xs[i])
        assert cross.min() >= 0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_side_pair_totals_prove_the_law(self, n):
        # each closed form of the module docstring's proof, first vertex
        # at scaled x = a on the bottom side, against brute force
        tables = _side_pair_totals(n)
        xs, ys = midpoint_lattice(n)
        n2, n3, n4 = n**2, n**3, n**4
        spread = (n3 - n) // 3  # sum of |m - j| over m, j = 1..n
        distances = []
        for table, a in zip(tables, xs[:n].tolist()):
            d = (0, 2 * n - a, 2 * n, a)
            for side in range(4):
                assert table[side, side] == 2 * d[side] * spread
            distances.append(sum(abs(x - a) for x in xs[:n].tolist()))
            for side, height in ((RIGHT, n2), (TOP, 2 * n2), (LEFT, n2)):
                assert ys[side * n:(side + 1) * n].sum() == height
                assert table[BOTTOM, side] == table[side, BOTTOM] == distances[-1] * height
            assert table[RIGHT, LEFT] == table[LEFT, RIGHT] == 2 * n4
            assert table[RIGHT, TOP] == table[TOP, RIGHT] == 3 * n4 - n3 * a
            assert table[TOP, LEFT] == table[LEFT, TOP] == n4 + n3 * a
        assert sum(distances) == 2 * spread
        assert tables[:, TOP, LEFT].sum() == tables[:, RIGHT, TOP].sum() == 2 * n**5
        assert tables.sum() == 20 * n**5 - 8 * n3

    def test_refinement_approaches_continuum_mean(self):
        target = Fraction(5, 32)
        errs = [abs(enumerate_mean_area(n) - target) for n in (1, 2, 3, 10)]
        assert errs == sorted(errs, reverse=True)
        assert abs(FROZEN[40] - target) == Fraction(1, 25600)
        assert abs(FROZEN[10] - target) == Fraction(1, 1600)

    def test_denominator_divides_configuration_count(self):
        for n in (1, 2, 3, 10):
            mean = enumerate_mean_area(n)
            # (4n)^3 ordered triples, each area a multiple of 1/(2*(2n)^2)
            assert ((4 * n) ** 3 * 2 * (2 * n) ** 2) % mean.denominator == 0

    def test_largest_n_obeys_the_law(self):
        # every int64 term stays below 256n**4 <= 2**63 - 1 up to here
        n = 13_777
        assert 256 * n**4 <= 2**63 - 1 < 256 * (n + 1) ** 4
        assert enumerate_mean_area(n) == Fraction(5, 32) - Fraction(1, 16 * n * n)

    def test_oversized_run_is_rejected_before_building_the_lattice(self, monkeypatch):
        def unexpected(n):
            raise AssertionError("the lattice was built for an oversized run")

        monkeypatch.setattr(lattice, "midpoint_lattice", unexpected)
        for n in (13_778, 10**6):
            with pytest.raises(ValueError, match="13777"):
                enumerate_mean_area(n)
