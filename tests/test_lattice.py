"""Exact rational enumeration over boundary midpoint lattices."""

from fractions import Fraction

import pytest

from randtri import lattice
from randtri.lattice import (
    DEFAULT_WORK_LIMIT,
    MidpointLattice,
    WorkLimitExceededError,
    enumerate_mean_area,
    midpoint_lattice,
)

FROZEN = {
    1: Fraction(3, 32),
    2: Fraction(9, 64),
    3: Fraction(43, 288),
    10: Fraction(249, 1600),
    40: Fraction(3999, 25600),
}


class TestLatticeConstruction:
    def test_smallest_lattice_is_side_midpoints(self):
        lat = midpoint_lattice(1)
        assert isinstance(lat, MidpointLattice)
        got = {(p.x, p.y) for p in lat.points}
        h = Fraction(1, 2)
        assert got == {(h, 0), (1, h), (h, 1), (0, h)}

    def test_point_count_and_layout(self):
        lat = midpoint_lattice(10)
        assert len(lat.points) == 40
        assert lat.points[0] == lat.points[0].__class__(Fraction(1, 20), Fraction(0))
        on_bottom = [p for p in lat.points if p.y == 0]
        assert len(on_bottom) == 10
        assert sorted(p.x for p in on_bottom) == [
            Fraction(2 * k - 1, 20) for k in range(1, 11)
        ]

    def test_points_sit_on_the_boundary(self):
        for n in (1, 2, 7):
            for p in midpoint_lattice(n).points:
                assert p.x in (0, 1) or p.y in (0, 1)
                assert 0 <= p.x <= 1 and 0 <= p.y <= 1

    def test_coordinates_are_odd_over_2n(self):
        # interior coordinates are (2k-1)/(2n); Fraction reduces, so test
        # the scaled form instead of the stored denominator
        n = 6
        for p in midpoint_lattice(n).points:
            for c in (p.x, p.y):
                if c not in (0, 1):
                    scaled = c * 2 * n
                    assert scaled.denominator == 1
                    assert scaled.numerator % 2 == 1

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            midpoint_lattice(0)
        with pytest.raises(ValueError):
            enumerate_mean_area(-3)


class TestEnumeration:
    @pytest.mark.parametrize("n,value", sorted(FROZEN.items())[:4])
    def test_frozen_values(self, n, value):
        got = enumerate_mean_area(n)
        assert isinstance(got, Fraction)
        assert got == value

    def test_largest_frozen_value(self):
        assert enumerate_mean_area(40) == FROZEN[40]

    def test_closed_form_in_n(self):
        for n in range(1, 61):
            assert enumerate_mean_area(n) == Fraction(5, 32) - Fraction(1, 16 * n * n)

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

    def test_work_limit_guards_large_runs(self, monkeypatch):
        with pytest.raises(WorkLimitExceededError):
            enumerate_mean_area(200)
        # the limit is inclusive: exactly (4n)**3 triples still run
        monkeypatch.setattr(lattice, "DEFAULT_WORK_LIMIT", (4 * 2) ** 3)
        assert enumerate_mean_area(2) == FROZEN[2]
        monkeypatch.setattr(lattice, "DEFAULT_WORK_LIMIT", (4 * 2) ** 3 - 1)
        with pytest.raises(WorkLimitExceededError):
            enumerate_mean_area(2)

    def test_oversized_run_is_rejected_before_building_the_lattice(self, monkeypatch):
        def unexpected(n):
            raise AssertionError("the lattice was built for an oversized run")

        monkeypatch.setattr(lattice, "midpoint_lattice", unexpected)
        with pytest.raises(WorkLimitExceededError):
            enumerate_mean_area(10**6)

    def test_default_limit_allows_the_reference_size(self):
        assert (4 * 10) ** 3 <= DEFAULT_WORK_LIMIT
