"""Quadrature of every catalog cell against its exact rational reference."""

import math
from fractions import Fraction

import pytest

from randtri import quadrature
from randtri.quadrature import (
    QuadConfig,
    interior_catalog,
    nested_quadrature,
)
from randtri.regions import (
    Integrand,
    exact_reference,
    normalizer_regions,
    rectangle_regions,
    region_catalog,
)

CFG = QuadConfig()

# interior_catalog(1.3, 0.8, QuadConfig(rel_tol=1e-4)): (value, est_error)
SUMS_FROZEN = {
    "I15": ("0x1.e80c337203e0fp-8", "0x1.52e1926ff682ep-27"),
    "J15": ("0x1.7ff41dbb437f5p-4", "0x1.4196b75d50499p-28"),
    "RESULT": ("0x1.456789abcdf07p-4", "0x1.d4ee355c3a1acp-24"),
}


def by_name(regions):
    return {r.name: nested_quadrature(r, CFG) for r in regions}


@pytest.fixture(scope="module")
def rect_unit():
    return by_name(rectangle_regions(1.0, 1.0))


@pytest.fixture(scope="module")
def norm_unit():
    return by_name(normalizer_regions(1.0, 1.0))


def square_cells(integrand):
    return [c for c in region_catalog(1.0, 1.0).values() if c.integrand is integrand]


@pytest.fixture(scope="module")
def square_unit():
    return by_name(square_cells(Integrand.SIGNED_AREA))


@pytest.fixture(scope="module")
def square_norm_unit():
    return by_name(square_cells(Integrand.ONE))


def assert_close_to_reference(result, name, a=1.0, b=1.0, rel=None):
    truth = float(exact_reference(name, a, b))
    rel = CFG.rel_tol if rel is None else rel
    assert result.converged, name
    assert abs(result.value - truth) <= max(rel * abs(truth), 1e-12), (
        name,
        result.value,
        truth,
    )


def meets_contract(result, a, b, rel_tol):
    """converged, and |value - ref| <= est_error <= rel_tol * |ref| (and |value|)."""
    truth = float(exact_reference(result.name, a, b))
    scale = min(abs(truth), abs(result.value))
    return result.converged and abs(result.value - truth) <= result.est_error <= rel_tol * scale


class TestUnitSquareCells:
    def test_ascending_cells(self, rect_unit):
        for name in ("I1", "I2", "I3", "I4", "I5"):
            assert_close_to_reference(rect_unit[name], name)

    def test_measure_cells(self, norm_unit):
        for name in ("J1", "J2", "J3", "J4", "J5"):
            assert_close_to_reference(norm_unit[name], name)

    def test_descending_cells(self, square_unit):
        for name in ("I6", "I7", "I8", "I9", "I10"):
            assert_close_to_reference(square_unit[name], name)

    def test_descending_measures(self, square_norm_unit):
        for name in ("J6", "J7", "J8", "J9", "J10"):
            assert_close_to_reference(square_norm_unit[name], name)

    def test_cell_ratios(self, rect_unit, norm_unit):
        i1 = rect_unit["I1"].value
        for name, want in [("I2", 23.0), ("I3", 140.0), ("I4", 19.0), ("I5", 37.0)]:
            assert abs(rect_unit[name].value / i1 - want) <= 5e-4 * want
        j1 = norm_unit["J1"].value
        for name, want in [("J2", 5.0), ("J3", 18.0), ("J4", 5.0), ("J5", 7.0)]:
            assert abs(norm_unit[name].value / j1 - want) <= 5e-4 * want

    def test_ascending_sums(self, rect_unit, norm_unit):
        i15 = sum(r.value for r in rect_unit.values())
        j15 = sum(r.value for r in norm_unit.values())
        assert abs(i15 - 11.0 / 1728.0) <= 2e-4 * (11.0 / 1728.0)
        assert abs(j15 - 1.0 / 12.0) <= 2e-4 / 12.0

    def test_full_square_sums_and_mean(self, square_unit, square_norm_unit):
        ii = sum(r.value for r in square_unit.values())
        jj = sum(r.value for r in square_norm_unit.values())
        assert abs(ii - 11.0 / 864.0) <= 2e-4 * (11.0 / 864.0)
        assert abs(jj - 1.0 / 6.0) <= 2e-4 / 6.0
        assert abs(ii / jj - 11.0 / 144.0) <= 2e-4 * (11.0 / 144.0)

    def test_mirror_pairs_agree_within_estimates(self, square_unit, square_norm_unit):
        pairs = [("I6", "I4"), ("I7", "I5"), ("I8", "I1"), ("I9", "I2"), ("I10", "I3")]
        for low, high in pairs:
            lo, hi = square_unit[low], square_unit[high]
            assert abs(lo.value - hi.value) <= 2.0 * (lo.est_error + hi.est_error)
        for low, high in [("J6", "J4"), ("J7", "J5"), ("J8", "J1"),
                          ("J9", "J2"), ("J10", "J3")]:
            lo, hi = square_norm_unit[low], square_norm_unit[high]
            assert abs(lo.value - hi.value) <= 2.0 * (lo.est_error + hi.est_error)


class TestGeneralDomains:
    @pytest.mark.parametrize("a,b", [(2.0, 3.0), (0.5, 4.0), (1.3, 0.8)])
    def test_stretched_rectangle_cells(self, a, b):
        # all twenty cells: the descending ones, too, on a non-square
        for region in region_catalog(a, b).values():
            res = nested_quadrature(region, CFG)
            assert_close_to_reference(res, res.name, a, b)

    def test_mean_area_unit_square(self):
        mean = interior_catalog(1.0, 1.0, CFG)["RESULT"].value
        assert abs(mean - 11.0 / 144.0) <= 2e-4 * (11.0 / 144.0)

    def test_mean_area_two_by_three(self):
        mean = interior_catalog(2.0, 3.0, CFG)["RESULT"].value
        assert abs(mean - 11.0 / 24.0) <= 2e-4 * (11.0 / 24.0)

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_mean_scales_with_area(self, lam):
        base = interior_catalog(1.0, 1.0, CFG)["RESULT"].value
        scaled = interior_catalog(lam, lam, CFG)["RESULT"].value
        assert abs(scaled - lam * lam * base) <= 3e-4 * lam * lam * base

    @pytest.mark.parametrize("a,b,rel_tol", [(1.0, 1.0, 1e-4), (1.3, 0.8, 1e-6)])
    def test_interior_catalog_rows(self, a, b, rel_tol):
        cfg = QuadConfig(rel_tol=rel_tol)
        rows = interior_catalog(a, b, cfg)
        cells = rectangle_regions(a, b) + normalizer_regions(a, b)
        assert list(rows) == [c.name for c in cells] + ["I15", "J15", "RESULT"]
        for name, res in rows.items():
            assert res.name == name
            assert res.converged == (
                res.est_error <= max(rel_tol * abs(res.value), 1e-13)
            ), name
            truth = float(exact_reference(name, a, b))
            assert abs(res.value - truth) <= res.est_error, name
        for total in ("I15", "J15"):
            parts = [rows[f"{total[0]}{k}"] for k in range(1, 6)]
            # plain += order: sum() rounds floats differently from Python 3.12 on
            value = est_error = 0.0
            for r in parts:
                value += r.value
                est_error += r.est_error
            assert rows[total].value == value
            assert rows[total].est_error == est_error
            assert rows[total].evaluations == sum(r.evaluations for r in parts)
        i15, j15, result = rows["I15"], rows["J15"], rows["RESULT"]
        assert result.value == i15.value / j15.value
        assert result.evaluations == i15.evaluations + j15.evaluations

    def test_sums_are_pinned_to_the_bit(self):
        # captured on Python 3.11; the sums run in += order, so Python
        # 3.12's compensated sum() must not move them
        rows = interior_catalog(1.3, 0.8, QuadConfig(rel_tol=1e-4))
        got = {name: (rows[name].value.hex(), rows[name].est_error.hex())
               for name in SUMS_FROZEN}
        assert got == SUMS_FROZEN

    def test_single_cell_spot_values(self):
        res = nested_quadrature(rectangle_regions(1.0, 1.0)[4], CFG)
        assert_close_to_reference(res, "I5")
        res = nested_quadrature(normalizer_regions(1.0, 1.0)[1], CFG)
        assert_close_to_reference(res, "J2")


class TestConvergence:
    def test_tightening_tolerance_moves_values_within_estimates(self):
        loose_cfg = QuadConfig(rel_tol=1e-3)
        tight_cfg = QuadConfig(rel_tol=1e-5)
        cells = rectangle_regions(1.0, 1.0) + normalizer_regions(1.0, 1.0)
        loose = [nested_quadrature(cell, loose_cfg) for cell in cells]
        tight = [nested_quadrature(cell, tight_cfg) for cell in cells]
        for lres, tres in zip(loose, tight):
            assert abs(lres.value - tres.value) <= lres.est_error + tres.est_error, (
                lres.name
            )

    def test_tight_tolerance_tracks_reference_closer(self):
        name = "I2"
        cell = rectangle_regions(1.0, 1.0)[1]
        truth = float(exact_reference(name))
        errs = [
            abs(nested_quadrature(cell, QuadConfig(rel_tol=r)).value - truth)
            for r in (1e-2, 1e-5)
        ]
        assert errs[1] <= errs[0]
        assert errs[1] <= 1e-5 * truth

    def test_converged_is_truthful_at_tight_tolerance(self):
        # the contract on a grid: every cell of two rectangles at four
        # tolerances is converged, and its est_error bounds the true error
        # and meets the tolerance; a cell whose inner integrals hit
        # max_depth somewhere still passes when its total error does.  At
        # 1e-9 the smallest cells, I1 and I8, bring rel_tol * |value| near
        # the absolute floor 1e-13, and the floor must not pass a cell
        # whose est_error misses rel_tol * |ref|
        broken = [
            (a, b, rel_tol, name)
            for a, b in ((1.0, 1.0), (1.3, 0.8))
            for rel_tol in (1e-4, 1e-6, 1e-8, 1e-9)
            for name, cell in region_catalog(a, b).items()
            if not meets_contract(nested_quadrature(cell, QuadConfig(rel_tol=rel_tol)),
                                  a, b, rel_tol)
        ]
        assert not broken

    def test_evaluations_of_the_interior_catalog(self):
        # G3/K7 on the x1 and y1 levels, the graded x2 level and the
        # log-scaled y2 level keep the ten cells at about 265K kernel
        # evaluations; G7/K15 on every level takes 1.2M, bisecting toward
        # the near-pole of the y2 level as well 4.4M, and toward x2 = x1 as
        # well 20M
        rows = interior_catalog(1.0, 1.0, QuadConfig(rel_tol=1e-6))
        assert rows["RESULT"].evaluations < 400_000

    def test_error_estimates_are_honest_at_unit_square(self, rect_unit, norm_unit):
        for store in (rect_unit, norm_unit):
            for name, res in store.items():
                truth = float(exact_reference(name))
                assert abs(res.value - truth) <= max(res.est_error, 1e-12), name


def catalog_bits(rows):
    """Each row's value and est_error as float.hex, its evaluations and flag."""
    return {r.name: (r.value.hex(), r.est_error.hex(), r.evaluations, r.converged)
            for r in rows}


class TestDepthCap:
    # quadrature._MAX_DEPTH is a safeguard, not a setting: lowered from 12
    # to 7 it changes no bit, evaluation count or flag of these runs, the
    # report's unit-square cells and 2 x 3 catalog at 1e-4 and a
    # non-square catalog at 1e-6, so none of their panels needs more than
    # seven bisections
    RUNS = {
        "catalog-1.3x0.8-1e-6":
            lambda: interior_catalog(1.3, 0.8, QuadConfig(rel_tol=1e-6)).values(),
        "square-cells-1e-4":
            lambda: [nested_quadrature(c, CFG) for c in region_catalog(1, 1).values()],
        "catalog-2x3-1e-4": lambda: interior_catalog(2, 3, CFG).values(),
    }

    @pytest.mark.parametrize("run", RUNS)
    def test_lowered_cap_changes_no_bit(self, monkeypatch, run):
        default = catalog_bits(self.RUNS[run]())
        monkeypatch.setattr(quadrature, "_MAX_DEPTH", 7)
        assert catalog_bits(self.RUNS[run]()) == default
