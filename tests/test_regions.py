"""Cell catalog structure, membership sampling, and exact reference values."""

import math
from fractions import Fraction

import numpy as np
import pytest

from randtri.geometry import signed_area_xy
from randtri.regions import (
    MIRROR,
    VAR_ORDER,
    AffineBound,
    Integrand,
    RegionSpec,
    UnknownNameError,
    exact_reference,
    normalizer_regions,
    rectangle_regions,
    region_catalog,
    sample_in_region,
)

ASCENDING_SIGNS = {"I1": 1, "I2": -1, "I3": -1, "I4": 1, "I5": -1}
DESCENDING_SIGNS = {"I6": -1, "I7": 1, "I8": -1, "I9": 1, "I10": 1}


def bounds_of(region, pts):
    """Recompute every chained bound at the sampled points, outermost first."""
    n = pts.shape[0]
    env = {}
    out = []
    for idx, (name, lo_fn, hi_fn) in enumerate(region.vars):
        lo = np.broadcast_to(np.asarray(lo_fn(env), dtype=float), (n,))
        hi = np.broadcast_to(np.asarray(hi_fn(env), dtype=float), (n,))
        env[name] = pts[:, idx]
        out.append((lo, np.maximum(lo, hi)))
    return out


def assert_supported(region, pts, tol=1e-9):
    for idx, (lo, hi) in enumerate(bounds_of(region, pts)):
        assert np.all(pts[:, idx] >= lo - tol), (region.name, VAR_ORDER[idx])
        assert np.all(pts[:, idx] <= hi + tol), (region.name, VAR_ORDER[idx])


class TestCatalogStructure:
    def test_rectangle_names_and_signs(self):
        cells = rectangle_regions(1.0, 1.0)
        assert [c.name for c in cells] == list(ASCENDING_SIGNS)
        assert {c.name: c.sign for c in cells} == ASCENDING_SIGNS
        assert all(c.integrand is Integrand.SIGNED_AREA for c in cells)

    def test_normalizers_are_unit_integrand_and_positive(self):
        cells = normalizer_regions(1.0, 1.0)
        assert [c.name for c in cells] == ["J1", "J2", "J3", "J4", "J5"]
        assert all(c.sign == 1 for c in cells)
        assert all(c.integrand is Integrand.ONE for c in cells)

    def test_square_catalog_extends_with_descending_cells(self):
        for a, b in ((1.0, 1.0), (2.0, 3.0)):
            catalog = region_catalog(a, b)
            assert all(name == c.name for name, c in catalog.items())
            cells = [c for c in catalog.values() if c.integrand is Integrand.SIGNED_AREA]
            assert [c.name for c in cells] == list(ASCENDING_SIGNS) + list(DESCENDING_SIGNS)
            got = {c.name: c.sign for c in cells if c.name in DESCENDING_SIGNS}
            assert got == DESCENDING_SIGNS
            volumes = [c for c in catalog.values() if c.integrand is Integrand.ONE]
            assert [c.name for c in volumes] == [f"J{k}" for k in range(1, 11)]
            assert all(c.sign == 1 for c in volumes)

    def test_variable_order_is_enforced(self):
        cells = rectangle_regions(2.0, 3.0)
        for cell in cells:
            assert tuple(v[0] for v in cell.vars) == VAR_ORDER

    def test_inner_bounds_are_affine(self):
        for cell in region_catalog(1.0, 1.0).values():
            _, y3_lo, y3_hi = cell.vars[5]
            assert isinstance(y3_lo, AffineBound)
            assert isinstance(y3_hi, AffineBound)

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="positive"):
            rectangle_regions(0.0, 1.0)
        with pytest.raises(ValueError):
            region_catalog(-2.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            rectangle_regions(float("inf"), 1.0)

    def test_spec_rejects_wrong_variable_names(self):
        rows = tuple(
            (name, (lambda env: 0.0), (lambda env: 1.0))
            for name in ("x1", "x2", "x3", "y1", "y2", "y3")
        )
        with pytest.raises(ValueError, match="variables"):
            RegionSpec(name="bad", vars=rows, sign=1, integrand=Integrand.ONE)

    def test_spec_rejects_bad_sign_and_integrand(self):
        rows = tuple((name, (lambda env: 0.0), (lambda env: 1.0)) for name in VAR_ORDER)
        with pytest.raises(ValueError, match="sign"):
            RegionSpec(name="bad", vars=rows, sign=2, integrand=Integrand.ONE)
        with pytest.raises(TypeError, match="integrand"):
            RegionSpec(name="bad", vars=rows, sign=1, integrand="one")

    def test_affine_bound_call_reads_x3(self):
        bound = AffineBound(lambda env: env["x1"], lambda env: 2.0)
        env = {"x1": np.array([0.5]), "x3": np.array([0.25])}
        assert bound(env) == pytest.approx(1.0)

    def test_chord_is_computed_once_per_env(self):
        # the x3 and y3 bounds of a chord cell share one slope per env,
        # stored as one derived entry, with the values of separate calls
        rng = np.random.default_rng(13)
        cells = region_catalog(1.0, 1.0)
        for name in ("I1", "I8"):  # ascending and descending chord
            cell = cells[name]
            pts = sample_in_region(cell, 100, rng)
            outer = {var: pts[:, k] for k, var in enumerate(VAR_ORDER[:4])}
            (_, x3_lo, x3_hi), (_, y3_lo, y3_hi) = cell.vars[4:]
            coefficients = (x3_lo, x3_hi, y3_lo.const, y3_lo.slope,
                            y3_hi.const, y3_hi.slope)
            env = dict(outer)
            shared = [fn(env) for fn in coefficients]
            assert len(env) == len(outer) + 1, name
            for fn, value in zip(coefficients, shared):
                np.testing.assert_array_equal(value, fn(dict(outer)))


class TestDomainRule:
    # every builder of cells applies the one rule, so a library caller
    # meets the same refusals as `randtri quad`
    BUILDERS = {"catalog": region_catalog, "ascending": rectangle_regions,
                "normalizers": normalizer_regions}
    # the least and the greatest s whose square ab = s * s keeps every
    # exact reference a normal float, at the aspect ratio bound 2**64
    S_LEAST, S_GREATEST = 1.2904458064987354e-38, 5.871236534543738e38

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=list(BUILDERS))
    @pytest.mark.parametrize("a,b,reason", [
        (1e-154, 1e154, "aspect ratio"),
        (1e-300, 1e300, "aspect ratio"),
        (1e-75, 1e150, "aspect ratio"),
        (1e-112, 1e188, "aspect ratio"),
        (1.0, math.nextafter(2.0**64, math.inf), "aspect ratio"),
        (1e-40, 1e-40, "exact I1 is not a normal binary64 float"),
        (1e39, 1e39, "is not a normal binary64 float"),
    ], ids=["hang", "zero-rows", "unconverged-rows", "nan-rows", "past-bound",
            "small-area", "large-area"])
    def test_refuses_before_building(self, build, a, b, reason):
        with pytest.raises(ValueError, match=reason):
            build(a, b)
        with pytest.raises(ValueError, match=reason):
            build(b, a)

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=list(BUILDERS))
    def test_corners_are_accepted_and_one_step_past_refused(self, build):
        for s in (self.S_LEAST, self.S_GREATEST):
            for turn in (1, -1):
                build(s * 2.0 ** (-32 * turn), s * 2.0 ** (32 * turn))
        build(1.0, 2.0**64)
        for s in (math.nextafter(self.S_LEAST, 0.0), math.nextafter(self.S_GREATEST, math.inf)):
            with pytest.raises(ValueError, match="is not a normal binary64 float"):
                build(s * 2.0**-32, s * 2.0**32)


class TestSampling:
    def test_samples_lie_inside_their_cell(self):
        rng = np.random.default_rng(9)
        for cell in region_catalog(1.0, 1.0).values():
            pts = sample_in_region(cell, 2_000, rng)
            assert pts.shape == (2_000, 6)
            assert_supported(cell, pts)

    def test_samples_keep_abscissas_ordered(self):
        rng = np.random.default_rng(10)
        for cell in rectangle_regions(2.0, 0.5):
            pts = sample_in_region(cell, 2_000, rng)
            assert np.all(pts[:, 0] <= pts[:, 2] + 1e-12)  # x1 <= x2
            assert np.all(pts[:, 2] <= pts[:, 4] + 1e-12)  # x2 <= x3

    def test_sign_is_constant_on_each_cell(self):
        rng = np.random.default_rng(11)
        for a, b in ((1.0, 1.0), (2.0, 3.0)):
            for cell in region_catalog(a, b).values():
                if cell.integrand is Integrand.SIGNED_AREA:
                    pts = sample_in_region(cell, 10_000, rng)
                    s = cell.sign * signed_area_xy(*pts.T)
                    assert s.min() >= -1e-12, (a, b, cell.name)

    def test_mirror_cells_map_onto_partners(self):
        # reflecting y -> b - y carries each descending cell onto its
        # ascending partner, which is why their integrals pair up
        rng = np.random.default_rng(12)
        flip = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        for a, b in ((1.0, 1.0), (1.3, 0.8)):
            cells = region_catalog(a, b)
            shift = np.array([0.0, b, 0.0, b, 0.0, b])
            for low, high in MIRROR.items():
                pts = sample_in_region(cells[f"I{low}"], 3_000, rng)
                assert_supported(cells[f"I{high}"], pts * flip + shift, tol=1e-7)

    def test_rejects_nonpositive_count(self):
        cell = rectangle_regions(1.0, 1.0)[0]
        with pytest.raises(ValueError, match="n >= 1"):
            sample_in_region(cell, 0, np.random.default_rng(1))

    @pytest.mark.parametrize("bad", [True, 2.5, 3.0, np.float64(3)],
                             ids=["True", "2.5", "3.0", "np.float64"])
    def test_rejects_non_integer_count(self, bad):
        # not a TypeError from deep inside numpy
        cell = rectangle_regions(1.0, 1.0)[0]
        with pytest.raises(ValueError, match="n must be an integer"):
            sample_in_region(cell, bad, np.random.default_rng(1))

    def test_numpy_integer_count_draws_the_same_points(self):
        cell = rectangle_regions(1.0, 1.0)[0]
        got = sample_in_region(cell, np.int64(5), np.random.default_rng(1))
        assert got.tobytes() == sample_in_region(cell, 5, np.random.default_rng(1)).tobytes()


class TestExactReference:
    def test_unit_square_cells(self):
        assert exact_reference("I1") == Fraction(1, 34560)
        assert exact_reference("I3") == Fraction(140, 34560)
        assert exact_reference("I5") == Fraction(37, 34560)
        assert exact_reference("J2") == Fraction(5, 432)
        assert exact_reference("J15") == Fraction(1, 12)
        assert exact_reference("RESULT") == Fraction(11, 144)

    def test_mirror_pairs_share_values(self):
        for low, high in [("I6", "I4"), ("I7", "I5"), ("I8", "I1"),
                          ("I9", "I2"), ("I10", "I3")]:
            assert exact_reference(low) == exact_reference(high)
        for low, high in [("J6", "J4"), ("J7", "J5"), ("J8", "J1"),
                          ("J9", "J2"), ("J10", "J3")]:
            assert exact_reference(low) == exact_reference(high)

    def test_sums_are_consistent_with_cells(self):
        ascending = sum(exact_reference(f"I{k}") for k in range(1, 6))
        assert ascending == exact_reference("I15")
        assert 2 * exact_reference("I15") == exact_reference("II")
        assert sum(exact_reference(f"J{k}") for k in range(1, 6)) == exact_reference("J15")
        assert 2 * exact_reference("J15") == exact_reference("JJ")
        assert exact_reference("II") / exact_reference("JJ") == exact_reference("RESULT")

    def test_domain_scaling_monomials(self):
        assert exact_reference("I1", 2, 3) == Fraction(1, 34560) * 6**4
        assert exact_reference("J5", 2, 3) == Fraction(7, 432) * 6**3
        assert exact_reference("RESULT", 2, 3) == Fraction(11, 144) * 6
        # dyadic floats enter exactly
        assert exact_reference("RESULT", 0.5, 0.5) == Fraction(11, 144) / 4
        # all 25 names: the twenty cells, the four sums and the mean
        names = [f"{p}{k}" for p in "IJ" for k in range(1, 11)]
        for a, b in ((1.3, 0.8), (0.001, 1)):
            ab = Fraction(a) * Fraction(b)
            for name in names + ["I15", "II", "J15", "JJ", "RESULT"]:
                power = {"I": 4, "J": 3, "R": 1}[name[0]]
                assert exact_reference(name, a, b) == exact_reference(name) * ab**power

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownNameError, match="Q9"):
            exact_reference("Q9")
        for name in ("K1", "I0", "I11", "J11"):
            with pytest.raises(UnknownNameError, match=name):
                exact_reference(name)
