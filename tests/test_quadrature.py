"""Adaptive engine behavior on known integrals and hand-checkable regions."""

import math

import numpy as np
import pytest

from randtri.quadrature import (
    NODES,
    WEIGHTS_G,
    WEIGHTS_K,
    DegenerateRegionError,
    QuadConfig,
    RegionResult,
    adaptive_quad_batch,
    nested_quadrature,
)
from randtri.regions import AffineBound, Integrand, RegionSpec, VAR_ORDER, rectangle_regions


def plain(func):
    """Wrap a scalar-field function as a batch integrand with no inner error."""

    def f(ids, x):
        vals = func(ids, x)
        return vals, np.zeros_like(vals)

    return f


def quad1(func, lo, hi, **kw):
    vals, errs = adaptive_quad_batch(plain(lambda ids, x: func(x)), [lo], [hi], **kw)
    return vals[0], errs[0]


def const(v):
    return lambda env: v


def cbound(v):
    return AffineBound(const(v), const(0.0))


def box_region(name, integrand, spans, y3_hi=None):
    """Region with constant bounds per variable; y3 upper may be an AffineBound."""
    rows = []
    for var, (lo, hi) in zip(VAR_ORDER, spans):
        if var == "y3":
            rows.append((var, cbound(lo), y3_hi if y3_hi is not None else cbound(hi)))
        else:
            rows.append((var, const(lo), const(hi)))
    return RegionSpec(name=name, vars=tuple(rows), sign=1, integrand=integrand)


UNIT_SPANS = [(0.0, 1.0)] * 6


class TestRuleConstants:
    def test_weights_integrate_constants(self):
        # both embedded rules integrate 1 over [-1, 1] exactly
        assert math.isclose(WEIGHTS_K.sum(), 2.0, rel_tol=1e-14)
        assert math.isclose(WEIGHTS_G.sum(), 2.0, rel_tol=1e-14)

    def test_nodes_symmetric_and_sorted(self):
        assert NODES.shape == (15,)
        assert np.all(np.diff(NODES) > 0)
        assert np.allclose(NODES + NODES[::-1], 0.0, atol=1e-15)

    def test_gauss_weights_vanish_on_kronrod_only_nodes(self):
        assert np.all(WEIGHTS_G[::2] == 0.0)
        assert np.all(WEIGHTS_G[1::2] > 0.0)

    def test_high_degree_polynomial(self):
        # degree 20 is beyond the embedded 7-point rule but within the
        # 15-point rule, so refinement must still reach the exact value
        v, err = quad1(lambda x: x**20, -1.0, 2.0, rel_tol=1e-12)
        truth = (2.0**21 + 1.0) / 21.0
        assert err <= 1e-12 * abs(v)
        assert abs(v - truth) <= max(err, 1e-9 * truth)


class TestAdaptiveBatch:
    def test_monomial(self):
        v, err = quad1(lambda x: x * x, 0.0, 1.0, rel_tol=1e-10)
        assert err <= 1e-10 * abs(v)
        assert abs(v - 1.0 / 3.0) <= max(err, 4.0 * np.spacing(1.0 / 3.0))

    def test_arctangent_kernel(self):
        v, err = quad1(lambda x: 4.0 / (1.0 + x * x), 0.0, 1.0, rel_tol=1e-12)
        assert err <= 1e-12 * abs(v)
        assert abs(v - math.pi) <= 1e-11

    def test_oscillatory(self):
        v, err = quad1(lambda x: np.sin(20.0 * x), 0.0, 1.0, rel_tol=1e-10)
        assert err <= 1e-10 * abs(v)
        assert abs(v - (1.0 - math.cos(20.0)) / 20.0) <= 1e-10

    def test_interior_kink_with_depth_headroom(self):
        truth = (2.0 / 3.0) * ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5)
        v, err = quad1(
            lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0,
            rel_tol=1e-8, max_depth=40,
        )
        assert err <= 1e-8 * abs(v)
        assert abs(v - truth) <= 1e-7

    def test_interior_kink_starved_depth_flags_not_ok(self):
        v, err = quad1(
            lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0,
            rel_tol=1e-13, max_depth=2,
        )
        assert err > 1e-13 * abs(v)  # the tolerance was not met
        assert err > 1e-13  # the reported error owns up to the failure
        assert abs(v - 0.4934) < 0.05  # estimate is still in the right place

    def test_empty_interval_is_zero(self):
        vals, errs = adaptive_quad_batch(
            plain(lambda ids, x: np.ones_like(x)), [1.0], [1.0], rel_tol=1e-6
        )
        assert vals[0] == 0.0 and errs[0] == 0.0

    def test_mixed_live_and_empty_batch(self):
        vals, errs = adaptive_quad_batch(
            plain(lambda ids, x: np.ones_like(x)),
            [0.0, 2.0, 0.0],
            [2.0, 0.0, 0.5],
            rel_tol=1e-10,
        )
        assert np.all(errs <= 1e-10 * np.abs(vals))
        assert vals[1] == 0.0
        assert math.isclose(vals[0], 2.0, rel_tol=1e-12)
        assert math.isclose(vals[2], 0.5, rel_tol=1e-12)

    def test_tiny_interval_hits_absolute_floor(self):
        v, err = quad1(lambda x: x, 0.0, 1e-8, rel_tol=1e-10)
        assert err <= 1e-13  # the absolute floor, not rel_tol * |v|, decides
        assert math.isclose(v, 5e-17, rel_tol=1e-10)

    def test_batched_results_match_solo_runs(self):
        # same panels either way; only the BLAS reduction kernel differs
        # with batch width, so agreement is to a few ulps, not bitwise
        funcs = [
            lambda x: x * x,
            lambda x: np.exp(-x) * np.sin(7.0 * x),
            lambda x: 1.0 / (1.0 + x),
        ]

        def batched(ids, x):
            out = np.empty_like(x)
            for k, fn in enumerate(funcs):
                mask = ids == k
                out[mask] = fn(x[mask])
            return out

        together, errs = adaptive_quad_batch(
            plain(batched), [0.0, 0.0, 0.0], [1.0, 2.0, 3.0], rel_tol=1e-9
        )
        assert np.all(errs <= 1e-9 * np.abs(together))
        for k, fn in enumerate(funcs):
            solo, _ = adaptive_quad_batch(
                plain(lambda ids, x: fn(x)), [0.0], [float(k + 1)], rel_tol=1e-9
            )
            assert abs(together[k] - solo[0]) <= 16.0 * np.spacing(abs(solo[0]))

    def test_rerun_is_bit_identical(self):
        args = (plain(lambda ids, x: np.sin(x) / (1.0 + x)), [0.0], [5.0])
        v1, e1 = adaptive_quad_batch(*args, rel_tol=1e-11)
        v2, e2 = adaptive_quad_batch(*args, rel_tol=1e-11)
        assert v1[0] == v2[0] and e1[0] == e2[0]


class TestConfig:
    def test_defaults(self):
        cfg = QuadConfig()
        assert cfg.rel_tol == 1e-4 and cfg.max_depth == 12

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_bad_rel_tol(self, bad):
        with pytest.raises(ValueError, match="rel_tol"):
            QuadConfig(rel_tol=bad)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError, match="max_depth"):
            QuadConfig(max_depth=0)


class TestNested:
    def test_unit_box_volume(self):
        res = nested_quadrature(box_region("box", Integrand.ONE, UNIT_SPANS))
        assert isinstance(res, RegionResult)
        assert res.converged
        assert math.isclose(res.value, 1.0, rel_tol=1e-10)

    def test_ordered_chain_volume(self):
        # 0 <= v1 <= v2 <= ... <= v6 <= 1 has volume 1/720
        rows = []
        prev = None
        for var in VAR_ORDER:
            if var == "y3":
                rows.append((var, AffineBound(const(0.0), const(1.0)), cbound(1.0)))
            elif prev is None:
                rows.append((var, const(0.0), const(1.0)))
            else:
                rows.append((var, (lambda env, p=prev: env[p]), const(1.0)))
            prev = var
        region = RegionSpec(name="chain", vars=tuple(rows), sign=1, integrand=Integrand.ONE)
        res = nested_quadrature(region)
        assert res.converged
        assert math.isclose(res.value, 1.0 / 720.0, rel_tol=1e-9)

    def test_signed_area_cancels_over_symmetric_box(self):
        region = box_region("sym", Integrand.SIGNED_AREA, UNIT_SPANS)
        res = nested_quadrature(region)
        assert res.converged
        assert abs(res.value) <= 1e-12

    def test_signed_area_asymmetric_box_hand_value(self):
        # x1,x3,y2 in [0,1], y1 in [0,1/2], x2 in [0,1], y3 in [0,x3];
        # iterating the affine integrand by hand gives -1/192
        spans = [(0.0, 1.0), (0.0, 0.5), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 0.0)]
        y3_hi = AffineBound(const(0.0), const(1.0))
        region = box_region("hand", Integrand.SIGNED_AREA, spans, y3_hi=y3_hi)
        truth = -1.0 / 192.0
        res = nested_quadrature(region)
        assert res.converged
        assert abs(res.value - truth) <= 1e-10

    def test_analytic_requires_affine_inner_bounds(self):
        rows = tuple((var, const(0.0), const(1.0)) for var in VAR_ORDER)
        with pytest.raises(TypeError, match="affine"):
            RegionSpec(name="plainy3", vars=rows, sign=1, integrand=Integrand.ONE)

    def test_degenerate_outer_interval_raises(self):
        spans = [(1.0, 0.0)] + [(0.0, 1.0)] * 5
        region = box_region("deg", Integrand.ONE, spans)
        with pytest.raises(DegenerateRegionError, match="deg"):
            nested_quadrature(region)

    def test_empty_inner_levels_contribute_zero(self):
        rows = [
            ("x1", const(0.0), const(1.0)),
            ("y1", const(0.0), const(1.0)),
            ("x2", const(1.0), lambda env: env["x1"]),  # empty for every x1 < 1
            ("y2", const(0.0), const(1.0)),
            ("x3", const(0.0), const(1.0)),
            ("y3", cbound(0.0), cbound(1.0)),
        ]
        region = RegionSpec(name="empty", vars=tuple(rows), sign=1, integrand=Integrand.ONE)
        res = nested_quadrature(region)
        assert res.converged
        assert res.value == 0.0

    def test_depth_starved_region_reports_not_converged(self):
        cells = rectangle_regions(1.0, 1.0)
        cfg = QuadConfig(rel_tol=1e-9, max_depth=1)
        res = nested_quadrature(cells[2], cfg)  # widest cell of the catalog
        assert not res.converged

    def test_rerun_is_deterministic(self):
        cell = rectangle_regions(1.0, 1.0)[2]
        r1 = nested_quadrature(cell)
        r2 = nested_quadrature(cell)
        assert r1.value == r2.value
        assert r1.est_error == r2.est_error
        assert r1.evaluations == r2.evaluations
