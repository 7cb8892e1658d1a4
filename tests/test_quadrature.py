"""Adaptive engine behavior on known integrals and hand-checkable regions."""

import math
from collections import Counter

import numpy as np
import pytest

from randtri import frame, quadrature
from randtri.quadrature import (
    GK7,
    GK15,
    DegenerateRegionError,
    QuadConfig,
    RegionResult,
    adaptive_quad_batch,
    nested_quadrature,
)
from randtri.regions import (
    VAR_ORDER,
    AffineBound,
    Integrand,
    RegionSpec,
    normalizer_regions,
    rectangle_regions,
    region_catalog,
)


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


def record_rows(monkeypatch, module) -> dict[int, list[int]]:
    """Log the row width of every engine callback in ``module``, per nesting level."""
    widths: dict[int, list[int]] = {}
    depth = 0
    engine = module.adaptive_quad_batch

    def run(f, lo, hi, **kw):
        nonlocal depth
        level = depth

        def rows(ids, x):
            widths.setdefault(level, []).append(x.shape[1])
            return f(ids, x)

        depth += 1
        try:
            return engine(rows, lo, hi, **kw)
        finally:
            depth -= 1

    monkeypatch.setattr(module, "adaptive_quad_batch", run)
    return widths


class TestRuleConstants:
    def test_weights_integrate_constants(self):
        # both embedded rules integrate 1 over [-1, 1] exactly
        _, weights_k, weights_g = GK15
        assert math.isclose(weights_k.sum(), 2.0, rel_tol=1e-14)
        assert math.isclose(weights_g.sum(), 2.0, rel_tol=1e-14)

    def test_nodes_symmetric_and_sorted(self):
        nodes, _, _ = GK15
        assert nodes.shape == (15,)
        assert np.all(np.diff(nodes) > 0)
        assert np.allclose(nodes + nodes[::-1], 0.0, atol=1e-15)

    def test_gauss_weights_vanish_on_kronrod_only_nodes(self):
        _, _, weights_g = GK15
        assert np.all(weights_g[::2] == 0.0)
        assert np.all(weights_g[1::2] > 0.0)

    def test_g3_k7_table(self):
        # symmetric and sorted; the Gauss part is 3-point Gauss-Legendre at
        # the odd indices; K7 is exact to degree 11 and G3 to degree 5, and
        # neither one degree further
        nodes, weights_k, weights_g = GK7
        assert nodes.shape == weights_k.shape == weights_g.shape == (7,)
        assert np.all(np.diff(nodes) > 0)
        assert np.all(nodes + nodes[::-1] == 0.0)
        assert np.all(weights_k == weights_k[::-1])
        assert np.all(weights_g[::2] == 0.0)
        gauss_nodes, gauss_weights = np.polynomial.legendre.leggauss(3)
        np.testing.assert_allclose(nodes[1::2], gauss_nodes, rtol=0, atol=2e-16)
        np.testing.assert_allclose(weights_g[1::2], gauss_weights, rtol=0, atol=2e-16)
        for degree in range(13):
            moment = nodes**degree
            exact = (1.0 + (-1.0) ** degree) / (degree + 1)
            assert (abs(weights_k @ moment - exact) <= 4e-16) == (degree <= 11), degree
            # odd moments vanish by symmetry for any degree
            assert (abs(weights_g @ moment - exact) <= 4e-16) == (
                degree <= 5 or degree % 2 == 1
            ), degree

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

    def test_batched_depth_caps_match_solo_runs(self):
        # panels of different depths split in one round: each child must
        # carry its own parent's depth + 1, as in a solo run, or max_depth
        # caps the wrong panels
        kinks = np.array([1.0 / 3.0, 0.7, 0.123, 0.91])
        his = [1.0, 2.0, 1.0, 3.0]
        kw = {"rel_tol": 1e-8, "max_depth": 3}

        def batched(ids, x):
            return np.sqrt(np.abs(x - kinks[ids, None])), None

        together, _ = adaptive_quad_batch(batched, np.zeros(kinks.size), his, **kw)
        for k, (kink, hi) in enumerate(zip(kinks, his)):
            solo, _ = adaptive_quad_batch(
                lambda ids, x: (np.sqrt(np.abs(x - kink)), None), [0.0], [hi], **kw
            )
            assert abs(together[k] - solo[0]) <= 16.0 * np.spacing(abs(solo[0])), k

    def test_callback_gets_panel_rows_and_skips_converged_integrals(self):
        # integral 0 is constant and converges on its first panel; integral
        # 1 has a kink that takes many rounds of refinement
        def kinked(x):
            return np.sqrt(np.abs(x - 1.0 / 3.0))

        calls = []

        def f(ids, x):
            calls.append((ids.copy(), x.shape))
            return np.where(ids[:, None] == 0, 1.0, kinked(x)), None

        vals, _ = adaptive_quad_batch(f, [0.0, 0.0], [1.0, 1.0], rel_tol=1e-8, max_depth=40)
        assert len(calls) > 2
        # one id per panel, one row of 15 nodes per id
        assert all(shape == (ids.size, 15) for ids, shape in calls)
        # the constant converges in the first round and is never evaluated again
        assert 0 in calls[0][0]
        assert all(0 not in ids for ids, _ in calls[1:])
        for k, fn in enumerate((np.ones_like, kinked)):
            solo, _ = adaptive_quad_batch(
                lambda ids, x: (fn(x), None), [0.0], [1.0], rel_tol=1e-8, max_depth=40
            )
            assert abs(vals[k] - solo[0]) <= 16.0 * np.spacing(abs(solo[0]))

    def test_rerun_is_bit_identical(self):
        args = (plain(lambda ids, x: np.sin(x) / (1.0 + x)), [0.0], [5.0])
        v1, e1 = adaptive_quad_batch(*args, rel_tol=1e-11)
        v2, e2 = adaptive_quad_batch(*args, rel_tol=1e-11)
        assert v1[0] == v2[0] and e1[0] == e2[0]


def log_scaled(func, lo, hi, pole, **kw):
    """Integrate ``func(y)`` over each [lo, hi] through ``_log_scale``.

    Returns (values, errors, rounds), where rounds counts the engine's
    calls of the integrand.
    """
    lo, hi, pole = (np.asarray(v, dtype=float) for v in (lo, hi, pole))
    t_lo, t_hi, to_y = quadrature._log_scale(lo, hi, {"y1": pole})
    rounds = 0

    def f(ids, t):
        nonlocal rounds
        rounds += 1
        y, jacobian = to_y(ids, t)
        return func(y) * jacobian, None

    vals, errs = adaptive_quad_batch(f, t_lo, t_hi, **kw)
    return vals, errs, rounds


class TestLogScale:
    @pytest.mark.parametrize("delta", [10.0**-k for k in range(3, 13)])
    def test_near_pole_integrand_takes_at_most_two_rounds(self, delta):
        # 1/(y - p) on [p + delta, p + 1] and on its mirror [p - 1, p - delta];
        # the pole p = 0 keeps y - p exact, so only the map's error shows
        vals, errs, rounds = log_scaled(
            lambda y: 1.0 / y, [delta, -1.0], [1.0, -delta], [0.0, 0.0], rel_tol=1e-10
        )
        truth = -math.log(delta)
        assert rounds <= 2
        for v, err, want in zip(vals, errs, (truth, -truth)):
            assert err <= 1e-10 * abs(v)
            assert abs(v - want) <= 1e-10 * truth

    def test_map_runs_from_the_near_end_to_the_far_end(self):
        lo, hi, pole = np.array([0.5, -2.0]), np.array([2.0, -0.25]), np.zeros(2)
        t_lo, t_hi, to_y = quadrature._log_scale(lo, hi, {"y1": pole})
        assert list(t_lo) == [0.0, 0.0] and list(t_hi) == [1.0, 1.0]
        y, jacobian = to_y(np.array([0, 1]), np.array([[0.0, 1.0], [0.0, 1.0]]))
        assert y[0, 0] == 0.5 and y[1, 0] == -0.25  # t = 0: the end nearer p
        assert np.allclose(y[:, 1], [2.0, -2.0], rtol=1e-15, atol=0.0)
        # |dy/dt| = |y - p| * log(far / near)
        assert np.allclose(jacobian, np.abs(y) * np.log([[4.0], [8.0]]), rtol=1e-15)

    def test_pole_on_or_inside_the_interval_keeps_the_bits(self):
        # pole at the lower end, at the upper end, inside, and an empty
        # interval above the pole: y = t and Jacobian 1.0, exactly
        lo, hi, pole = [0.3, -1.0, 0.0, 2.0], [1.3, 0.3, 1.0, 1.5], [0.3, 0.3, 0.4, 0.0]
        t_lo, t_hi, to_y = quadrature._log_scale(
            np.array(lo), np.array(hi), {"y1": np.array(pole)}
        )
        assert list(t_lo) == lo and list(t_hi) == hi
        t = np.linspace(0.1, 0.9, 15)[None, :].repeat(4, axis=0)
        y, jacobian = to_y(np.arange(4), t)
        assert np.array_equal(y, t) and np.all(jacobian == 1.0)

        def func(y):
            return np.sqrt(np.abs(y - 0.3)) + np.cos(3.0 * y)

        kw = {"rel_tol": 1e-10, "max_depth": 20}
        for k in range(4):
            got, got_err, _ = log_scaled(func, lo[k:k + 1], hi[k:k + 1], pole[k:k + 1], **kw)
            want, want_err = adaptive_quad_batch(plain(lambda ids, x: func(x)),
                                                 lo[k:k + 1], hi[k:k + 1], **kw)
            assert got[0].hex() == want[0].hex() and got_err[0].hex() == want_err[0].hex()
        assert got[0] == 0.0  # the empty interval stays empty

    def test_mixed_batch_maps_only_the_integrals_clear_of_their_pole(self):
        lo, hi, pole = np.array([0.3, 0.5]), np.array([1.3, 1.5]), np.array([0.3, 0.0])
        t_lo, t_hi, to_y = quadrature._log_scale(lo, hi, {"y1": pole})
        assert list(t_lo) == [0.3, 0.0] and list(t_hi) == [1.3, 1.0]
        t = np.array([[0.4, 0.6], [0.4, 0.6]])
        y, jacobian = to_y(np.array([0, 1]), t)
        assert list(y[0]) == [0.4, 0.6] and list(jacobian[0]) == [1.0, 1.0]
        assert np.all((0.5 < y[1]) & (y[1] < 1.5)) and np.all(jacobian[1] > 0.0)


class TestGraded:
    def test_map_and_jacobian_at_the_ends_and_inside(self):
        # x = lo + (hi - lo) * s**3 with the Jacobian 3 * (hi - lo) * s**2;
        # these nodes make every product exact in binary
        lo, hi = np.array([1.0, -2.0]), np.array([3.0, -1.0])
        s_lo, s_hi, to_x = quadrature._graded(lo, hi, {})
        assert list(s_lo) == [0.0, 0.0] and list(s_hi) == [1.0, 1.0]
        s = np.array([[0.0, 0.25, 0.5, 1.0]] * 2)
        x, jacobian = to_x(np.array([0, 1]), s)
        assert x[0].tolist() == [1.0, 1.03125, 1.25, 3.0]
        assert x[1].tolist() == [-2.0, -1.984375, -1.875, -1.0]
        assert jacobian[0].tolist() == [0.0, 0.375, 1.5, 6.0]
        assert jacobian[1].tolist() == [0.0, 0.1875, 0.75, 3.0]

    def test_x_log_x_and_an_empty_interval(self):
        # x * log(x) on [0, 1] has its log endpoint at lo and integrates to
        # -1/4; the empty interval [2, 1.5] becomes [0, 0] and gives 0
        s_lo, s_hi, to_x = quadrature._graded(np.array([0.0, 2.0]), np.array([1.0, 1.5]), {})
        assert list(s_lo) == [0.0, 0.0] and list(s_hi) == [1.0, 0.0]

        def f(ids, s):
            x, jacobian = to_x(ids, s)
            return x * np.log(x) * jacobian, None

        vals, errs = adaptive_quad_batch(f, s_lo, s_hi, rel_tol=1e-10)
        assert errs[0] <= 1e-10 * abs(vals[0])
        assert abs(vals[0] + 0.25) <= 1e-10 * 0.25
        assert vals[1] == 0.0 and errs[1] == 0.0


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
        # I1, the smallest cell, needs more than one bisection per level
        # at 1e-9; its est_error owns up to the shortfall
        cfg = QuadConfig(rel_tol=1e-9, max_depth=1)
        res = nested_quadrature(rectangle_regions(1.0, 1.0)[0], cfg)
        assert res.est_error > cfg.rel_tol * abs(res.value)
        assert not res.converged

    def test_rerun_is_deterministic(self):
        cell = rectangle_regions(1.0, 1.0)[2]
        r1 = nested_quadrature(cell)
        r2 = nested_quadrature(cell)
        assert r1.value == r2.value
        assert r1.est_error == r2.est_error
        assert r1.evaluations == r2.evaluations

    def test_rule_per_level(self, monkeypatch):
        # G3/K7 rows on x1 and y1, G7/K15 rows on x2 and y2; the frame
        # runs its fixed rule and never enters the engine
        widths = record_rows(monkeypatch, quadrature)
        nested_quadrature(region_catalog(1.3, 0.8)["I1"], QuadConfig(rel_tol=1e-6))
        assert {level: set(w) for level, w in widths.items()} == {
            0: {7}, 1: {7}, 2: {15}, 3: {15}
        }

        def forbidden(*args, **kwargs):
            raise AssertionError("the frame route entered the adaptive engine")

        widths = record_rows(monkeypatch, frame)
        monkeypatch.setattr(quadrature, "adaptive_quad_batch", forbidden)
        monkeypatch.setattr(quadrature, "_budget_shares", forbidden)
        frame.expected_area_frame(QuadConfig(rel_tol=1e-6))
        frame.side_case_value(1, 0.37, QuadConfig(rel_tol=1e-6))
        assert widths == {}


# (value.hex(), est_error.hex(), evaluations, converged) at rel_tol 1e-4,
# with G3/K7 panels on the x1 and y1 levels and G7/K15 on x2 and y2, the
# x2 level graded as x2 = x1 + (a - x1) * s**3 and the y2 level on a log
# scale away from y2 = y1.  The x1 and y1 levels split no panel on these
# cells, so the 7-node rule resolves them on one panel, and the cells that
# need no refinement anywhere (J4, J5, I4, I5 here) take the minimum
# 7 * 7 * 15 * 15 = 11,025 evaluations.  Every step of the kernel level is
# elementwise, so sharing its bound coefficients across a panel must not
# move these by a bit; a change to either map or to any level's rule must
# re-capture them.  The square's cells 8..10 run the descending chord
# bounds.
FROZEN = {
    ("rect", "I1"): ("0x1.1bf47b05d3b6ap-15", "0x1.f1e1608c86a9cp-42", 33015, True),
    ("rect", "I2"): ("0x1.982f70d86061cp-11", "0x1.c0aee71d525e9p-29", 11955, True),
    ("rect", "I3"): ("0x1.3693668e5f8dcp-8", "0x1.4057efcb16437p-32", 16905, True),
    ("rect", "I4"): ("0x1.51325216eb683p-11", "0x1.a326488155408p-29", 11025, True),
    ("rect", "I5"): ("0x1.4852ae3ebcca4p-10", "0x1.bf968d1ccb3fbp-29", 11025, True),
    ("rect", "J1"): ("0x1.554ac517fef3ap-9", "0x1.ab3327bc862b0p-31", 13695, True),
    ("rect", "J2"): ("0x1.aa9d765e2c795p-7", "0x1.aa4db66242981p-30", 13395, True),
    ("rect", "J3"): ("0x1.7ff41dbb4ef18p-5", "0x1.4339c96a5dbc6p-29", 12495, True),
    ("rect", "J4"): ("0x1.aa9d765e4aff5p-7", "0x1.0000000000000p-57", 11025, True),
    ("rect", "J5"): ("0x1.2aa16c75347f8p-6", "0x1.0000000000000p-56", 11025, True),
    ("square", "I8"): ("0x1.e573ac901e57ap-16", "0x1.a996be64f2ccdp-42", 33105, True),
    ("square", "I9"): ("0x1.5ceb240795d95p-11", "0x1.7f894a6b66864p-29", 11955, True),
    ("square", "I10"): ("0x1.097b425ed096cp-8", "0x1.11d4ba66d648ap-32", 16905, True),
    ("square", "J8"): ("0x1.2f684bd9dcb19p-9", "0x1.7bc77267beb76p-31", 13695, True),
    ("square", "J9"): ("0x1.7b425ed07c91bp-7", "0x1.7afb790ed8146p-30", 13425, True),
    ("square", "J10"): ("0x1.555555555f825p-5", "0x1.1f58b3f3ad164p-29", 12495, True),
}


def _frozen_cells():
    rect = rectangle_regions(1.3, 0.8) + normalizer_regions(1.3, 0.8)
    cells = [("rect", c) for c in rect]
    cells += [("square", c) for c in region_catalog(1.0, 1.0).values()
              if ("square", c.name) in FROZEN]
    return cells


@pytest.mark.parametrize(
    "tag, cell", _frozen_cells(), ids=lambda v: v if isinstance(v, str) else v.name
)
def test_catalog_results_are_frozen_to_the_bit(tag, cell):
    res = nested_quadrature(cell, QuadConfig(rel_tol=1e-4))
    got = (res.value.hex(), res.est_error.hex(), res.evaluations, res.converged)
    assert got == FROZEN[tag, cell.name]


# The same at rel_tol 1e-6 on 1.3 x 0.8, where refinement runs more rounds
# than at 1e-4: evaluating only the halves of split panels and broadcasting
# each panel's outer variables across its nodes must not move these by a
# bit.  Captured with the same rule per level and the same maps as FROZEN.
FROZEN_DEEP = {
    "I1": ("0x1.1bf47b05d3b6ap-15", "0x1.82944efecd6c3p-42", 37815, True),
    "J1": ("0x1.554ac5183b0b1p-9", "0x1.c203de166097cp-37", 49575, True),
}


@pytest.mark.parametrize(
    "cell",
    [c for c in rectangle_regions(1.3, 0.8) + normalizer_regions(1.3, 0.8)
     if c.name in FROZEN_DEEP],
    ids=lambda c: c.name,
)
def test_deep_catalog_results_are_frozen_to_the_bit(cell):
    res = nested_quadrature(cell, QuadConfig(rel_tol=1e-6))
    got = (res.value.hex(), res.est_error.hex(), res.evaluations, res.converged)
    assert got == FROZEN_DEEP[cell.name]


# frame.side_case_value(case, 0.37) at rel_tol 1e-8: the fixed 2-node rule
# on each kink-split piece, which ignores the tolerance
SIDE_FROZEN = {
    1: "0x1.114e3bcd35a86p-2",
    2: "0x1.68902de00d1b8p-1",
    3: "0x1.99a8e448a2bf6p-1",
    4: "0x1.3118b66895a40p-1",
}


@pytest.mark.parametrize("case", sorted(SIDE_FROZEN))
def test_side_case_values_are_frozen_to_the_bit(case):
    value = frame.side_case_value(case, 0.37, QuadConfig(rel_tol=1e-8))
    assert value.hex() == SIDE_FROZEN[case]


# frame.expected_area_frame(QuadConfig(rel_tol), p1_side=side): every
# first-vertex side at 1e-8 and the first side at 1e-9, each 5/32 to the
# last bit; a rotation or a reordered sum that moves the mean shows here
FRAME_FROZEN = {
    (1e-8, 1): "0x1.4000000000000p-3",
    (1e-8, 2): "0x1.4000000000000p-3",
    (1e-8, 3): "0x1.4000000000000p-3",
    (1e-8, 4): "0x1.4000000000000p-3",
    (1e-9, 1): "0x1.4000000000000p-3",
}


@pytest.mark.parametrize("rel_tol,side", sorted(FRAME_FROZEN))
def test_frame_means_are_frozen_to_the_bit(rel_tol, side):
    value = frame.expected_area_frame(QuadConfig(rel_tol=rel_tol), p1_side=side)
    assert value.hex() == FRAME_FROZEN[rel_tol, side]


# frame._side_value(case, x1, q) summed over the four cases in order: the
# whole sweep of one first vertex in each rotation, at a plain x1, at
# x1 = 0.7 and at the benchmark x1 whose kink once went missing.  The
# frame means all round to 5/32 itself, so these pin the route tighter
SWEEP_FROZEN = {
    (0.37, 0): "0x1.2efe399df814cp+1",
    (0.37, 1): "0x1.2efe399df814cp+1",
    (0.37, 2): "0x1.2efe399df814cp+1",
    (0.37, 3): "0x1.2efe399df814cp+1",
    (0.7, 0): "0x1.34e81b4e81b4fp+1",
    (0.7, 1): "0x1.34e81b4e81b4fp+1",
    (0.7, 2): "0x1.34e81b4e81b4fp+1",
    (0.7, 3): "0x1.34e81b4e81b4fp+1",
    (0.0015847499555259326, 0): "0x1.6a42f91bf4993p+1",
    (0.0015847499555259326, 1): "0x1.6a42f91bf4993p+1",
    (0.0015847499555259326, 2): "0x1.6a42f91bf4993p+1",
    (0.0015847499555259326, 3): "0x1.6a42f91bf4993p+1",
}


@pytest.mark.parametrize("x1,quarter_turns", sorted(SWEEP_FROZEN))
def test_side_sweeps_are_frozen_to_the_bit(x1, quarter_turns):
    total = 0.0
    for case in (1, 2, 3, 4):
        total += frame._side_value(case, x1, quarter_turns)
    assert total.hex() == SWEEP_FROZEN[x1, quarter_turns]


class TestKernel:
    def test_y3_coefficients_run_once_per_y2_callback(self, monkeypatch):
        calls = Counter()

        def counted(tag, value):
            def bound(env):
                calls[tag] += 1
                return value

            return bound

        y3_lo = AffineBound(counted("lo.const", 0.0), counted("lo.slope", 0.0))
        y3_hi = AffineBound(counted("hi.const", 0.0), counted("hi.slope", 1.0))
        # a kink in the y2 bound makes the x2 level split, so the y2 level
        # runs more than one round
        rows = [(var, const(0.0), const(1.0)) for var in VAR_ORDER[:5]]
        rows[3] = ("y2", const(0.0), lambda env: np.abs(env["x2"] - 0.4) + 0.1)
        region = RegionSpec(name="count", vars=(*rows, ("y3", y3_lo, y3_hi)),
                            sign=1, integrand=Integrand.SIGNED_AREA)
        tags = ("lo.const", "lo.slope", "hi.const", "hi.slope")

        env = {var: np.linspace(0.1, 0.9, 11) for var in VAR_ORDER[:4]}
        quadrature._analytic_kernel(region, env)
        assert calls == Counter({tag: 1 for tag in tags})

        # the engine runs the kernel once per y2 callback, on the whole batch
        calls.clear()
        kernel_calls = 0
        kernel = quadrature._analytic_kernel

        def counted_kernel(region, env):
            nonlocal kernel_calls
            kernel_calls += 1
            return kernel(region, env)

        monkeypatch.setattr(quadrature, "_analytic_kernel", counted_kernel)
        widths = record_rows(monkeypatch, quadrature)
        nested_quadrature(region, QuadConfig(rel_tol=1e-3, max_depth=1))
        y2_rounds = len(widths[3])
        assert y2_rounds > 1
        assert kernel_calls == y2_rounds
        assert calls == Counter({tag: y2_rounds for tag in tags})
