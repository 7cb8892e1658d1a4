"""Iterated adaptive quadrature for chained-bound multiple integrals.

The engine evaluates a 6-fold integral over a region as a chain of
one-dimensional adaptive Gauss-Kronrod integrations over x1, y1, x2 and
y2, outermost first, where each level's bounds may depend on every
variable bound further out; a closed-form kernel does the x3 and y3
integrals.  Three design points matter for speed and robustness:

* **A rule per level.**  x1 and y1 use G3/K7 panels (the 7-point Kronrod
  extension of 3-point Gauss, exact to degree 11; Laurie 1997), x2 and y2
  use G7/K15 (QUADPACK's QK15).  The x1 and y1 integrands are smooth on
  every catalog cell, so one K7 panel meets their share of the tolerance
  and no panel of theirs splits, while each node of theirs multiplies all
  of the work below: 7 * 7 outer nodes instead of 15 * 15 cut the kernel
  evaluations about 4.5-fold.  The graded x2 and log-scaled y2 levels do
  split, and K7 on either one multiplied the evaluations of the ten
  unit-square cells at rel_tol 1e-6 by 2.6 to 6.2.  The price is a looser
  estimate on the outer levels, whose |K7 - G3| measures the error of the
  3-point rule, not of K7.

* **Batching on panel rows.**  A level never integrates one integral at
  a time.  All integrals pending at a level (one per quadrature node of
  the enclosing level) advance in lockstep: every refinement round
  gathers the panels of every unconverged integral and makes one
  vectorized call downward, with one integral id per panel and the
  panel's Kronrod nodes as one row.  Adaptivity stays per-integral: a
  round evaluates only the halves of the panels it splits, so an integral
  that splits no panel is never evaluated again.

* **Open rules on normalized panels, a graded x2 level and a log-scaled
  y2 level.**  Each panel is mapped affinely onto [-1, 1] and the Kronrod
  nodes are strictly interior, so the integrand is never evaluated
  exactly on a region edge.  Every catalog cell has x2 in [x1, a], and the
  chord slope (y2-y1)/(x2-x1) blows up as x2 -> x1: after the y2 integral
  the x2 integrand behaves like h*log(h) with h = x2 - x1, and bisection
  toward that endpoint cost most of all kernel evaluations.  So the x2
  level integrates over s in [0, 1] with x2 = lo + (hi - lo)*s**3 and the
  Jacobian 3*(hi - lo)*s**2, which makes the integrand smooth at s = 0
  (a polynomial change of variable, as in Sidi 1993 or Davis and
  Rabinowitz 1984).  x2 = lo is still never evaluated, so the slope stays
  finite at every evaluation point.
  The chord's exit point (where it reaches y = b, or y = 0 for a falling
  chord) has a pole at y2 = y1.  In the steep-chord cells 1-3 the y2
  interval starts at the corner line, a distance proportional to x2 - x1
  above y1, and cells 8-10 end the same distance below it; at the small
  x2 - x1 that the graded level samples, the y2 integrand is nearly
  singular at that end, and bisection toward it cost most of the
  remaining evaluations.  So each y2 integral whose interval lies strictly
  on one side of y1 integrates over t in [0, 1] with
  |y2 - y1| = near*(far/near)**t, near and far being the distances from
  y1 to its ends, and the Jacobian |y2 - y1|*log(far/near) (a log change
  of variable, as in Johnston and Elliott 2005).  An integral with y2 = y1
  as an endpoint (cells 4-7) keeps y2 as its variable.  Both maps apply
  to every region, because ``RegionSpec`` fixes the variable order; one
  table, ``_LEVELS``, gives each level its rule and its map.

Per-integral tolerances are relative with a small absolute floor; the
total relative budget is split geometrically across levels, outermost
largest.  Summation order inside each integral is fixed (panels sorted by
position), so results do not depend on refinement history bookkeeping.

The engine returns a value and an error estimate per integral and no
verdict; the caller decides convergence by comparing the two (the
QUADPACK contract).  ``nested_quadrature`` makes that comparison once, on
the outermost integral, with the same acceptance test the engine applies
to each integral: ``est_error <= max(rel_tol * |value|, 1e-13)``;
``interior_catalog`` decides its sums and their quotient by that test
too.

The kernel is the closed form for fixed p1 and p2: the integrand (signed
area or 1) is affine in y3, and its integral between y3 bounds affine in
x3 is a polynomial of degree <= 2 in x3, which a 2-point Gauss rule in x3
integrates exactly.  ``RegionSpec`` checks that the y3 bounds are affine
when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable

import numpy as np

from .geometry import _check_integer, _check_real
from .regions import (
    Env,
    Integrand,
    RegionSpec,
    normalizer_regions,
    rectangle_regions,
)

__all__ = [
    "DegenerateRegionError",
    "QuadConfig",
    "RegionResult",
    "adaptive_quad_batch",
    "interior_catalog",
    "nested_quadrature",
]


def _gauss_kronrod(xk_half, wk_half, wg_half):
    """(nodes, Kronrod weights, Gauss weights) on [-1, 1], ascending.

    The half-tables run from the outermost node to the center 0, as in
    QUADPACK; the odd-indexed nodes are the embedded Gauss nodes, and the
    Gauss weights are zero on the Kronrod-only ones.
    """
    xk, wk = np.array(xk_half), np.array(wk_half)
    nodes = np.concatenate([-xk[:-1], xk[::-1]])
    weights_k = np.concatenate([wk[:-1], wk[::-1]])
    weights_g = np.zeros(nodes.size)
    weights_g[1::2] = np.concatenate([wg_half[:-1], wg_half[::-1]])
    return nodes, weights_k, weights_g


# 15-point Kronrod extension of 7-point Gauss (G7/K15), QUADPACK's QK15.
GK15 = _gauss_kronrod(
    [0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
     0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
     0.2077849550078985, 0.0],
    [0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
     0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
     0.2044329400752989, 0.2094821410847278],
    [0.1294849661688697, 0.2797053914892767,
     0.3818300505051189, 0.4179591836734694],
)

# 7-point Kronrod extension of 3-point Gauss (G3/K7; Laurie 1997): exact
# to degree 11, its Gauss part (nodes 0 and +-sqrt(3/5)) to degree 5.
GK7 = _gauss_kronrod(
    [0.960491268708020283, 0.774596669241483377, 0.434243749346802558, 0.0],
    [0.104656226026467265, 0.268488089868333441, 0.401397414775962223,
     0.450916538658474142],
    [5.0 / 9.0, 8.0 / 9.0],
)

# Absolute floor under the per-level relative tolerance and under the
# converged test.  Keeps zero-valued integrals from refining forever; far
# below every catalog magnitude of interest (the smallest is ~1e-7 at
# half-unit domains).
_ABS_FLOOR = 1e-13

_GAUSS2 = 0.5773502691896258  # 1/sqrt(3)

# Bisections per panel that nested_quadrature allows on each level, and
# adaptive_quad_batch's default.  It is a safeguard, not a setting:
# lowering it to 7 changes no bit of the catalog runs the tests check, and
# the domain rule of ``regions`` keeps out the extreme rectangles that once
# ran without end.  nested_quadrature reads it at call time, so a test can
# lower it.
_MAX_DEPTH = 12


class DegenerateRegionError(ValueError):
    """The outermost integration interval of a region is empty."""


@dataclass(frozen=True, slots=True)
class QuadConfig:
    """The tolerance of one nested quadrature run.

    rel_tol, a real number in (0, 1) that passes the shared check of
    ``geometry`` and is stored as a float, is the target relative error of
    the full multiple integral.
    """

    rel_tol: float = 1e-4

    def __post_init__(self) -> None:
        # frozen: store the checked float through object.__setattr__
        object.__setattr__(self, "rel_tol", _check_real(self.rel_tol, "rel_tol"))
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")


@dataclass(frozen=True, slots=True)
class RegionResult:
    """Outcome of one region integration."""

    name: str
    value: float
    est_error: float
    evaluations: int
    converged: bool


BatchIntegrand = Callable[
    [np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray | None]
]


def adaptive_quad_batch(
    f: BatchIntegrand,
    lo: np.ndarray,
    hi: np.ndarray,
    *,
    rel_tol: float,
    max_depth: int = _MAX_DEPTH,
    rule: tuple[np.ndarray, np.ndarray, np.ndarray] = GK15,
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptively integrate a batch of 1-D integrals with one integrand.

    ``rule`` is a Gauss-Kronrod pair on [-1, 1] as (nodes, Kronrod
    weights, Gauss weights), G7/K15 by default.  ``f(ids, x)`` is called
    with one row per panel: ``ids`` of shape (P,) names the integral each
    panel belongs to, and ``x`` of shape (P, N) holds that panel's N
    Kronrod nodes.  It must evaluate integral ``ids[i]`` at every point
    of row ``x[i]`` in one vectorized call and return
    ``(values, err_below)``: the integrand values, shaped like ``x``, and a
    nonnegative error bound of the same shape carried up from any nested
    integration inside the integrand, or None on every call for an
    integrand with no inner error (the engine then does no inner-error
    work at all).

    Empty intervals (hi <= lo) yield 0.  Returns per-integral arrays
    ``(value, err)`` where ``err`` is the Kronrod error estimate of this
    level plus the weighted propagated inner error.  An integral is
    refined until ``err`` (before the inner part) is within
    ``max(rel_tol * |value|, 1e-13)`` or its offending panels reach
    ``max_depth``; a depth-capped integral keeps its larger ``err``, so
    the caller sees the shortfall by comparing ``err`` with its tolerance.
    ``max_depth`` must be an integer >= 0; 0 evaluates each interval once.
    """
    max_depth = _check_integer(max_depth, "max_depth", 0)
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    m = lo.shape[0]
    live = hi > lo
    if not live.any():
        return np.zeros(m), np.zeros(m)
    nodes, weights_k, weights_g = rule

    def eval_panels(pids: np.ndarray, pa: np.ndarray, pb: np.ndarray):
        center = 0.5 * (pa + pb)
        half = 0.5 * (pb - pa)
        vals, below = f(pids, center[:, None] + half[:, None] * nodes)
        k = half * (vals @ weights_k)
        g = half * (vals @ weights_g)
        p_err = np.abs(k - g)
        if below is not None:
            below = half * (np.abs(below) @ weights_k)
        return k, p_err, below

    # every panel of every live integral stays in the round arrays, ``pid``
    # naming its integral; a round appends the halves of the panels it splits
    pid = np.flatnonzero(live)
    a, b = lo[pid], hi[pid]
    depth = np.zeros(pid.size, dtype=np.int64)
    val, err, below = eval_panels(pid, a, b)

    while True:
        totals = np.bincount(pid, weights=val, minlength=m)
        err_sums = np.bincount(pid, weights=err, minlength=m)
        tol = np.maximum(rel_tol * np.abs(totals), _ABS_FLOOR)
        needy = err_sums > tol

        # split every panel of a needy integral whose error exceeds an
        # equidistributed share; the worst panel always qualifies.  An
        # integral that splits no panel never changes again, converged or
        # capped at max_depth.  An empty integral has no panels, and the
        # floor of one panel only keeps its share finite
        panels = np.maximum(np.bincount(pid, minlength=m), 1)
        share = tol / (2.0 * panels)
        split = needy[pid] & (err > share[pid]) & (depth < max_depth)
        if not split.any():
            break

        # the unsplit panels keep their relative order, so every bincount
        # adds an integral's panels in one order, whatever else splits
        keep = ~split
        s_pid, s_a, s_b, s_d = pid[split], a[split], b[split], depth[split]
        mid = 0.5 * (s_a + s_b)
        n_pid = np.concatenate([s_pid, s_pid])
        n_a = np.concatenate([s_a, mid])
        n_b = np.concatenate([mid, s_b])
        n_val, n_err, n_below = eval_panels(n_pid, n_a, n_b)

        pid = np.concatenate([pid[keep], n_pid])
        a = np.concatenate([a[keep], n_a])
        b = np.concatenate([b[keep], n_b])
        depth = np.concatenate([depth[keep], s_d + 1, s_d + 1])
        val = np.concatenate([val[keep], n_val])
        err = np.concatenate([err[keep], n_err])
        if below is not None:
            below = np.concatenate([below[keep], n_below])

    # fixed summation order: panels sorted by (integral, position)
    if below is not None:
        err = err + below
    order = np.lexsort((a, pid))
    pid = pid[order]
    return (
        np.bincount(pid, weights=val[order], minlength=m),
        np.bincount(pid, weights=err[order], minlength=m),
    )


def _budget_shares(levels: int) -> np.ndarray:
    """Geometric split of the relative budget, outermost level largest."""
    shares = 0.5 ** np.arange(1, levels + 1)
    return shares / shares.sum()


def _identity(lo: np.ndarray, hi: np.ndarray, env: Env):
    """Integrate the level's own variable: x = t with the Jacobian 1.0."""
    return lo, hi, lambda ids, t: (t, 1.0)


def _graded(lo: np.ndarray, hi: np.ndarray, env: Env):
    """Grade each integral of a batch toward its lower end.

    Each integral runs over s in [0, 1] with x = lo + (hi - lo) * s**3.
    The Jacobian 3 * (hi - lo) * s**2 vanishes to second order at s = 0 and
    so flattens an endpoint singularity at x = lo, such as x * log(x), into
    a smooth integrand; x = lo itself is never evaluated.  An empty
    interval becomes [0, 0] and so stays empty.
    """
    width = hi - lo

    def to_x(ids: np.ndarray, s: np.ndarray):
        w = width[ids, None]
        return lo[ids, None] + w * (s * s * s), 3.0 * w * (s * s)

    return np.zeros(lo.size), (hi > lo).astype(float), to_x


def _log_scale(lo: np.ndarray, hi: np.ndarray, env: Env):
    """Put each integral of a batch on a log scale away from its pole y1.

    An integral whose interval [lo, hi] lies strictly on one side of its
    pole p runs over t in [0, 1] with |y - p| = near * (far / near)**t,
    where near and far are the distances from p to the interval's ends; the
    Jacobian is |y - p| * log(far / near).  An integrand that behaves like
    1 / (y - p) or log|y - p| is then smooth in t, however close the pole
    comes to the interval (a log change of variable, as in Johnston and
    Elliott 2005).  Every other integral (p an endpoint or inside, or the
    interval empty) keeps y = t with the Jacobian 1.0, so its values do not
    change by a bit.

    The pole p of each integral is ``env["y1"]``, where the chord slope
    (y2 - y1) / (x2 - x1) and so the chord's exit point blow up.  Returns
    the new bounds and ``to_y``, which gathers the per-integral constants
    as (P, 1) columns.
    """
    pole = env["y1"]
    above = lo > pole
    mapped = (above | (hi < pole)) & (hi > lo)
    start = np.where(above, lo, hi)  # the end nearer the pole
    near = np.where(mapped, np.abs(start - pole), 1.0)
    # log(far / near) as log1p(width / near), and y - start through expm1:
    # both keep their relative precision when the pole is far from a narrow
    # interval
    log_ratio = np.log1p(np.where(mapped, hi - lo, 0.0) / near)
    step = np.where(above, near, -near)

    def to_y(ids: np.ndarray, t: np.ndarray):
        scaled = mapped[ids]
        if not scaled.any():
            return t, 1.0
        rate = log_ratio[ids, None]
        grow = np.expm1(t * rate)
        y = start[ids, None] + step[ids, None] * grow
        jacobian = (near[ids, None] * rate) * (1.0 + grow)
        if not scaled.all():
            y = np.where(scaled[:, None], y, t)
            jacobian = np.where(scaled[:, None], jacobian, 1.0)
        return y, jacobian

    return np.where(mapped, 0.0, lo), np.where(mapped, 1.0, hi), to_y


# Each level's rule and change of variable (see the module docstring): K7
# where no panel splits, K15 where a map needs bisection.  A map takes the
# bounds of a batch of integrals and the env of the enclosing levels and
# returns ``(lo, hi, to_x)``: the bounds in its own variable t, and
# ``to_x(ids, t)``, which maps the nodes of panels of the integrals
# ``ids``, one row per panel, to ``(x, jacobian)``.
_LEVELS = {
    "x1": (GK7, _identity),
    "y1": (GK7, _identity),
    "x2": (GK15, _graded),
    "y2": (GK15, _log_scale),
}


def _analytic_kernel(region: RegionSpec, env: Env) -> np.ndarray:
    """Closed-form kernel for the x3 and y3 integrals at each (x1, y1, x2, y2).

    The integrand is affine in y3, so its y3 integral is a primitive
    evaluated at the two y3 bounds; those bounds are affine in x3, which
    makes the result a polynomial of degree <= 2 in x3 and a 2-point Gauss
    rule in x3 exact.  Each y3 bound's coefficients are evaluated once per
    call and combined at both x3 nodes, as ``AffineBound`` does at one.
    Interval clamping (empty => 0) only ever triggers within rounding
    error of a region edge.

    The env arrays only need to broadcast against ``env["y2"]``, whose
    shape the result takes: the engine passes x1, y1, x2 as (P, 1) columns
    and y2 as (P, 15), so every term that does not involve y2 is computed
    once per panel.
    """
    _, x3_lo, x3_hi = region.vars[4]
    _, y3_lo, y3_hi = region.vars[5]
    signed = region.integrand is Integrand.SIGNED_AREA
    e, f = x3_lo(env), x3_hi(env)
    half = 0.5 * (f - e)
    center = 0.5 * (f + e)
    lo_const, lo_slope = y3_lo.const(env), y3_lo.slope(env)
    hi_const, hi_slope = y3_hi.const(env), y3_hi.slope(env)
    if signed:
        x1, y1, x2, y2 = env["x1"], env["y1"], env["x2"], env["y2"]
        alpha0 = 0.5 * (x1 * y2 - x2 * y1)
        alpha1 = 0.5 * (y1 - y2)
        beta = 0.5 * (x2 - x1)
    acc = np.zeros(env["y2"].shape)
    for offset in (-_GAUSS2, _GAUSS2):
        x3 = center + half * offset
        c = lo_const + lo_slope * x3
        d = np.maximum(hi_const + hi_slope * x3, c)
        if signed:
            acc += (alpha0 + alpha1 * x3) * (d - c) + 0.5 * beta * (d * d - c * c)
        else:
            acc += d - c
    return np.where(half > 0.0, region.sign * half * acc, 0.0)


def nested_quadrature(region: RegionSpec, cfg: QuadConfig = QuadConfig()) -> RegionResult:
    """Evaluate one region of the catalog by iterated adaptive quadrature.

    The returned value includes the region's sign, so a sign-consistent
    region yields a nonnegative value.  Each level takes its rule and its
    change of variable from ``_LEVELS``; the docstrings of ``_graded`` and
    ``_log_scale`` give the maps.  A map's Jacobian scales the integrand
    values and the error carried up from the level below (the closed-form
    kernel carries none).  The smallest run makes one panel per level,
    7 * 7 * 15 * 15 = 11,025 kernel evaluations, and bisection stops at
    ``_MAX_DEPTH`` on each level.
    ``est_error`` is a (possibly loose) bound combining the outer Kronrod
    estimates with the error budgets propagated from inner levels.
    ``converged`` is exactly
    ``est_error <= max(cfg.rel_tol * |value|, 1e-13)``: the requested
    tolerance was met.  The absolute floor 1e-13 keeps zero-valued regions
    converged; wherever rel_tol * |value| < 1e-13 it is the floor, not
    rel_tol, that both stops refinement and passes the test.  Each cell's
    constant counts, not only the domain: I1 = (ab)**4 / 34560, so on the
    unit square the floor decides I1 and I8 at every rel_tol below about
    3.5e-9 (I1 at rel_tol 1e-12 reports converged with est_error 2.06e-14,
    7.1e-10 * |value|).

    Raises DegenerateRegionError when the outermost interval is empty.
    Intermediate empty intervals (bounds crossing through rounding at
    region corners) contribute zero, as they correspond to measure-zero
    slivers.
    """
    levels = region.vars[:4]
    budgets = cfg.rel_tol * _budget_shares(len(levels))
    evaluations = 0

    def recurse(k: int, env: Env) -> tuple[np.ndarray, np.ndarray]:
        name, lo_fn, hi_fn = levels[k]
        m = next(iter(env.values())).shape[0] if env else 1
        lo = np.broadcast_to(np.asarray(lo_fn(env), dtype=float), m)
        hi = np.broadcast_to(np.asarray(hi_fn(env), dtype=float), m)
        if k == 0 and hi[0] <= lo[0]:
            raise DegenerateRegionError(
                f"region {region.name!r}: outermost interval [{lo[0]}, {hi[0]}] is empty"
            )
        rule, change = _LEVELS[name]
        lo, hi, to_x = change(lo, hi, env)

        def f(ids: np.ndarray, t: np.ndarray):
            nonlocal evaluations
            x, jacobian = to_x(ids, t)
            if k + 1 < len(levels):
                # one child integral per node: repeat each panel's row
                child = {v: np.repeat(arr[ids], t.shape[1]) for v, arr in env.items()}
                child[name] = x.ravel()
                vals, below = recurse(k + 1, child)
                return vals.reshape(t.shape) * jacobian, below.reshape(t.shape) * jacobian
            # each panel's outer variables as a (P, 1) column; the closed
            # form is exact, so no inner error is carried up
            evaluations += t.size
            child = {v: arr[ids, None] for v, arr in env.items()}
            child[name] = x
            return _analytic_kernel(region, child) * jacobian, None

        return adaptive_quad_batch(
            f, lo, hi, rel_tol=budgets[k], max_depth=_MAX_DEPTH, rule=rule
        )

    values, errors = recurse(0, {})
    value = float(values[0])
    # the quadrature estimate can fall below the rounding noise of the
    # final panel summation; the reported bound must not
    est_error = max(float(errors[0]), 4.0 * float(np.spacing(abs(value))))
    return _result(region.name, value, est_error, evaluations, cfg.rel_tol)


def _result(
    name: str, value: float, est_error: float, evaluations: int, rel_tol: float
) -> RegionResult:
    """A result whose ``converged`` says that the requested tolerance was met."""
    return RegionResult(
        name=name,
        value=value,
        est_error=est_error,
        evaluations=evaluations,
        converged=est_error <= max(rel_tol * abs(value), _ABS_FLOOR),
    )


def _ordered_sum(values) -> float:
    """Floats added left to right from 0.0, as a ``+=`` loop adds them.

    ``sum()`` compensates float rounding from Python 3.12 on, so its bits
    depend on the Python version; float totals that the tests pin to the
    bit are added here instead.
    """
    return reduce(add, values, 0.0)


def interior_catalog(
    a: float, b: float, cfg: QuadConfig = QuadConfig()
) -> dict[str, RegionResult]:
    """The interior mean of an a x b rectangle and every term it is made of.

    Rows, in order: the ascending cells I1..I5 and J1..J5, their sums I15
    (exact 11*(a*b)**4/1728) and J15 (exact (a*b)**3/12), and the mean
    area RESULT = I15/J15 (exact 11*a*b/144).  A sum carries the summed
    ``est_error`` and evaluations of its five cells; RESULT carries the
    first-order error of the quotient and the evaluations of all ten.
    Every row's ``converged`` is the test ``nested_quadrature`` applies.
    """
    rows = {
        region.name: nested_quadrature(region, cfg)
        for region in rectangle_regions(a, b) + normalizer_regions(a, b)
    }
    for total in ("I15", "J15"):
        cells = [rows[f"{total[0]}{k}"] for k in range(1, 6)]
        rows[total] = _result(
            total,
            _ordered_sum(r.value for r in cells),
            _ordered_sum(r.est_error for r in cells),
            sum(r.evaluations for r in cells),
            cfg.rel_tol,
        )
    i15, j15 = rows["I15"], rows["J15"]
    mean = i15.value / j15.value
    est_error = (i15.est_error + mean * j15.est_error) / j15.value
    rows["RESULT"] = _result(
        "RESULT", mean, est_error, i15.evaluations + j15.evaluations, cfg.rel_tol
    )
    return rows
