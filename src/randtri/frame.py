"""Mean triangle area with all three vertices on the unit square's boundary.

Vertices are uniform in arc length over the perimeter.  By symmetry the
first vertex can be pinned to the bottom side at (x1, 0); the second then
lives on one of four sides (the four cases), and the third traverses the
whole perimeter.  For fixed first and second vertices, the signed area is
affine in the third vertex's position along any one side, so it is fixed
by its values at the four corners, and the innermost path integral of
|area| along a side has a closed form in the areas at the side's two
corners: split the side at the sign change and integrate each piece
exactly.  That leaves two numeric levels (x1 and the second vertex's side
coordinate u).

For fixed x1 each corner area is affine in u as well, so the u integrand
has a kink only where a corner area changes sign, at a closed-form root.
Splitting the u-interval at those roots (at most four per side case, the
breakpoints of QUADPACK's QAGP) leaves pieces on which the integrand is a
polynomial of degree at most 2, and the x1 integrand is the quadratic sum
of SIDE_CASE_FORMS.  So both levels use one fixed 2-node Gauss-Legendre
rule, which is exact for degree 3, with no adaptive refinement: every
side value matches its closed form and the mean matches 5/32 up to
rounding, and a tolerance has nothing to control.  The degree claim is
measured, not proved; the tests check it piece by piece against a 3-node
rule.

The perimeter is one table, the four corners in perimeter order; sides,
``frame_xy``, the kernel's corner areas and the midpoint lattice of
``lattice`` all read it.

The normalizer is 16: the second vertex contributes measure 4 (four sides
of unit length) and the third vertex contributes the full perimeter length
4.  The first vertex's side has unit length, so dividing the x1 integral
of the per-case sums by 16 yields the mean, 5/32.
"""

from __future__ import annotations

import operator

import numpy as np

from .geometry import signed_area_xy
from .quadrature import _GAUSS2, QuadConfig
# unused here, but perfbench/tracer.py patches frame.adaptive_quad_batch (ROADMAP F2)
from .quadrature import adaptive_quad_batch  # noqa: F401

__all__ = [
    "SIDE_CASE_FORMS",
    "expected_area_frame",
    "frame_xy",
    "side_case_value",
]

# the unit square's corners in perimeter order, counter-clockwise from the
# origin; side k (0-based) runs from corner k to corner k + 1, so a point on
# it is corner k + u * step k, u in [0, 1]
_CORNERS = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
_STEPS = np.roll(_CORNERS, -1, axis=0) - _CORNERS
# the same tables per coordinate, for frame_xy's gathers
_ANCHOR_X, _ANCHOR_Y = _CORNERS.T
_STEP_X, _STEP_Y = _STEPS.T

# 2-node Gauss-Legendre rule on [0, 1] as (nodes, weights): exact for
# polynomials of degree at most 3
_GAUSS_LEGENDRE_2 = (0.5 + 0.5 * np.array([-_GAUSS2, _GAUSS2]), np.array([0.5, 0.5]))

# closed form of side_case_value(case, x1) for each side case
SIDE_CASE_FORMS = {
    1: lambda x: 0.5 - x + x * x,
    2: lambda x: (11 - 8 * x + 3 * x * x) / 12,
    3: lambda x: (11 - 6 * x + 6 * x * x) / 12,
    4: lambda x: (6 + 2 * x + 3 * x * x) / 12,
}


def frame_xy(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points at arc lengths t on the unit square's boundary, t in [0, 4).

    Starts at the origin and runs counter-clockwise: bottom, right, top,
    left; side k holds t in [k, k + 1).  Continuous on the closed loop
    (t -> 4 approaches the origin).  Returns the arrays (x, y).
    """
    t = np.asarray(t, dtype=float)
    # written so that NaN fails too: every comparison with NaN is False
    if t.size and not (t.min() >= 0.0 and t.max() < 4.0):
        raise ValueError("perimeter parameters must be in [0, 4)")
    k = np.floor(t).astype(np.int64)
    u = t - k
    return _ANCHOR_X[k] + _STEP_X[k] * u, _ANCHOR_Y[k] + _STEP_Y[k] * u


def _rotate(x, y, quarter_turns: int):
    """Rotate points a quarter turn at a time about the square's center."""
    for _ in range(quarter_turns % 4):
        x, y = 1.0 - y, x
    return x, y


def _abs_affine_integral(c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """Exact integral of |c0 + c1 v| over v in [0, 1], elementwise.

    Splits at the root when it falls inside the interval; the two pieces
    have opposite signs, so their absolute values add.
    """
    total = c0 + 0.5 * c1
    t = np.zeros_like(c0)
    np.divide(-c0, c1, out=t, where=(c1 != 0.0))
    t = np.clip(t, 0.0, 1.0)
    head = (c0 + 0.5 * c1 * t) * t
    return np.abs(head) + np.abs(total - head)


def _corner_areas(
    case: int, x1: np.ndarray, u: np.ndarray, quarter_turns: int = 0
) -> np.ndarray:
    """Signed areas with the third vertex at each of the four corners.

    First vertex (x1, 0), second on side ``case`` at coordinate u.  The
    area is affine along a side, so side k's path integral of |area| is
    fixed by the areas at corners k and k + 1.  ``quarter_turns`` rotates
    the whole configuration, which must not change any area.  Returns one
    array, the corner as its leading axis.
    """
    (ax, ay), (dx, dy) = _CORNERS[case - 1].tolist(), _STEPS[case - 1].tolist()
    p1x, p1y = _rotate(x1, 0.0, quarter_turns)
    p2x, p2y = _rotate(ax + dx * u, ay + dy * u, quarter_turns)
    lead = (4,) + (1,) * np.broadcast(p1x, p2x).ndim
    cx, cy = _rotate(_ANCHOR_X.reshape(lead), _ANCHOR_Y.reshape(lead), quarter_turns)
    return signed_area_xy(p1x, p1y, p2x, p2y, cx, cy)


def _check_case(case: int) -> int:
    try:
        index = operator.index(case)  # numpy integers pass, floats such as 2.0 do not
    except TypeError:
        index = None
    if index not in (1, 2, 3, 4):
        raise ValueError(f"side case must be 1..4, got {case}")
    return index


def _check_x1(x1: float) -> float:
    x1 = float(x1)
    if not 0.0 <= x1 <= 1.0:
        raise ValueError(f"x1 must be in [0, 1], got {x1}")
    return x1


def _corner_lines(
    case: int, x1: np.ndarray, quarter_turns: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Each corner area of ``_corner_areas`` as a0 + slope * u, per x1.

    For fixed x1 the area is affine in u, so one call at u = 0 and u = 1
    fixes it.  Returns (a0, slope), each a (corner, x1) array.
    """
    ends = np.array([[0.0], [1.0]])
    # (corner, end, x1) -> two (corner, x1) arrays
    a0, a1 = _corner_areas(case, x1, ends, quarter_turns).swapaxes(0, 1)
    return a0, a1 - a0


def _kinks(a0: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Where a0 + slope * u changes sign, elementwise; NaN where it does not.

    The root is the closed-form u = -a0 / slope.  Only roots strictly
    inside (0, 1) are kept.
    """
    # an area that is constant in u has no root
    root = np.divide(-a0, slope, out=np.full_like(a0, np.nan), where=slope != 0.0)
    return np.where((root > 0.0) & (root < 1.0), root, np.nan)


def _side_sweep(
    cases: tuple[int, ...], x1: np.ndarray, quarter_turns: int = 0
) -> np.ndarray:
    """Integrals over the second vertex's coordinate u in [0, 1], per piece.

    The integrand sums, over the second vertex's sides ``cases`` and the
    third vertex's four sides, the closed-form path integral of |area|,
    each from the signed areas at the side's two corners: one
    ``_abs_affine_integral`` call on every case's four sides (tail: each
    case's corner areas rolled by one), added case by case and side by
    side in order.  It has a kink wherever a corner area changes sign, so
    u in [0, 1] is split at every root of ``_kinks`` (QUADPACK QAGP's
    breakpoints).  Between kinks it is a polynomial of degree at most 2,
    so ``_GAUSS_LEGENDRE_2`` integrates each piece exactly.  A missing
    root gives an empty piece at u = 1, which integrates to 0.  Returns a
    (piece, x1) array, pieces in order of u.
    """
    nodes, weights = _GAUSS_LEGENDRE_2
    m = x1.size
    lines = np.array([_corner_lines(case, x1, quarter_turns) for case in cases])
    a0, slope = lines.swapaxes(0, 1)  # (case, corner, x1) each
    cuts = np.fmin(_kinks(a0, slope).reshape(-1, m), 1.0)  # NaN -> 1
    edges = np.sort(np.concatenate([np.zeros((1, m)), cuts, np.ones((1, m))]), axis=0)
    width = edges[1:] - edges[:-1]
    u = edges[:-1] + width * nodes[:, None, None]  # (node, piece, x1)
    head = a0[:, :, None, None] + slope[:, :, None, None] * u
    tail = head[:, [1, 2, 3, 0]]
    vals = _abs_affine_integral(head, tail - head).reshape((-1,) + u.shape).sum(axis=0)
    return width * (weights[:, None, None] * vals).sum(axis=0)


def side_case_value(case: int, x1: float, cfg: QuadConfig = QuadConfig()) -> float:
    """Double path integral of |area| for one hosting side of the second vertex.

    Integrates over the second vertex's coordinate on side ``case`` and the
    third vertex over the full perimeter, with the first vertex at (x1, 0).
    Always nonnegative; the closed forms are SIDE_CASE_FORMS.  ``cfg`` is
    accepted and ignored: the fixed rule is exact up to rounding at every
    tolerance.
    """
    case = _check_case(case)
    x1 = _check_x1(x1)
    return float(_side_sweep((case,), np.array([x1])).sum())


def expected_area_frame(cfg: QuadConfig = QuadConfig(), p1_side: int = 1) -> float:
    """Mean area of a triangle with vertices uniform on the boundary: 5/32.

    ``p1_side`` pins the first vertex to another side instead of the
    bottom; the answer must not depend on it (checked by rotating every
    configuration, which preserves areas exactly up to rounding).  ``cfg``
    is accepted and ignored: the x1 integrand is the quadratic sum of
    SIDE_CASE_FORMS, which the 2-node rule integrates exactly, so the mean
    is 5/32 up to rounding at every tolerance.
    """
    p1_side = _check_case(p1_side)
    nodes, weights = _GAUSS_LEGENDRE_2
    sums = _side_sweep((1, 2, 3, 4), nodes, quarter_turns=p1_side - 1).sum(axis=0)
    # second vertex: 4 unit sides; third vertex: perimeter length 4
    return float((weights * sums).sum()) / 16.0
