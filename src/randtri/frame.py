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
Each side case is swept on its own: its four corner lines (a0, slope),
their distinct roots inside (0, 1) (QUADPACK QAGP's breakpoints; for x1
inside (0, 1) only case 1 has one, where both far corners change sign at
u = x1), and one piece between each neighbouring pair of 0, the roots in
order, and 1.  On a piece the integrand is a
polynomial of degree at most 2, and the x1 integrand, the sum of the four
side values, is the quadratic sum of SIDE_CASE_FORMS.  So both levels use
one fixed 2-node Gauss-Legendre rule, which is exact for degree 3, with
no adaptive refinement: every side value matches its closed form and the
mean matches 5/32 up to rounding, and a tolerance has nothing to control.
The degree claim is measured, not proved; the tests check it piece by
piece against a 3-node rule.

The sweep runs on Python floats, one side case at one x1 at a time: it
handles 4 corners at 2 nodes on 1 or 2 pieces, too few values for numpy
calls to pay for their fixed cost.  Its sums run in plain ``+=`` order,
which the tests pin to the bit.

The perimeter is one table, the four corners in perimeter order; sides,
``frame_xy``, the kernel's corner areas and the midpoint lattice of
``lattice`` all read it.

The normalizer is 16: the second vertex contributes measure 4 (four sides
of unit length) and the third vertex contributes the full perimeter length
4.  The first vertex's side has unit length, so dividing the x1 integral
of the per-case sums by 16 yields the mean, 5/32.
"""

from __future__ import annotations

import numpy as np

from .geometry import _check_integer, _check_real, signed_area_xy
from .quadrature import _GAUSS2, QuadConfig, _ordered_sum
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
# the same tables per coordinate, for frame_xy's gathers, and as Python
# floats, for the side sweep
_ANCHOR_X, _ANCHOR_Y = _CORNERS.T
_STEP_X, _STEP_Y = _STEPS.T
_CORNER_FLOATS, _STEP_FLOATS = _CORNERS.tolist(), _STEPS.tolist()

# 2-node Gauss-Legendre rule on [0, 1] as (nodes, weights): exact for
# polynomials of degree at most 3
_GAUSS_LEGENDRE_2 = ((0.5 - 0.5 * _GAUSS2, 0.5 + 0.5 * _GAUSS2), (0.5, 0.5))

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


def _abs_affine_integral(c0: float, c1: float) -> float:
    """Exact integral of |c0 + c1 v| over v in [0, 1].

    Splits at the root when it falls inside the interval; the two pieces
    have opposite signs, so their absolute values add.
    """
    total = c0 + 0.5 * c1
    t = -c0 / c1 if c1 else 0.0
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
    head = (c0 + 0.5 * c1 * t) * t
    return abs(head) + abs(total - head)


def _corner_areas(case: int, x1, u, side: int = 0) -> list:
    """Signed areas with the third vertex at each of the four corners.

    First vertex on side ``side`` (0-based, the bottom by default) at
    coordinate x1, second on the side ``case - 1`` sides further along at
    coordinate u: the perimeter table read from corner ``side`` on.  Each
    such configuration is the bottom one turned about the square's center,
    so its areas must match.  The area is affine along a side, so side k's
    path integral of |area| is fixed by the areas at corners k and k + 1.
    Returns one area per corner, in perimeter order from corner ``side``;
    x1 and u may be floats or arrays.
    """
    corners = _CORNER_FLOATS[side:] + _CORNER_FLOATS[:side]
    steps = _STEP_FLOATS[side:] + _STEP_FLOATS[:side]
    (ox, oy), (ex, ey) = corners[0], steps[0]
    (ax, ay), (dx, dy) = corners[case - 1], steps[case - 1]
    p1x, p1y, p2x, p2y = ox + ex * x1, oy + ey * x1, ax + dx * u, ay + dy * u
    return [signed_area_xy(p1x, p1y, p2x, p2y, cx, cy) for cx, cy in corners]


def _area_lines(case: int, x1: float, side: int = 0) -> list:
    """Each corner area of ``_corner_areas`` as (a0, slope): a0 + slope * u.

    For fixed x1 the area is affine in u, so its values at u = 0 and
    u = 1 fix it.
    """
    ends = zip(_corner_areas(case, x1, 0.0, side), _corner_areas(case, x1, 1.0, side))
    return [(a0, a1 - a0) for a0, a1 in ends]


def _kink(a0: float, slope: float) -> float | None:
    """Where a0 + slope * u changes sign, u = -a0 / slope, if inside (0, 1).

    None for a root on or outside the interval's ends, and for an area
    that is constant in u.
    """
    if slope:
        root = -a0 / slope
        if 0.0 < root < 1.0:
            return root
    return None


def _side_sweep(case: int, x1: float, side: int = 0) -> list[float]:
    """Integrals over the second vertex's coordinate u in [0, 1], per piece.

    The integrand sums, over the third vertex's four sides, the
    closed-form path integral of |area|, each from the signed areas at
    the side's two corners.  It has a kink wherever a corner area changes
    sign, so u in [0, 1] is split at the distinct roots of ``_kink``
    (QUADPACK QAGP's breakpoints): 1 + (number of kinks) pieces.  Between
    kinks it is a polynomial of degree at most 2, so ``_GAUSS_LEGENDRE_2``
    integrates each piece exactly.  Sums run in plain ``+=`` order, corner
    by corner and node by node, never through ``sum()`` (see
    ``quadrature._ordered_sum``).  Returns the piece integrals in order
    of u.
    """
    nodes, weights = _GAUSS_LEGENDRE_2
    lines = _area_lines(case, x1, side)
    kinks = {_kink(a0, slope) for a0, slope in lines} - {None}
    edges = [0.0, *sorted(kinks), 1.0]
    pieces = []
    for lo, hi in zip(edges, edges[1:]):
        width = hi - lo
        piece = 0.0
        for node, weight in zip(nodes, weights):
            u = lo + width * node
            heads = [a0 + slope * u for a0, slope in lines]
            value = 0.0
            for head, tail in zip(heads, heads[1:] + heads[:1]):
                value += _abs_affine_integral(head, tail - head)
            piece += weight * value
        pieces.append(width * piece)
    return pieces


def _side_value(case: int, x1: float, side: int = 0) -> float:
    """One side case's double path integral: its sweep's pieces, summed in order."""
    return _ordered_sum(_side_sweep(case, x1, side))


def side_case_value(case: int, x1: float, cfg: QuadConfig = QuadConfig()) -> float:
    """Double path integral of |area| for one hosting side of the second vertex.

    Integrates over the second vertex's coordinate on side ``case`` and the
    third vertex over the full perimeter, with the first vertex at (x1, 0):
    one ``_side_sweep`` on Python floats, its pieces summed.  Always
    nonnegative; the closed forms are SIDE_CASE_FORMS.  ``case`` must be an
    integer 1..4 and ``x1`` a real number in [0, 1] (bools are rejected);
    numpy scalars pass.  ``cfg`` is accepted and ignored: the fixed rule
    is exact up to rounding at every tolerance.
    """
    x1 = _check_real(x1, "x1")
    if not 0.0 <= x1 <= 1.0:
        raise ValueError(f"x1 must be in [0, 1], got {x1}")
    return _side_value(_check_integer(case, "case", 1, 4), x1)


def expected_area_frame(cfg: QuadConfig = QuadConfig(), p1_side: int = 1) -> float:
    """Mean area of a triangle with vertices uniform on the boundary: 5/32.

    The 2-node rule over x1 of the four side cases' summed values.
    ``p1_side`` pins the first vertex to another side instead of the
    bottom; the answer must not depend on it (checked by reading the
    perimeter table from that side on, which turns every configuration
    about the square's center and keeps its areas up to rounding).  ``cfg``
    is accepted and ignored: the x1 integrand is the quadratic sum of
    SIDE_CASE_FORMS, which the 2-node rule integrates exactly, so the mean
    is 5/32 up to rounding at every tolerance.
    """
    side = _check_integer(p1_side, "p1_side", 1, 4) - 1
    total = 0.0
    for x1, weight in zip(*_GAUSS_LEGENDRE_2):
        total += weight * _ordered_sum(_side_value(c, x1, side) for c in (1, 2, 3, 4))
    # second vertex: 4 unit sides; third vertex: perimeter length 4
    return total / 16.0
