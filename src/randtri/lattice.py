"""Exact mean triangle area over boundary midpoint lattices.

Divide each side of the unit square into n equal parts and take the 4n
midpoints.  The mean of |area| over all (4n)**3 ordered vertex triples
(degenerate triples included, contributing zero) is an exact rational, a
finite stand-in for the frame distribution that approaches 5/32 as n
grows; at n = 10 it equals 249/1600, within 1/1600 of the limit.

Scaling coordinates by 2n makes them integers, so the lattice is built
directly as int64 coordinates from frame's perimeter table (corner k and
the step to corner k + 1), and twice the scaled area is an integer cross
product.  The triples are not enumerated one by one, and no absolute value
is taken.  The square is convex and the lattice walks its boundary
counterclockwise, so three lattice points taken in walk order turn left or
lie on one line: for i < j < k the cross product
C_ijk = (P_j - P_i) x (P_k - P_i) is >= 0.  The six orderings of a triple
share one |C|, so the total over all ordered triples is 6 * sum_{i<j<k}
C_ijk.  Writing C_ijk = P_i x P_j + P_j x P_k + P_k x P_i, a pair a < b
enters as P_a x P_b for the N - 1 - b choices of k > b and the a choices of
i < a, and as P_b x P_a for the b - a - 1 choices between them, so with
N = 4n points

    sum_{i<j<k} C_ijk = sum_{a<b} (N - 2(b - a)) P_a x P_b
                      = sum_b W_b x P_b,   W_b = sum_{a<b} (N - 2b + 2a) P_a,

where W_b comes from two running sums: 4n int64 terms in all, then one
exact division.

The result is 5/32 - 1/(16 n**2) for every n.  Split the same total by the
sides the vertices lie on.  Fix the first vertex on the bottom side at
scaled x = a (a quarter turn carries every other first vertex there); the
second and third vertices sit at indices j and m along their sides, with
scaled heights y.  Per first vertex, the (second side, third side) totals
of |C| are:

- same side s: 2|m - j| * d_s, summed 2 d_s (n**3 - n)/3, where d_s is the
  scaled distance to the side's line, 0, 2n - a, 2n and a for the bottom,
  right, top and left sides, so the four add up to 8n (n**3 - n)/3;
- bottom with side s, in either order: |x2 - a| * y3, which factorises as
  D(a) * Y_s with D(a) = sum over the bottom of |x2 - a| and Y_s = n**2,
  2n**2 and n**2 for the right, top and left sides: 8n**2 D(a) in all;
- (right, left) and its reverse: 2n**4 each;
- (right, top) and its reverse: 3n**4 - n**3 a each, and (top, left) and
  its reverse: n**4 + n**3 a each.  The mirror x -> 2n - x maps (top,
  left) onto (right, top), and both total 2n**5 over the bottom side.

Walk order fixes the sign within every block of two different sides, so
these are sums of coordinates.  Over the n first vertices, with
sum_a D(a) = 2(n**3 - n)/3, the total is 20n**5 - 8n**3, and the mean is
4 (20n**5 - 8n**3) / ((4n)**3 * 2 * (2n)**2) = 5/32 - 1/(16 n**2).  The
Tier-1 tests check each block against brute force for n <= 12, the
enumeration against all (4n)**3 triples for n <= 40, and the law for every
n <= 1000, at n = 2500 and at the largest n, 13,777; the report's
lattice-exactness criterion checks it at n = 1000.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .frame import _CORNERS, _STEPS
from .geometry import _check_integer

__all__ = [
    "enumerate_mean_area",
    "midpoint_lattice",
]

# the largest n with 256n**4 <= 2**63 - 1, which keeps every int64 term in range
_MAX_N = math.isqrt(math.isqrt((2**63 - 1) // 256))


def midpoint_lattice(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The 4n side midpoints scaled by 2n, as int64 arrays (xs, ys).

    Sides come in perimeter order (bottom, right, top, left), each walked
    from its first corner: midpoint j of side k is 2n * corner k +
    (2j - 1) * step k, for j = 1..n.  Every coordinate is 0 or 2n across
    the side and odd along it.  Raises ValueError unless n is an integer
    >= 1 (bools are rejected).
    """
    n = _check_integer(n, "n", 1)
    odd = np.arange(1, 2 * n, 2, dtype=np.int64)[:, None]
    anchor, step = _CORNERS.astype(np.int64), _STEPS.astype(np.int64)
    points = 2 * n * anchor[:, None, :] + odd * step[:, None, :]  # (side, j, xy)
    return points[..., 0].ravel(), points[..., 1].ravel()


def enumerate_mean_area(n: int) -> Fraction:
    """Exact mean of |area| over all ordered vertex triples of the lattice.

    Sums W_b x P_b over the 4n points in walk order (see the module
    docstring), six times that being the total |cross product| of all
    (4n)**3 ordered triples.  The result is 5/32 - 1/(16 n**2), as the
    module docstring shows.

    The terms are int64, and that alone limits n.  The coordinates are at
    most 2n, so the running sums over a <= b of P_a and of a * P_a stay
    below 8n**2 and 16n**3 per coordinate, each coordinate of W_b below
    4n * 8n**2 + 2 * 16n**3 = 64n**3, and each term below 256n**4.  That
    is at most 2**63 - 1 exactly when n <= 13,777 (``_MAX_N``).  The terms
    are added as Python ints, as the bound does not keep their sum inside
    int64 (4n * 256n**4 = 5.1e23 at n = 13,777).

    Raises ValueError, before building anything, unless n is an integer
    in 1..13,777 (bools are rejected).
    """
    n = _check_integer(n, "n", 1, _MAX_N)
    points = np.stack(midpoint_lattice(n), axis=1)  # (4n, xy), walk order
    b = np.arange(4 * n, dtype=np.int64)[:, None]
    # the running sums take in a = b too, harmless as P_b x P_b = 0
    w = (4 * n - 2 * b) * np.cumsum(points, axis=0) + 2 * np.cumsum(b * points, axis=0)
    terms = w[:, 0] * points[:, 1] - w[:, 1] * points[:, 0]
    total = 6 * sum(terms.tolist())
    # scaled cross product = area * 2 * (2n)^2
    return Fraction(total, (4 * n) ** 3 * 2 * (2 * n) ** 2)
