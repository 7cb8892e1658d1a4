"""Exact mean triangle area over boundary midpoint lattices.

Divide each side of the unit square into n equal parts and take the 4n
midpoints.  The mean of |area| over all (4n)**3 ordered vertex triples
(degenerate triples included, contributing zero) is an exact rational, a
finite stand-in for the frame distribution that approaches 5/32 as n
grows; at n = 10 it equals 249/1600, within 1/1600 of the limit.

Scaling coordinates by 2n makes them integers, so the lattice is built
directly as int64 coordinates from frame's perimeter table (corner k and
the step to corner k + 1), and twice the scaled area is an integer cross
product.  The triples are not enumerated one by one.  With the first two
vertices fixed, the cross product is affine along each side, A + B*m for
the third vertex's index m = 1..n, so its absolute values sum in closed
form (the discrete twin of frame's affine |area| integral):

    sum_{m=1..n} |A + B*m| = S(n) - 2*S(k),   S(k) = A*k + B*k*(k+1)/2,

where, with B > 0 (negate both otherwise), the first
k = clip(floor((-A-1)/B), 0, n) terms are the negative ones: the split at
floor(-A/B).  With B = 0 every term is A, so k must be n when A < 0 and
0 otherwise; the clip with B taken as 1 gives that, as the first vertex
is on the bottom side at odd x: B = 0 only for a second vertex on that
side or straight above it, where A is 0 or at least 2n in size.  A
quarter turn and the mirror x -> 2n - x map the lattice onto itself, so
the first vertex sweeps half the bottom side: 16n * ceil(n/2), about
8n**2, sums in all (ceil(n/2) first vertices x 4n second vertices x 4
sides), computed in int64 blocks and added up as Python ints, then one
exact division.

The result equals 5/32 - 1/(16 n**2).  That law is verified exactly, by
the Tier-1 tests for every n <= 200 and at n = 2500 and by the report's
lattice-exactness criterion at n = 1000; it is not proven here.  (A
candidate argument is the midpoint rule applied to the piecewise-quadratic
per-side means, whose only error term is h**2 times a difference of
derivatives; it needs every kink of |area| to fall where the rule stays
exact, which is not shown.)
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .frame import _CORNERS, _STEPS

__all__ = [
    "WorkLimitExceededError",
    "enumerate_mean_area",
    "midpoint_lattice",
]

DEFAULT_WORK_LIMIT = 10**8
# int64 elements per block of closed-form sums, at least the 16n of one first
# vertex; 128 KiB temporaries stay in L2 (2**16 ran 1.5x slower at n <= 1000)
_BLOCK = 2**14


class WorkLimitExceededError(RuntimeError):
    """The requested enumeration is larger than the configured work limit."""


def midpoint_lattice(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The 4n side midpoints scaled by 2n, as int64 arrays (xs, ys).

    Sides come in perimeter order (bottom, right, top, left), each walked
    from its first corner: midpoint j of side k is 2n * corner k +
    (2j - 1) * step k, for j = 1..n.  Every coordinate is 0 or 2n across
    the side and odd along it.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    odd = np.arange(1, 2 * n, 2, dtype=np.int64)[:, None]
    anchor, step = _CORNERS.astype(np.int64), _STEPS.astype(np.int64)
    points = 2 * n * anchor[:, None, :] + odd * step[:, None, :]  # (side, j, xy)
    return points[..., 0].ravel(), points[..., 1].ravel()


def enumerate_mean_area(n: int) -> Fraction:
    """Exact mean of |area| over all ordered vertex triples of the lattice.

    The first vertex sweeps the first half of the bottom side only, each
    vertex weighted by 4 for the quarter turns and by 2 for the mirror
    (see the module docstring); the middle vertex of odd n is its own
    image and counts once.  For each first vertex i, second vertex j and
    side s of the third vertex, the n cross products A + B*m sum in closed
    form, split at floor(-A/B): 16n * ceil(n/2) sums in all.

    Each sum is at most n * 4n**2 (a cross product is at most (2n)**2),
    and a block holds at most max(2**14, 16n) of them, so a block's int64
    total, with every vertex weighted by at most 2, stays below
    2 * max(2**14, 16n) * 4n**3: 5.0e15 at n = 2500, against the int64
    limit of 9.2e18.  The blocks are added as Python ints.  The result is
    5/32 - 1/(16 n**2), not proven: the Tier-1 tests verify it for n <= 200
    and at 2500, the report's lattice-exactness criterion at 1000.

    Raises WorkLimitExceededError, before building anything, when the
    16n**2 closed-form sums of the full sweep, the one the mirror halves,
    exceed DEFAULT_WORK_LIMIT (so n <= 2500), and ValueError when n < 1.
    """
    sums = 16 * n * n
    if n >= 1 and sums > DEFAULT_WORK_LIMIT:  # n < 1 is midpoint_lattice's ValueError
        raise WorkLimitExceededError(
            f"16*{n}**2 = {sums:,} closed-form sums exceeds the limit "
            f"{DEFAULT_WORK_LIMIT:,}"
        )
    xs, ys = midpoint_lattice(n)
    # the third vertex on side s at m = 1..n is anchor s + 2m * step s,
    # its anchor one midpoint spacing before the side's first midpoint;
    # both are (side, 1, 1) columns, so the side axis comes first and
    # numpy's inner loops run along the 4n second vertices, not 4 sides
    step_x, step_y = _STEPS.astype(np.int64).T[:, :, None, None]
    anchor_x = xs[::n, None, None] - 2 * step_x
    anchor_y = ys[::n, None, None] - 2 * step_y

    half = (n + 1) // 2  # the mirror x -> 2n - x takes vertex i to n - 1 - i
    rows = max(1, _BLOCK // (16 * n))
    total = 0
    for lo in range(0, half, rows):
        # the bottom side comes first in lattice order
        hi = min(lo + rows, half)
        x1 = xs[lo:hi, None]
        y1 = ys[lo:hi, None]
        u = xs - x1  # (first, second)
        v = ys - y1
        a = u * (anchor_y - y1) - v * (anchor_x - x1)  # (side, first, second)
        b = 2 * (u * step_y - v * step_x)
        np.negative(a, out=a, where=b < 0)
        b = np.abs(b)
        k = np.clip((-a - 1) // np.maximum(b, 1), 0, n)
        # sum_m |a + b*m| = S(n) - 2 S(k), S(k) = a*k + b*k(k+1)/2
        partial = (n - 2 * k) * a + b * ((n * (n + 1)) // 2 - k * (k + 1))
        # the middle vertex of odd n, at x = n, is its own mirror image
        weight = np.where(x1[:, 0] == n, 1, 2)
        total += int(weight @ partial.sum(axis=(0, 2)))
    # four sides for the first vertex; scaled cross product = area * 2 * (2n)^2
    return Fraction(4 * total, (4 * n) ** 3 * 2 * (2 * n) ** 2)
