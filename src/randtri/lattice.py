"""Exact mean triangle area over boundary midpoint lattices.

Divide each side of the unit square into n equal parts and take the 4n
midpoints.  The mean of |area| over all (4n)**3 ordered vertex triples
(degenerate triples included, contributing zero) is an exact rational, a
finite stand-in for the frame distribution that approaches 5/32 as n
grows; at n = 10 it equals 249/1600, within 1/1600 of the limit.

Scaling coordinates by 2n makes them integers, so the lattice is built
directly as int64 coordinates from frame's perimeter table (corner k and
the step to corner k + 1), and twice the scaled area is an integer cross
product.  The enumeration accumulates those in int64 (the per-vertex
partial sums stay far below overflow at every permitted n) and performs a
single exact division at the end.
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

    The first vertex sweeps the bottom side only and the sum is weighted
    by 4: a quarter turn maps the lattice onto itself and keeps every
    area, so the other three sides contribute the same as the bottom.
    Raises WorkLimitExceededError, before building anything, when the
    (4n)**3 ordered triples of the full enumeration exceed
    DEFAULT_WORK_LIMIT (so n <= 116), and ValueError when n < 1.
    """
    m = 4 * n
    if m**3 > DEFAULT_WORK_LIMIT:
        raise WorkLimitExceededError(
            f"(4*{n})**3 = {m**3:,} ordered triples exceeds the limit "
            f"{DEFAULT_WORK_LIMIT:,}"
        )
    xs, ys = midpoint_lattice(n)
    scale = 2 * n

    total = 0
    for i in range(n):  # the bottom side comes first in lattice order
        u = xs - xs[i]
        v = ys - ys[i]
        # twice the scaled area of (p_i, p_j, p_k) for all j, k at once
        cross = u[:, None] * v[None, :] - u[None, :] * v[:, None]
        total += int(np.abs(cross).sum())
    # four sides for the first vertex; scaled cross product = area * 2 * (2n)^2
    return Fraction(4 * total, m**3 * 2 * scale**2)
