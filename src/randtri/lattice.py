"""Exact mean triangle area over boundary midpoint lattices.

Divide each side of the unit square into n equal parts and take the 4n
midpoints.  The mean of |area| over all (4n)**3 ordered vertex triples
(degenerate triples included, contributing zero) is an exact rational, a
finite stand-in for the frame distribution that approaches 5/32 as n
grows; at n = 10 it equals 249/1600, within 1/1600 of the limit.

Scaling coordinates by 2n makes them integers, so twice the scaled area
is an integer cross product.  The enumeration accumulates those in int64
(the per-vertex partial sums stay far below overflow at every permitted
n) and performs a single exact division at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import Point2

__all__ = [
    "MidpointLattice",
    "WorkLimitExceededError",
    "enumerate_mean_area",
    "midpoint_lattice",
]

DEFAULT_WORK_LIMIT = 10**8


class WorkLimitExceededError(RuntimeError):
    """The requested enumeration is larger than the configured work limit."""


@dataclass(frozen=True, slots=True)
class MidpointLattice:
    """The 4n side midpoints, ordered bottom, right, top, left.

    Coordinates are exact rationals with denominator dividing 2n; every
    point lies on the boundary.
    """

    n: int
    points: tuple[Point2, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if len(self.points) != 4 * self.n:
            raise ValueError(
                f"expected {4 * self.n} points, got {len(self.points)}"
            )
        scale = 2 * self.n
        for p in self.points:
            x, y = Fraction(p.x), Fraction(p.y)
            if scale % x.denominator or scale % y.denominator:
                raise ValueError(f"{p} is not a midpoint of an n={self.n} subdivision")
            if not (x in (0, 1) or y in (0, 1)):
                raise ValueError(f"{p} is not on the boundary")


def midpoint_lattice(n: int) -> MidpointLattice:
    """Construct the lattice; each side is traversed in perimeter direction."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    mids = [Fraction(2 * k - 1, 2 * n) for k in range(1, n + 1)]
    zero, one = Fraction(0), Fraction(1)
    points = (
        [Point2(m, zero) for m in mids]
        + [Point2(one, m) for m in mids]
        + [Point2(one - m, one) for m in mids]
        + [Point2(zero, one - m) for m in mids]
    )
    return MidpointLattice(n=n, points=tuple(points))


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
    lattice = midpoint_lattice(n)
    scale = 2 * n
    xs = np.array([int(p.x * scale) for p in lattice.points], dtype=np.int64)
    ys = np.array([int(p.y * scale) for p in lattice.points], dtype=np.int64)

    total = 0
    for i in range(n):  # the bottom side comes first in lattice order
        u = xs - xs[i]
        v = ys - ys[i]
        # twice the scaled area of (p_i, p_j, p_k) for all j, k at once
        cross = u[:, None] * v[None, :] - u[None, :] * v[:, None]
        total += int(np.abs(cross).sum())
    # four sides for the first vertex; scaled cross product = area * 2 * (2n)^2
    return Fraction(4 * total, m**3 * 2 * scale**2)
