"""Planar and spatial primitives: signed areas and tetrahedron volume.

Everything here is a pure function of its arguments.  Floating-point
variants work in plain binary64; the exact variant accepts ``Fraction``
coordinates and never rounds, which makes it the reference the tests
hold the floating-point formula to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Union

Coord = Union[int, float, Fraction]

__all__ = [
    "Coord",
    "CubeDomain",
    "Point2",
    "RectDomain",
    "signed_area",
    "signed_area_exact",
    "signed_area_xy",
    "signed_volume_xyz",
]


def _check_finite(value: Coord, name: str) -> None:
    if isinstance(value, Rational):
        return  # rationals are always finite
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True, slots=True)
class Point2:
    """Planar point.  Coordinates may be floats or exact rationals."""

    x: Coord
    y: Coord

    def __post_init__(self) -> None:
        _check_finite(self.x, "x")
        _check_finite(self.y, "y")


@dataclass(frozen=True, slots=True)
class RectDomain:
    """Axis-aligned rectangle [0, a] x [0, b]; the square is a == b."""

    a: float
    b: float

    def __post_init__(self) -> None:
        _check_finite(self.a, "a")
        _check_finite(self.b, "b")
        if self.a <= 0 or self.b <= 0:
            raise ValueError(f"rectangle sides must be positive, got a={self.a}, b={self.b}")


@dataclass(frozen=True, slots=True)
class CubeDomain:
    """Axis-aligned cube [0, side]^3."""

    side: float

    def __post_init__(self) -> None:
        _check_finite(self.side, "side")
        if self.side <= 0:
            raise ValueError(f"cube side must be positive, got {self.side}")


def signed_area(p1: Point2, p2: Point2, p3: Point2) -> float:
    """Signed area (x1(y2-y3) + x2(y3-y1) + x3(y1-y2)) / 2.

    Positive exactly when (p1, p2, p3) run counter-clockwise.  Swapping p1
    and p2 negates the result to the last bit: it negates each product term
    exactly and only exchanges the first two terms, and floating-point
    addition is commutative.  Other vertex orders change which terms are
    added first, so they agree with the matching sign only to within
    rounding.  Scaling every coordinate by a power of two scales the result
    by its square exactly, provided no intermediate falls below 2**-1022.
    """
    return 0.5 * (
        p1.x * (p2.y - p3.y) + p2.x * (p3.y - p1.y) + p3.x * (p1.y - p2.y)
    )


def signed_area_xy(x1, y1, x2, y2, x3, y3):
    """signed_area on raw coordinates; broadcasts over numpy arrays.

    Same formula and rounding behavior as signed_area, without Point2
    wrapping, for the vectorized integration and sampling kernels.
    """
    return 0.5 * (x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2))


def signed_volume_xyz(x1, y1, z1, x2, y2, z2, x3, y3, z3, x4, y4, z4):
    """Signed tetrahedron volume det[p2-p1, p3-p1, p4-p1] / 6 on raw coordinates.

    Broadcasts over numpy arrays, like signed_area_xy.
    """
    ax, ay, az = x2 - x1, y2 - y1, z2 - z1
    bx, by, bz = x3 - x1, y3 - y1, z3 - z1
    cx, cy, cz = x4 - x1, y4 - y1, z4 - z1
    det = ax * (by * cz - bz * cy) - ay * (bx * cz - bz * cx) + az * (bx * cy - by * cx)
    return det / 6.0


def signed_area_exact(p1: Point2, p2: Point2, p3: Point2) -> Fraction:
    """Signed area over exact rational coordinates; no rounding anywhere."""
    raw = (
        Fraction(p1.x) * (Fraction(p2.y) - Fraction(p3.y))
        + Fraction(p2.x) * (Fraction(p3.y) - Fraction(p1.y))
        + Fraction(p3.x) * (Fraction(p1.y) - Fraction(p2.y))
    )
    return raw / 2
