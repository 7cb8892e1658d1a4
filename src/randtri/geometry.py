"""Planar and spatial primitives: signed areas and tetrahedron volume.

The area and the volume are pure functions of raw coordinates in plain
binary64 and broadcast over numpy arrays; the tests hold the planar
formula to an exact rational cross product.

The input checks that every route shares live here too, one rule per kind
of number.  ``_check_real`` turns a finite real number into a float and
``_check_integer`` turns an integer in range into an int; numpy scalars
pass both, bools pass neither, and a bad value raises ValueError naming
the parameter.  Each caller keeps its own range.  ``_rounds_to_normal``
is the one binary64 range test the range rules of ``regions`` and
``montecarlo`` share.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

__all__ = [
    "CubeDomain",
    "RectDomain",
    "signed_area_xy",
    "signed_volume_xyz",
]


def _check_real(value: float, name: str) -> float:
    """``float(value)`` for a finite real number.

    Every route checks its real-number inputs here.  numpy scalars and
    Fractions pass; bools and anything that is not a ``numbers.Real``
    (strings, None, complex numbers, arrays) raise ValueError, as do NaN,
    the infinities, and an int or Fraction beyond the float range.
    """
    # a plain float skips the numbers.Real test, which costs about 0.3 us
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int or Fraction beyond the float range
            value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _rounds_to_normal(value) -> bool:
    """Whether an int, Fraction or float rounds to a normal finite binary64 float.

    Zero, subnormals, the infinities and NaN do not, nor does an int or
    Fraction beyond the float range, whose ``float`` raises OverflowError.
    """
    try:
        value = abs(float(value))
    except OverflowError:
        return False
    return sys.float_info.min <= value <= sys.float_info.max


def _check_integer(value: int, name: str, lo: int, hi: int | None = None) -> int:
    """``int(value)`` for an integer in lo..hi (no upper end when hi is None).

    Every route checks its integer inputs here.  Numpy integers pass; bools
    and non-integral values, floats such as 3.0 included, raise ValueError,
    as does a value outside the range.  Its message names the parameter and
    the range, and gives an int too long for ``str`` by its bit length.
    """
    # a plain int skips the numbers.Integral test, which costs about 0.4 us
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < lo or (hi is not None and value > hi):
        def text(v: int) -> str:
            try:
                return str(v)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                return f"{'a negative' if v < 0 else 'an'} int of {v.bit_length()} bits"

        bounds = f"{name} >= {text(lo)}" if hi is None else f"{text(lo)} <= {name} <= {text(hi)}"
        raise ValueError(f"need {bounds}, got {text(value)}")
    return value


@dataclass(frozen=True, slots=True)
class RectDomain:
    """Axis-aligned rectangle [0, a] x [0, b]; the square is a == b.

    The sides pass ``_check_real`` and are stored as the floats it returns.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        # frozen: store the checked floats through object.__setattr__
        object.__setattr__(self, "a", _check_real(self.a, "a"))
        object.__setattr__(self, "b", _check_real(self.b, "b"))
        if self.a <= 0 or self.b <= 0:
            raise ValueError(f"rectangle sides must be positive, got a={self.a}, b={self.b}")


@dataclass(frozen=True, slots=True)
class CubeDomain:
    """Axis-aligned cube [0, side]^3; ``side`` is stored as a checked float."""

    side: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "side", _check_real(self.side, "side"))
        if self.side <= 0:
            raise ValueError(f"cube side must be positive, got {self.side}")


def signed_area_xy(x1, y1, x2, y2, x3, y3):
    """Signed area (x1(y2-y3) + x2(y3-y1) + x3(y1-y2)) / 2; broadcasts over arrays.

    Positive exactly when the vertices run counter-clockwise.  Swapping the
    first two vertices negates the result to the last bit: it negates each
    product term exactly and only exchanges the first two terms, and
    floating-point addition is commutative.  Other vertex orders change
    which terms are added first, so they agree with the matching sign only
    to within rounding.  Scaling every coordinate by a power of two scales
    the result by its square exactly, provided no intermediate falls below
    2**-1022.
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
