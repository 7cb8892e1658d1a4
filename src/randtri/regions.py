"""Sign-constant integration regions for the mean triangle area.

Sort the three vertices so that x1 < x2 < x3.  The sign of the signed area
is then decided entirely by whether p3 lies above or below the chord
through p1 and p2, and the configuration space splits into finitely many
cells on which that sign is constant:

* the chord either ascends (y2 > y1) or descends (y2 < y1);
* an ascending chord leaves the rectangle through the top or the right
  side, depending on whether p2 sits above or below the line from p1 to
  the top-right corner (a descending chord: bottom or right side, by the
  line from p1 to the bottom-right corner);
* past the exit point the whole p3 column lies on one side of the chord;
  before it, the chord splits the column in two.

Five cells cover the ascending half.  Mirroring the rectangle top to
bottom swaps the halves, so the five-cell catalog already determines the
mean; ``region_catalog`` also constructs the five descending cells
explicitly, on any rectangle, so the mirror identities can be checked
rather than assumed.  The mean area is the signed sum of the area
integrals over the cells divided by the unit-integrand sum (the measure
of the ordered half, one sixth of the full configuration volume).

One domain rule, ``_checked_sides``, bounds every rectangle the cells are
built on, and so every quadrature run: ``region_catalog``,
``rectangle_regions`` and ``normalizer_regions`` all apply it, and a
domain that breaks it raises ValueError before any cell is built.

Bounds are callables of the already-bound outer variables, vectorized
over numpy arrays.  The innermost (y3) bounds must be AffineBound, affine
in x3 with explicit coefficient functions, which lets the quadrature
engine do the last two integrals in closed form.  The chord's slope, which
several bounds of a cell share, is computed once per environment and kept
in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational
from typing import Callable, Union

import numpy as np

from .geometry import RectDomain, _check_integer, _rounds_to_normal

__all__ = [
    "AffineBound",
    "BoundFn",
    "Integrand",
    "MIRROR",
    "RegionSpec",
    "UnknownNameError",
    "VAR_ORDER",
    "exact_reference",
    "normalizer_regions",
    "rectangle_regions",
    "region_catalog",
    "sample_in_region",
]

# bound variables by name; bounds may add derived entries (see _per_env)
Env = dict[str, np.ndarray]
BoundFn = Callable[[Env], Union[np.ndarray, float]]

VAR_ORDER = ("x1", "y1", "x2", "y2", "x3", "y3")

# the top-to-bottom mirror carries descending cell k onto ascending MIRROR[k]
MIRROR = {6: 4, 7: 5, 8: 1, 9: 2, 10: 3}


class Integrand(Enum):
    SIGNED_AREA = "signed_area"
    ONE = "one"


@dataclass(frozen=True, slots=True)
class AffineBound:
    """A bound of the form const(outer) + slope(outer) * x3.

    The coefficient functions may depend on x1, y1, x2, y2 only.  Calling
    the bound like a plain BoundFn reads x3 from the environment.
    """

    const: BoundFn
    slope: BoundFn

    def __call__(self, env: Env):
        return self.const(env) + self.slope(env) * env["x3"]


@dataclass(frozen=True, slots=True)
class RegionSpec:
    """One integration cell: six chained variable bounds, a sign, an integrand.

    ``vars`` holds (name, lower, upper) triples in nesting order, outermost
    first; names are fixed to x1, y1, x2, y2, x3, y3, and both y3 bounds
    are AffineBound.  On a well-formed cell, sign * signed_area >= 0 almost
    everywhere.
    """

    name: str
    vars: tuple[tuple[str, BoundFn, BoundFn], ...]
    sign: int
    integrand: Integrand

    def __post_init__(self) -> None:
        names = tuple(v[0] for v in self.vars)
        if names != VAR_ORDER:
            raise ValueError(f"region variables must be {VAR_ORDER}, got {names}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if not isinstance(self.integrand, Integrand):
            raise TypeError(f"integrand must be an Integrand, got {self.integrand!r}")
        _, y3_lo, y3_hi = self.vars[5]
        if not (isinstance(y3_lo, AffineBound) and isinstance(y3_hi, AffineBound)):
            raise TypeError("y3 bounds must be AffineBound (affine in x3)")


def _lift(value: float) -> BoundFn:
    def bound(env: Env):
        return value

    return bound


def _const_bound(value: float) -> AffineBound:
    return AffineBound(const=_lift(value), slope=_lift(0.0))


def _var(name: str) -> BoundFn:
    def bound(env: Env):
        return env[name]

    return bound


def _per_env(key: str) -> Callable[[BoundFn], BoundFn]:
    """Evaluate a bound helper once per environment and store it there.

    The x3 and y3 bounds of a cell are all evaluated on one environment,
    whose bound variables do not change once they are set, so they can
    share the result under ``key``.
    """

    def decorate(fn: BoundFn) -> BoundFn:
        def shared(env: Env):
            value = env.get(key)
            if value is None:
                value = env[key] = fn(env)
            return value

        return shared

    return decorate


def _ascending_cells(
    a: float, b: float, integrand: Integrand, prefix: str
) -> list[RegionSpec]:
    """The five cells with y2 > y1 (chord rising left to right)."""

    def corner_height(env: Env):
        # the line from p1 to the corner (a, b), evaluated at x2; above it
        # the chord exits through the top, below it through the right side
        x1, y1 = env["x1"], env["y1"]
        return y1 + (b - y1) / (a - x1) * (env["x2"] - x1)

    @_per_env("chord.slope")
    def slope(env: Env):
        return (env["y2"] - env["y1"]) / (env["x2"] - env["x1"])

    def cross_top(env: Env):
        # x where the chord reaches y = b; <= a on the steep branch
        return env["x2"] + (b - env["y2"]) / slope(env)

    chord = AffineBound(
        const=lambda env: env["y1"] - slope(env) * env["x1"],
        slope=slope,
    )
    top, right = _const_bound(b), _lift(a)
    floor = _const_bound(0.0)

    # (suffix, y2 bounds, x3 bounds, y3 bounds, sign): steep chords split
    # the p3 column before cross_top (cells 1/2) and leave it fully below
    # past it (cell 3); shallow chords split the column all the way (4/5)
    rows = [
        ("1", (corner_height, _lift(b)), (_var("x2"), cross_top), (chord, top), +1),
        ("2", (corner_height, _lift(b)), (_var("x2"), cross_top), (floor, chord), -1),
        ("3", (corner_height, _lift(b)), (cross_top, right), (floor, top), -1),
        ("4", (_var("y1"), corner_height), (_var("x2"), right), (chord, top), +1),
        ("5", (_var("y1"), corner_height), (_var("x2"), right), (floor, chord), -1),
    ]
    return _build(rows, a, b, integrand, prefix)


def _descending_cells(
    a: float, b: float, integrand: Integrand, prefix: str
) -> list[RegionSpec]:
    """The five cells with y2 < y1, numbered 6..10.

    Mirroring the rectangle top to bottom carries these onto the ascending
    cells as ``MIRROR`` lists (the mirror flips the sign of the area, so
    above/below roles swap).
    """

    def corner_height(env: Env):
        # the line from p1 to the corner (a, 0); above it the chord exits
        # through the right side, below it through the bottom
        x1, y1 = env["x1"], env["y1"]
        return y1 - y1 / (a - x1) * (env["x2"] - x1)

    @_per_env("chord.fall")
    def fall(env: Env):
        # magnitude of the (negative) chord slope
        return (env["y1"] - env["y2"]) / (env["x2"] - env["x1"])

    def cross_bottom(env: Env):
        # x where the chord reaches y = 0; <= a on the steep branch
        return env["x2"] + env["y2"] / fall(env)

    chord = AffineBound(
        const=lambda env: env["y1"] + fall(env) * env["x1"],
        slope=lambda env: -fall(env),
    )
    top, right = _const_bound(b), _lift(a)
    floor = _const_bound(0.0)

    rows = [
        ("6", (corner_height, _var("y1")), (_var("x2"), right), (floor, chord), -1),
        ("7", (corner_height, _var("y1")), (_var("x2"), right), (chord, top), +1),
        ("8", (_lift(0.0), corner_height), (_var("x2"), cross_bottom), (floor, chord), -1),
        ("9", (_lift(0.0), corner_height), (_var("x2"), cross_bottom), (chord, top), +1),
        ("10", (_lift(0.0), corner_height), (cross_bottom, right), (floor, top), +1),
    ]
    return _build(rows, a, b, integrand, prefix)


def _build(rows, a, b, integrand, prefix) -> list[RegionSpec]:
    regions = []
    for suffix, y2_bounds, x3_bounds, y3_bounds, sign in rows:
        regions.append(
            RegionSpec(
                name=prefix + suffix,
                vars=(
                    ("x1", _lift(0.0), _lift(a)),
                    ("y1", _lift(0.0), _lift(b)),
                    ("x2", _var("x1"), _lift(a)),
                    ("y2", *y2_bounds),
                    ("x3", *x3_bounds),
                    ("y3", *y3_bounds),
                ),
                sign=sign if integrand is Integrand.SIGNED_AREA else +1,
                integrand=integrand,
            )
        )
    return regions


def rectangle_regions(a: float, b: float) -> list[RegionSpec]:
    """The five signed-area cells I1..I5 of the ascending half.

    Their signed sum over a rectangle a x b is 11*(a*b)**4/1728; dividing
    by the matching normalizer sum gives the mean area 11*a*b/144.
    """
    return _ascending_cells(*_checked_sides(a, b), Integrand.SIGNED_AREA, "I")


def normalizer_regions(a: float, b: float) -> list[RegionSpec]:
    """Unit-integrand twins J1..J5 of the ascending cells.

    Each evaluates to the (positive) measure of its cell; the five sum to
    (a*b)**3/12, half the ordered-configuration volume.
    """
    return _ascending_cells(*_checked_sides(a, b), Integrand.ONE, "J")


def region_catalog(a: float, b: float) -> dict[str, RegionSpec]:
    """All twenty cells of an a x b rectangle by name: I1..I10, then J1..J10.

    The descending five of each kind are built from their own bounds
    rather than by aliasing the ascending five, so the mirror identities
    of ``MIRROR`` are genuine cross-checks.
    The I cells sum to 11*(a*b)**4/864 and the J cells to (a*b)**3/6.
    """
    a, b = _checked_sides(a, b)
    return {
        cell.name: cell
        for integrand, prefix in ((Integrand.SIGNED_AREA, "I"), (Integrand.ONE, "J"))
        for half in (_ascending_cells, _descending_cells)
        for cell in half(a, b, integrand, prefix)
    }


class UnknownNameError(ValueError):
    """No reference value is catalogued under the requested name."""


def _scaled_cells(kind: str, power: int, ascending: dict) -> dict:
    """Reference entries of one kind of cell, from its five ascending values.

    Each descending cell takes its mirror partner's value; ``kind + "15"``
    sums the ascending five and ``kind * 2`` all ten.  Every value is
    paired with ``power``: on an a x b rectangle it scales by (ab)**power.
    """
    cells = ascending | {f"{kind}{k}": ascending[f"{kind}{m}"] for k, m in MIRROR.items()}
    cells |= {f"{kind}15": sum(ascending.values()), kind * 2: sum(cells.values())}
    return {name: (value, power) for name, value in cells.items()}


# name -> (exact value at the unit square, the power of ab that scales it
# to an a x b rectangle), from the paper's cell tables: area-weighted cells
# carry (ab)^4, measures (ab)^3, and the mean RESULT = I15/J15 carries ab
_REFERENCES = _scaled_cells("I", 4, {
    "I1": Fraction(1, 34560),
    "I2": Fraction(23, 34560),
    "I3": Fraction(140, 34560),
    "I4": Fraction(19, 34560),
    "I5": Fraction(37, 34560),
}) | _scaled_cells("J", 3, {
    "J1": Fraction(1, 432),
    "J2": Fraction(5, 432),
    "J3": Fraction(18, 432),
    "J4": Fraction(5, 432),
    "J5": Fraction(7, 432),
})
_REFERENCES["RESULT"] = (_REFERENCES["I15"][0] / _REFERENCES["J15"][0], 1)

# The largest aspect ratio max(a, b) / min(a, b) the cells accept.  On a
# grid of `randtri quad` runs at rel_tol 1e-6, at ab = 2e-76, 1 and 3e77
# and both ways round, every row converged within its est_error up to an
# aspect ratio of 2**256; from 2**400 on, rows at the extreme areas came
# out wrong or infinite, and at ab = 1 an aspect ratio of 1e306 ran
# without end.  2**64 keeps a wide margin below the first failure.
_MAX_ASPECT = 2.0**64


def _checked_sides(a, b) -> tuple[float, float]:
    """The sides of an a x b rectangle, checked by the domain rule of the cells.

    The sides pass ``RectDomain`` and are returned as its floats; the
    aspect ratio must not exceed ``_MAX_ASPECT``; and every exact reference
    of the catalog, read from ``_REFERENCES``, must round to a normal
    binary64 float: not to 0 or a subnormal, and without overflow.  Raises
    ValueError otherwise.
    """
    domain = RectDomain(a, b)
    a, b = domain.a, domain.b
    # scaling by a power of two is exact, so this compares the true ratio
    if max(a, b) > _MAX_ASPECT * min(a, b):
        raise ValueError(
            f"domain a={a}, b={b}: the aspect ratio exceeds 2**{math.log2(_MAX_ASPECT):g}"
        )
    ab = Fraction(a) * Fraction(b)
    for name, (value, power) in _REFERENCES.items():
        if not _rounds_to_normal(value * ab**power):
            raise ValueError(
                f"domain a={a}, b={b}: the exact {name} is not a normal binary64 float"
            )
    return a, b


def exact_reference(name: str, a=1, b=1) -> Fraction:
    """Exact value of a catalog quantity over an a x b domain.

    Known names: the cells I1..I10 and J1..J10, the sums I15 (ascending
    five), II (all ten), J15, JJ, and the mean RESULT = 11ab/144.  The
    sides are checked as ``RectDomain`` checks them, then taken exactly:
    integers and Fractions as given, any other real number (a float, a
    numpy float) at the exact binary value of its float.
    """
    RectDomain(a, b)  # raises ValueError for a bad side
    a, b = (side if isinstance(side, Rational) else float(side) for side in (a, b))
    if name not in _REFERENCES:
        raise UnknownNameError(f"no reference value named {name!r}")
    value, power = _REFERENCES[name]
    return value * (Fraction(a) * Fraction(b)) ** power


def sample_in_region(
    region: RegionSpec, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw n points supported exactly on the region, as an (n, 6) array.

    Each coordinate is drawn uniformly between its bounds given the outer
    draws.  That chained law is not uniform over the cell, which does not
    matter for membership and sign checks; it covers the full cell.
    """
    n = _check_integer(n, "n", 1)
    env: dict[str, np.ndarray] = {}
    for name, lo_fn, hi_fn in region.vars:
        lo = np.broadcast_to(np.asarray(lo_fn(env), dtype=float), (n,))
        hi = np.broadcast_to(np.asarray(hi_fn(env), dtype=float), (n,))
        env[name] = rng.uniform(lo, np.maximum(lo, hi))
    return np.column_stack([env[v] for v in VAR_ORDER])
