"""One real-number rule at every entrance that takes a real number.

``geometry._check_real`` is the rule: a finite ``numbers.Real`` passes and
becomes a float; bools, strings, None, complex numbers, arrays, NaN, the
infinities and ints beyond the float range raise ValueError naming the
parameter.  The table feeds every entrance the same bad values and the same
kinds of good value, and a good value of any kind must give the same bits as
the equal float.
"""

import math
import numbers
from fractions import Fraction

import numpy as np
import pytest

from randtri.frame import side_case_value
from randtri.geometry import CubeDomain, RectDomain
from randtri.quadrature import QuadConfig, interior_catalog
from randtri.regions import (
    exact_reference,
    normalizer_regions,
    rectangle_regions,
    region_catalog,
    sample_in_region,
)


def cell_samples(cells):
    """Each cell's name and a fixed-seed sample: it reads every bound."""
    return [(c.name, sample_in_region(c, 4, np.random.default_rng(0)).tolist())
            for c in cells]


# entrance: (call with one real input, the parameter's name, a valid float,
# a valid integer or None when the range holds none)
ENTRANCES = {
    "RectDomain": (lambda v: RectDomain(v, 1.0), "a", 0.75, 2),
    "CubeDomain": (CubeDomain, "side", 0.75, 2),
    "QuadConfig": (lambda v: QuadConfig(rel_tol=v), "rel_tol", 0.25, None),
    "side_case_value": (lambda v: side_case_value(1, v), "x1", 0.75, 1),
    "region_catalog": (lambda v: cell_samples(region_catalog(v, 1.0).values()), "a", 0.75, 2),
    "rectangle_regions": (lambda v: cell_samples(rectangle_regions(1.0, v)), "b", 0.75, 2),
    "normalizer_regions": (lambda v: cell_samples(normalizer_regions(v, 1.0)), "a", 0.75, 2),
    "interior_catalog": (lambda v: interior_catalog(1.0, v, QuadConfig(rel_tol=1e-3)),
                         "b", 0.75, 2),
    "exact_reference": (lambda v: exact_reference("RESULT", v, 1), "a", 0.75, 2),
}

BAD = {
    "True": True,
    "np.True_": np.True_,
    "str": "1",
    "None": None,
    "complex": 1 + 0j,
    "array": np.array([1.0]),
    "nan": math.nan,
    "inf": math.inf,
    "1e400": 10**400,
    "-1e400": -10**400,
}

KINDS = {"np.float64": np.float64, "np.float32": np.float32, "Fraction": Fraction}


@pytest.mark.parametrize("bad", BAD.values(), ids=list(BAD))
@pytest.mark.parametrize("entrance", ENTRANCES)
def test_rejects_non_real_and_non_finite(entrance, bad):
    call, name, _, _ = ENTRANCES[entrance]
    # NaN, the infinities and ints beyond the float range are real numbers
    nonfinite = isinstance(bad, numbers.Real) and not isinstance(bad, bool)
    with pytest.raises(ValueError, match=f"{name} must be {'finite' if nonfinite else 'a real'}"):
        call(bad)


@pytest.mark.parametrize("kind", KINDS.values(), ids=list(KINDS))
@pytest.mark.parametrize("entrance", ENTRANCES)
def test_real_kinds_give_the_floats_bits(entrance, kind):
    # repr shows every bit of a float, and a numpy scalar as np.float64(...)
    call, _, good, _ = ENTRANCES[entrance]
    value = kind(good)
    assert value == good
    assert repr(call(value)) == repr(call(good))


@pytest.mark.parametrize("entrance", [e for e, row in ENTRANCES.items() if row[3]])
def test_numpy_integers_give_the_floats_bits(entrance):
    call, _, _, whole = ENTRANCES[entrance]
    assert repr(call(np.int64(whole))) == repr(call(float(whole)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: RectDomain(True, True),
        lambda: CubeDomain(True),
        lambda: RectDomain("1", 1.0),
        lambda: QuadConfig(rel_tol="1e-4"),
        lambda: QuadConfig(rel_tol=np.array([1e-4])),
        lambda: region_catalog("2", 3),
        lambda: exact_reference("RESULT", -2, 1),
        lambda: exact_reference("I1", "2", 1),
        lambda: exact_reference("I1", math.inf, 1),
        lambda: CubeDomain(Fraction(10**400, 3)),
        lambda: QuadConfig(rel_tol=Fraction(10**400)),
    ],
    ids=["rect-bools", "cube-bool", "rect-str", "rel_tol-str", "rel_tol-array",
         "catalog-str", "reference-negative", "reference-str", "reference-inf",
         "cube-huge-fraction", "rel_tol-huge-fraction"],
)
def test_once_accepted_or_mistyped_inputs_raise_value_error(call):
    # each of these once passed, or failed with TypeError or OverflowError
    with pytest.raises(ValueError):
        call()


def test_checked_values_are_stored_as_floats():
    rect = RectDomain(np.float32(0.75), Fraction(1, 2))
    assert (type(rect.a), type(rect.b)) == (float, float)
    assert type(CubeDomain(np.int64(2)).side) is float
    assert type(QuadConfig(rel_tol=np.float64(1e-6)).rel_tol) is float


def test_exact_reference_stays_exact_for_fractions_and_integers():
    assert exact_reference("I1", Fraction(1, 3), 2) == Fraction(1, 34560) * Fraction(2, 3) ** 4
    big = 2**60 + 1  # not a float: the reference keeps the integer
    assert exact_reference("J1", big, 1) == Fraction(big**3, 432)
