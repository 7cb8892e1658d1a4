"""One-shot verification that every route reproduces its reference values.

CRITERIA is the only definition of the nine acceptance criteria: an
ordered table of checks, each holding its own bounds and references.
run_criterion times one check and turns its Verdict into one row, a plain
dict the CLI serializes unchanged; the acceptance tests run the same table.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .frame import FRAME_MEAN, SIDE_CASE_FORMS, expected_area_frame, side_case_value
from .geometry import signed_area_xy
from .lattice import enumerate_mean_area
from .montecarlo import (
    TETRA_MEAN,
    CubeTetrahedron,
    FrameTriangle,
    InteriorTriangle,
    estimate,
    pool_size,
)
from .quadrature import QuadConfig, _ordered_sum, interior_catalog, nested_quadrature
from .regions import MIRROR, Integrand, exact_reference, region_catalog, sample_in_region

__all__ = ["CRITERIA", "run_criterion", "run_report"]

_CFG = QuadConfig()
_QUAD_REL = 2e-4  # relative bound on every quadrature constant


class Verdict(NamedTuple):
    """What one check found; ``extra`` adds fields to its row."""

    expected: str
    actual: str
    tolerance: str
    passed: bool
    extra: dict | None = None


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def _rel(value: float, reference) -> float:
    return abs(value - float(reference)) / abs(float(reference))


@functools.cache
def _unit_square_catalog():
    """``interior_catalog(1, 1)`` and the seconds it took, computed once.

    Three criteria read these ten cells; sharing one run keeps the report
    from integrating them three times.
    """
    rows, seconds = _timed(interior_catalog, 1, 1, _CFG)
    return MappingProxyType(rows), seconds


def _quadrature_constants() -> Verdict:
    limit_s = 60.0
    rows, seconds = _unit_square_catalog()
    devs = {name: _rel(r.value, exact_reference(name)) for name, r in rows.items()}
    worst = max(devs, key=devs.get)
    return Verdict(
        f"I1..I5, J1..J5, I15={exact_reference('I15')}, "
        f"J15={exact_reference('J15')}, RESULT={exact_reference('RESULT')}, "
        "each exact",
        f"worst {worst} relative deviation {devs[worst]:.3e} in {seconds:.1f} s",
        f"{_QUAD_REL:.0e} relative, full set under {limit_s:g} s",
        devs[worst] <= _QUAD_REL and seconds < limit_s,
    )


def _square_decomposition() -> Verdict:
    # cells 1..5 are the ascending ones interior_catalog has integrated
    ascending, _ = _unit_square_catalog()
    cells = {
        name: ascending.get(name) or nested_quadrature(region, _CFG)
        for name, region in region_catalog(1, 1).items()
    }
    big_i = _ordered_sum(cells[f"I{k}"].value for k in range(1, 11))
    big_j = _ordered_sum(cells[f"J{k}"].value for k in range(1, 11))
    worst = max(
        _rel(big_i, exact_reference("II")),
        _rel(big_j, exact_reference("JJ")),
        _rel(big_i / big_j, exact_reference("RESULT")),
    )
    pairs_ok = all(
        abs(cells[f"{p}{k}"].value - cells[f"{p}{m}"].value)
        <= 2.0 * (cells[f"{p}{k}"].est_error + cells[f"{p}{m}"].est_error)
        for p in "IJ"
        for k, m in MIRROR.items()
    )
    return Verdict(
        f"II={exact_reference('II')}, JJ={exact_reference('JJ')}, "
        f"II/JJ={exact_reference('RESULT')}; I and J mirror pairs equal",
        f"max relative deviation {worst:.3e}; pairs within bounds: {pairs_ok}",
        f"{_QUAD_REL:.0e} relative; pairs within 2x combined est_error",
        worst <= _QUAD_REL and pairs_ok,
    )


def _rectangle_scale_law() -> Verdict:
    exact = exact_reference("RESULT", 2, 3)
    value = interior_catalog(2, 3, _CFG)["RESULT"].value
    dev = _rel(value, exact)
    return Verdict(
        f"mean area over 2 x 3 rectangle = {exact}",
        f"{value!r} (relative deviation {dev:.3e})",
        f"{_QUAD_REL:.0e} relative",
        dev <= _QUAD_REL,
    )


def _frame_polynomials() -> Verdict:
    # the frame route is exact up to rounding, so the polynomials are held
    # to a rounding bound and the mean to 5/32 itself
    bound = 1e-14
    worst_poly = max(
        abs(side_case_value(case, x1) - form(x1))
        for case, form in SIDE_CASE_FORMS.items()
        # the last x1 puts case 1's kink at u = x1 off every dyadic point
        for x1 in (0.0, 0.25, 0.5, 0.75, 1.0, 0.0015847499555259326)
    )
    mean = expected_area_frame()
    return Verdict(
        f"four closed-form polynomials; mean {FRAME_MEAN}",
        f"max polynomial deviation {worst_poly:.3e}; mean {mean!r}",
        f"{bound:.0e} absolute per polynomial; mean exactly {float(FRAME_MEAN)!r}",
        worst_poly <= bound and mean == float(FRAME_MEAN),
    )


def _lattice_exactness() -> Verdict:
    limit_s = 5.0
    # the frozen n = 10 value, and the law 5/32 - 1/(16n^2) at scale
    cases = {10: Fraction(249, 1600), 1000: FRAME_MEAN - Fraction(1, 16 * 1000**2)}
    lines = []
    ok = True
    for n, exact in cases.items():
        value, seconds = _timed(enumerate_mean_area, n)
        ok &= value == exact and seconds < limit_s
        lines.append(f"n={n}: {value} in {seconds:.3f} s")
    return Verdict(
        f"{cases[10]} at n=10 and 5/32 - 1/(16n^2) = {cases[1000]} at n=1000, "
        "exact rational equality",
        "; ".join(lines),
        f"exact, each under {limit_s:g} s",
        ok,
    )


def _monte_carlo_consistency() -> Verdict:
    n, seed, z_max, limit_s = 10_000_000, 42, 5.0, 30.0
    problems = (
        ("interior", InteriorTriangle(), exact_reference("RESULT")),
        ("frame", FrameTriangle(), FRAME_MEAN),
        ("tetra", CubeTetrahedron(), TETRA_MEAN),
    )
    lines = []
    ok = True
    for label, problem, target in problems:
        r, seconds = _timed(estimate, problem, n, seed=seed)
        z = abs(r.mean - float(target)) / r.stderr
        ok &= z <= z_max and seconds < limit_s
        lines.append(f"{label} |z|={z:.2f} in {seconds:.1f} s")
    return Verdict(
        ", ".join(f"{label} {target}" for label, _, target in problems),
        f"n={n:.0e} seed={seed}: " + "; ".join(lines),
        f"{z_max:g} standard errors, under {limit_s:g} s each",
        ok,
    )


def _interior_frame_ratio() -> Verdict:
    exact = exact_reference("RESULT") / FRAME_MEAN
    rows, _ = _unit_square_catalog()
    ratio = rows["RESULT"].value / expected_area_frame()
    dev = _rel(ratio, exact)
    bound = 5e-4
    return Verdict(
        f"{exact}",
        f"{ratio!r} (relative deviation {dev:.3e})",
        f"{bound:.0e} relative",
        dev <= bound,
        extra={"ratio_22_45": ratio},
    )


def _thread_determinism() -> Verdict:
    requested, chunks = (1, 4), 32
    payloads = [
        json.dumps(dataclasses.asdict(
            estimate(InteriorTriangle(), 100_000, seed=7, chunks=chunks, threads=threads)
        ))
        for threads in requested
    ]
    # the pool sizes that ran: smaller than requested on a host with fewer CPUs
    workers = tuple(pool_size(threads, chunks) for threads in requested)
    same = len(set(payloads)) == 1
    return Verdict(
        f"identical serialized estimates for {workers} worker threads "
        f"({requested} requested)",
        "byte-identical" if same else "MISMATCH",
        "byte equality",
        same,
    )


def _rounding_noise(x1, y1, x2, y2, x3, y3):
    """8 ulps at the magnitude of the three products signed_area_xy sums."""
    return 8.0 * np.spacing(
        0.5
        * (
            np.abs(x1) * (np.abs(y2) + np.abs(y3))
            + np.abs(x2) * (np.abs(y3) + np.abs(y1))
            + np.abs(x3) * (np.abs(y1) + np.abs(y2))
        )
    )


def _property_suites() -> Verdict:
    cases, sign_floor = 10_000, -1e-12
    rng = np.random.Generator(np.random.Philox(key=20240817))
    x1, y1, x2, y2, x3, y3 = rng.uniform(-10.0, 10.0, size=(6, cases))
    s = signed_area_xy(x1, y1, x2, y2, x3, y3)
    noise = _rounding_noise(x1, y1, x2, y2, x3, y3)

    # the other five vertex orders and their sign relative to (1, 2, 3)
    signs = {
        (2, 1, 3): -1.0,
        (2, 3, 1): 1.0,
        (3, 1, 2): 1.0,
        (1, 3, 2): -1.0,
        (3, 2, 1): -1.0,
    }
    vertex = {1: (x1, y1), 2: (x2, y2), 3: (x3, y3)}
    values = {
        order: signed_area_xy(*vertex[order[0]], *vertex[order[1]], *vertex[order[2]])
        for order in signs
    }
    orders = bool(np.all(values[(2, 1, 3)] == -s)) and all(
        np.all(np.abs(v - signs[order] * s) <= noise) for order, v in values.items()
    )
    zero_sum = bool(np.all(np.abs(s + sum(values.values())) <= 6.0 * noise))

    vx, vy = rng.uniform(-10.0, 10.0, size=(2, cases))
    moved = (x1 + vx, y1 + vy, x2 + vx, y2 + vy, x3 + vx, y3 + vy)
    translation = bool(
        np.all(np.abs(signed_area_xy(*moved) - s) <= noise + _rounding_noise(*moved))
    )

    scaling = all(
        np.array_equal(
            signed_area_xy(lam * x1, lam * y1, lam * x2, lam * y2, lam * x3, lam * y3),
            lam * lam * s,
        )
        for lam in (2.0**k for k in (-10, -3, -2, -1, 1, 2, 3, 10))
    )

    sign_min = min(
        float((region.sign * signed_area_xy(*sample_in_region(region, cases, rng).T)).min())
        for a, b in ((1, 1), (2, 3))
        for region in region_catalog(a, b).values()
        if region.integrand is Integrand.SIGNED_AREA
    )

    return Verdict(
        "(1,2) swap negates exactly; other orders, zero six-order sum and "
        "translation within rounding; exact power-of-two scaling; "
        "sign-constant cells",
        f"vertex orders {orders}, six-order sum {zero_sum}, translation "
        f"{translation}, scaling {scaling}, region sign min {sign_min:.2e}",
        f"{cases} random cases each, 8-ulp rounding bounds, "
        f"region signs >= {sign_floor:g}",
        orders and zero_sum and translation and scaling and sign_min >= sign_floor,
    )


CRITERIA: dict[str, Callable[[], Verdict]] = {
    "quadrature-constants": _quadrature_constants,
    "square-decomposition": _square_decomposition,
    "rectangle-scale-law": _rectangle_scale_law,
    "frame-polynomials": _frame_polynomials,
    "lattice-exactness": _lattice_exactness,
    "monte-carlo-consistency": _monte_carlo_consistency,
    "interior-frame-ratio": _interior_frame_ratio,
    "thread-determinism": _thread_determinism,
    "property-suites": _property_suites,
}


def run_criterion(name: str) -> dict:
    """Run one criterion of CRITERIA and return its report row."""
    verdict, seconds = _timed(CRITERIA[name])
    return {
        "criterion": name,
        "expected": verdict.expected,
        "actual": verdict.actual,
        "tolerance": verdict.tolerance,
        "pass": bool(verdict.passed),
        "seconds": round(seconds, 3),
        **(verdict.extra or {}),
    }


def run_report() -> tuple[list[dict], bool]:
    """Run all acceptance criteria; returns (rows, all_pass)."""
    rows = [run_criterion(name) for name in CRITERIA]
    return rows, all(row["pass"] for row in rows)
