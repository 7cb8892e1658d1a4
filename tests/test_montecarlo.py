"""Seeded sampling estimates: reproducibility, statistics, and validation."""

import functools
import itertools
import contextlib
import io
import math
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from randtri import montecarlo
from randtri.cli import main
from randtri.geometry import CubeDomain, RectDomain
from randtri.montecarlo import (
    TETRA_MEAN,
    CubeTetrahedron,
    EstimateResult,
    FrameTriangle,
    InteriorTriangle,
    estimate,
)

# frozen outputs of estimate(problem, 10_000, seed=12345, chunks=8); these
# pin the substream layout, the merge order, and the samplers all at once
GOLDEN = {
    "interior": (0.07643655937366307, 0.004634342684453477),
    "frame": (0.15829649888803077, 0.01743849505679741),
    "tetra": (0.013859640088212756, 0.00019216444730710546),
}

PROBLEMS = {
    "interior": InteriorTriangle(),
    "frame": FrameTriangle(),
    "tetra": CubeTetrahedron(),
}

# estimate(problem, PINNED_N, seed=2024, chunks) as float.hex (mean,
# variance), captured before blocks were drawn in parts: PINNED_N spans
# three full blocks and a partial one, so these cross every block and part
# boundary that the 1,250 samples per chunk of GOLDEN never reach
PINNED_N = 3 * 2**16 + 12_345
PINNED_PROBLEMS = {
    "interior-1x1": InteriorTriangle(),
    "interior-1.3x0.8": InteriorTriangle(RectDomain(1.3, 0.8)),
    "frame": FrameTriangle(),
    "tetra-1": CubeTetrahedron(),
    "tetra-0.7": CubeTetrahedron(CubeDomain(0.7)),
}
PINS = {
    ("interior-1x1", 1): ("0x1.3862999fa639ep-4", "0x1.2c7faffadbdb0p-8"),
    ("interior-1x1", 3): ("0x1.389c1c5f7db7fp-4", "0x1.2cb7888cf3e2ep-8"),
    ("interior-1.3x0.8", 1): ("0x1.44e16c918e27bp-4", "0x1.4504fc995d350p-8"),
    ("interior-1.3x0.8", 3): ("0x1.451d3c3a59c9ap-4", "0x1.454163c519cf5p-8"),
    ("frame", 1): ("0x1.3fff510ec3f2bp-3", "0x1.192c3aec0ee78p-6"),
    ("frame", 3): ("0x1.40a41aee20c47p-3", "0x1.1b0a7f8b158cbp-6"),
    ("tetra-1", 1): ("0x1.c924d7f78008ep-7", "0x1.9ee82c81df87dp-13"),
    ("tetra-1", 3): ("0x1.c648e0aaeb39ep-7", "0x1.9688c591ab782p-13"),
    ("tetra-0.7", 1): ("0x1.3999c966b68d3p-8", "0x1.8681d0279e880p-16"),
    ("tetra-0.7", 3): ("0x1.37a3a8754015dp-8", "0x1.7ea075cf3017ap-16"),
}


@pytest.fixture
def pool_sizes(monkeypatch):
    """Pool sizes ``estimate`` asks for, with four CPUs reported.

    The pools run the requested number of workers, so a check of thread
    invariance really runs several threads even on a host with fewer CPUs.
    """
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
    return sizes


class TestGolden:
    @pytest.mark.parametrize("label", sorted(GOLDEN))
    def test_frozen_estimates(self, label):
        res = estimate(PROBLEMS[label], 10_000, seed=12345, chunks=8)
        mean, variance = GOLDEN[label]
        assert res.mean == mean
        assert res.variance == variance
        assert res.n == 10_000 and res.seed == 12345 and res.chunks == 8

    @pytest.mark.parametrize("label, chunks", sorted(PINS))
    def test_pins_across_block_and_part_boundaries(self, label, chunks):
        res = estimate(PINNED_PROBLEMS[label], PINNED_N, seed=2024, chunks=chunks)
        assert (res.mean.hex(), res.variance.hex()) == PINS[label, chunks]

    def test_result_fields_are_consistent(self):
        res = estimate(PROBLEMS["interior"], 10_000, seed=12345, chunks=8)
        assert res.stderr == (res.variance / res.n) ** 0.5
        assert res.ci95_low == res.mean - 1.959964 * res.stderr
        assert res.ci95_high == res.mean + 1.959964 * res.stderr


class TestDeterminism:
    def test_repeat_runs_are_identical(self):
        a = estimate(PROBLEMS["frame"], 50_000, seed=3, chunks=16)
        b = estimate(PROBLEMS["frame"], 50_000, seed=3, chunks=16)
        assert a == b

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_thread_count_is_invisible(self, threads, pool_sizes):
        base = estimate(PROBLEMS["interior"], 100_000, seed=7, chunks=32, threads=1)
        other = estimate(
            PROBLEMS["interior"], 100_000, seed=7, chunks=32, threads=threads
        )
        assert pool_sizes == [1, threads]
        assert base == other

    def test_thread_count_is_invisible_across_blocks(self, pool_sizes):
        # each chunk spans two full blocks and a partial third, and so many
        # parts, while the other worker draws its own substream
        n = 4 * 2**16 + 999
        base = estimate(PROBLEMS["tetra"], n, seed=11, chunks=2, threads=1)
        other = estimate(PROBLEMS["tetra"], n, seed=11, chunks=2, threads=2)
        assert pool_sizes == [1, 2]
        assert base == other

    def test_pool_never_exceeds_cpus_or_chunks(self, monkeypatch):
        # record the requested pool size, but run every pool on one thread,
        # so a broken bound cannot start a thread per requested worker
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=1)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        for threads, chunks, want in ((10**6, 8, 4), (10**6, 3, 3), (2, 8, 2),
                                      (None, 8, 4), (None, 3, 3)):
            estimate(PROBLEMS["frame"], 1_000, seed=5, chunks=chunks, threads=threads)
            assert sizes[-1] == want, (threads, chunks)

    def test_seed_changes_the_estimate(self):
        a = estimate(PROBLEMS["interior"], 10_000, seed=0, chunks=8)
        b = estimate(PROBLEMS["interior"], 10_000, seed=1, chunks=8)
        assert a.mean != b.mean

    def test_chunking_changes_draws_but_not_the_law(self):
        # different chunk counts consume the substreams differently, so the
        # values differ, but both estimate the same quantity
        a = estimate(PROBLEMS["interior"], 100_000, seed=5, chunks=1)
        b = estimate(PROBLEMS["interior"], 100_000, seed=6, chunks=64)
        assert a.mean != b.mean
        gap = abs(a.mean - b.mean)
        assert gap <= 5.0 * math.hypot(a.stderr, b.stderr)


class TestStatistics:
    def test_interior_matches_quadrature_constant(self):
        res = estimate(PROBLEMS["interior"], 1_000_000, seed=7)
        assert res.ci95_low <= 11.0 / 144.0 <= res.ci95_high

    def test_frame_matches_quadrature_constant(self):
        res = estimate(PROBLEMS["frame"], 1_000_000, seed=7)
        assert res.ci95_low <= 5.0 / 32.0 <= res.ci95_high

    def test_tetrahedron_band(self):
        res = estimate(PROBLEMS["tetra"], 1_000_000, seed=7)
        assert abs(res.mean - TETRA_MEAN) <= 5.0 * res.stderr

    def test_stderr_shrinks_like_root_n(self):
        for label in ("interior", "frame", "tetra"):
            small = estimate(PROBLEMS[label], 10_000, seed=3, chunks=8)
            large = estimate(PROBLEMS[label], 1_000_000, seed=3, chunks=8)
            ratio = small.stderr / large.stderr
            assert 8.0 <= ratio <= 12.5, label

    def test_rectangle_mean_scales_with_area(self):
        unit = estimate(PROBLEMS["interior"], 1_000_000, seed=11)
        rect = estimate(
            InteriorTriangle(RectDomain(2.0, 3.0)), 1_000_000, seed=12
        )
        gap = abs(rect.mean - 6.0 * unit.mean)
        combined = math.hypot(rect.stderr * 1.0, 6.0 * unit.stderr)
        assert gap <= 5.0 * combined

    def test_variance_positive_and_bounded(self):
        res = estimate(PROBLEMS["frame"], 10_000, seed=2, chunks=4)
        assert 0.0 < res.variance < 0.25  # |area| <= 1/2 caps the variance


def _uniform_mean(expr, symbols) -> Fraction:
    """Exact mean of a polynomial in independent U(0, 1) variables.

    E[prod u_i^k_i] = prod 1/(k_i + 1), term by term.
    """
    poly = expr.expand().as_poly(*symbols)
    return sum(
        (Fraction(int(c.p), int(c.q)) * math.prod(Fraction(1, k + 1) for k in ks)
         for ks, c in poly.terms()),
        Fraction(0),
    )


@functools.cache
def _interior_area_moments() -> tuple[Fraction, Fraction]:
    """(E[A^2], E[A^4]) for a triangle uniform in the unit square."""
    sympy = pytest.importorskip("sympy")
    x1, y1, x2, y2, x3, y3 = us = sympy.symbols("x1 y1 x2 y2 x3 y3")
    twice = x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2)
    return (_uniform_mean(twice**2, us) / 4, _uniform_mean(twice**4, us) / 16)


@functools.cache
def _frame_area_moments() -> tuple[Fraction, Fraction]:
    """(E[A^2], E[A^4]) for a triangle uniform on the unit square's boundary.

    Each vertex picks one of the four sides with probability 1/4 and a
    uniform position along it; the moments average the 64 side triples.
    """
    sympy = pytest.importorskip("sympy")
    corners = [(0, 0), (1, 0), (1, 1), (0, 1)]  # counter-clockwise
    us = sympy.symbols("u1 u2 u3")

    def point(side, u):
        (x0, y0), (x1, y1) = corners[side], corners[(side + 1) % 4]
        return x0 + (x1 - x0) * u, y0 + (y1 - y0) * u

    second = fourth = Fraction(0)
    for sides in itertools.product(range(4), repeat=3):
        (x1, y1), (x2, y2), (x3, y3) = (point(k, u) for k, u in zip(sides, us))
        twice = x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2)
        second += _uniform_mean(twice**2, us) / 4
        fourth += _uniform_mean(twice**4, us) / 16
    return second / 64, fourth / 64


class TestSecondMoment:
    """The raw second moment of |area| against its exact value.

    The exact E[A^2] and E[A^4] are derived here with sympy (1/96 and
    1/2400 inside the unit square; 1/24 and 179/38400 on its boundary),
    so the check shares no number with the estimator.
    """

    MOMENTS = {"interior": _interior_area_moments, "frame": _frame_area_moments}

    @pytest.mark.parametrize("seed", [7, 42])
    @pytest.mark.parametrize("label", sorted(MOMENTS))
    def test_raw_second_moment_within_five_sigma(self, label, seed):
        second, fourth = self.MOMENTS[label]()
        n = 1_000_000
        res = estimate(PROBLEMS[label], n, seed=seed)
        raw = res.variance * (n - 1) / n + res.mean**2
        sigma = math.sqrt(float(fourth - second**2) / n)
        assert abs(raw - float(second)) <= 5.0 * sigma, (raw - float(second)) / sigma


class TestMemory:
    @pytest.mark.parametrize("label", sorted(PROBLEMS))
    def test_traced_peak_of_one_worker(self, label):
        # one chunk of 300,000 samples: the draw and values buffers are
        # reused across the five blocks, so the peak does not grow with n
        tracemalloc.start()
        try:
            estimate(PROBLEMS[label], 300_000, seed=1, chunks=1, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, peak


# the domains `randtri mc` refused before estimate held the range rule
CLI_REFUSED = {
    "interior-1e200": InteriorTriangle(RectDomain(1e200, 1e200)),
    "interior-1e-200": InteriorTriangle(RectDomain(1e-200, 1e-200)),
    "tetra-1e120": CubeTetrahedron(CubeDomain(1e120)),
    "interior-1e150": InteriorTriangle(RectDomain(1e150, 1e150)),
}

# `randtri mc --n 100` refusals, captured before the range rule moved from
# the CLI into estimate: row a, column b over GRID_SIDES, "x" refused
GRID_SIDES = ("1e-200", "1e-160", "1e-154", "1e-150", "1", "1e150", "1e154", "1e200")
INTERIOR_REFUSED = (
    "xxxxx...",  # a = 1e-200
    "xxxxx...",  # a = 1e-160
    "xxxxx...",  # a = 1e-154
    "xxxx....",  # a = 1e-150
    "xxx...xx",  # a = 1
    ".....xxx",  # a = 1e150
    "....xxxx",  # a = 1e154
    "....xxxx",  # a = 1e200
)
TETRA_SIDES = ("1e-110", "1e-100", "1", "1e100", "1e103", "1e110")
TETRA_REFUSED = {"1e-110", "1e-100", "1e100", "1e103", "1e110"}

# sides just inside and just outside each bound at n = 100: the square of
# the mean, 11ab/144 or TETRA_MEAN side**3, must reach 2**-1022, and
# 100 * peak**2, with peak 3ab or 6 side**3, must stay below 2**1024
TETRA_LOW = (2.0**-511 / TETRA_MEAN) ** (1 / 3)
TETRA_HIGH = (2.0**512 / 60) ** (1 / 3)
BOUNDS = {
    "interior-low": ((1.0, 13.1 * 2.0**-511), (1.0, 13.0 * 2.0**-511)),
    "interior-high": ((2.0**512 / 30.1, 1.0), (2.0**512 / 29.9, 1.0)),
    "tetra-low": ((1.001 * TETRA_LOW,), (0.999 * TETRA_LOW,)),
    "tetra-high": ((0.999 * TETRA_HIGH,), (1.001 * TETRA_HIGH,)),
}


def _problem(*sides):
    if len(sides) == 2:
        return InteriorTriangle(RectDomain(*sides))
    return CubeTetrahedron(CubeDomain(*sides))


def _refused_by_estimate(problem) -> bool:
    try:
        estimate(problem, 100, seed=0)
    except ValueError as exc:
        assert "binary64" in str(exc)
        return True
    return False


def _refused_by_cli(*argv) -> bool:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["mc", "--n", "100", *argv])
    assert code in (0, 2) and (code == 0 or "binary64" in err.getvalue())
    return code == 2


class TestValidation:
    def test_rejects_tiny_runs(self):
        with pytest.raises(ValueError):
            estimate(PROBLEMS["interior"], 1)

    def test_rejects_bad_chunking(self):
        with pytest.raises(ValueError):
            estimate(PROBLEMS["interior"], 100, chunks=0)
        with pytest.raises(ValueError):
            estimate(PROBLEMS["interior"], 100, chunks=101)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            estimate(PROBLEMS["interior"], 100, seed=-1, chunks=4)
        with pytest.raises(ValueError):
            estimate(PROBLEMS["interior"], 100, seed=2**64, chunks=4)

    def test_rejects_bad_threads(self):
        with pytest.raises(ValueError):
            estimate(PROBLEMS["interior"], 100, chunks=4, threads=0)

    @pytest.mark.parametrize("name,bad", [
        ("n", 10_000.6), ("n", 100.0), ("n", True),
        ("seed", 7.9), ("seed", 7.0), ("seed", True),
        ("chunks", 4.5), ("chunks", True),
        ("threads", 1.5), ("threads", True),
    ])
    def test_rejects_non_integer_arguments(self, name, bad):
        # a float was truncated (seed=7.9 ran seed 7) and a bool taken as 0 or 1
        kwargs = {"n": 100, "seed": 7, "chunks": 4, "threads": 1, name: bad}
        with pytest.raises(ValueError, match=name):
            estimate(PROBLEMS["interior"], kwargs.pop("n"), **kwargs)

    def test_numpy_integers_give_the_same_bytes(self):
        ref = estimate(PROBLEMS["frame"], 10_000, seed=12345, chunks=8, threads=2)
        got = estimate(PROBLEMS["frame"], np.int64(10_000), seed=np.uint64(12345),
                       chunks=np.int32(8), threads=np.int8(2))
        # repr spells each float to the bit and a numpy integer by its type
        assert repr(got) == repr(ref)

    def test_rejects_unknown_problem(self):
        with pytest.raises(TypeError):
            estimate(object(), 100, chunks=4)

    def test_domain_validation_happens_at_construction(self):
        with pytest.raises(ValueError):
            InteriorTriangle(RectDomain(-1.0, 1.0))
        with pytest.raises(ValueError):
            CubeTetrahedron(CubeDomain(0.0))

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def fail(*args):
            raise AssertionError("estimate drew samples")

        monkeypatch.setattr(montecarlo, "_substream", fail)

    @pytest.mark.parametrize("name", CLI_REFUSED)
    def test_refuses_the_cli_domains(self, no_draws, name):
        with pytest.raises(ValueError, match="binary64"):
            estimate(CLI_REFUSED[name], 100, seed=0)

    @pytest.mark.parametrize("kind", PROBLEMS)
    def test_refuses_n_beyond_the_float_range(self, no_draws, kind):
        # n * peak**2 is taken exactly, so a huge n raises no OverflowError
        with pytest.raises(ValueError, match="binary64"):
            estimate(PROBLEMS[kind], 10**400, seed=0)

    def test_refuses_the_same_grid_as_before(self):
        refused = {
            (a, b) for a, row in zip(GRID_SIDES, INTERIOR_REFUSED)
            for b, mark in zip(GRID_SIDES, row) if mark == "x"
        }
        grid = [(a, b) for a in GRID_SIDES for b in GRID_SIDES]
        assert {(a, b) for a, b in grid
                if _refused_by_estimate(_problem(float(a), float(b)))} == refused
        assert {(a, b) for a, b in grid
                if _refused_by_cli("--problem", "interior", "--a", a, "--b", b)} == refused
        assert {s for s in TETRA_SIDES
                if _refused_by_estimate(_problem(float(s)))} == TETRA_REFUSED
        assert {s for s in TETRA_SIDES
                if _refused_by_cli("--problem", "tetra", "--a", s)} == TETRA_REFUSED

    @pytest.mark.parametrize("name", BOUNDS)
    def test_accepts_just_inside_each_bound(self, name):
        inside, outside = BOUNDS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = estimate(_problem(*inside), 100, seed=0)
        assert math.isfinite(res.mean) and res.stderr > 0
        assert _refused_by_estimate(_problem(*outside))


class TestResultType:
    def test_is_frozen_and_comparable(self):
        res = estimate(PROBLEMS["tetra"], 1_000, seed=1, chunks=2)
        assert isinstance(res, EstimateResult)
        with pytest.raises(Exception):
            res.mean = 0.0
