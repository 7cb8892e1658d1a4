"""Seeded Monte Carlo estimation of the three mean-size problems.

One estimator covers triangles in a rectangle (mean 11ab/144), triangles
on the unit square's boundary (mean 5/32), and tetrahedra in a cube
(mean TETRA_MEAN, about 0.01384 in the unit cube).  It is an
independent check on the quadrature, enumeration, and closed-form routes,
so nothing here shares code with those beyond the elementary area/volume
formulas and the input checks.  The range rule of ``estimate`` reads
``regions.exact_reference`` only to bound its inputs; no estimate uses it.

Reproducibility contract: the estimate is a pure function of
(problem, n, seed, chunks).  Each chunk draws from its own counter-based
substream keyed by chunk_index * 2**64 + seed, processes its samples in
fixed-size blocks with a streaming mean/M2 recurrence, and the chunk
partials merge in chunk-index order with the standard pairwise moment
combination.  Threads only decide which worker executes a chunk, never
how its numbers are produced or combined, so results are bit-identical
for any thread count.  The generator (Philox), the key mixing, the block
size (_BLOCK), and the per-problem draw layouts are frozen by golden-value
tests: changing any of them changes published results.

Memory: each worker thread allocates one draw buffer of _DRAW samples and
one values buffer of _BLOCK samples, and reuses them for every block of
every chunk it runs.  A frozen block is drawn in parts of _DRAW samples
(the last one shorter), each scaled in place and sent through the
kernels, whose |result| is written straight into the values buffer; the
block's mean and M2 are then taken over the whole block.
Philox is counter-based, so a block drawn in parts holds exactly the
doubles of a block drawn at once: the part size changes no bit of any
result, and only _BLOCK is frozen.  A part of a tetra draw is 768 KiB, so
a part and its temporaries fit a 2 MiB L2 cache, and a worker's peak is
about 2 MiB whatever n is.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .frame import frame_xy
from .geometry import (CubeDomain, RectDomain, _check_integer, _rounds_to_normal,
                       signed_area_xy, signed_volume_xyz)
from .regions import exact_reference

__all__ = [
    "CubeTetrahedron",
    "EstimateResult",
    "FrameTriangle",
    "InteriorTriangle",
    "Problem",
    "TETRA_MEAN",
    "estimate",
    "pool_size",
]

_BLOCK = 1 << 16
_DRAW = 1 << 13  # samples per part of a block: fits a 2 MiB L2, changes no bit
_Z95 = 1.959964  # two-sided 95% normal quantile

# mean tetrahedron volume in the unit cube: Zinani 2003; MathWorld
# "Cube Tetrahedron Picking"
TETRA_MEAN = 3977 / 216000 - math.pi**2 / 2160


@dataclass(frozen=True, slots=True)
class InteriorTriangle:
    """Triangle with vertices uniform in a rectangle."""

    domain: RectDomain = RectDomain(1.0, 1.0)


@dataclass(frozen=True, slots=True)
class FrameTriangle:
    """Triangle with vertices uniform on the unit square's boundary."""


@dataclass(frozen=True, slots=True)
class CubeTetrahedron:
    """Tetrahedron with vertices uniform in a cube."""

    domain: CubeDomain = CubeDomain(1.0)


Problem = Union[InteriorTriangle, FrameTriangle, CubeTetrahedron]

# uniforms per sample in the frozen draw layout
_COLUMNS = {InteriorTriangle: 6, FrameTriangle: 3, CubeTetrahedron: 12}


@dataclass(frozen=True, slots=True)
class EstimateResult:
    """Streaming moments of one estimation run.

    variance is the unbiased sample variance; stderr = sqrt(variance/n);
    the 95% interval uses the normal approximation (n is always large).
    """

    mean: float
    variance: float
    stderr: float
    ci95_low: float
    ci95_high: float
    n: int
    seed: int
    chunks: int


def _substream(seed: int, chunk_index: int) -> np.random.Generator:
    # frozen mixing function: disjoint Philox keys per (seed, chunk)
    return np.random.Generator(np.random.Philox(key=(chunk_index << 64) | seed))


def _fill_block(problem: Problem, rng: np.random.Generator, draws: np.ndarray,
                block: np.ndarray) -> None:
    """Fill ``block`` with i.i.d. |area| or |volume| samples; layout is frozen.

    Draws ``len(draws)`` samples at a time into ``draws``; the part size
    changes no bit of the block (see the module docstring).
    """
    count = len(block)
    for s in range(0, count, len(draws)):
        m = min(len(draws), count - s)
        q = rng.random(out=draws[:m])
        if isinstance(problem, InteriorTriangle):
            # strided: a 6-tuple broadcast runs six elements per inner loop
            q[:, 0::2] *= problem.domain.a
            q[:, 1::2] *= problem.domain.b
            area = signed_area_xy(*q.T)
        elif isinstance(problem, FrameTriangle):
            q *= 4.0
            # one call per vertex: frame_xy on all of q would make temporaries
            # of 3 * _DRAW doubles, large enough for glibc to trim and re-fault
            x1, y1 = frame_xy(q[:, 0])
            x2, y2 = frame_xy(q[:, 1])
            x3, y3 = frame_xy(q[:, 2])
            area = signed_area_xy(x1, y1, x2, y2, x3, y3)
        else:  # CubeTetrahedron: estimate admits no other kind
            q *= problem.domain.side
            area = signed_volume_xyz(*q.T)
        np.abs(area, out=block[s : s + m])


def _merge(n_a: int, mean_a: float, m2_a: float, n_b: int, mean_b: float, m2_b: float):
    """Combine two (count, mean, sum of squared deviations) partials."""
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (n_b / n)
    m2 = m2_a + m2_b + delta * delta * (n_a * (n_b / n))
    return n, mean, m2


def _chunk_moments(problem: Problem, count: int, seed: int, index: int,
                   draws: np.ndarray, values: np.ndarray):
    """(count, mean, M2) of one chunk, drawn through the worker's buffers."""
    rng = _substream(seed, index)
    done, mean, m2 = 0, 0.0, 0.0
    while done < count:
        take = min(_BLOCK, count - done)
        block = values[:take]
        _fill_block(problem, rng, draws, block)
        block_mean = float(block.mean())
        # in place, the same operations as (block - block_mean) ** 2
        block -= block_mean
        block *= block
        block_m2 = float(block.sum())
        done, mean, m2 = _merge(done, mean, m2, take, block_mean, block_m2)
    return count, mean, m2


def _check_range(problem: Problem, n: int) -> None:
    """Raise ValueError if the moments of n samples of ``problem`` may leave binary64.

    ``peak`` bounds every intermediate of one sample: twice a signed area
    sums three terms of at most ab each, a determinant six of at most
    side**3.  So the sum of n squared deviations stays finite when
    n * peak**2, taken exactly, does; the variance scales as mean**2.
    """
    if isinstance(problem, InteriorTriangle):
        a, b = problem.domain.a, problem.domain.b
        mean, peak = exact_reference("RESULT", a, b), 3 * Fraction(a) * Fraction(b)
    elif isinstance(problem, FrameTriangle):
        mean, peak = Fraction(5, 32), 3
    else:
        side = Fraction(problem.domain.side)
        cube = side * side * side
        mean, peak = Fraction(TETRA_MEAN) * cube, 6 * cube
    if not (_rounds_to_normal(mean * mean) and _rounds_to_normal(n * peak * peak)):
        raise ValueError(f"{problem} over n samples: the mean or the variance "
                         "does not fit a binary64 float")


def pool_size(threads: int | None, chunks: int) -> int:
    """Worker threads ``estimate`` runs: ``min(threads, chunks, CPU count)``.

    ``threads`` defaults to the CPU count.
    """
    cpus = os.cpu_count() or 1
    return min(threads or cpus, chunks, cpus)


def estimate(
    problem: Problem,
    n: int,
    seed: int = 0,
    chunks: int = 64,
    *,
    threads: int | None = None,
) -> EstimateResult:
    """Estimate the problem's mean over n i.i.d. samples.

    Work is split into ``chunks`` independent substreams; the first
    n mod chunks of them take one extra sample.  The worker pool holds
    ``pool_size(threads, chunks)`` threads; its size has no effect on any
    returned field.  n, chunks, seed and threads must be integers (numpy
    integers pass, bools do not) with n >= 2, 1 <= chunks <= n,
    0 <= seed < 2**64 and, when given, threads >= 1; anything else raises
    ValueError.  So does, before any draw, a problem whose moments may
    leave binary64: the square of the exact mean must be a normal float,
    and n * peak**2 must be finite, where peak bounds every intermediate
    of one sample (3ab for the interior, 3 for the frame, 6 side**3 for
    the tetra).
    """
    n = _check_integer(n, "n", 2)
    chunks = _check_integer(chunks, "chunks", 1, n)
    seed = _check_integer(seed, "seed", 0, 2**64 - 1)
    if threads is not None:
        threads = _check_integer(threads, "threads", 1)
    if not isinstance(problem, Problem):
        raise TypeError(f"unknown problem kind: {problem!r}")
    _check_range(problem, n)

    base, extra = divmod(n, chunks)
    sizes = [base + (1 if i < extra else 0) for i in range(chunks)]
    # each worker thread allocates its two buffers on its first chunk and
    # reuses them for the rest: buffers freed after every chunk made glibc
    # return their pages and fault them in again for the next chunk
    held = threading.local()

    def run(i: int):
        if not hasattr(held, "buffers"):  # sizes[0] is the largest chunk
            held.buffers = (np.empty((min(_DRAW, sizes[0]), _COLUMNS[type(problem)])),
                            np.empty(min(_BLOCK, sizes[0])))
        return _chunk_moments(problem, sizes[i], seed, i, *held.buffers)

    with ThreadPoolExecutor(max_workers=pool_size(threads, chunks)) as pool:
        parts = list(pool.map(run, range(chunks)))

    total, mean, m2 = 0, 0.0, 0.0
    for part in parts:  # chunk-index order, fixed regardless of scheduling
        total, mean, m2 = _merge(total, mean, m2, *part)

    variance = m2 / (total - 1)
    stderr = (variance / total) ** 0.5
    return EstimateResult(
        mean=mean,
        variance=variance,
        stderr=stderr,
        ci95_low=mean - _Z95 * stderr,
        ci95_high=mean + _Z95 * stderr,
        n=total,
        seed=seed,
        chunks=chunks,
    )
