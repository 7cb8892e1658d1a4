"""Seeded sampling estimates: reproducibility, statistics, and validation."""

import math
from concurrent.futures import ThreadPoolExecutor

import pytest

from randtri import montecarlo
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


class TestGolden:
    @pytest.mark.parametrize("label", sorted(GOLDEN))
    def test_frozen_estimates(self, label):
        res = estimate(PROBLEMS[label], 10_000, seed=12345, chunks=8)
        mean, variance = GOLDEN[label]
        assert res.mean == mean
        assert res.variance == variance
        assert res.n == 10_000 and res.seed == 12345 and res.chunks == 8

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
    def test_thread_count_is_invisible(self, threads, monkeypatch):
        # with four CPUs reported, the pool really runs the requested number
        # of workers, even on a host with fewer CPUs
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        base = estimate(PROBLEMS["interior"], 100_000, seed=7, chunks=32, threads=1)
        other = estimate(
            PROBLEMS["interior"], 100_000, seed=7, chunks=32, threads=threads
        )
        assert sizes == [1, threads]
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

    def test_rejects_unknown_problem(self):
        with pytest.raises(TypeError):
            estimate(object(), 100, chunks=4)

    def test_domain_validation_happens_at_construction(self):
        with pytest.raises(ValueError):
            InteriorTriangle(RectDomain(-1.0, 1.0))
        with pytest.raises(ValueError):
            CubeTetrahedron(CubeDomain(0.0))


class TestResultType:
    def test_is_frozen_and_comparable(self):
        res = estimate(PROBLEMS["tetra"], 1_000, seed=1, chunks=2)
        assert isinstance(res, EstimateResult)
        with pytest.raises(Exception):
            res.mean = 0.0
