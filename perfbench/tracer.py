"""Outside-in tracing of the randtri layers, for the traced benchmark run.

While installed, a Tracer swaps public functions in the library's module
namespaces for wrappers that time each call, and restores them after.  The
library itself is unchanged, so a traced pass runs the same arithmetic as
an untraced one and must return bit-identical values.

Each wrapper records a span.  Spans nest per thread, and a span's self
time is its duration minus the durations of the spans it directly
contains.  Per span name the tracer keeps self seconds, calls and points
(array elements handled).  Names:

* ``quadrature.L{k}.engine`` / ``quadrature.L{k}.callback``: the
  adaptive_quad_batch call at nesting level k of nested_quadrature
  (L0..L3 = x1, y1, x2, y2) and the integrand callback it was handed;
* ``regions.bound.{x2,y2,x3,y3}``: the cell's bound callables, which the
  traced nested_quadrature rebuilds wrapped; y3 bounds stay AffineBound;
* ``frame.engine`` / ``frame.pair_sweep``: adaptive_quad_batch called from
  the frame module, and its innermost callbacks (the side-pair kernels);
* ``<module>.<function>`` for every public function a library module
  imports from another one (signed_area_xy into frame and montecarlo,
  frame_xy into montecarlo), and for the lattice entry points.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

from randtri import frame, geometry, lattice, montecarlo, quadrature, regions

from workloads import MC_BLOCK, MC_CHUNKS, MC_PROBLEMS, cpu_seconds

QUAD_LEVELS = 4
BOUND_LEVELS = ("x2", "y2", "x3", "y3")
PHILOX_SAMPLES = 2 * 10**6
THREAD_BASELINE = ("interior", "frame")


def _points(args) -> int:
    return max((a.size for a in args if isinstance(a, np.ndarray)), default=0)


class Tracer:
    """Span recorder plus the module patches that feed it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = self._build_patches()
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, list] = defaultdict(lambda: [0.0, 0, 0])
        # problem type -> (n, wall s, cpu s, kernel span s) of its estimate
        self.mc: dict[type, tuple[int, float, float, float]] = {}
        self._quad_level = 0
        self._frame_engines = 0

    # -- spans ---------------------------------------------------------------

    def call(self, name, points: int, fn, *args, **kwargs):
        """Run fn as one span; ``name`` may be a callable read at the end."""
        stack = self._local.__dict__.setdefault("stack", [])
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - t0
            inner = stack.pop()
            if stack:
                stack[-1] += duration
            key = name() if callable(name) else name
            with self._lock:
                entry = self.stats[key]
                entry[0] += duration - inner
                entry[1] += 1
                entry[2] += points

    def _span(self, name: str, fn, points=_points):
        def wrapper(*args, **kwargs):
            return self.call(name, points(args), fn, *args, **kwargs)

        return wrapper

    # -- patches -------------------------------------------------------------

    def _build_patches(self) -> list:
        patches = []
        # public functions one module imports from another
        for source in (geometry, frame):
            for user in (frame, montecarlo):
                prefix = source.__name__.rpartition(".")[2]
                for attr in source.__all__:
                    fn = getattr(source, attr)
                    if (user is not source and inspect.isfunction(fn)
                            and getattr(user, attr, None) is fn):
                        patches.append((user, attr, self._span(f"{prefix}.{attr}", fn)))
        engine = quadrature.adaptive_quad_batch
        nested = quadrature.nested_quadrature
        enumerate_ = lattice.enumerate_mean_area
        estimate = montecarlo.estimate

        def quad_engine(f, lo, hi, **kwargs):
            level = self._quad_level
            self._quad_level += 1

            def callback(ids, x):
                return self.call(f"quadrature.L{level}.callback", x.size, f, ids, x)

            try:
                return self.call(f"quadrature.L{level}.engine", 0,
                                 engine, callback, lo, hi, **kwargs)
            finally:
                self._quad_level -= 1

        def frame_engine(f, lo, hi, **kwargs):
            self._frame_engines += 1

            def callback(ids, x):
                before = self._frame_engines
                return self.call(
                    lambda: "frame.pair_sweep" if self._frame_engines == before
                    else "frame.outer_callback",
                    x.size, f, ids, x)

            return self.call("frame.engine", 0, engine, callback, lo, hi, **kwargs)

        def nested_quadrature(region, *args, **kwargs):
            return nested(self._wrap_region(region), *args, **kwargs)

        def estimate_(problem, n, *args, **kwargs):
            kernel0, cpu0, t0 = self._kernel_seconds(), cpu_seconds(), time.perf_counter()
            result = estimate(problem, n, *args, **kwargs)
            wall = time.perf_counter() - t0
            self.mc[type(problem)] = (n, wall, cpu_seconds() - cpu0,
                                      self._kernel_seconds() - kernel0)
            return result

        patches += [
            (quadrature, "adaptive_quad_batch", quad_engine),
            (frame, "adaptive_quad_batch", frame_engine),
            (quadrature, "nested_quadrature", nested_quadrature),
            (montecarlo, "estimate", estimate_),
            (lattice, "midpoint_lattice",
             self._span("lattice.midpoint_lattice", lattice.midpoint_lattice)),
            (lattice, "enumerate_mean_area",
             self._span("lattice.enumerate_mean_area", enumerate_,
                        points=lambda args: (4 * args[0]) ** 3)),
        ]
        return patches

    def _wrap_region(self, region: regions.RegionSpec) -> regions.RegionSpec:
        def wrap(level, bound):
            if isinstance(bound, regions.AffineBound):
                return dataclasses.replace(bound, const=wrap(level, bound.const),
                                           slope=wrap(level, bound.slope))
            return self._span(f"regions.bound.{level}", bound, points=lambda args: 0)

        return dataclasses.replace(region, vars=tuple(
            (v, wrap(v, lo), wrap(v, hi)) if v in BOUND_LEVELS else (v, lo, hi)
            for v, lo, hi in region.vars
        ))

    def _kernel_seconds(self) -> float:
        with self._lock:
            return sum(s[0] for name, s in self.stats.items()
                       if name.startswith("geometry.") or name == "frame.frame_xy")

    @contextlib.contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in self._patches]
        try:
            for mod, attr, wrapper in self._patches:
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self, outcomes) -> dict[str, float]:
        """Per-layer figures of the pass just traced."""
        s = self.stats
        m: dict[str, float] = {}
        for k in range(QUAD_LEVELS):
            engine, callback = s[f"quadrature.L{k}.engine"], s[f"quadrature.L{k}.callback"]
            m[f"quadrature.L{k}.engine_s"] = engine[0]
            m[f"quadrature.L{k}.callback_s"] = callback[0]
            m[f"quadrature.L{k}.points"] = callback[2]
            m[f"quadrature.L{k}.rounds"] = callback[1]
        quad = [o for o in outcomes if o.route == "quad"]
        m["quadrature.kernel_evals"] = sum(o.values[2] for o in quad)
        m["quadrature.unconverged"] = sum(not o.values[3] for o in quad)
        m["quadrature.err_bound_held"] = (
            sum(o.bound_held for o in quad) / len(quad) if quad else 0.0)
        for level in BOUND_LEVELS:
            bound = s[f"regions.bound.{level}"]
            m[f"regions.bound.{level}.s"] = bound[0]
            m[f"regions.bound.{level}.calls"] = bound[1]
        m["frame.pair_sweep_s"] = s["frame.pair_sweep"][0]
        m["frame.pair_sweep.points"] = s["frame.pair_sweep"][2]
        m["frame.engine_s"] = s["frame.engine"][0]
        m["frame.side_case.kink_misses"] = sum(
            bool(o.defect) for o in outcomes if o.route == "side")
        m["frame.frame_xy.s"] = s["frame.frame_xy"][0]
        m["frame.frame_xy.points"] = s["frame.frame_xy"][2]
        m["geometry.signed_area_xy.s"] = s["geometry.signed_area_xy"][0]
        m["geometry.signed_area_xy.points"] = s["geometry.signed_area_xy"][2]
        for kind, problem, _, _ in MC_PROBLEMS:
            n, wall, cpu, kernel = self.mc.get(type(problem), (0, 0.0, 0.0, 0.0))
            m[f"montecarlo.{kind}.ns_per_sample"] = 1e9 * wall / n if n else 0.0
            m[f"montecarlo.{kind}.cpu_per_wall"] = cpu / wall if wall else 0.0
            m[f"montecarlo.{kind}.kernel_ns_per_sample"] = 1e9 * kernel / n if n else 0.0
        build, sweep = s["lattice.midpoint_lattice"], s["lattice.enumerate_mean_area"]
        m["lattice.build_s"] = build[0]
        m["lattice.sweep_s"] = sweep[0]
        m["lattice.triples"] = sweep[2]
        m["lattice.ns_per_triple"] = 1e9 * sweep[0] / sweep[2] if sweep[2] else 0.0
        return m


def mc_baselines(seed: int, traced: dict) -> dict[str, float]:
    """Reference floors beside the Monte Carlo figures of a traced pass.

    threads=1 runs of the thread-scaled problems, against the traced
    all-core wall time, and numpy's Philox alone drawing each problem's
    frozen per-sample layout in montecarlo's block size: the part of every
    sample that no change to randtri can remove.
    """
    m = {}
    for kind, problem, _, width in MC_PROBLEMS:
        if kind in THREAD_BASELINE:
            m[f"montecarlo.{kind}.t1_ns_per_sample"] = 0.0
            m[f"montecarlo.{kind}.thread_speedup"] = 0.0
        m[f"montecarlo.{kind}.philox_ns_per_sample"] = 0.0
        if type(problem) not in traced:  # the traced pass ran no such estimate
            continue
        if kind in THREAD_BASELINE:
            n, wall_all, _, _ = traced[type(problem)]
            t0 = time.perf_counter()
            montecarlo.estimate(problem, n, seed=seed, chunks=MC_CHUNKS, threads=1)
            wall_1 = time.perf_counter() - t0
            m[f"montecarlo.{kind}.t1_ns_per_sample"] = 1e9 * wall_1 / n
            m[f"montecarlo.{kind}.thread_speedup"] = wall_1 / wall_all
        rng = np.random.Generator(np.random.Philox(key=seed))
        t0 = time.perf_counter()
        for start in range(0, PHILOX_SAMPLES, MC_BLOCK):
            rng.random((min(MC_BLOCK, PHILOX_SAMPLES - start), width))
        m[f"montecarlo.{kind}.philox_ns_per_sample"] = (
            1e9 * (time.perf_counter() - t0) / PHILOX_SAMPLES)
    return m


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
