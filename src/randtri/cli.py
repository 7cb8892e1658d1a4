"""Command-line front end for the three computation routes.

Subcommands: ``quad`` (region catalog by nested quadrature, checked
against the exact references), ``mc`` (seeded Monte Carlo), ``lattice``
(exact midpoint-lattice enumeration), and ``report`` (the full acceptance
suite).  Each run emits one ``RunRecord``: the subcommand, its parameters
(every flag with its default), the result rows, ``wall_time_s`` (the
whole command after argument parsing, validation included), the package
version and the Monte Carlo seed (``None`` for the other commands).
Machine consumers get it as one newline-delimited JSON record on a pipe;
humans get an aligned table on a TTY.  ``report --out`` writes the same
JSON line to its file as well, whatever stdout is.

Exit codes: 0 success, 1 accuracy or acceptance failure, 2 usage error
(a failed ``--out`` write included, a ``quad`` rectangle that breaks the
domain rule of ``regions``, and an ``mc`` run that breaks the range rule
of ``montecarlo.estimate``).  Every numeric rule lives in the library;
each refusal there is a plain ValueError, which the CLI turns into exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import time

from . import __version__
from .geometry import CubeDomain, RectDomain
from .lattice import enumerate_mean_area
from .montecarlo import CubeTetrahedron, FrameTriangle, InteriorTriangle, estimate
from .quadrature import QuadConfig, RegionResult, interior_catalog, nested_quadrature
from .regions import exact_reference, region_catalog
from .report import run_report

__all__ = ["RunRecord", "main"]

EXIT_OK = 0
EXIT_ACCURACY = 1
EXIT_USAGE = 2

@dataclasses.dataclass(frozen=True)
class RunRecord:
    """Everything needed to reproduce and audit one invocation."""

    command: str
    parameters: dict
    results: list
    wall_time_s: float
    version: str
    seed: int | None = None


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


def _emit(record: RunRecord, line: str) -> None:
    if sys.stdout.isatty():
        rows = record.results
        if rows:
            cols = list(dict.fromkeys(col for row in rows for col in row))
            cells = [[_fmt(row.get(col, "")) for col in cols] for row in rows]
            widths = [
                max(len(col), max(len(row[i]) for row in cells))
                for i, col in enumerate(cols)
            ]
            print("  ".join(col.ljust(w) for col, w in zip(cols, widths)))
            for row in cells:
                print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        tail = f"# {record.command} v{record.version} wall={record.wall_time_s:.3f}s"
        if record.seed is not None:
            tail += f" seed={record.seed}"
        print(tail)
    else:
        print(line)


def _quad_row(res: RegionResult, a: float, b: float) -> dict:
    reference = exact_reference(res.name, a, b)
    return {
        "region": res.name,
        "value": res.value,
        "est_error": res.est_error,
        "evaluations": res.evaluations,
        "converged": res.converged,
        "reference": f"{reference.numerator}/{reference.denominator}",
        "reference_value": float(reference),
        "rel_deviation": abs(res.value - float(reference)) / abs(float(reference)),
    }


def _cmd_quad(args: argparse.Namespace) -> tuple[list, int]:
    # the domain rule of ``regions`` rejects a bad domain before any work
    cells = region_catalog(args.a, args.b)
    cfg = QuadConfig(rel_tol=args.rel_tol)
    summed = args.region == "all"
    if not summed and args.region not in cells:
        raise ValueError(f"unknown region {args.region!r}")
    if summed:
        results = interior_catalog(args.a, args.b, cfg).values()
    else:
        results = [nested_quadrature(cells[args.region], cfg)]
    rows = [_quad_row(res, args.a, args.b) for res in results]
    worst = max(row["rel_deviation"] for row in rows)
    return rows, EXIT_OK if worst <= 10.0 * args.rel_tol else EXIT_ACCURACY


# --problem: the sides it takes, and its constructor from them
_MC_PROBLEMS = {
    "interior": (("a", "b"), lambda a, b: InteriorTriangle(RectDomain(a, b))),
    "frame": ((), FrameTriangle),
    "tetra": (("a",), lambda side: CubeTetrahedron(CubeDomain(side))),
}


def _cmd_mc(args: argparse.Namespace) -> tuple[list, int]:
    # a used side defaults to 1; an unused one leaves the record's parameters
    used, make = _MC_PROBLEMS[args.problem]
    for side in ("a", "b"):
        value = getattr(args, side)
        if side in used:
            setattr(args, side, 1.0 if value is None else value)
        elif value is None:
            delattr(args, side)
        else:
            raise ValueError(f"--{side} does not apply to --problem {args.problem}")
    problem = make(*(getattr(args, side) for side in used))
    result = estimate(
        problem, args.n, seed=args.seed, chunks=args.chunks, threads=args.threads
    )
    return [dataclasses.asdict(result)], EXIT_OK


def _cmd_lattice(args: argparse.Namespace) -> tuple[list, int]:
    value = enumerate_mean_area(args.n)
    return [{
        "n": args.n,
        "points": 4 * args.n,
        "triples": (4 * args.n) ** 3,
        "mean": f"{value.numerator}/{value.denominator}",
        "decimal": float(value),
    }], EXIT_OK


@contextlib.contextmanager
def _out_errors(path: str):
    """Turn an OSError from opening, writing or closing ``--out`` into a usage error."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc.strerror}") from exc


def _cmd_report(args: argparse.Namespace) -> tuple[list, int]:
    rows, all_pass = run_report()
    return rows, EXIT_OK if all_pass else EXIT_ACCURACY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randtri",
        description="Mean random-triangle areas by quadrature, Monte Carlo, "
        "and exact enumeration.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    quad = sub.add_parser("quad", help="integrate catalog regions and compare to exact values")
    quad.add_argument("--a", type=float, default=1.0, help="rectangle width")
    quad.add_argument("--b", type=float, default=1.0, help="rectangle height")
    quad.add_argument(
        "--region",
        default="all",
        help="one cell, I1..I10 or J1..J10, or 'all': I1..I5, J1..J5 and "
        "their sums I15, J15 and mean RESULT",
    )
    quad.add_argument("--rel-tol", type=float, default=1e-4)
    quad.set_defaults(func=_cmd_quad)

    mc = sub.add_parser("mc", help="seeded Monte Carlo estimation")
    mc.add_argument("--problem", choices=tuple(_MC_PROBLEMS), required=True)
    mc.add_argument("--n", type=int, default=1_000_000)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--chunks", type=int, default=64)
    mc.add_argument("--threads", type=int, default=None,
                    help="worker threads, capped at the CPU count and at --chunks "
                    "(default: the cap); never changes the numbers")
    mc.add_argument("--a", type=float, default=None,
                    help="rectangle width (interior) or cube side (tetra); default 1")
    mc.add_argument("--b", type=float, default=None,
                    help="rectangle height (interior only); default 1")
    mc.set_defaults(func=_cmd_mc)

    lattice = sub.add_parser("lattice", help="exact midpoint-lattice enumeration")
    lattice.add_argument("--n", type=int, required=True, help="subdivisions per side")
    lattice.set_defaults(func=_cmd_lattice)

    report = sub.add_parser("report", help="run the full acceptance suite")
    report.add_argument("--out", default=None,
                        help="also write the run record here: the JSON line a pipe gets")
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    out = getattr(args, "out", None)
    try:
        # the report file opens before any work, so a bad path fails first
        with _out_errors(out):
            fh = open(out, "w", encoding="utf-8") if out else contextlib.nullcontext()
        with fh:
            rows, code = args.func(args)
            record = RunRecord(
                command=args.command,
                parameters={k: v for k, v in vars(args).items()
                            if k not in ("command", "func")},
                results=rows,
                wall_time_s=time.perf_counter() - t0,
                version=__version__,
                seed=getattr(args, "seed", None),
            )
            line = json.dumps(dataclasses.asdict(record))
            _emit(record, line)
            if out:
                with _out_errors(out):
                    print(line, file=fh)
                    fh.close()  # inside, so a failed flush is reported too
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
