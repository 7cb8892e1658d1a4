"""Command-line interface: records, exit codes, and output contracts."""

import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import randtri
from randtri import __version__, montecarlo, report
from randtri.cli import main


class FakeTty(io.StringIO):
    def isatty(self):
        return True


def run_cli(argv, tty=False):
    """Drive main() in process; returns (exit_code, stdout, stderr)."""
    out = FakeTty() if tty else io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse paths
            code = exc.code if isinstance(exc.code, int) else 0
    return code, out.getvalue(), err.getvalue()


def run_module(*argv, timeout=None):
    """Run `python -m randtri` on the package these tests imported.

    A run that outlives ``timeout`` seconds is killed and fails the test.
    """
    src = str(Path(randtri.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "randtri", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )


def run_json(argv):
    code, out, err = run_cli(argv)
    assert code == 0, err
    assert out.count("\n") == 1  # exactly one record per invocation
    return json.loads(out)


class TestQuad:
    def test_single_region_record(self):
        rec = run_json(["quad", "--region", "I1"])
        assert rec["command"] == "quad"
        assert rec["version"] == __version__
        assert rec["parameters"]["region"] == "I1"
        (row,) = rec["results"]
        assert row["region"] == "I1"
        assert row["reference"] == "1/34560"
        assert row["converged"] is True
        assert row["evaluations"] > 0
        assert math.isclose(row["value"], 1.0 / 34560.0, rel_tol=1e-3)
        assert math.isclose(row["reference_value"], 1.0 / 34560.0, rel_tol=1e-15)
        assert row["rel_deviation"] <= 1e-3
        assert rec["wall_time_s"] >= 0.0

    def test_all_regions_include_summaries(self):
        rec = run_json(["quad"])
        names = [row["region"] for row in rec["results"]]
        for name in ("I1", "I5", "J1", "J5", "I15", "J15", "RESULT"):
            assert name in names
        by_name = {row["region"]: row for row in rec["results"]}
        assert math.isclose(
            by_name["RESULT"]["value"], 11.0 / 144.0, rel_tol=1e-3
        )
        assert by_name["I15"]["reference"] == "11/1728"
        # each sum counts the evaluations of its own five cells
        for total in ("I15", "J15"):
            cells = [by_name[f"{total[0]}{k}"]["evaluations"] for k in range(1, 6)]
            assert by_name[total]["evaluations"] == sum(cells)

    def test_rectangle_domain_scales_reference(self):
        rec = run_json(["quad", "--region", "J3", "--a", "2", "--b", "3"])
        (row,) = rec["results"]
        want = (18.0 / 432.0) * 6.0**3
        assert math.isclose(row["reference_value"], want, rel_tol=1e-15)
        assert math.isclose(row["value"], want, rel_tol=1e-3)

    def test_descending_region_on_true_square(self):
        rec = run_json(["quad", "--region", "I7", "--a", "2", "--b", "2"])
        (row,) = rec["results"]
        assert math.isclose(row["value"], (37.0 / 34560.0) * 4.0**4, rel_tol=1e-3)

    def test_descending_region_on_rectangle(self):
        rec = run_json(["quad", "--region", "I7", "--a", "2", "--b", "3"])
        (row,) = rec["results"]
        assert row["converged"] is True
        assert math.isclose(row["value"], (37.0 / 34560.0) * 6.0**4, rel_tol=1e-3)

    def test_unknown_region_is_usage_error(self):
        code, _, err = run_cli(["quad", "--region", "K1"])
        assert code == 2 and "K1" in err

    def test_bad_domain_is_usage_error(self):
        # the last two domains put exact references below or above binary64
        for domain in (["--a", "0"], ["--a", "1e-300", "--b", "1e-300"],
                       ["--a", "1e200", "--b", "1e200"]):
            code, _, err = run_cli(["quad", *domain])
            assert code == 2, domain
            assert err.startswith("error:"), domain

    def test_bad_tolerance_is_usage_error(self):
        code, _, _ = run_cli(["quad", "--rel-tol", "2"])
        assert code == 2

    def test_max_depth_is_not_an_option(self):
        code, _, err = run_cli(["quad", "--max-depth", "2"])
        assert code == 2 and "--max-depth" in err

    # extreme aspect ratios at which quad once ran for minutes past 1 GB
    # (1e-154 x 1e154), printed zero and NaN rows, or exited 1 with
    # unconverged or NaN rows; the domain rule of `regions` refuses each
    # before any work.  A child that hangs is killed and fails the test
    @pytest.mark.parametrize("a,b", [("1e-154", "1e154"), ("1e-300", "1e300"),
                                     ("1e-75", "1e150"), ("1e-112", "1e188")])
    def test_extreme_aspect_ratio_is_usage_error(self, a, b):
        proc = run_module("quad", "--a", a, "--b", b, timeout=5)
        assert proc.returncode == 2
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error:") and "aspect ratio" in line

    # the corners of the accepted region: the least and the greatest area
    # ab = s * s at which every exact reference is a normal float, each at
    # the aspect ratio bound 2**64, both ways round
    @pytest.mark.parametrize("s", [1.2904458064987354e-38, 5.871236534543738e38],
                             ids=["least-area", "greatest-area"])
    @pytest.mark.parametrize("turn", [1, -1], ids=["tall", "wide"])
    def test_domain_rule_corners_converge_within_est_error(self, s, turn):
        a, b = s * 2.0 ** (-32 * turn), s * 2.0 ** (32 * turn)
        argv = ["quad", "--a", repr(a), "--b", repr(b), "--rel-tol", "1e-6"]
        rows = run_json(argv)["results"]
        assert len(rows) == 13
        for row in rows:
            assert row["converged"] is True, row["region"]
            assert abs(row["value"] - row["reference_value"]) <= row["est_error"], row

    # the catalog end to end through the CLI: a non-square rectangle at
    # 1e-6 and at 1e-9, where the smallest cells' tolerance nears the
    # absolute floor, and each ascending cell of a thin one, 0.001 x 1,
    # whose cells sit near the absolute floor 1e-13.  The thin cells run
    # one by one: on that domain the RESULT row of `--region all` reports
    # converged false, because I15 stops at the floor (ROADMAP F1)
    @pytest.mark.parametrize(
        "argv",
        [["--a", "1.3", "--b", "0.8", "--rel-tol", tol] for tol in ("1e-6", "1e-9")]
        + [["--a", "0.001", "--b", "1", "--rel-tol", "1e-6", "--region", f"{p}{k}"]
           for p in "IJ" for k in range(1, 6)],
        ids=lambda argv: "-".join(argv[1::2]),
    )
    def test_every_row_converges_within_its_est_error(self, argv):
        rows = run_json(["quad", *argv])["results"]
        assert rows
        for row in rows:
            assert row["converged"] is True, row["region"]
            assert abs(row["value"] - row["reference_value"]) <= row["est_error"], row


class TestMc:
    def test_record_shape(self):
        rec = run_json(["mc", "--problem", "interior", "--n", "10000",
                        "--seed", "12345", "--chunks", "8"])
        assert rec["command"] == "mc"
        assert rec["seed"] == 12345
        (row,) = rec["results"]
        assert row["mean"] == 0.07643655937366307
        assert row["variance"] == 0.004634342684453477
        assert row["n"] == 10000 and row["chunks"] == 8
        assert row["ci95_low"] < row["mean"] < row["ci95_high"]

    def test_problem_is_required(self):
        code, _, _ = run_cli(["mc"])
        assert code == 2

    def test_tetra_uses_cube_side(self):
        rec = run_json(["mc", "--problem", "tetra", "--n", "20000",
                        "--seed", "1", "--chunks", "8", "--a", "2"])
        # volumes scale with the cube of the 3-d dilation factor: 2^3 = 8
        unit = run_json(["mc", "--problem", "tetra", "--n", "20000",
                         "--seed", "1", "--chunks", "8"])
        assert math.isclose(
            rec["results"][0]["mean"], 8.0 * unit["results"][0]["mean"], rel_tol=1e-12
        )

    def test_invalid_sizes_are_usage_errors(self):
        assert run_cli(["mc", "--problem", "frame", "--n", "1"])[0] == 2
        assert run_cli(["mc", "--problem", "frame", "--n", "100", "--chunks", "200"])[0] == 2
        assert run_cli(["mc", "--problem", "frame", "--n", "100", "--seed", "-1"])[0] == 2
        # sides the problem ignores
        for argv in (["--problem", "frame", "--a", "3", "--b", "7"],
                     ["--problem", "tetra", "--b", "7"]):
            code, _, err = run_cli(["mc", "--n", "100", *argv])
            assert code == 2
            assert err.startswith("error:") and "does not apply" in err
        # domains whose mean or variance leaves binary64 fail before sampling
        for argv in (["--problem", "interior", "--a", "1e200", "--b", "1e200"],
                     ["--problem", "interior", "--a", "1e-200", "--b", "1e-200"],
                     ["--problem", "tetra", "--a", "1e120"],
                     ["--problem", "interior", "--a", "1e150", "--b", "1e150"]):
            code, out, err = run_cli(["mc", "--n", "100", *argv])
            assert code == 2 and out == ""
            assert err.startswith("error:") and "binary64" in err

    def test_thread_count_does_not_change_bytes(self, monkeypatch):
        # four CPUs reported, so --threads 4 runs four workers on any host
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        runs = []
        for threads in ("1", "4"):
            code, out, _ = run_cli(
                ["mc", "--problem", "interior", "--n", "100000", "--seed", "7",
                 "--chunks", "32", "--threads", threads]
            )
            assert code == 0
            runs.append(json.dumps(json.loads(out)["results"], sort_keys=True))
        assert runs[0] == runs[1]


class TestLattice:
    def test_reference_subdivision(self):
        rec = run_json(["lattice", "--n", "10"])
        (row,) = rec["results"]
        assert row["mean"] == "249/1600"
        assert row["decimal"] == 249.0 / 1600.0
        assert row["points"] == 40 and row["triples"] == 64000

    def test_largest_permitted_n_obeys_the_law(self):
        n = 13_777
        (row,) = run_json(["lattice", "--n", str(n)])["results"]
        assert Fraction(row["mean"]) == Fraction(5 * n * n - 2, 32 * n * n)

    def test_zero_subdivisions_is_usage_error(self):
        assert run_cli(["lattice", "--n", "0"])[0] == 2

    @pytest.mark.parametrize("n", ["13778", "100000000000"])
    def test_oversized_run_is_usage_error(self, n):
        code, out, err = run_cli(["lattice", "--n", n])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "13777" in err and "Traceback" not in err


class TestOutputModes:
    def test_piped_output_is_single_json_line(self):
        code, out, _ = run_cli(["lattice", "--n", "1"])
        assert code == 0
        assert out.endswith("\n") and out.count("\n") == 1
        json.loads(out)

    def test_tty_output_is_a_table(self):
        code, out, _ = run_cli(["lattice", "--n", "1"], tty=True)
        assert code == 0
        assert "3/32" in out
        assert "mean" in out
        assert out.strip().splitlines()[-1].startswith("#")  # provenance footer

    def test_tty_floats_carry_full_precision(self):
        _, out, _ = run_cli(["quad", "--region", "I1"], tty=True)
        assert "e-" in out  # scientific notation with 12 fractional digits
        for token in out.split():
            if token.endswith("e-05"):
                assert len(token.split(".")[1].split("e")[0]) == 12
                break
        else:
            pytest.fail("no formatted float found in table output")

    @pytest.mark.parametrize("argv, parameters, seed", [
        (["quad", "--region", "I1", "--rel-tol", "1e-3"],
         {"a": 1.0, "b": 1.0, "region": "I1", "rel_tol": 1e-3}, None),
        (["mc", "--problem", "interior", "--n", "2000", "--b", "2"],
         {"problem": "interior", "n": 2000, "seed": 0, "chunks": 64, "threads": None,
          "a": 1.0, "b": 2.0}, 0),
        (["mc", "--problem", "frame", "--n", "2000"],
         {"problem": "frame", "n": 2000, "seed": 0, "chunks": 64, "threads": None}, 0),
        (["mc", "--problem", "tetra", "--n", "2000"],
         {"problem": "tetra", "n": 2000, "seed": 0, "chunks": 64, "threads": None,
          "a": 1.0}, 0),
        (["lattice", "--n", "3"], {"n": 3}, None),
    ], ids=["quad", "mc-interior", "mc-frame", "mc-tetra", "lattice"])
    def test_every_command_emits_one_record_shape(self, argv, parameters, seed):
        # the parameters are the flags with their defaults, in flag order;
        # mc lists only the sides its problem uses
        rec = run_json(argv)
        assert list(rec) == ["command", "parameters", "results", "wall_time_s",
                             "version", "seed"]
        assert rec["command"] == argv[0]
        assert list(rec["parameters"].items()) == list(parameters.items())
        assert rec["seed"] == seed
        assert rec["version"] == __version__
        assert rec["results"] and rec["wall_time_s"] >= 0.0

    def test_tty_table_shows_columns_of_later_rows(self, monkeypatch):
        rows = [{"criterion": "first", "pass": True},
                {"criterion": "second", "pass": True, "ratio_22_45": 0.5}]
        monkeypatch.setattr("randtri.cli.run_report", lambda: (rows, True))
        code, out, _ = run_cli(["report"], tty=True)
        assert code == 0
        header, first, second = out.splitlines()[:3]
        assert header.split() == ["criterion", "pass", "ratio_22_45"]
        assert first.split() == ["first", "yes"]
        assert second.split() == ["second", "yes", f"{0.5:.12e}"]

    def test_version_flag(self):
        code, out, _ = run_cli(["--version"])
        assert code == 0
        assert __version__ in out

    def test_missing_subcommand_is_usage_error(self):
        assert run_cli([])[0] == 2


class TestReport:
    def test_full_report_passes_and_writes_file(self, full_report):
        # three criteria read the ten ascending unit-square cells; one report
        # integrates the twenty cells of the square and the ten of the 2 x 3
        # scale law, each once
        assert full_report.code == 0
        assert len(full_report.calls) <= 20 + 10, sorted(full_report.calls)
        rec = full_report.record
        criteria = {row["criterion"]: row for row in rec["results"]}
        assert len(criteria) == 9
        assert all(row["pass"] for row in criteria.values())
        ratio_rows = [r for r in criteria.values() if "ratio_22_45" in r]
        assert len(ratio_rows) == 1
        assert math.isclose(ratio_rows[0]["ratio_22_45"], 22.0 / 45.0, rel_tol=1e-3)
        saved = json.loads(full_report.out_file.read_text())
        assert saved["all_pass"] is True
        assert saved["version"] == __version__
        assert saved["criteria"] == rec["results"]

    @pytest.mark.parametrize("cpus, workers", [(1, (1, 1)), (4, (1, 4))],
                             ids=["one-cpu", "four-cpus"])
    def test_thread_criterion_names_the_pools_that_ran(self, cpus, workers, monkeypatch):
        # on one CPU both runs use one worker, and the criterion says so
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        verdict = report._thread_determinism()
        assert verdict.passed
        assert verdict.expected == (
            f"identical serialized estimates for {workers} worker threads "
            "((1, 4) requested)"
        )

    def test_unwritable_out_fails_before_any_criterion(self, tmp_path, monkeypatch):
        def no_report():
            raise AssertionError("the report ran")

        monkeypatch.setattr("randtri.cli.run_report", no_report)
        code, out, err = run_cli(["report", "--out", str(tmp_path / "missing" / "r.json")])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "missing" in err

    def test_failed_out_write_is_usage_error(self, monkeypatch):
        # /dev/full accepts the open and fails the write with ENOSPC
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        monkeypatch.setattr("randtri.cli.run_report",
                            lambda: ([{"criterion": "stub", "pass": True}], True))
        code, _, err = run_cli(["report", "--out", "/dev/full"])
        assert code == 2
        assert err.startswith("error: cannot write --out /dev/full:")
        assert "Traceback" not in err


class TestEntryPoints:
    def test_module_invocation(self):
        proc = run_module("lattice", "--n", "2")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"][0]["mean"] == "9/64"

    def test_console_script(self):
        # the installed `randtri` command calls the [project.scripts] entry
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["randtri"]
        module, _, attr = target.partition(":")
        entry = getattr(importlib.import_module(module), attr)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
            entry(["--version"])
        assert exc.value.code == 0
        assert __version__ in out.getvalue()

    def test_subprocess_byte_determinism_across_threads(self):
        outputs = []
        for threads in ("1", "4"):
            proc = run_module("mc", "--problem", "frame", "--n", "100000",
                              "--seed", "7", "--chunks", "32", "--threads", threads)
            assert proc.returncode == 0
            outputs.append(json.loads(proc.stdout)["results"])
        assert json.dumps(outputs[0]) == json.dumps(outputs[1])


HUGE = str(10**400)
# every numeric flag at its extreme: 10**400 for the integers, 1e400
# (read as inf) and NaN for the reals
EXTREMES = [
    *(("mc", "--problem", problem, "--n", HUGE) for problem in ("interior", "frame", "tetra")),
    *(("mc", "--problem", "interior", "--n", "1000", flag, HUGE)
      for flag in ("--seed", "--chunks", "--threads")),
    ("lattice", "--n", HUGE),
    *(("quad", flag, value) for flag in ("--a", "--b", "--rel-tol") for value in ("1e400", "nan")),
    *(("mc", "--problem", "interior", flag, value)
      for flag in ("--a", "--b") for value in ("1e400", "nan")),
]


class TestExtremeFlags:
    @pytest.mark.parametrize(
        "argv", EXTREMES, ids=lambda argv: " ".join(argv).replace(HUGE, "10**400")
    )
    def test_exits_cleanly(self, argv):
        proc = run_module(*argv, timeout=5)
        # --threads is capped at the CPU count, so only it runs to the end
        assert proc.returncode == (0 if "--threads" in argv else 2)
        assert "Traceback" not in proc.stderr
